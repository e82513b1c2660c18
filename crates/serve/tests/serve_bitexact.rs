//! The serving contract: batching never changes a session's bits.
//!
//! For every matmul policy, an engine that coalesces pipelined
//! single-step `submit` requests of concurrent sessions into shared decode
//! steps (running inference-mode plans on a worker replica) must produce, for each session, logits bit-identical to replaying that
//! session alone, one `[1, 1]` step at a time, through a plan-less
//! executor. This file holds a single `#[test]` on purpose: the matmul
//! policy is process-global, so no other test in this binary may race it.

use echo_graph::{Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{LmState, WordLmDecoder, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_serve::{Engine, ServeConfig, ServeError, Ticket};
use echo_tensor::policy::{set_matmul_policy, MatmulBackend, MatmulPolicy};
use std::sync::Arc;

const SEED: u64 = 41;
const VOCAB: usize = 37;
const SESSIONS: u64 = 5;
const TOKENS_PER_SESSION: usize = 7;

fn hyper() -> WordLmHyper {
    WordLmHyper::tiny(VOCAB, LstmBackend::Default)
}

fn session_tokens(session: u64) -> Vec<u32> {
    (0..TOKENS_PER_SESSION)
        .map(|i| ((session * 11 + i as u64 * 5 + 3) % VOCAB as u64) as u32)
        .collect()
}

/// Replays one session alone at B = 1 through a fresh plan-less executor.
fn unbatched_reference(session: u64) -> Vec<Vec<f32>> {
    let dec = WordLmDecoder::build(hyper());
    let mut exec = Executor::new(
        Arc::clone(&dec.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    dec.bind_params(&mut exec, SEED).unwrap();
    let mut state = LmState::zero(dec.hyper.layers, dec.hyper.hidden);
    let mut logits = Vec::new();
    for &token in &session_tokens(session) {
        let (l, s) = dec
            .infer_step(&mut exec, &[token], std::slice::from_ref(&state))
            .unwrap();
        logits.push(l.into_iter().next().unwrap());
        state = s.into_iter().next().unwrap();
    }
    logits
}

#[test]
fn batched_serving_is_bit_identical_for_every_matmul_policy() {
    let policies = [
        MatmulPolicy::Auto,
        MatmulPolicy::Fixed(MatmulBackend::Naive),
        MatmulPolicy::Fixed(MatmulBackend::PackedParallel),
    ];
    for policy in policies {
        set_matmul_policy(policy);

        let mut engine = Engine::start(
            hyper(),
            SEED,
            ServeConfig {
                max_batch: 4,
                queue_capacity: 256,
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(engine.plans().len(), 4, "one plan per batch size");

        // Pipeline every session's whole request stream before waiting:
        // the scheduler coalesces across sessions while the parked
        // per-session FIFO keeps state threading causal.
        let mut tickets: Vec<Vec<Ticket>> = Vec::new();
        for session in 0..SESSIONS {
            let mut per_session = Vec::new();
            for &token in &session_tokens(session) {
                per_session.push(submit_with_retry(&engine, session, token));
            }
            tickets.push(per_session);
        }

        let mut coalesced = false;
        for (session, per_session) in tickets.into_iter().enumerate() {
            let reference = unbatched_reference(session as u64);
            for (step, ticket) in per_session.into_iter().enumerate() {
                let out = ticket.wait().unwrap();
                coalesced |= out.batch_size > 1;
                assert_eq!(
                    out.logits, reference[step],
                    "policy {:?}: session {session} step {step} must be \
                     bit-identical to its unbatched replay",
                    policy
                );
            }
        }
        assert!(
            coalesced,
            "policy {policy:?}: the engine never batched, so the test \
             exercised nothing beyond B = 1"
        );

        // Join the workers so the final batch's counters are published.
        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(
            stats.completed,
            SESSIONS * TOKENS_PER_SESSION as u64,
            "every accepted request is answered"
        );
        assert!(stats.max_batch_observed >= 2);
        assert!(
            stats.pool_reuse_hits > 0,
            "decode steps must recycle pooled storage across requests"
        );
    }
    set_matmul_policy(MatmulPolicy::Auto);
}

fn submit_with_retry(engine: &Engine, session: u64, token: u32) -> Ticket {
    loop {
        match engine.submit(session, token) {
            Ok(ticket) => return ticket,
            Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}
