//! The continuous-batching contract: lane churn never changes a
//! session's bits.
//!
//! Sessions with *different* prompt lengths and generation lengths are
//! pipelined through a small-lane continuous engine, so sessions join
//! and leave the running batch in the middle of their neighbors'
//! streams (the `batch` field of the token events proves it). For every
//! matmul policy, each session's full logit stream must be bit-identical
//! to replaying that session alone, one `[1, 1]` step at a time, through
//! a fresh plan-less executor. This file holds a single `#[test]` on
//! purpose: the matmul policy is process-global, so no other test in
//! this binary may race it.

use echo_graph::{Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{LmState, WordLmDecoder, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_serve::{Engine, GenRequest, ServeConfig, StreamEvent};
use echo_tensor::policy::{set_matmul_policy, MatmulBackend, MatmulPolicy};
use std::sync::Arc;

const SEED: u64 = 43;
const VOCAB: usize = 31;
const SESSIONS: u64 = 7;
const MAX_LANES: usize = 3;

fn hyper() -> WordLmHyper {
    WordLmHyper::tiny(VOCAB, LstmBackend::Default)
}

/// Deliberately ragged request shapes: prompt lengths 1..=3 and
/// generation lengths 4..=8, so no two neighbors finish together and
/// every completion triggers a mid-stream join for the next session.
fn prompt(session: u64) -> Vec<u32> {
    (0..=(session % 3))
        .map(|i| ((session * 13 + i * 5 + 2) % VOCAB as u64) as u32)
        .collect()
}

fn max_new(session: u64) -> usize {
    4 + (session as usize * 3) % 5
}

/// Replays one session alone at B = 1 through a fresh plan-less
/// executor: prefill the prompt, then greedy-decode, collecting the
/// logits of every emitted token.
fn isolated_reference(session: u64) -> Vec<Vec<f32>> {
    let dec = WordLmDecoder::build(hyper());
    let mut exec = Executor::new(
        Arc::clone(&dec.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    dec.bind_params(&mut exec, SEED).unwrap();
    let mut state = LmState::zero(dec.hyper.layers, dec.hyper.hidden);
    let mut next_inputs = prompt(session);
    next_inputs.reverse(); // pop from the back = consume in order
    let mut next = next_inputs.pop().unwrap();
    let mut streamed = Vec::new();
    while streamed.len() < max_new(session) {
        let (logits, states) = dec
            .infer_step(&mut exec, &[next], std::slice::from_ref(&state))
            .unwrap();
        state = states.into_iter().next().unwrap();
        if let Some(p) = next_inputs.pop() {
            next = p; // still prefilling, nothing emitted
            continue;
        }
        let row = logits.into_iter().next().unwrap();
        next = argmax(&row);
        streamed.push(row);
    }
    streamed
}

fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

#[test]
fn continuous_batching_is_bit_identical_under_lane_churn() {
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
                // More sessions than lanes: the batch is always full
                // while the backlog lasts, and every leave admits the
                // next session into the middle of its neighbors'
                // streams.
                max_batch: MAX_LANES,
                queue_capacity: 64,
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();

        let tickets: Vec<_> = (0..SESSIONS)
            .map(|s| {
                engine
                    .generate(GenRequest::new(s, prompt(s), max_new(s)))
                    .expect("queue sized for the whole backlog")
            })
            .collect();

        let mut saw_churned_stream = false;
        for (session, ticket) in tickets.into_iter().enumerate() {
            let mut streamed: Vec<Vec<f32>> = Vec::new();
            let mut batches: Vec<usize> = Vec::new();
            let mut done = None;
            while let Some(event) = ticket.next() {
                match event {
                    StreamEvent::Token {
                        index,
                        token,
                        logits,
                        batch,
                    } => {
                        assert_eq!(index, streamed.len(), "tokens arrive in order");
                        assert_eq!(token, argmax(&logits));
                        streamed.push(logits);
                        batches.push(batch);
                    }
                    StreamEvent::Done { generated, .. } => {
                        done = Some(generated);
                    }
                    StreamEvent::Error(e) => panic!("session {session} errored: {e}"),
                }
            }
            assert_eq!(done, Some(max_new(session as u64)), "stream ran to Done");
            // A stream whose lane count changed between its own tokens
            // lived through neighbors joining or leaving mid-stream.
            saw_churned_stream |= batches.windows(2).any(|w| w[0] != w[1]);

            let reference = isolated_reference(session as u64);
            assert_eq!(streamed.len(), reference.len());
            for (step, (got, want)) in streamed.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got, want,
                    "policy {policy:?}: session {session} token {step} must be \
                     bit-identical to its isolated replay"
                );
            }
        }
        assert!(
            saw_churned_stream,
            "policy {policy:?}: no session saw its lane count change \
             mid-stream, so the test never exercised join/leave churn"
        );

        engine.shutdown();
        let stats = engine.stats();
        assert_eq!(stats.completed, SESSIONS, "every stream answered");
        assert_eq!(stats.joins, SESSIONS, "each session joined once");
        assert_eq!(stats.leaves, SESSIONS, "each session left once");
        assert_eq!(stats.max_batch_observed, MAX_LANES, "the batch filled");
        assert!(stats.steps > 0);
        let occupancy = stats.occupancy();
        assert!(
            occupancy > 1.0 && occupancy <= MAX_LANES as f64,
            "occupancy {occupancy} out of range"
        );
        assert!(stats.churn_per_step() > 0.0);
    }
    set_matmul_policy(MatmulPolicy::Auto);
}
