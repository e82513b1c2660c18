//! The engine always serves the fused decode graph; fusion changes launch
//! counts, not bits.
//!
//! The oracle is the unfused decode graph stepped through
//! `WordLmDecoder::infer_step` one session at a time. Per-step logits (and
//! therefore greedy argmax decodes) from the engine must be bit-identical
//! to it, while the engine's per-step inference plans carry strictly fewer
//! forward launches than the unfused graph's.

use echo_graph::{Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{LmState, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_serve::{Engine, ServeConfig, ServeError};
use std::sync::Arc;

const SEED: u64 = 53;
const VOCAB: usize = 31;
const SESSIONS: u64 = 3;
const TOKENS_PER_SESSION: usize = 6;

fn token(session: u64, i: usize) -> u32 {
    ((session * 7 + i as u64 * 3 + 1) % VOCAB as u64) as u32
}

#[test]
fn fused_engine_is_bit_identical_with_fewer_launches() {
    let mut engine = Engine::start(
        WordLmHyper::tiny(VOCAB, LstmBackend::Default),
        SEED,
        ServeConfig {
            max_batch: 2,
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let dec = engine.decoder();
    let mut oracle = Executor::new(
        Arc::clone(&dec.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    dec.bind_params(&mut oracle, SEED).unwrap();

    // Fewer launches per decode step, at every pre-built batch size.
    assert_eq!(engine.plans().len(), 2);
    for (i, fused) in engine.plans().iter().enumerate() {
        let unfused = oracle
            .plan_for_inference(&dec.symbolic_bindings(i + 1), dec.outputs())
            .unwrap();
        assert!(
            fused.forward_launch_count() < unfused.forward_launch_count(),
            "fused plan must shrink the launch table: {} vs {}",
            fused.forward_launch_count(),
            unfused.forward_launch_count()
        );
    }

    // Identical bits for every session and step.
    for session in 0..SESSIONS {
        let mut state = LmState::zero(dec.hyper.layers, dec.hyper.hidden);
        for i in 0..TOKENS_PER_SESSION {
            let token = token(session, i);
            let served = loop {
                match engine.submit(session, token) {
                    Ok(ticket) => break ticket.wait().unwrap(),
                    Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("submit failed: {e}"),
                }
            };
            let (logits, next) = dec
                .infer_step(&mut oracle, &[token], std::slice::from_ref(&state))
                .unwrap();
            assert_eq!(
                served.logits, logits[0],
                "session {session} step {i}: fused logits diverge from the unfused replay"
            );
            state = next.into_iter().next().unwrap();
        }
    }

    engine.shutdown();
}
