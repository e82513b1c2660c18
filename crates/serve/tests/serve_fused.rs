//! Serving the fused decode graph changes launch counts, not bits.
//!
//! `ServeConfig { fuse: true }` swaps the decoder graph for its GIR
//! pipeline rewrite (merging CSE + LSTM-cell fusion + elementwise-chain
//! fusion) before the engine builds its plans. This must be completely
//! transparent to clients: per-step logits (and therefore greedy argmax
//! decodes) are bit-identical to an unfused engine with the same seed,
//! while the per-step inference plans carry strictly fewer forward
//! launches.

use echo_models::WordLmHyper;
use echo_rnn::LstmBackend;
use echo_serve::{Engine, ServeConfig, ServeError, StepOutput};

const SEED: u64 = 53;
const VOCAB: usize = 31;
const SESSIONS: u64 = 3;
const TOKENS_PER_SESSION: usize = 6;

fn start(fuse: bool) -> Engine {
    Engine::start(
        WordLmHyper::tiny(VOCAB, LstmBackend::Default),
        SEED,
        ServeConfig {
            max_batch: 2,
            workers: 1,
            fuse,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn run_sessions(engine: &Engine) -> Vec<Vec<StepOutput>> {
    (0..SESSIONS)
        .map(|session| {
            (0..TOKENS_PER_SESSION)
                .map(|i| {
                    let token = ((session * 7 + i as u64 * 3 + 1) % VOCAB as u64) as u32;
                    loop {
                        match engine.submit(session, token) {
                            Ok(ticket) => break ticket.wait().unwrap(),
                            Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("submit failed: {e}"),
                        }
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn fused_engine_is_bit_identical_with_fewer_launches() {
    let mut unfused = start(false);
    let mut fused = start(true);

    // Fewer launches per decode step, at every pre-built batch size.
    assert_eq!(unfused.plans().len(), fused.plans().len());
    for (u, f) in unfused.plans().iter().zip(fused.plans()) {
        assert!(
            f.forward_launch_count() < u.forward_launch_count(),
            "fused plan must shrink the launch table: {} vs {}",
            f.forward_launch_count(),
            u.forward_launch_count()
        );
    }

    // Identical bits for every session and step.
    let reference = run_sessions(&unfused);
    let outputs = run_sessions(&fused);
    for (session, (ref_steps, fused_steps)) in reference.iter().zip(&outputs).enumerate() {
        for (step, (r, f)) in ref_steps.iter().zip(fused_steps).enumerate() {
            assert_eq!(
                f.logits, r.logits,
                "session {session} step {step}: fused logits diverge"
            );
            assert_eq!(f.argmax(), r.argmax(), "session {session} step {step}");
        }
    }

    unfused.shutdown();
    fused.shutdown();
}
