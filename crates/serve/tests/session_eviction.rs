//! Satellite: eviction is invisible. With an LRU capacity of K and K + 1
//! live sessions, some session is evicted on every round — and the engine
//! must transparently re-warm it from its token history so its logits
//! stay bit-identical to a session that was never evicted.

use echo_graph::{Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::{LmState, WordLmDecoder, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_serve::{Engine, ServeConfig};
use std::sync::Arc;

const SEED: u64 = 77;
const VOCAB: usize = 29;
const CAPACITY: usize = 2;
const SESSIONS: u64 = CAPACITY as u64 + 1;
const ROUNDS: usize = 6;

fn hyper() -> WordLmHyper {
    WordLmHyper::tiny(VOCAB, LstmBackend::Default)
}

fn token(session: u64, round: usize) -> u32 {
    ((session * 7 + round as u64 * 3 + 1) % VOCAB as u64) as u32
}

#[test]
fn evicted_sessions_rewarm_bit_identically() {
    // One worker so all K + 1 sessions share one capacity-K cache, and
    // B = 1 batches so every round touches the sessions one at a time in
    // a deterministic LRU order.
    let mut engine = Engine::start(
        hyper(),
        SEED,
        ServeConfig {
            max_batch: 1,
            queue_capacity: 64,
            workers: 1,
            session_capacity: CAPACITY,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Round-robin across K + 1 sessions: by the time a session comes
    // around again, the two others have pushed it out of the cache.
    let mut served: Vec<Vec<Vec<f32>>> = vec![Vec::new(); SESSIONS as usize];
    for round in 0..ROUNDS {
        for session in 0..SESSIONS {
            let out = engine.step(session, token(session, round)).unwrap();
            served[session as usize].push(out.logits);
        }
    }

    // Join the workers so the final round's counters are published.
    engine.shutdown();
    let stats = engine.stats();
    assert!(
        stats.evictions > 0,
        "K + 1 live sessions against a capacity-K cache must evict"
    );
    assert!(
        stats.rewarms > 0,
        "evicted sessions with history must have been re-warmed"
    );
    assert!(stats.rewarm_tokens >= stats.rewarms);

    // The cache counters must account for every request exactly once:
    // each step resolves its session's state with one lookup, and every
    // miss is either a brand-new session (the first SESSIONS lookups) or
    // an eviction re-warm.
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        SESSIONS * ROUNDS as u64,
        "one cache lookup per served step"
    );
    assert_eq!(
        stats.cache_misses,
        SESSIONS + stats.rewarms,
        "every miss is a fresh session or a re-warmed eviction"
    );
    // Round-robin over K + 1 sessions against a capacity-K LRU is the
    // pathological thrash pattern: by the time a session returns, the
    // others have pushed it out, so *every* lookup misses.
    assert_eq!(stats.cache_hits, 0, "K + 1 round-robin thrashes the LRU");
    assert!(stats.cache_hit_rate() == 0.0);
    assert_eq!(
        stats.evictions,
        SESSIONS * ROUNDS as u64 - CAPACITY as u64,
        "every put beyond the first CAPACITY evicts exactly one state"
    );

    // An uninterrupted replay of each session (fresh plan-less executor,
    // same seed, state threaded the whole way, never evicted) must match
    // every served step bit for bit.
    let dec = WordLmDecoder::build(hyper());
    for session in 0..SESSIONS {
        let mut exec = Executor::new(
            Arc::clone(&dec.graph),
            StashPlan::stash_all(),
            DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
        );
        dec.bind_params(&mut exec, SEED).unwrap();
        let mut state = LmState::zero(dec.hyper.layers, dec.hyper.hidden);
        for (round, expected) in served[session as usize].iter().enumerate() {
            let (logits, next) = dec
                .infer_step(
                    &mut exec,
                    &[token(session, round)],
                    std::slice::from_ref(&state),
                )
                .unwrap();
            state = next.into_iter().next().unwrap();
            assert_eq!(
                expected, &logits[0],
                "session {session} round {round}: re-warmed logits must be \
                 bit-identical to an uninterrupted session"
            );
        }
    }
}
