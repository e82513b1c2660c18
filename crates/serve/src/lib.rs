//! `echo-serve`: a continuous-batching inference service for the word-LM
//! decode path.
//!
//! Training and serving want opposite things from the executor. Training
//! runs one huge step and must remember everything the backward pass
//! will touch; serving runs millions of tiny steps and must remember
//! *nothing* — except each conversation's recurrent state. This crate is
//! the serving half, built on three pieces the rest of the workspace
//! provides:
//!
//! 1. **Inference-mode execution plans**
//!    ([`echo_graph::ExecPlan::build_inference`]) — no backward schedule,
//!    no stash table, no gradient slots, so the slot arena and launch
//!    table are strictly smaller than the training plan's for the same
//!    graph and shapes. One plan per batch size `1..=max_batch` is
//!    compiled once and shared by every worker replica.
//! 2. **A batch-invariant decode step**
//!    ([`echo_models::WordLmDecoder::infer_step`]) — stacking B requests
//!    into one `[1, B]` step is bit-identical, lane for lane, to B
//!    separate `[1, 1]` steps, for every matmul backend. This is the
//!    license to batch — and to *re*-batch: the continuous scheduler can
//!    admit and retire lanes between decode steps without changing
//!    anyone's logits.
//! 3. **Per-session recurrent state** ([`echo_models::LmState`]) carried
//!    across calls in a capacity-bounded LRU [`SessionCache`]; evicted
//!    sessions are transparently re-warmed by replaying their token
//!    history from zero — bit-identical to never having been evicted,
//!    again by batch invariance.
//!
//! The engine ([`Engine`]) is a synchronous core behind bounded
//! per-worker queues: [`Engine::generate`] either accepts a generation
//! stream and returns a [`StreamTicket`], or rejects immediately
//! ([`ServeError::Overloaded`], [`ServeError::QuotaExceeded`]) —
//! backpressure by rejection, never by blocking the caller. Workers run
//! the **continuous in-flight scheduler** ([`scheduler`]), the only one:
//! sessions join and leave a running batch between decode steps, with
//! per-step lane compaction over the pre-built per-batch-size plans.
//!
//! A production front end ([`Frontend`]) wraps the engine in a threaded
//! newline-delimited-JSON TCP server: streaming token output, per-tenant
//! admission quotas, bounded reply waits ([`Ticket::wait_timeout`]), and
//! a `STATS` endpoint surfacing queue depth, batch occupancy, lane-churn
//! rate, latency percentiles and session-cache hit rate from
//! [`EngineStats`].
//!
//! ```
//! use echo_models::WordLmHyper;
//! use echo_rnn::LstmBackend;
//! use echo_serve::{Engine, GenRequest, ServeConfig, StreamEvent};
//!
//! let engine = Engine::start(
//!     WordLmHyper::tiny(50, LstmBackend::Default),
//!     7,
//!     ServeConfig::default(),
//! )?;
//! let stream = engine.generate(GenRequest::new(1, vec![12, 3], 4))?;
//! let mut generated = Vec::new();
//! while let Some(event) = stream.next() {
//!     match event {
//!         StreamEvent::Token { token, .. } => generated.push(token),
//!         StreamEvent::Done { .. } => break,
//!         StreamEvent::Error(e) => return Err(e),
//!     }
//! }
//! assert_eq!(generated.len(), 4);
//! # Ok::<(), echo_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod frontend;
pub mod queue;
pub mod scheduler;
pub mod session;
pub mod wire;

pub use engine::{
    BatchMode, Engine, EngineStats, GenRequest, ServeConfig, ServeError, StepOutput, StreamEvent,
    StreamTicket, Ticket,
};
pub use frontend::{Frontend, FrontendConfig};
pub use queue::{BoundedQueue, Popped, PushError};
pub use session::SessionCache;
pub use wire::JsonValue;
