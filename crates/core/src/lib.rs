//! Echo: compiler-based GPU memory footprint reduction for LSTM RNN
//! training.
//!
//! This crate is the paper's primary contribution — a compiler over the
//! [`echo_graph`] IR that makes two optimizations transparently:
//!
//! 1. **Selective recomputation** (*partial forward propagation*, paper
//!    §4.1; the "Echo" pass of the ISCA'20 version). [`analysis`] infers
//!    every node's shape; [`oshape`] finds *O-shape* segments — connected
//!    regions of cheap (GEMM-free) operators whose stashed intermediates
//!    dwarf their boundary inputs — and produces a
//!    [`StashPlan`](echo_graph::StashPlan) that drops those intermediates
//!    in the forward pass and replays the segment during backward, with
//!    structurally identical segments (one per decoder time step) sharing
//!    a single workspace pool.
//! 2. **Data layout selection** (§4.2, §5.4). [`mod@autotune`] re-exports the
//!    microbenchmark that transparently picks between the `Default`,
//!    `CuDNN` and `EcoRNN` LSTM backends for the user's hyperparameters.
//!
//! The [`EchoCompiler`] front-end ties both together.
//!
//! # Example
//!
//! ```
//! use echo::{EchoCompiler, EchoConfig};
//! use echo_models::{NmtHyper, NmtModel};
//! use echo_rnn::LstmBackend;
//!
//! let model = NmtModel::build(NmtHyper::tiny(100, 90));
//! let compiler = EchoCompiler::new(EchoConfig::default());
//! let compiled = compiler.compile(
//!     &model.graph,
//!     &model.symbolic_bindings(4),
//!     &model.param_shapes(),
//!     &[model.loss, model.logits],
//! )?;
//! // One recomputation segment per decoder step was discovered.
//! assert_eq!(compiled.report.segments.len(), model.hyper.decoder_steps());
//! # Ok::<(), echo::EchoError>(())
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod baselines;
pub mod compiler;
pub mod oshape;
pub mod search;

pub use analysis::ShapeTable;
pub use baselines::{chen_sqrt_plan, sqrt_stride, ChenReport};
pub use compiler::{
    CompiledPlan, EchoCompiler, EchoConfig, EchoError, PassReport, SegmentReport, StageSummary,
    StashSelection,
};
pub use oshape::{OshapeConfig, SegmentInfo};
pub use search::{segments_from_plan, SearchConfig, SearchOutcome, SearchReport, StashSearch};

/// Re-export of the autotuning microbenchmark (paper §5.4).
pub use echo_rnn::autotune;

/// Re-export of the executor the compiled plans run on.
pub use echo_graph::Executor;

/// Re-exports of the graph-level IR stage partitioning reads and the
/// per-stage compile trace.
pub use echo_graph::{Gir, PassTrace};
