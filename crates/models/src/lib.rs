//! End-to-end training models: word-level language modeling, the NMT
//! encoder–decoder with attention, and the ResNet-50 cost model used by
//! the paper's motivation figure.
//!
//! Every model is a [`echo_graph::Graph`] built from `echo-ops` /
//! `echo-rnn` operators plus handles to its parameter and input nodes, so
//! the same definition can
//!
//! * train numerically on the CPU (training/validation curves, Figure 12),
//! * be projected onto the device model with shape-only bindings
//!   (throughput and memory figures), and
//! * be recompiled by the Echo pass (recomputation + layout plans).

#![warn(missing_docs)]

pub mod infer;
pub mod metrics;
pub mod nmt;
pub mod pipeline;
pub mod resnet;
pub mod trainer;
pub mod word_lm;

pub use infer::{LmState, WordLmDecoder};
pub use metrics::{bleu, perplexity};
pub use nmt::{NmtHyper, NmtModel};
pub use pipeline::{PipelineOptions, PipelineTrainer, StageStepStats, StepReport};
pub use resnet::{resnet50_iteration_ns, resnet50_memory_bytes};
pub use trainer::{Adam, MicrobatchTrainer, Optimizer, Sgd, Speedometer, TrainLog};
pub use word_lm::{WordLm, WordLmHyper};
