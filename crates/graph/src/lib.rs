//! Dataflow graph IR with reverse-mode autodiff, a plan-driven executor and
//! a device projection of its plans.
//!
//! This crate is the substitute for MXNet's graph executor — the substrate
//! the Echo compiler pass operates on. A [`Graph`] is a static DAG of
//! single-output operator nodes ([`Operator`]); the [`Executor`] runs
//! training iterations over it while maintaining the three disciplines the
//! paper's analysis depends on:
//!
//! * **Feature-map stashing.** In training, every node output (and every
//!   operator-private saved tensor) is held in device memory until the
//!   backward pass consumes it — unless the node's [`StashPolicy`] says
//!   `Recompute`, in which case the value is dropped after its last forward
//!   use and *regenerated by replaying its segment* when backward needs it
//!   (partial forward propagation, paper §4.1/Figure 8).
//! * **Workspace exclusivity.** Replayed values live in a workspace on a
//!   per-segment-group pool; sequential backward execution means one
//!   scratch per pool is alive at a time, so recomputation workspace stays
//!   `O(B·T·H)` instead of `O(B·T²·H)` (paper §4.1.2).
//! * **Kernel accounting.** Every forward, backward and replay step's
//!   kernel launches are in its [`ExecPlan`]'s tables, so runtime
//!   breakdowns and the recompute overhead are measured, not asserted.
//!
//! The executor only computes: real `f32` tensors flow, for training
//! curves and for the property tests that recomputation is bit-exact. A
//! device-sim projection is one fold over the plan ([`ExecPlan::project`]),
//! applied after a numeric step that is given a simulator, or without
//! computing anything by [`Executor::project`] on parameters bound by
//! shape alone — how memory footprints and simulated runtimes of
//! configurations far too large for host compute are measured. Both read
//! the same schedule, policies and accounting timeline, so a memory or
//! timing number always corresponds to the kernel sequence a numeric step
//! executes.

#![warn(missing_docs)]

pub mod error;
pub mod exec;
pub mod gir;
pub mod gradcheck;
pub mod graph;
pub mod op;
pub mod plan;
pub mod policy;
pub mod reference;

pub use error::GraphError;
pub use exec::{ExecOptions, Executor, IterationStats, StageStepOutput, WavefrontMode};
pub use gir::{
    partition_stages, Gir, PassTrace, Rewrite, StageExecPlans, StagePartition, StageSpec,
};
pub use graph::{Graph, Node, NodeId, NodeKind};
pub use op::{KernelLaunch, LaunchSpec, Operator, StashNeeds};
pub use plan::{launch_flops, plan_fallbacks, plans_built, ExecPlan};
pub use policy::{SegmentId, StashPlan, StashPolicy};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
