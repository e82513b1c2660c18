//! Simulated GPU device memory: the categories bytes are classified by,
//! the capacity model, and the profiler's reports.
//!
//! The paper's memory claims (2× footprint reduction, the 59% → 6% collapse
//! of the attention layers' share, the workspace staying `O(B·T·H)`) are all
//! statements about *what the framework holds and when*. This crate is the
//! substitute for the 12 GB GDDR5X of a Titan Xp plus the MXNet memory
//! profiler. Every byte figure comes from an execution plan's static
//! accounting timeline, tagged with
//!
//! * the [`LayerKind`] it belongs to (RNN, attention, output, …) and
//! * its [`DataStructureKind`] (placeholder, weight, feature map, workspace),
//!
//! matching the two axes of the paper's Figure 5 breakdown. Nothing is
//! allocated: an executor folds its plans' figures into a [`MemoryReport`],
//! and [`DeviceMemory`] is a plain capacity model that rejects a plan whose
//! peak does not fit with [`WontFit`], once, before it runs. That check is
//! what produces the "memory capacity wall" of Figure 4(b) and the dashed
//! regions of Figure 16.
//!
//! # Example
//!
//! ```
//! use echo_memory::{DeviceMemory, WontFit};
//!
//! // 1 GiB with a 100 MiB context and no fragmentation.
//! let mem = DeviceMemory::with_overhead_model(1 << 30, 100 << 20, 0.0);
//! assert_eq!(mem.nvidia_smi_bytes(512 << 20), 612 << 20);
//! assert!(mem.check(924 << 20).is_ok());
//! assert_eq!(
//!     mem.check(925 << 20),
//!     Err(WontFit { needed: 1025 << 20, capacity: 1 << 30 })
//! );
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod profiler;
pub mod scratch;
pub mod tensor_pool;

pub use alloc::{DataStructureKind, DeviceMemory, LayerKind, WontFit};
pub use profiler::{Breakdown, BreakdownRow, MemoryBreakdown, MemoryReport};
pub use scratch::ScratchArena;
pub use tensor_pool::{TensorPool, TensorPoolStats};
