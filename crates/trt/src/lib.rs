//! A TensorRT-like engine compiler for the `jetsim` simulator.
//!
//! Real TensorRT turns a network definition into a device-specific
//! *engine*: a sequence of fused GPU kernels with fixed batch size and
//! per-layer precisions. This crate reproduces the parts of that pipeline
//! the paper's observations depend on:
//!
//! * **layer fusion** ([`builder::EngineBuilder`]) — conv+bn+activation(+add)
//!   chains collapse into single kernels, which is why engines run ~50–120
//!   kernels rather than hundreds of layers;
//! * **precision assignment** — the requested format is applied per layer,
//!   falling back where the device lacks support (Jetson Nano: int8/tf32 →
//!   fp32) and keeping skinny layers out of int8 (YOLO-class models);
//! * **memory accounting** ([`engine::Engine`]) — CUDA context + weights +
//!   activation workspace + double-buffered I/O, matching the paper's
//!   "model size + 2 × batch" rule (§6.1.1);
//! * **kernel cost descriptors** ([`kernel::KernelDesc`]) — calibrated
//!   compute/memory/launch-floor timing and SM / issue-slot / tensor-core
//!   utilisation models consumed by `jetsim-sim` and `jetsim-profile`.
//!
//! # Examples
//!
//! ```
//! use jetsim_device::presets;
//! use jetsim_dnn::{zoo, Precision};
//! use jetsim_trt::EngineBuilder;
//!
//! let device = presets::orin_nano();
//! let engine = EngineBuilder::new(&device)
//!     .precision(Precision::Fp16)
//!     .batch(4)
//!     .build(&zoo::resnet50())?;
//! assert!(engine.kernel_count() < zoo::resnet50().len());
//! assert_eq!(engine.batch(), 4);
//! # Ok::<(), jetsim_trt::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod engine;
pub mod error;
pub mod kernel;

pub use builder::EngineBuilder;
pub use cache::{CacheStats, EngineCache, EngineKey};
pub use engine::Engine;
pub use error::BuildError;
pub use kernel::{KernelDesc, KernelKind};
