//! # gaps-perfbench
//!
//! The repository's benchmark. One run measures one workload:
//!
//! * untraced (`--trace 0`), it drives the real `gaps` binary — `gaps
//!   serve` over loopback or `gaps batch` over a file — and reports the
//!   end-to-end metrics a user sees;
//! * traced (`--trace 1`), it runs the same end-to-end phase, then
//!   replays the same inputs in-process through each layer's public
//!   functions with spans around every call, and reports per-layer
//!   metrics.
//!
//! Every answer is checked against `gaps_engine::Engine`. See
//! `README.md` for the workloads, the metrics and what each layer
//! metric should move.

pub mod batch;
pub mod check;
pub mod clock;
pub mod daemon;
pub mod e2e;
pub mod inputs;
pub mod layers;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
