//! # swapbench — the SwapRAM reproduction's benchmark
//!
//! Four workloads, each chosen to load different layers (see
//! [`workload::Workload`] and `README.md`):
//!
//! * `sim-steady` and `swap-thrash` call the simulator crates directly
//!   ([`library`]), in a child process per rep;
//! * `campaign-fast` and `paper-report` run the repository's `campaign`
//!   and `all` binaries ([`sweep`]), one fresh process and directory per
//!   rep.
//!
//! Every rep's deterministic output is digested and compared across reps,
//! and every output is checked: library cells against the benchmark
//! oracles, sweep rows against the contracts in [`outputs`]. End-to-end
//! metrics come from untraced reps; a separate traced rep records spans
//! around each layer's calls ([`trace`]) and reports per-layer metrics
//! ([`layers`]).

pub mod layers;
pub mod library;
pub mod outputs;
pub mod rusage;
pub mod stats;
pub mod sweep;
pub mod sysinfo;
pub mod trace;
pub mod workload;
