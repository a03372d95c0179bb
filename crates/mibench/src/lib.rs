//! # mibench — embedded benchmarks for the SwapRAM reproduction
//!
//! The nine MiBench2-style benchmarks the paper evaluates (Table 1) plus
//! the `arith` placement microbenchmark (Figure 1), written in assembly
//! for the simulated MSP430-class ISA, with Rust reference oracles that
//! mirror each algorithm exactly.
//!
//! The [`builder`] module assembles a benchmark for any combination of
//! caching system (baseline / SwapRAM / block cache) and memory placement
//! profile, and runs it on the simulator:
//!
//! ```
//! use mibench::{Benchmark, builder::{build, run, MemoryProfile, System}};
//! use msp430_sim::freq::Frequency;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let built = build(Benchmark::Crc, &System::Baseline, &MemoryProfile::unified())?;
//! let input = mibench::input_for(Benchmark::Crc, 1);
//! let result = run(&built, Frequency::MHZ_24, &input, 200_000_000)?;
//! assert!(result.outcome.success());
//! assert_eq!(result.outcome.checksum.0, Benchmark::Crc.oracle_checksum(&input));
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod corpus;
pub mod layout;
pub mod oracle;
pub mod suite;

pub use builder::{
    build, prepare, run, run_on, BlockHandle, BuildError, Built, MemoryProfile, Program, RunResult,
    SwapHandle, System,
};
pub use suite::{input_for, Benchmark};
