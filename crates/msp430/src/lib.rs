//! # msp430-sim — cycle-level simulator for an MSP430-class FRAM microcontroller
//!
//! This crate is the hardware substrate for the SwapRAM reproduction: a
//! simulator of a 16-bit MSP430-class CPU attached to a split FRAM/SRAM
//! memory system, modeled after the Texas Instruments MSP430FR2355 used in
//! the paper (32 KiB FRAM, 4 KiB SRAM, CPU ≤ 24 MHz, FRAM ≤ 8 MHz with
//! wait states above that, and a tiny 2-way × 2-set × 8-byte hardware read
//! cache in front of the FRAM).
//!
//! The simulator plays the role of both the physical evaluation board and
//! the modified `mspdebug` simulator from the paper: it counts every memory
//! access (categorised as instruction fetch, data read, or data write, per
//! memory region), charges MSP430 cycle-table timings plus FRAM wait-state
//! stalls, and integrates a per-access/per-cycle energy model.
//!
//! Programs are produced by the `msp430-asm` crate; see the workspace
//! examples for end-to-end usage. A minimal machine-level example:
//!
//! ```
//! use msp430_sim::machine::Fr2355;
//! use msp430_sim::freq::Frequency;
//!
//! let machine = Fr2355::machine(Frequency::MHZ_24);
//! assert_eq!(machine.bus().map().sram.len(), 4 * 1024);
//! assert_eq!(machine.bus().map().fram.len(), 32 * 1024);
//! ```

pub mod blockcache;
pub mod cpu;
pub mod decode;
pub mod energy;
pub mod error;
pub mod fault;
pub mod freq;
pub mod hwcache;
pub mod irq;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod ports;
pub mod profile;
pub mod rng;
pub mod sanitize;
pub mod trace;

pub use cpu::Cpu;
pub use energy::EnergyModel;
pub use error::{SimError, SimResult};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use freq::Frequency;
pub use irq::{IrqSchedule, IrqTimer};
pub use isa::{AddrMode, Instr, Opcode, Operand, Reg};
pub use machine::{
    default_engine, set_default_engine, Engine, ExitReason, Hook, IrqBoundary, Machine, RunOutcome,
    TrapAction, IRQ_LATENCY_CYCLES,
};
pub use mem::{AccessKind, Bus, MemoryMap, Region};
pub use sanitize::{SanitizerConfig, Violation};
pub use trace::{Category, Stats};
