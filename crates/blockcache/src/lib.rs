//! # blockcache — the basic-block software cache baseline
//!
//! A best-effort port of the software-based instruction cache of Miller &
//! Agarwal ("Software-based Instruction Caching for Embedded Processors",
//! 2006) to the simulated FRAM platform, following §4 of the SwapRAM paper:
//!
//! * application code is cached at **basic-block** granularity in
//!   evenly-sized SRAM slots;
//! * every control-flow instruction initially branches into the runtime
//!   through a per-CFI *exit word*; the runtime *chains* exits by
//!   overwriting the word with the cached target's address;
//! * a djb2-hashed table maps canonical block addresses to cached copies;
//! * the cache is **flushed when full**, eliminating chain bookkeeping
//!   (the highest-performance variant of the original paper);
//! * runtime metadata lives in FRAM — the placement the SwapRAM authors
//!   found fastest on this class of device.
//!
//! [`BlockConfig`] is only the SRAM cache region. The rest is fixed: the
//! trap [`TRAP_ADDR`], the metadata at [`TABLES_BASE`], the runtime's
//! FRAM code window at [`HANDLER_CODE_BASE`] and the price of each runtime
//! [`Step`].
//!
//! Conditional CFIs use the paper's Figure-6 transformation (the MSP430's
//! ±511/512-word conditional range cannot span the SRAM): an inverted
//! short hop plus absolute exits for both outcomes.
//!
//! ```
//! use blockcache::{BlockConfig, bbpass, BlockRuntime};
//! use msp430_asm::{parser, layout::LayoutConfig};
//! use msp430_sim::{machine::Fr2355, freq::Frequency};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = parser::parse("\
//!     .func __start
//! __start:
//!     mov #0x9ffc, sp
//!     call #f
//!     mov r12, &0x0104
//!     mov #0, &0x0102
//!     .endfunc
//!     .func f
//! f:
//!     mov #9, r12
//!     ret
//!     .endfunc
//! ")?;
//! let cfg = BlockConfig::unified_fr2355();
//! let layout = LayoutConfig::new(0x4000, 0x9000);
//! let prog = bbpass::transform(&module, &layout)?;
//! let rt = BlockRuntime::new(&prog, cfg)?;
//!
//! let mut machine = Fr2355::machine(Frequency::MHZ_24);
//! machine.load(&prog.assembly.image);
//! machine.attach_hook(Box::new(rt));
//! assert!(machine.run(1_000_000)?.success());
//! # Ok(())
//! # }
//! ```

pub mod bbpass;
pub mod config;
pub mod runtime;

pub use bbpass::{BlockProgram, ExitKind, TABLES_BASE, TRAP_ADDR};
pub use config::BlockConfig;
pub use runtime::{BlockRuntime, BlockStats, Step, HANDLER_CODE_BASE};
