//! # SwapRAM — a software instruction-caching runtime for embedded NVRAM
//!
//! Reproduction of *"A Software Caching Runtime for Embedded NVRAM
//! Systems"* (Williams & Hicks, ASPLOS 2024). SwapRAM repurposes
//! underutilised SRAM on FRAM-based microcontrollers as a software-managed
//! instruction cache: a compile-time pass renders functions
//! runtime-relocatable, and a lightweight runtime copies functions into
//! SRAM on first call, evicting least-recently-cached code while
//! protecting the call stack with per-function active counters.
//!
//! The crate has two halves, mirroring the paper's design (§3):
//!
//! * [`pass`] — the static, assembly-level transformation (call
//!   redirection, `funcId` stores, active counters, absolute-branch
//!   relocation, metadata-table generation);
//! * [`runtime`] — the cache-miss handler and circular-queue cache
//!   structure, attached to the simulator as a machine hook.
//!
//! [`SwapConfig`] holds what experiments vary. The FR2355 layout the two
//! halves share is fixed: the trap [`TRAP_ADDR`], the metadata tables at
//! [`TABLES_BASE`], the handler's FRAM window at [`HANDLER_CODE_BASE`],
//! the persistent-stack resume area at [`RESUME_BASE`], and the handler
//! charges in [`COST`].
//!
//! ## Example
//!
//! ```
//! use msp430_asm::{parser, layout::LayoutConfig};
//! use msp430_sim::{machine::Fr2355, freq::Frequency};
//! use swapram::{SwapConfig, build};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = parser::parse("\
//!     .func __start
//! __start:
//!     mov #0x2ffe, sp
//!     call #answer
//!     mov r12, &0x0104
//!     mov #0, &0x0102
//!     .endfunc
//!     .func answer
//! answer:
//!     mov #42, r12
//!     ret
//!     .endfunc
//! ")?;
//! let cfg = SwapConfig { cache_size: 0xE00, ..SwapConfig::unified_fr2355() };
//! let layout = LayoutConfig::new(0x4000, 0x9000);
//! let (instrumented, runtime) = build(&module, cfg, &layout)?;
//!
//! let mut machine = Fr2355::machine(Frequency::MHZ_24);
//! machine.load(&instrumented.assembly.image);
//! machine.attach_hook(Box::new(runtime));
//! let out = machine.run(1_000_000)?;
//! assert!(out.success());
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod cost;
pub mod guards;
pub mod invariants;
pub mod pass;
pub mod runtime;
pub mod stats;
pub mod tables;

pub use config::{IsrProtocol, PolicyKind, RecoveryMode, SwapConfig};
pub use cost::{CostModel, COST};
pub use pass::{Instrumented, Journal, ResumeArea, SwapFunc, SwapReloc};
pub use runtime::{RecoveryOutcome, SwapRuntime, HANDLER_CODE_BASE};
pub use stats::SwapStats;
pub use tables::{RESUME_BASE, STACK_TOP, TABLES_BASE, TRAP_ADDR};

use msp430_asm::ast::Module;
use msp430_asm::error::AsmResult;
use msp430_asm::layout::LayoutConfig;

/// One-call facade: instrument `module` and create the matching runtime.
///
/// # Errors
///
/// Propagates static-pass and assembly errors.
pub fn build(
    module: &Module,
    cfg: SwapConfig,
    layout: &LayoutConfig,
) -> AsmResult<(Instrumented, SwapRuntime)> {
    let inst = pass::instrument(module, &cfg, layout)?;
    let rt = SwapRuntime::new(&inst, cfg);
    Ok((inst, rt))
}
