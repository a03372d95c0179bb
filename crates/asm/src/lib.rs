//! # msp430-asm — assembler, linker and program model for the simulated ISA
//!
//! This crate plays the role of the msp430-gcc toolchain in the SwapRAM
//! reproduction: it turns assembly text into loadable images for
//! [`msp430-sim`](msp430_sim), and exposes the intermediate
//! statement-level [`Module`] representation that the
//! instrumentation passes (SwapRAM's static pass, the block-cache pass)
//! transform before final assembly — the paper's two-pass flow (§4).
//!
//! Key behaviours mirrored from the real toolchain:
//!
//! * all branches start as PC-relative jumps and are **relaxed** to
//!   absolute branches (`MOV #target, PC`) when the ±511/512-word range is
//!   exceeded ([`layout::relax`]);
//! * conditional branches relax using the inverted-condition skip pattern
//!   of the paper's Figure 6;
//! * section placement is fully configurable ([`layout::LayoutConfig`]),
//!   which is how the experiments move code and data between FRAM and SRAM
//!   (paper Figure 1 and §5.5).
//!
//! ## Example
//!
//! ```
//! use msp430_asm::{parser, object, layout::LayoutConfig};
//! use msp430_sim::{machine::Fr2355, freq::Frequency};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let module = parser::parse(
//!     "main:\n    mov #21, r12\n    add r12, r12\n    mov r12, &0x0104\n    mov #0, &0x0102\n",
//! )?;
//! let config = LayoutConfig::new(0x4000, 0x9000).with_entry("main");
//! let assembly = object::assemble(&module, &config)?;
//!
//! let mut machine = Fr2355::machine(Frequency::MHZ_24);
//! machine.load(&assembly.image);
//! let outcome = machine.run(100_000)?;
//! assert!(outcome.success());
//! # Ok(())
//! # }
//! ```

pub mod ast;
pub mod disasm;
pub mod error;
pub mod expr;
pub mod layout;
pub mod listing;
pub mod object;
pub mod parser;
pub mod program;

pub use ast::{AsmOperand, Insn, Item, Module, Stmt};
pub use error::{AsmError, AsmResult};
pub use expr::Expr;
pub use layout::{FuncSpan, LayoutConfig};
pub use object::{assemble, Assembly};
pub use parser::parse;
