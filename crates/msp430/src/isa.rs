//! Instruction-set definition for the simulated MSP430-class CPU.
//!
//! The simulator implements the classic 16-bit MSP430 instruction set:
//! twelve double-operand (format I) instructions, seven single-operand
//! (format II) instructions and eight relative jumps, with the seven
//! standard addressing modes and the R2/R3 constant generator.
//!
//! [`Instr`] is the decoded form; [`Instr::encode`] and [`Instr::decode`]
//! convert to and from the binary encoding stored in simulated memory.

use crate::error::{SimError, SimResult};
use std::fmt;

/// A CPU register, `R0`..`R15`.
///
/// `R0`..`R3` have dedicated roles: program counter, stack pointer, status
/// register and constant generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Program counter (`R0`).
    pub const PC: Reg = Reg(0);
    /// Stack pointer (`R1`).
    pub const SP: Reg = Reg(1);
    /// Status register / constant generator 1 (`R2`).
    pub const SR: Reg = Reg(2);
    /// Constant generator 2 (`R3`).
    pub const CG: Reg = Reg(3);
    /// First argument register under the MSP430 EABI.
    pub const R12: Reg = Reg(12);
    /// Second argument register under the MSP430 EABI.
    pub const R13: Reg = Reg(13);
    /// Third argument register under the MSP430 EABI.
    pub const R14: Reg = Reg(14);
    /// Fourth argument register under the MSP430 EABI.
    pub const R15: Reg = Reg(15);

    /// Creates a register from its number.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadRegister`] if `n > 15`.
    pub fn new(n: u8) -> SimResult<Reg> {
        if n > 15 {
            Err(SimError::BadRegister(n))
        } else {
            Ok(Reg(n))
        }
    }

    /// Creates a register without bounds checking the number.
    ///
    /// # Panics
    ///
    /// Panics if `n > 15`.
    pub fn r(n: u8) -> Reg {
        Reg::new(n).expect("register number must be 0..=15")
    }

    /// The register number, `0..=15`.
    pub fn num(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0 => write!(f, "PC"),
            1 => write!(f, "SP"),
            2 => write!(f, "SR"),
            3 => write!(f, "CG"),
            n => write!(f, "R{n}"),
        }
    }
}

/// Operation width: 16-bit word or 8-bit byte (`.B` suffix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Size {
    /// 16-bit operation (default).
    #[default]
    Word,
    /// 8-bit operation; register destinations clear their upper byte.
    Byte,
}

impl Size {
    /// Number of bytes moved by an access of this size.
    pub fn bytes(self) -> u16 {
        match self {
            Size::Word => 2,
            Size::Byte => 1,
        }
    }
}

/// Instruction mnemonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // Format I (double operand).
    Mov,
    Add,
    Addc,
    Subc,
    Sub,
    Cmp,
    Dadd,
    Bit,
    Bic,
    Bis,
    Xor,
    And,
    // Format II (single operand).
    Rrc,
    Swpb,
    Rra,
    Sxt,
    Push,
    Call,
    Reti,
    // Jumps (PC-relative, ±511/512 words).
    Jnz,
    Jz,
    Jnc,
    Jc,
    Jn,
    Jge,
    Jl,
    Jmp,
}

impl Opcode {
    /// True for the twelve double-operand instructions.
    pub fn is_format_i(self) -> bool {
        matches!(
            self,
            Opcode::Mov
                | Opcode::Add
                | Opcode::Addc
                | Opcode::Subc
                | Opcode::Sub
                | Opcode::Cmp
                | Opcode::Dadd
                | Opcode::Bit
                | Opcode::Bic
                | Opcode::Bis
                | Opcode::Xor
                | Opcode::And
        )
    }

    /// True for the seven single-operand instructions.
    pub fn is_format_ii(self) -> bool {
        matches!(
            self,
            Opcode::Rrc
                | Opcode::Swpb
                | Opcode::Rra
                | Opcode::Sxt
                | Opcode::Push
                | Opcode::Call
                | Opcode::Reti
        )
    }

    /// True for the eight conditional/unconditional relative jumps.
    pub fn is_jump(self) -> bool {
        matches!(
            self,
            Opcode::Jnz
                | Opcode::Jz
                | Opcode::Jnc
                | Opcode::Jc
                | Opcode::Jn
                | Opcode::Jge
                | Opcode::Jl
                | Opcode::Jmp
        )
    }

    fn format_i_nibble(self) -> Option<u16> {
        Some(match self {
            Opcode::Mov => 0x4,
            Opcode::Add => 0x5,
            Opcode::Addc => 0x6,
            Opcode::Subc => 0x7,
            Opcode::Sub => 0x8,
            Opcode::Cmp => 0x9,
            Opcode::Dadd => 0xA,
            Opcode::Bit => 0xB,
            Opcode::Bic => 0xC,
            Opcode::Bis => 0xD,
            Opcode::Xor => 0xE,
            Opcode::And => 0xF,
            _ => return None,
        })
    }

    fn format_ii_code(self) -> Option<u16> {
        Some(match self {
            Opcode::Rrc => 0,
            Opcode::Swpb => 1,
            Opcode::Rra => 2,
            Opcode::Sxt => 3,
            Opcode::Push => 4,
            Opcode::Call => 5,
            Opcode::Reti => 6,
            _ => return None,
        })
    }

    fn jump_cond(self) -> Option<u16> {
        Some(match self {
            Opcode::Jnz => 0,
            Opcode::Jz => 1,
            Opcode::Jnc => 2,
            Opcode::Jc => 3,
            Opcode::Jn => 4,
            Opcode::Jge => 5,
            Opcode::Jl => 6,
            Opcode::Jmp => 7,
            _ => return None,
        })
    }

    /// The assembly mnemonic for this opcode, lower case.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Mov => "mov",
            Opcode::Add => "add",
            Opcode::Addc => "addc",
            Opcode::Subc => "subc",
            Opcode::Sub => "sub",
            Opcode::Cmp => "cmp",
            Opcode::Dadd => "dadd",
            Opcode::Bit => "bit",
            Opcode::Bic => "bic",
            Opcode::Bis => "bis",
            Opcode::Xor => "xor",
            Opcode::And => "and",
            Opcode::Rrc => "rrc",
            Opcode::Swpb => "swpb",
            Opcode::Rra => "rra",
            Opcode::Sxt => "sxt",
            Opcode::Push => "push",
            Opcode::Call => "call",
            Opcode::Reti => "reti",
            Opcode::Jnz => "jnz",
            Opcode::Jz => "jz",
            Opcode::Jnc => "jnc",
            Opcode::Jc => "jc",
            Opcode::Jn => "jn",
            Opcode::Jge => "jge",
            Opcode::Jl => "jl",
            Opcode::Jmp => "jmp",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// An instruction operand in one of the seven MSP430 addressing modes.
///
/// `Symbolic` stores the *absolute target address*; the PC-relative offset
/// is computed at encode time from the instruction address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register direct, `Rn`.
    Reg(Reg),
    /// Indexed, `x(Rn)`.
    Indexed(u16, Reg),
    /// Symbolic (PC-relative), `ADDR`; stores the absolute target.
    Symbolic(u16),
    /// Absolute, `&ADDR`.
    Absolute(u16),
    /// Register indirect, `@Rn`.
    Indirect(Reg),
    /// Register indirect with auto-increment, `@Rn+`.
    IndirectInc(Reg),
    /// Immediate, `#n`. Encoded via the constant generator when possible.
    Imm(u16),
}

impl Operand {
    /// True if encoding this operand requires an extension word.
    pub fn needs_ext_word(&self) -> bool {
        match self {
            Operand::Reg(_) | Operand::Indirect(_) | Operand::IndirectInc(_) => false,
            Operand::Imm(v) => !is_cg_const(*v),
            Operand::Indexed(..) | Operand::Symbolic(_) | Operand::Absolute(_) => true,
        }
    }

    /// The addressing mode of this operand.
    pub fn mode(&self) -> AddrMode {
        match self {
            Operand::Reg(_) => AddrMode::Register,
            Operand::Indexed(..) => AddrMode::Indexed,
            Operand::Symbolic(_) => AddrMode::Symbolic,
            Operand::Absolute(_) => AddrMode::Absolute,
            Operand::Indirect(_) => AddrMode::Indirect,
            Operand::IndirectInc(_) => AddrMode::IndirectInc,
            Operand::Imm(_) => AddrMode::Immediate,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Indexed(x, r) => write!(f, "{x}({r})"),
            Operand::Symbolic(a) => write!(f, "0x{a:04x}"),
            Operand::Absolute(a) => write!(f, "&0x{a:04x}"),
            Operand::Indirect(r) => write!(f, "@{r}"),
            Operand::IndirectInc(r) => write!(f, "@{r}+"),
            Operand::Imm(v) => write!(f, "#0x{v:04x}"),
        }
    }
}

/// Addressing-mode tag (see [`Operand::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMode {
    /// `Rn`
    Register,
    /// `x(Rn)`
    Indexed,
    /// PC-relative `ADDR`
    Symbolic,
    /// `&ADDR`
    Absolute,
    /// `@Rn`
    Indirect,
    /// `@Rn+`
    IndirectInc,
    /// `#n`
    Immediate,
}

/// True if `v` is representable by the R2/R3 constant generator
/// (`-1, 0, 1, 2, 4, 8`) and therefore costs no extension word.
pub fn is_cg_const(v: u16) -> bool {
    matches!(v, 0 | 1 | 2 | 4 | 8 | 0xFFFF)
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Double-operand instruction: `op.size src, dst`.
    FormatI {
        /// The operation (must satisfy [`Opcode::is_format_i`]).
        op: Opcode,
        /// Operation width.
        size: Size,
        /// Source operand (any addressing mode).
        src: Operand,
        /// Destination operand (register, indexed, symbolic or absolute).
        dst: Operand,
    },
    /// Single-operand instruction: `op.size dst`. `RETI` has no operand and
    /// is represented with `dst = Operand::Reg(Reg::CG)` by convention.
    FormatII {
        /// The operation (must satisfy [`Opcode::is_format_ii`]).
        op: Opcode,
        /// Operation width (`SWPB`/`SXT`/`CALL` are word-only).
        size: Size,
        /// The single operand.
        dst: Operand,
    },
    /// PC-relative jump: `op offset` where the branch target is
    /// `addr + 2 + 2*offset_words`.
    Jump {
        /// The condition (must satisfy [`Opcode::is_jump`]).
        op: Opcode,
        /// Signed word offset, −512..=511.
        offset_words: i16,
    },
}

impl Instr {
    /// Total encoded length in bytes (2, 4 or 6).
    pub fn len_bytes(&self) -> u16 {
        2 + 2 * self.ext_word_count()
    }

    /// Number of extension words following the opcode word.
    pub fn ext_word_count(&self) -> u16 {
        match self {
            Instr::FormatI { src, dst, .. } => {
                u16::from(src.needs_ext_word()) + u16::from(dst.needs_ext_word())
            }
            Instr::FormatII { op: Opcode::Reti, .. } => 0,
            Instr::FormatII { dst, .. } => u16::from(dst.needs_ext_word()),
            Instr::Jump { .. } => 0,
        }
    }

    /// The branch target of a [`Instr::Jump`] placed at `addr`.
    pub fn jump_target(&self, addr: u16) -> Option<u16> {
        match self {
            Instr::Jump { offset_words, .. } => {
                Some(addr.wrapping_add(2).wrapping_add((*offset_words as u16).wrapping_mul(2)))
            }
            _ => None,
        }
    }

    /// Encodes the instruction placed at address `at` into 1–3 words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEncoding`] for ill-formed combinations such as
    /// an immediate destination or a jump offset out of range.
    pub fn encode(&self, at: u16) -> SimResult<Vec<u16>> {
        self.encode_opts(at, false)
    }

    /// Like [`Instr::encode`], but when `force_imm_ext` is set, immediate
    /// source operands are always encoded as a `@PC+` extension word even
    /// if the value is representable by the constant generator.
    ///
    /// Assemblers need this for immediates written as symbolic expressions:
    /// the operand size must be fixed before the symbol value is known.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Instr::encode`].
    pub fn encode_opts(&self, at: u16, force_imm_ext: bool) -> SimResult<Vec<u16>> {
        match *self {
            Instr::FormatI { op, size, src, dst } => {
                let nib = op
                    .format_i_nibble()
                    .ok_or_else(|| SimError::BadEncoding(format!("{op} is not format I")))?;
                let mut words = vec![0u16];
                let (sreg, sas) = encode_src_opts(src, at, &mut words, force_imm_ext)?;
                let (dreg, dad) = encode_dst(dst, at, &mut words)?;
                let bw = matches!(size, Size::Byte) as u16;
                words[0] = (nib << 12)
                    | (u16::from(sreg.num()) << 8)
                    | (dad << 7)
                    | (bw << 6)
                    | (sas << 4)
                    | u16::from(dreg.num());
                Ok(words)
            }
            Instr::FormatII { op, size, dst } => {
                let code = op
                    .format_ii_code()
                    .ok_or_else(|| SimError::BadEncoding(format!("{op} is not format II")))?;
                if matches!(op, Opcode::Reti) {
                    return Ok(vec![0x1300]);
                }
                if matches!(op, Opcode::Swpb | Opcode::Sxt | Opcode::Call)
                    && matches!(size, Size::Byte)
                {
                    return Err(SimError::BadEncoding(format!("{op} has no byte form")));
                }
                let mut words = vec![0u16];
                let (reg, amode) = encode_src_opts(dst, at, &mut words, force_imm_ext)?;
                let bw = matches!(size, Size::Byte) as u16;
                words[0] = 0x1000 | (code << 7) | (bw << 6) | (amode << 4) | u16::from(reg.num());
                Ok(words)
            }
            Instr::Jump { op, offset_words } => {
                let cond = op
                    .jump_cond()
                    .ok_or_else(|| SimError::BadEncoding(format!("{op} is not a jump")))?;
                if !(-512..=511).contains(&offset_words) {
                    return Err(SimError::BadEncoding(format!(
                        "jump offset {offset_words} words out of range"
                    )));
                }
                Ok(vec![0x2000 | (cond << 10) | ((offset_words as u16) & 0x3FF)])
            }
        }
    }

    /// Decodes the instruction at `at` from `words` (opcode word followed by
    /// up to two extension words; extra words are ignored).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadEncoding`] if the opcode word is not a valid
    /// instruction or not enough extension words are supplied.
    pub fn decode(words: &[u16], at: u16) -> SimResult<Instr> {
        let w = *words.first().ok_or_else(|| SimError::BadEncoding("empty".into()))?;
        match w >> 13 {
            0 => {
                // Format II block is 0x1000..=0x13FF.
                if w & 0xF000 != 0x1000 {
                    return Err(SimError::BadEncoding(format!("invalid opcode word {w:#06x}")));
                }
                let code = (w >> 7) & 0x7;
                let op = match code {
                    0 => Opcode::Rrc,
                    1 => Opcode::Swpb,
                    2 => Opcode::Rra,
                    3 => Opcode::Sxt,
                    4 => Opcode::Push,
                    5 => Opcode::Call,
                    6 => Opcode::Reti,
                    _ => return Err(SimError::BadEncoding(format!("invalid format II {w:#06x}"))),
                };
                if matches!(op, Opcode::Reti) {
                    return Ok(Instr::FormatII { op, size: Size::Word, dst: Operand::Reg(Reg::CG) });
                }
                let size = if w & 0x40 != 0 { Size::Byte } else { Size::Word };
                let amode = (w >> 4) & 0x3;
                let reg = Reg::r((w & 0xF) as u8);
                let mut idx = 1;
                let dst = decode_src(reg, amode, words, &mut idx, at)?;
                Ok(Instr::FormatII { op, size, dst })
            }
            1 => {
                let cond = (w >> 10) & 0x7;
                let op = match cond {
                    0 => Opcode::Jnz,
                    1 => Opcode::Jz,
                    2 => Opcode::Jnc,
                    3 => Opcode::Jc,
                    4 => Opcode::Jn,
                    5 => Opcode::Jge,
                    6 => Opcode::Jl,
                    _ => Opcode::Jmp,
                };
                let raw = w & 0x3FF;
                let offset_words = if raw & 0x200 != 0 {
                    (raw | 0xFC00) as i16
                } else {
                    raw as i16
                };
                Ok(Instr::Jump { op, offset_words })
            }
            _ => {
                let nib = w >> 12;
                let op = match nib {
                    0x4 => Opcode::Mov,
                    0x5 => Opcode::Add,
                    0x6 => Opcode::Addc,
                    0x7 => Opcode::Subc,
                    0x8 => Opcode::Sub,
                    0x9 => Opcode::Cmp,
                    0xA => Opcode::Dadd,
                    0xB => Opcode::Bit,
                    0xC => Opcode::Bic,
                    0xD => Opcode::Bis,
                    0xE => Opcode::Xor,
                    0xF => Opcode::And,
                    _ => return Err(SimError::BadEncoding(format!("invalid opcode {w:#06x}"))),
                };
                let sreg = Reg::r(((w >> 8) & 0xF) as u8);
                let sas = (w >> 4) & 0x3;
                let dreg = Reg::r((w & 0xF) as u8);
                let dad = (w >> 7) & 0x1;
                let size = if w & 0x40 != 0 { Size::Byte } else { Size::Word };
                let mut idx = 1;
                let src = decode_src(sreg, sas, words, &mut idx, at)?;
                let dst = decode_dst(dreg, dad, words, &mut idx, at)?;
                Ok(Instr::FormatI { op, size, src, dst })
            }
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::FormatI { op, size, src, dst } => {
                let suffix = if matches!(size, Size::Byte) { ".b" } else { "" };
                write!(f, "{op}{suffix} {src}, {dst}")
            }
            Instr::FormatII { op: Opcode::Reti, .. } => write!(f, "reti"),
            Instr::FormatII { op, size, dst } => {
                let suffix = if matches!(size, Size::Byte) { ".b" } else { "" };
                write!(f, "{op}{suffix} {dst}")
            }
            Instr::Jump { op, offset_words } => write!(f, "{op} {offset_words:+}"),
        }
    }
}

/// Encodes a source-position operand (also used for format II operands).
/// Appends extension words to `words` and returns `(register, As bits)`.
fn encode_src_opts(
    op: Operand,
    at: u16,
    words: &mut Vec<u16>,
    force_imm_ext: bool,
) -> SimResult<(Reg, u16)> {
    if force_imm_ext {
        if let Operand::Imm(v) = op {
            words.push(v);
            return Ok((Reg::PC, 3));
        }
    }
    Ok(match op {
        Operand::Reg(r) => (r, 0),
        Operand::Indexed(x, r) => {
            if matches!(r, Reg::SR | Reg::CG) {
                return Err(SimError::BadEncoding("cannot index R2/R3".into()));
            }
            words.push(x);
            (r, 1)
        }
        Operand::Symbolic(target) => {
            // Offset is relative to the address of the extension word.
            let ext_addr = at.wrapping_add(2 * words.len() as u16);
            words.push(target.wrapping_sub(ext_addr));
            (Reg::PC, 1)
        }
        Operand::Absolute(a) => {
            words.push(a);
            (Reg::SR, 1)
        }
        Operand::Indirect(r) => (r, 2),
        Operand::IndirectInc(r) => (r, 3),
        Operand::Imm(v) => match v {
            0 => (Reg::CG, 0),
            1 => (Reg::CG, 1),
            2 => (Reg::CG, 2),
            0xFFFF => (Reg::CG, 3),
            4 => (Reg::SR, 2),
            8 => (Reg::SR, 3),
            _ => {
                words.push(v);
                (Reg::PC, 3)
            }
        },
    })
}

/// Encodes a destination operand. Returns `(register, Ad bit)`.
fn encode_dst(op: Operand, at: u16, words: &mut Vec<u16>) -> SimResult<(Reg, u16)> {
    Ok(match op {
        Operand::Reg(r) => (r, 0),
        Operand::Indexed(x, r) => {
            words.push(x);
            (r, 1)
        }
        Operand::Symbolic(target) => {
            let ext_addr = at.wrapping_add(2 * words.len() as u16);
            words.push(target.wrapping_sub(ext_addr));
            (Reg::PC, 1)
        }
        Operand::Absolute(a) => {
            words.push(a);
            (Reg::SR, 1)
        }
        other => {
            return Err(SimError::BadEncoding(format!(
                "operand {other} not valid as destination"
            )))
        }
    })
}

/// Decodes a source-position operand given `(register, As bits)`.
fn decode_src(reg: Reg, amode: u16, words: &[u16], idx: &mut usize, at: u16) -> SimResult<Operand> {
    let take_ext = |idx: &mut usize| -> SimResult<(u16, u16)> {
        let w = *words
            .get(*idx)
            .ok_or_else(|| SimError::BadEncoding("missing extension word".into()))?;
        let ext_addr = at.wrapping_add(2 * (*idx as u16));
        *idx += 1;
        Ok((w, ext_addr))
    };
    Ok(match (reg, amode) {
        (Reg::CG, 0) => Operand::Imm(0),
        (Reg::CG, 1) => Operand::Imm(1),
        (Reg::CG, 2) => Operand::Imm(2),
        (Reg::CG, 3) => Operand::Imm(0xFFFF),
        (Reg::SR, 2) => Operand::Imm(4),
        (Reg::SR, 3) => Operand::Imm(8),
        (Reg::SR, 1) => {
            let (w, _) = take_ext(idx)?;
            Operand::Absolute(w)
        }
        (Reg::PC, 1) => {
            let (w, ext_addr) = take_ext(idx)?;
            Operand::Symbolic(ext_addr.wrapping_add(w))
        }
        (Reg::PC, 3) => {
            let (w, _) = take_ext(idx)?;
            Operand::Imm(w)
        }
        (r, 0) => Operand::Reg(r),
        (r, 1) => {
            let (w, _) = take_ext(idx)?;
            Operand::Indexed(w, r)
        }
        (r, 2) => Operand::Indirect(r),
        (r, 3) => Operand::IndirectInc(r),
        _ => return Err(SimError::BadEncoding(format!("invalid As={amode}"))),
    })
}

/// Decodes a destination operand given `(register, Ad bit)`.
fn decode_dst(reg: Reg, ad: u16, words: &[u16], idx: &mut usize, at: u16) -> SimResult<Operand> {
    if ad == 0 {
        return Ok(Operand::Reg(reg));
    }
    let w = *words
        .get(*idx)
        .ok_or_else(|| SimError::BadEncoding("missing extension word".into()))?;
    let ext_addr = at.wrapping_add(2 * (*idx as u16));
    *idx += 1;
    Ok(match reg {
        Reg::SR => Operand::Absolute(w),
        Reg::PC => Operand::Symbolic(ext_addr.wrapping_add(w)),
        r => Operand::Indexed(w, r),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(i: Instr, at: u16) {
        let words = i.encode(at).expect("encode");
        let back = Instr::decode(&words, at).expect("decode");
        assert_eq!(i, back, "roundtrip at {at:#06x}: words {words:x?}");
        assert_eq!(words.len() as u16 * 2, i.len_bytes());
    }

    #[test]
    fn format_i_register_register() {
        roundtrip(
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Reg(Reg::R12),
                dst: Operand::Reg(Reg::R13),
            },
            0x4000,
        );
    }

    #[test]
    fn format_i_all_src_modes() {
        for src in [
            Operand::Reg(Reg::r(5)),
            Operand::Indexed(0x20, Reg::r(6)),
            Operand::Symbolic(0x4100),
            Operand::Absolute(0x2000),
            Operand::Indirect(Reg::r(7)),
            Operand::IndirectInc(Reg::r(8)),
            Operand::Imm(0x1234),
            Operand::Imm(0),
            Operand::Imm(1),
            Operand::Imm(2),
            Operand::Imm(4),
            Operand::Imm(8),
            Operand::Imm(0xFFFF),
        ] {
            roundtrip(
                Instr::FormatI { op: Opcode::Add, size: Size::Word, src, dst: Operand::Reg(Reg::R12) },
                0x4000,
            );
        }
    }

    #[test]
    fn format_i_all_dst_modes() {
        for dst in [
            Operand::Reg(Reg::r(5)),
            Operand::Indexed(0x20, Reg::r(6)),
            Operand::Symbolic(0x4100),
            Operand::Absolute(0x2000),
        ] {
            roundtrip(
                Instr::FormatI {
                    op: Opcode::Xor,
                    size: Size::Byte,
                    src: Operand::Imm(0x55),
                    dst,
                },
                0x4000,
            );
        }
    }

    #[test]
    fn cg_constants_cost_no_ext_word() {
        for v in [0u16, 1, 2, 4, 8, 0xFFFF] {
            let i = Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(v),
                dst: Operand::Reg(Reg::R12),
            };
            assert_eq!(i.len_bytes(), 2, "constant {v:#x} should use the constant generator");
        }
        let i = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(3),
            dst: Operand::Reg(Reg::R12),
        };
        assert_eq!(i.len_bytes(), 4);
    }

    #[test]
    fn format_ii_roundtrip() {
        for op in [Opcode::Rrc, Opcode::Swpb, Opcode::Rra, Opcode::Sxt, Opcode::Push, Opcode::Call] {
            let size = Size::Word;
            for dst in [
                Operand::Reg(Reg::r(9)),
                Operand::Indexed(4, Reg::r(10)),
                Operand::Absolute(0x2100),
                Operand::Indirect(Reg::r(11)),
                Operand::IndirectInc(Reg::SP),
                Operand::Imm(0x4444),
            ] {
                roundtrip(Instr::FormatII { op, size, dst }, 0x8000);
            }
        }
    }

    #[test]
    fn reti_roundtrip() {
        let words = Instr::FormatII {
            op: Opcode::Reti,
            size: Size::Word,
            dst: Operand::Reg(Reg::CG),
        }
        .encode(0x4000)
        .unwrap();
        assert_eq!(words, vec![0x1300]);
        let back = Instr::decode(&words, 0x4000).unwrap();
        assert!(matches!(back, Instr::FormatII { op: Opcode::Reti, .. }));
    }

    #[test]
    fn jump_roundtrip_and_target() {
        for (op, off) in [
            (Opcode::Jmp, 0i16),
            (Opcode::Jz, -1),
            (Opcode::Jnz, 5),
            (Opcode::Jc, 511),
            (Opcode::Jnc, -512),
            (Opcode::Jge, 100),
            (Opcode::Jl, -100),
            (Opcode::Jn, 3),
        ] {
            let i = Instr::Jump { op, offset_words: off };
            roundtrip(i, 0x4000);
            assert_eq!(
                i.jump_target(0x4000),
                Some(0x4002u16.wrapping_add((off as u16).wrapping_mul(2)))
            );
        }
    }

    #[test]
    fn jump_out_of_range_rejected() {
        let i = Instr::Jump { op: Opcode::Jmp, offset_words: 512 };
        assert!(i.encode(0x4000).is_err());
        let i = Instr::Jump { op: Opcode::Jmp, offset_words: -513 };
        assert!(i.encode(0x4000).is_err());
    }

    #[test]
    fn symbolic_encoding_is_pc_relative() {
        let i = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Symbolic(0x4100),
            dst: Operand::Reg(Reg::R12),
        };
        let w1 = i.encode(0x4000).unwrap();
        let w2 = i.encode(0x4050).unwrap();
        // Same target from different addresses => different offsets.
        assert_ne!(w1[1], w2[1]);
        assert_eq!(Instr::decode(&w1, 0x4000).unwrap(), i);
        assert_eq!(Instr::decode(&w2, 0x4050).unwrap(), i);
    }

    #[test]
    fn immediate_destination_rejected() {
        let i = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Reg(Reg::R12),
            dst: Operand::Imm(5),
        };
        assert!(i.encode(0x4000).is_err());
    }

    #[test]
    fn byte_form_of_call_rejected() {
        let i = Instr::FormatII { op: Opcode::Call, size: Size::Byte, dst: Operand::Reg(Reg::R12) };
        assert!(i.encode(0x4000).is_err());
    }
}
