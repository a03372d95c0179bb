//! Final code emission: relaxed module → loadable [`Image`] plus symbol
//! and function tables.

use crate::ast::{AsmOperand, ByteInit, Insn, Item, Module};
use crate::error::{AsmError, AsmResult};
use crate::expr::SymTab;
use crate::layout::{self, FuncSpan, LayoutConfig};
use msp430_sim::isa::{Instr, Operand};
use msp430_sim::mem::{Image, Segment};
use std::collections::BTreeMap;

/// A fully assembled program.
#[derive(Debug, Clone)]
pub struct Assembly {
    /// The relaxed module that was actually encoded (instrumentation
    /// passes inspect this to find relaxation-generated absolute branches).
    pub module: Module,
    /// The loadable image.
    pub image: Image,
    /// Resolved symbol table.
    pub symbols: BTreeMap<String, u16>,
    /// `(name, base, size)` for each section, in address order.
    pub sections: Vec<(String, u16, u16)>,
    /// Function spans from `.func`/`.endfunc` markers.
    pub functions: Vec<FuncSpan>,
    /// Address of each statement in [`Assembly::module`].
    pub stmt_addrs: Vec<Option<u16>>,
}

impl Assembly {
    /// Looks up a symbol.
    pub fn symbol(&self, name: &str) -> Option<u16> {
        self.symbols.get(name).copied()
    }

    /// Looks up a function span by name.
    pub fn function(&self, name: &str) -> Option<&FuncSpan> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total size of all emitted sections in bytes.
    pub fn total_size(&self) -> u32 {
        self.sections.iter().map(|(_, _, s)| u32::from(*s)).sum()
    }

    /// Size of one named section, 0 if absent.
    pub fn section_size(&self, name: &str) -> u16 {
        self.sections
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, s)| *s)
            .unwrap_or(0)
    }
}

/// Assembles a module: relax branches, lay out, encode.
///
/// # Errors
///
/// Reports syntax-independent problems: undefined symbols, out-of-range
/// values, overlapping sections, a missing entry symbol.
pub fn assemble(module: &Module, config: &LayoutConfig) -> AsmResult<Assembly> {
    let (relaxed, l, _) = layout::relax(module, config)?;
    let entry = *l
        .symbols
        .get(&config.entry)
        .ok_or_else(|| AsmError::global(format!("entry symbol `{}` is undefined", config.entry)))?
        as u16;

    let mut buffers: BTreeMap<String, (u16, Vec<u8>)> = BTreeMap::new();
    for (name, base, size) in &l.sections {
        buffers.insert(name.clone(), (*base, vec![0u8; usize::from(*size)]));
    }

    let mut section = "text".to_string();
    for (i, stmt) in relaxed.stmts.iter().enumerate() {
        let line = stmt.line;
        match &stmt.item {
            Item::Section(name) => section = name.clone(),
            Item::Insn(insn) => {
                let addr = l.stmt_addrs[i].expect("insn address");
                let words = encode_insn(insn, addr, &l.symbols, line)?;
                let (base, buf) = buffers.get_mut(&section).expect("section exists");
                let mut off = usize::from(addr - *base);
                for w in words {
                    buf[off] = (w & 0xff) as u8;
                    buf[off + 1] = (w >> 8) as u8;
                    off += 2;
                }
            }
            Item::Word(es) => {
                let addr = l.stmt_addrs[i].expect("word address");
                let (base, buf) = buffers.get_mut(&section).expect("section exists");
                let mut off = usize::from(addr - *base);
                for e in es {
                    let v = e.eval_u16(&l.symbols).map_err(|e| AsmError::at(line, e.msg))?;
                    buf[off] = (v & 0xff) as u8;
                    buf[off + 1] = (v >> 8) as u8;
                    off += 2;
                }
            }
            Item::Byte(bs) => {
                let addr = l.stmt_addrs[i].expect("byte address");
                let (base, buf) = buffers.get_mut(&section).expect("section exists");
                let mut off = usize::from(addr - *base);
                for b in bs {
                    match b {
                        ByteInit::Expr(e) => {
                            let v = e.eval(&l.symbols).map_err(|e| AsmError::at(line, e.msg))?;
                            if !(-128..=255).contains(&v) {
                                return Err(AsmError::at(line, format!("byte value {v} out of range")));
                            }
                            buf[off] = v as u8;
                            off += 1;
                        }
                        ByteInit::Str(s) => {
                            buf[off..off + s.len()].copy_from_slice(s);
                            off += s.len();
                        }
                    }
                }
            }
            Item::Space(n, fill) => {
                let addr = l.stmt_addrs[i].expect("space address");
                let size = n.eval(&l.symbols).map_err(|e| AsmError::at(line, e.msg))? as usize;
                if *fill != 0 {
                    let (base, buf) = buffers.get_mut(&section).expect("section exists");
                    let off = usize::from(addr - *base);
                    buf[off..off + size].fill(*fill);
                }
            }
            _ => {}
        }
    }

    let segments: Vec<Segment> = l
        .sections
        .iter()
        .filter(|(_, _, size)| *size > 0)
        .map(|(name, _, _)| {
            let (addr, bytes) = buffers[name].clone();
            Segment { addr, bytes }
        })
        .collect();

    let symbols: BTreeMap<String, u16> =
        l.symbols.iter().map(|(k, v)| (k.clone(), *v as u16)).collect();

    Ok(Assembly {
        module: relaxed,
        image: Image { segments, entry },
        symbols,
        sections: l.sections.clone(),
        functions: l.functions.clone(),
        stmt_addrs: l.stmt_addrs.clone(),
    })
}

fn encode_insn(insn: &Insn, addr: u16, syms: &SymTab, line: u32) -> AsmResult<Vec<u16>> {
    let lower = |op: &AsmOperand| -> AsmResult<Operand> {
        Ok(match op {
            AsmOperand::Reg(r) => Operand::Reg(*r),
            AsmOperand::Indexed(e, r) => {
                Operand::Indexed(e.eval_u16(syms).map_err(|e| AsmError::at(line, e.msg))?, *r)
            }
            AsmOperand::Absolute(e) => {
                Operand::Absolute(e.eval_u16(syms).map_err(|e| AsmError::at(line, e.msg))?)
            }
            AsmOperand::Indirect(r) => Operand::Indirect(*r),
            AsmOperand::IndirectInc(r) => Operand::IndirectInc(*r),
            AsmOperand::Imm(e) => {
                Operand::Imm(e.eval_u16(syms).map_err(|e| AsmError::at(line, e.msg))?)
            }
        })
    };
    let (instr, force) = match insn {
        Insn::FormatI { op, size, src, dst } => (
            Instr::FormatI { op: *op, size: *size, src: lower(src)?, dst: lower(dst)? },
            src.forces_imm_ext(),
        ),
        Insn::FormatII { op, size, dst } => (
            Instr::FormatII { op: *op, size: *size, dst: lower(dst)? },
            dst.forces_imm_ext(),
        ),
        Insn::Jump { op, target } => {
            let t = target.eval(syms).map_err(|e| AsmError::at(line, e.msg))?;
            let off = (t - i64::from(addr) - 2) / 2;
            if !(layout::JUMP_MIN_WORDS..=layout::JUMP_MAX_WORDS).contains(&off) {
                return Err(AsmError::at(
                    line,
                    format!("jump target {off} words away is out of range (relaxation bug?)"),
                ));
            }
            (Instr::Jump { op: *op, offset_words: off as i16 }, false)
        }
    };
    let words = instr
        .encode_opts(addr, force)
        .map_err(|e| AsmError::at(line, e.to_string()))?;
    let expected = usize::from(insn.len_bytes() / 2);
    if words.len() != expected {
        return Err(AsmError::at(
            line,
            format!(
                "internal size mismatch for `{insn}`: predicted {expected} words, encoded {}",
                words.len()
            ),
        ));
    }
    Ok(words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg() -> LayoutConfig {
        LayoutConfig::new(0x4000, 0x9000).with_entry("main")
    }

    #[test]
    fn assembles_simple_program() {
        let m = parse(
            "    .text\n    .global main\nmain:\n    mov #5, r12\n    add #3, r12\n    mov r12, &0x0104\n    mov #0, &0x0102\nhang:\n    jmp hang\n",
        )
        .unwrap();
        let a = assemble(&m, &cfg()).unwrap();
        assert_eq!(a.image.entry, 0x4000);
        assert_eq!(a.image.segments.len(), 1);
        assert!(a.total_size() > 0);
    }

    #[test]
    fn emitted_code_runs_on_the_simulator() {
        use msp430_sim::freq::Frequency;
        use msp430_sim::machine::Fr2355;
        let m = parse(
            "    .text\nmain:\n    mov #2, r12\n    mov #3, r13\n    add r12, r13\n    mov r13, &0x0104\n    mov #0, &0x0102\n",
        )
        .unwrap();
        let a = assemble(&m, &cfg()).unwrap();
        let mut machine = Fr2355::machine(Frequency::MHZ_8);
        machine.load(&a.image);
        let out = machine.run(10_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, msp430_sim::ports::checksum_of_words([5]));
    }

    #[test]
    fn data_section_contents() {
        let m = parse(
            "    .text\nmain:\n    nop\n    .data\ntbl: .word 0x1111, tbl\nmsg: .byte \"ab\", 0\n",
        )
        .unwrap();
        let a = assemble(&m, &cfg()).unwrap();
        let data = a
            .image
            .segments
            .iter()
            .find(|s| s.addr == 0x9000)
            .expect("data segment");
        assert_eq!(&data.bytes[..2], &[0x11, 0x11]);
        assert_eq!(&data.bytes[2..4], &[0x00, 0x90]); // tbl = 0x9000
        assert_eq!(&data.bytes[4..7], b"ab\0");
    }

    #[test]
    fn symbolic_immediate_forced_ext_encodes_correctly() {
        // `.equ ONE, 1` — a symbolic immediate that *evaluates* to a CG
        // constant must still occupy an extension word, and decode back to 1.
        let m = parse("    .equ ONE, 1\nmain:\n    mov #ONE, r12\n    nop\n").unwrap();
        let a = assemble(&m, &cfg()).unwrap();
        let text = &a.image.segments[0];
        assert_eq!(text.bytes.len(), 6, "mov #sym (2 words) + nop (1 word)");
        let w1 = u16::from(text.bytes[2]) | (u16::from(text.bytes[3]) << 8);
        assert_eq!(w1, 1, "extension word holds the immediate");
    }

    #[test]
    fn missing_entry_is_an_error() {
        let m = parse("foo:\n    nop\n").unwrap();
        assert!(assemble(&m, &cfg()).is_err());
    }

    #[test]
    fn far_branch_assembles_via_relaxation() {
        let m = parse(
            "main:\n    jz far\n    nop\n    .space 0x1200\n    .align 2\nfar:\n    nop\n",
        )
        .unwrap();
        let a = assemble(&m, &cfg()).unwrap();
        // Relaxed module contains an absolute branch to `far`.
        let has_abs = a
            .module
            .stmts
            .iter()
            .any(|s| matches!(&s.item, Item::Insn(i) if i.absolute_branch_target().is_some()));
        assert!(has_abs);
    }
}
