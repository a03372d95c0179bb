//! Address assignment, symbol resolution and branch relaxation.
//!
//! Mirrors the msp430-gcc behaviour the paper's toolchain relies on (§4):
//! every branch starts as a PC-relative jump (±511/512 words); jumps whose
//! targets fall outside that range are *relaxed* into absolute branches —
//! `BR #target`, i.e. `MOV #target, PC` — iterating because rewriting grows
//! code and can push other jumps out of range. Conditional jumps relax into
//! the inverted-condition skip pattern of the paper's Figure 6.
//!
//! The relaxed module is returned to the caller together with its final
//! layout (the converged round's, so encoding needs no further pass): the
//! SwapRAM static pass scans it for the absolute branches that need
//! relocation entries (paper §3.3.1), exactly as the authors' scripts scan
//! the intermediate binary.

use crate::ast::{ByteInit, Insn, Item, Module, Stmt};
use crate::error::{AsmError, AsmResult};
use crate::expr::{Expr, SymTab};
use msp430_sim::isa::{Opcode, Reg, Size};
use std::collections::BTreeMap;

/// Where each output section starts, plus the entry symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutConfig {
    /// Base address of each section name used by the module.
    pub section_bases: BTreeMap<String, u16>,
    /// Symbol used as the image entry point.
    pub entry: String,
}

impl LayoutConfig {
    /// Creates a config with `text` and `data` bases and entry `__start`.
    pub fn new(text_base: u16, data_base: u16) -> LayoutConfig {
        let mut section_bases = BTreeMap::new();
        section_bases.insert("text".to_string(), text_base);
        section_bases.insert("data".to_string(), data_base);
        LayoutConfig { section_bases, entry: "__start".to_string() }
    }

    /// Adds or overrides a section base (builder style).
    pub fn with_section(mut self, name: &str, base: u16) -> LayoutConfig {
        self.section_bases.insert(name.to_string(), base);
        self
    }

    /// Overrides the entry symbol (builder style).
    pub fn with_entry(mut self, entry: &str) -> LayoutConfig {
        self.entry = entry.to_string();
        self
    }
}

impl Default for LayoutConfig {
    fn default() -> Self {
        // FR2355 unified-memory defaults: code and data both in FRAM.
        LayoutConfig::new(0x4000, 0x9000)
    }
}

/// A function span discovered from `.func`/`.endfunc` markers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpan {
    /// Function name.
    pub name: String,
    /// Start address (address of the first statement after `.func`).
    pub start: u16,
    /// End address (exclusive).
    pub end: u16,
}

impl FuncSpan {
    /// Size of the function body in bytes.
    pub fn size(&self) -> u16 {
        self.end - self.start
    }
}

/// The result of address assignment over a module.
#[derive(Debug, Clone)]
pub struct Layout {
    /// All resolved symbols (labels and `.equ` definitions).
    pub symbols: SymTab,
    /// Address assigned to each statement (None for `.equ`/`.global`).
    pub stmt_addrs: Vec<Option<u16>>,
    /// Section name, base and size, in base order.
    pub sections: Vec<(String, u16, u16)>,
    /// Function spans in module order.
    pub functions: Vec<FuncSpan>,
}

/// Assigns addresses and resolves label symbols.
///
/// # Errors
///
/// Reports unknown sections, duplicate labels, misaligned code/words,
/// section overflow past `0xFFFF` and overlapping sections.
pub fn compute(module: &Module, config: &LayoutConfig) -> AsmResult<Layout> {
    let mut symbols = SymTab::new();
    let mut cursors: BTreeMap<String, u32> = BTreeMap::new();
    let mut used: Vec<String> = Vec::new();
    let mut stmt_addrs = vec![None; module.stmts.len()];
    let mut functions: Vec<FuncSpan> = Vec::new();
    let mut open_func: Option<(String, u16)> = None;
    let mut section = "text".to_string();

    let cursor_of = |cursors: &mut BTreeMap<String, u32>,
                         used: &mut Vec<String>,
                         name: &str,
                         line: u32|
     -> AsmResult<u32> {
        if let Some(c) = cursors.get(name) {
            return Ok(*c);
        }
        let base = config.section_bases.get(name).copied().ok_or_else(|| {
            AsmError::at(line, format!("section `{name}` has no configured base address"))
        })?;
        cursors.insert(name.to_string(), u32::from(base));
        used.push(name.to_string());
        Ok(u32::from(base))
    };

    for (i, Stmt { item, line }) in module.stmts.iter().enumerate() {
        let line = *line;
        let mut cur = cursor_of(&mut cursors, &mut used, &section, line)?;
        match item {
            Item::Section(name) => {
                section = name.clone();
                cursor_of(&mut cursors, &mut used, &section, line)?;
                continue;
            }
            Item::Label(name) => {
                if symbols.insert(name.clone(), i64::from(cur as u16)).is_some() {
                    return Err(AsmError::at(line, format!("duplicate label `{name}`")));
                }
                stmt_addrs[i] = Some(cur as u16);
                continue;
            }
            Item::Global(_) => continue,
            Item::Equ(name, expr) => {
                let v = expr.eval(&symbols).map_err(|e| AsmError::at(line, e.msg))?;
                if symbols.insert(name.clone(), v).is_some() {
                    return Err(AsmError::at(line, format!("duplicate symbol `{name}`")));
                }
                continue;
            }
            Item::FuncStart(name) => {
                if open_func.is_some() {
                    return Err(AsmError::at(line, "nested `.func` is not allowed"));
                }
                open_func = Some((name.clone(), cur as u16));
                stmt_addrs[i] = Some(cur as u16);
                continue;
            }
            Item::FuncEnd => {
                let (name, start) = open_func.take().ok_or_else(|| {
                    AsmError::at(line, "`.endfunc` without an open `.func`")
                })?;
                functions.push(FuncSpan { name, start, end: cur as u16 });
                stmt_addrs[i] = Some(cur as u16);
                continue;
            }
            Item::Insn(insn) => {
                if cur & 1 != 0 {
                    return Err(AsmError::at(line, "instruction at odd address (missing .align?)"));
                }
                stmt_addrs[i] = Some(cur as u16);
                cur += u32::from(insn.len_bytes());
            }
            Item::Word(es) => {
                if cur & 1 != 0 {
                    return Err(AsmError::at(line, "`.word` at odd address (missing .align?)"));
                }
                stmt_addrs[i] = Some(cur as u16);
                cur += 2 * es.len() as u32;
            }
            Item::Byte(bs) => {
                stmt_addrs[i] = Some(cur as u16);
                for b in bs {
                    cur += match b {
                        ByteInit::Expr(_) => 1,
                        ByteInit::Str(s) => s.len() as u32,
                    };
                }
            }
            Item::Space(n, _) => {
                stmt_addrs[i] = Some(cur as u16);
                let size = n.eval(&symbols).map_err(|e| AsmError::at(line, e.msg))?;
                if size < 0 {
                    return Err(AsmError::at(line, "negative `.space` size"));
                }
                cur += size as u32;
            }
            Item::Align(n) => {
                let n = u32::from(*n);
                cur = (cur + n - 1) & !(n - 1);
                stmt_addrs[i] = Some(cur as u16);
            }
        }
        if cur > 0x1_0000 {
            return Err(AsmError::at(line, format!("section `{section}` overflows the address space")));
        }
        cursors.insert(section.clone(), cur);
    }

    if let Some((name, _)) = open_func {
        return Err(AsmError::global(format!("function `{name}` has no `.endfunc`")));
    }

    // Section table + overlap check.
    let mut sections: Vec<(String, u16, u16)> = used
        .iter()
        .map(|name| {
            let base = config.section_bases[name];
            let end = cursors[name];
            (name.clone(), base, (end - u32::from(base)) as u16)
        })
        .collect();
    sections.sort_by_key(|(_, base, _)| *base);
    for pair in sections.windows(2) {
        let (ref a_name, a_base, a_size) = pair[0];
        let (ref b_name, b_base, _) = pair[1];
        if u32::from(a_base) + u32::from(a_size) > u32::from(b_base) {
            return Err(AsmError::global(format!(
                "sections `{a_name}` and `{b_name}` overlap"
            )));
        }
    }

    Ok(Layout { symbols, stmt_addrs, sections, functions })
}

/// Maximum backward jump distance in words.
pub const JUMP_MIN_WORDS: i64 = -512;
/// Maximum forward jump distance in words.
pub const JUMP_MAX_WORDS: i64 = 511;

fn invert(op: Opcode) -> Option<Opcode> {
    Some(match op {
        Opcode::Jnz => Opcode::Jz,
        Opcode::Jz => Opcode::Jnz,
        Opcode::Jnc => Opcode::Jc,
        Opcode::Jc => Opcode::Jnc,
        Opcode::Jge => Opcode::Jl,
        Opcode::Jl => Opcode::Jge,
        _ => return None, // JN has no inverse; JMP handled separately
    })
}

/// Relaxes out-of-range jumps into absolute branches (see module docs).
///
/// Returns the relaxed module, its layout (the last round's, computed on
/// the module as returned) and the number of rewrites performed.
///
/// # Errors
///
/// Propagates layout errors (undefined jump targets, etc.).
pub fn relax(module: &Module, config: &LayoutConfig) -> AsmResult<(Module, Layout, usize)> {
    let mut m = module.clone();
    let mut total_rewrites = 0usize;
    let mut fresh = 0usize;
    for _round in 0..32 {
        let layout = compute(&m, config)?;
        let mut to_rewrite: Vec<usize> = Vec::new();
        for (i, stmt) in m.stmts.iter().enumerate() {
            if let Item::Insn(Insn::Jump { target, .. }) = &stmt.item {
                let addr = layout.stmt_addrs[i].expect("insn has an address");
                let t = target
                    .eval(&layout.symbols)
                    .map_err(|e| AsmError::at(stmt.line, e.msg))?;
                if t & 1 != 0 {
                    return Err(AsmError::at(stmt.line, "jump to odd address"));
                }
                let off_words = (t - i64::from(addr) - 2) / 2;
                if !(JUMP_MIN_WORDS..=JUMP_MAX_WORDS).contains(&off_words) {
                    to_rewrite.push(i);
                }
            }
        }
        if to_rewrite.is_empty() {
            return Ok((m, layout, total_rewrites));
        }
        total_rewrites += to_rewrite.len();
        // Rewrite back-to-front so indices stay valid.
        for &i in to_rewrite.iter().rev() {
            let (op, target, line) = match &m.stmts[i].item {
                Item::Insn(Insn::Jump { op, target }) => (*op, target.clone(), m.stmts[i].line),
                _ => unreachable!(),
            };
            let br = |t: Expr| {
                Item::Insn(Insn::FormatI {
                    op: Opcode::Mov,
                    size: Size::Word,
                    src: crate::ast::AsmOperand::Imm(t),
                    dst: crate::ast::AsmOperand::Reg(Reg::PC),
                })
            };
            let replacement: Vec<Stmt> = if matches!(op, Opcode::Jmp) {
                vec![Stmt { item: br(target), line }]
            } else if let Some(inv) = invert(op) {
                // Figure 6: inverted condition skips the absolute branch.
                let skip = format!("__rx_{fresh}");
                fresh += 1;
                vec![
                    Stmt { item: Item::Insn(Insn::Jump { op: inv, target: Expr::sym(&skip) }), line },
                    Stmt { item: br(target), line },
                    Stmt { item: Item::Label(skip), line },
                ]
            } else {
                // JN has no inverse: take a short hop to the far branch.
                let take = format!("__rx_{fresh}");
                let over = format!("__rx_{}", fresh + 1);
                fresh += 2;
                vec![
                    Stmt { item: Item::Insn(Insn::Jump { op, target: Expr::sym(&take) }), line },
                    Stmt {
                        item: Item::Insn(Insn::Jump { op: Opcode::Jmp, target: Expr::sym(&over) }),
                        line,
                    },
                    Stmt { item: Item::Label(take), line },
                    Stmt { item: br(target), line },
                    Stmt { item: Item::Label(over), line },
                ]
            };
            m.stmts.splice(i..=i, replacement);
        }
    }
    Err(AsmError::global("branch relaxation did not converge"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg() -> LayoutConfig {
        LayoutConfig::new(0x4000, 0x9000)
    }

    #[test]
    fn addresses_and_symbols() {
        let m = parse(
            "    .text\nstart:\n    mov #0x1234, r12\n    ret\n    .data\nbuf:\n    .space 4\nend:\n",
        )
        .unwrap();
        let l = compute(&m, &cfg()).unwrap();
        assert_eq!(l.symbols["start"], 0x4000);
        assert_eq!(l.symbols["buf"], 0x9000);
        assert_eq!(l.symbols["end"], 0x9004);
    }

    #[test]
    fn function_spans() {
        let m = parse("    .func f\nf:\n    nop\n    ret\n    .endfunc\n").unwrap();
        let l = compute(&m, &cfg()).unwrap();
        assert_eq!(l.functions.len(), 1);
        let f = &l.functions[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.start, 0x4000);
        assert_eq!(f.size(), 4); // nop (1 word) + ret (1 word)
    }

    #[test]
    fn duplicate_label_rejected() {
        let m = parse("a:\na:\n").unwrap();
        assert!(compute(&m, &cfg()).is_err());
    }

    #[test]
    fn equ_and_space_with_symbols() {
        let m = parse("    .equ N, 8\n    .data\nbuf: .space N * 2\nafter:\n").unwrap();
        let l = compute(&m, &cfg()).unwrap();
        assert_eq!(l.symbols["after"], 0x9010);
    }

    #[test]
    fn align_pads() {
        let m = parse("    .data\n    .byte 1\n    .align 2\nw: .word 5\n").unwrap();
        let l = compute(&m, &cfg()).unwrap();
        assert_eq!(l.symbols["w"], 0x9002);
    }

    #[test]
    fn odd_instruction_address_rejected() {
        let m = parse("    .byte 1\n    nop\n").unwrap();
        assert!(compute(&m, &cfg()).is_err());
    }

    #[test]
    fn overlapping_sections_rejected() {
        let m = parse("    .text\n    .space 0x100\n    .section other\n    .space 4\n").unwrap();
        let config = cfg().with_section("other", 0x4010);
        assert!(compute(&m, &config).is_err());
    }

    #[test]
    fn in_range_jump_not_relaxed() {
        let m = parse("loop:\n    dec r12\n    jnz loop\n").unwrap();
        let (relaxed, _, n) = relax(&m, &cfg()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(relaxed, m);
    }

    #[test]
    fn far_jmp_becomes_absolute_branch() {
        // A jmp across a 4 KiB hole is out of range.
        let m = parse("    jmp far\n    .space 0x1000\nfar:\n    ret\n").unwrap();
        let (relaxed, layout, n) = relax(&m, &cfg()).unwrap();
        assert_eq!(n, 1);
        let has_br = relaxed.stmts.iter().any(|s| {
            matches!(&s.item, Item::Insn(i) if i.absolute_branch_target().is_some())
        });
        assert!(has_br, "expected a MOV #far, PC");
        // The returned layout is the relaxed module's own.
        let fresh = compute(&relaxed, &cfg()).unwrap();
        assert_eq!(layout.stmt_addrs, fresh.stmt_addrs);
        assert_eq!(layout.symbols, fresh.symbols);
        assert_eq!(layout.sections, fresh.sections);
    }

    #[test]
    fn far_conditional_uses_figure6_pattern() {
        let m = parse("    jz far\n    .space 0x1000\nfar:\n    ret\n").unwrap();
        let (relaxed, _, n) = relax(&m, &cfg()).unwrap();
        assert_eq!(n, 1);
        // The inverted jump (jnz) skips the absolute branch.
        let has_inverted = relaxed
            .stmts
            .iter()
            .any(|s| matches!(&s.item, Item::Insn(Insn::Jump { op: Opcode::Jnz, .. })));
        assert!(has_inverted);
    }

    #[test]
    fn far_jn_uses_trampoline() {
        let m = parse("    jn far\n    .space 0x1000\nfar:\n    ret\n").unwrap();
        let (relaxed, layout, _) = relax(&m, &cfg()).unwrap();
        // JN survives, now pointing at a nearby trampoline.
        let jn_count = relaxed
            .stmts
            .iter()
            .filter(|s| matches!(&s.item, Item::Insn(Insn::Jump { op: Opcode::Jn, .. })))
            .count();
        assert_eq!(jn_count, 1);
        assert_eq!(layout.stmt_addrs, compute(&relaxed, &cfg()).unwrap().stmt_addrs);
    }

    #[test]
    fn undefined_jump_target_errors() {
        let m = parse("    jmp nowhere\n").unwrap();
        assert!(relax(&m, &cfg()).is_err());
    }
}
