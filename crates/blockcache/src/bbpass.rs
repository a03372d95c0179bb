//! Basic-block instrumentation pass (the Miller & Agarwal software cache,
//! ported per paper §4).
//!
//! Every basic block is rewritten so that control flow leaves it only
//! through an *exit*: an indirect branch through a per-CFI exit word that
//! initially points at the runtime trap. When the runtime caches the
//! target block it *chains* the exit by overwriting the word with the
//! cached block's address.
//!
//! Per-CFI transformations (conditional form is the paper's Figure 6,
//! adapted so the short hop stays inside the copied unit):
//!
//! ```text
//! jcc T        =>  jcc  __bb_take          ; short, block-internal
//!                  mov  #k_fall, &__bb_cur ; fall-through exit
//!                  br   &__bb_exit_k_fall
//!            __bb_take:
//!                  mov  #k_take, &__bb_cur ; taken exit
//!                  br   &__bb_exit_k_take
//!
//! jmp T / br #T => mov #k, &__bb_cur ; br &__bb_exit_k
//!
//! call #f      =>  push #__bb_ret_k        ; canonical return address
//!                  mov  #k, &__bb_cur
//!                  br   &__bb_exit_k       ; target = f's entry block
//!            __bb_ret_k:                   ; next block begins here
//!
//! ret          =>  mov #k, &__bb_cur ; br &__bb_exit_k   ; dynamic target
//! ```
//!
//! Returns push **canonical FRAM addresses**, so flushing the cache can
//! never strand a stale return address — the runtime pops the canonical
//! address and looks it up like any other block start.

use msp430_asm::ast::{AsmOperand, Insn, Item, Module};
use msp430_asm::error::{AsmError, AsmResult};
use msp430_asm::expr::Expr;
use msp430_asm::layout::LayoutConfig;
use msp430_asm::object::{assemble, Assembly};
use msp430_asm::program;
use msp430_sim::isa::{Opcode, Reg, Size};

/// Name of the block-cache metadata section.
pub const TABLES_SECTION: &str = "bbtab";
/// FRAM base address of the metadata section.
pub const TABLES_BASE: u16 = 0xA000;
/// Trap-window address every exit word initially points at; distinct
/// from SwapRAM's trap so the two runtimes never mistake each other's.
pub const TRAP_ADDR: u16 = 0x0F10;
/// Hash-table load factor denominator: capacity = blocks × this. The
/// original implementation uses a load factor of 0.5 (§4).
const HASH_LOAD_DEN: u16 = 2;
/// Symbol of the global current-exit word.
pub const CUR_SYMBOL: &str = "__bb_cur";

fn exit_symbol(k: usize) -> String {
    format!("__bb_exit_{k}")
}

fn start_symbol(b: usize) -> String {
    format!("__bb_s_{b}")
}

fn end_symbol(b: usize) -> String {
    format!("__bb_e_{b}")
}

/// Where an exit transfers control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitKind {
    /// Static target (jump, fall-through, call): chainable.
    Static {
        /// Target symbol (a block-start label).
        target: String,
    },
    /// Dynamic target popped from the stack (function return): never
    /// chained.
    Return,
}

/// A CFI exit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitInfo {
    /// Exit index (the value written to `__bb_cur`).
    pub k: usize,
    /// Address of the exit word (filled after assembly).
    pub word_addr: u16,
    /// Static or dynamic target.
    pub kind: ExitKind,
}

/// A transformed basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block index.
    pub b: usize,
    /// Canonical FRAM start address (filled after assembly).
    pub addr: u16,
    /// Size in bytes (filled after assembly).
    pub size: u16,
}

/// Output of the block-cache pass.
#[derive(Debug, Clone)]
pub struct BlockProgram {
    /// The final assembled program.
    pub assembly: Assembly,
    /// Address of `__bb_cur`.
    pub cur_addr: u16,
    /// Exit records indexed by `k`.
    pub exits: Vec<ExitInfo>,
    /// Blocks indexed by `b`.
    pub blocks: Vec<BlockInfo>,
    /// Map from canonical block start address to block index.
    pub block_by_addr: std::collections::BTreeMap<u16, usize>,
    /// Base address of the hash table in FRAM.
    pub hash_base: u16,
    /// Number of hash slots (2 words each).
    pub hash_capacity: u16,
    /// Metadata bytes (exit words + jump table + block info + hash table).
    pub metadata_bytes: u16,
    /// Modeled runtime code size in FRAM.
    pub handler_bytes: u16,
}

impl BlockProgram {
    /// Block index whose canonical start is `addr`.
    pub fn block_at(&self, addr: u16) -> Option<usize> {
        self.block_by_addr.get(&addr).copied()
    }
}

/// Runs the block-cache transformation and assembles the final binary.
///
/// # Errors
///
/// Propagates assembly errors; rejects modules that already use the
/// reserved metadata section.
pub fn transform(module: &Module, layout: &LayoutConfig) -> AsmResult<BlockProgram> {
    if module.stmts.iter().any(
        |s| matches!(&s.item, Item::Section(name) if name == TABLES_SECTION),
    ) {
        return Err(AsmError::global(format!(
            "section `{TABLES_SECTION}` is reserved for block-cache metadata"
        )));
    }
    let layout = layout.clone().with_section(TABLES_SECTION, TABLES_BASE);

    let mut out = Module::new();
    let mut exits: Vec<ExitKind> = Vec::new();
    let mut nblocks = 0usize;

    // Rebuild the module function by function, block by block.
    let fns = program::functions_of(module);
    let mut covered = vec![false; module.stmts.len()];
    for f in &fns {
        for i in f.body.clone() {
            covered[i] = true;
        }
    }

    let emit_block =
        |out: &mut Module, module: &Module, stmts: std::ops::Range<usize>, ends_in_cfi: bool,
         exits: &mut Vec<ExitKind>, nblocks: &mut usize, fallthrough_to: Option<String>|
         -> AsmResult<usize> {
            let b = *nblocks;
            *nblocks += 1;
            out.push(Item::Align(2));
            out.push(Item::Label(start_symbol(b)));
            let last = if ends_in_cfi { stmts.end - 1 } else { stmts.end };
            // Body: original labels + straight-line instructions.
            for i in stmts.start..last {
                out.stmts.push(module.stmts[i].clone());
            }
            // Trailer.
            let mk_exit = |out: &mut Module, exits: &mut Vec<ExitKind>, kind: ExitKind| {
                let k = exits.len();
                exits.push(kind);
                out.push(Item::Insn(Insn::FormatI {
                    op: Opcode::Mov,
                    size: Size::Word,
                    src: AsmOperand::Imm(Expr::num(k as i64)),
                    dst: AsmOperand::Absolute(Expr::sym(CUR_SYMBOL)),
                }));
                out.push(Item::Insn(Insn::FormatI {
                    op: Opcode::Mov,
                    size: Size::Word,
                    src: AsmOperand::Absolute(Expr::sym(exit_symbol(k))),
                    dst: AsmOperand::Reg(Reg::PC),
                }));
                k
            };
            if ends_in_cfi {
                let insn = match &module.stmts[last].item {
                    Item::Insn(i) => i.clone(),
                    _ => {
                        return Err(AsmError::global(format!(
                            "internal: block {b} marked as ending in control flow, but its \
                             trailer is not an instruction"
                        )))
                    }
                };
                match classify(&insn) {
                    Cfi::Jump { op: Opcode::Jmp, target } => {
                        mk_exit(out, exits, ExitKind::Static { target });
                    }
                    Cfi::Jump { op, target } => {
                        // Conditional: taken + fall-through exits.
                        let take = format!("__bb_take_{b}");
                        out.push(Item::Insn(Insn::Jump { op, target: Expr::sym(&take) }));
                        let ft = fallthrough_to.clone().ok_or_else(|| {
                            AsmError::global(format!(
                                "block {b}: conditional control flow with no fall-through successor"
                            ))
                        })?;
                        mk_exit(out, exits, ExitKind::Static { target: ft });
                        out.push(Item::Label(take));
                        mk_exit(out, exits, ExitKind::Static { target });
                    }
                    Cfi::AbsBranch { target } => {
                        mk_exit(out, exits, ExitKind::Static { target });
                    }
                    Cfi::Call { target } => {
                        // Push the canonical start of the *next* block as
                        // the return address: flush-safe (see module docs).
                        let ret = fallthrough_to.clone().ok_or_else(|| {
                            AsmError::global(format!(
                                "block {b}: call with no following block to return to"
                            ))
                        })?;
                        out.push(Item::Insn(Insn::FormatII {
                            op: Opcode::Push,
                            size: Size::Word,
                            dst: AsmOperand::Imm(Expr::sym(ret)),
                        }));
                        mk_exit(out, exits, ExitKind::Static { target });
                    }
                    Cfi::Ret => {
                        mk_exit(out, exits, ExitKind::Return);
                    }
                    Cfi::Other => {
                        // Unsupported computed control flow: keep verbatim
                        // (executes from the canonical copy).
                        out.stmts.push(module.stmts[last].clone());
                    }
                }
            } else if let Some(ft) = fallthrough_to {
                mk_exit(out, exits, ExitKind::Static { target: ft });
            }
            out.push(Item::Label(end_symbol(b)));
            Ok(b)
        };

    // Statements outside functions (sections, data, globals) pass through;
    // function bodies are re-emitted in block form.
    let mut i = 0usize;
    while i < module.stmts.len() {
        if !covered[i] {
            out.stmts.push(module.stmts[i].clone());
            i += 1;
            continue;
        }
        // Find the function starting here.
        let f = fns.iter().find(|f| f.body.start == i).ok_or_else(|| {
            AsmError::global(format!(
                "internal: covered statement {i} does not start a function body"
            ))
        })?;
        let blocks = program::basic_blocks(module, f.body.clone());
        let base = nblocks;
        for (bi, blk) in blocks.iter().enumerate() {
            // The canonical fall-through target is the next block's start
            // marker — every emitted block gets one, so no synthetic
            // labels are needed.
            let fallthrough_to = if bi + 1 < blocks.len() {
                Some(start_symbol(base + bi + 1))
            } else {
                None
            };
            emit_block(
                &mut out,
                module,
                blk.stmts.clone(),
                blk.ends_in_cfi,
                &mut exits,
                &mut nblocks,
                fallthrough_to,
            )?;
        }
        i = f.body.end;
    }

    // Metadata section.
    out.push(Item::Section(TABLES_SECTION.to_string()));
    out.push(Item::Align(2));
    out.push(Item::Label(CUR_SYMBOL.to_string()));
    out.push(Item::Word(vec![Expr::num(0)]));
    for (k, kind) in exits.iter().enumerate() {
        out.push(Item::Label(exit_symbol(k)));
        out.push(Item::Word(vec![Expr::num(i64::from(TRAP_ADDR))]));
        // Jump-table entry: static target (or 0 for returns) — this is the
        // structure §5.2 calls out as the dominant metadata cost.
        match kind {
            ExitKind::Static { target } => {
                out.push(Item::Word(vec![Expr::sym(target), Expr::num(0)]))
            }
            ExitKind::Return => out.push(Item::Word(vec![Expr::num(0), Expr::num(1)])),
        }
    }
    // Block info table: start, size per block.
    out.push(Item::Label("__bb_binfo".to_string()));
    for b in 0..nblocks {
        out.push(Item::Word(vec![
            Expr::sym(start_symbol(b)),
            Expr::diff(end_symbol(b), start_symbol(b)),
        ]));
    }
    // Hash table (2 words per slot: tag, value).
    let capacity = (nblocks as u16).saturating_mul(HASH_LOAD_DEN).max(4);
    out.push(Item::Align(2));
    out.push(Item::Label("__bb_hash".to_string()));
    out.push(Item::Space(Expr::num(i64::from(capacity) * 4), 0));

    let assembly = assemble(&out, &layout)?;
    let lookup = |s: &str| -> AsmResult<u16> {
        assembly
            .symbol(s)
            .ok_or_else(|| AsmError::global(format!("missing block-cache symbol `{s}`")))
    };

    let mut exit_infos = Vec::with_capacity(exits.len());
    for (k, kind) in exits.iter().enumerate() {
        exit_infos.push(ExitInfo { k, word_addr: lookup(&exit_symbol(k))?, kind: kind.clone() });
    }
    let mut blocks = Vec::with_capacity(nblocks);
    let mut block_by_addr = std::collections::BTreeMap::new();
    for b in 0..nblocks {
        let addr = lookup(&start_symbol(b))?;
        let end = lookup(&end_symbol(b))?;
        blocks.push(BlockInfo { b, addr, size: end - addr });
        block_by_addr.insert(addr, b);
    }

    let metadata_bytes = assembly.section_size(TABLES_SECTION);
    let handler_bytes = 1280; // flat model: chaining runtime + hash code

    Ok(BlockProgram {
        cur_addr: lookup(CUR_SYMBOL)?,
        hash_base: lookup("__bb_hash")?,
        hash_capacity: capacity,
        assembly,
        exits: exit_infos,
        blocks,
        block_by_addr,
        metadata_bytes,
        handler_bytes,
    })
}

enum Cfi {
    Jump { op: Opcode, target: String },
    AbsBranch { target: String },
    Call { target: String },
    Ret,
    Other,
}

fn classify(insn: &Insn) -> Cfi {
    match insn {
        Insn::Jump { op, target } => match target.as_symbol() {
            Some(s) => Cfi::Jump { op: *op, target: s.to_string() },
            None => Cfi::Other,
        },
        Insn::FormatII { op: Opcode::Call, dst: AsmOperand::Imm(e), .. } => match e.as_symbol() {
            Some(s) => Cfi::Call { target: s.to_string() },
            None => Cfi::Other,
        },
        Insn::FormatI {
            op: Opcode::Mov,
            src: AsmOperand::IndirectInc(r),
            dst: AsmOperand::Reg(pc),
            ..
        } if *r == Reg::SP && *pc == Reg::PC => Cfi::Ret,
        i => match i.absolute_branch_target().and_then(|e| e.as_symbol()) {
            Some(s) => Cfi::AbsBranch { target: s.to_string() },
            None => Cfi::Other,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp430_asm::parser::parse;

    const SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x3ffe, sp
    call #main
    mov #0, &0x0102
    .endfunc
    .func main
main:
    mov #3, r12
loop:
    dec r12
    jnz loop
    ret
    .endfunc
";

    fn layout() -> LayoutConfig {
        LayoutConfig::new(0x4000, 0x9000)
    }

    #[test]
    fn produces_blocks_and_exits() {
        let m = parse(SRC).unwrap();
        let lc = layout();
        let p = transform(&m, &lc).unwrap();
        assert!(p.blocks.len() >= 4, "blocks: {:?}", p.blocks.len());
        assert!(p.exits.len() >= p.blocks.len(), "every block ends in at least one exit");
        assert!(p.exits.iter().any(|e| matches!(e.kind, ExitKind::Return)));
        // All exit words initialised to the trap address.
        for e in &p.exits {
            let w = peek(&p.assembly.image, e.word_addr);
            assert_eq!(w, TRAP_ADDR);
        }
    }

    #[test]
    fn transformation_grows_code_substantially() {
        let m = parse(SRC).unwrap();
        let lc = layout();
        let plain = msp430_asm::object::assemble(&m, &lc.clone().with_entry("__start")).unwrap();
        let p = transform(&m, &lc).unwrap();
        let plain_text = plain.section_size("text");
        let bb_text = p.assembly.section_size("text");
        assert!(
            f64::from(bb_text) > 1.5 * f64::from(plain_text),
            "block transform should roughly double code size ({} vs {})",
            bb_text,
            plain_text
        );
        assert!(p.metadata_bytes > 0);
    }

    #[test]
    fn conditional_gets_two_exits() {
        let m = parse(SRC).unwrap();
        let lc = layout();
        let p = transform(&m, &lc).unwrap();
        let statics = p
            .exits
            .iter()
            .filter(|e| matches!(e.kind, ExitKind::Static { .. }))
            .count();
        // jnz contributes 2, call 1, fall-throughs a few.
        assert!(statics >= 4);
    }

    fn peek(img: &msp430_sim::mem::Image, addr: u16) -> u16 {
        img.word_at(addr).expect("test address must be covered by the image")
    }
}
