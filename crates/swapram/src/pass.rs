//! SwapRAM's compile-time (assembly-level) transformation pass.
//!
//! Implements the two-pass flow of the paper (§3.2, §4):
//!
//! 1. **Pass 1** rewrites every direct call to a cacheable function into the
//!    indirect, redirectable form of Figure 3:
//!
//!    ```text
//!    add  #1, &__sr_act_CALLER   ; protect the caller while on the stack
//!    mov  #funcId, &__sr_fid     ; tell the miss handler who is called
//!    call &__sr_redir_f          ; indirect call through the redirection word
//!    sub  #1, &__sr_act_CALLER
//!    ```
//!
//!    and emits the metadata tables (redirection words initialised to the
//!    trap address, active counters) into a dedicated FRAM section.
//!
//! 2. The module is relaxed and laid out to fix addresses (relaxation turns
//!    out-of-range jumps into absolute branches, and final function sizes
//!    become known), then **pass 2** scans the relaxed module for absolute
//!    branches *inside* cacheable functions and replaces each with an
//!    indirect branch through a per-branch relocation word
//!    (`BR &__sr_reloc_k`, §3.3.1), initialised to the FRAM target so
//!    uncached execution still works. The branch offset
//!    (`target − fnBase`) is stored alongside for the runtime.
//!
//! The pass is programmer-transparent: it needs only `.func`/`.endfunc`
//! markers, which the benchmark sources (like compiler output) already
//! carry.

use crate::config::{IsrProtocol, RecoveryMode, SwapConfig};
use crate::guards::guard_value;
use crate::tables::{
    act_symbol, guard_symbol, isrfid_symbol, redir_symbol, reloc_symbol, resume_slot_symbol,
    rofs_symbol, DIRTY_COUNT_SYMBOL, DIRTY_SLOTS_SYMBOL, FID_SYMBOL, GEN_SYMBOL, RESUME_BASE,
    RESUME_SECTION, TABLES_BASE, TABLES_SECTION, TRAP_ADDR, WATCHDOG_SYMBOL,
};
use msp430_asm::ast::{AsmOperand, Insn, Item, Module, Stmt};
use msp430_asm::error::{AsmError, AsmResult};
use msp430_asm::expr::Expr;
use msp430_asm::layout::{relax, LayoutConfig};
use msp430_asm::object::{assemble, Assembly};
use msp430_asm::program;
use msp430_sim::isa::{Opcode, Reg, Size};
use std::collections::BTreeMap;

/// A relocation entry for one absolute branch inside a cacheable function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapReloc {
    /// Address of the runtime-written relocation word the branch reads.
    pub reloc_addr: u16,
    /// Address of the static `target − fnBase` offset word.
    pub rofs_addr: u16,
    /// The offset value itself (also stored at `rofs_addr`).
    pub ofs: u16,
}

/// Per-function metadata produced by the static pass — the node contents of
/// paper §3.4 (NVRAM address, size, redirection/active-counter locations,
/// relocation entries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapFunc {
    /// The `funcId` written at call sites.
    pub id: u16,
    /// Function name.
    pub name: String,
    /// Address of the function body in FRAM.
    pub fram_addr: u16,
    /// Size in bytes.
    pub size: u16,
    /// Address of the redirection word call sites branch through.
    pub redir_addr: u16,
    /// Address of the active counter.
    pub act_addr: u16,
    /// Relocation entries for the function's absolute branches.
    pub relocs: Vec<SwapReloc>,
    /// Address of the metadata CRC guard word, when
    /// [`SwapConfig::guards`] asked the pass to emit one.
    pub guard_addr: Option<u16>,
}

/// FRAM layout of the generation-tagged dirty log the pass emits under
/// [`RecoveryMode::DirtyLog`] (see `crate::runtime` for the protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Journal {
    /// Address of the persistent recovery-generation word (initialised
    /// to 1 so a generation tag is never all-zero).
    pub gen_addr: u16,
    /// Address of the entry-count word.
    pub count_addr: u16,
    /// Address of the first of `capacity` contiguous entry slots.
    pub slots_addr: u16,
    /// Number of slots — one per cacheable function, so a deduplicated
    /// log can never overflow.
    pub capacity: u16,
}

/// Functions a dirty-log entry can address: ids occupy the low byte of an
/// entry word, so programs with more functions fall back to full-scan
/// recovery (the pass emits no journal).
pub const JOURNAL_MAX_FUNCS: usize = 256;

/// FRAM layout of the persistent-stack resume area the pass emits under
/// [`RecoveryMode::PersistentStack`]: two generation-tagged checkpoint
/// slots (double-buffered, committed two-phase) plus the Sisyphus
/// watchdog words. See `crate::runtime` for the checkpoint protocol.
///
/// Slot layout, in words: `gen` (0 = invalid, committed generations have
/// [`ResumeArea::GEN_MARK`] set), `crc` (CRC-16 over everything after
/// it), `stack_len` (bytes), 16 saved registers, the `__sr_fid` word,
/// one active counter per function, then the saved stack window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeArea {
    /// Addresses of the two checkpoint slots.
    pub slot_addrs: [u16; 2],
    /// Size of one slot in words.
    pub slot_words: u16,
    /// Number of active counters saved per slot.
    pub nfuncs: u16,
    /// Address of the watchdog block: boot count, last resumed state
    /// fingerprint, consecutive zero-progress boots, degraded flag.
    pub watchdog_addr: u16,
}

impl ResumeArea {
    /// Bit set in every committed generation word (so a valid tag is
    /// never zero and never plausible as a small counter).
    pub const GEN_MARK: u16 = 0x8000;
    /// Word offset of the CRC within a slot.
    pub const CRC_OFS: u16 = 1;
    /// Word offset of the saved-stack length within a slot.
    pub const LEN_OFS: u16 = 2;
    /// Word offset of the 16 saved registers within a slot.
    pub const REGS_OFS: u16 = 3;
    /// Word offset of the saved `__sr_fid` word within a slot.
    pub const FID_OFS: u16 = 19;
    /// Word offset of the saved active counters within a slot.
    pub const ACT_OFS: u16 = 20;
    /// Capacity of a slot's saved-stack window in bytes (even).
    /// Checkpoints are skipped, not truncated, when the live stack is
    /// deeper than this.
    pub const STACK_BYTES: u16 = 320;

    /// Slot words needed for `nfuncs` counters and the saved-stack
    /// window.
    pub fn words_for(nfuncs: u16) -> u16 {
        Self::ACT_OFS + nfuncs + Self::STACK_BYTES / 2
    }

    /// Byte address of word `ofs` in slot `slot`.
    pub fn word_addr(&self, slot: usize, ofs: u16) -> u16 {
        self.slot_addrs[slot] + ofs * 2
    }
}

/// Output of the static pass: the final binary plus everything the runtime
/// needs to manage the cache.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The final assembled program.
    pub assembly: Assembly,
    /// Address of the global `funcId` word.
    pub fid_addr: u16,
    /// Cacheable functions, indexed by `funcId`.
    pub funcs: Vec<SwapFunc>,
    /// Bytes of metadata emitted (the "Metadata" bars of Figure 7).
    pub metadata_bytes: u16,
    /// Modeled size of the miss handler + memcpy runtime code in FRAM (the
    /// "Runtime" bars of Figure 7). Scales with the number of relocatable
    /// branches as in §5.2 (972–1844 bytes across the paper's benchmarks).
    pub handler_bytes: u16,
    /// Number of call sites rewritten.
    pub call_sites: usize,
    /// Layout of the persistent dirty log, when the configuration asked
    /// for [`RecoveryMode::DirtyLog`] and the program fits its id space.
    pub journal: Option<Journal>,
    /// `(function, save-slot address)` for every veneered ISR root: the
    /// FRAM words the entry/exit veneers park the interrupted program's
    /// `__sr_fid` in (empty unless [`IsrProtocol::Masked`] with ISR
    /// roots present). Runtime-adjacent stores — the sanitizer must
    /// allow application writes to them like the fid word itself.
    pub isr_slots: Vec<(String, u16)>,
    /// Layout of the persistent-stack resume area, when the configuration
    /// asked for [`RecoveryMode::PersistentStack`].
    pub resume: Option<ResumeArea>,
}

impl Instrumented {
    /// Looks up a function by id.
    pub fn func(&self, id: u16) -> Option<&SwapFunc> {
        self.funcs.get(usize::from(id))
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&SwapFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Total relocatable branches across all functions.
    pub fn reloc_count(&self) -> usize {
        self.funcs.iter().map(|f| f.relocs.len()).sum()
    }
}

/// Runs the full static pass over `module` and assembles the final binary.
///
/// # Errors
///
/// Propagates assembly errors; also fails if the module already uses the
/// reserved metadata section name.
pub fn instrument(
    module: &Module,
    swap: &SwapConfig,
    layout: &LayoutConfig,
) -> AsmResult<Instrumented> {
    for reserved in [TABLES_SECTION, RESUME_SECTION] {
        if module.stmts.iter().any(
            |s| matches!(&s.item, Item::Section(name) if name == reserved),
        ) {
            return Err(AsmError::global(format!(
                "section `{reserved}` is reserved for SwapRAM metadata"
            )));
        }
    }
    let wants_resume = swap.recovery == RecoveryMode::PersistentStack;
    let mut layout = layout.clone().with_section(TABLES_SECTION, TABLES_BASE);
    if wants_resume {
        layout = layout.with_section(RESUME_SECTION, RESUME_BASE);
    }

    // Determine the cacheable set: every `.func` function except the entry
    // point, the blacklist and ISR roots (an interrupt must vector to a
    // stable FRAM address, so vector targets can never move into SRAM).
    let fns = program::functions_of(module);
    let mut ids: BTreeMap<String, u16> = BTreeMap::new();
    for f in &fns {
        if f.name == layout.entry
            || swap.blacklist.contains(&f.name)
            || swap.isr_roots.contains(&f.name)
        {
            continue;
        }
        let id = ids.len() as u16;
        ids.insert(f.name.clone(), id);
    }

    // ISR roots actually present in the module get fid save/restore
    // veneers under the masked protocol (see `inject_isr_veneers`).
    let veneered: Vec<String> = if swap.isr_protocol == IsrProtocol::Masked {
        fns.iter()
            .filter(|f| swap.isr_roots.contains(&f.name))
            .map(|f| f.name.clone())
            .collect()
    } else {
        Vec::new()
    };

    // ---- Pass 1: rewrite call sites, emit base tables. ----
    let (instrumented, call_sites) = rewrite_calls(module, &ids, &fns);
    let mut instrumented = inject_isr_veneers(&instrumented, &veneered);
    instrumented.push(Item::Section(TABLES_SECTION.to_string()));
    instrumented.push(Item::Align(2));
    instrumented.push(Item::Label(FID_SYMBOL.to_string()));
    instrumented.push(Item::Word(vec![Expr::num(0)]));
    for name in ids.keys() {
        instrumented.push(Item::Label(redir_symbol(name)));
        instrumented.push(Item::Word(vec![Expr::num(i64::from(TRAP_ADDR))]));
        instrumented.push(Item::Label(act_symbol(name)));
        instrumented.push(Item::Word(vec![Expr::num(0)]));
    }
    // One static save slot per veneered ISR root. A static (not stacked)
    // slot suffices: interrupts do not nest (hardware clears GIE on
    // entry), so at most one ISR activation per root is ever live.
    for name in &veneered {
        instrumented.push(Item::Label(isrfid_symbol(name)));
        instrumented.push(Item::Word(vec![Expr::num(0)]));
    }
    let wants_journal =
        swap.recovery == RecoveryMode::DirtyLog && ids.len() <= JOURNAL_MAX_FUNCS;
    if wants_journal {
        instrumented.push(Item::Label(GEN_SYMBOL.to_string()));
        instrumented.push(Item::Word(vec![Expr::num(1)]));
        instrumented.push(Item::Label(DIRTY_COUNT_SYMBOL.to_string()));
        instrumented.push(Item::Word(vec![Expr::num(0)]));
        instrumented.push(Item::Label(DIRTY_SLOTS_SYMBOL.to_string()));
        instrumented.push(Item::Word(vec![Expr::num(0); ids.len().max(1)]));
    }
    let resume_slot_words = ResumeArea::words_for(ids.len().max(1) as u16);
    if wants_resume {
        // The FR2355's FRAM ends at 0xC000: the double-buffered area must
        // fit between `RESUME_BASE` and the end of the part.
        let need = u32::from(resume_slot_words) * 4 + 8;
        let avail = 0xC000 - u32::from(RESUME_BASE);
        if need > avail {
            return Err(AsmError::global(format!(
                "persistent-stack resume area needs {need} bytes at {RESUME_BASE:#06x} but only {avail} fit below the end of FRAM"
            )));
        }
        instrumented.push(Item::Section(RESUME_SECTION.to_string()));
        instrumented.push(Item::Align(2));
        for i in 0..2 {
            instrumented.push(Item::Label(resume_slot_symbol(i)));
            // Generation word 0 = invalid: a fresh image has no frame.
            instrumented.push(Item::Word(vec![Expr::num(0); usize::from(resume_slot_words)]));
        }
        instrumented.push(Item::Label(WATCHDOG_SYMBOL.to_string()));
        instrumented.push(Item::Word(vec![Expr::num(0); 4]));
    }

    // ---- Intermediate layout: materialise relaxation and fix addresses
    // (nothing is encoded until the final assembly). ----
    let (mut relaxed, intermediate, _) = relax(&instrumented, &layout)?;
    let function_of = |name: &str| intermediate.functions.iter().find(|f| f.name == name);
    let symbol_of = |name: &str| intermediate.symbols.get(name).map(|&v| v as u16);

    // ---- Pass 2: relocify absolute branches inside cacheable functions. ----
    let spans = program::functions_of(&relaxed);
    let mut reloc_stmts: Vec<Stmt> = Vec::new();
    let mut relocs_by_func: BTreeMap<String, Vec<(usize, u16, u16)>> = BTreeMap::new();
    let mut k = 0usize;
    for span in &spans {
        if !ids.contains_key(&span.name) {
            continue;
        }
        let fspan = function_of(&span.name)
            .ok_or_else(|| AsmError::global(format!("missing span for `{}`", span.name)))?
            .clone();
        for i in span.body.clone() {
            let target = match &relaxed.stmts[i].item {
                Item::Insn(insn) => match insn.absolute_branch_target() {
                    Some(e) => {
                        // Resolve the branch target; RET (`mov @sp+, pc`)
                        // and computed branches are not absolute branches.
                        let v = match e.as_literal() {
                            Some(v) => v,
                            None => match e.as_symbol().and_then(symbol_of) {
                                Some(a) => i64::from(a),
                                None => continue,
                            },
                        };
                        v as u16
                    }
                    None => continue,
                },
                _ => continue,
            };
            if target < fspan.start || target >= fspan.end {
                continue; // inter-function branch: stays absolute
            }
            let ofs = target - fspan.start;
            relaxed.stmts[i] = Stmt {
                item: Item::Insn(Insn::FormatI {
                    op: Opcode::Mov,
                    size: Size::Word,
                    src: AsmOperand::Absolute(Expr::sym(reloc_symbol(k))),
                    dst: AsmOperand::Reg(Reg::PC),
                }),
                line: relaxed.stmts[i].line,
            };
            reloc_stmts.push(Stmt::synth(Item::Label(reloc_symbol(k))));
            reloc_stmts
                .push(Stmt::synth(Item::Word(vec![Expr::num(i64::from(target))])));
            reloc_stmts.push(Stmt::synth(Item::Label(rofs_symbol(k))));
            reloc_stmts.push(Stmt::synth(Item::Word(vec![Expr::num(i64::from(ofs))])));
            relocs_by_func.entry(span.name.clone()).or_default().push((k, ofs, target));
            k += 1;
        }
    }
    // Guard words can only be emitted here: their initial value covers the
    // relocation words' initial (FRAM-target) values, which pass 2 just
    // determined. Initial state is uncached: redir = trap address.
    if swap.guards {
        for name in ids.keys() {
            let targets: Vec<u16> = relocs_by_func
                .get(name)
                .map(|v| v.iter().map(|(_, _, t)| *t).collect())
                .unwrap_or_default();
            reloc_stmts.push(Stmt::synth(Item::Label(guard_symbol(name))));
            reloc_stmts.push(Stmt::synth(Item::Word(vec![Expr::num(i64::from(
                guard_value(TRAP_ADDR, &targets),
            ))])));
        }
    }
    relaxed.push(Item::Section(TABLES_SECTION.to_string()));
    relaxed.push(Item::Align(2));
    relaxed.stmts.extend(reloc_stmts);

    // ---- Final assembly. ----
    let assembly = assemble(&relaxed, &layout)?;

    // Layout stability check: pass 2 replacements are size-neutral, so
    // function addresses must not have moved.
    for span in &spans {
        if let (Some(a), Some(b)) = (function_of(&span.name), assembly.function(&span.name)) {
            if a.start != b.start || a.end != b.end {
                return Err(AsmError::global(format!(
                    "internal error: function `{}` moved between passes",
                    span.name
                )));
            }
        }
    }

    let lookup = |sym: &str| -> AsmResult<u16> {
        assembly
            .symbol(sym)
            .ok_or_else(|| AsmError::global(format!("missing metadata symbol `{sym}`")))
    };

    let mut funcs: Vec<SwapFunc> = Vec::with_capacity(ids.len());
    for (name, id) in &ids {
        let span = assembly
            .function(name)
            .ok_or_else(|| AsmError::global(format!("missing function `{name}`")))?;
        let relocs = relocs_by_func
            .get(name)
            .map(|v| {
                v.iter()
                    .map(|(k, ofs, _)| {
                        Ok(SwapReloc {
                            reloc_addr: lookup(&reloc_symbol(*k))?,
                            rofs_addr: lookup(&rofs_symbol(*k))?,
                            ofs: *ofs,
                        })
                    })
                    .collect::<AsmResult<Vec<_>>>()
            })
            .transpose()?
            .unwrap_or_default();
        funcs.push(SwapFunc {
            id: *id,
            name: name.clone(),
            fram_addr: span.start,
            size: span.size(),
            redir_addr: lookup(&redir_symbol(name))?,
            act_addr: lookup(&act_symbol(name))?,
            relocs,
            guard_addr: if swap.guards { Some(lookup(&guard_symbol(name))?) } else { None },
        });
    }
    funcs.sort_by_key(|f| f.id);

    let metadata_bytes = assembly.section_size(TABLES_SECTION);
    // Eviction logic dominates the handler; relocation-calculation code
    // scales with the branch count (§5.2).
    let handler_bytes = (972 + 8 * k as u32).min(1844) as u16;

    let journal = if wants_journal {
        Some(Journal {
            gen_addr: lookup(GEN_SYMBOL)?,
            count_addr: lookup(DIRTY_COUNT_SYMBOL)?,
            slots_addr: lookup(DIRTY_SLOTS_SYMBOL)?,
            capacity: ids.len().max(1) as u16,
        })
    } else {
        None
    };

    let isr_slots = veneered
        .iter()
        .map(|n| Ok((n.clone(), lookup(&isrfid_symbol(n))?)))
        .collect::<AsmResult<Vec<_>>>()?;

    let resume = if wants_resume {
        Some(ResumeArea {
            slot_addrs: [lookup(&resume_slot_symbol(0))?, lookup(&resume_slot_symbol(1))?],
            slot_words: resume_slot_words,
            nfuncs: ids.len().max(1) as u16,
            watchdog_addr: lookup(WATCHDOG_SYMBOL)?,
        })
    } else {
        None
    };

    Ok(Instrumented {
        fid_addr: lookup(FID_SYMBOL)?,
        assembly,
        funcs,
        metadata_bytes,
        handler_bytes,
        call_sites,
        journal,
        isr_slots,
        resume,
    })
}

/// Wraps each veneered ISR root in `__sr_fid` save/restore code: the first
/// instruction parks the interrupted program's published function id in
/// the root's static save slot, and every `reti` is preceded by a restore.
/// This closes the publish-window hazard (an ISR performing its own
/// instrumented call between a call site's `MOV #fid, &__sr_fid` and its
/// `CALL &redir`) without changing the ISR's stack-frame shape.
fn inject_isr_veneers(module: &Module, roots: &[String]) -> Module {
    if roots.is_empty() {
        return module.clone();
    }
    let spans = program::functions_of(module);
    let mut in_root: Vec<Option<String>> = vec![None; module.stmts.len()];
    for f in &spans {
        if roots.contains(&f.name) {
            for slot in &mut in_root[f.body.clone()] {
                *slot = Some(f.name.clone());
            }
        }
    }
    let mov_abs = |src: String, dst: String| {
        Item::Insn(Insn::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: AsmOperand::Absolute(Expr::sym(src)),
            dst: AsmOperand::Absolute(Expr::sym(dst)),
        })
    };
    let mut out = Module::new();
    let mut entered: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (i, stmt) in module.stmts.iter().enumerate() {
        if let (Some(name), Item::Insn(insn)) = (&in_root[i], &stmt.item) {
            if entered.insert(name.clone()) {
                out.push(mov_abs(FID_SYMBOL.to_string(), isrfid_symbol(name)));
            }
            if matches!(insn, Insn::FormatII { op: Opcode::Reti, .. }) {
                out.push(mov_abs(isrfid_symbol(name), FID_SYMBOL.to_string()));
            }
        }
        out.stmts.push(stmt.clone());
    }
    out
}

/// Pass 1 body: returns the rewritten module and the number of rewritten
/// call sites.
fn rewrite_calls(
    module: &Module,
    ids: &BTreeMap<String, u16>,
    fns: &[program::FuncStmts],
) -> (Module, usize) {
    // Map statement index -> enclosing cacheable function name.
    let mut enclosing: Vec<Option<&str>> = vec![None; module.stmts.len()];
    for f in fns {
        if ids.contains_key(&f.name) {
            for slot in &mut enclosing[f.body.clone()] {
                *slot = Some(&f.name);
            }
        }
    }

    let mut out = Module::new();
    let mut call_sites = 0usize;
    for (i, stmt) in module.stmts.iter().enumerate() {
        let callee = match &stmt.item {
            Item::Insn(insn) => insn
                .call_target()
                .and_then(|e| e.as_symbol())
                .filter(|s| ids.contains_key(*s))
                .map(str::to_string),
            _ => None,
        };
        let Some(callee) = callee else {
            out.stmts.push(stmt.clone());
            continue;
        };
        call_sites += 1;
        let id = ids[&callee];
        let caller_act = enclosing[i].map(act_symbol);
        if let Some(act) = &caller_act {
            out.push(Item::Insn(Insn::FormatI {
                op: Opcode::Add,
                size: Size::Word,
                src: AsmOperand::Imm(Expr::num(1)),
                dst: AsmOperand::Absolute(Expr::sym(act)),
            }));
        }
        out.push(Item::Insn(Insn::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: AsmOperand::Imm(Expr::num(i64::from(id))),
            dst: AsmOperand::Absolute(Expr::sym(FID_SYMBOL)),
        }));
        out.stmts.push(Stmt {
            item: Item::Insn(Insn::FormatII {
                op: Opcode::Call,
                size: Size::Word,
                dst: AsmOperand::Absolute(Expr::sym(redir_symbol(&callee))),
            }),
            line: stmt.line,
        });
        if let Some(act) = &caller_act {
            out.push(Item::Insn(Insn::FormatI {
                op: Opcode::Sub,
                size: Size::Word,
                src: AsmOperand::Imm(Expr::num(1)),
                dst: AsmOperand::Absolute(Expr::sym(act)),
            }));
        }
    }
    (out, call_sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp430_asm::parser::parse;

    const SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x2ffe, sp
    call #main
    mov #0, &0x0102
    .endfunc
    .func main
main:
    mov #3, r12
    call #work
    ret
    .endfunc
    .func work
work:
    dec r12
    jnz work
    ret
    .endfunc
";

    fn cfg() -> (SwapConfig, LayoutConfig) {
        (SwapConfig::unified_fr2355(), LayoutConfig::new(0x4000, 0x9000))
    }

    #[test]
    fn assigns_ids_and_tables() {
        let m = parse(SRC).unwrap();
        let (sc, lc) = cfg();
        let inst = instrument(&m, &sc, &lc).unwrap();
        assert_eq!(inst.funcs.len(), 2, "__start is not cacheable");
        let main = inst.func_by_name("main").unwrap();
        let work = inst.func_by_name("work").unwrap();
        assert_ne!(main.id, work.id);
        assert_ne!(main.redir_addr, work.redir_addr);
        assert_eq!(inst.call_sites, 2);
        // Redirection words are initialised to the trap address.
        let img = &inst.assembly.image;
        let seg = img
            .segments
            .iter()
            .find(|s| s.addr == TABLES_BASE)
            .expect("metadata segment");
        let off = usize::from(main.redir_addr - TABLES_BASE);
        let w = u16::from(seg.bytes[off]) | (u16::from(seg.bytes[off + 1]) << 8);
        assert_eq!(w, TRAP_ADDR);
    }

    #[test]
    fn blacklisted_function_keeps_direct_call() {
        let m = parse(SRC).unwrap();
        let (sc, lc) = cfg();
        let sc = sc.with_blacklisted("work");
        let inst = instrument(&m, &sc, &lc).unwrap();
        assert!(inst.func_by_name("work").is_none());
        assert_eq!(inst.call_sites, 1, "only the call to main is rewritten");
        // The direct call to `work` survives in the final module.
        let direct_calls = inst
            .assembly
            .module
            .stmts
            .iter()
            .filter(|s| matches!(&s.item, Item::Insn(i) if i.call_target().is_some()))
            .count();
        assert_eq!(direct_calls, 1);
    }

    #[test]
    fn active_counter_instrumentation_only_in_cacheable_callers() {
        let m = parse(SRC).unwrap();
        let (sc, lc) = cfg();
        let inst = instrument(&m, &sc, &lc).unwrap();
        let asm_text = inst.assembly.module.to_asm();
        // main's call to work is bracketed by its own counter.
        assert!(asm_text.contains(&act_symbol("main")));
        // __start is not cacheable: its call to main has no counter ops.
        assert!(!asm_text.contains("__sr_act___start"));
    }

    #[test]
    fn far_branches_become_relocatable() {
        // A function with an internal jump forced out of PC-relative range.
        let src = "\
    .func __start
__start:
    mov #0x2ffe, sp
    call #big
    mov #0, &0x0102
    .endfunc
    .func big
big:
    tst r12
    jz big_end
    .space 0x900
    .align 2
big_end:
    ret
    .endfunc
";
        let m = parse(src).unwrap();
        let (sc, lc) = cfg();
        let inst = instrument(&m, &sc, &lc).unwrap();
        let big = inst.func_by_name("big").unwrap();
        assert_eq!(big.relocs.len(), 1, "the relaxed far jz must be relocified");
        let r = big.relocs[0];
        assert_eq!(u32::from(r.ofs), u32::from(big.size) - 2, "branch targets big_end (the ret)");
        // The reloc word is initialised to the FRAM target.
        let reloc_init = peek(&inst.assembly.image, r.reloc_addr);
        assert_eq!(reloc_init, big.fram_addr + r.ofs);
    }

    fn peek(img: &msp430_sim::mem::Image, addr: u16) -> u16 {
        // `Image::word_at` is the typed lookup; an uncovered address is an
        // assertable error here, not a panic in library code.
        img.word_at(addr).expect("test address must be covered by the image")
    }

    #[test]
    fn metadata_size_accounts_for_tables() {
        let m = parse(SRC).unwrap();
        let (sc, lc) = cfg();
        let inst = instrument(&m, &sc, &lc).unwrap();
        // fid word + 2 functions x (redir + act) = 5 words minimum.
        assert!(inst.metadata_bytes >= 10);
        assert!(inst.handler_bytes >= 972);
    }

    #[test]
    fn guard_words_cover_initial_metadata_state() {
        let m = parse(SRC).unwrap();
        let (sc, lc) = cfg();
        let inst = instrument(&m, &sc, &lc).unwrap();
        for f in &inst.funcs {
            let ga = f.guard_addr.expect("guards default on");
            let relocs: Vec<u16> = f.relocs.iter().map(|r| f.fram_addr + r.ofs).collect();
            assert_eq!(
                peek(&inst.assembly.image, ga),
                guard_value(TRAP_ADDR, &relocs),
                "guard init must match the uncached metadata state of `{}`",
                f.name
            );
        }
        // Disabling guards removes exactly one word per function.
        let off = instrument(&m, &sc.clone().with_guards(false), &lc).unwrap();
        assert!(off.funcs.iter().all(|f| f.guard_addr.is_none()));
        assert_eq!(off.metadata_bytes + 2 * inst.funcs.len() as u16, inst.metadata_bytes);
    }

    #[test]
    fn reserved_section_rejected() {
        let m = parse("    .section srtab\n    .word 0\n").unwrap();
        let (sc, lc) = cfg();
        assert!(instrument(&m, &sc, &lc).is_err());
    }

    const ISR_SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x2ffe, sp
    call #main
    mov #0, &0x0102
    .endfunc
    .func main
main:
    mov #3, r12
    call #work
    ret
    .endfunc
    .func work
work:
    dec r12
    jnz work
    ret
    .endfunc
    .func isr
isr:
    push r12
    call #work
    pop r12
    reti
    .endfunc
";

    #[test]
    fn isr_roots_excluded_and_veneered() {
        use crate::config::IsrProtocol;
        let m = parse(ISR_SRC).unwrap();
        let (sc, lc) = cfg();
        let sc = sc.with_isr_root("isr");
        assert_eq!(sc.isr_protocol, IsrProtocol::Masked);
        let inst = instrument(&m, &sc, &lc).unwrap();
        // The root is never cacheable — an interrupt vector needs a
        // stable FRAM target.
        assert!(inst.func_by_name("isr").is_none());
        // Its save slot exists and the veneers reference it.
        assert_eq!(inst.isr_slots.len(), 1);
        assert_eq!(inst.isr_slots[0].0, "isr");
        let slot = inst.isr_slots[0].1;
        assert!(slot >= TABLES_BASE, "slot lives in the metadata section");
        let asm_text = inst.assembly.module.to_asm();
        let sym = isrfid_symbol("isr");
        assert_eq!(
            asm_text.matches(sym.as_str()).count(),
            3,
            "label + save + restore references"
        );
        // The ISR's own instrumented call still publishes work's fid —
        // that is exactly the hazard the veneer closes.
        assert!(inst.call_sites >= 3);
    }

    #[test]
    fn unprotected_isr_root_keeps_hazard_window() {
        use crate::config::IsrProtocol;
        let m = parse(ISR_SRC).unwrap();
        let (sc, lc) = cfg();
        let sc = sc.with_isr_root("isr").with_isr_protocol(IsrProtocol::Unprotected);
        let inst = instrument(&m, &sc, &lc).unwrap();
        assert!(inst.func_by_name("isr").is_none(), "still never cached");
        assert!(inst.isr_slots.is_empty(), "no veneer under the paper's trust model");
        assert!(!inst.assembly.module.to_asm().contains("__sr_isrfid_"));
    }

    #[test]
    fn dirty_log_config_emits_journal() {
        let m = parse(SRC).unwrap();
        let (sc, lc) = cfg();
        let plain = instrument(&m, &sc, &lc).unwrap();
        assert!(plain.journal.is_none(), "FullScan default must not change the metadata layout");

        let sc = sc.with_recovery(RecoveryMode::DirtyLog);
        let inst = instrument(&m, &sc, &lc).unwrap();
        let j = inst.journal.expect("DirtyLog must emit a journal");
        assert_eq!(usize::from(j.capacity), inst.funcs.len(), "one slot per managed function");
        assert_eq!(peek(&inst.assembly.image, j.gen_addr), 1, "generation starts at 1");
        assert_eq!(peek(&inst.assembly.image, j.count_addr), 0, "log starts empty");
        // gen + count + capacity slots of extra persistent metadata.
        assert_eq!(inst.metadata_bytes, plain.metadata_bytes + 4 + 2 * j.capacity);
    }
}
