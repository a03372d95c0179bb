//! Metadata consistency oracle for the SwapRAM runtime.
//!
//! The checker cross-validates the runtime's volatile view of the cache
//! (the entry queue) against the persistent FRAM metadata the application
//! actually branches through: redirection words, relocation words, static
//! offset words, active counters, and the dirty-log journal. A violation
//! means some call or branch could land somewhere other than a live copy
//! of its function — the wild-jump condition crash recovery exists to
//! prevent.
//!
//! The checker reads memory host-side (`peek`), so it charges nothing and
//! perturbs no statistics: it is a verification oracle, not modeled
//! runtime work. Enable it with
//! [`SwapConfig::check_invariants`](crate::config::SwapConfig); the
//! runtime then runs it after every serviced miss and every boot-time
//! recovery.
//!
//! Active counters are app-maintained and may conservatively *overcount*
//! after a dirty-log recovery (stale positive counts persist in FRAM and
//! only ever delay eviction, never permit it wrongly), so the checker
//! validates only that a counter never underflows past zero.

use crate::guards::{crc16, guard_value, plausible_act};
use crate::pass::ResumeArea;
use crate::runtime::SwapRuntime;
use crate::tables::TRAP_ADDR;
use msp430_sim::mem::Bus;

/// Validates every runtime/metadata consistency invariant.
///
/// # Errors
///
/// Returns a human-readable description of the first violation found.
pub fn check(rt: &SwapRuntime, bus: &Bus) -> Result<(), String> {
    check_queue(rt)?;
    check_functions(rt, bus)?;
    check_journal(rt, bus)?;
    check_task_table(rt, bus)?;
    check_resume(rt, bus)?;
    Ok(())
}

/// End-of-run audit for corruption experiments: everything [`check`]
/// validates, plus conditions that only hold at a quiescent halt — every
/// active counter is back to zero (balanced call nesting) and every cached
/// SRAM copy is byte-identical to its immutable FRAM original. A clean halt
/// that fails this audit executed through corrupted state even if its
/// output happened to look right.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn audit_final(rt: &SwapRuntime, bus: &Bus) -> Result<(), String> {
    check(rt, bus)?;
    for f in rt.func_records() {
        let act = bus.peek_word(f.act_addr);
        if act != 0 {
            return Err(format!("{}: active counter {act:#06x} nonzero at halt", f.name));
        }
    }
    for (id, addr, size) in rt.entries_snapshot() {
        let f = rt.func_record(id).ok_or_else(|| format!("unknown cached funcId {id}"))?;
        for i in 0..size {
            let got = bus.peek_byte(addr.wrapping_add(i));
            let want = bus.peek_byte(f.fram_addr.wrapping_add(i));
            if got != want {
                return Err(format!(
                    "{}: SRAM copy byte {:#06x} holds {got:#04x}, FRAM original has {want:#04x}",
                    f.name,
                    addr.wrapping_add(i)
                ));
            }
        }
    }
    Ok(())
}

/// Queue geometry: entries lie inside the cache region, do not overlap,
/// have unique ids, and sizes matching their function records; the tail
/// stays inside the region.
fn check_queue(rt: &SwapRuntime) -> Result<(), String> {
    let base = u32::from(rt.cfg.cache_base);
    let end = base + u32::from(rt.cfg.cache_size);
    let entries = rt.entries_snapshot();
    for (id, addr, size) in &entries {
        let lo = u32::from(*addr);
        let hi = lo + u32::from(*size);
        if lo < base || hi > end {
            return Err(format!(
                "entry f{id} [{lo:#06x},{hi:#06x}) outside cache [{base:#06x},{end:#06x})"
            ));
        }
        let f = rt
            .func_record(*id)
            .ok_or_else(|| format!("cached entry has unknown funcId {id}"))?;
        let span = (f.size + 1) & !1;
        if span != *size {
            return Err(format!("entry f{id} size {size} != function span {span}"));
        }
    }
    for (i, a) in entries.iter().enumerate() {
        for b in &entries[i + 1..] {
            if a.0 == b.0 {
                return Err(format!("funcId {} cached twice", a.0));
            }
            let (alo, ahi) = (u32::from(a.1), u32::from(a.1) + u32::from(a.2));
            let (blo, bhi) = (u32::from(b.1), u32::from(b.1) + u32::from(b.2));
            if alo < bhi && blo < ahi {
                return Err(format!("entries f{} and f{} overlap in SRAM", a.0, b.0));
            }
        }
    }
    let tail = u32::from(rt.tail());
    if tail < base || tail > end {
        return Err(format!("tail {tail:#06x} outside cache [{base:#06x},{end:#06x}]"));
    }
    Ok(())
}

/// Per-function metadata: a cached function's redirection word points at
/// its live SRAM copy and its relocation words at copy-relative targets; an
/// uncached function's point at the trap window and FRAM respectively (a
/// permanent FRAM redirect for too-large functions is also legal). Static
/// offset words must be untouched and active counters non-negative.
fn check_functions(rt: &SwapRuntime, bus: &Bus) -> Result<(), String> {
    let cached: std::collections::BTreeMap<u16, u16> =
        rt.entries_snapshot().iter().map(|(id, addr, _)| (*id, *addr)).collect();
    for f in rt.func_records() {
        let redir = bus.peek_word(f.redir_addr);
        let reloc_base = match cached.get(&f.id) {
            Some(place) => {
                if redir != *place {
                    return Err(format!(
                        "cached {}: redirection {redir:#06x} != SRAM copy {:#06x}",
                        f.name, place
                    ));
                }
                *place
            }
            None => {
                if redir != TRAP_ADDR && redir != f.fram_addr {
                    return Err(format!(
                        "uncached {}: redirection {redir:#06x} is neither trap {TRAP_ADDR:#06x} nor FRAM home {:#06x}",
                        f.name, f.fram_addr
                    ));
                }
                f.fram_addr
            }
        };
        let mut reloc_vals = Vec::with_capacity(f.relocs.len());
        for r in &f.relocs {
            let rofs = bus.peek_word(r.rofs_addr);
            if rofs != r.ofs {
                return Err(format!(
                    "{}: static offset word {:#06x} holds {rofs:#06x}, expected {:#06x}",
                    f.name, r.rofs_addr, r.ofs
                ));
            }
            let reloc = bus.peek_word(r.reloc_addr);
            let want = reloc_base.wrapping_add(r.ofs);
            if reloc != want {
                return Err(format!(
                    "{}: relocation word {:#06x} holds {reloc:#06x}, expected {want:#06x}",
                    f.name, r.reloc_addr
                ));
            }
            reloc_vals.push(reloc);
        }
        if let Some(ga) = f.guard_addr {
            let stored = bus.peek_word(ga);
            let want = guard_value(redir, &reloc_vals);
            if stored != want {
                return Err(format!(
                    "{}: guard word {:#06x} holds {stored:#06x}, expected {want:#06x}",
                    f.name, ga
                ));
            }
        }
        let act = bus.peek_word(f.act_addr);
        if act & 0x8000 != 0 {
            return Err(format!("{}: active counter underflowed ({act:#06x})", f.name));
        }
        if !plausible_act(act) {
            return Err(format!("{}: active counter implausible ({act:#06x})", f.name));
        }
    }
    // The funcId word is written before every instrumented call; it must
    // always index a real function record.
    let nfuncs = rt.func_records().len() as u16;
    let fid = bus.peek_word(rt.fid_addr());
    if nfuncs > 0 && fid >= nfuncs {
        return Err(format!("funcId word holds {fid}, only {nfuncs} functions exist"));
    }
    Ok(())
}

/// Registered task-control-block table: every saved stack pointer is
/// either zero (task not primed) or an even RAM address (SRAM or FRAM —
/// the unified memory profile parks stacks in FRAM). An odd or
/// out-of-RAM saved SP means the scheduler's context-save path corrupted
/// the slot, and the eviction scan that walks these stacks would read
/// garbage.
fn check_task_table(rt: &SwapRuntime, bus: &Bus) -> Result<(), String> {
    let Some((table, ntasks)) = rt.task_table() else {
        return Ok(());
    };
    for t in 0..ntasks {
        let sp = bus.peek_word(table.wrapping_add(2 * t));
        if sp == 0 {
            continue;
        }
        if sp & 1 != 0 {
            return Err(format!("task {t}: saved SP {sp:#06x} is odd"));
        }
        let region = bus.map().region_of(sp);
        if region != msp430_sim::mem::Region::Sram && region != msp430_sim::mem::Region::Fram {
            return Err(format!("task {t}: saved SP {sp:#06x} outside RAM"));
        }
    }
    Ok(())
}

/// Persistent-stack checkpoint slots: a slot whose generation word is
/// published (the commit's *last* write) must carry a plausible stack
/// length and a matching CRC. The two-phase commit only publishes after
/// the payload and CRC have landed, and the runtime never runs guest code
/// mid-commit, so any observable committed slot must verify — a mismatch
/// means corruption, not an in-flight commit. Unmarked slots are by
/// definition in-progress or rolled back and are not checked.
fn check_resume(rt: &SwapRuntime, bus: &Bus) -> Result<(), String> {
    let Some(ra) = rt.resume_area() else {
        return Ok(());
    };
    for s in 0..2usize {
        let tag = bus.peek_word(ra.word_addr(s, 0));
        if tag & ResumeArea::GEN_MARK == 0 {
            continue;
        }
        let len = bus.peek_word(ra.word_addr(s, ResumeArea::LEN_OFS));
        if len & 1 != 0 || len > ResumeArea::STACK_BYTES {
            return Err(format!(
                "checkpoint slot {s}: committed frame has implausible stack length {len}"
            ));
        }
        let n = ResumeArea::ACT_OFS - ResumeArea::LEN_OFS + ra.nfuncs + len / 2;
        let words = (0..n).map(|i| bus.peek_word(ra.word_addr(s, ResumeArea::LEN_OFS + i)));
        let want = crc16(words);
        let stored = bus.peek_word(ra.word_addr(s, ResumeArea::CRC_OFS));
        if stored != want {
            return Err(format!(
                "checkpoint slot {s}: committed frame CRC {stored:#06x} != computed {want:#06x}"
            ));
        }
    }
    Ok(())
}

/// Journal header and live entries: the count fits the capacity and every
/// entry below it carries the current generation tag and a real function
/// id.
fn check_journal(rt: &SwapRuntime, bus: &Bus) -> Result<(), String> {
    let Some(j) = rt.journal() else {
        return Ok(());
    };
    let count = bus.peek_word(j.count_addr);
    if count > j.capacity {
        return Err(format!("journal count {count} exceeds capacity {}", j.capacity));
    }
    let gen = bus.peek_word(j.gen_addr);
    let nfuncs = rt.func_records().len() as u16;
    for i in 0..count {
        let entry = bus.peek_word(j.slots_addr + 2 * i);
        match crate::runtime::journal_entry_fid(entry, gen, nfuncs) {
            Some(_) => {}
            None => {
                return Err(format!(
                    "journal slot {i} holds {entry:#06x}, invalid for generation {gen}"
                ))
            }
        }
    }
    Ok(())
}
