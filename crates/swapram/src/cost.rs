//! Cost model for the hybrid runtime (see DESIGN.md §5).
//!
//! The paper's miss handler is C code executing from FRAM. In this
//! reproduction its *memory traffic* (metadata reads, redirection/reloc
//! writes, the function copy) goes through the simulated bus and is counted
//! exactly; its *instruction execution* is charged from this model, with
//! the handler's own instruction fetches replayed against the bus inside a
//! dedicated FRAM window so they contend for the hardware read cache and
//! pay wait states like the real handler would.
//!
//! [`COST`] is the one table the runtime reads. Its values are derived by
//! hand-counting the MSP430 instruction sequences each handler step needs
//! (register save/restore, table lookup, queue bookkeeping, per-reloc
//! address arithmetic, the copy loop) and are deliberately on the
//! conservative (expensive) side.

/// Per-operation instruction/cycle charges for the miss handler; the
/// values in use are [`COST`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Handler entry: save R12–R15 (the platform argument registers, §3.3),
    /// load `funcId`, index the function-info table.
    pub entry_instrs: u64,
    /// Cycles for handler entry.
    pub entry_cycles: u64,
    /// Per cached function inspected while flagging eviction candidates.
    pub scan_instrs: u64,
    /// Cycles per flagged-candidate scan step.
    pub scan_cycles: u64,
    /// Per evicted function: queue update, redirection reset.
    pub evict_instrs: u64,
    /// Cycles per eviction.
    pub evict_cycles: u64,
    /// Per relocation entry written or reset.
    pub reloc_instrs: u64,
    /// Cycles per relocation entry.
    pub reloc_cycles: u64,
    /// Per word copied by `memcpy` (load, store, pointer bump, loop test).
    pub copy_word_instrs: u64,
    /// Cycles per copied word, excluding the bus-counted accesses' stalls.
    pub copy_word_cycles: u64,
    /// Handler exit: restore argument registers and branch to the target.
    pub exit_instrs: u64,
    /// Cycles for handler exit.
    pub exit_cycles: u64,
    /// Boot-time recovery entry: read the journal header / set up the
    /// metadata sweep.
    pub recover_base_instrs: u64,
    /// Cycles for recovery entry.
    pub recover_base_cycles: u64,
    /// Per function inspected or rewound during recovery (redirection
    /// reset and active-counter clear; relocation words reuse the
    /// per-reloc charge).
    pub recover_func_instrs: u64,
    /// Cycles per recovered function.
    pub recover_func_cycles: u64,
    /// Per dirty-log append (read header, write slot, bump count).
    pub journal_append_instrs: u64,
    /// Cycles per dirty-log append.
    pub journal_append_cycles: u64,
    /// Fixed part of a guard check/update: load the stored guard word,
    /// initialise the CRC accumulator, compare or store.
    pub guard_base_instrs: u64,
    /// Cycles for the fixed guard part.
    pub guard_base_cycles: u64,
    /// Per metadata word folded into the CRC (table-less bitwise
    /// CRC-16/CCITT: 16 shift/xor rounds per word, hand-counted).
    pub guard_word_instrs: u64,
    /// Cycles per CRC'd metadata word.
    pub guard_word_cycles: u64,
    /// Fixed part of a persistent-stack checkpoint commit: read the slot
    /// header, save the register file, publish the generation word, and
    /// journal the I/O-port state.
    pub checkpoint_base_instrs: u64,
    /// Cycles for the fixed checkpoint part.
    pub checkpoint_base_cycles: u64,
    /// Per word copied into the checkpoint slot (stack window, active
    /// counters) — the CRC fold is charged separately via the guard-word
    /// rates.
    pub checkpoint_word_instrs: u64,
    /// Cycles per checkpointed word.
    pub checkpoint_word_cycles: u64,
    /// Boot-time watchdog bookkeeping: read and rewrite the four
    /// persistent watchdog words.
    pub watchdog_instrs: u64,
    /// Cycles for watchdog bookkeeping.
    pub watchdog_cycles: u64,
}

/// The FR2355 charges the runtime applies (hand-counted MSP430 sequences).
pub const COST: CostModel = CostModel {
    entry_instrs: 14,
    entry_cycles: 36,
    scan_instrs: 6,
    scan_cycles: 14,
    evict_instrs: 10,
    evict_cycles: 26,
    reloc_instrs: 5,
    reloc_cycles: 13,
    copy_word_instrs: 3,
    copy_word_cycles: 6,
    exit_instrs: 8,
    exit_cycles: 22,
    recover_base_instrs: 12,
    recover_base_cycles: 30,
    recover_func_instrs: 8,
    recover_func_cycles: 20,
    journal_append_instrs: 6,
    journal_append_cycles: 16,
    guard_base_instrs: 5,
    guard_base_cycles: 12,
    guard_word_instrs: 18,
    guard_word_cycles: 40,
    checkpoint_base_instrs: 24,
    checkpoint_base_cycles: 60,
    checkpoint_word_instrs: 3,
    checkpoint_word_cycles: 6,
    watchdog_instrs: 10,
    watchdog_cycles: 26,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_nonzero() {
        let c = COST;
        assert!(c.entry_cycles >= c.entry_instrs);
        assert!(c.copy_word_cycles >= c.copy_word_instrs);
        assert!(c.exit_cycles > 0);
        assert!(c.guard_word_cycles >= c.guard_word_instrs);
    }
}
