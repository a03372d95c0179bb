//! Cost model for the hybrid runtime (see DESIGN.md §5).
//!
//! The paper's miss handler is C code executing from FRAM. In this
//! reproduction its *memory traffic* (metadata reads, redirection/reloc
//! writes, the function copy) goes through the simulated bus and is counted
//! exactly; its *instruction execution* is charged per [`Step`], with the
//! handler's own instruction fetches replayed against the bus inside a
//! dedicated FRAM window so they contend for the hardware read cache and
//! pay wait states like the real handler would.
//!
//! [`Step::cost`] is the one price list the runtime reads. Its values are
//! derived by hand-counting the MSP430 instruction sequences each handler
//! step needs (register save/restore, table lookup, queue bookkeeping,
//! per-reloc address arithmetic, the copy loop) and are deliberately on
//! the conservative (expensive) side.

use msp430_sim::trace::Category;

/// One priced step of the miss handler, recovery or checkpoint code. A
/// step whose price scales carries its own count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Handler entry: save R12–R15 (the platform argument registers, §3.3),
    /// load `funcId`, index the function-info table.
    Entry,
    /// Cached functions inspected while flagging eviction candidates or
    /// sweeping metadata.
    Scan {
        /// Functions inspected.
        entries: u64,
    },
    /// One evicted function: queue update, redirection reset, and its
    /// relocation entries reset at the [`Step::Reloc`] price.
    Evict {
        /// Relocation entries reset.
        relocs: u64,
    },
    /// Relocation entries written after a fill.
    Reloc {
        /// Relocation entries written.
        relocs: u64,
    },
    /// Words copied by `memcpy` (load, store, pointer bump, loop test);
    /// the accesses' stalls are bus-counted.
    CopyWord {
        /// Words copied.
        words: u64,
    },
    /// Handler exit: restore argument registers and branch to the target.
    Exit,
    /// Boot-time recovery entry: read the journal header / set up the
    /// metadata sweep.
    RecoverBase,
    /// One function rewound during recovery: redirection reset and
    /// active-counter clear, plus its relocation words at the
    /// [`Step::Reloc`] price.
    RecoverFunc {
        /// Relocation entries reset.
        relocs: u64,
    },
    /// One dirty-log append (read header, write slot, bump count).
    JournalAppend,
    /// A guard check or update: load the stored guard word, initialise
    /// the CRC accumulator, compare or store, then fold each covered
    /// metadata word into the CRC (table-less bitwise CRC-16/CCITT: 16
    /// shift/xor rounds per word, hand-counted).
    Guard {
        /// Metadata words folded into the CRC.
        words: u64,
    },
    /// A persistent-stack checkpoint commit, validation or restore: read
    /// the slot header, save the register file, publish the generation
    /// word and journal the I/O-port state, then copy each slot word
    /// (stack window, active counters).
    Checkpoint {
        /// Slot words copied.
        words: u64,
    },
    /// Boot-time watchdog bookkeeping: read and rewrite the four
    /// persistent watchdog words.
    Watchdog,
    /// A scan of stack words for return addresses into an eviction
    /// victim (the live stack, or the suspended task stacks and their
    /// task-table words), priced as a two-instruction, four-cycle setup
    /// plus one instruction per two words and one cycle per word. The
    /// word reads themselves are bus-counted.
    StackScan {
        /// Stack and task-table words read.
        words: u64,
    },
}

/// The sum of two `(instrs, cycles)` prices.
const fn plus(a: (u64, u64), b: (u64, u64)) -> (u64, u64) {
    (a.0 + b.0, a.1 + b.1)
}

impl Step {
    /// The step's `(instructions, cycles)` on the FR2355 (hand-counted
    /// MSP430 sequences).
    pub const fn cost(self) -> (u64, u64) {
        match self {
            Step::Entry => (14, 36),
            Step::Scan { entries } => (6 * entries, 14 * entries),
            Step::Evict { relocs } => plus((10, 26), Step::Reloc { relocs }.cost()),
            Step::Reloc { relocs } => (5 * relocs, 13 * relocs),
            Step::CopyWord { words } => (3 * words, 6 * words),
            Step::Exit => (8, 22),
            Step::RecoverBase => (12, 30),
            Step::RecoverFunc { relocs } => plus((8, 20), Step::Reloc { relocs }.cost()),
            Step::JournalAppend => (6, 16),
            Step::Guard { words } => (5 + 18 * words, 12 + 40 * words),
            Step::Checkpoint { words } => (24 + 3 * words, 60 + 6 * words),
            Step::Watchdog => (10, 26),
            Step::StackScan { words } => (2 + words / 2, 4 + words),
        }
    }

    /// The Figure-8 series the step's instructions count toward.
    pub fn category(self) -> Category {
        match self {
            Step::CopyWord { .. } => Category::Memcpy,
            _ => Category::MissHandler,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_takes_at_least_a_cycle_per_instruction() {
        for n in [0, 1, 64] {
            let steps = [
                Step::Entry,
                Step::Scan { entries: n },
                Step::Evict { relocs: n },
                Step::Reloc { relocs: n },
                Step::CopyWord { words: n },
                Step::Exit,
                Step::RecoverBase,
                Step::RecoverFunc { relocs: n },
                Step::JournalAppend,
                Step::Guard { words: n },
                Step::Checkpoint { words: n },
                Step::Watchdog,
                Step::StackScan { words: n },
            ];
            for step in steps {
                let (instrs, cycles) = step.cost();
                assert!(cycles >= instrs, "{step:?}: {instrs} instructions in {cycles} cycles");
            }
        }
    }
}
