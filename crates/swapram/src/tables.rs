//! Naming scheme for the metadata symbols the static pass emits.
//!
//! All SwapRAM metadata lives in a dedicated FRAM section so Figure 7's
//! "Metadata" accounting falls straight out of the section table.

/// Name of the metadata section.
pub const TABLES_SECTION: &str = "srtab";

/// FRAM base address of the metadata section.
pub const TABLES_BASE: u16 = 0xB000;

/// Trap-window address every redirection word initially points at: a
/// call through an uncached function's word lands in the miss handler.
pub const TRAP_ADDR: u16 = 0x0F00;

/// Symbol of the global `funcId` word written before each indirect call.
pub const FID_SYMBOL: &str = "__sr_fid";

/// Symbol of a function's redirection word.
pub fn redir_symbol(func: &str) -> String {
    format!("__sr_redir_{func}")
}

/// Symbol of a function's active counter.
pub fn act_symbol(func: &str) -> String {
    format!("__sr_act_{func}")
}

/// Symbol of relocation word `k` (runtime-written branch target).
pub fn reloc_symbol(k: usize) -> String {
    format!("__sr_reloc_{k}")
}

/// Symbol of the static offset word for relocation `k`.
pub fn rofs_symbol(k: usize) -> String {
    format!("__sr_rofs_{k}")
}

/// Symbol of a function's metadata CRC guard word (see [`crate::guards`]).
pub fn guard_symbol(func: &str) -> String {
    format!("__sr_guard_{func}")
}

/// Symbol of an ISR root's `__sr_fid` save slot: the entry veneer parks
/// the interrupted program's published function id here and the exit
/// veneer restores it (see [`crate::config::IsrProtocol::Masked`]).
pub fn isrfid_symbol(func: &str) -> String {
    format!("__sr_isrfid_{func}")
}

/// Name of the persistent-stack resume section (checkpoint slots +
/// watchdog words), emitted above the handler window so the metadata
/// tables' Figure-7 accounting is unchanged.
pub const RESUME_SECTION: &str = "srres";

/// FRAM base address of the resume section, just above the miss
/// handler's window.
pub const RESUME_BASE: u16 = 0xBC00;

/// Exclusive top of the application stack (the address the entry stub
/// loads into SP, rounded up to a word): a persistent-stack checkpoint
/// saves `[SP, STACK_TOP)`.
pub const STACK_TOP: u16 = 0xA000;

/// Symbol of checkpoint slot `i` (two slots, double-buffered).
pub fn resume_slot_symbol(i: usize) -> String {
    format!("__sr_resume{i}")
}

/// Symbol of the Sisyphus watchdog block: four persistent words — boot
/// count, last resumed checkpoint state fingerprint, consecutive
/// zero-progress boots, degraded flag.
pub const WATCHDOG_SYMBOL: &str = "__sr_wdog";

/// Symbol of the persistent recovery-generation word (dirty-log recovery).
pub const GEN_SYMBOL: &str = "__sr_gen";

/// Symbol of the dirty-log entry count word.
pub const DIRTY_COUNT_SYMBOL: &str = "__sr_dirty_n";

/// Symbol of the first dirty-log slot (slots are contiguous words).
pub const DIRTY_SLOTS_SYMBOL: &str = "__sr_dirty";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_are_distinct() {
        assert_ne!(redir_symbol("f"), act_symbol("f"));
        assert_ne!(reloc_symbol(1), rofs_symbol(1));
        assert_ne!(reloc_symbol(1), reloc_symbol(2));
        assert_ne!(guard_symbol("f"), redir_symbol("f"));
        assert_ne!(isrfid_symbol("f"), act_symbol("f"));
    }
}
