//! SwapRAM configuration: cache region, replacement policy, blacklist.

use msp430_sim::mem::MemoryMap;
use std::collections::BTreeSet;

/// Replacement / placement policy for the software cache (paper §3.4 and
/// the "future work" extensions of §5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's proof-of-concept design: a circular queue giving
    /// least-recently-cached replacement.
    CircularQueue,
    /// A stack (most-recently-cached replacement) — the counterproductive
    /// alternative §3.4 discusses; provided for the ablation benches.
    Stack,
    /// Circular queue augmented with a cost function that prefers evicting
    /// small, cheap-to-recache functions (a §3.4 "more sophisticated data
    /// structure" extension).
    PriorityCost,
    /// Circular queue plus thrash detection: when recently evicted
    /// functions keep returning, eviction is temporarily frozen and misses
    /// fall back to FRAM execution (the §5.4 anti-thrashing extension
    /// suggested by the AES result).
    FreezeOnThrash,
}

/// How the runtime repairs FRAM-resident metadata after a power loss.
///
/// After a reboot the SRAM cache contents are gone, but the redirection
/// and relocation words in FRAM may still point into the vanished cache —
/// the wild-jump hazard a crash-consistent runtime must close before the
/// application executes its first instrumented call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Boot-time sweep over every function's metadata: rewind any
    /// redirection word pointing into SRAM back to the trap address,
    /// reset relocation words to their FRAM targets, clear active
    /// counters. O(functions) reads, O(dirty) writes. Always available.
    FullScan,
    /// Generation-tagged write-ahead dirty log: the miss handler appends
    /// a function id to a persistent journal *before* its first metadata
    /// write, so recovery rewinds only the logged set — O(dirty) — and
    /// validates each entry's generation tag, falling back to
    /// [`RecoveryMode::FullScan`] on a torn or stale log. Requires the
    /// static pass to emit the journal words (≤ 256 functions).
    DirtyLog,
    /// Intermittent-computing mode: besides the [`RecoveryMode::FullScan`]
    /// metadata sweep, the runtime checkpoints the *execution state* — the
    /// register file, the FRAM-resident call stack, the `__sr_fid` word,
    /// and every active counter — into a generation-tagged, double-buffered
    /// resume frame in FRAM at function-call boundaries (two-phase commit:
    /// the generation word is published last, so a torn checkpoint is
    /// always detected by its CRC and rolled back to the previous frame).
    /// After a power loss the machine resumes mid-computation instead of
    /// replaying from `main`. A persistent boot-loop watchdog counts
    /// consecutive boots without checkpoint progress (the Sisyphus
    /// condition) and degrades to FRAM execution rather than livelocking.
    /// Requires the unified profile (call stack in FRAM) and no preemptive
    /// task table.
    PersistentStack,
}

/// Critical-section policy for the runtime's metadata updates when timer
/// interrupts are armed (see the concurrency campaign).
///
/// The hazard: instrumented call sites publish the callee's function id
/// through the shared `__sr_fid` word in the two-instruction window
/// `MOV #fid, &__sr_fid; CALL &redir`. An ISR that performs its own
/// instrumented call inside that window clobbers the id, so the
/// interrupted call traps with the *ISR's* id. Similarly, a preempting
/// ISR may miss and evict while the runtime itself is mid-eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsrProtocol {
    /// Reentrancy-hardened: ISR entry/exit veneers save and restore the
    /// shared `__sr_fid` word, the miss handler runs to completion before
    /// a pending interrupt is delivered (trap-window deferral models
    /// interrupt masking across the critical section), and eviction also
    /// honours return addresses on *suspended* task stacks.
    Masked,
    /// The paper's trust model: no veneers, and the miss handler yields
    /// to pending interrupts at its preemption points — reproducing the
    /// unprotected metadata-update windows a real interrupt-oblivious
    /// deployment would have. Hazards are detected (guards/sanitizer/
    /// oracle), not prevented.
    Unprotected,
}

/// Configuration for the static pass and runtime. The FR2355 layout both
/// share is fixed, not configured: [`crate::TRAP_ADDR`],
/// [`crate::TABLES_BASE`], [`crate::HANDLER_CODE_BASE`],
/// [`crate::RESUME_BASE`] and [`crate::STACK_TOP`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapConfig {
    /// First SRAM address of the function cache.
    pub cache_base: u16,
    /// Size of the function cache in bytes.
    pub cache_size: u16,
    /// Replacement policy.
    pub policy: PolicyKind,
    /// Functions excluded from caching (§3.1's blacklist interface);
    /// their call sites keep direct `CALL #f` instructions.
    pub blacklist: BTreeSet<String>,
    /// Boot-time crash-recovery protocol.
    pub recovery: RecoveryMode,
    /// Run the metadata invariant checker after every serviced miss and
    /// recovery (host-side verification oracle; off in measurement runs).
    pub check_invariants: bool,
    /// Emit and maintain per-function CRC guard words over the
    /// runtime-mutable metadata (redirection + relocation words), verify
    /// them on every miss, and repair corrupted entries from the immutable
    /// FRAM image. Costs one FRAM word per function plus the
    /// [`crate::Step::Guard`] charges per miss.
    pub guards: bool,
    /// Critical-section policy under timer interrupts.
    pub isr_protocol: IsrProtocol,
    /// Functions that are interrupt-service-routine roots (vector
    /// targets). They are never cached — an interrupt must vector to a
    /// stable FRAM address — and under [`IsrProtocol::Masked`] the pass
    /// wraps them in `__sr_fid` save/restore veneers.
    pub isr_roots: BTreeSet<String>,
    /// Build the benchmark with the periodic interrupt harness: link the
    /// ISR workload module and enable interrupts around `main` (see
    /// `mibench`'s builder). Off for the plain single-threaded figures.
    pub irq_harness: bool,
    /// Minimum cycles between committed checkpoints: call-boundary
    /// checkpoint opportunities within this window are skipped so commit
    /// cost stays a bounded fraction of execution.
    pub checkpoint_interval: u64,
    /// Consecutive boots without a new committed checkpoint before the
    /// Sisyphus watchdog declares a livelock and degrades the runtime to
    /// FRAM execution (the persistent flag clears on the next commit).
    pub watchdog_boots: u16,
}

impl SwapConfig {
    /// The paper's primary configuration on the FR2355: the whole 4 KiB
    /// SRAM is the code cache (unified-memory mode — program data lives in
    /// FRAM).
    pub fn unified_fr2355() -> SwapConfig {
        SwapConfig::split_fr2355(0)
    }

    /// Split-SRAM configuration (paper §5.5): the low `data_bytes` of SRAM
    /// hold program data and the rest is the code cache.
    pub fn split_fr2355(data_bytes: u16) -> SwapConfig {
        let (_, cache) = MemoryMap::fr2355().split_sram(data_bytes);
        SwapConfig {
            cache_base: cache.start,
            cache_size: cache.len() as u16,
            policy: PolicyKind::CircularQueue,
            blacklist: BTreeSet::new(),
            recovery: RecoveryMode::FullScan,
            check_invariants: false,
            guards: true,
            isr_protocol: IsrProtocol::Masked,
            isr_roots: BTreeSet::new(),
            irq_harness: false,
            checkpoint_interval: 2_000,
            watchdog_boots: 4,
        }
    }

    /// Sets the replacement policy (builder style).
    pub fn with_policy(mut self, policy: PolicyKind) -> SwapConfig {
        self.policy = policy;
        self
    }

    /// Adds a function to the blacklist (builder style).
    pub fn with_blacklisted(mut self, name: &str) -> SwapConfig {
        self.blacklist.insert(name.to_string());
        self
    }

    /// Sets the crash-recovery protocol (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryMode) -> SwapConfig {
        self.recovery = recovery;
        self
    }

    /// Enables or disables the per-miss invariant checker (builder style).
    pub fn with_invariant_checks(mut self, on: bool) -> SwapConfig {
        self.check_invariants = on;
        self
    }

    /// Enables or disables metadata CRC guards (builder style). On by
    /// default; turning them off reproduces the paper's unguarded tables.
    pub fn with_guards(mut self, on: bool) -> SwapConfig {
        self.guards = on;
        self
    }

    /// Sets the critical-section policy under interrupts (builder style).
    pub fn with_isr_protocol(mut self, protocol: IsrProtocol) -> SwapConfig {
        self.isr_protocol = protocol;
        self
    }

    /// Marks a function as an ISR root (builder style): excluded from
    /// caching and veneered under [`IsrProtocol::Masked`].
    pub fn with_isr_root(mut self, name: &str) -> SwapConfig {
        self.isr_roots.insert(name.to_string());
        self
    }

    /// Enables or disables the periodic interrupt harness (builder style).
    pub fn with_irq_harness(mut self, on: bool) -> SwapConfig {
        self.irq_harness = on;
        self
    }

    /// Sets the minimum cycle spacing between committed checkpoints
    /// (builder style; [`RecoveryMode::PersistentStack`] only).
    pub fn with_checkpoint_interval(mut self, cycles: u64) -> SwapConfig {
        self.checkpoint_interval = cycles;
        self
    }

    /// Sets the Sisyphus watchdog threshold: consecutive zero-progress
    /// boots before degrading to FRAM execution (builder style).
    pub fn with_watchdog_boots(mut self, boots: u16) -> SwapConfig {
        self.watchdog_boots = boots.max(1);
        self
    }
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig::unified_fr2355()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_uses_whole_sram() {
        let c = SwapConfig::unified_fr2355();
        assert_eq!(c.cache_base, 0x2000);
        assert_eq!(c.cache_size, 0x1000);
    }

    #[test]
    fn split_reserves_data() {
        let c = SwapConfig::split_fr2355(0x400);
        assert_eq!(c.cache_base, 0x2400);
        assert_eq!(c.cache_size, 0xC00);
    }

    #[test]
    fn builders() {
        let c = SwapConfig::unified_fr2355()
            .with_policy(PolicyKind::Stack)
            .with_blacklisted("isr")
            .with_recovery(RecoveryMode::DirtyLog)
            .with_invariant_checks(true);
        assert_eq!(c.policy, PolicyKind::Stack);
        assert!(c.blacklist.contains("isr"));
        assert_eq!(c.recovery, RecoveryMode::DirtyLog);
        assert!(c.check_invariants);
    }

    #[test]
    fn defaults_keep_legacy_behavior() {
        let c = SwapConfig::unified_fr2355();
        assert_eq!(c.recovery, RecoveryMode::FullScan);
        assert!(!c.check_invariants);
        assert!(c.guards, "metadata guards default on");
        assert!(!c.with_guards(false).guards);
    }

    #[test]
    fn isr_defaults_and_builders() {
        let c = SwapConfig::unified_fr2355();
        assert_eq!(c.isr_protocol, IsrProtocol::Masked);
        assert!(c.isr_roots.is_empty());
        assert!(!c.irq_harness);
        let c = c
            .with_isr_protocol(IsrProtocol::Unprotected)
            .with_isr_root("__isr_entry")
            .with_irq_harness(true);
        assert_eq!(c.isr_protocol, IsrProtocol::Unprotected);
        assert!(c.isr_roots.contains("__isr_entry"));
        assert!(c.irq_harness);
    }
}
