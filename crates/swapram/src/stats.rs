//! Runtime counters for cache behaviour analysis.

use std::fmt;
use std::ops::AddAssign;

/// Counters the SwapRAM runtime maintains across a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Miss-handler invocations.
    pub misses: u64,
    /// Functions copied into SRAM.
    pub fills: u64,
    /// Functions evicted to make room.
    pub evictions: u64,
    /// Caching aborted because a flagged function was on the call stack
    /// (the §3.3.3 fallback: execute the callee from FRAM).
    pub active_fallbacks: u64,
    /// Misses served from FRAM because eviction was frozen by the
    /// thrash detector.
    pub frozen_fallbacks: u64,
    /// Functions too large for the cache, permanently redirected to FRAM.
    pub too_large: u64,
    /// Times the thrash detector engaged an eviction freeze.
    pub freezes: u64,
    /// Bytes moved by the copy loop.
    pub bytes_copied: u64,
    /// Misses whose target was already cached (defensive re-chaining).
    pub rechains: u64,
    /// Misses degraded to FRAM execution by a typed runtime error (failed
    /// fill, full journal) instead of aborting the machine.
    pub degraded: u64,
    /// Boot-time crash recoveries performed.
    pub recoveries: u64,
    /// Functions whose metadata a recovery rewound to its FRAM home.
    pub recovered_functions: u64,
    /// Dirty-log journal appends (first-time caching events).
    pub journal_appends: u64,
    /// Recoveries that found a torn/stale journal and fell back to the
    /// full metadata scan.
    pub journal_fallbacks: u64,
    /// Guard verifications performed (per-miss target + victim checks,
    /// call-site cross-checks, recovery sweeps).
    pub guard_checks: u64,
    /// Corrupted metadata entries detected and rebuilt from the immutable
    /// FRAM image (ground truth).
    pub guard_repairs: u64,
    /// Misses degraded to FRAM execution because an integrity check made
    /// caching unsafe (e.g. an implausible active counter).
    pub guard_degraded: u64,
    /// Miss-handler preemption-point yields to a pending interrupt
    /// ([`crate::config::IsrProtocol::Unprotected`] only): the trapping
    /// call was re-armed and the handler returned so the ISR could run
    /// first.
    pub isr_yields: u64,
    /// Interrupt-boundary invariant audits performed (entry + return).
    pub boundary_checks: u64,
    /// Traps whose published function id disagreed with the stack's
    /// call-site operand and was repaired from it (an ISR clobbered
    /// `__sr_fid` in the publish window).
    pub fid_repairs: u64,
    /// Persistent-stack checkpoints committed (generation published).
    pub checkpoint_commits: u64,
    /// Checkpoint opportunities skipped (interval not elapsed, stack
    /// deeper than the slot capacity, or task table registered).
    pub checkpoint_skips: u64,
    /// Boots resumed from a committed checkpoint instead of replaying.
    pub resumes: u64,
    /// Checkpoint slots found torn (generation published but CRC or I/O
    /// journal tag bad) and rolled back at boot.
    pub torn_checkpoints: u64,
    /// Sisyphus-watchdog firings: transitions into degraded FRAM
    /// execution after consecutive zero-progress boots.
    pub watchdog_degradations: u64,
    /// Misses served from FRAM because the watchdog had degraded the
    /// runtime.
    pub watchdog_fallbacks: u64,
}

impl SwapStats {
    /// Creates zeroed counters.
    pub fn new() -> SwapStats {
        SwapStats::default()
    }

    /// Fraction of misses that fell back to FRAM execution.
    pub fn fallback_rate(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            (self.active_fallbacks + self.frozen_fallbacks) as f64 / self.misses as f64
        }
    }
}

impl AddAssign<&SwapStats> for SwapStats {
    /// Sums every counter, e.g. over the runtimes of successive boots.
    fn add_assign(&mut self, o: &SwapStats) {
        macro_rules! sum {
            ($($f:ident),*) => {{
                // Exhaustive, so a new counter cannot be left out.
                let SwapStats { $($f),* } = o;
                $(self.$f += $f;)*
            }};
        }
        sum!(
            misses, fills, evictions, active_fallbacks, frozen_fallbacks, too_large, freezes,
            bytes_copied, rechains, degraded, recoveries, recovered_functions, journal_appends,
            journal_fallbacks, guard_checks, guard_repairs, guard_degraded, isr_yields,
            boundary_checks, fid_repairs, checkpoint_commits, checkpoint_skips, resumes,
            torn_checkpoints, watchdog_degradations, watchdog_fallbacks
        );
    }
}

impl fmt::Display for SwapStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "misses {} (fills {}, evictions {}, active-fallbacks {}, frozen {}, too-large {}), {} bytes copied",
            self.misses,
            self.fills,
            self.evictions,
            self.active_fallbacks,
            self.frozen_fallbacks,
            self.too_large,
            self.bytes_copied
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_rate() {
        let mut s = SwapStats::new();
        assert_eq!(s.fallback_rate(), 0.0);
        s.misses = 10;
        s.active_fallbacks = 2;
        s.frozen_fallbacks = 3;
        assert!((s.fallback_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums_counters() {
        let mut a = SwapStats { misses: 1, watchdog_fallbacks: 2, ..SwapStats::new() };
        a += &SwapStats { misses: 3, resumes: 4, watchdog_fallbacks: 5, ..SwapStats::new() };
        assert_eq!(a, SwapStats { misses: 4, resumes: 4, watchdog_fallbacks: 7, ..SwapStats::new() });
    }
}
