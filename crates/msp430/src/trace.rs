//! Execution statistics: memory-access counts, cycle counters and dynamic
//! instruction attribution.
//!
//! This module plays the role of the paper's modified `mspdebug` simulator
//! (§4): every memory access is categorised by region (FRAM/SRAM) and kind
//! (instruction fetch, data read, data write), and every executed
//! instruction is attributed to a [`Category`] so the dynamic-instruction
//! breakdown of Figure 8 (application code from FRAM, application code from
//! SRAM, miss handler, `memcpy`) can be regenerated.

use std::fmt;

/// Attribution class for executed instructions (the series of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Application code fetched from FRAM.
    AppFram,
    /// Application code fetched from SRAM (i.e. executing out of the
    /// software cache).
    AppSram,
    /// Cache-management runtime (SwapRAM or block-cache miss handler).
    MissHandler,
    /// The function/block copy loop moving code into SRAM.
    Memcpy,
}

impl Category {
    /// All categories, in Figure-8 order.
    pub const ALL: [Category; 4] =
        [Category::AppFram, Category::AppSram, Category::MissHandler, Category::Memcpy];

    /// Index into per-category arrays.
    pub fn index(self) -> usize {
        match self {
            Category::AppFram => 0,
            Category::AppSram => 1,
            Category::MissHandler => 2,
            Category::Memcpy => 3,
        }
    }

    /// Display label matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            Category::AppFram => "app (FRAM)",
            Category::AppSram => "app (SRAM)",
            Category::MissHandler => "miss handler",
            Category::Memcpy => "memcpy",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-region, per-kind access counters plus cycle and instruction counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Instruction fetches served by FRAM.
    pub fram_ifetch: u64,
    /// Data reads served by FRAM.
    pub fram_read: u64,
    /// Data writes to FRAM.
    pub fram_write: u64,
    /// Instruction fetches served by SRAM.
    pub sram_ifetch: u64,
    /// Data reads served by SRAM.
    pub sram_read: u64,
    /// Data writes to SRAM.
    pub sram_write: u64,
    /// Accesses to memory-mapped I/O.
    pub mmio_accesses: u64,
    /// Instruction-table cycles (no stalls) — the paper's "unstalled
    /// cycles" of Table 2, including modeled runtime effort.
    pub unstalled_cycles: u64,
    /// Stall cycles from FRAM wait states on hardware-cache misses.
    pub wait_cycles: u64,
    /// Stall cycles from same-instruction FRAM line contention (§2.2).
    pub contention_cycles: u64,
    /// Hardware read-cache hits.
    pub hw_cache_hits: u64,
    /// Hardware read-cache misses.
    pub hw_cache_misses: u64,
    /// Timer interrupts delivered to the CPU.
    pub irq_delivered: u64,
    /// Timer fires coalesced into an already-pending request (no separate
    /// delivery of their own).
    pub irq_coalesced: u64,
    /// Cycles spent in the hardware interrupt entry sequence (6 per
    /// delivery on the MSP430), already included in `unstalled_cycles`.
    pub irq_latency_cycles: u64,
    /// Executed instructions per attribution category.
    pub instructions: [u64; 4],
}

impl Stats {
    /// Creates zeroed statistics.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Total FRAM accesses of any kind — the metric of Table 2's top half.
    pub fn fram_accesses(&self) -> u64 {
        self.fram_ifetch + self.fram_read + self.fram_write
    }

    /// Total SRAM accesses of any kind.
    pub fn sram_accesses(&self) -> u64 {
        self.sram_ifetch + self.sram_read + self.sram_write
    }

    /// Total accesses to code space (instruction fetches from both
    /// memories) — numerator of Table 1's code/data access ratio.
    pub fn code_accesses(&self) -> u64 {
        self.fram_ifetch + self.sram_ifetch
    }

    /// Total accesses to data space (reads and writes from both memories) —
    /// denominator of Table 1's code/data access ratio.
    pub fn data_accesses(&self) -> u64 {
        self.fram_read + self.fram_write + self.sram_read + self.sram_write
    }

    /// Code-to-data access ratio (Table 1). `None` when no data accesses
    /// occurred.
    pub fn code_data_ratio(&self) -> Option<f64> {
        let d = self.data_accesses();
        if d == 0 {
            None
        } else {
            Some(self.code_accesses() as f64 / d as f64)
        }
    }

    /// Total cycles to completion including all stalls — what a wall-clock
    /// runtime measurement on the physical board observes.
    pub fn total_cycles(&self) -> u64 {
        self.unstalled_cycles + self.wait_cycles + self.contention_cycles
    }

    /// Total executed instructions across all categories.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.iter().sum()
    }

    /// Executed instructions in `cat`.
    pub fn instructions_in(&self, cat: Category) -> u64 {
        self.instructions[cat.index()]
    }

    /// Records a dynamically executed instruction in `cat`.
    pub fn count_instruction(&mut self, cat: Category) {
        self.instructions[cat.index()] += 1;
    }

    /// Charges modeled runtime work: `instrs` executed instructions and
    /// `cycles` unstalled cycles attributed to `cat`.
    ///
    /// Used by the hybrid runtime model (see DESIGN.md §5): the miss
    /// handler's memory traffic goes through the bus like any other access,
    /// while its instruction-execution effort is charged here.
    pub fn charge_modeled(&mut self, cat: Category, instrs: u64, cycles: u64) {
        self.instructions[cat.index()] += instrs;
        self.unstalled_cycles += cycles;
    }

    /// Adds `k` more copies of everything counted since `start`: the
    /// statistics of `k` further iterations of a loop whose iteration
    /// began at `start` and ended here, when every iteration is an exact
    /// replica (see [`crate::blockcache::BlockEngine::step_batched`]).
    /// The destructure is exhaustive, so a new counter cannot be left
    /// unscaled.
    pub fn repeat_since(&mut self, start: &Stats, k: u64) {
        let Stats {
            fram_ifetch,
            fram_read,
            fram_write,
            sram_ifetch,
            sram_read,
            sram_write,
            mmio_accesses,
            unstalled_cycles,
            wait_cycles,
            contention_cycles,
            hw_cache_hits,
            hw_cache_misses,
            irq_delivered,
            irq_coalesced,
            irq_latency_cycles,
            instructions,
        } = self;
        let repeat = |now: &mut u64, then: u64| *now += k * (*now - then);
        repeat(fram_ifetch, start.fram_ifetch);
        repeat(fram_read, start.fram_read);
        repeat(fram_write, start.fram_write);
        repeat(sram_ifetch, start.sram_ifetch);
        repeat(sram_read, start.sram_read);
        repeat(sram_write, start.sram_write);
        repeat(mmio_accesses, start.mmio_accesses);
        repeat(unstalled_cycles, start.unstalled_cycles);
        repeat(wait_cycles, start.wait_cycles);
        repeat(contention_cycles, start.contention_cycles);
        repeat(hw_cache_hits, start.hw_cache_hits);
        repeat(hw_cache_misses, start.hw_cache_misses);
        repeat(irq_delivered, start.irq_delivered);
        repeat(irq_coalesced, start.irq_coalesced);
        repeat(irq_latency_cycles, start.irq_latency_cycles);
        for (now, then) in instructions.iter_mut().zip(start.instructions) {
            repeat(now, then);
        }
    }

    /// Hardware-cache hit rate over FRAM reads, or `None` if there were no
    /// cacheable accesses.
    pub fn hw_cache_hit_rate(&self) -> Option<f64> {
        let total = self.hw_cache_hits + self.hw_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.hw_cache_hits as f64 / total as f64)
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FRAM: {} ifetch / {} read / {} write; SRAM: {} ifetch / {} read / {} write",
            self.fram_ifetch,
            self.fram_read,
            self.fram_write,
            self.sram_ifetch,
            self.sram_read,
            self.sram_write
        )?;
        write!(
            f,
            "cycles: {} unstalled + {} wait + {} contention = {}",
            self.unstalled_cycles,
            self.wait_cycles,
            self.contention_cycles,
            self.total_cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = Stats::new();
        s.fram_ifetch = 30;
        s.sram_ifetch = 30;
        s.fram_read = 10;
        s.sram_write = 10;
        assert_eq!(s.code_accesses(), 60);
        assert_eq!(s.data_accesses(), 20);
        assert!((s.code_data_ratio().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_none() {
        assert_eq!(Stats::new().code_data_ratio(), None);
        assert_eq!(Stats::new().hw_cache_hit_rate(), None);
    }

    #[test]
    fn charge_modeled_attributes() {
        let mut s = Stats::new();
        s.charge_modeled(Category::MissHandler, 10, 35);
        s.charge_modeled(Category::Memcpy, 4, 20);
        assert_eq!(s.instructions_in(Category::MissHandler), 10);
        assert_eq!(s.instructions_in(Category::Memcpy), 4);
        assert_eq!(s.unstalled_cycles, 55);
        assert_eq!(s.total_instructions(), 14);
    }

    #[test]
    fn repeat_since_scales_every_counter() {
        let mut start = Stats::new();
        start.fram_read = 7;
        start.instructions = [1, 2, 3, 4];
        let mut s = start.clone();
        s.fram_read += 2;
        s.wait_cycles += 3;
        s.instructions[1] += 5;
        s.repeat_since(&start, 10);
        let mut want = start.clone();
        want.fram_read += 22;
        want.wait_cycles += 33;
        want.instructions[1] += 55;
        assert_eq!(s, want);
    }

    #[test]
    fn total_cycles_sums_all_stall_sources() {
        let mut s = Stats::new();
        s.unstalled_cycles = 100;
        s.wait_cycles = 30;
        s.contention_cycles = 5;
        assert_eq!(s.total_cycles(), 135);
    }
}
