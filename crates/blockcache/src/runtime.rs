//! Block-cache runtime: slot allocation, djb2 hash lookup, exit chaining
//! and flush-on-full (paper §4's best-effort port of Miller & Agarwal).

use crate::bbpass::{BlockProgram, ExitKind, TRAP_ADDR};
use crate::config::BlockConfig;
use msp430_sim::cpu::Cpu;
use msp430_sim::error::{SimError, SimResult};
use msp430_sim::machine::{Hook, TrapAction};
use msp430_sim::mem::{AccessKind, Bus};
use msp430_sim::trace::Category;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// FRAM window modelling the runtime's own code: its modeled instruction
/// fetches are replayed here, like SwapRAM's miss handler.
pub const HANDLER_CODE_BASE: u16 = 0xBC00;

/// Slot granularity of the block cache in bytes: a block occupies whole
/// slots.
const SLOT_BYTES: u16 = 16;

/// One priced step of the block-cache runtime. A step whose price scales
/// carries its own count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Trap entry: register save, `__bb_cur` load, jump-table index.
    Entry,
    /// One hash probe (djb2 is shift/add only, §4).
    Probe,
    /// Chaining an exit word.
    Chain,
    /// Words copied into a cache slot.
    CopyWord {
        /// Words copied.
        words: u64,
    },
    /// A flush, charged per exit word it resets *and* per hash slot it
    /// clears.
    Flush {
        /// Exit words plus hash slots.
        words: u64,
    },
    /// Trap exit: restore registers, branch.
    Exit,
}

impl Step {
    /// The step's `(instructions, cycles)`.
    pub const fn cost(self) -> (u64, u64) {
        match self {
            Step::Entry => (8, 20),
            Step::Probe => (5, 11),
            Step::Chain => (3, 8),
            Step::CopyWord { words } => (3 * words, 6 * words),
            Step::Flush { words } => (2 * words, 5 * words),
            Step::Exit => (4, 10),
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

/// Counters the block-cache runtime maintains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Runtime entries (traps).
    pub traps: u64,
    /// Blocks copied into the cache.
    pub fills: u64,
    /// Exits chained to cached blocks.
    pub chains: u64,
    /// Cache flushes.
    pub flushes: u64,
    /// Returns routed through the runtime.
    pub returns: u64,
    /// Blocks too large to cache (executed from FRAM).
    pub too_large: u64,
    /// Bytes copied.
    pub bytes_copied: u64,
    /// Traps that recovered from an abnormal table state (e.g. a full
    /// hash table) by flushing instead of aborting the machine.
    pub degraded: u64,
}

/// Outcome of a hash-table probe.
enum Probe {
    /// The target is cached at this SRAM address.
    Found(u16),
    /// The target is absent; this slot index is free for insertion.
    Empty(u16),
    /// Every slot is occupied by other tags — a state regular operation
    /// never reaches (the table is sized for all blocks and cleared on
    /// flush), so it indicates corruption or an accounting bug. The
    /// caller degrades by flushing rather than aborting.
    Full,
}

/// The block-cache runtime hook.
pub struct BlockRuntime {
    cfg: BlockConfig,
    cur_addr: u16,
    /// Exit k → (word address, resolved static target or None for returns).
    exits: Vec<(u16, Option<u16>)>,
    /// Canonical block start → (index, size).
    blocks: BTreeMap<u16, u16>,
    hash_base: u16,
    hash_capacity: u16,
    /// Rust mirror of the FRAM hash table: canonical → cached address.
    cached: BTreeMap<u16, u16>,
    next_free: u16,
    stats: Rc<RefCell<BlockStats>>,
    fetch_cursor: u16,
}

impl std::fmt::Debug for BlockRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRuntime")
            .field("blocks", &self.blocks.len())
            .field("cached", &self.cached.len())
            .finish()
    }
}

impl BlockRuntime {
    /// Creates a runtime for a program transformed by
    /// [`crate::bbpass::transform`].
    ///
    /// # Errors
    ///
    /// Fails if a static exit target does not resolve to a known block.
    pub fn new(prog: &BlockProgram, cfg: BlockConfig) -> SimResult<BlockRuntime> {
        let mut exits = Vec::with_capacity(prog.exits.len());
        for e in &prog.exits {
            let target = match &e.kind {
                ExitKind::Static { target } => {
                    let addr = prog.assembly.symbol(target).ok_or_else(|| {
                        SimError::Hook(format!("exit target `{target}` unresolved"))
                    })?;
                    Some(addr)
                }
                ExitKind::Return => None,
            };
            exits.push((e.word_addr, target));
        }
        let blocks = prog.blocks.iter().map(|b| (b.addr, b.size)).collect();
        Ok(BlockRuntime {
            next_free: cfg.cache_base,
            fetch_cursor: HANDLER_CODE_BASE,
            cfg,
            cur_addr: prog.cur_addr,
            exits,
            blocks,
            hash_base: prog.hash_base,
            hash_capacity: prog.hash_capacity,
            cached: BTreeMap::new(),
            stats: Rc::new(RefCell::new(BlockStats::default())),
        })
    }

    /// Shared handle to the runtime counters.
    pub fn stats_handle(&self) -> Rc<RefCell<BlockStats>> {
        Rc::clone(&self.stats)
    }

    /// Charges one runtime step at its price: Figure-8 attribution plus a
    /// replay of its instruction fetches against the FRAM code window.
    fn charge(&mut self, bus: &mut Bus, step: Step) -> SimResult<()> {
        let (instrs, cycles) = step.cost();
        bus.stats_mut().charge_modeled(step.category(), instrs, cycles);
        bus.replay_handler_fetches(HANDLER_CODE_BASE, &mut self.fetch_cursor, instrs)
    }

    fn djb2_slot(&self, addr: u16) -> u16 {
        let mut h: u32 = 5381;
        for b in addr.to_le_bytes() {
            h = h.wrapping_mul(33) ^ u32::from(b);
        }
        (h % u32::from(self.hash_capacity)) as u16
    }

    /// Probes the FRAM hash table for `target`; every probe is a counted
    /// metadata read.
    fn probe(&mut self, bus: &mut Bus, target: u16) -> SimResult<Probe> {
        let mut slot = self.djb2_slot(target);
        for _ in 0..self.hash_capacity {
            let slot_addr = self.hash_base + 4 * slot;
            let tag = bus.read_word(slot_addr, AccessKind::Read)?;
            self.charge(bus, Step::Probe)?;
            if tag == 0 {
                return Ok(Probe::Empty(slot));
            }
            if tag == target {
                let v = bus.read_word(slot_addr + 2, AccessKind::Read)?;
                return Ok(Probe::Found(v));
            }
            slot = (slot + 1) % self.hash_capacity;
        }
        Ok(Probe::Full)
    }

    fn flush(&mut self, bus: &mut Bus) -> SimResult<()> {
        // Reset every exit word (no chain bookkeeping, §4) and clear the
        // hash table — all counted FRAM writes.
        let n = self.exits.len() as u64;
        for (word_addr, _) in self.exits.clone() {
            bus.write_word(word_addr, TRAP_ADDR)?;
        }
        for slot in 0..self.hash_capacity {
            bus.write_word(self.hash_base + 4 * slot, 0)?;
        }
        self.charge(bus, Step::Flush { words: n + u64::from(self.hash_capacity) })?;
        self.cached.clear();
        self.next_free = self.cfg.cache_base;
        self.stats.borrow_mut().flushes += 1;
        Ok(())
    }
}

impl Hook for BlockRuntime {
    fn on_trap(&mut self, cpu: &mut Cpu, bus: &mut Bus, trap_pc: u16) -> SimResult<TrapAction> {
        if trap_pc != TRAP_ADDR {
            return Err(SimError::Hook(format!(
                "unexpected trap at 0x{trap_pc:04x} (block-cache trap is 0x{TRAP_ADDR:04x})"
            )));
        }
        self.stats.borrow_mut().traps += 1;
        self.charge(bus, Step::Entry)?;
        let k = bus.read_word(self.cur_addr, AccessKind::Read)?;
        let (word_addr, static_target) = *self
            .exits
            .get(usize::from(k))
            .ok_or_else(|| SimError::Hook(format!("invalid exit index {k}")))?;

        let target = match static_target {
            Some(t) => t,
            None => {
                // Dynamic return: pop the canonical return address.
                self.stats.borrow_mut().returns += 1;
                let sp = cpu.sp();
                let t = bus.read_word(sp, AccessKind::Read)?;
                cpu.set_sp(sp.wrapping_add(2));
                t
            }
        };

        let exit = |rt: &mut BlockRuntime, cpu: &mut Cpu, bus: &mut Bus, to: u16| {
            cpu.set_pc(to);
            rt.charge(bus, Step::Exit)?;
            Ok(TrapAction::Resume)
        };

        // Already cached?
        match self.probe(bus, target)? {
            Probe::Found(cached) => {
                if static_target.is_some() {
                    bus.write_word(word_addr, cached)?;
                    self.charge(bus, Step::Chain)?;
                    self.stats.borrow_mut().chains += 1;
                }
                return exit(self, cpu, bus, cached);
            }
            Probe::Empty(_) => {}
            Probe::Full => {
                // A full table is unreachable through regular operation:
                // degrade by flushing to a known-good empty state instead
                // of aborting the machine.
                self.flush(bus)?;
                self.stats.borrow_mut().degraded += 1;
            }
        }

        let size = *self
            .blocks
            .get(&target)
            .ok_or_else(|| SimError::Hook(format!("0x{target:04x} is not a block start")))?;
        let need = size.div_ceil(SLOT_BYTES) * SLOT_BYTES;
        if need > self.cfg.cache_size {
            // Cannot cache: execute the canonical (transformed) copy.
            self.stats.borrow_mut().too_large += 1;
            return exit(self, cpu, bus, target);
        }
        if u32::from(self.next_free) + u32::from(need) > u32::from(self.cfg.cache_base) + u32::from(self.cfg.cache_size)
        {
            self.flush(bus)?;
        }

        let place = self.next_free;
        for i in 0..size.div_ceil(2) {
            let w = bus.read_word(target + 2 * i, AccessKind::Read)?;
            bus.write_word(place + 2 * i, w)?;
        }
        self.charge(bus, Step::CopyWord { words: u64::from(size / 2) })?;
        self.next_free = place + need;

        // Insert into the FRAM hash table (tag + value writes). A full
        // table here means the block stays unindexed this round (the next
        // lookup misses and re-fills) — wasteful but correct.
        if let Probe::Empty(slot) = self.probe(bus, target)? {
            let slot_addr = self.hash_base + 4 * slot;
            bus.write_word(slot_addr, target)?;
            bus.write_word(slot_addr + 2, place)?;
        }
        self.cached.insert(target, place);

        // Chain the triggering exit when static.
        if static_target.is_some() {
            bus.write_word(word_addr, place)?;
            self.charge(bus, Step::Chain)?;
            self.stats.borrow_mut().chains += 1;
        }
        let mut stats = self.stats.borrow_mut();
        stats.fills += 1;
        stats.bytes_copied += u64::from(need);
        drop(stats);
        exit(self, cpu, bus, place)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbpass::transform;
    use msp430_asm::layout::LayoutConfig;
    use msp430_asm::parser::parse;
    use msp430_sim::freq::Frequency;
    use msp430_sim::machine::Fr2355;
    use msp430_sim::ports::checksum_of_words;

    const SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x9ffc, sp
    call #main
    mov #0, &0x0102
    .endfunc
    .func main
main:
    mov #0, r10
    mov #6, r11
main_loop:
    mov r10, r12
    call #step
    mov r12, r10
    dec r11
    jnz main_loop
    mov r10, &0x0104
    ret
    .endfunc
    .func step
step:
    add #7, r12
    tst r12
    jz step_zero
    ret
step_zero:
    mov #1, r12
    ret
    .endfunc
";

    fn expected() -> u32 {
        checksum_of_words([42u16])
    }

    fn build(cfg: BlockConfig) -> (msp430_sim::machine::Machine, Rc<RefCell<BlockStats>>) {
        let m = parse(SRC).unwrap();
        // The stack lives in FRAM data space (unified-memory model).
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let p = transform(&m, &lc).unwrap();
        let rt = BlockRuntime::new(&p, cfg).unwrap();
        let stats = rt.stats_handle();
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&p.assembly.image);
        machine.attach_hook(Box::new(rt));
        (machine, stats)
    }

    #[test]
    fn preserves_semantics_and_caches_blocks() {
        let (mut machine, stats) = build(BlockConfig::unified_fr2355());
        let out = machine.run(10_000_000).unwrap();
        assert!(out.success(), "exit: {:?}", out.exit);
        assert_eq!(out.checksum.0, expected());
        let s = stats.borrow();
        assert!(s.traps > 0);
        assert!(s.fills > 0);
        assert!(s.returns > 0, "returns are routed through the runtime");
    }

    #[test]
    fn tiny_cache_flushes_and_stays_correct() {
        let cfg = BlockConfig { cache_size: 64, ..BlockConfig::unified_fr2355() };
        let (mut machine, stats) = build(cfg);
        let out = machine.run(20_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected());
        assert!(stats.borrow().flushes > 0, "64-byte cache must flush");
    }

    #[test]
    fn every_step_takes_at_least_a_cycle_per_instruction() {
        for n in [0, 1, 64] {
            let steps = [
                Step::Entry,
                Step::Probe,
                Step::Chain,
                Step::CopyWord { words: n },
                Step::Flush { words: n },
                Step::Exit,
            ];
            for step in steps {
                let (instrs, cycles) = step.cost();
                assert!(cycles >= instrs, "{step:?}: {instrs} instructions in {cycles} cycles");
            }
        }
    }

    #[test]
    fn app_code_executes_from_sram() {
        let (mut machine, _) = build(BlockConfig::unified_fr2355());
        let out = machine.run(10_000_000).unwrap();
        assert!(out.success());
        assert!(out.stats.instructions_in(Category::AppSram) > 0);
    }
}
