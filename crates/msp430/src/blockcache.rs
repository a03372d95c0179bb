//! Pre-decoded basic-block dispatch engine.
//!
//! [`BlockEngine`] caches [`crate::decode::Block`]s keyed by physical
//! address and dispatches their precomputed cycle/category/accounting
//! plans instead of fetching and decoding every step. It has two entry
//! points:
//!
//! * [`BlockEngine::step`] executes one instruction, the interpreter's
//!   granularity. [`crate::machine::Machine::step`] uses it, and so does
//!   the run loop while a profiler is attached or a latched interrupt
//!   waits for delivery.
//! * [`BlockEngine::step_batched`] is the run loop's normal path. It runs
//!   to a deadline, the cycle of the run loop's next event (cycle budget,
//!   next fault, next timer fire), chaining from block to block. The run
//!   loop's checks are replicated inline, so the batch stops on exactly
//!   the boundary where per-instruction stepping would act.
//!
//! Both find their block the same way: the straight-line cursor left by
//! the previous call, else the block starting at the PC, else a fresh
//! build. Fetch accounting goes through three [`crate::mem::Bus`]
//! routines: `add_sram_ifetch` for SRAM text, `account_fram_ifetch` for
//! the contiguous FRAM words of one instruction or one batched run, and
//! `read_word` for the words the sanitizer must see one at a time.
//!
//! Execution dispatch is chosen at decode time too: every Format-I
//! instruction carries a [`crate::cpu::AluOp`], the index of its handler
//! monomorphised for its (opcode, size), so no opcode `match` runs per
//! execution. The batched loop calls the register handlers directly.
//!
//! # Idle polling loops
//!
//! A block whose closing jump returns to its own start, whose other
//! instructions are all CMP or BIT without an `@Rn+` source, and whose
//! fetches need no sanitizer replay is an idle loop
//! ([`Block::idle_loop`]): `w: tst &flag; jz w`, `jmp $`. An iteration
//! changes only SR, the hardware cache's replacement state and the
//! statistics. [`BlockEngine::step_batched`] saves those three on entry;
//! when one iteration returns to the start with SR and the cache as it
//! found them, every further iteration until the deadline is an exact
//! replica. The engine adds `k` copies of the iteration's statistics
//! ([`crate::trace::Stats::repeat_since`]), the most that keep
//! `total_cycles` below the deadline, then resumes normal execution, so
//! the batch stops on the same boundary as before.
//! [`BlockEngine::skipped_iterations`] counts the skipped iterations.
//! The interpreter executes every iteration and stays the parity
//! reference (`tests/pollskip.rs`).
//!
//! # Invalidation contract
//!
//! Cached blocks are snapshots of code bytes, and SwapRAM rewrites code at
//! runtime (redirection words, relocation words, function bodies copied
//! into SRAM), so staleness is the central hazard. The engine leans on the
//! [`crate::mem::Bus`] code write barrier:
//!
//! * Every cached block registers its byte range with the barrier
//!   (64-byte granule counts).
//! * Every store into a watched granule — CPU stores, host-side pokes,
//!   image loads, injected bit flips, and the SRAM clear of a power cycle
//!   — is recorded with its address range and bumps a generation counter.
//! * Before every block lookup, a changed generation triggers a drain:
//!   exactly the blocks whose `[start, end)` overlaps a recorded write are
//!   dropped. An unchanged generation (the overwhelmingly common case) is
//!   one integer compare.
//!
//! Two events invalidate wholesale rather than precisely: a machine
//! [`crate::machine::Machine::power_cycle`] (volatile state is gone and
//! sanitizer fill tracking reset, so SRAM-resident blocks and their skip
//! analysis are void) and sanitizer reattachment (detected via the bus's
//! sanitizer epoch), since blocks bake in a skip analysis proved against
//! the previous sanitizer's state.
//!
//! A PC with no buildable block (trap window, MMIO, undecodable bytes)
//! delegates to the interpreter for that one instruction, reproducing its
//! exact fault/stat behaviour.

use crate::cpu::Cpu;
use crate::decode::{build_block, Block, DecodedInstr, ExecPlan, Plan};
use crate::error::SimResult;
use crate::hwcache::CacheState;
use crate::mem::{AccessKind, Bus};
use crate::trace::Stats;

/// The `starts` table stores `slot + 1` so that 0 means "no block starts
/// at this address" — an all-zero table lets construction use the
/// allocator's zero pages instead of a 256 KiB memset per engine.
const NO_BLOCK: u32 = 0;
/// Granule shift of the invalidation index (matches the bus barrier's
/// 64-byte granules).
const GRANULE_SHIFT: u32 = 6;
/// Number of granules covering the address space.
const GRANULES: usize = 0x1_0000 >> GRANULE_SHIFT;

/// The block cache and dispatcher. One engine is owned per
/// [`crate::machine::Machine`] (see [`crate::machine::Engine`]).
#[derive(Debug)]
pub struct BlockEngine {
    /// `pc → arena slot` of the block starting exactly at `pc`.
    starts: Vec<u32>,
    /// Block storage; freed slots are recycled via `free`.
    arena: Vec<Option<Block>>,
    free: Vec<u32>,
    /// `granule → arena slots` of blocks overlapping the granule, for
    /// precise invalidation.
    granule_blocks: Vec<Vec<u32>>,
    /// Straight-line fast path: the block slot and instruction index the
    /// previous step predicted for this one.
    cursor: Option<(u32, usize)>,
    /// Last drained write-barrier generation.
    seen_gen: u64,
    /// Last observed sanitizer epoch.
    seen_epoch: u64,
    /// Reused drain buffers.
    scratch: Vec<(u16, u32)>,
    candidates: Vec<u32>,
    /// The state the current idle-loop iteration started from.
    idle: IdleEntry,
    blocks_built: u64,
    blocks_invalidated: u64,
    delegated: u64,
    skipped_iterations: u64,
}

/// The machine state an idle polling loop's iteration starts from (see
/// [`BlockEngine::step_batched`]); saved into the same buffers on every
/// entry.
#[derive(Debug, Default)]
struct IdleEntry {
    pc: u16,
    sr: u16,
    cache: CacheState,
    stats: Stats,
}

impl BlockEngine {
    /// Creates an empty engine. Call [`BlockEngine::reset`] against the
    /// owning bus before stepping so barrier state is in sync.
    pub fn new() -> BlockEngine {
        BlockEngine {
            starts: vec![NO_BLOCK; 0x1_0000],
            arena: Vec::new(),
            free: Vec::new(),
            granule_blocks: vec![Vec::new(); GRANULES],
            cursor: None,
            seen_gen: 0,
            seen_epoch: 0,
            scratch: Vec::new(),
            candidates: Vec::new(),
            idle: IdleEntry::default(),
            blocks_built: 0,
            blocks_invalidated: 0,
            delegated: 0,
            skipped_iterations: 0,
        }
    }

    /// Total blocks decoded since creation.
    pub fn blocks_built(&self) -> u64 {
        self.blocks_built
    }

    /// Total blocks dropped by precise (write-overlap) invalidation.
    pub fn blocks_invalidated(&self) -> u64 {
        self.blocks_invalidated
    }

    /// Steps delegated to the interpreter (no block representable).
    pub fn delegated(&self) -> u64 {
        self.delegated
    }

    /// Idle-loop iterations accounted without being executed (see
    /// [`BlockEngine::step_batched`]).
    pub fn skipped_iterations(&self) -> u64 {
        self.skipped_iterations
    }

    /// Drops every cached block and resynchronises with the bus barrier.
    pub fn reset(&mut self, bus: &mut Bus) {
        for slot in 0..self.arena.len() as u32 {
            self.remove_block(bus, slot);
        }
        self.arena.clear();
        self.free.clear();
        self.cursor = None;
        bus.clear_code_watch();
        self.scratch.clear();
        bus.drain_code_dirty(&mut self.scratch);
        self.scratch.clear();
        self.seen_gen = bus.code_watch_gen();
        self.seen_epoch = bus.sanitizer_epoch();
    }

    /// Executes one instruction at the CPU's current PC, byte-identical in
    /// observable behaviour to [`Cpu::step`].
    ///
    /// # Errors
    ///
    /// Exactly the conditions under which the interpreter errors, with the
    /// same partial state (PC advanced past the fetch, fetch accounting
    /// charged, instruction/cycle counts not).
    #[inline]
    pub fn step(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<()> {
        let Some((slot, idx)) = self.locate(cpu, bus)? else { return Ok(()) };
        let block = self.arena[slot as usize].as_ref().expect("validated slot");
        if exec_step(cpu, bus, block, idx)? {
            self.cursor = Some((slot, idx + 1));
        }
        Ok(())
    }

    /// Executes instructions — chaining from each block into the next —
    /// until [`crate::machine::Machine::run`]'s polling would act, then
    /// returns.
    ///
    /// The run loop passes the cycle of its next event as `deadline` (the
    /// budget, the next fault, the next timer fire) and calls this only
    /// when nothing else observes instruction boundaries: no profiler and
    /// no latched, undelivered interrupt. The loop's remaining checks are
    /// replicated inline after every instruction — stack floor, latched
    /// violation, halt port, code-write barrier, `total_cycles ≥
    /// deadline` — and the batch stops at the first instruction after
    /// which any of them would make the run loop act, leaving the machine
    /// in exactly the state per-instruction stepping would have. The
    /// barrier check additionally stops the batch when an instruction
    /// stores into watched code, so a self-modified block never executes
    /// stale successors (the next call drains it, same as
    /// [`BlockEngine::step`]).
    ///
    /// At the end of a block the batch continues with the block at the
    /// new PC unless the PC entered the trap window (the run loop calls
    /// the hook) or a `reti` executed (the run loop reports the interrupt
    /// boundary). A PC with no buildable block takes one delegated
    /// interpreter step and returns.
    ///
    /// An idle polling loop (see [`Block::idle_loop`]) is not executed
    /// iteration by iteration up to the deadline. Entering one saves PC,
    /// SR, the hardware cache's replacement state and the statistics;
    /// when one full iteration comes back to the same PC with SR and the
    /// cache unchanged, the machine state that decides the next iteration
    /// is what it was, so every further iteration is an exact replica
    /// until the deadline. The engine then adds `k` copies of that
    /// iteration's statistics, the most that keep `total_cycles` below
    /// the deadline, and resumes normal execution, which stops on the
    /// same boundary as before. [`BlockEngine::skipped_iterations`]
    /// counts the `k`s.
    ///
    /// # Errors
    ///
    /// As [`BlockEngine::step`]: identical conditions and partial state to
    /// the interpreter, with every fully-executed prior instruction's
    /// effects committed.
    #[inline]
    pub fn step_batched(&mut self, cpu: &mut Cpu, bus: &mut Bus, deadline: u64) -> SimResult<()> {
        loop {
            let Some((slot, idx)) = self.locate(cpu, bus)? else { return Ok(()) };
            let idle = idx == 0 && self.arena[slot as usize].as_ref().expect("validated slot").idle_loop;
            if idle {
                self.idle.pc = cpu.pc();
                self.idle.sr = cpu.sr();
                bus.hw_cache().save_state(&mut self.idle.cache);
                self.idle.stats.clone_from(bus.stats());
            }
            if !self.run_block(cpu, bus, slot, idx, deadline)?
                || bus.map().trap.contains(cpu.pc())
                || bus.reti_pending()
            {
                return Ok(());
            }
            if idle {
                self.skip_idle_repeats(cpu, bus, deadline);
            }
        }
    }

    /// Accounts the further iterations of the idle loop whose iteration
    /// just completed, if it left the state it started from (see
    /// [`BlockEngine::step_batched`]). The completed iteration ran to its
    /// end with no poll tripped, so `total_cycles` is below `deadline`.
    fn skip_idle_repeats(&mut self, cpu: &Cpu, bus: &mut Bus, deadline: u64) {
        let entry = &self.idle;
        if cpu.pc() != entry.pc || cpu.sr() != entry.sr || !bus.hw_cache().state_eq(&entry.cache) {
            return;
        }
        let now = bus.stats().total_cycles();
        let per_iteration = now - entry.stats.total_cycles();
        let k = (deadline - 1 - now).checked_div(per_iteration).unwrap_or(0);
        if k > 0 {
            bus.stats_mut().repeat_since(&entry.stats, k);
            self.skipped_iterations += k;
        }
    }

    /// Runs block `slot` from instruction `idx` for
    /// [`BlockEngine::step_batched`]. Returns `true` when the block ran to
    /// its end with no poll tripped, `false` when the batch must stop.
    #[inline]
    fn run_block(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut Bus,
        slot: u32,
        mut idx: usize,
        deadline: u64,
    ) -> SimResult<bool> {
        let block = self.arena[slot as usize].as_ref().expect("validated slot");
        // When the cycles left before the deadline exceed the block
        // suffix's worst-case cost, no cycle check can fire before the
        // block ends (the suffix bound only decreases, so once covered,
        // always covered). A covered block then polls only what each
        // instruction can actually trip: nothing for no-poll instructions
        // (loads and pure ALU ops — see `DecodedInstr::poll`), and it
        // executes precomputed runs of pure instructions from their
        // static aggregate. Near the deadline every instruction gets the
        // full poll set, so the batch stops on precisely the same
        // boundary as the interpreter's run loop.
        let covered =
            bus.stats().total_cycles() + u64::from(block.instrs[idx].worst_suffix) < deadline;
        while idx < block.instrs.len() {
            let di = &block.instrs[idx];
            let rp = di.run;
            if covered && rp.len >= 2 {
                // Accounting comes from the aggregate (plus one cache probe
                // per distinct fetch line); only the executions themselves
                // remain per-instruction.
                let n = usize::from(rp.len);
                match di.plan {
                    Plan::SramPure => bus.add_sram_ifetch(u64::from(rp.words)),
                    _ => bus.account_fram_ifetch(di.pc, rp.words),
                }
                bus.stats_mut().contention_cycles += u64::from(rp.contention);
                bus.charge_batch(di.cat, n as u64, u64::from(rp.unstalled));
                for di in &block.instrs[idx..idx + n] {
                    cpu.set_pc(di.next_pc);
                    // Pure instructions cannot fault (register and
                    // immediate operands only); propagate defensively.
                    exec_lowered(cpu, bus, di)?;
                }
                idx += n;
                continue;
            }
            let fell_through = exec_step(cpu, bus, block, idx)?;
            if !covered || di.poll {
                bus.check_stack(cpu.sp());
                if bus.violation_pending()
                    || bus.ports().halt_code().is_some()
                    || bus.code_watch_gen() != self.seen_gen
                    || bus.stats().total_cycles() >= deadline
                {
                    // After a barrier write the next call's drain drops
                    // the cursor again.
                    if fell_through {
                        self.cursor = Some((slot, idx + 1));
                    }
                    return Ok(false);
                }
            }
            if !fell_through {
                break;
            }
            idx += 1;
        }
        // Block exhausted: the last instruction was either a terminator or
        // the decode horizon, and no poll tripped (a covered block cannot
        // reach the deadline, and its unpolled instructions cannot trip
        // the rest).
        Ok(true)
    }

    /// The one block lookup behind both step paths: syncs with the
    /// sanitizer epoch and write barrier, then resolves the CPU's PC to
    /// `(arena slot, instruction index)` — via the straight-line cursor,
    /// the `starts` table, or a fresh build — and clears the cursor for
    /// the caller to re-point. A PC with no buildable block executes that
    /// one instruction on the interpreter instead and yields `None`.
    ///
    /// Forced inline: it runs once per single step and once per chained
    /// block.
    ///
    /// # Errors
    ///
    /// The delegated interpreter step's errors.
    #[inline(always)]
    fn locate(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<Option<(u32, usize)>> {
        if bus.sanitizer_epoch() != self.seen_epoch {
            self.reset(bus);
        }
        if bus.code_watch_gen() != self.seen_gen {
            self.drain(bus);
        }
        let pc = cpu.pc();
        let cursor = self.cursor.take().filter(|&(slot, idx)| {
            self.arena[slot as usize]
                .as_ref()
                .is_some_and(|b| idx < b.instrs.len() && b.instrs[idx].pc == pc)
        });
        if cursor.is_some() {
            return Ok(cursor);
        }
        let s = self.starts[usize::from(pc)];
        if s != NO_BLOCK {
            return Ok(Some((s - 1, 0)));
        }
        if let Some(slot) = self.build_at(bus, pc) {
            return Ok(Some((slot, 0)));
        }
        self.delegated += 1;
        cpu.step(bus)?;
        Ok(None)
    }

    fn build_at(&mut self, bus: &mut Bus, pc: u16) -> Option<u32> {
        let block = build_block(bus, pc)?;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.arena.push(None);
            (self.arena.len() - 1) as u32
        });
        bus.code_watch_add(block.start, block.end);
        for g in granules(block.start, block.end) {
            let list = &mut self.granule_blocks[g];
            if !list.contains(&slot) {
                list.push(slot);
            }
        }
        self.starts[usize::from(pc)] = slot + 1;
        if slot as usize >= self.arena.len() {
            self.arena.resize_with(slot as usize + 1, || None);
        }
        self.arena[slot as usize] = Some(block);
        self.blocks_built += 1;
        Some(slot)
    }

    /// Precisely drops every block overlapping a write recorded since the
    /// last drain.
    fn drain(&mut self, bus: &mut Bus) {
        self.scratch.clear();
        bus.drain_code_dirty(&mut self.scratch);
        let writes = std::mem::take(&mut self.scratch);
        for &(addr, len) in &writes {
            let wstart = u32::from(addr);
            let wend = (wstart + len.max(1)).min(0x1_0000);
            self.candidates.clear();
            for g in granules(addr, wend) {
                for &slot in &self.granule_blocks[g] {
                    if !self.candidates.contains(&slot) {
                        self.candidates.push(slot);
                    }
                }
            }
            let candidates = std::mem::take(&mut self.candidates);
            for &slot in &candidates {
                let overlaps = self.arena[slot as usize]
                    .as_ref()
                    .is_some_and(|b| u32::from(b.start) < wend && b.end > wstart);
                if overlaps {
                    self.remove_block(bus, slot);
                    self.blocks_invalidated += 1;
                }
            }
            self.candidates = candidates;
        }
        self.scratch = writes;
        self.scratch.clear();
        self.cursor = None;
        self.seen_gen = bus.code_watch_gen();
    }

    fn remove_block(&mut self, bus: &mut Bus, slot: u32) {
        if let Some(b) = self.arena[slot as usize].take() {
            self.starts[usize::from(b.start)] = NO_BLOCK;
            bus.code_watch_remove(b.start, b.end);
            for g in granules(b.start, b.end) {
                self.granule_blocks[g].retain(|&s| s != slot);
            }
            self.free.push(slot);
        }
    }
}

impl Default for BlockEngine {
    fn default() -> Self {
        BlockEngine::new()
    }
}

/// Granule index range covering `[start, end)`.
fn granules(start: u16, end: u32) -> std::ops::RangeInclusive<usize> {
    let g0 = usize::from(start) >> GRANULE_SHIFT;
    let g1 = ((end.max(u32::from(start) + 1) - 1) >> GRANULE_SHIFT) as usize;
    g0..=g1
}

/// Executes a decoded instruction through its pre-lowered dispatch (see
/// [`ExecPlan`]); the caller must have advanced the PC past the fetch.
/// Forced inline: out of line, this `match` was the hottest leaf of the
/// steady-state matrix.
#[inline(always)]
fn exec_lowered(cpu: &mut Cpu, bus: &mut Bus, di: &DecodedInstr) -> SimResult<()> {
    match di.exec {
        ExecPlan::AluImm { alu, v, dst } => {
            alu.exec_reg(cpu, v, dst);
            Ok(())
        }
        ExecPlan::AluReg { alu, src, dst } => {
            let v = cpu.reg(src);
            alu.exec_reg(cpu, v, dst);
            Ok(())
        }
        ExecPlan::Alu { alu, src, dst } => alu.exec_mem(cpu, bus, src, dst),
        ExecPlan::Fmt2Reg { op, size, dst } => cpu.exec_fmt2_reg(op, size, dst),
        ExecPlan::Push { size, src } => cpu.exec_push(bus, size, src),
        ExecPlan::Call { src } => cpu.exec_call(bus, src),
        ExecPlan::Reti => cpu.exec_reti(bus),
        ExecPlan::Jmp { op, offset } => {
            cpu.exec_jump(op, offset);
            Ok(())
        }
        ExecPlan::Generic => cpu.exec_decoded(bus, &di.instr),
    }
}

/// Executes instruction `idx` of `block` per its plan and reports whether
/// it fell through to a successor in the same block. Mirrors the
/// accounting sequence of [`Cpu::step`]: fetch accounting first, PC
/// advanced past the fetch, execution, then instruction/cycle attribution
/// — so an execution fault leaves identical partial state.
#[inline]
fn exec_step(cpu: &mut Cpu, bus: &mut Bus, block: &Block, idx: usize) -> SimResult<bool> {
    let di = &block.instrs[idx];
    // A `SramPure` instruction makes no bus access during execution and
    // its SRAM fetches touch no FRAM line, so its contention bracket
    // would observe an empty line set and is skipped.
    let bracket = di.plan != Plan::SramPure;
    if bracket {
        bus.begin_instruction();
    }
    match di.plan {
        Plan::SramPure | Plan::SramFast => bus.add_sram_ifetch(u64::from(di.words)),
        Plan::FramFast => bus.account_fram_ifetch(di.pc, u16::from(di.words)),
        Plan::Replay => {
            for i in 0..u16::from(di.words) {
                bus.read_word(di.pc + 2 * i, AccessKind::IFetch)?;
            }
        }
    }
    cpu.set_pc(di.next_pc);
    exec_lowered(cpu, bus, di)?;
    bus.charge_instr(di.cat, di.cycles);
    if bracket {
        bus.end_instruction();
    }
    Ok(cpu.pc() == di.next_pc && idx + 1 < block.instrs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::Frequency;
    use crate::hwcache::HwCache;
    use crate::isa::{Instr, Opcode, Operand, Reg, Size};
    use crate::mem::{Bus, MemoryMap};

    fn setup(instrs: &[Instr], base: u16) -> (Cpu, Bus, BlockEngine) {
        let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_8);
        bus.enable_code_watch();
        let mut at = base;
        for i in instrs {
            for w in i.encode(at).unwrap() {
                bus.poke_word(at, w);
                at = at.wrapping_add(2);
            }
        }
        let mut cpu = Cpu::new();
        cpu.set_pc(base);
        cpu.set_sp(0x3000);
        let mut eng = BlockEngine::new();
        eng.reset(&mut bus);
        (cpu, bus, eng)
    }

    fn mov_imm(v: u16, r: Reg) -> Instr {
        Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(v),
            dst: Operand::Reg(r),
        }
    }

    /// Interpreter and engine agree on a simple straight-line program,
    /// including every statistic.
    #[test]
    fn engine_matches_interpreter_stats() {
        let prog = [
            mov_imm(0x1234, Reg::R12),
            mov_imm(5, Reg::R13),
            Instr::FormatI {
                op: Opcode::Add,
                size: Size::Word,
                src: Operand::Reg(Reg::R12),
                dst: Operand::Reg(Reg::R13),
            },
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Reg(Reg::R13),
                dst: Operand::Absolute(0x2100),
            },
        ];
        let (mut c1, mut b1, mut eng) = setup(&prog, 0x4000);
        let (mut c2, mut b2, _) = setup(&prog, 0x4000);
        for _ in 0..prog.len() {
            eng.step(&mut c1, &mut b1).unwrap();
            c2.step(&mut b2).unwrap();
        }
        assert_eq!(b1.stats(), b2.stats());
        assert_eq!(c1.pc(), c2.pc());
        assert_eq!(c1.reg(Reg::R13), c2.reg(Reg::R13));
        assert_eq!(b1.peek_word(0x2100), b2.peek_word(0x2100));
    }

    /// A store into the currently-executing block invalidates it, and the
    /// rewritten bytes are executed on the next pass — same as re-fetching.
    #[test]
    fn self_modifying_store_invalidates() {
        // MOV #<encoding of MOV #8,R14>, &0x4006 ; then the word at 0x4006
        // executes. First pass stores, so the second instruction executed
        // must be the *new* bytes. (#8 is a constant-generator immediate,
        // so the patched instruction is a single word.)
        let patch = mov_imm(8, Reg::R14).encode(0x4006).unwrap();
        assert_eq!(patch.len(), 1);
        let patch_word = patch[0];
        let prog = [
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(patch_word),
                dst: Operand::Absolute(0x4006),
            },
            // Placeholder at 0x4006 (1 word): MOV R12, R12 (a no-op).
            Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Reg(Reg::R12),
                dst: Operand::Reg(Reg::R12),
            },
        ];
        let (mut c1, mut b1, mut eng) = setup(&prog, 0x4000);
        // Warm the cache over both instructions, then rewind and re-run.
        let entry_invalidated = eng.blocks_invalidated();
        eng.step(&mut c1, &mut b1).unwrap(); // performs the store
        eng.step(&mut c1, &mut b1).unwrap(); // must execute the NEW word
        assert_eq!(c1.reg(Reg::R14), 8, "rewritten instruction must execute");
        assert!(eng.blocks_invalidated() > entry_invalidated);
    }

    /// Delegation: stepping at an undecodable PC behaves exactly like the
    /// interpreter (same error).
    #[test]
    fn undecodable_pc_delegates_with_identical_error() {
        let (mut c1, mut b1, mut eng) = setup(&[], 0x0000); // unmapped
        let (mut c2, mut b2, _) = setup(&[], 0x0000);
        let e1 = eng.step(&mut c1, &mut b1).unwrap_err();
        let e2 = c2.step(&mut b2).unwrap_err();
        assert_eq!(e1, e2);
        assert!(eng.delegated() >= 1);
    }

    /// Bit flips in cached code take effect (fault-injection path).
    #[test]
    fn flip_bit_in_cached_block_invalidates() {
        let prog = [mov_imm(1, Reg::R12), mov_imm(2, Reg::R13)];
        let (mut c1, mut b1, mut eng) = setup(&prog, 0x4000);
        eng.step(&mut c1, &mut b1).unwrap();
        assert!(eng.blocks_built() >= 1);
        // Flip a bit inside the block's second instruction (both MOVs use
        // constant-generator immediates, so they are one word each).
        b1.flip_bit(0x4002, 0);
        let inv = eng.blocks_invalidated();
        c1.set_pc(0x4000);
        eng.step(&mut c1, &mut b1).unwrap();
        assert!(eng.blocks_invalidated() > inv, "flip must invalidate the block");
    }
}
