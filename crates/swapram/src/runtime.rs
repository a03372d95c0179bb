//! The SwapRAM runtime: cache-miss handler, circular-queue cache structure,
//! eviction with call-stack integrity, and branch relocation (paper §3.3,
//! §3.4).
//!
//! The runtime attaches to the simulated machine as a
//! [`Hook`]: the indirect `CALL &__sr_redir_f`
//! planted by the static pass initially lands in the trap window, which
//! invokes [`SwapRuntime::on_trap`]. The handler's memory traffic —
//! metadata reads, redirection and relocation writes, the word-by-word
//! function copy — all go through the bus and are counted like any other
//! access; its instruction-execution effort is charged from the cost
//! table [`COST`] and attributed to the `miss handler` / `memcpy`
//! categories of Figure 8.

use crate::config::{IsrProtocol, PolicyKind, RecoveryMode, SwapConfig};
use crate::cost::COST;
use crate::guards::{crc16, guard_value, plausible_act};
use crate::pass::{Instrumented, Journal, ResumeArea, SwapFunc};
use crate::stats::SwapStats;
use crate::tables::{STACK_TOP, TRAP_ADDR};
use msp430_sim::cpu::{Cpu, FLAG_GIE};
use msp430_sim::error::{SimError, SimResult};
use msp430_sim::isa::Reg;
use msp430_sim::machine::{Hook, IrqBoundary, TrapAction};
use msp430_sim::mem::{AccessKind, Bus};
use msp430_sim::trace::Category;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// FRAM window the miss handler executes from: its modeled instruction
/// fetches are replayed here (paper §5.3 "we always execute both it and
/// memcpy from FRAM").
pub const HANDLER_CODE_BASE: u16 = 0xB800;

/// Thrash-detection window of [`PolicyKind::FreezeOnThrash`]: how many
/// recent evictions are remembered.
const THRASH_WINDOW: usize = 8;

/// Misses for which eviction stays frozen once thrashing is detected.
const FREEZE_MISSES: u32 = 32;

/// A cached function occupying `[addr, addr + size)` in SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    id: u16,
    addr: u16,
    size: u16,
}

/// Marker bit of a dirty-log entry word: a power-failed (zeroed or torn)
/// slot can never masquerade as a valid entry.
const JOURNAL_MARK: u16 = 0x8000;

/// Encodes a dirty-log entry: marker bit, 7-bit generation tag, 8-bit
/// function id.
fn journal_entry_word(gen: u16, fid: u16) -> u16 {
    JOURNAL_MARK | ((gen & 0x7f) << 8) | (fid & 0xff)
}

/// Decodes and validates a dirty-log entry against the current generation;
/// returns the function id, or `None` for a torn/stale/corrupt slot.
pub(crate) fn journal_entry_fid(entry: u16, gen: u16, nfuncs: u16) -> Option<u16> {
    if entry & JOURNAL_MARK == 0 {
        return None;
    }
    if (entry >> 8) & 0x7f != gen & 0x7f {
        return None;
    }
    let fid = entry & 0xff;
    (fid < nfuncs).then_some(fid)
}

/// What a boot-time [`SwapRuntime::recover`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The protocol that actually ran ([`RecoveryMode::DirtyLog`] only
    /// when the journal was present and intact).
    pub mode: RecoveryMode,
    /// Functions whose metadata was rewound to its FRAM home.
    pub rewound: u64,
    /// True when a torn or stale journal forced the full-scan fallback.
    pub journal_fallback: bool,
    /// True when a committed persistent-stack checkpoint was restored:
    /// the register file, call stack, and I/O state are back at the
    /// checkpoint and execution continues mid-computation instead of
    /// replaying from the entry point ([`SwapRuntime::recover_resume`]).
    pub resumed: bool,
    /// True when the Sisyphus watchdog has degraded the runtime to FRAM
    /// execution after consecutive zero-progress boots (either on this
    /// boot or a persistent earlier one not yet cleared by a commit).
    pub watchdog_degraded: bool,
}

/// The runtime component of SwapRAM.
pub struct SwapRuntime {
    funcs: Vec<SwapFunc>,
    fid_addr: u16,
    pub(crate) cfg: SwapConfig,
    /// Cached functions in caching order (front = least recently cached).
    entries: VecDeque<Entry>,
    /// Next placement address in the circular queue.
    tail: u16,
    stats: Rc<RefCell<SwapStats>>,
    /// Cursor for replaying handler instruction fetches against the bus.
    fetch_cursor: u16,
    /// Recently evicted function ids (thrash detection).
    recent_evictions: VecDeque<u16>,
    /// Consecutive misses whose target was recently evicted.
    thrash_run: u32,
    /// Consecutive misses that ended in an active-counter fallback (the
    /// §3.3.3 pathological case; also a thrash signal).
    fallback_run: u32,
    /// Remaining misses served without eviction after a freeze.
    freeze_left: u32,
    /// Persistent dirty-log layout, when the pass emitted one.
    journal: Option<Journal>,
    /// Function ids already appended to the log this generation (volatile
    /// dedup index — rebuilt implicitly on reboot because a fresh runtime
    /// starts empty and the generation advances).
    logged: Vec<bool>,
    /// `(table address, task count)` of a guest task-control-block table:
    /// one saved stack pointer per task, contiguous words. Registered by
    /// the builder for multi-task programs so eviction can honour return
    /// addresses on *suspended* task stacks (the live SP scan only covers
    /// the running task). [`IsrProtocol::Masked`] only.
    task_table: Option<(u16, u16)>,
    /// Persistent-stack resume layout, when the pass emitted one.
    resume: Option<ResumeArea>,
    /// Checkpoint slot the *next* commit writes (double-buffered: never
    /// the slot a valid resume frame lives in).
    ckpt_slot: usize,
    /// Generation the next commit publishes (15-bit, monotone).
    ckpt_gen: u16,
    /// Total-cycle timestamp of the last committed checkpoint, for the
    /// commit-interval gate.
    last_commit: Option<u64>,
    /// Volatile mirror of the persistent watchdog degraded flag: when
    /// set, misses are served from FRAM homes without writing permanent
    /// redirects (so traps — and with them checkpoint opportunities —
    /// keep occurring).
    wd_degraded: bool,
}

impl std::fmt::Debug for SwapRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapRuntime")
            .field("funcs", &self.funcs.len())
            .field("cached", &self.entries.len())
            .field("tail", &self.tail)
            .finish()
    }
}

impl SwapRuntime {
    /// Creates a runtime for a program instrumented by
    /// [`crate::pass::instrument`].
    pub fn new(inst: &Instrumented, cfg: SwapConfig) -> SwapRuntime {
        let tail = cfg.cache_base;
        let logged = vec![false; inst.funcs.len()];
        SwapRuntime {
            funcs: inst.funcs.clone(),
            fid_addr: inst.fid_addr,
            cfg,
            entries: VecDeque::new(),
            tail,
            stats: Rc::new(RefCell::new(SwapStats::new())),
            fetch_cursor: HANDLER_CODE_BASE,
            recent_evictions: VecDeque::new(),
            thrash_run: 0,
            fallback_run: 0,
            freeze_left: 0,
            journal: inst.journal,
            logged,
            task_table: None,
            resume: inst.resume,
            ckpt_slot: 0,
            ckpt_gen: 1,
            last_commit: None,
            wd_degraded: false,
        }
    }

    /// Registers the guest's task-control-block table: `ntasks` contiguous
    /// words at `addr`, each the saved stack pointer of a suspended task
    /// (zero until the task is primed). Under [`IsrProtocol::Masked`] the
    /// eviction scan then also honours return addresses on suspended task
    /// stacks; [`IsrProtocol::Unprotected`] ignores the table, reproducing
    /// the paper's single-stack trust model.
    pub fn set_task_table(&mut self, addr: u16, ntasks: u16) {
        self.task_table = Some((addr, ntasks));
    }

    /// The registered task table, if any (for the invariant checker).
    pub fn task_table(&self) -> Option<(u16, u16)> {
        self.task_table
    }

    /// A shared handle to the runtime counters; clone it before attaching
    /// the runtime to a machine.
    pub fn stats_handle(&self) -> Rc<RefCell<SwapStats>> {
        Rc::clone(&self.stats)
    }

    /// Currently cached function ids in caching order (oldest first).
    pub fn cached_ids(&self) -> Vec<u16> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Cached entries as `(id, sram_addr, size)` (oldest first) — the
    /// runtime's volatile view, for the invariant checker and tests.
    pub fn entries_snapshot(&self) -> Vec<(u16, u16, u16)> {
        self.entries.iter().map(|e| (e.id, e.addr, e.size)).collect()
    }

    /// All function metadata records, indexed by `funcId`.
    pub fn func_records(&self) -> &[SwapFunc] {
        &self.funcs
    }

    /// The metadata record of one function.
    pub fn func_record(&self, id: u16) -> Option<&SwapFunc> {
        self.funcs.get(usize::from(id))
    }

    /// Next placement address of the circular queue.
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Address of the global `funcId` word.
    pub fn fid_addr(&self) -> u16 {
        self.fid_addr
    }

    /// The dirty-log layout, when the instrumented program carries one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// The persistent-stack resume layout, when the instrumented program
    /// carries one (for the invariant checker and tests).
    pub fn resume_area(&self) -> Option<&ResumeArea> {
        self.resume.as_ref()
    }

    /// Whether the Sisyphus watchdog has degraded the runtime to FRAM
    /// execution (cleared by the next committed checkpoint).
    pub fn watchdog_degraded(&self) -> bool {
        self.wd_degraded
    }

    /// Whether persistent-stack checkpointing is active.
    fn ps_active(&self) -> bool {
        self.cfg.recovery == RecoveryMode::PersistentStack && self.resume.is_some()
    }

    /// Translates a word that points into a cached SRAM copy to the
    /// equivalent address in the function's FRAM home; any other value is
    /// returned unchanged. Checkpointed stacks and program counters must
    /// be cache-independent: after a reboot the cache is empty, so a
    /// return address into vanished SRAM would wild-jump, while its FRAM
    /// translation lands on the identical instruction bytes (copies are
    /// verbatim; branch indirection goes through relocation words).
    fn to_fram_addr(&self, w: u16) -> u16 {
        if u32::from(w) < u32::from(self.cfg.cache_base) || u32::from(w) >= self.end() {
            return w;
        }
        for e in &self.entries {
            if w >= e.addr && w < e.addr.wrapping_add(e.size) {
                if let Some(f) = self.funcs.get(usize::from(e.id)) {
                    return f.fram_addr.wrapping_add(w - e.addr);
                }
            }
        }
        w
    }

    /// The next checkpoint generation after `g` (15-bit, skipping 0 so a
    /// committed tag is never the invalid value).
    fn next_gen(g: u16) -> u16 {
        if g >= 0x7fff {
            1
        } else {
            g + 1
        }
    }

    /// Persistent-stack commit point: snapshots the execution state —
    /// resume PC, register file, `__sr_fid`, active counters, and the
    /// live stack window (with SRAM return addresses translated to FRAM
    /// homes) — into the standby checkpoint slot under a two-phase
    /// commit, and journals the I/O-port state under the same generation
    /// tag so console/checksum output is exactly-once across a resume.
    ///
    /// Write order is the crash-safety argument: the slot's generation
    /// word is zeroed first (invalidating any stale frame there), the
    /// payload and CRC land next, and the tagged generation word is
    /// published last — a power loss anywhere in between leaves an
    /// unmarked or CRC-invalid slot that boot-time validation rolls
    /// back, falling back to the other slot's older committed frame.
    ///
    /// Opportunities are skipped (counted in `checkpoint_skips`) when a
    /// task table is registered (one resume frame cannot represent
    /// multiple task stacks), when the stack is missing, misaligned,
    /// deeper than the slot window, or not in FRAM; the commit interval
    /// gate is a silent rate limit, not a skip. A `force`d commit — the
    /// brown-out dying gasp — bypasses the interval gate only; the
    /// structural skip conditions still hold.
    fn maybe_checkpoint(
        &mut self,
        cpu: &Cpu,
        bus: &mut Bus,
        resume_pc: u16,
        force: bool,
    ) -> SimResult<()> {
        if !self.ps_active() {
            return Ok(());
        }
        let Some(ra) = self.resume else {
            return Ok(());
        };
        let now = bus.stats().total_cycles();
        if !force {
            if let Some(last) = self.last_commit {
                if now.saturating_sub(last) < self.cfg.checkpoint_interval {
                    return Ok(());
                }
            }
        }
        let sp = cpu.sp();
        let top = STACK_TOP;
        let skip = self.task_table.is_some()
            || sp == 0
            || sp & 1 != 0
            || sp >= top
            || top - sp > ResumeArea::STACK_BYTES
            || !bus.fram_contains(sp, u32::from(top));
        if skip {
            self.stats.borrow_mut().checkpoint_skips += 1;
            if force {
                // A dying gasp that cannot represent the current state
                // must not leave older frames behind: resuming an earlier
                // checkpoint would re-execute the window since it
                // committed, replaying non-idempotent NVRAM writes. The
                // Hibernus-style fail-safe is to clear the valid frames so
                // the next boot replays from the entry point instead.
                for s in 0..2usize {
                    bus.write_word(ra.word_addr(s, 0), 0)?;
                    bus.nv_discard_ports(ra.slot_addrs[s]);
                }
            }
            return Ok(());
        }
        let len = top - sp;

        // Capture the payload: everything after the slot's CRC word, in
        // slot order (`stack_len`, 16 registers, `__sr_fid`, one counter
        // per function, the stack window).
        let mut payload: Vec<u16> = Vec::with_capacity(usize::from(ra.slot_words));
        payload.push(len);
        for r in 0..16u8 {
            payload.push(match r {
                0 => resume_pc,
                1 => sp,
                _ => cpu.reg(Reg::r(r)),
            });
        }
        payload.push(bus.read_word(self.fid_addr, AccessKind::Read)?);
        for i in 0..usize::from(ra.nfuncs) {
            payload.push(match self.funcs.get(i) {
                Some(f) => bus.read_word(f.act_addr, AccessKind::Read)?,
                None => 0,
            });
        }
        for i in 0..len / 2 {
            let w = bus.read_word(sp + 2 * i, AccessKind::Read)?;
            payload.push(self.to_fram_addr(w));
        }

        // Two-phase commit into the standby slot.
        let slot = self.ckpt_slot;
        let gen = ResumeArea::GEN_MARK | self.ckpt_gen;
        bus.write_word(ra.word_addr(slot, 0), 0)?;
        for (i, w) in payload.iter().enumerate() {
            bus.write_word(ra.word_addr(slot, ResumeArea::LEN_OFS + i as u16), *w)?;
        }
        bus.write_word(ra.word_addr(slot, ResumeArea::CRC_OFS), crc16(payload.iter().copied()))?;
        bus.nv_stash_ports(ra.slot_addrs[slot], gen);
        bus.write_word(ra.word_addr(slot, 0), gen)?;

        let words = payload.len() as u64 + 2;
        self.charge(
            bus,
            Category::MissHandler,
            COST.checkpoint_base_instrs + COST.checkpoint_word_instrs * words,
            COST.checkpoint_base_cycles + COST.checkpoint_word_cycles * words,
        )?;
        if self.wd_degraded {
            // Forward progress is provable again: clear the *persistent*
            // degradation so the next boot resumes normal caching. This
            // boot keeps serving misses from FRAM — every instrumented
            // call keeps trapping, so a commit point recurs at least once
            // per checkpoint interval and the resume position advances
            // through the whole boot instead of stalling where a warmed
            // cache would stop trapping.
            bus.write_word(ra.watchdog_addr.wrapping_add(4), 0)?;
            bus.write_word(ra.watchdog_addr.wrapping_add(6), 0)?;
        }
        self.ckpt_slot = 1 - slot;
        self.ckpt_gen = Self::next_gen(self.ckpt_gen);
        self.last_commit = Some(now);
        self.stats.borrow_mut().checkpoint_commits += 1;
        Ok(())
    }

    /// Reads and validates one checkpoint slot's payload. Returns `None`
    /// when the stored length is implausible or the CRC does not match —
    /// a torn commit the caller rolls back.
    fn read_slot(&mut self, bus: &mut Bus, ra: ResumeArea, slot: usize) -> SimResult<Option<Vec<u16>>> {
        let len = bus.read_word(ra.word_addr(slot, ResumeArea::LEN_OFS), AccessKind::Read)?;
        if len & 1 != 0 || len > ResumeArea::STACK_BYTES || len >= STACK_TOP {
            return Ok(None);
        }
        let n = ResumeArea::ACT_OFS - ResumeArea::LEN_OFS + ra.nfuncs + len / 2;
        let mut payload = Vec::with_capacity(usize::from(n));
        for i in 0..n {
            payload.push(bus.read_word(ra.word_addr(slot, ResumeArea::LEN_OFS + i), AccessKind::Read)?);
        }
        let crc = bus.read_word(ra.word_addr(slot, ResumeArea::CRC_OFS), AccessKind::Read)?;
        let words = payload.len() as u64 + 2;
        self.charge(
            bus,
            Category::MissHandler,
            COST.checkpoint_base_instrs + COST.checkpoint_word_instrs * words,
            COST.checkpoint_base_cycles + COST.checkpoint_word_cycles * words,
        )?;
        if crc != crc16(payload.iter().copied()) {
            return Ok(None);
        }
        Ok(Some(payload))
    }

    /// Boot-time resume: picks the newest committed checkpoint slot,
    /// validates it (CRC plus the I/O journal's generation tag), rolls
    /// back torn slots, and restores the execution state. Returns the
    /// resumed frame's state fingerprint (its payload CRC), or `None`
    /// when no valid frame exists (first boot, or both slots torn) — the
    /// program then replays from entry.
    ///
    /// Runs *after* the metadata recovery pass: the cache is empty and
    /// every redirection word is rewound, which is exactly the state the
    /// checkpoint's FRAM-translated stack and resume PC assume.
    fn try_resume(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<Option<u16>> {
        let Some(ra) = self.resume else {
            return Ok(None);
        };
        let mut slots: Vec<(u16, usize)> = Vec::new();
        let mut max_seen = 0u16;
        for s in 0..2usize {
            let tag = bus.read_word(ra.word_addr(s, 0), AccessKind::Read)?;
            if tag & ResumeArea::GEN_MARK == 0 {
                continue;
            }
            let g = tag & !ResumeArea::GEN_MARK;
            max_seen = max_seen.max(g);
            slots.push((g, s));
        }
        // Newest generation first; the older slot is the fallback.
        slots.sort_unstable_by_key(|&(g, _)| std::cmp::Reverse(g));
        for (g, s) in slots {
            let tag = ResumeArea::GEN_MARK | g;
            let valid = self
                .read_slot(bus, ra, s)?
                .filter(|_| bus.nv_stashed_tag(ra.slot_addrs[s]) == Some(tag));
            let Some(payload) = valid else {
                // Torn commit: marked but unverifiable. Roll it back so no
                // later boot can trust it either.
                bus.write_word(ra.word_addr(s, 0), 0)?;
                bus.nv_discard_ports(ra.slot_addrs[s]);
                self.stats.borrow_mut().torn_checkpoints += 1;
                continue;
            };
            self.restore_slot(cpu, bus, ra, s, tag, &payload)?;
            self.ckpt_slot = 1 - s;
            self.ckpt_gen = Self::next_gen(max_seen);
            self.last_commit = Some(bus.stats().total_cycles());
            self.stats.borrow_mut().resumes += 1;
            // The payload CRC doubles as the frame's state fingerprint
            // for the watchdog's progress test: two checkpoints of the
            // same register file, stack, and counters carry the same CRC.
            return Ok(Some(bus.peek_word(ra.word_addr(s, ResumeArea::CRC_OFS))));
        }
        self.ckpt_slot = 0;
        self.ckpt_gen = Self::next_gen(max_seen);
        Ok(None)
    }

    /// Restores a validated checkpoint payload: `__sr_fid`, the active
    /// counters, the stack window, the register file (PC last — it is the
    /// resume point), and the checkpoint-time I/O-port state.
    fn restore_slot(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut Bus,
        ra: ResumeArea,
        slot: usize,
        tag: u16,
        payload: &[u16],
    ) -> SimResult<()> {
        let len = payload[0];
        let fid_at = usize::from(ResumeArea::FID_OFS - ResumeArea::LEN_OFS);
        let acts_start = usize::from(ResumeArea::ACT_OFS - ResumeArea::LEN_OFS);
        bus.write_word(self.fid_addr, payload[fid_at])?;
        for (i, f) in self.funcs.iter().enumerate() {
            let v = payload.get(acts_start + i).copied().unwrap_or(0);
            bus.write_word(f.act_addr, v)?;
        }
        let sp = STACK_TOP - len;
        let stack_start = acts_start + usize::from(ra.nfuncs);
        for i in 0..len / 2 {
            bus.write_word(sp + 2 * i, payload[stack_start + usize::from(i)])?;
        }
        for r in (0..16u8).rev() {
            cpu.set_reg(Reg::r(r), payload[1 + usize::from(r)]);
        }
        bus.nv_restore_ports(ra.slot_addrs[slot], tag);
        let words = payload.len() as u64;
        self.charge(
            bus,
            Category::MissHandler,
            COST.checkpoint_base_instrs + COST.checkpoint_word_instrs * words,
            COST.checkpoint_base_cycles + COST.checkpoint_word_cycles * words,
        )
    }

    /// Per-boot Sisyphus-watchdog bookkeeping over the four persistent
    /// words at `__sr_wdog` (boot count, last resumed state fingerprint,
    /// consecutive zero-progress boots, degraded flag): a boot that
    /// resumes a frame with the *same* fingerprint the previous boot
    /// resumed — or that found nothing to resume at all — made no
    /// provable forward progress (the dying-gasp commit means even a
    /// boot that executed zero useful instructions re-commits an
    /// identical frame, so generation numbers advance while the state
    /// does not); [`SwapConfig::watchdog_boots`] such boots in a row
    /// degrade the runtime to FRAM execution — converting a silent
    /// reboot livelock into a detected, reported state that a later
    /// state-changing committed checkpoint clears.
    fn run_watchdog(&mut self, bus: &mut Bus, resumed_fp: Option<u16>) -> SimResult<bool> {
        let Some(ra) = self.resume else {
            return Ok(false);
        };
        let wa = ra.watchdog_addr;
        let boots = bus.read_word(wa, AccessKind::Read)?;
        let prog = bus.read_word(wa.wrapping_add(2), AccessKind::Read)?;
        let nonprog = bus.read_word(wa.wrapping_add(4), AccessKind::Read)?;
        let degraded = bus.read_word(wa.wrapping_add(6), AccessKind::Read)?;
        let (prog2, nonprog2) = match resumed_fp {
            Some(fp) if fp != prog => (fp, 0),
            _ => (prog, nonprog.saturating_add(1)),
        };
        let mut degraded2 = u16::from(degraded != 0);
        if degraded2 == 0 && nonprog2 >= self.cfg.watchdog_boots {
            degraded2 = 1;
            self.stats.borrow_mut().watchdog_degradations += 1;
        }
        bus.write_word(wa, boots.wrapping_add(1))?;
        bus.write_word(wa.wrapping_add(2), prog2)?;
        bus.write_word(wa.wrapping_add(4), nonprog2)?;
        bus.write_word(wa.wrapping_add(6), degraded2)?;
        self.charge(bus, Category::MissHandler, COST.watchdog_instrs, COST.watchdog_cycles)?;
        self.wd_degraded = degraded2 != 0;
        Ok(self.wd_degraded)
    }

    /// Boot-time recovery with persistent-stack resume: runs the metadata
    /// recovery of [`SwapRuntime::recover`], then — under
    /// [`RecoveryMode::PersistentStack`] — restores the newest committed
    /// checkpoint (if any) and performs the watchdog bookkeeping. Under
    /// the replay modes this is exactly `recover`.
    ///
    /// # Errors
    ///
    /// Propagates bus faults; reports an invariant violation when
    /// checking is enabled.
    pub fn recover_resume(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<RecoveryOutcome> {
        bus.set_runtime_mode(true);
        let out = self.recover_resume_inner(cpu, bus);
        bus.set_runtime_mode(false);
        out
    }

    fn recover_resume_inner(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<RecoveryOutcome> {
        let mut outcome = self.recover_inner(bus)?;
        if self.ps_active() {
            let fingerprint = self.try_resume(cpu, bus)?;
            outcome.resumed = fingerprint.is_some();
            outcome.watchdog_degraded = self.run_watchdog(bus, fingerprint)?;
            self.enforce_invariants(bus)?;
        }
        Ok(outcome)
    }

    /// Runs the metadata invariant checker (host-side, charge-free).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self, bus: &Bus) -> Result<(), String> {
        crate::invariants::check(self, bus)
    }

    /// Wraps [`SwapRuntime::check_invariants`] into the simulator error
    /// type when the configuration enables per-miss checking.
    fn enforce_invariants(&self, bus: &Bus) -> SimResult<()> {
        if !self.cfg.check_invariants {
            return Ok(());
        }
        self.check_invariants(bus)
            .map_err(|m| SimError::Hook(format!("SwapRAM invariant violation: {m}")))
    }

    fn end(&self) -> u32 {
        u32::from(self.cfg.cache_base) + u32::from(self.cfg.cache_size)
    }

    /// Charges `instrs` handler instructions: Figure-8 attribution plus a
    /// replay of the instruction fetches against the FRAM handler window
    /// (so they pay wait states and contend for the hardware cache).
    fn charge(&mut self, bus: &mut Bus, cat: Category, instrs: u64, cycles: u64) -> SimResult<()> {
        bus.stats_mut().charge_modeled(cat, instrs, cycles);
        bus.replay_handler_fetches(HANDLER_CODE_BASE, &mut self.fetch_cursor, instrs)
    }

    /// Aligned size (functions occupy whole words).
    fn span_of(f: &SwapFunc) -> u16 {
        (f.size + 1) & !1
    }

    /// Chooses the placement address for `size` bytes according to the
    /// active policy. Returns `None` if the function cannot fit at all.
    fn choose_place(&self, size: u16) -> Option<u16> {
        if u32::from(size) > u32::from(self.cfg.cache_size) {
            return None;
        }
        let fits_at_tail = u32::from(self.tail) + u32::from(size) <= self.end();
        match self.cfg.policy {
            PolicyKind::CircularQueue | PolicyKind::FreezeOnThrash => {
                Some(if fits_at_tail { self.tail } else { self.cfg.cache_base })
            }
            PolicyKind::Stack => Some(if fits_at_tail {
                self.tail
            } else {
                // Most-recently-cached replacement: overwrite the top.
                (self.end() - u32::from(size)) as u16
            }),
            PolicyKind::PriorityCost => {
                Some(if fits_at_tail { self.tail } else { self.cfg.cache_base })
            }
        }
    }

    /// Candidate placements, best first. For the simple policies this is
    /// the single queue-natural spot; [`PolicyKind::PriorityCost`]
    /// additionally considers starting at each cached entry — ordered by
    /// recache cost (sum of victim sizes) — so it can route around active
    /// functions instead of falling back to FRAM execution (the §3.3.3
    /// pathological case).
    fn placement_candidates(&self, size: u16) -> Vec<u16> {
        let Some(primary) = self.choose_place(size) else {
            return Vec::new();
        };
        if !matches!(self.cfg.policy, PolicyKind::PriorityCost) {
            return vec![primary];
        }
        let mut cands: Vec<u16> = vec![primary, self.cfg.cache_base];
        for e in &self.entries {
            if u32::from(e.addr) + u32::from(size) <= self.end() {
                cands.push(e.addr);
            }
        }
        cands.sort_unstable();
        cands.dedup();
        let mut scored: Vec<(u64, u16)> = cands
            .into_iter()
            .map(|p| {
                let cost: u64 =
                    self.overlapping(p, size).iter().map(|e| u64::from(e.size)).sum();
                // Prefer the queue-natural spot on ties.
                (cost * 2 + u64::from(p != primary), p)
            })
            .collect();
        scored.sort_unstable();
        scored.into_iter().map(|(_, p)| p).collect()
    }

    /// Entries overlapping `[place, place + size)`.
    fn overlapping(&self, place: u16, size: u16) -> Vec<Entry> {
        let lo = u32::from(place);
        let hi = lo + u32::from(size);
        self.entries
            .iter()
            .copied()
            .filter(|e| {
                let a = u32::from(e.addr);
                let b = a + u32::from(e.size);
                a < hi && b > lo
            })
            .collect()
    }

    fn func(&self, id: u16) -> SimResult<&SwapFunc> {
        self.funcs
            .get(usize::from(id))
            .ok_or_else(|| SimError::Hook(format!("invalid funcId {id}")))
    }

    /// Initial (FRAM-target) values of a function's relocation words.
    fn fram_reloc_values(f: &SwapFunc) -> Vec<u16> {
        f.relocs.iter().map(|r| f.fram_addr.wrapping_add(r.ofs)).collect()
    }

    /// Recomputes and stores a function's guard word for the metadata
    /// state (`redir`, `reloc_values`) just written, charging the modeled
    /// CRC effort.
    fn refresh_guard(
        &mut self,
        bus: &mut Bus,
        f: &SwapFunc,
        redir: u16,
        reloc_values: &[u16],
    ) -> SimResult<()> {
        let Some(ga) = f.guard_addr else {
            return Ok(());
        };
        bus.write_word(ga, guard_value(redir, reloc_values))?;
        let words = 1 + reloc_values.len() as u64;
        self.charge(
            bus,
            Category::MissHandler,
            COST.guard_base_instrs + COST.guard_word_instrs * words,
            COST.guard_base_cycles + COST.guard_word_cycles * words,
        )
    }

    /// Verifies a function's guard word against the metadata actually in
    /// FRAM. Returns `false` on a CRC mismatch *or* when the (CRC-clean)
    /// state is not one the volatile view permits — a cached function's
    /// redirection word must match its SRAM slot, an uncached one must
    /// point at the trap window or its FRAM home.
    fn verify_func_guard(&mut self, bus: &mut Bus, f: &SwapFunc) -> SimResult<bool> {
        let Some(ga) = f.guard_addr else {
            return Ok(true);
        };
        let redir = bus.read_word(f.redir_addr, AccessKind::Read)?;
        let mut vals = Vec::with_capacity(f.relocs.len());
        for r in &f.relocs {
            vals.push(bus.read_word(r.reloc_addr, AccessKind::Read)?);
        }
        let stored = bus.read_word(ga, AccessKind::Read)?;
        let words = 1 + vals.len() as u64;
        self.charge(
            bus,
            Category::MissHandler,
            COST.guard_base_instrs + COST.guard_word_instrs * words,
            COST.guard_base_cycles + COST.guard_word_cycles * words,
        )?;
        self.stats.borrow_mut().guard_checks += 1;
        if stored != guard_value(redir, &vals) {
            return Ok(false);
        }
        Ok(match self.entries.iter().find(|e| e.id == f.id) {
            Some(e) => redir == e.addr,
            None => redir == TRAP_ADDR || redir == f.fram_addr,
        })
    }

    /// Repairs a function whose metadata failed verification: rebuild the
    /// uncached state from the immutable image-derived records (redirection
    /// to the trap window, relocations to FRAM targets, counter cleared,
    /// guard refreshed) and drop any stale cache entry. The next call
    /// simply misses again — corruption costs a re-fill, never a wild jump.
    fn repair_function(&mut self, bus: &mut Bus, fid: u16) -> SimResult<()> {
        self.entries.retain(|e| e.id != fid);
        self.rewind_function(bus, fid)?;
        self.stats.borrow_mut().guard_repairs += 1;
        Ok(())
    }

    /// Cheap per-miss scrub: every cached entry's redirection word must
    /// still point at its SRAM slot. A mismatch means corruption; repair
    /// before any eviction could overwrite the evidence.
    fn scrub_cached(&mut self, bus: &mut Bus) -> SimResult<()> {
        let snapshot: Vec<Entry> = self.entries.iter().copied().collect();
        for e in snapshot {
            let f = self.func(e.id)?.clone();
            let redir = bus.read_word(f.redir_addr, AccessKind::Read)?;
            self.charge(bus, Category::MissHandler, COST.scan_instrs, COST.scan_cycles)?;
            self.stats.borrow_mut().guard_checks += 1;
            if redir != e.addr {
                self.repair_function(bus, e.id)?;
            }
        }
        Ok(())
    }

    /// Whether any live stack word holds a return address into
    /// `[lo, hi)` — the integrity backstop for a corrupted (flipped-to-
    /// zero) active counter: a function whose caller's return address is
    /// on the stack must not be evicted even if its counter claims it is
    /// not active. Scans a bounded window above SP; a false positive only
    /// delays eviction (safe), a true positive prevents executing through
    /// overwritten code.
    fn stack_pins(&mut self, cpu: &Cpu, bus: &mut Bus, lo: u16, hi: u16) -> SimResult<bool> {
        let sp = cpu.sp();
        if sp == 0 || sp & 1 != 0 {
            return Ok(false);
        }
        let region = bus.map().region_of(sp);
        let mut pinned = false;
        let mut words = 0u64;
        for i in 0..64u16 {
            let addr = sp.wrapping_add(2 * i);
            if addr < sp || bus.map().region_of(addr) != region {
                break;
            }
            let w = bus.read_word(addr, AccessKind::Read)?;
            words += 1;
            if w >= lo && w < hi {
                pinned = true;
                break;
            }
        }
        self.charge(bus, Category::MissHandler, 2 + words / 2, 4 + words)?;
        Ok(pinned)
    }

    /// Like [`SwapRuntime::stack_pins`], but over the *suspended* task
    /// stacks named by the registered task table: the live SP scan only
    /// covers the running task, yet a preempted task's return addresses
    /// pin cached code just the same — evicting through them wild-jumps
    /// on the next context switch. [`IsrProtocol::Masked`] hardening only.
    fn task_stack_pins(&mut self, bus: &mut Bus, lo: u16, hi: u16) -> SimResult<bool> {
        let Some((table, ntasks)) = self.task_table else {
            return Ok(false);
        };
        let mut words = 0u64;
        let mut pinned = false;
        'tasks: for t in 0..ntasks {
            let sp = bus.read_word(table.wrapping_add(2 * t), AccessKind::Read)?;
            words += 1;
            if sp == 0 || sp & 1 != 0 {
                // An unprimed (or dead) task has no stack to honour.
                continue;
            }
            let region = bus.map().region_of(sp);
            for i in 0..64u16 {
                let addr = sp.wrapping_add(2 * i);
                if addr < sp || bus.map().region_of(addr) != region {
                    break;
                }
                let w = bus.read_word(addr, AccessKind::Read)?;
                words += 1;
                if w >= lo && w < hi {
                    pinned = true;
                    break 'tasks;
                }
            }
        }
        self.charge(bus, Category::MissHandler, 2 + words / 2, 4 + words)?;
        Ok(pinned)
    }

    /// [`IsrProtocol::Unprotected`] preemption point: when an interrupt is
    /// pending and enabled, re-arm the trapping `CALL &__sr_redir_f`
    /// (pop its return address, back the PC up to the call) and return so
    /// the machine delivers the ISR first — the call then re-executes and
    /// re-traps. This reproduces an interrupt-oblivious handler's exposure:
    /// the ISR runs between the call site's `MOV #fid, &__sr_fid` and the
    /// (re-executed) dispatch, so an instrumented ISR clobbers the id.
    /// Returns `true` when the yield was taken (the caller must resume).
    fn try_isr_yield(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<bool> {
        if self.cfg.isr_protocol != IsrProtocol::Unprotected {
            return Ok(false);
        }
        bus.poll_timer();
        if !bus.irq_pending() || cpu.sr() & FLAG_GIE == 0 {
            return Ok(false);
        }
        let sp = cpu.sp();
        if sp == 0 || sp & 1 != 0 {
            return Ok(false);
        }
        let ret = bus.read_word(sp, AccessKind::Read)?;
        let site = bus.read_word(ret.wrapping_sub(2), AccessKind::Read).unwrap_or(0);
        if !self.funcs.iter().any(|g| g.redir_addr == site) {
            // Not a recognisable instrumented-call frame (direct-drive
            // harness): yielding could not be re-armed safely, stay put.
            return Ok(false);
        }
        // `CALL &abs` is two words; the return address points just past it.
        cpu.set_sp(sp.wrapping_add(2));
        cpu.set_pc(ret.wrapping_sub(4));
        self.stats.borrow_mut().isr_yields += 1;
        Ok(true)
    }

    /// Authenticates a trap entry against its call site and returns the
    /// verified function id, repairing a corrupted `funcId` word or a
    /// bit-flipped redirection word that still landed inside the trap
    /// window. `CALL &__sr_redir_f` is the only instruction that targets
    /// the trap window, and its absolute operand — the redirection-word
    /// address — sits two bytes before the return address it pushed, so
    /// the stack cross-identifies the callee independently of `__sr_fid`.
    fn authenticate_trap(
        &mut self,
        cpu: &Cpu,
        bus: &mut Bus,
        fid: u16,
        trap_pc: u16,
    ) -> SimResult<u16> {
        let sp = cpu.sp();
        if sp == 0 || sp & 1 != 0 {
            // No stack has been set up, so no call can have pushed a return
            // address (a push through SP 0 would have faulted); a valid
            // funcId is the only evidence available. Only direct-drive
            // harnesses reach this — a real call always has a stack.
            return if trap_pc == TRAP_ADDR && usize::from(fid) < self.funcs.len() {
                Ok(fid)
            } else {
                Err(SimError::Hook(format!(
                    "trap at 0x{trap_pc:04x} with funcId {fid} and no stack to cross-check"
                )))
            };
        }
        let ret = bus.read_word(sp, AccessKind::Read)?;
        let site = bus.read_word(ret.wrapping_sub(2), AccessKind::Read).unwrap_or(0);
        self.charge(
            bus,
            Category::MissHandler,
            COST.guard_base_instrs,
            COST.guard_base_cycles,
        )?;
        self.stats.borrow_mut().guard_checks += 1;
        let by_site = self.funcs.iter().position(|g| g.redir_addr == site).map(|i| i as u16);
        if trap_pc != TRAP_ADDR {
            // A corrupted redirection word that still points into the trap
            // window: recover the callee from the call site or give up
            // with a typed error — never guess.
            let Some(gid) = by_site else {
                return Err(SimError::Hook(format!(
                    "corrupted trap at 0x{trap_pc:04x}: call site does not identify a function"
                )));
            };
            self.repair_function(bus, gid)?;
            return Ok(gid);
        }
        if self.funcs.get(usize::from(fid)).is_some_and(|g| g.redir_addr == site) {
            return Ok(fid);
        }
        match by_site {
            Some(gid) => {
                // `__sr_fid` disagrees with the call site: the word was
                // corrupted — or clobbered by an ISR's own instrumented
                // call inside the publish window — after the call site
                // wrote it. Repair it from the stack's evidence.
                bus.write_word(self.fid_addr, gid)?;
                let mut stats = self.stats.borrow_mut();
                stats.guard_repairs += 1;
                stats.fid_repairs += 1;
                Ok(gid)
            }
            None => Err(SimError::Hook(format!(
                "trap with funcId {fid} but no call site identifies a function"
            ))),
        }
    }

    /// Evicts `victim`: reset its redirection word to the trap address and
    /// its relocation words to their FRAM targets (§3.3.2).
    fn evict(&mut self, bus: &mut Bus, victim: Entry) -> SimResult<()> {
        let f = self.func(victim.id)?.clone();
        bus.write_word(f.redir_addr, TRAP_ADDR)?;
        let reloc_count = f.relocs.len() as u64;
        for r in &f.relocs {
            bus.write_word(r.reloc_addr, f.fram_addr.wrapping_add(r.ofs))?;
        }
        self.charge(
            bus,
            Category::MissHandler,
            COST.evict_instrs + COST.reloc_instrs * reloc_count,
            COST.evict_cycles + COST.reloc_cycles * reloc_count,
        )?;
        self.entries.retain(|e| e.id != victim.id);
        let vals = Self::fram_reloc_values(&f);
        self.refresh_guard(bus, &f, TRAP_ADDR, &vals)?;
        let mut stats = self.stats.borrow_mut();
        stats.evictions += 1;
        drop(stats);
        self.recent_evictions.push_back(victim.id);
        while self.recent_evictions.len() > THRASH_WINDOW {
            self.recent_evictions.pop_front();
        }
        Ok(())
    }

    /// Copies the function body into SRAM through the bus and fixes up its
    /// relocation words (§3.3.1).
    fn fill(&mut self, bus: &mut Bus, f: &SwapFunc, place: u16) -> SimResult<()> {
        let words = u64::from(Self::span_of(f) / 2);
        for i in 0..words as u16 {
            let w = bus.read_word(f.fram_addr + 2 * i, AccessKind::Read)?;
            bus.write_word(place + 2 * i, w)?;
        }
        self.charge(
            bus,
            Category::Memcpy,
            COST.copy_word_instrs * words,
            COST.copy_word_cycles * words,
        )?;
        let reloc_count = f.relocs.len() as u64;
        for r in &f.relocs {
            let mut ofs = bus.read_word(r.rofs_addr, AccessKind::Read)?;
            if self.cfg.guards && ofs != r.ofs {
                // The static offset word disagrees with the immutable
                // host-side record: repair the word and use ground truth.
                bus.write_word(r.rofs_addr, r.ofs)?;
                self.stats.borrow_mut().guard_repairs += 1;
                ofs = r.ofs;
            }
            bus.write_word(r.reloc_addr, place.wrapping_add(ofs))?;
        }
        bus.write_word(f.redir_addr, place)?;
        self.charge(
            bus,
            Category::MissHandler,
            COST.reloc_instrs * reloc_count,
            COST.reloc_cycles * reloc_count,
        )?;
        let vals: Vec<u16> = f.relocs.iter().map(|r| place.wrapping_add(r.ofs)).collect();
        self.refresh_guard(bus, f, place, &vals)?;
        let mut stats = self.stats.borrow_mut();
        stats.fills += 1;
        stats.bytes_copied += u64::from(Self::span_of(f));
        Ok(())
    }

    /// Appends `fid` to the persistent dirty log — the write-ahead step of
    /// crash consistency: the entry and count land in FRAM *before* the
    /// caching operation's first metadata write, so a power loss at any
    /// later point finds the function in the log and recovery rewinds it.
    /// (Slot before count: a crash between the two leaves the orphaned
    /// slot above the count, invisible and harmless.)
    ///
    /// Returns `false` when the log cannot take the entry (defensive —
    /// with per-generation dedup and one slot per function the log cannot
    /// actually fill); the caller must then skip caching.
    fn journal_append(&mut self, bus: &mut Bus, fid: u16) -> SimResult<bool> {
        let Some(j) = self.journal else {
            return Ok(true);
        };
        if self.logged.get(usize::from(fid)).copied().unwrap_or(false) {
            return Ok(true);
        }
        let count = bus.read_word(j.count_addr, AccessKind::Read)?;
        if count >= j.capacity {
            return Ok(false);
        }
        let gen = bus.read_word(j.gen_addr, AccessKind::Read)?;
        bus.write_word(j.slots_addr + 2 * count, journal_entry_word(gen, fid))?;
        bus.write_word(j.count_addr, count + 1)?;
        self.charge(
            bus,
            Category::MissHandler,
            COST.journal_append_instrs,
            COST.journal_append_cycles,
        )?;
        self.logged[usize::from(fid)] = true;
        self.stats.borrow_mut().journal_appends += 1;
        Ok(true)
    }

    /// Boot-time crash recovery: rewinds every function whose persistent
    /// metadata still points into the (now vanished) SRAM cache back to
    /// its FRAM home, so the first instrumented call after a power loss
    /// traps into the handler instead of wild-jumping.
    ///
    /// With an intact dirty log this touches only the logged set —
    /// O(dirty). A torn, stale, or absent log falls back to the full
    /// metadata scan, which additionally clears every active counter
    /// (stale counters after a log recovery are conservative: they can
    /// only delay eviction, never permit evicting live stack code).
    ///
    /// All rewind traffic goes through the bus and is charged, so the
    /// recovery cost is measurable. Call once per boot, before running.
    ///
    /// # Errors
    ///
    /// Propagates bus faults; reports an invariant violation when
    /// checking is enabled.
    pub fn recover(&mut self, bus: &mut Bus) -> SimResult<RecoveryOutcome> {
        // Recovery is trusted runtime work, exactly like the miss
        // handler: its modeled handler fetches and metadata rewinds must
        // not trip the execution sanitizer. The machine brackets hook
        // calls in runtime mode itself, but recovery is invoked directly
        // by boot code, so bracket it here.
        bus.set_runtime_mode(true);
        let out = self.recover_inner(bus);
        bus.set_runtime_mode(false);
        out
    }

    fn recover_inner(&mut self, bus: &mut Bus) -> SimResult<RecoveryOutcome> {
        // Reset the volatile view (fresh runtimes start this way; being
        // idempotent lets one runtime instance survive its own reboots).
        self.entries.clear();
        self.tail = self.cfg.cache_base;
        self.recent_evictions.clear();
        self.thrash_run = 0;
        self.fallback_run = 0;
        self.freeze_left = 0;
        self.logged.iter_mut().for_each(|l| *l = false);

        self.charge(
            bus,
            Category::MissHandler,
            COST.recover_base_instrs,
            COST.recover_base_cycles,
        )?;
        let want_log = self.cfg.recovery == RecoveryMode::DirtyLog && self.journal.is_some();
        let from_log = if want_log { self.recover_from_log(bus)? } else { None };
        let journal_fallback = want_log && from_log.is_none();
        let (mode, rewound) = match from_log {
            Some(n) => (RecoveryMode::DirtyLog, n),
            None => (RecoveryMode::FullScan, self.recover_full_scan(bus)?),
        };

        // Close the generation: bump the tag, then zero the count. A crash
        // between the two leaves old-generation entries under a new tag —
        // the next recovery sees the mismatch and falls back to the full
        // scan, so re-recovery is always safe.
        if let Some(j) = self.journal {
            let gen = bus.read_word(j.gen_addr, AccessKind::Read)?;
            bus.write_word(j.gen_addr, gen.wrapping_add(1))?;
            bus.write_word(j.count_addr, 0)?;
        }

        let mut stats = self.stats.borrow_mut();
        stats.recoveries += 1;
        stats.recovered_functions += rewound;
        if journal_fallback {
            stats.journal_fallbacks += 1;
        }
        drop(stats);
        self.enforce_invariants(bus)?;
        Ok(RecoveryOutcome {
            mode,
            rewound,
            journal_fallback,
            resumed: false,
            watchdog_degraded: false,
        })
    }

    /// Rewinds the functions named by an intact dirty log. Returns `None`
    /// if any header or entry fails validation (torn write, stale
    /// generation, corrupt id) — the caller then falls back to the scan.
    fn recover_from_log(&mut self, bus: &mut Bus) -> SimResult<Option<u64>> {
        let Some(j) = self.journal else {
            return Ok(None);
        };
        let count = bus.read_word(j.count_addr, AccessKind::Read)?;
        if count > j.capacity {
            return Ok(None);
        }
        let gen = bus.read_word(j.gen_addr, AccessKind::Read)?;
        let nfuncs = self.funcs.len() as u16;
        let mut fids = Vec::with_capacity(usize::from(count));
        for i in 0..count {
            let entry = bus.read_word(j.slots_addr + 2 * i, AccessKind::Read)?;
            match journal_entry_fid(entry, gen, nfuncs) {
                Some(fid) => fids.push(fid),
                None => return Ok(None),
            }
        }
        let mut rewound = 0u64;
        let mut seen = vec![false; self.funcs.len()];
        for fid in fids {
            if std::mem::replace(&mut seen[usize::from(fid)], true) {
                continue;
            }
            self.rewind_function(bus, fid)?;
            rewound += 1;
        }
        Ok(Some(rewound))
    }

    /// The always-available recovery path: inspect every function, rewind
    /// whatever still points into SRAM, clear every stale active counter.
    /// O(functions) reads, writes only where metadata is actually dirty.
    fn recover_full_scan(&mut self, bus: &mut Bus) -> SimResult<u64> {
        let mut rewound = 0u64;
        for i in 0..self.funcs.len() {
            let f = self.funcs[i].clone();
            let redir = bus.read_word(f.redir_addr, AccessKind::Read)?;
            // A permanent FRAM redirect (too-large function) is
            // crash-safe and worth preserving across reboots.
            let mut dirty = redir != TRAP_ADDR && redir != f.fram_addr;
            let mut reloc_vals = Vec::with_capacity(f.relocs.len());
            for r in &f.relocs {
                let reloc = bus.read_word(r.reloc_addr, AccessKind::Read)?;
                dirty |= reloc != f.fram_addr.wrapping_add(r.ofs);
                reloc_vals.push(reloc);
            }
            let act = bus.read_word(f.act_addr, AccessKind::Read)?;
            if dirty {
                self.rewind_function(bus, f.id)?;
                rewound += 1;
            } else if act != 0 {
                bus.write_word(f.act_addr, 0)?;
            }
            if self.cfg.guards {
                // The sweep already has every guarded word in hand: repair
                // flipped static-offset words from the immutable host-side
                // records and re-seat a stale or corrupted guard word.
                for r in &f.relocs {
                    let ofs = bus.read_word(r.rofs_addr, AccessKind::Read)?;
                    if ofs != r.ofs {
                        bus.write_word(r.rofs_addr, r.ofs)?;
                        self.stats.borrow_mut().guard_repairs += 1;
                    }
                }
                if let Some(ga) = f.guard_addr {
                    let (redir_now, vals) = if dirty {
                        (TRAP_ADDR, Self::fram_reloc_values(&f))
                    } else {
                        (redir, reloc_vals)
                    };
                    let stored = bus.read_word(ga, AccessKind::Read)?;
                    let words = 1 + vals.len() as u64;
                    self.charge(
                        bus,
                        Category::MissHandler,
                        COST.guard_base_instrs + COST.guard_word_instrs * words,
                        COST.guard_base_cycles + COST.guard_word_cycles * words,
                    )?;
                    self.stats.borrow_mut().guard_checks += 1;
                    let expected = guard_value(redir_now, &vals);
                    if stored != expected {
                        bus.write_word(ga, expected)?;
                        self.stats.borrow_mut().guard_repairs += 1;
                    }
                }
            }
            self.charge(
                bus,
                Category::MissHandler,
                COST.scan_instrs,
                COST.scan_cycles,
            )?;
        }
        Ok(rewound)
    }

    /// Rewinds one function's persistent metadata to its FRAM home:
    /// redirection word back to the trap address, relocation words back to
    /// FRAM targets, active counter cleared. Idempotent.
    fn rewind_function(&mut self, bus: &mut Bus, fid: u16) -> SimResult<()> {
        let f = self.func(fid)?.clone();
        bus.write_word(f.redir_addr, TRAP_ADDR)?;
        for r in &f.relocs {
            bus.write_word(r.reloc_addr, f.fram_addr.wrapping_add(r.ofs))?;
        }
        bus.write_word(f.act_addr, 0)?;
        self.charge(
            bus,
            Category::MissHandler,
            COST.recover_func_instrs + COST.reloc_instrs * f.relocs.len() as u64,
            COST.recover_func_cycles + COST.reloc_cycles * f.relocs.len() as u64,
        )?;
        let vals = Self::fram_reloc_values(&f);
        self.refresh_guard(bus, &f, TRAP_ADDR, &vals)?;
        Ok(())
    }

    /// Undoes a failed [`SwapRuntime::fill`]: relocation words written
    /// before the failure point back to FRAM targets (the redirection
    /// word is written last by `fill`, so it still holds the trap address
    /// and needs no repair). Without this, degrading to FRAM execution
    /// could leave a branch pointing into an SRAM copy that was never
    /// committed.
    fn unfill(&mut self, bus: &mut Bus, f: &SwapFunc) -> SimResult<()> {
        for r in &f.relocs {
            bus.write_word(r.reloc_addr, f.fram_addr.wrapping_add(r.ofs))?;
        }
        let vals = Self::fram_reloc_values(f);
        self.refresh_guard(bus, f, TRAP_ADDR, &vals)?;
        Ok(())
    }

    /// Thrash detection for [`PolicyKind::FreezeOnThrash`]: a run of misses
    /// whose targets were all evicted recently indicates the §5.4
    /// pathological pattern; freeze eviction for a while.
    fn note_thrash(&mut self, id: u16) {
        if !matches!(self.cfg.policy, PolicyKind::FreezeOnThrash) {
            return;
        }
        if self.recent_evictions.contains(&id) {
            self.thrash_run += 1;
            if self.thrash_run >= 4 {
                self.freeze_left = FREEZE_MISSES;
                self.thrash_run = 0;
                self.stats.borrow_mut().freezes += 1;
            }
        } else {
            self.thrash_run = 0;
        }
    }

    /// A run of active-counter fallbacks is the other thrash signature
    /// (§5.4's AES case: a function repeatedly fails to evict its own
    /// caller). Freeze so subsequent misses skip the scan entirely.
    fn note_fallback_thrash(&mut self) {
        if !matches!(self.cfg.policy, PolicyKind::FreezeOnThrash) {
            return;
        }
        self.fallback_run += 1;
        if self.fallback_run >= 4 {
            self.freeze_left = FREEZE_MISSES;
            self.fallback_run = 0;
            self.stats.borrow_mut().freezes += 1;
        }
    }
}

impl Hook for SwapRuntime {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    /// Brown-out dying gasp (the Hibernus / QuickRecall model): the
    /// supply crossed its threshold and the capacitor tail powers one
    /// final forced checkpoint at the exact interruption point. Because
    /// the next boot resumes *here* — not at an earlier periodic commit —
    /// no instruction window is ever re-executed on the resume path,
    /// which keeps checkpointing sound for programs that mutate
    /// non-volatile data in place (no write-after-read replay hazard).
    /// Periodic trap/ISR-entry commits remain as hardening: they are the
    /// fallback frames when a gasp commit itself tears mid-write.
    fn on_power_failing(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<()> {
        let resume_pc = self.to_fram_addr(cpu.pc());
        self.maybe_checkpoint(cpu, bus, resume_pc, true)
    }

    /// Invariant oracle at every interrupt boundary: the metadata must be
    /// consistent at ISR entry (whatever the handler was doing when
    /// preempted) and again after `RETI` (whatever the ISR did to it).
    fn on_interrupt_boundary(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut Bus,
        boundary: IrqBoundary,
    ) -> SimResult<()> {
        if boundary == IrqBoundary::Entry {
            // Timer-driven commit point (the Mementos idiom): the entry
            // boundary fires before the hardware pushes the interrupt
            // frame, so the CPU still holds the interrupted program's
            // state — a pure program snapshot. The interrupted PC may sit
            // inside a cached SRAM copy; translate it to the FRAM home so
            // the resume lands on identical instruction bytes with an
            // empty cache. (The pending interrupt itself is volatile and
            // is simply re-raised by the re-armed timer after a reboot.)
            let resume_pc = self.to_fram_addr(cpu.pc());
            self.maybe_checkpoint(cpu, bus, resume_pc, false)?;
        }
        if !self.cfg.check_invariants {
            return Ok(());
        }
        self.stats.borrow_mut().boundary_checks += 1;
        self.check_invariants(bus)
            .map_err(|m| SimError::Hook(format!("SwapRAM invariant violation at interrupt boundary: {m}")))
    }

    fn on_trap(&mut self, cpu: &mut Cpu, bus: &mut Bus, trap_pc: u16) -> SimResult<TrapAction> {
        if !self.cfg.guards && trap_pc != TRAP_ADDR {
            return Err(SimError::Hook(format!(
                "unexpected trap at 0x{trap_pc:04x} (SwapRAM trap is 0x{TRAP_ADDR:04x})"
            )));
        }
        // Unprotected entry preemption point: let a pending ISR run before
        // any miss bookkeeping (the re-armed call re-traps afterwards, so
        // the miss is not lost — it may be counted twice).
        if trap_pc == TRAP_ADDR && self.try_isr_yield(cpu, bus)? {
            return Ok(TrapAction::Resume);
        }
        self.stats.borrow_mut().misses += 1;
        // Handler entry: save argument registers, read funcId, look up the
        // function-info record (one metadata read from FRAM).
        self.charge(bus, Category::MissHandler, COST.entry_instrs, COST.entry_cycles)?;
        let mut fid = bus.read_word(self.fid_addr, AccessKind::Read)?;
        if self.cfg.guards {
            // Cross-check the funcId against the call site (repairing it or
            // a wild-in-window redirection word), scrub cached redirection
            // words, then verify the target's guard before trusting any of
            // its metadata — a mismatch rebuilds the entry from the image.
            fid = self.authenticate_trap(cpu, bus, fid, trap_pc)?;
            self.scrub_cached(bus)?;
            let target = self.func(fid)?.clone();
            if !self.verify_func_guard(bus, &target)? {
                self.repair_function(bus, fid)?;
            }
        }
        let f = self.func(fid)?.clone();
        // Trap-entry commit point: the trap window is a stable FRAM
        // address, so a resume that restores this PC simply re-traps and
        // re-services the miss against the recovered (empty) cache.
        self.maybe_checkpoint(cpu, bus, TRAP_ADDR, false)?;
        let exit = |rt: &mut SwapRuntime, cpu: &mut Cpu, bus: &mut Bus, target: u16| {
            cpu.set_pc(target);
            rt.charge(bus, Category::MissHandler, COST.exit_instrs, COST.exit_cycles)?;
            rt.enforce_invariants(bus)?;
            Ok(TrapAction::Resume)
        };
        // Watchdog-degraded service: run the callee from its FRAM home
        // without writing a permanent redirect — the call keeps trapping,
        // so commit points keep occurring and a successful checkpoint can
        // lift the degradation.
        if self.wd_degraded {
            self.stats.borrow_mut().watchdog_fallbacks += 1;
            return exit(self, cpu, bus, f.fram_addr);
        }

        // Defensive: already cached (e.g. racing call sites) — re-chain.
        if let Some(e) = self.entries.iter().find(|e| e.id == fid).copied() {
            bus.write_word(f.redir_addr, e.addr)?;
            self.stats.borrow_mut().rechains += 1;
            return exit(self, cpu, bus, e.addr);
        }

        let size = Self::span_of(&f);
        let candidates = self.placement_candidates(size);
        // Too large to ever cache: permanently redirect to FRAM (§3's
        // "deliberately avoid caching" escape hatch).
        if candidates.is_empty() {
            bus.write_word(f.redir_addr, f.fram_addr)?;
            let vals = Self::fram_reloc_values(&f);
            self.refresh_guard(bus, &f, f.fram_addr, &vals)?;
            self.stats.borrow_mut().too_large += 1;
            return exit(self, cpu, bus, f.fram_addr);
        }

        self.note_thrash(fid);
        if self.freeze_left > 0 {
            self.freeze_left -= 1;
            self.stats.borrow_mut().frozen_fallbacks += 1;
            return exit(self, cpu, bus, f.fram_addr);
        }

        // Flag overlapping functions for eviction; reading each flagged
        // function's active counter is a metadata read (§3.3.2–3.3.3).
        // A candidate blocked by an active (on-stack) function is skipped;
        // only PriorityCost has more than one candidate to try.
        let mut chosen: Option<(u16, Vec<Entry>)> = None;
        for place in candidates {
            let mut flagged = self.overlapping(place, size);
            self.charge(
                bus,
                Category::MissHandler,
                COST.scan_instrs * (flagged.len() as u64 + 1),
                COST.scan_cycles * (flagged.len() as u64 + 1),
            )?;
            let mut blocked = false;
            for e in &flagged {
                let g = self.func(e.id)?.clone();
                if self.cfg.guards && !self.verify_func_guard(bus, &g)? {
                    // Corrupted victim metadata: repair (rewind + drop)
                    // before eviction could overwrite the evidence. The
                    // repaired victim no longer occupies the window.
                    self.repair_function(bus, e.id)?;
                    continue;
                }
                let act = bus.read_word(g.act_addr, AccessKind::Read)?;
                if self.cfg.guards && !plausible_act(act) {
                    // A corrupted counter cannot prove the victim is
                    // off-stack: treat it as active and degrade rather
                    // than evict possibly-live code.
                    self.stats.borrow_mut().guard_degraded += 1;
                    blocked = true;
                    break;
                }
                if act != 0 {
                    blocked = true;
                    break;
                }
                if self.cfg.guards
                    && self.stack_pins(cpu, bus, e.addr, e.addr.wrapping_add(e.size))?
                {
                    // A return address into the victim pins it even when
                    // its (possibly corrupted) counter claims otherwise.
                    blocked = true;
                    break;
                }
                if self.cfg.isr_protocol == IsrProtocol::Masked
                    && self.task_stack_pins(bus, e.addr, e.addr.wrapping_add(e.size))?
                {
                    // A suspended task's return address pins the victim:
                    // its active counter only tracks the running task.
                    blocked = true;
                    break;
                }
            }
            if !blocked {
                flagged.retain(|e| self.entries.contains(e));
                chosen = Some((place, flagged));
                break;
            }
        }
        let Some((place, flagged)) = chosen else {
            // Every candidate window holds call-stack code: abort and run
            // the callee from NVRAM this time (§3.3.3).
            self.stats.borrow_mut().active_fallbacks += 1;
            self.note_fallback_thrash();
            return exit(self, cpu, bus, f.fram_addr);
        };
        // Write-ahead: the dirty log must name this function before the
        // first metadata write of the caching operation (the victims'
        // entries were logged when *they* were cached).
        if !self.journal_append(bus, fid)? {
            self.stats.borrow_mut().degraded += 1;
            return exit(self, cpu, bus, f.fram_addr);
        }
        for e in flagged {
            self.evict(bus, e)?;
            // Unprotected mid-eviction preemption point: each completed
            // eviction leaves the metadata self-consistent, so yielding
            // here is state-safe — the hazard it opens is the ISR missing
            // and re-placing functions under the interrupted handler.
            if self.try_isr_yield(cpu, bus)? {
                return Ok(TrapAction::Resume);
            }
        }

        if let Err(err) = self.fill(bus, &f, place) {
            // Abort-to-FRAM degradation: rewind whatever relocation words
            // the partial fill wrote (the redirection word is written last
            // and still holds the trap address), then run the callee from
            // FRAM this time instead of killing the machine.
            self.unfill(bus, &f).map_err(|_| err)?;
            self.stats.borrow_mut().degraded += 1;
            return exit(self, cpu, bus, f.fram_addr);
        }
        self.fallback_run = 0;
        self.entries.push_back(Entry { id: fid, addr: place, size });
        self.tail = place.wrapping_add(size);
        exit(self, cpu, bus, place)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::instrument;
    use msp430_asm::layout::LayoutConfig;
    use msp430_asm::parser::parse;
    use msp430_sim::freq::Frequency;
    use msp430_sim::machine::Fr2355;
    use msp430_sim::ports::checksum_of_words;

    /// A program with three functions: main calls `inc3` and `dbl` in a
    /// loop and emits the result.
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
    mov #0, r10
    mov #5, r11
main_loop:
    mov r10, r12
    call #inc3
    call #dbl
    mov r12, r10
    dec r11
    jnz main_loop
    mov r10, &0x0104
    ret
    .endfunc
    .func inc3
inc3:
    add #3, r12
    ret
    .endfunc
    .func dbl
dbl:
    add r12, r12
    ret
    .endfunc
";

    fn expected_checksum() -> u32 {
        let mut v: u16 = 0;
        for _ in 0..5 {
            v = (v + 3) * 2;
        }
        checksum_of_words([v])
    }

    fn build(cfg: SwapConfig) -> (msp430_sim::machine::Machine, Rc<RefCell<SwapStats>>) {
        let m = parse(SRC).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let inst = instrument(&m, &cfg, &lc).unwrap();
        let rt = SwapRuntime::new(&inst, cfg);
        let stats = rt.stats_handle();
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        // SP convention: stack in SRAM would collide with the cache in
        // unified mode; the test program parks SP at the top of SRAM and
        // the cache region below is configured to avoid it.
        machine.load(&inst.assembly.image);
        machine.attach_hook(Box::new(rt));
        (machine, stats)
    }

    #[test]
    fn caches_functions_and_preserves_semantics() {
        // Keep the stack clear of the cache: use a 3.5 KiB cache.
        let cfg = SwapConfig { cache_size: 0x0E00, ..SwapConfig::unified_fr2355() };
        let (mut machine, stats) = build(cfg);
        let out = machine.run(1_000_000).unwrap();
        assert!(out.success(), "exit: {:?}", out.exit);
        assert_eq!(out.checksum.0, expected_checksum());
        let s = stats.borrow();
        assert_eq!(s.misses, 3, "main, inc3, dbl each miss once");
        assert_eq!(s.fills, 3);
        assert_eq!(s.evictions, 0, "everything fits");
        // After the first iteration, code executes from SRAM.
        assert!(out.stats.instructions_in(Category::AppSram) > 0);
    }

    #[test]
    fn tiny_cache_forces_eviction_with_correct_results() {
        // A cache barely larger than the biggest function forces constant
        // eviction; semantics must hold (the §3.3.3 fallback may trigger).
        let m = parse(SRC).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let probe = instrument(&m, &SwapConfig::unified_fr2355(), &lc).unwrap();
        let biggest = probe.funcs.iter().map(|f| f.size).max().unwrap();
        let cfg = SwapConfig {
            cache_size: ((biggest + 8) + 1) & !1,
            ..SwapConfig::unified_fr2355()
        };
        let (mut machine, stats) = build(cfg);
        let out = machine.run(5_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
        let s = stats.borrow();
        assert!(s.evictions > 0 || s.active_fallbacks > 0, "{s}");
    }

    #[test]
    fn zero_size_cache_runs_everything_from_fram() {
        let cfg = SwapConfig { cache_size: 0, ..SwapConfig::unified_fr2355() };
        let (mut machine, stats) = build(cfg);
        let out = machine.run(5_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
        let s = stats.borrow();
        assert!(s.too_large >= 3);
        assert_eq!(out.stats.instructions_in(Category::AppSram), 0);
    }

    #[test]
    fn swapram_reduces_fram_accesses_vs_baseline() {
        // Baseline: same program, no instrumentation.
        let m = parse(SRC).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let base = msp430_asm::object::assemble(&m, &lc).unwrap();
        let mut bm = Fr2355::machine(Frequency::MHZ_24);
        bm.load(&base.image);
        let bout = bm.run(1_000_000).unwrap();
        assert!(bout.success());

        let cfg = SwapConfig { cache_size: 0x0E00, ..SwapConfig::unified_fr2355() };
        let (mut machine, _) = build(cfg);
        let sout = machine.run(1_000_000).unwrap();
        assert!(sout.success());
        assert_eq!(sout.checksum, bout.checksum, "semantics preserved");
        // The program is small; after warm-up it runs entirely from SRAM.
        assert!(
            sout.stats.instructions_in(Category::AppSram)
                > sout.stats.instructions_in(Category::AppFram)
        );
    }

    #[test]
    fn stack_policy_also_correct() {
        let cfg = SwapConfig {
            cache_size: 0x0E00,
            policy: PolicyKind::Stack,
            ..SwapConfig::unified_fr2355()
        };
        let (mut machine, _) = build(cfg);
        let out = machine.run(5_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
    }

    #[test]
    fn priority_cost_policy_correct() {
        let cfg = SwapConfig {
            cache_size: 0x0E00,
            policy: PolicyKind::PriorityCost,
            ..SwapConfig::unified_fr2355()
        };
        let (mut machine, _) = build(cfg);
        let out = machine.run(5_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
    }

    #[test]
    fn corrupted_metadata_is_detected_and_repaired_on_the_next_miss() {
        use msp430_sim::hwcache::HwCache;
        use msp430_sim::mem::MemoryMap;

        let cfg = SwapConfig {
            cache_size: 0x0E00,
            check_invariants: true,
            ..SwapConfig::unified_fr2355()
        };
        let m = parse(SRC).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let inst = instrument(&m, &cfg, &lc).unwrap();
        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let stats = rt.stats_handle();
        let mut cpu = Cpu::new();
        let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_24);
        bus.load_image(&inst.assembly.image).unwrap();

        // Cache function 0, then corrupt its redirection word.
        bus.poke_word(rt.fid_addr(), 0);
        rt.on_trap(&mut cpu, &mut bus, TRAP_ADDR).unwrap();
        let f0 = inst.funcs[0].clone();
        let place = rt.entries_snapshot()[0].1;
        bus.poke_word(f0.redir_addr, place ^ 0x0040);

        // A miss on another function scrubs the cached set, detects the
        // mismatch, and rebuilds f0's uncached state from the image.
        bus.poke_word(rt.fid_addr(), 1);
        rt.on_trap(&mut cpu, &mut bus, TRAP_ADDR).unwrap();
        assert!(stats.borrow().guard_repairs >= 1, "{}", stats.borrow());
        assert!(!rt.cached_ids().contains(&0), "corrupt entry must be dropped");
        assert_eq!(bus.peek_word(f0.redir_addr), TRAP_ADDR, "redirection rewound");
        rt.check_invariants(&bus).expect("repaired state is consistent");

        // Corrupt the guard word itself: the target verify on f0's next
        // miss repairs it (a guard flip rewinds a healthy function — safe).
        bus.poke_word(rt.fid_addr(), 0);
        rt.on_trap(&mut cpu, &mut bus, TRAP_ADDR).unwrap();
        let ga = f0.guard_addr.expect("guards are on by default");
        bus.poke_word(ga, bus.peek_word(ga) ^ 0x0001);
        let before = stats.borrow().guard_repairs;
        bus.poke_word(rt.fid_addr(), 0);
        rt.on_trap(&mut cpu, &mut bus, TRAP_ADDR).unwrap();
        assert!(stats.borrow().guard_repairs > before);
        rt.check_invariants(&bus).expect("guard-word flip repaired");
    }

    #[test]
    fn implausible_active_counter_degrades_instead_of_evicting() {
        use msp430_sim::hwcache::HwCache;
        use msp430_sim::mem::MemoryMap;

        let m = parse(SRC).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let probe = instrument(&m, &SwapConfig::unified_fr2355(), &lc).unwrap();
        let biggest = probe.funcs.iter().map(|f| f.size).max().unwrap();
        // Cache fits exactly the biggest function: any subsequent miss
        // overlaps it and wants to evict.
        let cfg = SwapConfig { cache_size: (biggest + 1) & !1, ..SwapConfig::unified_fr2355() };
        let inst = instrument(&m, &cfg, &lc).unwrap();
        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let stats = rt.stats_handle();
        let mut cpu = Cpu::new();
        let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_24);
        bus.load_image(&inst.assembly.image).unwrap();

        // Cache the biggest function: it fills the window completely, so
        // any other function's miss must try to evict it.
        let victim = inst.funcs.iter().max_by_key(|f| f.size).unwrap().id;
        bus.poke_word(rt.fid_addr(), victim);
        rt.on_trap(&mut cpu, &mut bus, TRAP_ADDR).unwrap();
        assert_eq!(rt.cached_ids(), vec![victim]);
        // An active counter far beyond any plausible call nesting: the
        // runtime must refuse to trust it and fall back to FRAM execution.
        bus.poke_word(inst.funcs[usize::from(victim)].act_addr, 0x7F00);
        let second = inst.funcs.iter().find(|f| f.id != victim).unwrap().id;
        bus.poke_word(rt.fid_addr(), second);
        rt.on_trap(&mut cpu, &mut bus, TRAP_ADDR).unwrap();
        let s = stats.borrow();
        assert!(s.guard_degraded >= 1, "{s}");
        assert_eq!(s.evictions, 0, "no eviction through a corrupt counter: {s}");
        assert!(rt.cached_ids().contains(&victim), "victim stays cached");
    }

    #[test]
    fn flip_inside_active_sram_copy_is_caught_by_the_final_audit() {
        use msp430_sim::fault::{FaultEvent, FaultKind, FaultPlan};

        let cfg = SwapConfig { cache_size: 0x0E00, ..SwapConfig::unified_fr2355() };
        let (mut clean, _) = build(cfg.clone());
        let clean_out = clean.run(1_000_000).unwrap();
        assert!(clean_out.success());
        let total = clean_out.stats.total_cycles();

        // main is the first function cached, at the base of the window; its
        // two-word prologue executes once, before the flip fires, so the
        // run still halts cleanly with the right output — a silent
        // corruption only the end-of-run audit can see.
        let (mut machine, _) = build(cfg.clone());
        machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: total / 2,
            kind: FaultKind::BitFlip { addr: cfg.cache_base + 2, bit: 0 },
        }]));
        let out = machine.run(1_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum(), "prologue flip is output-silent");

        let hook = machine.take_hook().expect("runtime still attached");
        let rt = hook
            .as_any()
            .expect("SwapRuntime supports downcast")
            .downcast_ref::<SwapRuntime>()
            .unwrap();
        let audit = crate::invariants::audit_final(rt, machine.bus());
        assert!(audit.is_err(), "audit must flag the SRAM/FRAM divergence");
        assert!(audit.unwrap_err().contains("SRAM copy"), "the divergence names the copy");
    }

    #[test]
    fn freeze_on_thrash_policy_correct() {
        let m = parse(SRC).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        let probe = instrument(&m, &SwapConfig::unified_fr2355(), &lc).unwrap();
        let biggest = probe.funcs.iter().map(|f| f.size).max().unwrap();
        let cfg = SwapConfig {
            cache_size: ((biggest + 8) + 1) & !1,
            policy: PolicyKind::FreezeOnThrash,
            ..SwapConfig::unified_fr2355()
        };
        let (mut machine, _) = build(cfg);
        let out = machine.run(5_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
    }

    /// The same program with its stack in FRAM (the unified-profile
    /// convention): persistent-stack checkpoints require the live stack
    /// window to survive power loss, so an SRAM stack is (correctly)
    /// skipped by the commit gate.
    const SRC_FRAM: &str = "\
    .text
    .func __start
__start:
    mov #0x9ffe, sp
    call #main
    mov #0, &0x0102
    .endfunc
    .func main
main:
    mov #0, r10
    mov #5, r11
main_loop:
    mov r10, r12
    call #inc3
    call #dbl
    mov r12, r10
    dec r11
    jnz main_loop
    mov r10, &0x0104
    ret
    .endfunc
    .func inc3
inc3:
    add #3, r12
    ret
    .endfunc
    .func dbl
dbl:
    add r12, r12
    ret
    .endfunc
";

    fn ps_cfg() -> SwapConfig {
        SwapConfig {
            recovery: RecoveryMode::PersistentStack,
            ..SwapConfig::unified_fr2355()
        }
        .with_checkpoint_interval(0)
    }

    fn ps_instrumented(src: &str, cfg: &SwapConfig) -> Instrumented {
        let m = parse(src).unwrap();
        let lc = LayoutConfig::new(0x4000, 0x9000);
        instrument(&m, cfg, &lc).unwrap()
    }

    #[test]
    fn persistent_stack_resumes_across_power_losses() {
        use msp430_sim::fault::{EnergyShape, EnergyTrace};
        use msp430_sim::machine::ExitReason;

        let cfg = ps_cfg();
        let inst = ps_instrumented(SRC_FRAM, &cfg);

        // Clean calibration run: commit points fire at trap entries.
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&inst.assembly.image);
        let rt = SwapRuntime::new(&inst, cfg.clone());
        let clean_stats = rt.stats_handle();
        machine.attach_hook(Box::new(rt));
        let clean = machine.run(1_000_000).unwrap();
        assert!(clean.success());
        assert_eq!(clean.checksum.0, expected_checksum());
        assert!(clean_stats.borrow().checkpoint_commits > 0, "traps must commit checkpoints");
        let clean_cycles = clean.stats.total_cycles();

        // Harvested-energy run: boots are too short to replay the whole
        // program, so completion requires resuming mid-computation.
        let trace = EnergyTrace::new(EnergyShape::RcCharge, clean_cycles / 3, 7);
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&inst.assembly.image);
        machine.attach_fault_plan(trace.plan_until(clean_cycles * 4));
        machine.attach_hook(Box::new(SwapRuntime::new(&inst, cfg.clone())));
        let mut boots = 1u32;
        let (mut resumes, mut commits) = (0u64, 0u64);
        loop {
            let out = machine.run(1_000_000).unwrap();
            match out.exit {
                ExitReason::Halted(0) => {
                    assert_eq!(out.checksum.0, expected_checksum(), "resumed output must be exact");
                    break;
                }
                ExitReason::PowerLoss => {
                    boots += 1;
                    assert!(boots <= 64, "persistent-stack run did not converge");
                    machine.power_cycle();
                    let mut rt = SwapRuntime::new(&inst, cfg.clone());
                    let stats = rt.stats_handle();
                    let (cpu, bus) = machine.cpu_bus_mut();
                    rt.recover_resume(cpu, bus).expect("recovery failed");
                    resumes += stats.borrow().resumes;
                    commits += stats.borrow().checkpoint_commits;
                    machine.attach_hook(Box::new(rt));
                }
                other => panic!("unexpected exit {other:?}"),
            }
        }
        assert!(boots > 1, "the schedule must actually cut power");
        assert!(resumes > 0, "at least one boot must resume from a checkpoint");
        let _ = commits;
    }

    #[test]
    fn torn_checkpoints_roll_back_and_replay_stays_correct() {
        use msp430_sim::fault::{FaultEvent, FaultKind, FaultPlan};
        use msp430_sim::machine::ExitReason;

        let cfg = ps_cfg();
        let inst = ps_instrumented(SRC_FRAM, &cfg);
        let ra = inst.resume.expect("persistent-stack layout emitted");

        let mut calib = Fr2355::machine(Frequency::MHZ_24);
        calib.load(&inst.assembly.image);
        calib.attach_hook(Box::new(SwapRuntime::new(&inst, cfg.clone())));
        let clean = calib.run(1_000_000).unwrap();
        assert!(clean.success());

        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&inst.assembly.image);
        machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: clean.stats.total_cycles() / 2,
            kind: FaultKind::PowerLoss,
        }]));
        machine.attach_hook(Box::new(SwapRuntime::new(&inst, cfg.clone())));
        let out = machine.run(1_000_000).unwrap();
        assert_eq!(out.exit, ExitReason::PowerLoss);
        machine.power_cycle();

        // Corrupt the payload of every committed slot: boot-time
        // validation must reject them all and fall back to replay.
        let mut committed = 0u32;
        for s in 0..2usize {
            let gen = machine.bus().peek_word(ra.word_addr(s, 0));
            if gen & crate::pass::ResumeArea::GEN_MARK == 0 {
                continue;
            }
            committed += 1;
            let at = ra.word_addr(s, crate::pass::ResumeArea::REGS_OFS + 4);
            let w = machine.bus().peek_word(at);
            machine.bus_mut().poke_word(at, w ^ 0x0800);
        }
        assert!(committed > 0, "the interrupted run must have committed a checkpoint");

        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let stats = rt.stats_handle();
        let (cpu, bus) = machine.cpu_bus_mut();
        let outcome = rt.recover_resume(cpu, bus).expect("recovery failed");
        assert!(!outcome.resumed, "no corrupted frame may be resumed");
        assert_eq!(stats.borrow().torn_checkpoints, u64::from(committed));
        for s in 0..2usize {
            let gen = machine.bus().peek_word(ra.word_addr(s, 0));
            assert_eq!(gen & crate::pass::ResumeArea::GEN_MARK, 0, "torn slot {s} rolled back");
        }
        machine.attach_hook(Box::new(rt));
        let out = machine.run(1_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum(), "replay after rollback is exact");
    }

    #[test]
    fn watchdog_degrades_boot_loops_to_fram_execution() {
        // SRAM stack: the commit gate skips every checkpoint, so no boot
        // can ever prove forward progress — the Sisyphus condition.
        let cfg = ps_cfg().with_watchdog_boots(3);
        let inst = ps_instrumented(SRC, &cfg);
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&inst.assembly.image);

        let mut last: Option<SwapRuntime> = None;
        for boot in 1..=3u16 {
            let mut rt = SwapRuntime::new(&inst, cfg.clone());
            let (cpu, bus) = machine.cpu_bus_mut();
            let outcome = rt.recover_resume(cpu, bus).expect("recovery failed");
            assert!(!outcome.resumed);
            assert_eq!(outcome.watchdog_degraded, boot >= 3, "degrades exactly at the threshold");
            last = Some(rt);
        }
        let rt = last.unwrap();
        assert!(rt.watchdog_degraded());
        assert_eq!(rt.stats_handle().borrow().watchdog_degradations, 1);

        // Degraded service: the program still completes, entirely from
        // FRAM homes — detected degradation, never a livelock or a wrong
        // answer.
        let stats = rt.stats_handle();
        machine.attach_hook(Box::new(rt));
        let out = machine.run(1_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
        let s = stats.borrow();
        assert!(s.watchdog_fallbacks > 0, "misses served via the degraded path");
        assert_eq!(s.fills, 0, "no SRAM caching while degraded");
        assert!(s.checkpoint_skips > 0, "SRAM-stack commits are skipped, not attempted");
    }

    #[test]
    fn committed_checkpoint_clears_watchdog_degradation() {
        // FRAM stack: a degraded boot's traps commit checkpoints, which
        // clears the *persistent* flag — the degraded boot itself keeps
        // serving from FRAM (so commit points keep recurring), and the
        // *next* boot starts undegraded with normal caching.
        let cfg = ps_cfg().with_watchdog_boots(2);
        let inst = ps_instrumented(SRC_FRAM, &cfg);
        let ra = inst.resume.expect("persistent-stack layout emitted");
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&inst.assembly.image);

        let mut last: Option<SwapRuntime> = None;
        for _ in 0..2 {
            let mut rt = SwapRuntime::new(&inst, cfg.clone());
            let (cpu, bus) = machine.cpu_bus_mut();
            rt.recover_resume(cpu, bus).expect("recovery failed");
            last = Some(rt);
        }
        let rt = last.unwrap();
        assert!(rt.watchdog_degraded());
        let stats = rt.stats_handle();
        machine.attach_hook(Box::new(rt));
        let out = machine.run(1_000_000).unwrap();
        assert!(out.success());
        assert_eq!(out.checksum.0, expected_checksum());
        let s = stats.borrow();
        assert!(s.checkpoint_commits > 0, "degraded traps still commit");
        assert!(s.watchdog_fallbacks > 0, "the degraded boot serves from FRAM throughout");
        assert_eq!(s.fills, 0, "no caching until the next boot");
        drop(s);
        let degraded_word = machine.bus().peek_word(ra.watchdog_addr.wrapping_add(6));
        assert_eq!(degraded_word, 0, "the persistent degraded flag is cleared by the commit");

        // The next boot reads the cleared flag and caches normally.
        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let (cpu, bus) = machine.cpu_bus_mut();
        let outcome = rt.recover_resume(cpu, bus).expect("recovery failed");
        assert!(!outcome.watchdog_degraded);
        assert!(!rt.watchdog_degraded());
    }
}
