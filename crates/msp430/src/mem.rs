//! Memory map and system bus.
//!
//! The simulated device has a flat 16-bit address space split into SRAM,
//! FRAM, a memory-mapped I/O window and a trap window used by software
//! runtimes (see [`crate::machine::Hook`]). Every access goes through
//! [`Bus`], which:
//!
//! * categorises the access by region and kind into [`Stats`],
//! * runs FRAM reads through the hardware read cache and charges wait
//!   states on misses per the active [`Frequency`],
//! * charges the same-instruction FRAM line-contention penalty that makes
//!   unified-memory operation slow even at 8 MHz (paper §2.2), and
//! * routes MMIO traffic to the simulator [`Ports`].

use crate::error::{SimError, SimResult};
use crate::freq::Frequency;
use crate::hwcache::HwCache;
use crate::irq::IrqTimer;
use crate::ports::Ports;
use crate::sanitize::{Sanitizer, SanitizerConfig, Violation};
use crate::trace::{Category, Stats};

/// A half-open address range `[start, end)`. `end` is `u32` so a range may
/// extend to the top of the 16-bit address space (`end = 0x1_0000`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    /// First address in the range.
    pub start: u16,
    /// One past the last address (≤ `0x1_0000`).
    pub end: u32,
}

impl AddrRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `end < start` or `end > 0x1_0000`.
    pub fn new(start: u16, end: u32) -> AddrRange {
        assert!(end >= u32::from(start) && end <= 0x1_0000, "invalid range");
        AddrRange { start, end }
    }

    /// Whether `addr` lies in the range.
    pub fn contains(&self, addr: u16) -> bool {
        u32::from(addr) >= u32::from(self.start) && u32::from(addr) < self.end
    }

    /// Size of the range in bytes.
    pub fn len(&self) -> u32 {
        self.end - u32::from(self.start)
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the two ranges share an address (empty ranges share none).
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && u32::from(self.start) < other.end
            && u32::from(other.start) < self.end
    }
}

/// The memory region an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Volatile on-chip SRAM.
    Sram,
    /// Non-volatile FRAM (behind the hardware read cache and wait states).
    Fram,
    /// Memory-mapped I/O ports.
    Mmio,
    /// Runtime trap window (execute-only; see [`crate::machine::Hook`]).
    Trap,
    /// Unmapped address space.
    Unmapped,
}

/// The device memory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryMap {
    /// SRAM range.
    pub sram: AddrRange,
    /// FRAM range.
    pub fram: AddrRange,
    /// MMIO window.
    pub mmio: AddrRange,
    /// Trap window.
    pub trap: AddrRange,
}

impl MemoryMap {
    /// The MSP430FR2355 map: 4 KiB SRAM at `0x2000`, 32 KiB FRAM at
    /// `0x4000`, MMIO at `0x0100`, trap window at `0x0F00`.
    pub fn fr2355() -> MemoryMap {
        MemoryMap {
            sram: AddrRange::new(0x2000, 0x3000),
            fram: AddrRange::new(0x4000, 0xC000),
            mmio: AddrRange::new(0x0100, 0x0200),
            trap: AddrRange::new(0x0F00, 0x1000),
        }
    }

    /// Splits SRAM `reserved` bytes above its start (paper §5.5): the low
    /// part holds program data and stack, the rest is the code cache.
    ///
    /// # Panics
    ///
    /// Panics if `reserved` exceeds the SRAM.
    pub fn split_sram(&self, reserved: u16) -> (AddrRange, AddrRange) {
        let cut = u32::from(self.sram.start) + u32::from(reserved);
        (AddrRange::new(self.sram.start, cut), AddrRange::new(cut as u16, self.sram.end))
    }

    /// The region containing `addr`.
    pub fn region_of(&self, addr: u16) -> Region {
        if self.sram.contains(addr) {
            Region::Sram
        } else if self.fram.contains(addr) {
            Region::Fram
        } else if self.mmio.contains(addr) {
            Region::Mmio
        } else if self.trap.contains(addr) {
            Region::Trap
        } else {
            Region::Unmapped
        }
    }
}

impl Default for MemoryMap {
    fn default() -> Self {
        MemoryMap::fr2355()
    }
}

/// The kind of a memory access, for statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction or extension-word fetch.
    IFetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// A contiguous chunk of a program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Load address.
    pub addr: u16,
    /// Raw bytes.
    pub bytes: Vec<u8>,
}

/// A loadable program image: segments plus the entry point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Image {
    /// Segments to copy into memory before reset.
    pub segments: Vec<Segment>,
    /// Initial program counter.
    pub entry: u16,
}

impl Image {
    /// Total bytes across all segments.
    pub fn size_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }

    /// The little-endian word at `addr` in the image — the immutable
    /// ground truth integrity repairs rebuild metadata from.
    ///
    /// # Errors
    ///
    /// [`SimError::BusFault`] if the word is not covered by any segment
    /// (a malformed lookup is a typed error, not a panic).
    pub fn word_at(&self, addr: u16) -> SimResult<u16> {
        let a = usize::from(addr);
        for seg in &self.segments {
            let lo = usize::from(seg.addr);
            if a >= lo && a + 1 < lo + seg.bytes.len() {
                return Ok(u16::from(seg.bytes[a - lo])
                    | (u16::from(seg.bytes[a + 1 - lo]) << 8));
            }
        }
        Err(SimError::BusFault { addr, what: "address not in image".to_string() })
    }
}

/// Bytes of handler code a software runtime's modeled fetches walk (see
/// [`Bus::replay_handler_fetches`]): about the size of the paper's miss
/// handlers (§5.2: 972–1844 B).
pub const HANDLER_WINDOW: u16 = 0x400;

/// Granule size (as a shift) of the code write barrier: the address space
/// is divided into 64-byte granules, each counting how many cached decoded
/// blocks overlap it.
const WATCH_SHIFT: u32 = 6;
/// Number of write-barrier granules covering the 16-bit address space.
const WATCH_GRANULES: usize = 0x1_0000 >> WATCH_SHIFT;

/// Write barrier backing the pre-decoded engine's invalidation contract
/// (see [`crate::blockcache`]): granules covered by at least one cached
/// block have a nonzero count, and every store landing in a covered granule
/// is recorded so the engine can invalidate exactly the blocks whose bytes
/// changed — whether the store came from executing code (SwapRAM rewriting
/// redirection words), a host-side poke, a bit-flip injection, or the SRAM
/// clear of a power cycle.
#[derive(Debug, Clone)]
struct CodeWatch {
    /// Per-granule count of cached blocks overlapping the granule.
    counts: Vec<u16>,
    /// Writes `(addr, len)` that hit a watched granule since the last
    /// drain.
    dirty: Vec<(u16, u32)>,
    /// Bumped on every recorded write so the engine can skip the drain
    /// entirely on the (overwhelmingly common) clean fast path.
    gen: u64,
}

impl CodeWatch {
    fn new() -> CodeWatch {
        CodeWatch { counts: vec![0; WATCH_GRANULES], dirty: Vec::new(), gen: 0 }
    }

    #[inline]
    fn note(&mut self, addr: u16, len: u32) {
        let end = (u32::from(addr) + len.max(1)).min(0x1_0000);
        let g0 = usize::from(addr) >> WATCH_SHIFT;
        let g1 = ((end - 1) as usize) >> WATCH_SHIFT;
        if self.counts[g0..=g1].iter().any(|&c| c > 0) {
            self.dirty.push((addr, len.max(1)));
            self.gen += 1;
        }
    }

    fn adjust(&mut self, start: u16, end: u32, delta: i32) {
        let g0 = usize::from(start) >> WATCH_SHIFT;
        let g1 = ((end.max(u32::from(start) + 1) - 1) as usize) >> WATCH_SHIFT;
        for c in &mut self.counts[g0..=g1] {
            *c = (i32::from(*c) + delta).max(0) as u16;
        }
    }
}

/// Distinct FRAM cache lines touched by one instruction, inline to avoid
/// heap traffic on the hot path. An instruction touches at most ~6
/// distinct lines (≤2 fetch, one per data operand word, ≤2 stack words),
/// so 8 slots exceed the architectural maximum; a hypothetical overflow
/// drops the line (debug-asserted) rather than reallocating.
#[derive(Debug, Clone)]
struct LineSet {
    lines: [u32; 8],
    len: u8,
    /// Whether an instruction bracket is open (see [`LineSet::insert`]).
    open: bool,
}

impl LineSet {
    fn new() -> LineSet {
        LineSet { lines: [0; 8], len: 0, open: false }
    }

    /// Opens a tracking bracket (instruction start).
    #[inline]
    fn begin(&mut self) {
        self.len = 0;
        self.open = true;
    }

    /// Closes the bracket (instruction end).
    #[inline]
    fn end(&mut self) {
        self.len = 0;
        self.open = false;
    }

    #[inline]
    fn len(&self) -> usize {
        usize::from(self.len)
    }

    #[inline]
    fn insert(&mut self, line: u32) {
        // Lines touched outside an instruction bracket (runtime hooks
        // copying code in `on_trap`) are never charged as contention —
        // the next `begin` would discard them anyway — so don't collect
        // them; a hook-side memcpy can touch far more than 8 lines.
        if !self.open || self.lines[..self.len()].contains(&line) {
            return;
        }
        debug_assert!(self.len() < 8, "instruction touched more than 8 distinct lines");
        if self.len() < 8 {
            self.lines[self.len()] = line;
            self.len += 1;
        }
    }
}

/// Per-256-byte-page region codes for [`Bus::region`]: [`Region`] as
/// `u8`, or [`PAGE_MIXED`] for a page containing a region boundary
/// (resolved by the full range compare).
const PAGE_MIXED: u8 = 5;

fn region_code(r: Region) -> u8 {
    match r {
        Region::Sram => 0,
        Region::Fram => 1,
        Region::Mmio => 2,
        Region::Trap => 3,
        Region::Unmapped => 4,
    }
}

fn region_pages(map: &MemoryMap) -> [u8; 256] {
    let mut pages = [0u8; 256];
    let bounds: [u32; 8] = [
        u32::from(map.sram.start),
        map.sram.end,
        u32::from(map.fram.start),
        map.fram.end,
        u32::from(map.mmio.start),
        map.mmio.end,
        u32::from(map.trap.start),
        map.trap.end,
    ];
    for (i, page) in pages.iter_mut().enumerate() {
        let start = (i as u32) << 8;
        let mixed = bounds.iter().any(|&b| b > start && b < start + 256);
        *page = if mixed {
            PAGE_MIXED
        } else {
            region_code(map.region_of(start as u16))
        };
    }
    pages
}

/// The system bus: backing store, hardware cache, wait-state accounting and
/// access statistics.
#[derive(Debug, Clone)]
pub struct Bus {
    map: MemoryMap,
    /// Page-granular region lookup table derived from `map`.
    pages: [u8; 256],
    mem: Vec<u8>,
    cache: HwCache,
    freq: Frequency,
    stats: Stats,
    ports: Ports,
    /// Distinct FRAM cache lines touched by the instruction in flight.
    instr_lines: LineSet,
    /// Optional execution sanitizer (see [`crate::sanitize`]).
    sanitizer: Option<Box<Sanitizer>>,
    /// Write barrier for the pre-decoded engine (None = no engine attached).
    code_watch: Option<Box<CodeWatch>>,
    /// Bumped whenever a sanitizer is (re)attached: a new sanitizer resets
    /// fill tracking, so the engine must drop blocks built under the old
    /// one's skip analysis.
    sanitizer_epoch: u64,
    /// Optional timer-interrupt controller (see [`crate::irq`]).
    timer: Option<Box<IrqTimer>>,
    /// Set by [`crate::cpu::Cpu::exec_reti`]; the run loop takes it to
    /// observe interrupt-return boundaries regardless of engine.
    reti_seen: bool,
    /// Non-volatile I/O journal: tagged snapshots of the port state, keyed
    /// by an FRAM anchor address. Models a checkpointing runtime logging
    /// its output-channel state (console bytes, checksum accumulator) to
    /// NVRAM alongside a resume frame, so replayed I/O after a power loss
    /// is exactly-once. Survives [`Bus::power_cycle`] like FRAM.
    nv_ports: std::collections::BTreeMap<u16, (u16, Ports)>,
}

impl Bus {
    /// Creates a bus over `map` with the given hardware cache and clock.
    pub fn new(map: MemoryMap, cache: HwCache, freq: Frequency) -> Bus {
        Bus {
            map,
            pages: region_pages(&map),
            mem: vec![0u8; 0x1_0000],
            cache,
            freq,
            stats: Stats::new(),
            ports: Ports::new(),
            instr_lines: LineSet::new(),
            sanitizer: None,
            code_watch: None,
            sanitizer_epoch: 0,
            timer: None,
            reti_seen: false,
            nv_ports: std::collections::BTreeMap::new(),
        }
    }

    /// The region containing `addr` — the page-table fast path of
    /// [`MemoryMap::region_of`].
    #[inline]
    fn region(&self, addr: u16) -> Region {
        match self.pages[usize::from(addr >> 8)] {
            0 => Region::Sram,
            1 => Region::Fram,
            2 => Region::Mmio,
            3 => Region::Trap,
            4 => Region::Unmapped,
            _ => self.map.region_of(addr),
        }
    }

    /// Attaches an execution sanitizer, replacing any previous one.
    pub fn attach_sanitizer(&mut self, cfg: SanitizerConfig) {
        self.sanitizer = Some(Box::new(Sanitizer::new(cfg)));
        self.sanitizer_epoch += 1;
    }

    /// Generation counter of sanitizer attachments (see `sanitizer_epoch`
    /// field docs).
    #[inline]
    pub(crate) fn sanitizer_epoch(&self) -> u64 {
        self.sanitizer_epoch
    }

    /// Enables the code write barrier (idempotent; keeps existing state).
    pub(crate) fn enable_code_watch(&mut self) {
        if self.code_watch.is_none() {
            self.code_watch = Some(Box::new(CodeWatch::new()));
        }
    }

    /// Drops all write-barrier state (granule counts and pending dirt).
    pub(crate) fn clear_code_watch(&mut self) {
        if let Some(w) = &mut self.code_watch {
            let gen = w.gen;
            **w = CodeWatch::new();
            w.gen = gen;
        }
    }

    /// Current write-barrier generation; unchanged means no watched granule
    /// was written since the engine last drained.
    #[inline]
    pub(crate) fn code_watch_gen(&self) -> u64 {
        self.code_watch.as_ref().map_or(0, |w| w.gen)
    }

    /// Registers a cached block's byte range with the barrier.
    pub(crate) fn code_watch_add(&mut self, start: u16, end: u32) {
        if let Some(w) = &mut self.code_watch {
            w.adjust(start, end, 1);
        }
    }

    /// Unregisters a cached block's byte range.
    pub(crate) fn code_watch_remove(&mut self, start: u16, end: u32) {
        if let Some(w) = &mut self.code_watch {
            w.adjust(start, end, -1);
        }
    }

    /// Moves the pending dirty-write list into `out` (appending).
    pub(crate) fn drain_code_dirty(&mut self, out: &mut Vec<(u16, u32)>) {
        if let Some(w) = &mut self.code_watch {
            out.append(&mut w.dirty);
        }
    }

    #[inline]
    fn note_code_write(&mut self, addr: u16, len: u32) {
        if let Some(w) = &mut self.code_watch {
            w.note(addr, len);
        }
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_deref()
    }

    /// Attaches (or replaces) the timer-interrupt controller.
    pub fn attach_timer(&mut self, timer: IrqTimer) {
        self.timer = Some(Box::new(timer));
    }

    /// The attached timer, if any.
    #[inline]
    pub fn timer(&self) -> Option<&IrqTimer> {
        self.timer.as_deref()
    }

    /// Latches any timer fires due at the current cumulative cycle count,
    /// coalescing multiple fires into the single pending latch.
    pub fn poll_timer(&mut self) {
        let cycle = self.stats.total_cycles();
        if let Some(t) = &mut self.timer {
            self.stats.irq_coalesced += t.latch_due(cycle);
        }
    }

    /// Whether a timer interrupt is latched awaiting delivery.
    #[inline]
    pub fn irq_pending(&self) -> bool {
        self.timer.as_ref().is_some_and(|t| t.pending())
    }

    /// Clears the pending latch (the interrupt was delivered).
    pub fn clear_irq_pending(&mut self) {
        if let Some(t) = &mut self.timer {
            t.clear_pending();
        }
    }

    /// Records that a `reti` executed (called from the CPU core so both
    /// engines report through the same path).
    #[inline]
    pub(crate) fn note_reti(&mut self) {
        self.reti_seen = true;
    }

    /// Whether a `reti` executed since the run loop last took the flag,
    /// without consuming it. Lets the batched engine stop on the boundary
    /// where the run loop reports the interrupt return.
    #[inline]
    pub(crate) fn reti_pending(&self) -> bool {
        self.reti_seen
    }

    /// Takes the interrupt-return flag set by the last `reti`.
    #[inline]
    pub fn take_reti(&mut self) -> bool {
        std::mem::take(&mut self.reti_seen)
    }

    /// Enters/leaves trusted-runtime mode: sanitizer checks are suppressed
    /// while a runtime hook services a trap.
    pub fn set_runtime_mode(&mut self, on: bool) {
        if let Some(s) = &mut self.sanitizer {
            s.set_runtime_mode(on);
        }
    }

    /// Takes the latched sanitizer violation, if any.
    pub fn take_violation(&mut self) -> Option<Violation> {
        self.sanitizer.as_mut()?.take_violation()
    }

    /// Whether a sanitizer violation is latched, without consuming it.
    /// Lets the batched engine stop at the same instruction the run
    /// loop's `take_violation` poll would have.
    #[inline]
    pub fn violation_pending(&self) -> bool {
        self.sanitizer.as_ref().is_some_and(|s| s.violation().is_some())
    }

    /// Checks the stack pointer against the sanitizer's configured floor.
    #[inline]
    pub fn check_stack(&mut self, sp: u16) {
        if let Some(s) = &mut self.sanitizer {
            s.check_stack(sp);
        }
    }

    /// The memory map.
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// The active clock/wait-state profile.
    #[inline]
    pub fn freq(&self) -> Frequency {
        self.freq
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Mutable statistics (used by runtimes to charge modeled work).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut Stats {
        &mut self.stats
    }

    /// Simulator port state.
    #[inline]
    pub fn ports(&self) -> &Ports {
        &self.ports
    }

    /// Snapshots the current port state into the non-volatile I/O journal
    /// under `key` (an FRAM anchor address, e.g. a checkpoint slot) with a
    /// caller-chosen `tag` (e.g. a checkpoint generation). Overwrites any
    /// previous snapshot under the same key.
    pub fn nv_stash_ports(&mut self, key: u16, tag: u16) {
        self.nv_ports.insert(key, (tag, self.ports.clone()));
    }

    /// The tag of the journalled port snapshot under `key`, if any.
    pub fn nv_stashed_tag(&self, key: u16) -> Option<u16> {
        self.nv_ports.get(&key).map(|(tag, _)| *tag)
    }

    /// Restores the port state from the journalled snapshot under `key`,
    /// provided its tag matches (a mismatch means the snapshot belongs to
    /// a different checkpoint generation and must not be replayed).
    /// Returns whether the restore happened.
    pub fn nv_restore_ports(&mut self, key: u16, tag: u16) -> bool {
        match self.nv_ports.get(&key) {
            Some((t, snap)) if *t == tag => {
                self.ports = snap.clone();
                true
            }
            _ => false,
        }
    }

    /// Drops the journalled port snapshot under `key`, if any.
    pub fn nv_discard_ports(&mut self, key: u16) {
        self.nv_ports.remove(&key);
    }

    /// The hardware cache (for inspection in tests/ablations).
    pub fn hw_cache(&self) -> &HwCache {
        &self.cache
    }

    /// Marks the start of an instruction for contention accounting.
    #[inline]
    pub fn begin_instruction(&mut self) {
        self.instr_lines.begin();
    }

    /// Marks the end of an instruction: every distinct FRAM line beyond the
    /// first touched during the instruction costs one contention stall
    /// cycle (the cache serves one line per cycle; §2.2 of the paper).
    #[inline]
    pub fn end_instruction(&mut self) {
        if self.instr_lines.len() > 1 {
            self.stats.contention_cycles += (self.instr_lines.len() - 1) as u64;
        }
        self.instr_lines.end();
    }

    #[inline]
    fn note_fram_access(&mut self, addr: u16, is_read: bool) {
        let line = self.cache.line_of(addr);
        self.instr_lines.insert(line);
        if is_read {
            if self.cache.access_line(line) {
                self.stats.hw_cache_hits += 1;
            } else {
                self.stats.hw_cache_misses += 1;
                self.stats.wait_cycles += u64::from(self.freq.fram_wait_cycles);
            }
        } else {
            self.cache.invalidate(addr);
            self.stats.wait_cycles += u64::from(self.freq.fram_wait_cycles);
        }
    }

    fn fault(&self, addr: u16, what: &str) -> SimError {
        SimError::BusFault { addr, what: what.to_string() }
    }

    /// Reads a word with full accounting.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses; errors on odd `addr`.
    #[inline]
    pub fn read_word(&mut self, addr: u16, kind: AccessKind) -> SimResult<u16> {
        if kind == AccessKind::IFetch {
            if let Some(s) = &mut self.sanitizer {
                s.check_ifetch(addr, 2);
            }
        }
        if addr & 1 != 0 {
            return Err(SimError::Unaligned(addr));
        }
        match self.region(addr) {
            Region::Sram => {
                self.count(Region::Sram, kind);
                Ok(self.raw_word(addr))
            }
            Region::Fram => {
                self.count(Region::Fram, kind);
                self.note_fram_access(addr, true);
                Ok(self.raw_word(addr))
            }
            Region::Mmio => {
                self.stats.mmio_accesses += 1;
                Ok(self.ports.read(addr))
            }
            Region::Trap => Err(self.fault(addr, "read from trap window")),
            Region::Unmapped => Err(self.fault(addr, "read from unmapped memory")),
        }
    }

    /// Whether `[start, end)` lies entirely in FRAM.
    pub fn fram_contains(&self, start: u16, end: u32) -> bool {
        u32::from(start) >= u32::from(self.map.fram.start) && end <= self.map.fram.end
    }

    /// [`Bus::read_word`] specialised to `AccessKind::Read` — the
    /// executor data path, small enough to inline into operand reads.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses; errors on odd `addr`.
    #[inline]
    pub fn read_word_data(&mut self, addr: u16) -> SimResult<u16> {
        if addr & 1 != 0 {
            return Err(SimError::Unaligned(addr));
        }
        match self.region(addr) {
            Region::Sram => {
                self.stats.sram_read += 1;
                Ok(self.raw_word(addr))
            }
            Region::Fram => {
                self.stats.fram_read += 1;
                self.note_fram_access(addr, true);
                Ok(self.raw_word(addr))
            }
            _ => self.read_word(addr, AccessKind::Read),
        }
    }

    /// Reads a data byte with full accounting. There is no byte fetch:
    /// the MSP430 fetches instructions a word at a time.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or trap-window addresses.
    #[inline]
    pub fn read_byte_data(&mut self, addr: u16) -> SimResult<u8> {
        match self.region(addr) {
            Region::Sram => {
                self.stats.sram_read += 1;
                Ok(self.mem[usize::from(addr)])
            }
            Region::Fram => {
                self.stats.fram_read += 1;
                self.note_fram_access(addr, true);
                Ok(self.mem[usize::from(addr)])
            }
            Region::Mmio => {
                self.stats.mmio_accesses += 1;
                Ok((self.ports.read(addr) & 0xff) as u8)
            }
            Region::Trap => Err(self.fault(addr, "read from trap window")),
            Region::Unmapped => Err(self.fault(addr, "read from unmapped memory")),
        }
    }

    /// Writes a byte with full accounting.
    ///
    /// # Errors
    ///
    /// Faults on unmapped or trap-window addresses.
    #[inline]
    pub fn write_byte(&mut self, addr: u16, value: u8) -> SimResult<()> {
        if let Some(s) = &mut self.sanitizer {
            s.check_store(addr);
            s.note_write(addr, 1);
        }
        match self.region(addr) {
            Region::Sram => {
                self.count(Region::Sram, AccessKind::Write);
                self.note_code_write(addr, 1);
                self.mem[usize::from(addr)] = value;
                Ok(())
            }
            Region::Fram => {
                self.count(Region::Fram, AccessKind::Write);
                self.note_fram_access(addr, false);
                self.note_code_write(addr, 1);
                self.mem[usize::from(addr)] = value;
                Ok(())
            }
            Region::Mmio => {
                self.stats.mmio_accesses += 1;
                let cycle = self.stats.total_cycles();
                self.ports.write(addr, u16::from(value), cycle);
                Ok(())
            }
            Region::Trap => Err(self.fault(addr, "write to trap window")),
            Region::Unmapped => Err(self.fault(addr, "write to unmapped memory")),
        }
    }

    /// Writes a word with full accounting.
    ///
    /// # Errors
    ///
    /// Faults on unmapped addresses; errors on odd `addr`.
    #[inline]
    pub fn write_word(&mut self, addr: u16, value: u16) -> SimResult<()> {
        if let Some(s) = &mut self.sanitizer {
            s.check_store(addr);
            s.note_write(addr, 2);
        }
        if addr & 1 != 0 {
            return Err(SimError::Unaligned(addr));
        }
        match self.region(addr) {
            Region::Sram => {
                self.count(Region::Sram, AccessKind::Write);
                self.note_code_write(addr, 2);
                self.set_raw_word(addr, value);
                Ok(())
            }
            Region::Fram => {
                self.count(Region::Fram, AccessKind::Write);
                self.note_fram_access(addr, false);
                self.note_code_write(addr, 2);
                self.set_raw_word(addr, value);
                Ok(())
            }
            Region::Mmio => {
                self.stats.mmio_accesses += 1;
                let cycle = self.stats.total_cycles();
                self.ports.write(addr, value, cycle);
                Ok(())
            }
            Region::Trap => Err(self.fault(addr, "write to trap window")),
            Region::Unmapped => Err(self.fault(addr, "write to unmapped memory")),
        }
    }

    #[inline]
    fn count(&mut self, region: Region, kind: AccessKind) {
        match (region, kind) {
            (Region::Sram, AccessKind::IFetch) => self.stats.sram_ifetch += 1,
            (Region::Sram, AccessKind::Read) => self.stats.sram_read += 1,
            (Region::Sram, AccessKind::Write) => self.stats.sram_write += 1,
            (Region::Fram, AccessKind::IFetch) => self.stats.fram_ifetch += 1,
            (Region::Fram, AccessKind::Read) => self.stats.fram_read += 1,
            (Region::Fram, AccessKind::Write) => self.stats.fram_write += 1,
            _ => {}
        }
    }

    fn raw_word(&self, addr: u16) -> u16 {
        u16::from(self.mem[usize::from(addr)])
            | (u16::from(self.mem[usize::from(addr) + 1]) << 8)
    }

    fn set_raw_word(&mut self, addr: u16, value: u16) {
        self.mem[usize::from(addr)] = (value & 0xff) as u8;
        self.mem[usize::from(addr) + 1] = (value >> 8) as u8;
    }

    /// Host-side read without accounting or faulting (returns 0 for the top
    /// byte of a wrap-around access).
    pub fn peek_byte(&self, addr: u16) -> u8 {
        self.mem[usize::from(addr)]
    }

    /// Host-side word read without accounting (the address is rounded down
    /// to the containing word).
    pub fn peek_word(&self, addr: u16) -> u16 {
        self.raw_word(addr & !1)
    }

    /// Host-side write without accounting (used to load images and inject
    /// benchmark inputs).
    pub fn poke_byte(&mut self, addr: u16, value: u8) {
        if let Some(s) = &mut self.sanitizer {
            s.note_write(addr, 1);
        }
        self.note_code_write(addr, 1);
        self.mem[usize::from(addr)] = value;
    }

    /// Host-side word write without accounting.
    pub fn poke_word(&mut self, addr: u16, value: u16) {
        if let Some(s) = &mut self.sanitizer {
            s.note_write(addr & !1, 2);
        }
        self.note_code_write(addr & !1, 2);
        self.set_raw_word(addr & !1, value);
    }

    /// Host-side write of `bytes` from `addr` on, wrapping at the top of
    /// the address space, without accounting: the same memory, sanitizer
    /// fill marks and code-barrier invalidations as one
    /// [`Bus::poke_byte`] per byte, with one sanitizer note and one
    /// code-barrier note per contiguous segment, as
    /// [`Bus::load_image`] makes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is as long as the address space.
    pub fn poke_bytes(&mut self, addr: u16, bytes: &[u8]) {
        assert!(bytes.len() < self.mem.len(), "poke of {} bytes overlaps itself", bytes.len());
        let (mut at, mut rest) = (usize::from(addr), bytes);
        while !rest.is_empty() {
            let (seg, next) = rest.split_at(rest.len().min(self.mem.len() - at));
            self.mem[at..at + seg.len()].copy_from_slice(seg);
            if let Some(s) = &mut self.sanitizer {
                s.note_write(at as u16, seg.len() as u16);
            }
            self.note_code_write(at as u16, seg.len() as u32);
            (at, rest) = (0, next);
        }
    }

    /// Copies `image` into memory (host-side, no accounting).
    ///
    /// # Errors
    ///
    /// Faults if a segment extends past the top of the 16-bit address
    /// space instead of corrupting low memory or panicking.
    pub fn load_image(&mut self, image: &Image) -> SimResult<()> {
        for seg in &image.segments {
            let start = usize::from(seg.addr);
            let end = start + seg.bytes.len();
            if end > self.mem.len() {
                return Err(self.fault(seg.addr, "image segment overflows address space"));
            }
            self.mem[start..end].copy_from_slice(&seg.bytes);
            if let Some(s) = &mut self.sanitizer {
                s.note_write(seg.addr, seg.bytes.len() as u16);
            }
            self.note_code_write(seg.addr, seg.bytes.len() as u32);
        }
        Ok(())
    }

    /// Models a power loss: volatile state (SRAM contents, the hardware
    /// read cache, simulator port state, in-flight contention tracking)
    /// is lost while FRAM contents persist. Statistics are *kept* — they
    /// model the experimenter's bench instruments, not on-chip state, so
    /// cycle counts stay monotonic across reboots and fault schedules can
    /// use cumulative cycles.
    pub fn power_cycle(&mut self) {
        let sram = self.map.sram;
        self.note_code_write(sram.start, sram.len());
        self.mem[usize::from(sram.start)..sram.end as usize].fill(0);
        self.cache.flush();
        self.ports = Ports::new();
        self.instr_lines.end();
        if let Some(s) = &mut self.sanitizer {
            s.power_cycle();
        }
        // A latched-but-undelivered interrupt request is volatile
        // peripheral state: it dies with the power. The fire schedule's
        // cursor survives because it is keyed on cumulative bench cycles,
        // like the fault plans.
        if let Some(t) = &mut self.timer {
            t.clear_pending();
        }
        self.reti_seen = false;
        // `nv_ports` deliberately survives: it models an FRAM-resident
        // I/O journal written by a checkpointing runtime.
    }

    /// Flips bit `bit` (0–7) of the byte at `addr` — a silent fault
    /// injection, no accounting. Flips in FRAM invalidate the covering
    /// hardware cache line so the corruption is observable.
    pub fn flip_bit(&mut self, addr: u16, bit: u8) {
        self.note_code_write(addr, 1);
        self.mem[usize::from(addr)] ^= 1 << (bit & 7);
        if self.region(addr) == Region::Fram {
            self.cache.invalidate(addr);
        }
    }

    /// Disables the code write barrier entirely.
    pub(crate) fn disable_code_watch(&mut self) {
        self.code_watch = None;
    }

    /// Batched SRAM instruction-fetch accounting: `n` word fetches with no
    /// stall, cache or contention effects (SRAM fetches have none).
    #[inline]
    pub(crate) fn add_sram_ifetch(&mut self, n: u64) {
        self.stats.sram_ifetch += n;
    }

    /// Charges one executed instruction in `cat` plus its unstalled cycles
    /// — the tail accounting of both engines' instruction step.
    #[inline]
    pub(crate) fn charge_instr(&mut self, cat: Category, cycles: u32) {
        self.stats.count_instruction(cat);
        self.stats.unstalled_cycles += u64::from(cycles);
    }

    /// Charges `n` executed instructions in `cat` plus their summed
    /// unstalled cycles — the batched form of [`Bus::charge_instr`].
    #[inline]
    pub(crate) fn charge_batch(&mut self, cat: Category, n: u64, cycles: u64) {
        self.stats.instructions[cat.index()] += n;
        self.stats.unstalled_cycles += cycles;
    }

    /// FRAM instruction-fetch accounting for the `words` contiguous fetch
    /// words `[start, start + 2*words)` with the sanitizer check elided:
    /// exactly `words` calls of [`Bus::read_word`]`(_, IFetch)` at
    /// consecutive FRAM addresses, whether the words are one decoded
    /// instruction's or a whole straight-line run's.
    ///
    /// Nothing but these monotonically increasing fetches touches the
    /// cache in between, so every repeat access to the line most recently
    /// probed is a guaranteed hit (a hit cannot evict): the cache is probed
    /// once per distinct line, in the order the per-word walk would have,
    /// and the remaining word accesses are counted as hits statically.
    /// Skipping their LRU stamp updates is unobservable — consecutive
    /// same-line accesses leave the recency *order* of lines unchanged. A
    /// disabled cache misses every access without touching state, applied
    /// statically too. Each distinct line is recorded for same-instruction
    /// contention; outside an instruction bracket (a batched run, whose
    /// contention the caller adds from [`crate::decode::RunPlan`]) the
    /// recording is a no-op.
    ///
    /// The range never wraps the 16-bit address space: [`crate::decode`]
    /// refuses a fetch that crosses `0x1_0000` and ends a block there.
    #[inline]
    pub(crate) fn account_fram_ifetch(&mut self, start: u16, words: u16) {
        debug_assert!(words > 0, "empty fetch range");
        self.stats.fram_ifetch += u64::from(words);
        let end = u32::from(start) + 2 * (u32::from(words) - 1);
        debug_assert!(end <= 0xFFFF, "fetch range wraps the address space");
        let first = self.cache.line_of(start);
        let last = self.cache.line_of(end as u16);
        for line in first..=last {
            self.instr_lines.insert(line);
            if self.cache.access_line(line) {
                self.stats.hw_cache_hits += 1;
            } else {
                self.stats.hw_cache_misses += 1;
                self.stats.wait_cycles += u64::from(self.freq.fram_wait_cycles);
            }
        }
        let rest = u64::from(words) - u64::from(last - first + 1);
        if self.cache.is_enabled() {
            self.stats.hw_cache_hits += rest;
        } else {
            self.stats.hw_cache_misses += rest;
            self.stats.wait_cycles += rest * u64::from(self.freq.fram_wait_cycles);
        }
    }

    /// Charges `instrs` instruction fetches of a software runtime's
    /// handler, which always runs from FRAM (paper §5.3): one word per
    /// modeled instruction, walking the window `[base, base +
    /// HANDLER_WINDOW)` from `*cursor` and wrapping to `base` at its end.
    /// `*cursor` is left at the next word to fetch.
    ///
    /// Each word is checked by the sanitizer and charged exactly as
    /// `begin_instruction` + `read_word(addr, IFetch)` + `end_instruction`
    /// would (one word spans one line, so it never contends); the walk up
    /// to each wrap goes through [`Bus::account_fram_ifetch`].
    ///
    /// # Errors
    ///
    /// [`SimError::BusFault`] if `base` is odd or the window is not
    /// entirely in FRAM.
    pub fn replay_handler_fetches(
        &mut self,
        base: u16,
        cursor: &mut u16,
        instrs: u64,
    ) -> SimResult<()> {
        let end = u32::from(base) + u32::from(HANDLER_WINDOW);
        if base & 1 != 0 || !self.fram_contains(base, end) {
            return Err(self.fault(base, "handler window is not word-aligned FRAM"));
        }
        debug_assert!(*cursor & 1 == 0 && *cursor >= base && u32::from(*cursor) < end);
        if instrs == 0 {
            return Ok(());
        }
        // As the per-word brackets would: drop the lines of any open
        // bracket and leave none open.
        self.instr_lines.end();
        let mut left = instrs;
        while left > 0 {
            let words = left.min(u64::from((end - u32::from(*cursor)) / 2)) as u16;
            if let Some(s) = &mut self.sanitizer {
                for i in 0..words {
                    s.check_ifetch(*cursor + 2 * i, 2);
                }
            }
            self.account_fram_ifetch(*cursor, words);
            left -= u64::from(words);
            let next = u32::from(*cursor) + 2 * u32::from(words);
            *cursor = if next >= end { base } else { next as u16 };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(freq: Frequency) -> Bus {
        Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), freq)
    }

    #[test]
    fn region_classification() {
        let m = MemoryMap::fr2355();
        assert_eq!(m.region_of(0x2000), Region::Sram);
        assert_eq!(m.region_of(0x2FFF), Region::Sram);
        assert_eq!(m.region_of(0x4000), Region::Fram);
        assert_eq!(m.region_of(0xBFFF), Region::Fram);
        assert_eq!(m.region_of(0x0100), Region::Mmio);
        assert_eq!(m.region_of(0x0F00), Region::Trap);
        assert_eq!(m.region_of(0x0000), Region::Unmapped);
        assert_eq!(m.region_of(0xC000), Region::Unmapped);
    }

    #[test]
    fn sram_split_and_overlap() {
        let m = MemoryMap::fr2355();
        let (data, cache) = m.split_sram(0x400);
        assert_eq!((data, cache), (AddrRange::new(0x2000, 0x2400), AddrRange::new(0x2400, 0x3000)));
        assert!(!data.overlaps(&cache), "adjacent ranges are disjoint");
        assert!(data.overlaps(&AddrRange::new(0x23FE, 0x2402)));
        let (none, all) = m.split_sram(0);
        assert!(none.is_empty() && all == m.sram);
        assert!(!none.overlaps(&m.sram), "an empty range overlaps nothing");
    }

    #[test]
    fn sram_roundtrip_counts() {
        let mut b = bus(Frequency::MHZ_24);
        b.write_word(0x2000, 0xBEEF).unwrap();
        assert_eq!(b.read_word(0x2000, AccessKind::Read).unwrap(), 0xBEEF);
        assert_eq!(b.stats().sram_write, 1);
        assert_eq!(b.stats().sram_read, 1);
        assert_eq!(b.stats().wait_cycles, 0);
    }

    #[test]
    fn fram_miss_charges_wait_states_at_24mhz() {
        let mut b = bus(Frequency::MHZ_24);
        b.read_word(0x4000, AccessKind::IFetch).unwrap();
        assert_eq!(b.stats().wait_cycles, 3);
        assert_eq!(b.stats().hw_cache_misses, 1);
        // Same line: hit, no extra waits.
        b.read_word(0x4002, AccessKind::IFetch).unwrap();
        assert_eq!(b.stats().wait_cycles, 3);
        assert_eq!(b.stats().hw_cache_hits, 1);
    }

    #[test]
    fn fram_is_free_of_waits_at_8mhz() {
        let mut b = bus(Frequency::MHZ_8);
        b.read_word(0x4000, AccessKind::IFetch).unwrap();
        b.read_word(0x4100, AccessKind::Read).unwrap();
        assert_eq!(b.stats().wait_cycles, 0);
    }

    #[test]
    fn contention_penalty_for_multi_line_instructions() {
        let mut b = bus(Frequency::MHZ_8);
        b.begin_instruction();
        b.read_word(0x4000, AccessKind::IFetch).unwrap();
        b.read_word(0x4800, AccessKind::Read).unwrap(); // distant line
        b.end_instruction();
        assert_eq!(b.stats().contention_cycles, 1);
        // A single-line instruction adds nothing.
        b.begin_instruction();
        b.read_word(0x4002, AccessKind::IFetch).unwrap();
        b.end_instruction();
        assert_eq!(b.stats().contention_cycles, 1);
    }

    #[test]
    fn fram_write_invalidates_cache_line() {
        let mut b = bus(Frequency::MHZ_24);
        b.read_word(0x4000, AccessKind::Read).unwrap(); // fill
        b.write_word(0x4000, 1).unwrap(); // invalidate + wait
        let waits_before = b.stats().wait_cycles;
        b.read_word(0x4000, AccessKind::Read).unwrap(); // must miss again
        assert_eq!(b.stats().wait_cycles, waits_before + 3);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut b = bus(Frequency::MHZ_8);
        assert!(b.read_word(0xC000, AccessKind::Read).is_err());
        assert!(b.write_word(0x0F00, 0).is_err());
    }

    #[test]
    fn unaligned_word_access_rejected() {
        let mut b = bus(Frequency::MHZ_8);
        assert_eq!(b.read_word(0x2001, AccessKind::Read), Err(SimError::Unaligned(0x2001)));
    }

    #[test]
    fn mmio_write_reaches_ports() {
        let mut b = bus(Frequency::MHZ_8);
        b.write_word(crate::ports::HALT, 7).unwrap();
        assert_eq!(b.ports().halt_code(), Some(7));
        assert_eq!(b.stats().mmio_accesses, 1);
    }

    #[test]
    fn image_loading_is_silent() {
        let mut b = bus(Frequency::MHZ_8);
        let img = Image {
            segments: vec![Segment { addr: 0x4000, bytes: vec![0xAA, 0x55] }],
            entry: 0x4000,
        };
        b.load_image(&img).unwrap();
        assert_eq!(b.stats().fram_accesses(), 0);
        assert_eq!(b.peek_word(0x4000), 0x55AA);
    }

    /// A bulk poke leaves the memory, sanitizer fill marks and barrier
    /// invalidations of one poke per byte, across the top of the address
    /// space too.
    #[test]
    fn poke_bytes_matches_per_byte_pokes() {
        let sram = AddrRange::new(0x2000, 0x3000);
        let cfg =
            SanitizerConfig { exec: vec![sram], tracked: Some(sram), ..SanitizerConfig::default() };
        let bytes: Vec<u8> = (1..=40).collect();
        let (mut bulk, mut single) = (bus(Frequency::MHZ_8), bus(Frequency::MHZ_8));
        for b in [&mut bulk, &mut single] {
            b.attach_sanitizer(cfg.clone());
            b.enable_code_watch();
            b.code_watch_add(0x2ff0, 0x2ff4);
        }
        for at in [0x2ff0u16, 0xfff0] {
            bulk.poke_bytes(at, &bytes);
            for (i, &v) in bytes.iter().enumerate() {
                single.poke_byte(at.wrapping_add(i as u16), v);
            }
        }
        assert!((0..=0xffff).all(|a| bulk.peek_byte(a) == single.peek_byte(a)));
        let fills = |b: &Bus| -> Vec<bool> {
            (0x2000..0x3000).map(|pc| b.sanitizer().unwrap().can_skip_ifetch(pc, 1)).collect()
        };
        assert_eq!(fills(&bulk), fills(&single));
        assert_eq!(bulk.peek_byte(0x0017), 40, "the second poke wraps to 0x0000");
        let mut dirty = Vec::new();
        bulk.drain_code_dirty(&mut dirty);
        assert_eq!(dirty, vec![(0x2ff0, 40)], "one barrier note for the watched segment");
    }

    #[test]
    fn overflowing_image_is_a_typed_fault() {
        let mut b = bus(Frequency::MHZ_8);
        let img = Image {
            segments: vec![Segment { addr: 0xFFFE, bytes: vec![1, 2, 3] }],
            entry: 0xFFFE,
        };
        assert!(matches!(b.load_image(&img), Err(SimError::BusFault { addr: 0xFFFE, .. })));
    }

    #[test]
    fn power_cycle_clears_sram_keeps_fram_and_stats() {
        let mut b = bus(Frequency::MHZ_24);
        b.write_word(0x2000, 0xBEEF).unwrap();
        b.write_word(0x4000, 0xCAFE).unwrap();
        b.read_word(0x4000, AccessKind::Read).unwrap(); // fill the cache line
        b.write_word(crate::ports::CHECKSUM, 0x1111).unwrap();
        let cycles = b.stats().total_cycles();
        b.power_cycle();
        assert_eq!(b.peek_word(0x2000), 0, "SRAM must clear");
        assert_eq!(b.peek_word(0x4000), 0xCAFE, "FRAM must persist");
        assert_eq!(b.ports().checksum().1, 0, "port state must reset");
        assert_eq!(b.stats().total_cycles(), cycles, "stats must survive");
        // The hardware cache was flushed: the next read of a previously
        // cached line misses again.
        b.read_word(0x4000, AccessKind::Read).unwrap();
        let misses = b.stats().hw_cache_misses;
        assert!(misses >= 2, "flush must force a re-miss (got {misses})");
    }

    /// The per-word reference for [`Bus::replay_handler_fetches`]: one
    /// bracketed `read_word(_, IFetch)` per handler instruction.
    fn replay_reference(b: &mut Bus, base: u16, cursor: &mut u16, instrs: u64) {
        let end = u32::from(base) + u32::from(HANDLER_WINDOW);
        for _ in 0..instrs {
            b.begin_instruction();
            b.read_word(*cursor, AccessKind::IFetch).unwrap();
            b.end_instruction();
            let next = *cursor + 2;
            *cursor = if u32::from(next) >= end { base } else { next };
        }
    }

    #[test]
    fn handler_fetch_replay_matches_per_word_reference() {
        use crate::sanitize::SanitizerConfig;
        let sanitized = || {
            let mut b = bus(Frequency::MHZ_24);
            // Half the handler window lies outside the executable range.
            b.attach_sanitizer(SanitizerConfig {
                exec: vec![AddrRange::new(0x4000, 0xBA00)],
                ..SanitizerConfig::default()
            });
            b
        };
        let cases: [(&str, &dyn Fn() -> Bus); 5] = [
            ("24 MHz", &|| bus(Frequency::MHZ_24)),
            ("8 MHz", &|| bus(Frequency::MHZ_8)),
            ("cache disabled", &|| {
                Bus::new(MemoryMap::fr2355(), HwCache::disabled(), Frequency::MHZ_24)
            }),
            ("4-way cache", &|| {
                Bus::new(MemoryMap::fr2355(), HwCache::new(2, 4, 8), Frequency::MHZ_24)
            }),
            ("sanitizer", &sanitized),
        ];
        let base = 0xB800;
        for (name, make) in cases {
            // Cursors at the window start and two words before its end, so
            // short replays wrap once and long ones lap the window.
            for (start, instrs) in [(base, 0), (base, 5), (base + 0x3FC, 3), (base + 0x3FC, 1100)] {
                let (mut fast, mut reference) = (make(), make());
                let (mut c1, mut c2) = (start, start);
                for b in [&mut fast, &mut reference] {
                    // Warm lines inside and outside the window, and leave
                    // a bracket open: the handler must not extend it.
                    b.read_word(base + 0x3F8, AccessKind::Read).unwrap();
                    b.begin_instruction();
                    b.read_word(0x4000, AccessKind::Read).unwrap();
                }
                fast.replay_handler_fetches(base, &mut c1, instrs).unwrap();
                replay_reference(&mut reference, base, &mut c2, instrs);
                let ctx = format!("{name}, cursor 0x{start:04x}, {instrs} instrs");
                assert_eq!(c1, c2, "{ctx}: cursor");
                assert_eq!(fast.stats(), reference.stats(), "{ctx}: stats");
                assert_eq!(fast.take_violation(), reference.take_violation(), "{ctx}: sanitizer");
                // The caches must hold the same lines in the same recency
                // order: later accesses split into hits and misses alike.
                for b in [&mut fast, &mut reference] {
                    b.read_word(0x5000, AccessKind::Read).unwrap();
                    b.end_instruction();
                    for addr in [base, base + 8, base + 0x3F8, 0x4000, 0x4010, base + 0x200] {
                        b.read_word(addr, AccessKind::Read).unwrap();
                    }
                }
                assert_eq!(fast.stats(), reference.stats(), "{ctx}: later cache behaviour");
            }
        }
    }

    #[test]
    fn handler_window_must_be_aligned_fram() {
        let mut b = bus(Frequency::MHZ_24);
        for base in [0xB801, 0x2000, 0xBE00] {
            let mut cursor = base;
            let err = b.replay_handler_fetches(base, &mut cursor, 4).unwrap_err();
            assert!(matches!(err, SimError::BusFault { addr, .. } if addr == base), "0x{base:04x}");
            assert_eq!(cursor, base);
        }
        assert_eq!(b.stats().fram_ifetch, 0, "a refused window charges nothing");
    }

    #[test]
    fn flip_bit_corrupts_and_invalidates() {
        let mut b = bus(Frequency::MHZ_24);
        b.poke_word(0x4000, 0x0001);
        b.read_word(0x4000, AccessKind::Read).unwrap(); // cache the line
        b.flip_bit(0x4000, 0);
        assert_eq!(b.read_word(0x4000, AccessKind::Read).unwrap(), 0x0000);
        b.flip_bit(0x2000, 7);
        assert_eq!(b.peek_byte(0x2000), 0x80);
    }
}
