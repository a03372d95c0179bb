//! The hardware FRAM read cache.
//!
//! COTS FRAM microcontrollers place a small read cache between the CPU and
//! the FRAM array to hide wait states; the MSP430FR2355 uses a 2-way
//! set-associative cache of four 8-byte lines (two sets). A hit serves the
//! access at CPU speed; a miss fills the line and pays the wait-state
//! penalty of the current [`Frequency`](crate::freq::Frequency).
//!
//! The cache is deliberately tiny — this is the hardware limitation the
//! paper's unified-memory experiments (Figure 1) run into: alternating code
//! and data accesses to distant FRAM addresses thrash the four lines.

/// Sentinel tag for an empty way. Real line numbers are `addr >> shift`
/// for a 16-bit address, so this value can never collide.
const NO_LINE: u32 = u32::MAX;

/// A set-associative read cache with true-LRU replacement within each set.
#[derive(Debug, Clone)]
pub struct HwCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// `tags[set * ways + way]` — cached line number, or [`NO_LINE`].
    tags: Vec<u32>,
    /// LRU ordering per set: lower value = more recently used.
    stamps: Vec<u64>,
    tick: u64,
    /// Per-set most-recently-used way. For 2-way sets this single bit is
    /// exact LRU (the victim is always the other way), letting the hot
    /// path skip the stamp scan entirely.
    mru: Vec<u8>,
    enabled: bool,
}

impl HwCache {
    /// Creates a cache with `sets` sets of `ways` ways and `line_bytes`-byte
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or if any
    /// parameter is zero.
    pub fn new(sets: usize, ways: usize, line_bytes: usize) -> HwCache {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(ways > 0, "ways must be nonzero");
        HwCache {
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![NO_LINE; sets * ways],
            stamps: vec![0; sets * ways],
            tick: 0,
            // All stamps start equal, so the first victim is way 0; the MRU
            // bit must start at 1 to agree.
            mru: vec![1; sets],
            enabled: true,
        }
    }

    /// The MSP430FR2355 configuration: 2 sets × 2 ways × 8-byte lines.
    pub fn fr2355() -> HwCache {
        HwCache::new(2, 2, 8)
    }

    /// A pass-through cache that misses on every access (for ablation).
    pub fn disabled() -> HwCache {
        let mut c = HwCache::fr2355();
        c.enabled = false;
        c
    }

    /// Whether the cache is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The cache line number holding `addr`.
    #[inline]
    pub fn line_of(&self, addr: u16) -> u32 {
        u32::from(addr) >> self.line_shift
    }

    /// Performs a read access. Returns `true` on a hit; on a miss the line
    /// is filled (evicting the LRU way of its set).
    #[inline]
    pub fn access_read(&mut self, addr: u16) -> bool {
        let line = self.line_of(addr);
        self.access_line(line)
    }

    /// [`access_read`](HwCache::access_read) for a pre-computed line number,
    /// for callers that already have it in hand.
    #[inline]
    pub fn access_line(&mut self, line: u32) -> bool {
        if !self.enabled {
            return false;
        }
        let set = (line as usize) & (self.sets - 1);
        if self.ways == 2 {
            // 2-way sets: the MRU bit is exact LRU. Invalidation clears a
            // tag but leaves recency alone, exactly like the stamp scheme
            // (the victim choice only depends on which way was touched
            // last, and an invalidated way keeps its recency rank).
            let base = set * 2;
            let t = &mut self.tags[base..base + 2];
            if t[0] == line {
                self.mru[set] = 0;
                return true;
            }
            if t[1] == line {
                self.mru[set] = 1;
                return true;
            }
            let victim = 1 - usize::from(self.mru[set]);
            t[victim] = line;
            self.mru[set] = victim as u8;
            return false;
        }
        self.tick += 1;
        let base = set * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        // One pass: scan for a hit while tracking the LRU victim (first
        // minimum, matching `min_by_key` over the full set — stamps ahead
        // of a hit are never needed).
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for way in 0..tags.len() {
            if tags[way] == line {
                stamps[way] = self.tick;
                return true;
            }
            if stamps[way] < victim_stamp {
                victim_stamp = stamps[way];
                victim = way;
            }
        }
        tags[victim] = line;
        stamps[victim] = self.tick;
        false
    }

    /// Invalidates the line containing `addr` (FRAM writes bypass the read
    /// cache; stale lines must not serve subsequent reads).
    pub fn invalidate(&mut self, addr: u16) {
        let line = self.line_of(addr);
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == line {
                self.tags[base + way] = NO_LINE;
            }
        }
    }

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.tags.fill(NO_LINE);
        self.stamps.fill(0);
        self.mru.fill(1);
    }

    /// Copies the replacement state into `into`, allocating only when
    /// `into` has never held a cache of this geometry.
    pub fn save_state(&self, into: &mut CacheState) {
        into.tags.clone_from(&self.tags);
        into.stamps.clone_from(&self.stamps);
        into.mru.clone_from(&self.mru);
        into.tick = self.tick;
    }

    /// Whether the replacement state equals `saved`: the same accesses
    /// from here hit and miss exactly as they did from there.
    pub fn state_eq(&self, saved: &CacheState) -> bool {
        self.tick == saved.tick
            && self.tags == saved.tags
            && self.mru == saved.mru
            && self.stamps == saved.stamps
    }
}

/// A copy of a cache's replacement state — tags, recency and the LRU
/// clock — for [`HwCache::save_state`] and [`HwCache::state_eq`]. Saving
/// into the same value again reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct CacheState {
    tags: Vec<u32>,
    stamps: Vec<u64>,
    mru: Vec<u8>,
    tick: u64,
}

impl Default for HwCache {
    fn default() -> Self {
        HwCache::fr2355()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_words_in_a_line_hit() {
        let mut c = HwCache::fr2355();
        assert!(!c.access_read(0x4000)); // miss, fills line
        assert!(c.access_read(0x4002));
        assert!(c.access_read(0x4004));
        assert!(c.access_read(0x4006));
        assert!(!c.access_read(0x4008)); // next line
    }

    #[test]
    fn two_way_associativity() {
        let mut c = HwCache::fr2355();
        // Lines 0 and 2 map to set 0 (2 sets); both fit in the two ways.
        assert!(!c.access_read(0x4000)); // line A
        assert!(!c.access_read(0x4010)); // line B, same set
        assert!(c.access_read(0x4000));
        assert!(c.access_read(0x4010));
        // A third line in the same set evicts the LRU (line A).
        assert!(!c.access_read(0x4020));
        assert!(!c.access_read(0x4000));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = HwCache::fr2355();
        c.access_read(0x4000); // A
        c.access_read(0x4010); // B
        c.access_read(0x4000); // touch A; B is now LRU
        c.access_read(0x4020); // evicts B
        assert!(c.access_read(0x4000), "A should have survived");
        assert!(!c.access_read(0x4010), "B should have been evicted");
    }

    #[test]
    fn saved_state_compares_replacement_order() {
        let mut c = HwCache::fr2355();
        c.access_read(0x4000);
        c.access_read(0x4010);
        let mut saved = CacheState::default();
        c.save_state(&mut saved);
        assert!(c.state_eq(&saved));
        c.access_read(0x4000); // a hit, but it changes the set's MRU way
        assert!(!c.state_eq(&saved));
        c.access_read(0x4010);
        assert!(c.state_eq(&saved));
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut c = HwCache::fr2355();
        c.access_read(0x4000);
        assert!(c.access_read(0x4002));
        c.invalidate(0x4004); // same line
        assert!(!c.access_read(0x4000));
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = HwCache::disabled();
        assert!(!c.access_read(0x4000));
        assert!(!c.access_read(0x4000));
    }
}
