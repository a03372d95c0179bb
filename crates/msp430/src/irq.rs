//! Timer-interrupt controller: fire schedules and the pending-latch model.
//!
//! The MSP430FR2355 drives interrupts from hardware timer peripherals
//! through a vector table in high FRAM. The simulator models the parts the
//! caching-runtime experiments observe: a cycle-driven *fire schedule*
//! ([`IrqSchedule`]), a single pending latch with coalescing (a second
//! fire while one is already latched does not nest — exactly like a
//! maskable edge interrupt flag), SR-based masking through the `GIE` bit
//! ([`crate::cpu::FLAG_GIE`], set and cleared by the guest's `eint`/`dint`
//! instructions), and the 6-cycle hardware entry sequence (push PC, push
//! SR, clear SR, load the vector) performed by
//! [`crate::machine::Machine::run`] between instructions.
//!
//! The vector itself is host-initialised from the program image (the
//! builder resolves the `__isr_entry` symbol), standing in for the
//! FR2355's FRAM-resident vector table — see the substitution table in
//! DESIGN.md.
//!
//! Schedules are deterministic by construction: explicit cycle lists,
//! fixed periods, or seeded draws from [`crate::rng::SplitMix64`] — the
//! same discipline as [`crate::fault::FaultPlan`]. Cycle counts are
//! cumulative across power cycles (statistics model bench instruments),
//! so one schedule spans an entire multi-boot episode.

use crate::rng::SplitMix64;
use std::ops::Range;

/// When the timer fires, in cumulative machine cycles: a sorted burst of
/// one-shot events, optionally followed by (or combined with) a periodic
/// component that never runs dry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrqSchedule {
    /// One-shot fire cycles, sorted ascending.
    events: Vec<u64>,
    /// Cursor into `events`.
    next: usize,
    /// Period of the repeating component; 0 disables it.
    period: u64,
    /// Next cycle at which the periodic component fires.
    next_periodic: u64,
}

impl IrqSchedule {
    /// A purely periodic timer: fires at `phase`, `phase + period`, …
    ///
    /// A zero `period` is clamped to 1 (a free-running timer, not a dead
    /// one — "off" is expressed by not attaching a timer at all).
    pub fn periodic(period: u64, phase: u64) -> IrqSchedule {
        IrqSchedule {
            events: Vec::new(),
            next: 0,
            period: period.max(1),
            next_periodic: phase,
        }
    }

    /// One-shot events at the given cycles (deduplicated and sorted).
    pub fn at(mut events: Vec<u64>) -> IrqSchedule {
        events.sort_unstable();
        events.dedup();
        IrqSchedule { events, next: 0, period: 0, next_periodic: 0 }
    }

    /// One-shot events followed by a periodic tail starting at `from`:
    /// the shape the multi-task campaigns use — a seeded dense burst that
    /// stresses a specific window, then a steady beat so schedulers that
    /// *need* the timer for forward progress never starve.
    pub fn burst_then_periodic(events: Vec<u64>, period: u64, from: u64) -> IrqSchedule {
        let mut s = IrqSchedule::at(events);
        s.period = period.max(1);
        s.next_periodic = from;
        s
    }

    /// `count` seeded one-shot fires uniformly drawn from `window`
    /// (deduplicated, so the result may carry fewer events).
    pub fn seeded(seed: u64, count: usize, window: Range<u64>) -> IrqSchedule {
        let mut rng = SplitMix64::new(seed);
        let span = window.end.saturating_sub(window.start).max(1);
        let events = (0..count).map(|_| window.start + rng.below(span)).collect();
        IrqSchedule::at(events)
    }

    /// Number of one-shot events not yet reached.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }

    /// Whether the schedule has a periodic component (and therefore never
    /// runs dry).
    pub fn is_periodic(&self) -> bool {
        self.period != 0
    }

    /// The cycle of the next fire: the earlier of the next one-shot
    /// event and the next periodic fire (`None` once a schedule with no
    /// periodic component has run dry).
    pub fn next_due(&self) -> Option<u64> {
        let one_shot = self.events.get(self.next).copied();
        let periodic = (self.period != 0).then_some(self.next_periodic);
        one_shot.into_iter().chain(periodic).min()
    }

    /// Advances past every fire at or before `cycle`, returning how many
    /// fires were reached. The caller (the bus pending latch) coalesces
    /// multiple fires into one pending interrupt.
    pub fn take_due(&mut self, cycle: u64) -> u64 {
        let mut due = 0u64;
        while self.next < self.events.len() && self.events[self.next] <= cycle {
            self.next += 1;
            due += 1;
        }
        if self.period != 0 {
            while self.next_periodic <= cycle {
                self.next_periodic += self.period;
                due += 1;
            }
        }
        due
    }
}

/// The simulated timer peripheral: a fire schedule, the interrupt vector
/// it requests, and the single pending latch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrqTimer {
    schedule: IrqSchedule,
    vector: u16,
    pending: bool,
}

impl IrqTimer {
    /// Creates a timer that requests `vector` on every schedule fire.
    pub fn new(schedule: IrqSchedule, vector: u16) -> IrqTimer {
        IrqTimer { schedule, vector, pending: false }
    }

    /// The interrupt vector (ISR entry address).
    pub fn vector(&self) -> u16 {
        self.vector
    }

    /// Whether an interrupt is latched and waiting for delivery.
    pub fn pending(&self) -> bool {
        self.pending
    }

    /// The fire schedule.
    pub fn schedule(&self) -> &IrqSchedule {
        &self.schedule
    }

    /// The cycle of the schedule's next fire (see
    /// [`IrqSchedule::next_due`]).
    pub fn next_due(&self) -> Option<u64> {
        self.schedule.next_due()
    }

    /// Latches every fire due at `cycle`; returns how many fires were
    /// *coalesced* into an already-pending (or just-latched) interrupt —
    /// i.e. fires that will not get their own delivery.
    pub fn latch_due(&mut self, cycle: u64) -> u64 {
        let due = self.schedule.take_due(cycle);
        if due == 0 {
            return 0;
        }
        if self.pending {
            due
        } else {
            self.pending = true;
            due - 1
        }
    }

    /// Clears the pending latch (delivery, or a power cycle — latched
    /// requests are volatile peripheral state and do not survive a
    /// reboot; the schedule's cursor does, because fire cycles are
    /// cumulative bench time).
    pub fn clear_pending(&mut self) {
        self.pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_fires_every_period() {
        let mut s = IrqSchedule::periodic(100, 50);
        assert_eq!(s.take_due(49), 0);
        assert_eq!(s.take_due(50), 1);
        assert_eq!(s.take_due(149), 0);
        assert_eq!(s.take_due(380), 3, "150, 250, 350");
        assert!(s.is_periodic());
    }

    #[test]
    fn one_shot_events_sorted_and_deduped() {
        let mut s = IrqSchedule::at(vec![30, 10, 30, 20]);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.take_due(10), 1);
        assert_eq!(s.take_due(25), 1);
        assert_eq!(s.take_due(1000), 1);
        assert_eq!(s.take_due(2000), 0, "burst schedules run dry");
        assert!(!s.is_periodic());
    }

    #[test]
    fn burst_then_periodic_never_runs_dry() {
        let mut s = IrqSchedule::burst_then_periodic(vec![5, 7], 100, 200);
        assert_eq!(s.take_due(10), 2);
        assert_eq!(s.take_due(199), 0);
        assert_eq!(s.take_due(200), 1);
        assert_eq!(s.take_due(10_000), 98);
    }

    #[test]
    fn next_due_one_shot_runs_dry() {
        let mut s = IrqSchedule::at(vec![30, 10]);
        assert_eq!(s.next_due(), Some(10));
        s.take_due(10);
        assert_eq!(s.next_due(), Some(30));
        s.take_due(30);
        assert_eq!(s.next_due(), None, "exhausted one-shot schedule");
    }

    #[test]
    fn next_due_periodic_advances_by_period() {
        let mut s = IrqSchedule::periodic(100, 50);
        assert_eq!(s.next_due(), Some(50));
        s.take_due(49);
        assert_eq!(s.next_due(), Some(50));
        s.take_due(380);
        assert_eq!(s.next_due(), Some(450), "50, 150, 250, 350 taken");
    }

    #[test]
    fn next_due_burst_then_periodic_takes_the_earlier() {
        let mut s = IrqSchedule::burst_then_periodic(vec![5, 300], 100, 200);
        assert_eq!(s.next_due(), Some(5));
        s.take_due(5);
        assert_eq!(s.next_due(), Some(200), "periodic fire precedes the one-shot");
        s.take_due(200);
        assert_eq!(s.next_due(), Some(300), "the one-shot ties the next periodic fire");
        s.take_due(300);
        assert_eq!(s.next_due(), Some(400), "burst exhausted, the beat goes on");
    }

    #[test]
    fn timer_next_due_after_latch() {
        let mut t = IrqTimer::new(IrqSchedule::at(vec![10, 20]), 0x4400);
        assert_eq!(t.next_due(), Some(10));
        t.latch_due(15);
        assert!(t.pending());
        assert_eq!(t.next_due(), Some(20), "a latched fire is no longer due");
        t.latch_due(20);
        assert_eq!(t.next_due(), None);
    }

    #[test]
    fn seeded_is_deterministic_and_windowed() {
        let a = IrqSchedule::seeded(42, 16, 100..1000);
        let b = IrqSchedule::seeded(42, 16, 100..1000);
        let c = IrqSchedule::seeded(43, 16, 100..1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.events.iter().all(|&e| (100..1000).contains(&e)));
        assert!(a.events.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    }

    #[test]
    fn latch_coalesces_multiple_fires() {
        let mut t = IrqTimer::new(IrqSchedule::at(vec![10, 20, 30]), 0x4400);
        assert_eq!(t.latch_due(5), 0);
        assert!(!t.pending());
        // Three fires reached at once: one pending interrupt, two coalesced.
        assert_eq!(t.latch_due(35), 2);
        assert!(t.pending());
        t.clear_pending();
        assert!(!t.pending());
        assert_eq!(t.latch_due(1000), 0, "schedule exhausted");
    }

    #[test]
    fn pending_latch_does_not_nest() {
        let mut t = IrqTimer::new(IrqSchedule::periodic(10, 10), 0x4400);
        assert_eq!(t.latch_due(10), 0);
        // A second fire while pending coalesces entirely.
        assert_eq!(t.latch_due(20), 1);
        assert!(t.pending());
    }
}
