//! The one fault-episode executor behind every fault campaign — the
//! paper's fault model (§3.3) as a single loop: run until the power
//! fails, power-cycle, recover, and run again, until the program halts,
//! the cycle budget runs out or the boot cap is reached.
//!
//! What a reboot does, mirroring the hardware model:
//!
//! * SRAM (the software cache) and registers vanish; FRAM persists.
//! * A fresh runtime recovers from persistent metadata: `recover` rewinds
//!   the torn `srtab` tables, and under [`RecoveryMode::PersistentStack`]
//!   `recover_resume` also restores the committed checkpoint frame.
//! * Unless a frame was resumed, application FRAM state is restored to
//!   its initial image and the program replays from its entry:
//!   application-level checkpointing is an orthogonal concern, and these
//!   episodes isolate the *caching runtime's* crash consistency.
//!
//! A campaign draws its faults, fills in an [`Episode`], and maps the
//! [`Ended`] result onto its own row type.

use crate::harness::Harness;
use crate::measure::{MeasureError, SEED};
use mibench::builder::{
    poke_inputs, sanitizer_for, swap_runtime, Built, MemoryProfile, Program, System,
};
use mibench::{input_for, Benchmark};
use msp430_sim::fault::FaultPlan;
use msp430_sim::freq::Frequency;
use msp430_sim::irq::{IrqSchedule, IrqTimer};
use msp430_sim::machine::{ExitReason, Fr2355, Machine};
use msp430_sim::mem::AddrRange;
use msp430_sim::rng::SplitMix64;
use swapram::{RecoveryMode, SwapRuntime, SwapStats};

/// How an episode ended, most severe classification first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Wrong checksum with a clean halt — silent corruption, the one
    /// outcome the defense stack exists to prevent.
    SilentWrong,
    /// The invariant oracle rejected runtime state.
    InvariantViolation,
    /// A typed simulation error (sanitizer trap, degradation error,
    /// failed recovery) or a non-zero exit stopped the episode —
    /// detected, not executed through.
    DetectedError,
    /// The episode exhausted its cycle budget or boot cap (interrupt-
    /// storm starvation, livelock, or energy starvation).
    CycleLimit,
    /// Correct halt, but the guard layer detected and repaired at least
    /// one clobbered metadata word along the way.
    GuardRepaired,
    /// Correct halt with nothing to repair.
    Clean,
}

impl Outcome {
    /// Short label for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::SilentWrong => "silent-wrong",
            Outcome::InvariantViolation => "invariant-violation",
            Outcome::DetectedError => "detected-error",
            Outcome::CycleLimit => "cycle-limit",
            Outcome::GuardRepaired => "guard-repaired",
            Outcome::Clean => "clean",
        }
    }
}

/// One fault episode: a SwapRAM build and the faults to run it under.
/// The build's own `SwapConfig` configures every boot's runtime and
/// picks its recovery protocol.
pub struct Episode<'a> {
    /// The SwapRAM build to run.
    pub built: &'a Built,
    /// Operating point.
    pub freq: Frequency,
    /// Power losses and bit flips, fired by cumulative cycle count.
    pub faults: FaultPlan,
    /// Timer-interrupt schedule, delivered to the build's ISR vector.
    pub irq: Option<IrqSchedule>,
    /// Cycle budget of each boot's run (cycles are cumulative).
    pub budget: u64,
    /// Boots after which a further power loss ends the episode.
    pub boot_cap: Option<u32>,
    /// Attach the execution sanitizer on every boot.
    pub sanitize: bool,
    /// Audit the metadata against the FRAM image after a clean halt.
    pub audit: bool,
}

/// Why an episode stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum End {
    /// Halted with exit code 0.
    Halted {
        /// The checksum matched the benchmark oracle.
        correct: bool,
    },
    /// The machine stopped for any other reason (cycle budget, sanitizer
    /// trap, non-zero halt).
    Stopped(ExitReason),
    /// A typed simulation error stopped a run.
    Error(String),
    /// Boot-time recovery failed.
    RecoveryFailed(String),
    /// A power loss arrived after the boot cap was reached.
    BootCap(u32),
}

/// What an [`Episode`] produced.
#[derive(Debug, Clone)]
pub struct Ended {
    /// Why it stopped.
    pub end: End,
    /// Boots taken (1 + reboots).
    pub boots: u32,
    /// Cumulative cycles across all boots, as of the last completed run.
    pub total_cycles: u64,
    /// Interrupts delivered across all boots.
    pub irq_delivered: u64,
    /// Interrupts coalesced while one was already pending.
    pub irq_coalesced: u64,
    /// Every booted runtime's counters, summed.
    pub stats: SwapStats,
    /// The end-of-run audit's finding, when [`Episode::audit`] was set
    /// and it rejected the metadata.
    pub audit: Option<String>,
}

impl Ended {
    /// The episode halted cleanly.
    pub fn survived(&self) -> bool {
        matches!(self.end, End::Halted { .. })
    }

    /// The episode halted cleanly with the oracle checksum.
    pub fn correct(&self) -> bool {
        self.end == End::Halted { correct: true }
    }

    /// The episode's classification.
    pub fn outcome(&self) -> Outcome {
        match &self.end {
            End::Halted { correct: false } => Outcome::SilentWrong,
            End::Halted { correct: true } if self.stats.guard_repairs + self.stats.fid_repairs > 0 => {
                Outcome::GuardRepaired
            }
            End::Halted { correct: true } => Outcome::Clean,
            End::Error(msg) | End::RecoveryFailed(msg) if msg.contains("invariant violation") => {
                Outcome::InvariantViolation
            }
            End::Stopped(ExitReason::CycleLimit) | End::BootCap(_) => Outcome::CycleLimit,
            End::Error(_) | End::RecoveryFailed(_) | End::Stopped(_) => Outcome::DetectedError,
        }
    }

    /// Deterministic error description, unless the episode halted.
    pub fn error(&self) -> Option<String> {
        match &self.end {
            End::Halted { .. } => None,
            End::Stopped(ExitReason::CycleLimit) => {
                Some(MeasureError::CycleLimit(self.total_cycles).to_string())
            }
            End::Stopped(other) => Some(format!("exit {other:?}")),
            End::Error(msg) => Some(msg.clone()),
            End::RecoveryFailed(msg) => Some(format!("recovery failed: {msg}")),
            End::BootCap(cap) => Some(format!("boot cap {cap} reached")),
        }
    }
}

impl Episode<'_> {
    /// Runs the episode to its end.
    ///
    /// # Panics
    ///
    /// Panics unless the build is a SwapRAM build, and when an interrupt
    /// schedule is given for a build without an ISR vector.
    pub fn run(self) -> Ended {
        let built = self.built;
        let Program::Swap(inst, cfg) = &built.program else {
            panic!("fault episodes run SwapRAM builds");
        };
        let input = input_for(built.bench, SEED);
        let sanitizer = self.sanitize.then(|| sanitizer_for(built));

        let mut machine = Fr2355::machine(self.freq);
        machine.load(built.image());
        poke_inputs(&mut machine, built, &input);
        if let Some(schedule) = self.irq {
            let irq = built.irq.expect("an interrupt schedule needs an ISR vector");
            machine.bus_mut().attach_timer(IrqTimer::new(schedule, irq.vector));
        }
        machine.attach_fault_plan(self.faults);
        if let Some(s) = &sanitizer {
            machine.bus_mut().attach_sanitizer(s.clone());
        }

        let mut ended = Ended {
            end: End::Halted { correct: false },
            boots: 1,
            total_cycles: 0,
            irq_delivered: 0,
            irq_coalesced: 0,
            stats: SwapStats::default(),
            audit: None,
        };
        let mut handles = Vec::new();
        let mut rt = swap_runtime(inst, cfg);
        ended.end = loop {
            handles.push(rt.stats_handle());
            machine.attach_hook(Box::new(rt));

            let out = match machine.run(self.budget) {
                Ok(out) => out,
                Err(e) => break End::Error(e.to_string()),
            };
            ended.total_cycles = out.stats.total_cycles();
            ended.irq_delivered = out.stats.irq_delivered;
            ended.irq_coalesced = out.stats.irq_coalesced;
            match out.exit {
                ExitReason::Halted(0) => {
                    if self.audit {
                        ended.audit = final_audit(&mut machine).err();
                    }
                    let correct = out.checksum.0 == built.bench.oracle_checksum(&input);
                    break End::Halted { correct };
                }
                ExitReason::PowerLoss => {}
                other => break End::Stopped(other),
            }
            if let Some(cap) = self.boot_cap.filter(|&cap| ended.boots >= cap) {
                break End::BootCap(cap);
            }

            ended.boots += 1;
            machine.power_cycle();
            if let Some(s) = &sanitizer {
                machine.bus_mut().attach_sanitizer(s.clone());
            }
            rt = swap_runtime(inst, cfg);
            let recovered = if cfg.recovery == RecoveryMode::PersistentStack {
                let (cpu, bus) = machine.cpu_bus_mut();
                rt.recover_resume(cpu, bus)
            } else {
                rt.recover(machine.bus_mut())
            };
            match recovered {
                Ok(o) if !o.resumed => restore_app_state(&mut machine, built, &input),
                Ok(_) => {}
                Err(e) => break End::RecoveryFailed(e.to_string()),
            }
        };
        for handle in handles {
            ended.stats += &*handle.borrow();
        }
        ended
    }
}

/// Restores application state on reboot: every image segment except the
/// regions the build's layout marks as surviving a reboot, then the input
/// and corpus buffers. The metadata tables stay exactly as the power loss
/// tore them (that is what recovery must repair), and the resume area
/// keeps its committed checkpoint frames and watchdog words.
fn restore_app_state(machine: &mut Machine, built: &Built, input: &[u8]) {
    for seg in &built.image().segments {
        if built.layout.survives_reboot(seg.addr) {
            continue;
        }
        for (i, b) in seg.bytes.iter().enumerate() {
            machine.bus_mut().poke_byte(seg.addr.wrapping_add(i as u16), *b);
        }
    }
    poke_inputs(machine, built, input);
}

/// End-of-run metadata audit: recovers the [`SwapRuntime`] from the
/// machine hook and cross-validates every metadata word, active counter
/// and live SRAM copy against the immutable FRAM image.
fn final_audit(machine: &mut Machine) -> Result<(), String> {
    let hook = machine.take_hook().ok_or_else(|| "no runtime hook attached".to_string())?;
    let rt = hook
        .as_any()
        .and_then(|a| a.downcast_ref::<SwapRuntime>())
        .ok_or_else(|| "hook is not a SwapRuntime".to_string())?;
    swapram::invariants::audit_final(rt, machine.bus())
}

/// Cycles of a campaign cell's uninterrupted reference run (unified
/// memory, 24 MHz), which scale every episode's fault window and budget.
///
/// # Panics
///
/// Panics unless the run completes with the oracle checksum.
pub(crate) fn clean_cycles(h: &Harness, tag: &'static str, bench: Benchmark, system: &System) -> u64 {
    let clean = h
        .measure(tag, bench, system, &MemoryProfile::unified(), Frequency::MHZ_24)
        .unwrap_or_else(|e| panic!("{} clean run failed: {e}", bench.name()));
    assert!(clean.correct, "{} clean run must match its oracle", bench.name());
    clean.total_cycles()
}

/// Runs `f` on the memoized unified-memory build of a campaign cell.
pub(crate) fn with_build<R>(h: &Harness, bench: Benchmark, system: &System, f: impl FnOnce(&Built) -> R) -> R {
    f(h.build(bench, system, &MemoryProfile::unified()).as_ref().as_ref().expect("SwapRAM build fits"))
}

/// Draws a bit-flip target uniformly from `range`: the byte address,
/// then the bit.
pub fn draw_flip(rng: &mut SplitMix64, range: AddrRange) -> (u16, u8) {
    let addr = range.start.wrapping_add(rng.below(u64::from(range.len())) as u16);
    (addr, rng.below(8) as u8)
}
