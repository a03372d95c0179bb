//! Concurrency experiment — reentrancy of the SwapRAM runtime under
//! timer interrupts and preemptive tasks.
//!
//! Every MiBench benchmark runs with the timer-ISR harness (a periodic
//! ISR whose work body shares the code cache with the application), and
//! the two preemptive multi-task benchmarks run with their round-robin
//! schedulers, each under seeded interrupt schedules, both critical-
//! section protocols and both recovery modes. Episodes additionally
//! compose the other fault campaigns: odd episodes inject a mid-run
//! power loss (with boot-time recovery), and every third episode injects
//! a metadata bit flip.
//!
//! The row set demonstrates the paper's trust model: under the
//! [`IsrProtocol::Masked`] protocol (funcId veneers, trap-window
//! deferral, task-stack eviction pins) every episode must complete with
//! the oracle checksum and zero invariant violations; under
//! [`IsrProtocol::Unprotected`] (the miss handler yields to pending
//! interrupts) the guard/oracle/sanitizer stack must *detect* at least
//! one hazard across the campaign — preemption hitting the
//! `MOV #funcId` / `CALL &redir` publish window is repaired by the
//! guards and counted, never silently executed through.
//!
//! Rows carry only deterministic quantities (no wall-clock), so
//! identical seeds yield byte-identical JSON regardless of
//! `SWAPRAM_JOBS`.

use crate::harness::Harness;
use crate::json::Json;
use crate::measure::{MeasureError, SEED};
use crate::report::Table;
use crate::resilience::{name_tag, poke_app_state, protocol_name, recovery_name};
use mibench::builder::{Built, MemoryProfile, Program, System};
use mibench::{input_for, Benchmark};
use msp430_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use msp430_sim::freq::Frequency;
use msp430_sim::irq::{IrqSchedule, IrqTimer};
use msp430_sim::machine::{ExitReason, Fr2355};
use msp430_sim::rng::SplitMix64;
use swapram::{IsrProtocol, RecoveryMode, SwapConfig, SwapRuntime};

/// Seeded interrupt schedules per benchmark/protocol/recovery cell in the
/// full configuration.
pub const DEFAULT_SCHEDULES: usize = 4;

/// Schedules per cell in `--fast` (CI) mode.
pub const FAST_SCHEDULES: usize = 2;

/// The benchmarks of the campaign: the nine single-task MiBench programs
/// (run with the timer-ISR harness) plus the two preemptive multi-task
/// benchmarks.
pub fn benchmarks() -> Vec<Benchmark> {
    Benchmark::MIBENCH.iter().chain(Benchmark::MULTITASK.iter()).copied().collect()
}

/// How an episode ended, most severe classification first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Wrong checksum with a clean halt — silent corruption, the one
    /// outcome the defense stack exists to prevent.
    SilentWrong,
    /// The interrupt-boundary invariant oracle rejected runtime state.
    InvariantViolation,
    /// A typed simulation error (sanitizer trap, degradation error,
    /// failed recovery) stopped the episode — detected, not executed
    /// through.
    DetectedError,
    /// The episode exhausted its cycle budget (interrupt-storm
    /// starvation or livelock).
    CycleLimit,
    /// Correct halt, but the guard layer detected and repaired at least
    /// one preemption-clobbered metadata word along the way.
    GuardRepaired,
    /// Correct halt with nothing to repair.
    Clean,
}

impl Outcome {
    /// Short label for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::SilentWrong => "SILENT-WRONG",
            Outcome::InvariantViolation => "invariant-violation",
            Outcome::DetectedError => "detected-error",
            Outcome::CycleLimit => "cycle-limit",
            Outcome::GuardRepaired => "guard-repaired",
            Outcome::Clean => "clean",
        }
    }
}

/// One benchmark episode under one seeded interrupt schedule.
#[derive(Debug, Clone)]
pub struct ConcurrencyRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Critical-section protocol under test.
    pub protocol: IsrProtocol,
    /// Recovery protocol used after composed power losses.
    pub recovery: RecoveryMode,
    /// Schedule seed.
    pub seed: u64,
    /// A mid-run power loss was composed into the episode.
    pub power_loss: bool,
    /// A metadata bit flip was composed into the episode.
    pub bit_flip: bool,
    /// Boots taken (1 + recoveries).
    pub boots: u32,
    /// Interrupts delivered across all boots.
    pub irq_delivered: u64,
    /// Interrupts coalesced while one was already pending.
    pub irq_coalesced: u64,
    /// Miss-handler yields to pending interrupts (Unprotected only).
    pub isr_yields: u64,
    /// Invariant checks run at interrupt boundaries.
    pub boundary_checks: u64,
    /// Guard-word repairs (any cause).
    pub guard_repairs: u64,
    /// funcId publish-window repairs specifically.
    pub fid_repairs: u64,
    /// Functions rewound by boot-time recovery.
    pub recovered_functions: u64,
    /// Episode classification.
    pub outcome: Outcome,
    /// The episode halted cleanly within budget.
    pub survived: bool,
    /// Final checksum matched the benchmark oracle.
    pub correct: bool,
    /// Cycles of the uninterrupted reference run (same build).
    pub clean_cycles: u64,
    /// Cumulative cycles across all boots.
    pub total_cycles: u64,
    /// Deterministic error description, when the episode errored.
    pub error: Option<String>,
}

impl ConcurrencyRow {
    /// Whether the defense stack surfaced a hazard on this episode (any
    /// non-clean classification except pure guard bookkeeping from the
    /// composed bit flip).
    pub fn hazard_detected(&self) -> bool {
        self.fid_repairs > 0
            || matches!(
                self.outcome,
                Outcome::InvariantViolation | Outcome::DetectedError | Outcome::CycleLimit
            )
            || (self.guard_repairs > 0 && !self.bit_flip)
    }

    /// The Masked reentrancy contract for this episode. Pure-concurrency
    /// episodes (and power-loss ones — recovery is exact) must halt with
    /// the oracle checksum. When a metadata bit flip was composed in, the
    /// episode may instead end *detectably* rejected — the boundary
    /// invariant oracle or a typed error catching the injected corruption
    /// before it can propagate — but never silently wrong and never by
    /// running off the cycle budget.
    pub fn masked_ok(&self) -> bool {
        (self.survived && self.correct)
            || (self.bit_flip
                && matches!(self.outcome, Outcome::InvariantViolation | Outcome::DetectedError))
    }
}

/// The system configuration for one campaign cell. Single-task
/// benchmarks get the timer-ISR harness; multi-task benchmarks carry
/// their own ISR. Invariant checking is always on — every interrupt
/// boundary runs the metadata oracle.
fn system_for(bench: Benchmark, protocol: IsrProtocol, recovery: RecoveryMode) -> System {
    let mut cfg = SwapConfig::unified_fr2355()
        .with_recovery(recovery)
        .with_isr_protocol(protocol)
        .with_invariant_checks(true);
    if !bench.is_multitask() {
        cfg = cfg.with_irq_harness(true);
    }
    System::SwapRam(cfg)
}

/// Runs the full concurrency matrix: (9 harnessed MiBench + 2 multi-task)
/// benchmarks × both ISR protocols × both recovery modes × `schedules`
/// seeded interrupt schedules, fanned out on the harness worker pool.
/// Registers the deterministic row set as the report's `concurrency`
/// section.
pub fn run(h: &Harness, schedules: usize, base_seed: u64) -> Vec<ConcurrencyRow> {
    let profile = MemoryProfile::unified();
    let mut items: Vec<(Benchmark, IsrProtocol, RecoveryMode, u64, usize, u64)> = Vec::new();
    for protocol in [IsrProtocol::Masked, IsrProtocol::Unprotected] {
        for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
            for bench in benchmarks() {
                let system = system_for(bench, protocol, recovery);
                let clean = h
                    .measure("concurrency", bench, &system, &profile, Frequency::MHZ_24)
                    .unwrap_or_else(|e| panic!("{} clean run failed: {e}", bench.name()));
                assert!(clean.correct, "{} clean run must match its oracle", bench.name());
                for i in 0..schedules {
                    let seed = schedule_seed(base_seed, bench, protocol, recovery, i);
                    items.push((bench, protocol, recovery, seed, i, clean.total_cycles()));
                }
            }
        }
    }
    let rows = h.parallel_map(items, |(bench, protocol, recovery, seed, i, clean_cycles)| {
        let system = system_for(bench, protocol, recovery);
        let built = h.build(bench, &system, &profile);
        let built = built.as_ref().as_ref().expect("SwapRAM build fits");
        episode(built, bench, protocol, recovery, seed, i, clean_cycles)
    });
    h.add_section("concurrency", rows_json(&rows));
    rows
}

/// Derives the per-episode schedule seed, folding the benchmark name,
/// protocol and recovery mode so cells draw distinct schedules while the
/// published seed stays reproducible from `(base, bench, cell, i)`.
pub(crate) fn schedule_seed(
    base: u64,
    bench: Benchmark,
    protocol: IsrProtocol,
    recovery: RecoveryMode,
    i: usize,
) -> u64 {
    let mut x = SplitMix64::new(base);
    let mut tag = name_tag(&[bench.name()]);
    if protocol == IsrProtocol::Unprotected {
        tag = tag.wrapping_add(0x1517);
    }
    if recovery == RecoveryMode::DirtyLog {
        tag = tag.wrapping_add(0x5eed);
    }
    x.next_u64().wrapping_add(tag).wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seeded interrupt schedule for one episode.
///
/// Single-task (harness) benchmarks draw a *finite* burst of 8–64
/// interrupts inside the live window: the benchmark makes progress
/// without ticks, and a finite schedule keeps the Unprotected yield
/// protocol from faithfully starving the main thread forever (an
/// interrupt storm denser than the ISR is a livelock by construction,
/// which the cycle budget would classify — but it would drown the
/// signal this campaign is after).
///
/// Multi-task benchmarks only make progress while ticks arrive, so they
/// draw a periodic schedule with a seeded period and phase instead; the
/// period stays well above the worst-case ISR duration.
fn schedule_for(rng: &mut SplitMix64, bench: Benchmark, clean_cycles: u64) -> IrqSchedule {
    if bench.is_multitask() {
        let period = 1499 + rng.below(8000);
        let phase = 1 + rng.below(997);
        IrqSchedule::periodic(period, phase)
    } else {
        let win_lo = (clean_cycles / 20).max(1);
        let win_hi = (clean_cycles * 19 / 20).max(win_lo + 2);
        let count = 8 + rng.below(57) as usize;
        IrqSchedule::seeded(rng.next_u64(), count, win_lo..win_hi)
    }
}

/// Executes one benchmark under one seeded interrupt schedule, with the
/// composed fault plan, and classifies the episode.
fn episode(
    built: &Built,
    bench: Benchmark,
    protocol: IsrProtocol,
    recovery: RecoveryMode,
    seed: u64,
    index: usize,
    clean_cycles: u64,
) -> ConcurrencyRow {
    let mut rng = SplitMix64::new(seed);
    let mut row = ConcurrencyRow {
        bench,
        protocol,
        recovery,
        seed,
        power_loss: index % 2 == 1,
        bit_flip: index % 3 == 2,
        boots: 1,
        irq_delivered: 0,
        irq_coalesced: 0,
        isr_yields: 0,
        boundary_checks: 0,
        guard_repairs: 0,
        fid_repairs: 0,
        recovered_functions: 0,
        outcome: Outcome::DetectedError,
        survived: false,
        correct: false,
        clean_cycles,
        total_cycles: 0,
        error: None,
    };
    let Program::Swap(inst, built_cfg) = &built.program else {
        row.error = Some("concurrency requires a SwapRAM build".into());
        return row;
    };
    let irq = built.irq.expect("concurrency builds carry an ISR vector");
    let input = input_for(bench, SEED);
    let schedule = schedule_for(&mut rng, bench, clean_cycles);

    // Composed faults: a mid-run power loss on odd episodes, a metadata
    // bit flip on every third, both inside the middle of the live window.
    let win_lo = (clean_cycles / 10).max(1);
    let win_hi = (clean_cycles * 9 / 10).max(win_lo + 2);
    let mut faults = Vec::new();
    if row.power_loss {
        faults.push(FaultEvent {
            cycle: win_lo + rng.below(win_hi - win_lo),
            kind: FaultKind::PowerLoss,
        });
    }
    if row.bit_flip {
        let (lo, hi) = tables_range(built);
        faults.push(FaultEvent {
            cycle: win_lo + rng.below(win_hi - win_lo),
            kind: FaultKind::BitFlip {
                addr: lo.wrapping_add(rng.below(u64::from(hi - u32::from(lo))) as u16),
                bit: rng.below(8) as u8,
            },
        });
    }
    let losses = u64::from(row.power_loss);
    // Replay after the loss, denser interrupts than the reference run and
    // Unprotected re-traps all lengthen the episode; a few reference
    // runs' worth of cycles is a generous deterministic cap.
    let budget = clean_cycles * (losses + 3) + 2_000_000;

    let mut machine = Fr2355::machine(Frequency::MHZ_24);
    machine.load(built.image());
    poke_app_state(&mut machine, built, &input, false);
    machine.bus_mut().attach_timer(IrqTimer::new(schedule, irq.vector));
    machine.attach_fault_plan(FaultPlan::new(faults));
    if let Some(cfg) = mibench::builder::sanitizer_for(built) {
        machine.bus_mut().attach_sanitizer(cfg);
    }
    let mut handles = Vec::new();
    attach_runtime(&mut machine, inst, built_cfg, &mut handles, false);

    loop {
        let out = match machine.run(budget) {
            Ok(out) => out,
            Err(e) => {
                let msg = e.to_string();
                row.outcome = if msg.contains("invariant violation") {
                    Outcome::InvariantViolation
                } else {
                    Outcome::DetectedError
                };
                row.error = Some(msg);
                break;
            }
        };
        row.total_cycles = out.stats.total_cycles();
        row.irq_delivered = out.stats.irq_delivered;
        row.irq_coalesced = out.stats.irq_coalesced;
        match out.exit {
            ExitReason::Halted(0) => {
                row.survived = true;
                row.correct = out.checksum.0 == bench.oracle_checksum(&input);
                break;
            }
            ExitReason::PowerLoss => {
                row.boots += 1;
                machine.power_cycle();
                poke_app_state(&mut machine, built, &input, true);
                if let Some(cfg) = mibench::builder::sanitizer_for(built) {
                    machine.bus_mut().attach_sanitizer(cfg);
                }
                if !attach_runtime(&mut machine, inst, built_cfg, &mut handles, true) {
                    row.error = Some("recovery failed".into());
                    break;
                }
            }
            ExitReason::CycleLimit => {
                row.outcome = Outcome::CycleLimit;
                row.error = Some(MeasureError::CycleLimit(row.total_cycles).to_string());
                break;
            }
            other => {
                row.error = Some(format!("exit {other:?}"));
                break;
            }
        }
    }

    for handle in handles {
        let s = handle.borrow();
        row.isr_yields += s.isr_yields;
        row.boundary_checks += s.boundary_checks;
        row.guard_repairs += s.guard_repairs;
        row.fid_repairs += s.fid_repairs;
        row.recovered_functions += s.recovered_functions;
    }
    if row.survived {
        row.outcome = if !row.correct {
            Outcome::SilentWrong
        } else if row.guard_repairs > 0 || row.fid_repairs > 0 {
            Outcome::GuardRepaired
        } else {
            Outcome::Clean
        };
    }
    row
}

/// Constructs and attaches a fresh runtime (recovering first on reboot),
/// registering the Masked-protocol task table when the benchmark has
/// one. Returns `false` when recovery failed.
fn attach_runtime(
    machine: &mut msp430_sim::machine::Machine,
    inst: &swapram::Instrumented,
    cfg: &SwapConfig,
    handles: &mut Vec<mibench::builder::SwapHandle>,
    recover: bool,
) -> bool {
    let mut rt = SwapRuntime::new(inst, cfg.clone());
    if recover && rt.recover(machine.bus_mut()).is_err() {
        return false;
    }
    if cfg.isr_protocol == IsrProtocol::Masked {
        if let Some(tcb0) = inst.assembly.symbol("__tcb0") {
            rt.set_task_table(tcb0, 2);
        }
    }
    handles.push(rt.stats_handle());
    machine.attach_hook(Box::new(rt));
    true
}

/// Address range of the `srtab` metadata tables (the bit-flip target).
fn tables_range(built: &Built) -> (u16, u32) {
    let Program::Swap(inst, _) = &built.program else {
        unreachable!("concurrency episodes run SwapRAM builds");
    };
    inst.assembly
        .sections
        .iter()
        .find(|(n, _, size)| n == swapram::tables::TABLES_SECTION && *size > 0)
        .map(|(_, base, size)| (*base, u32::from(*base) + u32::from(*size)))
        .expect("SwapRAM build lacks a metadata section")
}

/// Masked-protocol rows that violated the reentrancy contract: every
/// Masked episode must halt with the oracle checksum — or, when a
/// metadata bit flip was composed in, be *detectably* rejected (see
/// [`ConcurrencyRow::masked_ok`]). A masked episode that is silently
/// wrong, exhausts its cycle budget, or fails without any injected
/// corruption is a contract violation.
pub fn masked_failures(rows: &[ConcurrencyRow]) -> Vec<&ConcurrencyRow> {
    rows.iter()
        .filter(|r| r.protocol == IsrProtocol::Masked && !r.masked_ok())
        .collect()
}

/// Unprotected-protocol rows on which the defense stack surfaced a
/// hazard. The campaign requires at least one: the Unprotected protocol
/// reproduces the paper's trust assumption, and the guards must be seen
/// catching what masking would have prevented.
pub fn unprotected_detections(rows: &[ConcurrencyRow]) -> Vec<&ConcurrencyRow> {
    rows.iter()
        .filter(|r| r.protocol == IsrProtocol::Unprotected && r.hazard_detected())
        .collect()
}

/// Rows that ended in silent wrong output — must be empty under either
/// protocol while guards are on.
pub fn silent_rows(rows: &[ConcurrencyRow]) -> Vec<&ConcurrencyRow> {
    rows.iter().filter(|r| r.outcome == Outcome::SilentWrong).collect()
}

/// Serializes rows as the report's `concurrency` section. Wall-clock is
/// deliberately absent: the section must be byte-identical for identical
/// seeds across `SWAPRAM_JOBS` settings.
pub fn rows_json(rows: &[ConcurrencyRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("bench", Json::str(r.bench.name())),
                    ("protocol", Json::str(protocol_name(r.protocol))),
                    ("recovery", Json::str(recovery_name(r.recovery))),
                    ("seed", Json::U64(r.seed)),
                    ("power_loss", Json::Bool(r.power_loss)),
                    ("bit_flip", Json::Bool(r.bit_flip)),
                    ("boots", Json::U64(u64::from(r.boots))),
                    ("irq_delivered", Json::U64(r.irq_delivered)),
                    ("irq_coalesced", Json::U64(r.irq_coalesced)),
                    ("isr_yields", Json::U64(r.isr_yields)),
                    ("boundary_checks", Json::U64(r.boundary_checks)),
                    ("guard_repairs", Json::U64(r.guard_repairs)),
                    ("fid_repairs", Json::U64(r.fid_repairs)),
                    ("recovered_functions", Json::U64(r.recovered_functions)),
                    ("outcome", Json::str(r.outcome.name())),
                    ("survived", Json::Bool(r.survived)),
                    ("correct", Json::Bool(r.correct)),
                    ("clean_cycles", Json::U64(r.clean_cycles)),
                    ("total_cycles", Json::U64(r.total_cycles)),
                ];
                if let Some(e) = &r.error {
                    fields.push(("error", Json::str(e.clone())));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Renders the per-benchmark concurrency table, one per protocol,
/// aggregated over recovery modes and schedules.
pub fn render(rows: &[ConcurrencyRow]) -> String {
    let mut out = String::new();
    for protocol in [IsrProtocol::Masked, IsrProtocol::Unprotected] {
        let mode = protocol_name(protocol);
        let mut t = Table::new(
            &format!("Concurrency — seeded interrupt schedules, {mode} protocol"),
            &["benchmark", "episodes", "irqs", "yields", "fid repairs", "boundary checks", "ok"],
        );
        let mut all_ok = true;
        for bench in benchmarks() {
            let bs: Vec<&ConcurrencyRow> =
                rows.iter().filter(|r| r.bench == bench && r.protocol == protocol).collect();
            if bs.is_empty() {
                continue;
            }
            // Masked rows must all be clean-and-correct (or detectably
            // rejected under an injected bit flip); Unprotected rows
            // pass as long as nothing was silently wrong.
            let ok = match protocol {
                IsrProtocol::Masked => bs.iter().all(|r| r.masked_ok()),
                IsrProtocol::Unprotected => {
                    bs.iter().all(|r| r.outcome != Outcome::SilentWrong)
                }
            };
            all_ok &= ok;
            t.row(vec![
                bench.short_name().into(),
                bs.len().to_string(),
                bs.iter().map(|r| r.irq_delivered).sum::<u64>().to_string(),
                bs.iter().map(|r| r.isr_yields).sum::<u64>().to_string(),
                bs.iter().map(|r| r.fid_repairs).sum::<u64>().to_string(),
                bs.iter().map(|r| r.boundary_checks).sum::<u64>().to_string(),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
        match protocol {
            IsrProtocol::Masked => t.note(if all_ok {
                "every masked episode correct, or detectably rejected under injected flips"
            } else {
                "SOME MASKED EPISODES FAILED"
            }),
            IsrProtocol::Unprotected => {
                let detections = unprotected_detections(rows).len();
                t.note(if all_ok {
                    if detections > 0 {
                        "hazards detected and contained; none silent"
                    } else {
                        "no hazards surfaced (weak schedules?)"
                    }
                } else {
                    "SILENT WRONG OUTPUT UNDER UNPROTECTED ISRs"
                })
            }
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
