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

use crate::episode::{clean_cycles, draw_flip, with_build, Episode, Outcome};
use crate::harness::Harness;
use crate::json::Json;
use crate::report::Table;
use crate::resilience::{name_tag, protocol_name, recovery_name};
use mibench::builder::{Built, System};
use mibench::layout::Role;
use mibench::Benchmark;
use msp430_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use msp430_sim::freq::Frequency;
use msp430_sim::irq::IrqSchedule;
use msp430_sim::rng::SplitMix64;
use swapram::{IsrProtocol, RecoveryMode, SwapConfig};

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
pub(crate) fn system_for(bench: Benchmark, protocol: IsrProtocol, recovery: RecoveryMode) -> System {
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
    let mut items: Vec<(Benchmark, IsrProtocol, RecoveryMode, u64, usize, u64)> = Vec::new();
    for protocol in [IsrProtocol::Masked, IsrProtocol::Unprotected] {
        for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
            for bench in benchmarks() {
                let system = system_for(bench, protocol, recovery);
                let clean_cycles = clean_cycles(h, "concurrency", bench, &system);
                for i in 0..schedules {
                    let seed = schedule_seed(base_seed, bench, protocol, recovery, i);
                    items.push((bench, protocol, recovery, seed, i, clean_cycles));
                }
            }
        }
    }
    let rows = h.parallel_map(items, |(bench, protocol, recovery, seed, i, clean_cycles)| {
        with_build(h, bench, &system_for(bench, protocol, recovery), |built| {
            episode(built, bench, protocol, recovery, seed, i, clean_cycles)
        })
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
    let schedule = schedule_for(&mut rng, bench, clean_cycles);
    let (power_loss, bit_flip) = (index % 2 == 1, index % 3 == 2);

    // Composed faults: a mid-run power loss on odd episodes, a metadata
    // bit flip on every third, both inside the middle of the live window.
    let win_lo = (clean_cycles / 10).max(1);
    let win_hi = (clean_cycles * 9 / 10).max(win_lo + 2);
    let mut faults = Vec::new();
    if power_loss {
        faults.push(FaultEvent {
            cycle: win_lo + rng.below(win_hi - win_lo),
            kind: FaultKind::PowerLoss,
        });
    }
    if bit_flip {
        let cycle = win_lo + rng.below(win_hi - win_lo);
        let tables = built.layout.get(Role::Tables).expect("SwapRAM builds have metadata tables");
        let (addr, bit) = draw_flip(&mut rng, tables);
        faults.push(FaultEvent { cycle, kind: FaultKind::BitFlip { addr, bit } });
    }
    let run = Episode {
        built,
        freq: Frequency::MHZ_24,
        faults: FaultPlan::new(faults),
        irq: Some(schedule),
        // Replay after the loss, denser interrupts than the reference run
        // and Unprotected re-traps all lengthen the episode; a few
        // reference runs' worth of cycles is a generous deterministic cap.
        budget: clean_cycles * (u64::from(power_loss) + 3) + 2_000_000,
        boot_cap: None,
        sanitize: true,
        audit: false,
    }
    .run();
    ConcurrencyRow {
        bench,
        protocol,
        recovery,
        seed,
        power_loss,
        bit_flip,
        boots: run.boots,
        irq_delivered: run.irq_delivered,
        irq_coalesced: run.irq_coalesced,
        isr_yields: run.stats.isr_yields,
        boundary_checks: run.stats.boundary_checks,
        guard_repairs: run.stats.guard_repairs,
        fid_repairs: run.stats.fid_repairs,
        recovered_functions: run.stats.recovered_functions,
        outcome: run.outcome(),
        survived: run.survived(),
        correct: run.correct(),
        clean_cycles,
        total_cycles: run.total_cycles,
        error: run.error(),
    }
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
