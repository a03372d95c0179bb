//! Intermittent-computing campaign — forward progress on harvested
//! energy.
//!
//! Every benchmark (the nine single-task MiBench programs with the
//! timer-ISR harness, plus the two preemptive multi-task programs) runs
//! on seeded harvested-energy traces ([`EnergyTrace`]): the supply
//! browns out at the end of every boot's energy budget, densely and for
//! the whole episode — there is no trailing free-power window to limp
//! home on. Four loss-density tiers sweep the budget from "a boot
//! usually finishes the whole program" down to "a boot cannot even pay
//! for recovery", across all four trace shapes, and each tier runs
//! under all three recovery protocols:
//!
//! * [`RecoveryMode::FullScan`] / [`RecoveryMode::DirtyLog`] — replay
//!   semantics: every boot repairs the cache metadata and restarts the
//!   program from its entry point. Below a budget threshold these can
//!   never complete, no matter how many boots they are given.
//! * [`RecoveryMode::PersistentStack`] — just-in-time checkpointing:
//!   the brown-out dying gasp commits a resume frame at the exact
//!   interruption point (registers, call stack, I/O-port journal), so
//!   each boot continues where the last one stopped and progress
//!   accumulates across arbitrarily dense losses.
//!
//! The reported forward-progress metrics are *useful cycles per boot*
//! (oracle-checked completed work divided by the boots it took — zero
//! for an episode that never completed) and per-tier completion. The
//! Sisyphus watchdog must convert every would-be reboot livelock (the
//! famine tier, and replay modes below their completion threshold under
//! persistent-stack's own skips) into a *detected* degradation — never
//! a silent spin and never silently wrong output.
//!
//! Rows carry only deterministic quantities (no wall-clock), so
//! identical seeds yield byte-identical JSON regardless of
//! `SWAPRAM_JOBS`.

use crate::concurrency::system_for;
use crate::episode::{clean_cycles, draw_flip, with_build, Episode, Outcome};
use crate::harness::Harness;
use crate::json::Json;
use crate::report::Table;
use crate::resilience::{name_tag, recovery_name};
use mibench::builder::Built;
use mibench::layout::Role;
use mibench::Benchmark;
use msp430_sim::fault::{EnergyShape, EnergyTrace, FaultEvent, FaultKind, FaultPlan, RECORDED_PROFILE};
use msp430_sim::freq::Frequency;
use msp430_sim::irq::IrqSchedule;
use msp430_sim::rng::SplitMix64;
use swapram::{IsrProtocol, RecoveryMode};

/// The recovery protocols the campaign compares.
pub const PROTOCOLS: [RecoveryMode; 3] =
    [RecoveryMode::FullScan, RecoveryMode::DirtyLog, RecoveryMode::PersistentStack];

/// Loss-density tier: how much energy each boot harvests relative to
/// the benchmark's uninterrupted run, and which supply shape delivers
/// it. Ordered from gentlest to harshest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Solar harvesting with a mean budget of 3x the clean run: bright
    /// boots finish the program outright, dark boots are short. Every
    /// protocol should complete here.
    Sparse,
    /// RC-charged capacitor at a quarter of the clean run per boot: no
    /// single boot can finish, so replay protocols are below their
    /// completion threshold while checkpointing accumulates progress.
    Dense,
    /// Ambient-RF harvesting at a sixteenth of the clean run: mostly
    /// starvation-length bursts with occasional long windows — still
    /// below the replay threshold.
    Storm,
    /// Playback of a recorded bursty indoor-light trace with a fixed
    /// ~600-cycle budget — barely past the cost of recovery itself.
    /// Nothing completes. Where the dying gasp can checkpoint, each
    /// boot still advances the state fingerprint a few instructions
    /// (starvation with real progress, so the watchdog stays quiet);
    /// where it cannot (multitask stacks), the boot loop makes no
    /// progress and the watchdog must flag the livelock.
    Famine,
}

impl Tier {
    /// Every tier, gentlest first.
    pub const ALL: [Tier; 4] = [Tier::Sparse, Tier::Dense, Tier::Storm, Tier::Famine];

    /// The CI fast-mode subset: drops the storm tier (the slowest
    /// sweep) and keeps sparse/dense/famine — the separation tiers.
    pub const FAST: [Tier; 3] = [Tier::Sparse, Tier::Dense, Tier::Famine];

    /// The densest tier on which persistent-stack checkpointing must
    /// still complete (and replay must not): the separation the
    /// campaign exists to demonstrate.
    pub const DENSEST_COMPLETABLE: Tier = Tier::Storm;

    /// Short label for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Sparse => "sparse",
            Tier::Dense => "dense",
            Tier::Storm => "storm",
            Tier::Famine => "famine",
        }
    }

    /// The harvested-supply shape this tier draws boots from.
    pub fn shape(self) -> EnergyShape {
        match self {
            Tier::Sparse => EnergyShape::Solar,
            Tier::Dense => EnergyShape::RcCharge,
            Tier::Storm => EnergyShape::Rf,
            Tier::Famine => EnergyShape::Recorded(RECORDED_PROFILE.to_vec()),
        }
    }

    /// Mean per-boot energy budget in cycles, relative to the clean run.
    pub fn budget(self, clean_cycles: u64) -> u64 {
        match self {
            Tier::Sparse => clean_cycles.saturating_mul(3),
            Tier::Dense => (clean_cycles / 4).max(2_000),
            Tier::Storm => (clean_cycles / 16).max(1_000),
            Tier::Famine => 600,
        }
    }

    /// Cumulative-cycle horizon of the episode. The energy trace
    /// schedules losses over the whole horizon, so a protocol that has
    /// not finished by then was starved, not unlucky.
    pub fn horizon(self, clean_cycles: u64) -> u64 {
        match self {
            Tier::Sparse => clean_cycles.saturating_mul(8) + 1_000_000,
            Tier::Dense | Tier::Storm => clean_cycles.saturating_mul(20) + 2_000_000,
            Tier::Famine => 120_000,
        }
    }

    /// Boot cap: reboot livelocks end here deterministically.
    pub fn boot_cap(self) -> u32 {
        match self {
            Tier::Sparse => 64,
            Tier::Dense => 256,
            Tier::Storm => 384,
            Tier::Famine => 48,
        }
    }
}

/// One benchmark episode on one seeded harvested-energy trace.
#[derive(Debug, Clone)]
pub struct IntermittentRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Recovery protocol under test.
    pub recovery: RecoveryMode,
    /// Loss-density tier.
    pub tier: Tier,
    /// Episode seed (drives the energy trace and interrupt schedule).
    pub seed: u64,
    /// Mean per-boot energy budget of the trace, in cycles.
    pub budget: u64,
    /// Power losses the trace scheduled inside the horizon.
    pub losses: u32,
    /// A metadata bit flip was composed into the episode.
    pub bit_flip: bool,
    /// Boots taken before the episode ended.
    pub boots: u32,
    /// Boots that resumed a committed checkpoint frame.
    pub resumes: u64,
    /// Checkpoint frames committed (periodic + dying gasp).
    pub checkpoint_commits: u64,
    /// Checkpoint opportunities structurally skipped.
    pub checkpoint_skips: u64,
    /// Torn frames detected and rolled back at boot.
    pub torn_checkpoints: u64,
    /// Watchdog transitions into degraded FRAM execution.
    pub watchdog_degradations: u64,
    /// Misses served from FRAM while degraded.
    pub watchdog_fallbacks: u64,
    /// Functions rewound by boot-time metadata recovery.
    pub recovered_functions: u64,
    /// Timer interrupts delivered across all boots.
    pub irq_delivered: u64,
    /// The episode halted cleanly within its caps.
    pub survived: bool,
    /// Final checksum matched the benchmark oracle.
    pub correct: bool,
    /// Cycles of the uninterrupted reference run (same build).
    pub clean_cycles: u64,
    /// Cumulative cycles across all boots.
    pub total_cycles: u64,
    /// Episode classification.
    pub outcome: Outcome,
    /// Deterministic error description, when the episode errored.
    pub error: Option<String>,
}

impl IntermittentRow {
    /// Useful cycles per boot: the oracle-checked completed work,
    /// divided by the boots it took — the campaign's forward-progress
    /// metric. Zero when the episode never completed (replayed work
    /// that produced no checked output is not useful).
    pub fn useful_cycles_per_boot(&self) -> f64 {
        if self.survived && self.correct && self.boots > 0 {
            self.clean_cycles as f64 / f64::from(self.boots)
        } else {
            0.0
        }
    }

    /// Whether the episode is acceptable for the zero-silent-wrong
    /// contract: completed correctly, starved out at a cap (detected
    /// non-completion), or detectably rejected — never a clean halt
    /// with a wrong checksum.
    pub fn no_silent_wrong(&self) -> bool {
        self.outcome != Outcome::SilentWrong
    }
}

/// Runs the intermittent matrix — every benchmark × the three recovery
/// protocols × the given tiers, one seeded energy trace per cell —
/// fanned out on the harness worker pool. Registers the deterministic
/// row set as the report's `intermittent` section. Cells run the
/// concurrency campaign's Masked configuration, whose harness ISR doubles
/// as a Mementos-style commit point.
pub fn run(h: &Harness, tiers: &[Tier], base_seed: u64) -> Vec<IntermittentRow> {
    let system = |bench, recovery| system_for(bench, IsrProtocol::Masked, recovery);
    let mut items: Vec<(Benchmark, RecoveryMode, Tier, u64, usize, u64)> = Vec::new();
    for recovery in PROTOCOLS {
        for bench in crate::concurrency::benchmarks() {
            let clean_cycles = clean_cycles(h, "intermittent", bench, &system(bench, recovery));
            for tier in tiers {
                let seed = episode_seed(base_seed, bench, recovery, *tier);
                let index = items.len();
                items.push((bench, recovery, *tier, seed, index, clean_cycles));
            }
        }
    }
    let rows = h.parallel_map(items, |(bench, recovery, tier, seed, index, clean_cycles)| {
        with_build(h, bench, &system(bench, recovery), |built| {
            episode(built, bench, recovery, tier, seed, index, clean_cycles)
        })
    });
    h.add_section("intermittent", rows_json(&rows));
    rows
}

/// Derives the per-episode seed, folding the benchmark name, protocol
/// and tier so cells draw distinct traces while the published seed
/// stays reproducible from `(base, bench, cell)`.
pub(crate) fn episode_seed(base: u64, bench: Benchmark, recovery: RecoveryMode, tier: Tier) -> u64 {
    let mut x = SplitMix64::new(base);
    let tag = name_tag(&[bench.name(), recovery_name(recovery), tier.name()]);
    x.next_u64().wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seeded interrupt schedule for one episode (same reasoning as the
/// concurrency campaign: multi-task benchmarks need periodic ticks to
/// make progress at all; single-task harness benchmarks get a periodic
/// tick whose ISR-entry boundary doubles as a commit point).
fn schedule_for(rng: &mut SplitMix64, bench: Benchmark) -> IrqSchedule {
    if bench.is_multitask() {
        IrqSchedule::periodic(1499 + rng.below(8000), 1 + rng.below(997))
    } else {
        IrqSchedule::periodic(1999 + rng.below(6000), 1 + rng.below(997))
    }
}

/// Executes one benchmark on one seeded energy trace and classifies the
/// episode.
fn episode(
    built: &Built,
    bench: Benchmark,
    recovery: RecoveryMode,
    tier: Tier,
    seed: u64,
    index: usize,
    clean_cycles: u64,
) -> IntermittentRow {
    let mut rng = SplitMix64::new(seed);
    let budget = tier.budget(clean_cycles);
    let horizon = tier.horizon(clean_cycles);
    let trace = EnergyTrace::new(tier.shape(), budget, rng.next_u64());
    let plan = trace.plan_until(horizon);
    let losses = plan.events().len() as u32;
    let bit_flip = index % 3 == 2;
    let schedule = schedule_for(&mut rng, bench);

    // Compose a metadata bit flip into every third episode, inside the
    // first stretch of the horizon so recovery and the guards see it
    // while losses are still arriving.
    let mut faults = plan.events().to_vec();
    if bit_flip {
        let cycle = 1 + rng.below(horizon.min(clean_cycles.max(2)));
        let tables = built.layout.get(Role::Tables).expect("SwapRAM builds have metadata tables");
        let (addr, bit) = draw_flip(&mut rng, tables);
        faults.push(FaultEvent { cycle, kind: FaultKind::BitFlip { addr, bit } });
    }
    let run = Episode {
        built,
        freq: Frequency::MHZ_24,
        faults: FaultPlan::new(faults),
        irq: Some(schedule),
        budget: horizon,
        boot_cap: Some(tier.boot_cap()),
        sanitize: true,
        audit: false,
    }
    .run();
    IntermittentRow {
        bench,
        recovery,
        tier,
        seed,
        budget,
        losses,
        bit_flip,
        boots: run.boots,
        resumes: run.stats.resumes,
        checkpoint_commits: run.stats.checkpoint_commits,
        checkpoint_skips: run.stats.checkpoint_skips,
        torn_checkpoints: run.stats.torn_checkpoints,
        watchdog_degradations: run.stats.watchdog_degradations,
        watchdog_fallbacks: run.stats.watchdog_fallbacks,
        recovered_functions: run.stats.recovered_functions,
        irq_delivered: run.sim.irq_delivered,
        survived: run.survived(),
        correct: run.correct(),
        clean_cycles,
        total_cycles: run.sim.total_cycles(),
        // This campaign's rows do not single out guard repairs.
        outcome: match run.outcome() {
            Outcome::GuardRepaired => Outcome::Clean,
            outcome => outcome,
        },
        error: run.error(),
    }
}

/// Rows that ended in silent wrong output — must be empty on every tier
/// under every protocol.
pub fn silent_rows(rows: &[IntermittentRow]) -> Vec<&IntermittentRow> {
    rows.iter().filter(|r| !r.no_silent_wrong()).collect()
}

/// Serializes rows as the report's `intermittent` section. Wall-clock
/// is deliberately absent: the section must be byte-identical for
/// identical seeds across `SWAPRAM_JOBS` settings.
pub fn rows_json(rows: &[IntermittentRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("bench", Json::str(r.bench.name())),
                    ("recovery", Json::str(recovery_name(r.recovery))),
                    ("tier", Json::str(r.tier.name())),
                    ("seed", Json::U64(r.seed)),
                    ("budget", Json::U64(r.budget)),
                    ("losses", Json::U64(u64::from(r.losses))),
                    ("bit_flip", Json::Bool(r.bit_flip)),
                    ("boots", Json::U64(u64::from(r.boots))),
                    ("resumes", Json::U64(r.resumes)),
                    ("checkpoint_commits", Json::U64(r.checkpoint_commits)),
                    ("checkpoint_skips", Json::U64(r.checkpoint_skips)),
                    ("torn_checkpoints", Json::U64(r.torn_checkpoints)),
                    ("watchdog_degradations", Json::U64(r.watchdog_degradations)),
                    ("watchdog_fallbacks", Json::U64(r.watchdog_fallbacks)),
                    ("recovered_functions", Json::U64(r.recovered_functions)),
                    ("irq_delivered", Json::U64(r.irq_delivered)),
                    ("survived", Json::Bool(r.survived)),
                    ("correct", Json::Bool(r.correct)),
                    ("useful_cycles_per_boot", Json::F64(r.useful_cycles_per_boot())),
                    ("clean_cycles", Json::U64(r.clean_cycles)),
                    ("total_cycles", Json::U64(r.total_cycles)),
                    ("outcome", Json::str(r.outcome.name())),
                ];
                if let Some(e) = &r.error {
                    fields.push(("error", Json::str(e.clone())));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Renders the per-tier forward-progress table, one per recovery
/// protocol, aggregated over benchmarks.
pub fn render(rows: &[IntermittentRow]) -> String {
    let mut out = String::new();
    for recovery in PROTOCOLS {
        let mode = recovery_name(recovery);
        let mut t = Table::new(
            &format!("Intermittent — forward progress under {mode} recovery"),
            &["tier", "episodes", "completed", "boots", "resumes", "wd-degraded", "avg ucpb"],
        );
        for tier in Tier::ALL {
            let bs: Vec<&IntermittentRow> =
                rows.iter().filter(|r| r.tier == tier && r.recovery == recovery).collect();
            if bs.is_empty() {
                continue;
            }
            let completed = bs.iter().filter(|r| r.survived && r.correct).count();
            let ucpb = bs.iter().map(|r| r.useful_cycles_per_boot()).sum::<f64>()
                / bs.len() as f64;
            t.row(vec![
                tier.name().into(),
                bs.len().to_string(),
                format!("{completed}/{}", bs.len()),
                bs.iter().map(|r| u64::from(r.boots)).sum::<u64>().to_string(),
                bs.iter().map(|r| r.resumes).sum::<u64>().to_string(),
                bs.iter().map(|r| r.watchdog_degradations).sum::<u64>().to_string(),
                format!("{ucpb:.0}"),
            ]);
        }
        let silent = rows.iter().filter(|r| r.recovery == recovery).filter(|r| !r.no_silent_wrong()).count();
        t.note(if silent == 0 {
            "no silent-wrong episodes on any tier"
        } else {
            "SILENT WRONG OUTPUT UNDER HARVESTED-ENERGY TRACES"
        });
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}
