//! Corruption experiment — seeded single-bit flips against the SwapRAM
//! defense stack. Every MiBench benchmark runs under `flips` seeded
//! mid-run bit flips per target region:
//!
//! * **metadata** — the `srtab` tables in FRAM (redirection, relocation,
//!   static-offset, guard, active-counter, funcId and journal words);
//! * **cached-code** — the SRAM cache window holding live function copies;
//! * **app-data** — the benchmark's data section (inputs, globals).
//!
//! Each episode is classified by combining the run outcome with every
//! detection channel the runtime exposes: the CRC-guard counters
//! (`guard_repairs` / `guard_degraded` / `degraded`), the execution
//! sanitizer ([`msp430_sim::machine::ExitReason::SanitizerTrap`]), typed
//! simulation errors, and the end-of-run metadata audit
//! ([`swapram::invariants::audit_final`]):
//!
//! * **masked** — clean halt, oracle checksum, no detection: the flip
//!   never mattered (hit dead metadata, was overwritten, or was repaired
//!   invisibly by a refill).
//! * **detected-repaired** — clean halt and oracle checksum, but a
//!   detection channel fired: the runtime caught the corruption and
//!   rebuilt the damaged state from the immutable FRAM image.
//! * **detected-degraded** — the run visibly failed (sanitizer trap,
//!   typed error, cycle budget) or produced a wrong checksum *with*
//!   detection evidence: corruption was surfaced, never trusted silently.
//! * **silent-wrong** — clean halt, wrong checksum, no detection channel
//!   fired. This is the failure mode the PR exists to eliminate: it must
//!   never occur for metadata-region flips (app-data flips can and do
//!   produce it — data integrity is the application's problem, exactly as
//!   for any uninstrumented program).
//!
//! Rows carry only deterministic quantities, so identical seeds yield
//! byte-identical JSON (the report's `corruption` section) regardless of
//! `SWAPRAM_JOBS`.

use crate::episode::{clean_cycles, draw_flip, with_build, End, Episode};
use crate::harness::Harness;
use crate::json::Json;
use crate::report::Table;
use crate::resilience::name_tag;
use mibench::builder::{Built, System};
use mibench::layout::Role;
use mibench::Benchmark;
use msp430_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use msp430_sim::freq::Frequency;
use msp430_sim::mem::AddrRange;
use msp430_sim::rng::SplitMix64;
use swapram::{SwapConfig, SwapStats};

/// Flips per (benchmark, region) in the full configuration.
pub const DEFAULT_FLIPS: usize = 5;

/// Flips per (benchmark, region) in `--fast` (CI) mode.
pub const FAST_FLIPS: usize = 2;

/// Which memory region a flip targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipRegion {
    /// The `srtab` metadata tables in FRAM.
    Metadata,
    /// The SRAM cache window.
    CachedCode,
    /// The benchmark's data section.
    AppData,
}

impl FlipRegion {
    /// All regions, in reporting order.
    pub const ALL: [FlipRegion; 3] = [FlipRegion::Metadata, FlipRegion::CachedCode, FlipRegion::AppData];

    /// Stable row/report label.
    pub fn name(self) -> &'static str {
        match self {
            FlipRegion::Metadata => "metadata",
            FlipRegion::CachedCode => "cached-code",
            FlipRegion::AppData => "app-data",
        }
    }
}

/// Episode classification (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Flip never influenced the run.
    Masked,
    /// Detected; repaired from FRAM; oracle checksum produced.
    Repaired,
    /// Detected; the run visibly failed or degraded.
    Degraded,
    /// Wrong output with no detection — must be zero for metadata flips.
    SilentWrong,
}

impl Outcome {
    /// Stable row/report label.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Repaired => "detected-repaired",
            Outcome::Degraded => "detected-degraded",
            Outcome::SilentWrong => "silent-wrong",
        }
    }
}

/// One benchmark episode under one seeded bit flip.
#[derive(Debug, Clone)]
pub struct CorruptionRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Which region the flip targeted.
    pub region: FlipRegion,
    /// Episode seed (drives flip address, bit and cycle).
    pub seed: u64,
    /// Flipped byte address.
    pub addr: u16,
    /// Flipped bit index (0–7).
    pub bit: u8,
    /// Cycle the flip fired at.
    pub cycle: u64,
    /// Episode classification.
    pub outcome: Outcome,
    /// The machine halted normally within the cycle budget.
    pub survived: bool,
    /// Final checksum matched the benchmark oracle.
    pub correct: bool,
    /// Corrupted metadata entries rebuilt from the FRAM image.
    pub guard_repairs: u64,
    /// Misses degraded to FRAM execution by an integrity check.
    pub guard_degraded: u64,
    /// Misses degraded to FRAM execution by a typed runtime error.
    pub degraded: u64,
    /// Deterministic detail: sanitizer trap, typed error, or audit
    /// finding, when one fired.
    pub detail: Option<String>,
}

/// Derives the per-episode seed, folding in benchmark and region so every
/// cell of the matrix draws distinct flips while staying reproducible
/// from `(base, bench, region, i)`.
pub(crate) fn flip_seed(base: u64, bench: Benchmark, region: FlipRegion, i: usize) -> u64 {
    let mut x = SplitMix64::new(base ^ 0xB17F_11B5);
    let tag = name_tag(&[bench.name(), region.name()]);
    x.next_u64().wrapping_add(tag).wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Byte range of a flip region, from the SwapRAM build's layout.
fn region_range(built: &Built, region: FlipRegion) -> AddrRange {
    let layout = &built.layout;
    match region {
        FlipRegion::Metadata => layout.get(Role::Tables),
        FlipRegion::CachedCode => layout.get(Role::Cache),
        FlipRegion::AppData => layout.section("data"),
    }
    .expect("a SwapRAM build lays out its tables, cache and data")
}

/// Runs the campaign: every MiBench benchmark × every region × `flips`
/// seeded episodes, fanned out on the harness worker pool, and registers
/// the deterministic row set as the report's `corruption` section.
pub fn run(h: &Harness, flips: usize, base_seed: u64) -> Vec<CorruptionRow> {
    let system = System::SwapRam(SwapConfig::unified_fr2355());
    let mut items: Vec<(Benchmark, FlipRegion, u64, u64)> = Vec::new();
    for bench in Benchmark::MIBENCH {
        let clean_cycles = clean_cycles(h, "corruption", bench, &system);
        for region in FlipRegion::ALL {
            for i in 0..flips {
                let seed = flip_seed(base_seed, bench, region, i);
                items.push((bench, region, seed, clean_cycles));
            }
        }
    }
    let rows = h.parallel_map(items, |(bench, region, seed, clean_cycles)| {
        with_build(h, bench, &system, |built| episode(built, bench, region, seed, clean_cycles))
    });
    h.add_section("corruption", rows_json(&rows));
    rows
}

/// Executes one benchmark under one seeded bit flip and classifies it.
fn episode(
    built: &Built,
    bench: Benchmark,
    region: FlipRegion,
    seed: u64,
    clean_cycles: u64,
) -> CorruptionRow {
    let mut rng = SplitMix64::new(seed);
    let (addr, bit) = draw_flip(&mut rng, region_range(built, region));
    // Strike inside the middle 80% of the uninterrupted run, where cache
    // state is live.
    let win_lo = (clean_cycles / 10).max(1);
    let win_hi = (clean_cycles * 9 / 10).max(win_lo + 1);
    let cycle = win_lo + rng.below(win_hi - win_lo);
    let run = Episode {
        built,
        freq: Frequency::MHZ_24,
        faults: FaultPlan::new(vec![FaultEvent { cycle, kind: FaultKind::BitFlip { addr, bit } }]),
        irq: None,
        // The flip can lengthen the run (degraded FRAM execution,
        // repairs); three clean runs' worth of cycles is a generous
        // deterministic cap.
        budget: clean_cycles * 3 + 1_000_000,
        boot_cap: None,
        sanitize: true,
        audit: true,
    }
    .run();

    // A typed simulation error is a detection channel: the corrupted
    // state was refused, not executed through. Such rows report no
    // counters.
    let stats = if matches!(run.end, End::Error(_)) { SwapStats::default() } else { run.stats.clone() };
    let (outcome, detail) = match &run.end {
        End::Halted { correct } => {
            let detected =
                stats.guard_repairs + stats.guard_degraded + stats.degraded > 0 || run.audit.is_some();
            let outcome = match (*correct, detected) {
                (true, false) => Outcome::Masked,
                (true, true) => Outcome::Repaired,
                (false, true) => Outcome::Degraded,
                (false, false) => Outcome::SilentWrong,
            };
            (outcome, run.audit.clone())
        }
        End::Error(e) => (Outcome::Degraded, Some(e.clone())),
        End::Stopped(reason) => (Outcome::Degraded, Some(format!("{reason:?}"))),
        End::RecoveryFailed(_) | End::BootCap(_) => unreachable!("bit-flip episodes never lose power"),
    };
    CorruptionRow {
        bench,
        region,
        seed,
        addr,
        bit,
        cycle,
        outcome,
        survived: run.survived(),
        correct: run.correct(),
        guard_repairs: stats.guard_repairs,
        guard_degraded: stats.guard_degraded,
        degraded: stats.degraded,
        detail,
    }
}

/// Serializes rows as the report's `corruption` section (deterministic;
/// wall-clock deliberately absent).
pub fn rows_json(rows: &[CorruptionRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("bench", Json::str(r.bench.name())),
                    ("region", Json::str(r.region.name())),
                    ("seed", Json::U64(r.seed)),
                    ("addr", Json::U64(u64::from(r.addr))),
                    ("bit", Json::U64(u64::from(r.bit))),
                    ("cycle", Json::U64(r.cycle)),
                    ("outcome", Json::str(r.outcome.name())),
                    ("survived", Json::Bool(r.survived)),
                    ("correct", Json::Bool(r.correct)),
                    ("guard_repairs", Json::U64(r.guard_repairs)),
                    ("guard_degraded", Json::U64(r.guard_degraded)),
                    ("degraded", Json::U64(r.degraded)),
                ];
                if let Some(d) = &r.detail {
                    fields.push(("detail", Json::str(d.clone())));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Renders the per-region classification table.
pub fn render(rows: &[CorruptionRow]) -> String {
    let mut out = String::new();
    for region in FlipRegion::ALL {
        let mut t = Table::new(
            &format!("Corruption — seeded bit flips in {}", region.name()),
            &["benchmark", "flips", "masked", "repaired", "degraded", "SILENT"],
        );
        let mut silent = 0usize;
        for bench in Benchmark::MIBENCH {
            let bs: Vec<&CorruptionRow> =
                rows.iter().filter(|r| r.bench == bench && r.region == region).collect();
            if bs.is_empty() {
                continue;
            }
            let count = |o: Outcome| bs.iter().filter(|r| r.outcome == o).count();
            silent += count(Outcome::SilentWrong);
            t.row(vec![
                bench.short_name().into(),
                bs.len().to_string(),
                count(Outcome::Masked).to_string(),
                count(Outcome::Repaired).to_string(),
                count(Outcome::Degraded).to_string(),
                count(Outcome::SilentWrong).to_string(),
            ]);
        }
        t.note(match (region, silent) {
            (FlipRegion::Metadata, 0) => "no metadata flip produced silent wrong output",
            (FlipRegion::Metadata, _) => "METADATA FLIPS PRODUCED SILENT WRONG OUTPUT",
            _ => "silent wrong output is expected here: these bytes are outside the runtime's trust boundary",
        });
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Convenience for acceptance checks: rows classified silent-wrong in the
/// given region.
pub fn silent_rows(rows: &[CorruptionRow], region: FlipRegion) -> Vec<&CorruptionRow> {
    rows.iter().filter(|r| r.region == region && r.outcome == Outcome::SilentWrong).collect()
}
