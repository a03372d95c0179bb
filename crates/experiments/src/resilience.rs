//! Resilience experiment — intermittent execution under injected power
//! loss (the paper's fault model, §3.3): every MiBench benchmark runs
//! under a set of seeded power-loss schedules; each reboot performs the
//! SwapRAM boot-time recovery protocol (see [`crate::episode`] for what a
//! reboot restores) and the episode must still produce the benchmark's
//! oracle checksum.
//!
//! Rows carry only deterministic quantities (no wall-clock), so identical
//! seeds yield byte-identical JSON regardless of `SWAPRAM_JOBS`.

use crate::episode::{clean_cycles, with_build, Episode};
use crate::harness::Harness;
use crate::json::Json;
use crate::report::Table;
use mibench::builder::{Built, System};
use mibench::Benchmark;
use msp430_sim::fault::FaultPlan;
use msp430_sim::freq::Frequency;
use msp430_sim::rng::SplitMix64;
use swapram::{IsrProtocol, PolicyKind, RecoveryMode, SwapConfig};

/// Environment variable overriding the base fault seed.
pub const FAULT_SEED_ENV: &str = "SWAPRAM_FAULT_SEED";

/// Default base seed when [`FAULT_SEED_ENV`] is unset.
pub const DEFAULT_FAULT_SEED: u64 = 0xF00D;

/// Schedules per benchmark in the full configuration (the acceptance
/// floor: every benchmark must survive at least this many).
pub const DEFAULT_SCHEDULES: usize = 8;

/// Schedules per benchmark in `--fast` (CI) mode.
pub const FAST_SCHEDULES: usize = 3;

/// The deterministic JSON/report name of a recovery protocol.
pub fn recovery_name(mode: RecoveryMode) -> &'static str {
    match mode {
        RecoveryMode::FullScan => "full-scan",
        RecoveryMode::DirtyLog => "dirty-log",
        RecoveryMode::PersistentStack => "persistent-stack",
    }
}

/// The deterministic JSON/report name of an eviction policy.
pub fn policy_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::CircularQueue => "circular-queue",
        PolicyKind::Stack => "stack",
        PolicyKind::PriorityCost => "priority-cost",
        PolicyKind::FreezeOnThrash => "freeze-on-thrash",
    }
}

/// The deterministic JSON/report name of an ISR critical-section protocol.
pub fn protocol_name(protocol: IsrProtocol) -> &'static str {
    match protocol {
        IsrProtocol::Masked => "masked",
        IsrProtocol::Unprotected => "unprotected",
    }
}

/// Folds name strings into the tag the per-episode seed derivations mix
/// in (`tag * 31 + byte` over every byte of every part, in order), so a
/// cell's seed is reproducible from its names.
pub(crate) fn name_tag(parts: &[&str]) -> u64 {
    parts.iter().flat_map(|p| p.bytes()).fold(0u64, |tag, b| {
        tag.wrapping_mul(31).wrapping_add(u64::from(b))
    })
}

/// Base fault seed: `SWAPRAM_FAULT_SEED` if set, else the default.
pub fn base_seed() -> u64 {
    std::env::var(FAULT_SEED_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_FAULT_SEED)
}

/// One benchmark episode under one seeded interruption schedule.
#[derive(Debug, Clone)]
pub struct ResilienceRow {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Recovery protocol under test.
    pub recovery: RecoveryMode,
    /// Schedule seed (drives loss count and loss cycles).
    pub seed: u64,
    /// Power losses injected.
    pub losses: u32,
    /// Boots taken (losses + 1 when every loss fired before completion).
    pub boots: u32,
    /// The episode completed within its cycle budget.
    pub survived: bool,
    /// Final output checksum matched the benchmark oracle.
    pub correct: bool,
    /// Cycles of the uninterrupted run (same build, same input).
    pub clean_cycles: u64,
    /// Cumulative cycles across all boots, including replayed work.
    pub total_cycles: u64,
    /// Functions rewound by boot-time recovery, summed over reboots.
    pub recovered_functions: u64,
    /// Misses degraded to FRAM execution instead of caching.
    pub degraded: u64,
    /// Dirty-log appends performed (0 under full-scan recovery).
    pub journal_appends: u64,
    /// Recoveries that found a torn log and fell back to the full scan.
    pub journal_fallbacks: u64,
    /// Deterministic error description, when the episode failed outright.
    pub error: Option<String>,
}

impl ResilienceRow {
    /// Replay + recovery overhead relative to the uninterrupted run.
    pub fn overhead_pct(&self) -> f64 {
        overhead_pct(self.total_cycles, self.clean_cycles)
    }
}

/// The SwapRAM system configuration under a given recovery protocol.
fn system_for(recovery: RecoveryMode) -> System {
    System::SwapRam(SwapConfig::unified_fr2355().with_recovery(recovery))
}

/// Runs the full resilience matrix: every MiBench benchmark × both
/// recovery protocols × `schedules` seeded interruption schedules, fanned
/// out on the harness worker pool. Also registers the deterministic row
/// set as the report's `resilience` section.
pub fn run(h: &Harness, schedules: usize, base_seed: u64) -> Vec<ResilienceRow> {
    let mut items: Vec<(Benchmark, RecoveryMode, u64, u64)> = Vec::new();
    for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
        for bench in Benchmark::MIBENCH {
            // The uninterrupted reference run rides the normal memoized
            // pipeline (and lands in the report's `runs`, tagged).
            let clean_cycles = clean_cycles(h, "resilience", bench, &system_for(recovery));
            for i in 0..schedules {
                let seed = schedule_seed(base_seed, bench, recovery, i);
                items.push((bench, recovery, seed, clean_cycles));
            }
        }
    }
    let rows = h.parallel_map(items, |(bench, recovery, seed, clean_cycles)| {
        with_build(h, bench, &system_for(recovery), |built| {
            episode(built, bench, recovery, seed, clean_cycles)
        })
    });
    h.add_section("resilience", rows_json(&rows));
    rows
}

/// Derives the per-episode schedule seed. Folding the benchmark name and
/// recovery mode in keeps schedules distinct across the matrix while the
/// row's published seed stays reproducible from `(base, bench, mode, i)`.
fn schedule_seed(base: u64, bench: Benchmark, recovery: RecoveryMode, i: usize) -> u64 {
    let mut x = SplitMix64::new(base);
    let mut tag = name_tag(&[bench.name()]);
    if recovery == RecoveryMode::DirtyLog {
        tag = tag.wrapping_add(0x5eed);
    }
    x.next_u64().wrapping_add(tag).wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seeded power-loss episode behind every resilience row and every
/// faulted campaign cell: 1–3 losses inside the middle 80% of the clean
/// run, replay recovery, no sanitizer.
pub(crate) fn loss_episode(built: &Built, seed: u64, clean_cycles: u64, freq: Frequency) -> Episode<'_> {
    let mut rng = SplitMix64::new(seed);
    let losses = 1 + rng.below(3) as usize;
    let window = (clean_cycles / 10).max(1)..(clean_cycles * 9 / 10).max(2);
    let faults = FaultPlan::power_losses(rng.next_u64(), losses, window);
    // Every reboot replays a prefix plus pays recovery; (losses + 2)
    // uninterrupted runs' worth of cycles is a generous, deterministic cap.
    // Deduplication may have dropped some of the drawn losses.
    let budget = clean_cycles * (faults.events().len() as u64 + 2) + 1_000_000;
    Episode { built, freq, faults, irq: None, budget, boot_cap: None, sanitize: false, audit: false }
}

/// Replay + recovery overhead of `total_cycles` relative to the
/// uninterrupted run.
pub(crate) fn overhead_pct(total_cycles: u64, clean_cycles: u64) -> f64 {
    if clean_cycles == 0 {
        return 0.0;
    }
    (total_cycles as f64 / clean_cycles as f64 - 1.0) * 100.0
}

/// Executes one benchmark under one interruption schedule.
fn episode(
    built: &Built,
    bench: Benchmark,
    recovery: RecoveryMode,
    seed: u64,
    clean_cycles: u64,
) -> ResilienceRow {
    let episode = loss_episode(built, seed, clean_cycles, Frequency::MHZ_24);
    let losses = episode.faults.events().len() as u32;
    let run = episode.run();
    ResilienceRow {
        bench,
        recovery,
        seed,
        losses,
        boots: run.boots,
        survived: run.survived(),
        correct: run.correct(),
        clean_cycles,
        total_cycles: run.total_cycles,
        recovered_functions: run.stats.recovered_functions,
        degraded: run.stats.degraded,
        journal_appends: run.stats.journal_appends,
        journal_fallbacks: run.stats.journal_fallbacks,
        error: run.error(),
    }
}

/// Serializes rows as the report's `resilience` section. Wall-clock is
/// deliberately absent: the section must be byte-identical for identical
/// seeds across `SWAPRAM_JOBS` settings.
pub fn rows_json(rows: &[ResilienceRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("bench", Json::str(r.bench.name())),
                    ("recovery", Json::str(recovery_name(r.recovery))),
                    ("seed", Json::U64(r.seed)),
                    ("losses", Json::U64(u64::from(r.losses))),
                    ("boots", Json::U64(u64::from(r.boots))),
                    ("survived", Json::Bool(r.survived)),
                    ("correct", Json::Bool(r.correct)),
                    ("clean_cycles", Json::U64(r.clean_cycles)),
                    ("total_cycles", Json::U64(r.total_cycles)),
                    ("overhead_pct", Json::F64(r.overhead_pct())),
                    ("recovered_functions", Json::U64(r.recovered_functions)),
                    ("degraded", Json::U64(r.degraded)),
                    ("journal_appends", Json::U64(r.journal_appends)),
                    ("journal_fallbacks", Json::U64(r.journal_fallbacks)),
                ];
                if let Some(e) = &r.error {
                    fields.push(("error", Json::str(e.clone())));
                }
                Json::obj(fields)
            })
            .collect(),
    )
}

/// Renders the per-benchmark survival table (aggregated over schedules).
pub fn render(rows: &[ResilienceRow]) -> String {
    let mut out = String::new();
    for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
        let mode = recovery_name(recovery);
        let mut t = Table::new(
            &format!("Resilience — power-loss survival under {mode} recovery"),
            &["benchmark", "schedules", "losses", "recovered", "avg overhead", "ok"],
        );
        let mut all_ok = true;
        for bench in Benchmark::MIBENCH {
            let bs: Vec<&ResilienceRow> =
                rows.iter().filter(|r| r.bench == bench && r.recovery == recovery).collect();
            if bs.is_empty() {
                continue;
            }
            let ok = bs.iter().all(|r| r.survived && r.correct);
            all_ok &= ok;
            let overhead =
                bs.iter().map(|r| r.overhead_pct()).sum::<f64>() / bs.len() as f64;
            t.row(vec![
                bench.short_name().into(),
                bs.len().to_string(),
                bs.iter().map(|r| u64::from(r.losses)).sum::<u64>().to_string(),
                bs.iter().map(|r| r.recovered_functions).sum::<u64>().to_string(),
                format!("{overhead:+.1}%"),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
        t.note(if all_ok {
            "every schedule recovered and matched its oracle checksum"
        } else {
            "SOME SCHEDULES FAILED"
        });
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corruption::FlipRegion;
    use crate::intermittent::Tier;

    /// Every published seed is reproducible from its row's names, so the
    /// derivations are pinned to the values they have always produced.
    #[test]
    fn seed_derivations_are_pinned() {
        use Benchmark::{Aes, Bitcount, Crc, Rc4, Stringsearch};
        use RecoveryMode::{DirtyLog, FullScan, PersistentStack};
        assert_eq!(schedule_seed(0xF00D, Crc, FullScan, 0), 0x079f_67de_2dc5_0b9d);
        assert_eq!(schedule_seed(51966, Rc4, DirtyLog, 3), 0x9413_4ebf_91b9_dbf9);
        assert_eq!(schedule_seed(0xF00D, Stringsearch, PersistentStack, 7), 0x850d_7e1b_e35e_a355);

        use crate::concurrency::schedule_seed as isr_seed;
        use IsrProtocol::{Masked, Unprotected};
        assert_eq!(isr_seed(0xF00D, Crc, Masked, FullScan, 0), 0x079f_67de_2dc5_0b9d);
        assert_eq!(isr_seed(51966, Rc4, Unprotected, DirtyLog, 2), 0xf5db_d506_126f_74fb);
        assert_eq!(isr_seed(0xF00D, Bitcount, Unprotected, FullScan, 5), 0x1eb4_cb07_ec72_ff6b);

        use crate::corruption::flip_seed;
        assert_eq!(flip_seed(0xF00D, Crc, FlipRegion::Metadata, 0), 0x5d81_ee06_09cd_cd28);
        assert_eq!(flip_seed(51966, Rc4, FlipRegion::CachedCode, 4), 0x7aba_4349_aa01_a80f);
        assert_eq!(flip_seed(0xF00D, Aes, FlipRegion::AppData, 9), 0xed6e_3629_93d5_3e87);

        use crate::intermittent::episode_seed;
        assert_eq!(episode_seed(0xF00D, Crc, FullScan, Tier::Sparse), 0x5c6c_417b_99c0_ecdc);
        assert_eq!(episode_seed(51966, Rc4, DirtyLog, Tier::Storm), 0xb9b7_7ef1_8bd5_2409);
        assert_eq!(episode_seed(0xF00D, Bitcount, PersistentStack, Tier::Famine), 0x0946_ac57_3a6c_9873);
    }
}
