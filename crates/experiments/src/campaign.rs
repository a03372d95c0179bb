//! # Campaign engine
//!
//! The paper evaluates SwapRAM on 9 benchmarks × a handful of memory
//! profiles. This module sweeps the paper's own knobs across *thousands*
//! of configurations — cache geometry (SRAM split + cache size), clock
//! frequency, eviction policy, metadata guards, ISR protocol, recovery
//! mode, and seeded power-loss schedules — in one process:
//!
//! * A [`CampaignSpec`] enumerates the cross-product as [`Cell`]s, each
//!   keyed by a canonical config string and a stable FNV-1a hash.
//! * [`run`] executes the cells on the `SWAPRAM_JOBS`-way
//!   [`Harness::parallel_map`] pool. Each row is a pure function of its
//!   cell, and rows are assembled **in config-key order, never completion
//!   order**, so any thread count produces a byte-identical
//!   `BENCH_campaign.json`.
//! * The summary reporter emits per-axis percentiles (p50/p90/p99
//!   miss-cycle overhead, useful-cycles-per-boot) and pareto frontiers
//!   (SRAM bytes vs cycles, overhead vs forward progress) — the
//!   `BENCHMARKS.md` tables.
//!
//! Everything layers on the existing [`Harness`] memoization: a cell's
//! baseline and clean reference runs ride [`Harness::measure`] (shared
//! across cells), and faulted cells run the resilience campaign's seeded
//! power-loss draw on the one fault-episode executor, [`crate::episode`].

use crate::harness::Harness;
use crate::json::Json;
use crate::report::Table;
use crate::resilience::{self, policy_name, protocol_name, recovery_name};
use mibench::builder::{MemoryProfile, System};
use mibench::Benchmark;
use msp430_sim::freq::Frequency;
use msp430_sim::rng::SplitMix64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use swapram::{IsrProtocol, PolicyKind, RecoveryMode, SwapConfig};

/// FNV-1a 64-bit hash — the stable config hash keying every cell across
/// runs and platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interrupt configuration of a cell: off, or the periodic LFSR ISR
/// harness under one of the two critical-section protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsrMode {
    /// No interrupt harness (the paper's single-threaded figures).
    Off,
    /// Harness armed, reentrancy-hardened runtime.
    Masked,
    /// Harness armed, the paper's unprotected trust model.
    Unprotected,
}

impl IsrMode {
    /// The critical-section protocol of an armed harness, `None` when off.
    pub fn protocol(self) -> Option<IsrProtocol> {
        match self {
            IsrMode::Off => None,
            IsrMode::Masked => Some(IsrProtocol::Masked),
            IsrMode::Unprotected => Some(IsrProtocol::Unprotected),
        }
    }

    /// Deterministic report name.
    pub fn name(self) -> &'static str {
        self.protocol().map_or("off", protocol_name)
    }
}

/// One configuration cell of the sweep — everything needed to rebuild and
/// rerun it deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Which benchmark.
    pub bench: Benchmark,
    /// SRAM bytes reserved for program data/stack (0 = unified profile:
    /// data and stack in FRAM, whole SRAM available to the cache).
    pub split: u16,
    /// Software-cache size in bytes (from the cache base).
    pub cache_size: u16,
    /// Operating point.
    pub freq: Frequency,
    /// Eviction policy.
    pub policy: PolicyKind,
    /// Metadata CRC guards on/off.
    pub guards: bool,
    /// Crash-recovery protocol.
    pub recovery: RecoveryMode,
    /// Interrupt harness mode.
    pub isr: IsrMode,
    /// Seeded power-loss schedule, or `None` for the fault-free cell.
    pub fault_seed: Option<u64>,
}

impl Cell {
    /// Canonical config key: the row order and the hash preimage.
    pub fn key(&self) -> String {
        let mut k = self.point_key();
        match self.fault_seed {
            None => k.push_str("|fault=none"),
            Some(s) => {
                let _ = write!(k, "|fault={s:016x}");
            }
        }
        k
    }

    /// The key without the fault axis — identifies the configuration
    /// *point* a fault schedule is drawn for.
    pub fn point_key(&self) -> String {
        format!(
            "{}|split={:04x}|cache={:04x}|{}MHz|{}|guards={}|{}|isr={}",
            self.bench.name(),
            self.split,
            self.cache_size,
            self.freq.mhz,
            policy_name(self.policy),
            if self.guards { "on" } else { "off" },
            recovery_name(self.recovery),
            self.isr.name(),
        )
    }

    /// Stable config hash (FNV-1a of [`Cell::key`]).
    pub fn hash(&self) -> u64 {
        fnv1a64(self.key().as_bytes())
    }

    /// Deterministic profile name for reports.
    pub fn profile_name(&self) -> String {
        if self.split == 0 { "unified".to_string() } else { format!("split-{}", self.split) }
    }

    /// The memory profile this cell builds against.
    pub fn profile(&self) -> MemoryProfile {
        if self.split == 0 {
            MemoryProfile::unified()
        } else {
            MemoryProfile::split_sram(self.split)
        }
    }

    /// The SwapRAM configuration this cell runs.
    pub fn config(&self) -> SwapConfig {
        let split = SwapConfig::split_fr2355(self.split);
        let mut cfg = SwapConfig { cache_size: self.cache_size, ..split }
            .with_policy(self.policy)
            .with_guards(self.guards)
            .with_recovery(self.recovery);
        if let Some(protocol) = self.isr.protocol() {
            cfg = cfg.with_irq_harness(true).with_isr_protocol(protocol);
        }
        cfg
    }

    /// The system under test.
    pub fn system(&self) -> System {
        System::SwapRam(self.config())
    }
}

/// A campaign sweep specification: the axes whose cross-product is the
/// cell set. Presets keep each axis wide in exactly one tier so the total
/// stays tractable: `full` sweeps geometry × frequency × policy wide,
/// `fast` (CI) sweeps guards × recovery × ISR wide, `tiny` is the test
/// fixture.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Preset name (`tiny` / `fast` / `full`).
    pub name: &'static str,
    /// Base seed for the fault-schedule axis.
    pub base_seed: u64,
    /// Benchmarks swept.
    pub benches: Vec<Benchmark>,
    /// SRAM data splits swept (0 = unified).
    pub splits: Vec<u16>,
    /// Cache sizes swept (cells whose size exceeds the SRAM left by the
    /// split are skipped).
    pub cache_sizes: Vec<u16>,
    /// Operating points swept.
    pub freqs: Vec<Frequency>,
    /// Eviction policies swept.
    pub policies: Vec<PolicyKind>,
    /// Guard modes swept.
    pub guard_modes: Vec<bool>,
    /// Recovery protocols swept.
    pub recoveries: Vec<RecoveryMode>,
    /// ISR modes swept (non-`Off` modes only apply to unified cells — the
    /// interrupt harness assumes the unified layout).
    pub isr_modes: Vec<IsrMode>,
    /// Seeded power-loss schedules per configuration point, in addition
    /// to the fault-free cell.
    pub fault_schedules: u32,
}

impl CampaignSpec {
    /// Looks up a preset by name.
    pub fn preset(name: &str, base_seed: u64) -> Option<CampaignSpec> {
        match name {
            "tiny" => Some(CampaignSpec::tiny(base_seed)),
            "fast" => Some(CampaignSpec::fast(base_seed)),
            "full" => Some(CampaignSpec::full(base_seed)),
            _ => None,
        }
    }

    /// Test-tier sweep (~24 cells): two benchmarks × three cache sizes ×
    /// two policies, fault-free + one schedule each.
    pub fn tiny(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "tiny",
            base_seed,
            benches: vec![Benchmark::Crc, Benchmark::Bitcount],
            splits: vec![0],
            cache_sizes: vec![0x1000, 0x600, 0x300],
            freqs: vec![Frequency::MHZ_24],
            policies: vec![PolicyKind::CircularQueue, PolicyKind::Stack],
            guard_modes: vec![true],
            recoveries: vec![RecoveryMode::FullScan],
            isr_modes: vec![IsrMode::Off],
            fault_schedules: 1,
        }
    }

    /// CI-tier sweep (192 cells): guards × recovery × ISR wide on three
    /// benchmarks and two cache sizes.
    pub fn fast(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "fast",
            base_seed,
            benches: vec![Benchmark::Crc, Benchmark::Rc4, Benchmark::Bitcount],
            splits: vec![0],
            cache_sizes: vec![0x400, 0x1000],
            freqs: vec![Frequency::MHZ_24],
            policies: vec![PolicyKind::CircularQueue, PolicyKind::PriorityCost],
            guard_modes: vec![true, false],
            recoveries: vec![RecoveryMode::FullScan, RecoveryMode::DirtyLog],
            isr_modes: vec![IsrMode::Off, IsrMode::Masked],
            fault_schedules: 1,
        }
    }

    /// Fleet-tier sweep (1296 cells): all nine benchmarks × cache
    /// geometry × frequency × all four policies, fault-free + one
    /// schedule each.
    pub fn full(base_seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "full",
            base_seed,
            benches: Benchmark::MIBENCH.to_vec(),
            splits: vec![0, 0x400],
            cache_sizes: vec![0x200, 0x400, 0x800, 0xC00, 0x1000],
            freqs: vec![Frequency::MHZ_8, Frequency::MHZ_24],
            policies: vec![
                PolicyKind::CircularQueue,
                PolicyKind::Stack,
                PolicyKind::PriorityCost,
                PolicyKind::FreezeOnThrash,
            ],
            guard_modes: vec![true],
            recoveries: vec![RecoveryMode::FullScan],
            isr_modes: vec![IsrMode::Off],
            fault_schedules: 1,
        }
    }

    /// Enumerates every cell of the sweep, sorted by config key. The
    /// enumeration is a pure function of the spec.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &bench in &self.benches {
            for &split in &self.splits {
                let avail = SwapConfig::split_fr2355(split).cache_size;
                for &cache_size in &self.cache_sizes {
                    if cache_size > avail {
                        continue;
                    }
                    for &freq in &self.freqs {
                        for &policy in &self.policies {
                            for &guards in &self.guard_modes {
                                for &recovery in &self.recoveries {
                                    for &isr in &self.isr_modes {
                                        if isr != IsrMode::Off && split != 0 {
                                            continue;
                                        }
                                        self.push_point(&mut out, Cell {
                                            bench,
                                            split,
                                            cache_size,
                                            freq,
                                            policy,
                                            guards,
                                            recovery,
                                            isr,
                                            fault_seed: None,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out.sort_by_key(Cell::key);
        out
    }

    /// Pushes the fault-free cell plus its seeded fault-schedule siblings.
    fn push_point(&self, out: &mut Vec<Cell>, point: Cell) {
        let point_hash = fnv1a64(point.point_key().as_bytes());
        out.push(point.clone());
        for i in 0..self.fault_schedules {
            let stream = self
                .base_seed
                ^ point_hash
                ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let seed = SplitMix64::new(stream).next_u64();
            out.push(Cell { fault_seed: Some(seed), ..point.clone() });
        }
    }
}

// ---------------------------------------------------------------------------
// Cell execution
// ---------------------------------------------------------------------------

/// Executes one cell through the shared harness and returns its
/// deterministic report row. Baseline and clean-reference measurements
/// are memoized per (bench, profile, freq[, system]) so cells sharing a
/// reference never recompute it.
pub fn run_cell(h: &Harness, cell: &Cell) -> Json {
    let profile = cell.profile();
    let system = cell.system();
    let base = h.measure("campaign", cell.bench, &System::Baseline, &profile, cell.freq);
    let base_cycles = base.as_ref().ok().map(|m| m.total_cycles());
    let clean = match h.measure("campaign", cell.bench, &system, &profile, cell.freq) {
        Ok(m) => m,
        Err(e) => {
            let mut fields = identity_fields(cell);
            fields.push(("status", Json::str(e.status())));
            fields.push(("result", e.json()));
            return Json::obj(fields);
        }
    };
    let clean_cycles = clean.total_cycles();
    let overhead_pct = base_cycles
        .filter(|&b| b > 0)
        .map(|b| (clean_cycles as f64 / b as f64 - 1.0) * 100.0);
    let swap = clean.swap.as_ref();

    let mut fields = identity_fields(cell);
    match cell.fault_seed {
        None => {
            fields.push(("status", Json::str(if clean.correct { "ok" } else { "failed" })));
            fields.push(("correct", Json::Bool(clean.correct)));
            fields.push(("base_cycles", opt_u64(base_cycles)));
            fields.push(("clean_cycles", Json::U64(clean_cycles)));
            fields.push(("total_cycles", Json::U64(clean_cycles)));
            fields.push(("overhead_pct", opt_f64(overhead_pct)));
            fields.push(("boots", Json::U64(1)));
            fields.push(("losses", Json::U64(0)));
            fields.push(("ucpb", Json::F64(clean_cycles as f64)));
            fields.push(("misses", opt_u64(swap.map(|s| s.misses))));
            fields.push(("evictions", opt_u64(swap.map(|s| s.evictions))));
            fields.push(("bytes_copied", opt_u64(swap.map(|s| s.bytes_copied))));
            fields.push(("degraded", opt_u64(swap.map(|s| s.degraded))));
            fields.push(("recovered_functions", Json::U64(0)));
        }
        Some(seed) => {
            let built = h.build(cell.bench, &system, &profile);
            let built = match built.as_ref().as_ref() {
                Ok(b) => b,
                Err(e) => {
                    // Unreachable when the clean run succeeded, but keep
                    // the row well-formed rather than panicking the sweep.
                    fields.push(("status", Json::str("failed")));
                    fields.push(("result", Json::obj(vec![("message", Json::str(e.to_string()))])));
                    return Json::obj(fields);
                }
            };
            let episode = resilience::loss_episode(built, seed, clean_cycles, cell.freq);
            let losses = episode.faults.events().len() as u64;
            let run = episode.run();
            let replay_overhead_pct = resilience::overhead_pct(run.sim.total_cycles(), clean_cycles);
            fields.push(("status", Json::str(if run.correct() { "ok" } else { "failed" })));
            fields.push(("correct", Json::Bool(run.correct())));
            fields.push(("base_cycles", opt_u64(base_cycles)));
            fields.push(("clean_cycles", Json::U64(clean_cycles)));
            fields.push(("total_cycles", Json::U64(run.sim.total_cycles())));
            fields.push(("overhead_pct", opt_f64(overhead_pct)));
            fields.push(("replay_overhead_pct", Json::F64(replay_overhead_pct)));
            fields.push(("boots", Json::U64(u64::from(run.boots))));
            fields.push(("losses", Json::U64(losses)));
            fields.push(("ucpb", Json::F64(clean_cycles as f64 / f64::from(run.boots.max(1)))));
            fields.push(("misses", opt_u64(swap.map(|s| s.misses))));
            fields.push(("evictions", opt_u64(swap.map(|s| s.evictions))));
            fields.push(("bytes_copied", opt_u64(swap.map(|s| s.bytes_copied))));
            fields.push(("degraded", Json::U64(run.stats.degraded)));
            fields.push(("recovered_functions", Json::U64(run.stats.recovered_functions)));
            if let Some(e) = run.error() {
                fields.push(("error", Json::str(e)));
            }
        }
    }
    Json::obj(fields)
}

fn identity_fields(cell: &Cell) -> Vec<(&'static str, Json)> {
    vec![
        ("key", Json::str(cell.key())),
        ("hash", Json::str(format!("{:016x}", cell.hash()))),
        ("bench", Json::str(cell.bench.name())),
        ("profile", Json::str(cell.profile_name())),
        ("split", Json::U64(u64::from(cell.split))),
        ("cache_bytes", Json::U64(u64::from(cell.cache_size))),
        ("freq_mhz", Json::U64(u64::from(cell.freq.mhz))),
        ("policy", Json::str(policy_name(cell.policy))),
        ("guards", Json::Bool(cell.guards)),
        ("recovery", Json::str(recovery_name(cell.recovery))),
        ("isr", Json::str(cell.isr.name())),
        (
            "fault_seed",
            match cell.fault_seed {
                None => Json::Null,
                Some(s) => Json::str(format!("{s:016x}")),
            },
        ),
    ]
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::U64)
}

fn opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F64)
}

// ---------------------------------------------------------------------------
// In-process sweep
// ---------------------------------------------------------------------------

/// Runs every cell of `spec` on the harness pool and assembles the
/// campaign document. Rows are pure functions of their cell and come back
/// in [`CampaignSpec::cells`] order — config-key order, never completion
/// order — so the bytes are independent of the thread count.
pub fn run(h: &Harness, spec: &CampaignSpec) -> Json {
    let cells = spec.cells();
    let total = cells.len();
    let rows = h.parallel_map(cells, |cell| run_cell(h, &cell));
    let summary = summary_json(&rows);
    Json::obj(vec![
        ("schema", Json::U64(1)),
        ("generator", Json::str("swapram campaign engine")),
        ("spec", spec_json(spec, total)),
        ("cells", Json::Arr(rows)),
        ("summary", summary),
    ])
}

/// Serializes the spec echo embedded in the campaign document.
fn spec_json(spec: &CampaignSpec, total: usize) -> Json {
    Json::obj(vec![
        ("name", Json::str(spec.name)),
        ("base_seed", Json::str(format!("{:016x}", spec.base_seed))),
        ("cells", Json::U64(total as u64)),
        (
            "benches",
            Json::Arr(spec.benches.iter().map(|b| Json::str(b.name())).collect()),
        ),
        ("splits", Json::Arr(spec.splits.iter().map(|&s| Json::U64(u64::from(s))).collect())),
        (
            "cache_sizes",
            Json::Arr(spec.cache_sizes.iter().map(|&s| Json::U64(u64::from(s))).collect()),
        ),
        (
            "freqs_mhz",
            Json::Arr(spec.freqs.iter().map(|f| Json::U64(u64::from(f.mhz))).collect()),
        ),
        (
            "policies",
            Json::Arr(spec.policies.iter().map(|&p| Json::str(policy_name(p))).collect()),
        ),
        (
            "guard_modes",
            Json::Arr(spec.guard_modes.iter().map(|&g| Json::Bool(g)).collect()),
        ),
        (
            "recoveries",
            Json::Arr(
                spec.recoveries.iter().map(|&r| Json::str(recovery_name(r))).collect(),
            ),
        ),
        (
            "isr_modes",
            Json::Arr(spec.isr_modes.iter().map(|&m| Json::str(m.name())).collect()),
        ),
        ("fault_schedules", Json::U64(u64::from(spec.fault_schedules))),
    ])
}

/// Streams a campaign document (pretty, trailing newline) to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_doc(path: &Path, doc: &Json) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    doc.write_pretty(&mut w, 2)?;
    w.write_all(b"\n")?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Percentile / pareto summary
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an unsorted, non-empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Indices of the pareto-optimal points when minimizing both coordinates,
/// in input order.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            let (xi, yi) = points[i];
            !points.iter().enumerate().any(|(j, &(xj, yj))| {
                j != i && xj <= xi && yj <= yi && (xj < xi || yj < yi)
            })
        })
        .collect()
}

/// The axes the summary groups by: report field, display name, and
/// whether the value is numeric (sorted numerically).
const SUMMARY_AXES: [(&str, &str); 8] = [
    ("policy", "eviction policy"),
    ("cache_bytes", "cache size"),
    ("freq_mhz", "clock"),
    ("recovery", "recovery"),
    ("guards", "guards"),
    ("isr", "isr"),
    ("profile", "profile"),
    ("bench", "benchmark"),
];

fn axis_value(row: &Json, field: &str) -> Option<(String, Json)> {
    let v = row.get(field)?;
    let sort_key = match v {
        Json::U64(n) => format!("{n:020}"),
        Json::Bool(b) => format!("{b}"),
        Json::Str(s) => s.clone(),
        _ => return None,
    };
    Some((sort_key, v.clone()))
}

fn is_clean(row: &Json) -> bool {
    row.get("fault_seed") == Some(&Json::Null)
}

fn is_ok(row: &Json) -> bool {
    row.get("status").and_then(Json::as_str) == Some("ok")
        && row.get("correct").and_then(Json::as_bool) == Some(true)
}

/// Whether a report row — a campaign cell, or the `result` of a harness
/// run record — is a failure: anything but `dnf` or `ok` with the oracle's
/// output, so `failed` and `ok` with `correct: false` alike.
pub fn is_failure(row: &Json) -> bool {
    !is_ok(row) && row.get("status").and_then(Json::as_str) != Some("dnf")
}

/// Computes the deterministic summary section: status counts, per-axis
/// p50/p90/p99 of miss-cycle overhead (fault-free cells, vs. the baseline
/// system at the same profile and clock) and useful-cycles-per-boot
/// (faulted cells), and the two pareto frontiers.
pub fn summary_json(rows: &[Json]) -> Json {
    let ok = rows.iter().filter(|r| is_ok(r)).count() as u64;
    let failed = rows.iter().filter(|r| is_failure(r)).count() as u64;
    let dnf = rows.len() as u64 - ok - failed;

    // Per-axis percentile groups.
    let mut axes = Vec::new();
    for (field, _) in SUMMARY_AXES {
        let mut groups: BTreeMap<String, (Json, Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for r in rows.iter().filter(|r| is_ok(r)) {
            let Some((sort_key, value)) = axis_value(r, field) else { continue };
            let entry =
                groups.entry(sort_key).or_insert_with(|| (value, Vec::new(), Vec::new()));
            if is_clean(r) {
                if let Some(x) = r.get("overhead_pct").and_then(Json::as_f64) {
                    entry.1.push(x);
                }
            } else if let Some(x) = r.get("ucpb").and_then(Json::as_f64) {
                entry.2.push(x);
            }
        }
        let entries: Vec<Json> = groups
            .into_values()
            .map(|(value, overheads, ucpbs)| {
                let mut fields = vec![("value", value)];
                fields.push(("clean_n", Json::U64(overheads.len() as u64)));
                for (name, q) in [("overhead_p50", 50.0), ("overhead_p90", 90.0), ("overhead_p99", 99.0)]
                {
                    fields.push((
                        name,
                        if overheads.is_empty() {
                            Json::Null
                        } else {
                            Json::F64(percentile(&overheads, q))
                        },
                    ));
                }
                fields.push(("fault_n", Json::U64(ucpbs.len() as u64)));
                for (name, q) in [("ucpb_p50", 50.0), ("ucpb_p90", 90.0), ("ucpb_p99", 99.0)] {
                    fields.push((
                        name,
                        if ucpbs.is_empty() { Json::Null } else { Json::F64(percentile(&ucpbs, q)) },
                    ));
                }
                Json::obj(fields)
            })
            .collect();
        axes.push((field, Json::Arr(entries)));
    }

    // Pareto 1: SRAM footprint (split + cache bytes) vs median cycles.
    let mut by_geometry: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in rows.iter().filter(|r| is_ok(r) && is_clean(r)) {
        let (Some(split), Some(cache)) = (
            r.get("split").and_then(Json::as_u64),
            r.get("cache_bytes").and_then(Json::as_u64),
        ) else {
            continue;
        };
        if let Some(c) = r.get("total_cycles").and_then(Json::as_f64) {
            by_geometry.entry(split + cache).or_default().push(c);
        }
    }
    let geo_points: Vec<(u64, f64)> = by_geometry
        .into_iter()
        .map(|(bytes, cycles)| (bytes, percentile(&cycles, 50.0)))
        .collect();
    let front =
        pareto_front(&geo_points.iter().map(|&(b, c)| (b as f64, c)).collect::<Vec<_>>());
    let sram_vs_cycles: Vec<Json> = geo_points
        .iter()
        .enumerate()
        .map(|(i, &(bytes, cycles))| {
            Json::obj(vec![
                ("sram_bytes", Json::U64(bytes)),
                ("median_cycles", Json::F64(cycles)),
                ("on_front", Json::Bool(front.contains(&i))),
            ])
        })
        .collect();

    // Pareto 2: miss-cycle overhead (minimize) vs forward progress
    // (maximize ucpb) per (policy, recovery).
    let mut by_policy: BTreeMap<(String, String), (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for r in rows.iter().filter(|r| is_ok(r)) {
        let (Some(policy), Some(recovery)) = (
            r.get("policy").and_then(Json::as_str),
            r.get("recovery").and_then(Json::as_str),
        ) else {
            continue;
        };
        let entry = by_policy.entry((policy.to_string(), recovery.to_string())).or_default();
        if is_clean(r) {
            if let Some(x) = r.get("overhead_pct").and_then(Json::as_f64) {
                entry.0.push(x);
            }
        } else if let Some(x) = r.get("ucpb").and_then(Json::as_f64) {
            entry.1.push(x);
        }
    }
    let policy_points: Vec<((String, String), f64, f64)> = by_policy
        .into_iter()
        .filter(|(_, (ov, uc))| !ov.is_empty() && !uc.is_empty())
        .map(|((p, r), (ov, uc))| ((p, r), percentile(&ov, 50.0), percentile(&uc, 50.0)))
        .collect();
    let front2 = pareto_front(
        &policy_points.iter().map(|&(_, ov, uc)| (ov, -uc)).collect::<Vec<_>>(),
    );
    let overhead_vs_progress: Vec<Json> = policy_points
        .iter()
        .enumerate()
        .map(|(i, ((policy, recovery), ov, uc))| {
            Json::obj(vec![
                ("policy", Json::str(policy.clone())),
                ("recovery", Json::str(recovery.clone())),
                ("median_overhead_pct", Json::F64(*ov)),
                ("median_ucpb", Json::F64(*uc)),
                ("on_front", Json::Bool(front2.contains(&i))),
            ])
        })
        .collect();

    Json::obj(vec![
        (
            "counts",
            Json::obj(vec![
                ("ok", Json::U64(ok)),
                ("dnf", Json::U64(dnf)),
                ("failed", Json::U64(failed)),
            ]),
        ),
        (
            "axes",
            Json::Obj(axes.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        ),
        (
            "pareto",
            Json::obj(vec![
                ("sram_vs_cycles", Json::Arr(sram_vs_cycles)),
                ("overhead_vs_progress", Json::Arr(overhead_vs_progress)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn fmt_pct(v: &Json) -> String {
    v.as_f64().map_or_else(|| "-".into(), |x| format!("{x:+.1}%"))
}

fn fmt_cycles(v: &Json) -> String {
    v.as_f64().map_or_else(|| "-".into(), |x| format!("{x:.0}"))
}

fn axis_tables(doc: &Json) -> Vec<Table> {
    let mut out = Vec::new();
    let Some(axes) = doc.get("summary").and_then(|s| s.get("axes")) else { return out };
    for (field, title) in SUMMARY_AXES {
        let Some(entries) = axes.get(field).and_then(Json::as_arr) else { continue };
        // Single-valued axes carry no comparative information.
        if entries.len() < 2 {
            continue;
        }
        let mut t = Table::new(
            &format!("Campaign — miss-cycle overhead and forward progress by {title}"),
            &["value", "n", "overhead p50", "p90", "p99", "fault n", "ucpb p50", "p90", "p99"],
        );
        for e in entries {
            let value = match e.get("value") {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::U64(n)) => n.to_string(),
                Some(Json::Bool(b)) => b.to_string(),
                _ => "-".into(),
            };
            t.row(vec![
                value,
                e.get("clean_n").and_then(Json::as_u64).unwrap_or(0).to_string(),
                fmt_pct(e.get("overhead_p50").unwrap_or(&Json::Null)),
                fmt_pct(e.get("overhead_p90").unwrap_or(&Json::Null)),
                fmt_pct(e.get("overhead_p99").unwrap_or(&Json::Null)),
                e.get("fault_n").and_then(Json::as_u64).unwrap_or(0).to_string(),
                fmt_cycles(e.get("ucpb_p50").unwrap_or(&Json::Null)),
                fmt_cycles(e.get("ucpb_p90").unwrap_or(&Json::Null)),
                fmt_cycles(e.get("ucpb_p99").unwrap_or(&Json::Null)),
            ]);
        }
        out.push(t);
    }
    out
}

fn pareto_tables(doc: &Json) -> Vec<Table> {
    let mut out = Vec::new();
    let Some(pareto) = doc.get("summary").and_then(|s| s.get("pareto")) else { return out };
    if let Some(points) = pareto.get("sram_vs_cycles").and_then(Json::as_arr) {
        let mut t = Table::new(
            "Campaign — pareto: SRAM footprint vs median cycles",
            &["SRAM bytes", "median cycles", "pareto"],
        );
        for p in points {
            t.row(vec![
                p.get("sram_bytes").and_then(Json::as_u64).unwrap_or(0).to_string(),
                fmt_cycles(p.get("median_cycles").unwrap_or(&Json::Null)),
                if p.get("on_front").and_then(Json::as_bool) == Some(true) {
                    "*".into()
                } else {
                    String::new()
                },
            ]);
        }
        out.push(t);
    }
    if let Some(points) = pareto.get("overhead_vs_progress").and_then(Json::as_arr) {
        let mut t = Table::new(
            "Campaign — pareto: miss overhead vs forward progress",
            &["policy", "recovery", "median overhead", "median ucpb", "pareto"],
        );
        for p in points {
            t.row(vec![
                p.get("policy").and_then(Json::as_str).unwrap_or("-").to_string(),
                p.get("recovery").and_then(Json::as_str).unwrap_or("-").to_string(),
                fmt_pct(p.get("median_overhead_pct").unwrap_or(&Json::Null)),
                fmt_cycles(p.get("median_ucpb").unwrap_or(&Json::Null)),
                if p.get("on_front").and_then(Json::as_bool) == Some(true) {
                    "*".into()
                } else {
                    String::new()
                },
            ]);
        }
        out.push(t);
    }
    out
}

fn doc_header(doc: &Json) -> (String, u64, u64, u64, u64) {
    let spec = doc.get("spec");
    let name = spec
        .and_then(|s| s.get("name"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let cells = spec.and_then(|s| s.get("cells")).and_then(Json::as_u64).unwrap_or(0);
    let counts = doc.get("summary").and_then(|s| s.get("counts"));
    let get = |k: &str| counts.and_then(|c| c.get(k)).and_then(Json::as_u64).unwrap_or(0);
    (name, cells, get("ok"), get("dnf"), get("failed"))
}

/// Renders the campaign document as the stdout report: status
/// counts plus the per-axis percentile and pareto tables.
pub fn render(doc: &Json) -> String {
    let (name, cells, ok, dnf, failed) = doc_header(doc);
    let mut out = format!(
        "== Campaign ({name}) ==\ncells: {cells}  ok: {ok}  dnf: {dnf}  failed: {failed}\n\n"
    );
    for t in axis_tables(doc).iter().chain(pareto_tables(doc).iter()) {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Renders the campaign document as `BENCHMARKS.md`.
pub fn render_markdown(doc: &Json) -> String {
    let (name, cells, ok, dnf, failed) = doc_header(doc);
    let seed = doc
        .get("spec")
        .and_then(|s| s.get("base_seed"))
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let mut out = String::new();
    out.push_str("# Campaign benchmarks\n\n");
    out.push_str(
        "Generated by `cargo run --release -p experiments --bin campaign -- --summary` \
         from `BENCH_campaign.json`. Do not edit by hand.\n\n",
    );
    let _ = writeln!(
        out,
        "Spec `{name}` (base seed `{seed}`): **{cells} cells** — {ok} ok, {dnf} DNF, \
         {failed} failed. Overhead percentiles are miss-cycle overhead of fault-free cells \
         vs. the baseline system at the same profile and clock; `ucpb` is useful cycles \
         per boot of the power-loss cells (clean-run cycles / boots).\n"
    );
    for t in axis_tables(doc).iter().chain(pareto_tables(doc).iter()) {
        out.push_str(&t.render_markdown());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cell_keys_are_unique_and_sorted() {
        let spec = CampaignSpec::tiny(0xF00D);
        let cells = spec.cells();
        assert_eq!(cells.len(), 24, "tiny = 2 benches x 3 sizes x 2 policies x (1+1 fault)");
        let keys: Vec<String> = cells.iter().map(Cell::key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells enumerate in key order");
        sorted.dedup();
        assert_eq!(sorted.len(), cells.len(), "keys are unique");
    }

    #[test]
    fn preset_sizes_hit_their_tiers() {
        assert_eq!(CampaignSpec::fast(1).cells().len(), 192);
        let full = CampaignSpec::full(1).cells();
        assert!(full.len() >= 1000, "full tier must exceed 1000 cells, got {}", full.len());
        assert_eq!(full.len(), 1296);
    }

    #[test]
    fn cell_hash_is_stable_across_sessions() {
        let cell = Cell {
            bench: Benchmark::Crc,
            split: 0,
            cache_size: 0x1000,
            freq: Frequency::MHZ_24,
            policy: PolicyKind::CircularQueue,
            guards: true,
            recovery: RecoveryMode::FullScan,
            isr: IsrMode::Off,
            fault_seed: None,
        };
        assert_eq!(
            cell.key(),
            "crc|split=0000|cache=1000|24MHz|circular-queue|guards=on|full-scan|isr=off|fault=none"
        );
        // Pinned: a silent change to the key format would reorder and
        // rehash every committed campaign row.
        assert_eq!(cell.hash(), fnv1a64(cell.key().as_bytes()));
        assert_eq!(cell.hash(), 0x2d3e_8d79_9aa0_4e8e, "key format changed — bump with care");
    }

    #[test]
    fn fault_seeds_differ_between_points_but_not_runs() {
        let a = CampaignSpec::tiny(0xF00D).cells();
        let b = CampaignSpec::tiny(0xF00D).cells();
        assert_eq!(a, b, "enumeration is deterministic");
        let seeds: Vec<u64> = a.iter().filter_map(|c| c.fault_seed).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len(), "every point draws a distinct schedule");
        let c = CampaignSpec::tiny(0xBEEF).cells();
        assert_ne!(
            a.iter().filter_map(|x| x.fault_seed).collect::<Vec<_>>(),
            c.iter().filter_map(|x| x.fault_seed).collect::<Vec<_>>(),
            "base seed feeds the schedule derivation"
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn pareto_front_minimizes_both() {
        let points = [(1.0, 5.0), (2.0, 2.0), (3.0, 3.0), (4.0, 1.0), (4.0, 1.0)];
        // (3,3) is dominated by (2,2); the duplicated (4,1) points do not
        // dominate each other.
        assert_eq!(pareto_front(&points), vec![0, 1, 3, 4]);
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn summary_groups_axes_and_counts() {
        let rows = vec![
            json::parse(
                r#"{"status":"ok","correct":true,"fault_seed":null,"policy":"stack","recovery":"full-scan","cache_bytes":1024,"split":0,"freq_mhz":24,"overhead_pct":10.0,"total_cycles":1000}"#,
            )
            .unwrap(),
            json::parse(
                r#"{"status":"ok","correct":true,"fault_seed":"00000000000000aa","policy":"stack","recovery":"full-scan","cache_bytes":1024,"split":0,"freq_mhz":24,"ucpb":500.0}"#,
            )
            .unwrap(),
            json::parse(r#"{"status":"dnf"}"#).unwrap(),
        ];
        let s = summary_json(&rows);
        let counts = s.get("counts").unwrap();
        assert_eq!(counts.get("ok").and_then(Json::as_u64), Some(2));
        assert_eq!(counts.get("dnf").and_then(Json::as_u64), Some(1));
        let policy = s.get("axes").unwrap().get("policy").and_then(Json::as_arr).unwrap();
        assert_eq!(policy.len(), 1);
        assert_eq!(policy[0].get("clean_n").and_then(Json::as_u64), Some(1));
        assert_eq!(policy[0].get("overhead_p50"), Some(&Json::F64(10.0)));
        assert_eq!(policy[0].get("ucpb_p50"), Some(&Json::F64(500.0)));
        let front = s.get("pareto").unwrap().get("overhead_vs_progress").and_then(Json::as_arr).unwrap();
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].get("on_front"), Some(&Json::Bool(true)));
    }

    #[test]
    fn wrong_output_is_a_failure_whatever_its_status() {
        let rows: Vec<Json> = [
            (r#"{"status":"ok","correct":true}"#, false),
            (r#"{"status":"ok","correct":false}"#, true),
            (r#"{"status":"ok"}"#, true),
            (r#"{"status":"failed","correct":false}"#, true),
            (r#"{"status":"failed","message":"exit SanitizerTrap"}"#, true),
            (r#"{"status":"dnf","message":"does not fit"}"#, false),
        ]
        .iter()
        .map(|(text, failure)| {
            let row = json::parse(text).unwrap();
            assert_eq!(is_failure(&row), *failure, "{text}");
            row
        })
        .collect();
        let counts = summary_json(&rows).get("counts").cloned().unwrap();
        assert_eq!(counts.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(counts.get("dnf").and_then(Json::as_u64), Some(1));
        assert_eq!(counts.get("failed").and_then(Json::as_u64), Some(4));
    }
}
