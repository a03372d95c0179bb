//! `swapbench` — end-to-end and per-layer benchmark of the SwapRAM
//! reproduction.
//!
//! ```text
//! swapbench [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! - `--workload`: one of `sim-steady`, `swap-thrash`, `campaign-fast`,
//!   `paper-report` (repeatable; default: all four).
//! - `--seed`: input seed of the library workloads and fault seed of the
//!   sweeps (default 1).
//! - `--seconds`: measure each workload for about this long (default 20;
//!   when tracing, half goes to untraced and half to traced reps, and the
//!   default is one of each).
//! - `--trace` / `--trace 1`: instead of timing, run traced reps and
//!   report the per-layer metrics.
//!
//! The full result goes to `bench-result.json`, or with its spans to
//! `bench-trace.json` when tracing, in the working directory.
//!
//! Each workload runs one discarded warm-up rep, then timed reps, each in
//! a fresh child process. A `wall_s` sample is the fastest of three
//! consecutive reps. Every timed rep gives one set-up sample (`setup_s`:
//! the fastest cold build of the workload's images over 0.2 s of
//! rebuilding), taken inside a library rep and by the parent before a
//! sweep rep. Human-readable tables go to stdout; the last line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 1 when any output is wrong or not reproducible.

use experiments::json::{self, Json};
use mibench::{Benchmark, MemoryProfile, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use swapbench::layers::{self, Counters, PER_LAYER};
use swapbench::library::{fastest_of, LibraryWorkload, MIN_SETUP_S};
use swapbench::stats::{median, window_minima, Summary};
use swapbench::sysinfo::MachineInfo;
use swapbench::trace::{layer_times, Tracer};
use swapbench::workload::{sweep_jobs, Workload, END_TO_END};
use swapbench::{rusage, sweep};

/// Seconds of timed reps per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Fewest `setup_s` samples a timed run takes.
const MIN_SETUP_SAMPLES: usize = 5;
/// Consecutive timed reps whose fastest gives one `wall_s` sample.
const WALL_WINDOW: usize = 3;
/// Scratch directory (under the working directory) for rep outputs.
const WORK_DIR: &str = ".swapbench";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    child: Option<Workload>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        child: None,
        dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().peekable();
    let workload = |v: Option<&String>| {
        let v = v.ok_or("missing workload name")?;
        Workload::parse(v).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {v:?} (expected one of {})",
                names.join(", ")
            )
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workloads.push(workload(it.next())?),
            "--child" => a.child = Some(workload(it.next())?),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a value")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    a.trace = v == "1";
                }
            }
            "--dir" => a.dir = Some(PathBuf::from(it.next().ok_or("--dir needs a path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("swapbench: {e}");
        std::process::exit(2);
    });
    if let Some(w) = args.child {
        let dir = args.dir.clone().unwrap_or_else(|| PathBuf::from("."));
        match child(w, args.seed, &dir, args.trace) {
            Ok(doc) => println!("{}", doc.render()),
            Err(e) => {
                eprintln!("swapbench[{}]: {e}", w.name());
                std::process::exit(1);
            }
        }
        return;
    }
    match parent(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("swapbench: {e}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Child: one rep
// ---------------------------------------------------------------------------

fn f(x: f64) -> Json {
    Json::F64(x)
}

/// Runs one rep of `w` and describes it as one JSON object.
fn child(w: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Json, String> {
    let mut tracer = Tracer::new(traced);
    let mut fields: Vec<(&str, Json)> = Vec::new();
    let mut counters = Counters::default();
    let executed;
    let mut faulted_cells = Vec::new();
    if let Some(lw) = LibraryWorkload::of(w) {
        let rep = lw.rep(seed, lw.passes, &mut tracer)?;
        let d = rep.device;
        fields.extend([
            ("wall_s", f(rep.pass_s)),
            ("setup_s", f(rep.setup_s)),
            ("rss_mb", f(rusage::this_process_peak_mb())),
            ("attempted", Json::U64(rep.attempted)),
            ("failed", Json::U64(rep.failed)),
            (
                "consistent",
                Json::Bool(rep.repeatable && rep.cycle_sums_ok),
            ),
            ("digest", Json::str(format!("{:016x}", rep.digest))),
            (
                "device",
                Json::obj(vec![
                    ("swap_speedup_geo", f(d.swap_speedup_geo)),
                    ("swap_energy_ratio_geo", f(d.swap_energy_ratio_geo)),
                    ("swap_fram_accesses", f(d.swap_fram_accesses as f64)),
                ]),
            ),
        ]);
        for r in &rep.results {
            counters.add_stats(&r.outcome.stats);
            if let Some(s) = &r.swap {
                counters.add_swap(s);
            }
            if let Some(b) = &r.block {
                counters.add_block(b);
            }
        }
        counters.add("build.count", lw.images.len() as f64);
        executed = rep.executed_instructions;
    } else if !traced {
        // The output stays in `dir`; the parent inspects one rep's.
        let r = sweep::run_binary(w, dir)?;
        fields.extend([
            ("wall_s", f(r.wall_s)),
            ("rss_mb", f(r.rss_mb)),
            ("consistent", Json::Bool(true)),
            ("digest", Json::str(format!("{:016x}", r.digest))),
        ]);
        return Ok(Json::obj(fields));
    } else {
        let t = match w {
            Workload::CampaignFast => sweep::traced_campaign(seed, dir, &mut tracer)?,
            _ => sweep::traced_report(dir, &mut tracer)?,
        };
        fields.extend([
            ("attempted", Json::U64(t.tally.attempted)),
            ("failed", Json::U64(t.tally.failed)),
            ("consistent", Json::Bool(t.cycle_sums_ok)),
        ]);
        counters = t.counters;
        executed = t.executed_instructions;
        faulted_cells = t.faulted_cells;
    }
    if traced {
        fields.extend(trace_fields(&tracer, &counters, executed, &faulted_cells));
    }
    Ok(Json::obj(fields))
}

/// The per-layer metrics, per-span-name self times, episode percentiles
/// and raw spans of a traced rep.
fn trace_fields(
    tracer: &Tracer,
    counters: &Counters,
    executed: u64,
    faulted_cells: &[usize],
) -> Vec<(&'static str, Json)> {
    let spans = tracer.spans();
    let metrics = layers::metrics(spans, counters, executed);
    let layer_ms = layer_times(spans)
        .into_iter()
        .map(|(name, t)| {
            let v = Json::obj(vec![
                ("self_ms", f(t.self_ns as f64 / 1e6)),
                ("count", Json::U64(t.count)),
            ]);
            (name.to_string(), v)
        })
        .collect();
    let episodes: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == "campaign.episode" && s.cell.is_some_and(|c| faulted_cells.contains(&c))
        })
        .map(|s| s.len_ns() as f64 / 1e6)
        .collect();
    let episode_ms = if episodes.is_empty() {
        Json::Null
    } else {
        Json::obj(vec![
            ("n", Json::U64(episodes.len() as u64)),
            ("p50", f(experiments::campaign::percentile(&episodes, 50.0))),
            ("p98", f(experiments::campaign::percentile(&episodes, 98.0))),
        ])
    };
    let opt = |x: Option<usize>| x.map_or(Json::Null, |v| Json::U64(v as u64));
    let raw = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::str(s.name),
                Json::U64(s.start_ns),
                Json::U64(s.end_ns),
                opt(s.parent),
                opt(s.cell),
            ])
        })
        .collect();
    vec![
        (
            "layers",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), f(v)))
                    .collect(),
            ),
        ),
        ("layer_ms", Json::Obj(layer_ms)),
        ("episode_ms", episode_ms),
        ("spans", Json::Arr(raw)),
    ]
}

// ---------------------------------------------------------------------------
// Parent: set-up, reps, summaries
// ---------------------------------------------------------------------------

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn count(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// The directory a rep of `w` runs in; it keeps the last rep's output.
fn rep_dir(w: Workload, work: &Path) -> PathBuf {
    work.join(format!("{}-rep", w.name()))
}

/// Runs one rep of `w` in a fresh child process and directory and returns
/// its report.
fn spawn_rep(w: Workload, seed: u64, traced: bool, work: &Path) -> Result<Json, String> {
    let dir = rep_dir(w, work);
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io)?;
    }
    std::fs::create_dir_all(&dir).map_err(io)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate swapbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &seed.to_string(), "--dir"])
        .arg(&dir);
    if traced {
        cmd.arg("--trace");
    }
    for (k, _) in std::env::vars_os() {
        if k.to_str().is_some_and(|k| k.starts_with("SWAPRAM_")) {
            cmd.env_remove(k);
        }
    }
    cmd.env("SWAPRAM_JOBS", sweep_jobs().to_string())
        .env("SWAPRAM_FAULT_SEED", seed.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a {} rep: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("a {} rep failed ({})", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    json::parse(line).map_err(|e| format!("{} rep printed no result: {e}", w.name()))
}

/// Runs reps until one more rep of average length would exceed
/// `seconds`; always at least one.
fn reps(seconds: f64, mut rep: impl FnMut() -> Result<Json, String>) -> Result<Vec<Json>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(rep()?);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > seconds {
            return Ok(out);
        }
    }
}

/// Seconds of the fastest cold build of every set-up image over
/// [`MIN_SETUP_S`] of rebuilding.
fn time_setup(images: &[(Benchmark, System, MemoryProfile)]) -> Result<f64, String> {
    let (fastest, ()) = fastest_of(MIN_SETUP_S, || {
        for (bench, system, profile) in images {
            let _ = black_box(mibench::build(*bench, system, profile));
        }
        Ok(())
    })?;
    Ok(fastest)
}

/// One workload's outcome.
struct Outcome {
    workload: Workload,
    /// Timed or traced reps run.
    reps: usize,
    /// (name, unit, values) per reported metric.
    metrics: Vec<(&'static str, &'static str, Vec<f64>)>,
    /// Deterministic paper metrics.
    device: Vec<(String, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Extra members for the JSON result.
    extra: Vec<(&'static str, Json)>,
}

fn timed(w: Workload, seed: u64, seconds: Option<f64>, work: &Path) -> Result<Outcome, String> {
    // A library rep times its own builds. For a sweep, set-up is timed
    // here before every timed rep, so its samples span the run like the
    // reps do instead of one moment at its start. Either way the samples
    // are topped up to MIN_SETUP_SAMPLES when the reps are few.
    let images = w.setup_images(seed);
    spawn_rep(w, seed, false, work)?;
    let mut setup = Vec::new();
    let runs = reps(seconds.unwrap_or(DEFAULT_SECONDS), || {
        if !w.is_library() {
            setup.push(time_setup(&images)?);
        }
        spawn_rep(w, seed, false, work)
    })?;
    if w.is_library() {
        setup = runs.iter().map(|r| num(r, "setup_s")).collect();
    }
    while setup.len() < MIN_SETUP_SAMPLES {
        setup.push(time_setup(&images)?);
    }
    let dir = rep_dir(w, work);
    let (device, attempted, failed): (Vec<(String, f64)>, u64, u64) = if w.is_library() {
        let device = match runs[0].get("device") {
            Some(Json::Obj(m)) => m
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            _ => Vec::new(),
        };
        let attempted = runs.iter().map(|r| count(r, "attempted")).sum();
        (
            device,
            attempted,
            runs.iter().map(|r| count(r, "failed")).sum(),
        )
    } else {
        // Every rep's output matches the last one's when the digests agree.
        let seen = sweep::inspect(w, &dir)?;
        let n = runs.len() as u64;
        let device = seen
            .simulated
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        (device, seen.tally.attempted * n, seen.tally.failed * n)
    };
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let speedup = device
        .iter()
        .find(|(k, _)| k == "swap_speedup_geo")
        .map_or(f64::NAN, |(_, v)| *v);
    let digests: Vec<&str> = runs
        .iter()
        .map(|r| r.get("digest").and_then(Json::as_str).unwrap_or(""))
        .collect();
    let reproducible = digests.windows(2).all(|p| p[0] == p[1]);
    let consistent = runs
        .iter()
        .all(|r| r.get("consistent") == Some(&Json::Bool(true)));
    let mut notes = Vec::new();
    if !reproducible {
        notes.push(format!("digests differ across reps: {}", digests.join(" ")));
    }
    if !consistent {
        notes.push(
            "a rep's passes disagreed or a cell's cycle buckets do not sum to its total".into(),
        );
    }
    let values = |key: &str| runs.iter().map(|r| num(r, key)).collect::<Vec<f64>>();
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "wall_s" => window_minima(&values("wall_s"), WALL_WINDOW),
                "setup_s" => setup.clone(),
                "peak_rss_mb" => values("rss_mb"),
                _ => vec![speedup; runs.len()],
            };
            (name, unit, v)
        })
        .collect();
    Ok(Outcome {
        workload: w,
        reps: runs.len(),
        metrics,
        device,
        correct: reproducible && consistent && failed == 0 && speedup.is_finite() && speedup > 0.0,
        attempted,
        failed,
        notes,
        extra: vec![("digest", Json::str(digests[0]))],
    })
}

fn traced(w: Workload, seed: u64, seconds: Option<f64>, work: &Path) -> Result<Outcome, String> {
    let half = seconds.unwrap_or(0.0) / 2.0;
    let untraced = reps(half, || spawn_rep(w, seed, false, work))?;
    // A traced library rep builds its images once, an untraced one times
    // a set-up sample of several builds: compare one build plus the passes.
    let base_s = median(
        &untraced
            .iter()
            .map(|r| num(r, "wall_s") + r.get("setup_s").and_then(Json::as_f64).unwrap_or(0.0))
            .collect::<Vec<_>>(),
    );
    let dir = rep_dir(w, work);
    let binary_doc = if w.is_library() {
        None
    } else {
        Some(sweep::read_doc(&dir.join("out.json"))?)
    };
    let runs = reps(half, || spawn_rep(w, seed, true, work))?;
    let mut notes = Vec::new();
    let mut matches_binary = true;
    if let Some(binary_doc) = binary_doc {
        let traced_doc = sweep::read_doc(&dir.join("traced.json"))?;
        if let Err(e) = sweep::check_traced(&binary_doc, &traced_doc) {
            notes.push(format!(
                "the traced rep's output differs from the binary's: {e}"
            ));
            matches_binary = false;
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let layer = |r: &Json, k: &str| {
        r.get("layers")
            .and_then(|l| l.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let jobs = if w.is_library() { 1 } else { sweep_jobs() };
    let traced_s = median(
        &runs
            .iter()
            .map(|r| layer(r, "trace.wall_ms") / 1e3)
            .collect::<Vec<_>>(),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = if name == "harness.parallel_eff" {
                // No harness runs in a library workload.
                let eff = if w.is_library() {
                    0.0
                } else {
                    traced_s / (jobs as f64 * base_s)
                };
                vec![eff]
            } else {
                runs.iter().map(|r| layer(r, name)).collect()
            };
            (name, unit, v)
        })
        .collect();
    let consistent = runs
        .iter()
        .all(|r| r.get("consistent") == Some(&Json::Bool(true)));
    let attempted = runs.iter().map(|r| count(r, "attempted")).sum();
    let failed = runs.iter().map(|r| count(r, "failed")).sum();
    let last = runs.last().expect("at least one traced rep");
    notes.push(format!(
        "traced wall {traced_s:.3} s on 1 thread; untraced {base_s:.3} s on {jobs} thread(s)"
    ));
    let mut extra = vec![
        ("untraced_wall_s", f(base_s)),
        ("traced_wall_s", f(traced_s)),
    ];
    if w.is_library() {
        let overhead = (traced_s - base_s) / base_s * 100.0;
        notes.push(format!(
            "tracing overhead {overhead:+.2}% of the untraced wall"
        ));
        extra.push(("trace_overhead_pct", f(overhead)));
    }
    for key in ["layer_ms", "episode_ms", "spans"] {
        extra.push((key, last.get(key).cloned().unwrap_or(Json::Null)));
    }
    if !consistent {
        notes.push("a traced rep's cycle buckets do not sum to its total".into());
    }
    Ok(Outcome {
        workload: w,
        reps: runs.len(),
        metrics,
        device: Vec::new(),
        correct: consistent && matches_binary && failed == 0,
        attempted,
        failed,
        notes,
        extra,
    })
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

fn fmt(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

fn render(o: &Outcome, seed: u64, traced: bool) -> String {
    let mut s = format!(
        "\n## {} (seed {seed}, {} {} rep(s))\n\n| metric | unit | median | q1 | q3 | n |\n|---|---|---:|---:|---:|---:|\n",
        o.workload.name(),
        o.reps,
        if traced { "traced" } else { "timed" },
    );
    for (name, unit, v) in &o.metrics {
        // Layers a workload never reaches read 0; they stay in the JSON.
        if traced && v.iter().all(|x| *x == 0.0) {
            continue;
        }
        let sum = Summary::of(v);
        s.push_str(&format!(
            "| {name} | {unit} | {} | {} | {} | {} |\n",
            fmt(sum.median),
            fmt(sum.q1),
            fmt(sum.q3),
            sum.n
        ));
    }
    if !o.device.is_empty() {
        let d: Vec<String> = o
            .device
            .iter()
            .map(|(k, v)| format!("{k} = {}", fmt(*v)))
            .collect();
        s.push_str(&format!("\nsimulated (deterministic): {}\n", d.join(", ")));
    }
    if let Some(Json::Obj(layers)) = o
        .extra
        .iter()
        .find(|(k, _)| *k == "layer_ms")
        .map(|(_, v)| v)
    {
        s.push_str("\n| span | self ms | spans |\n|---|---:|---:|\n");
        for (name, t) in layers {
            s.push_str(&format!(
                "| {name} | {} | {} |\n",
                fmt(num(t, "self_ms")),
                count(t, "count")
            ));
        }
    }
    for note in &o.notes {
        s.push_str(&format!("\nnote: {note}"));
    }
    s.push_str(&format!(
        "\ncorrect: {}; failed {} of {} attempted\n",
        if o.correct { "yes" } else { "NO" },
        o.failed,
        o.attempted
    ));
    s
}

fn outcome_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let sum = Summary::of(v);
            let m = Json::obj(vec![
                ("unit", Json::str(*unit)),
                ("median", f(sum.median)),
                ("q1", f(sum.q1)),
                ("q3", f(sum.q3)),
                ("n", Json::U64(sum.n as u64)),
                ("values", Json::Arr(v.iter().map(|x| f(*x)).collect())),
            ]);
            (name.to_string(), m)
        })
        .collect();
    let mut fields = vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::U64(o.attempted)),
        ("failed", Json::U64(o.failed)),
        ("metrics", Json::Obj(metrics)),
        (
            "simulated",
            Json::Obj(o.device.iter().map(|(k, v)| (k.clone(), f(*v))).collect()),
        ),
    ];
    fields.extend(o.extra.iter().cloned());
    Json::obj(fields)
}

/// The one-line result: medians, keyed by metric name for one workload
/// and by `<workload>.<metric>` for several.
fn result_line(outcomes: &[Outcome]) -> Json {
    let prefix = outcomes.len() > 1;
    let mut metrics = BTreeMap::new();
    for o in outcomes {
        for (name, unit, v) in &o.metrics {
            let key = if prefix {
                format!("{}.{name}", o.workload.name())
            } else {
                name.to_string()
            };
            metrics.insert(
                key,
                Json::obj(vec![("value", f(median(v))), ("unit", Json::str(*unit))]),
            );
        }
    }
    Json::obj(vec![
        ("correct", Json::Bool(outcomes.iter().all(|o| o.correct))),
        (
            "attempted",
            Json::U64(outcomes.iter().map(|o| o.attempted).sum()),
        ),
        ("failed", Json::U64(outcomes.iter().map(|o| o.failed).sum())),
        ("metrics", Json::Obj(metrics.into_iter().collect())),
    ])
}

/// Runs the selected workloads; returns whether every output was correct.
fn parent(args: &Args) -> Result<bool, String> {
    let info = MachineInfo::collect(Path::new("."));
    println!("# swapbench\n\n{}", info.render());
    let work = PathBuf::from(WORK_DIR);
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        eprintln!("swapbench: {} ...", w.name());
        let o = if args.trace {
            traced(w, args.seed, args.seconds, &work)?
        } else {
            timed(w, args.seed, args.seconds, &work)?
        };
        print!("{}", render(&o, args.seed, args.trace));
        outcomes.push(o);
    }
    let _ = std::fs::remove_dir(&work);

    let path = Path::new(if args.trace {
        "bench-trace.json"
    } else {
        "bench-result.json"
    });
    let doc = Json::obj(vec![
        (
            "machine",
            Json::obj(vec![
                ("nproc", Json::U64(info.nproc as u64)),
                ("cpu", Json::str(info.cpu.clone())),
                ("git_rev", Json::str(info.git_rev.clone())),
                (
                    "swapram_env",
                    Json::Obj(
                        info.swapram_env
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("seed", Json::U64(args.seed)),
        ("traced", Json::Bool(args.trace)),
        (
            "workloads",
            Json::Obj(
                outcomes
                    .iter()
                    .map(|o| (o.workload.name().to_string(), outcome_json(o)))
                    .collect(),
            ),
        ),
    ]);
    experiments::campaign::write_doc(path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nfull result -> {}", path.display());
    let line = result_line(&outcomes);
    println!("{}", line.render());
    Ok(outcomes.iter().all(|o| o.correct))
}
