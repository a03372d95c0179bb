//! Sweep workloads: one rep runs the repository's `campaign` or `all`
//! binary in a fresh directory; a traced rep walks the same sweep through
//! the library on one thread, with spans around each layer's calls.

use crate::layers::Counters;
use crate::library::parse_for;
use crate::outputs::{self, Tally};
use crate::rusage;
use crate::trace::Tracer;
use crate::workload::Workload;
use experiments::campaign::{self, fnv1a64, CampaignSpec};
use experiments::json::{self, Json};
use experiments::{
    ablation, concurrency, corruption, fig1, fig10, fig7, fig8, fig9, intermittent, resilience,
    table1, table2, Harness,
};
use mibench::System;
use msp430_sim::Frequency;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Path of a repository binary that must sit next to `swapbench`.
///
/// # Errors
///
/// A message naming the missing file and the build command.
fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate swapbench: {e}"))?;
    let path = exe.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "`{name}` not found at {} — build it next to swapbench with \
             `bash swapbench/run.sh`",
            path.display()
        ))
    }
}

/// One sweep rep, measured from outside the binary.
#[derive(Debug, Clone)]
pub struct SweepRep {
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// Peak RSS of the binary, MB.
    pub rss_mb: f64,
    /// Digest of the deterministic output.
    pub digest: u64,
}

/// Runs the sweep binary of `w` once in `dir` (created empty by the
/// caller) and digests its output, which stays in `dir` for [`inspect`].
/// The environment is the caller's, which sets the worker count and fault
/// seed.
///
/// # Errors
///
/// A missing binary, a nonzero exit, or unreadable output.
pub fn run_binary(w: Workload, dir: &Path) -> Result<SweepRep, String> {
    let (name, args) = w
        .sweep_command()
        .ok_or_else(|| format!("{} is not a sweep", w.name()))?;
    let bin = sibling_binary(name)?;
    let log = |file: &str| {
        std::fs::File::create(dir.join(file)).map_err(|e| format!("{}: {e}", dir.display()))
    };
    let started = Instant::now();
    let status = Command::new(&bin)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(log("stdout.txt")?)
        .stderr(log("stderr.txt")?)
        .status()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let wall_s = started.elapsed().as_secs_f64();
    // This process has no other children, so the peak is the binary's.
    let rss_mb = rusage::children_peak_mb();
    if !status.success() {
        let err = std::fs::read_to_string(dir.join("stderr.txt")).unwrap_or_default();
        let tail: Vec<&str> = err.lines().rev().take(10).collect();
        return Err(format!(
            "{name} exited with {status}:\n{}",
            tail.into_iter().rev().collect::<Vec<_>>().join("\n")
        ));
    }
    let text = std::fs::read_to_string(dir.join("out.json"))
        .map_err(|e| format!("{name} wrote no out.json: {e}"))?;
    let digest = match w {
        Workload::CampaignFast => fnv1a64(text.as_bytes()),
        _ => outputs::report_digest(&text),
    };
    Ok(SweepRep {
        wall_s,
        rss_mb,
        digest,
    })
}

/// What a sweep's output says.
#[derive(Debug, Clone)]
pub struct Inspection {
    /// Rows attempted and forbidden.
    pub tally: Tally,
    /// The paper metrics the output carries, speedup geomean first.
    pub simulated: Vec<(&'static str, f64)>,
}

/// Reads the output [`run_binary`] left in `dir`. Reps whose digests match
/// share it, so a run reads one rep's output.
///
/// # Errors
///
/// Missing or malformed output.
pub fn inspect(w: Workload, dir: &Path) -> Result<Inspection, String> {
    let doc = read_doc(&dir.join("out.json"))?;
    Ok(match w {
        Workload::CampaignFast => Inspection {
            tally: outputs::classify_campaign(&doc),
            simulated: vec![
                ("swap_speedup_geo", outputs::campaign_speedup_geo(&doc)),
                ("overhead_p50_pct", outputs::campaign_overhead_p50(&doc)),
                ("ucpb_mean", outputs::campaign_ucpb_mean(&doc)),
            ],
        },
        _ => Inspection {
            tally: outputs::classify_report(&doc),
            simulated: vec![
                ("swap_speedup_geo", outputs::report_speedup_geo(&doc)),
                (
                    "swap_energy_ratio_geo",
                    outputs::report_energy_ratio_geo(&doc),
                ),
                ("swap_fram_accesses", outputs::report_fram_accesses(&doc)),
                ("ucpb_mean", outputs::report_ucpb_mean(&doc)),
            ],
        },
    })
}

/// Reads and parses a JSON document.
///
/// # Errors
///
/// An unreadable file or malformed JSON, with the path.
pub fn read_doc(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `doc` without its `wall_ms` members, at any depth.
fn without_wall_ms(doc: &Json) -> Json {
    match doc {
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "wall_ms")
                .map(|(k, v)| (k.clone(), without_wall_ms(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_wall_ms).collect()),
        other => other.clone(),
    }
}

/// Checks that a traced sweep rep did the work the binary did, given both
/// documents as read back from their files: every row section of the
/// binary's document is present in the traced one with the same rows, and
/// every other member the traced document carries matches, ignoring the
/// worker count and wall-clock times. The traced walks restate the
/// binary's section and cell lists, so this check is what keeps them in
/// step.
///
/// # Errors
///
/// The first member that is missing or differs.
pub fn check_traced(binary: &Json, traced: &Json) -> Result<(), String> {
    let (Json::Obj(binary), Json::Obj(traced)) = (binary, traced) else {
        return Err("sweep documents must be JSON objects".into());
    };
    fn member<'a>(doc: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        doc.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    for (key, value) in binary {
        if matches!(value, Json::Arr(_)) && member(traced, key).is_none() {
            return Err(format!("the traced rep has no `{key}` section"));
        }
    }
    // Row sections first: a differing row count names the section that
    // drifted, where the cache counters would only show that one did.
    let is_rows = |(_, v): &&(String, Json)| matches!(v, Json::Arr(_));
    let rows_first = traced
        .iter()
        .filter(is_rows)
        .chain(traced.iter().filter(|m| !is_rows(m)));
    for (key, value) in rows_first {
        if key == "jobs" || key == "wall_ms" {
            continue;
        }
        let Some(expected) = member(binary, key) else {
            return Err(format!("the binary's output has no `{key}` member"));
        };
        if let (Json::Arr(got), Json::Arr(want)) = (value, expected) {
            if got.len() != want.len() {
                return Err(format!(
                    "`{key}`: {} rows traced, {} from the binary",
                    got.len(),
                    want.len()
                ));
            }
        }
        if without_wall_ms(value) != without_wall_ms(expected) {
            return Err(format!("`{key}` differs from the binary's"));
        }
    }
    Ok(())
}

/// What a traced sweep rep produced besides its spans.
#[derive(Debug, Clone)]
pub struct TracedSweep {
    /// Rows attempted and forbidden.
    pub tally: Tally,
    /// Layer counters.
    pub counters: Counters,
    /// Instructions simulated inside `campaign.measure` spans.
    pub executed_instructions: u64,
    /// Every memoized run's cycle buckets sum to its total.
    pub cycle_sums_ok: bool,
    /// Cells whose `campaign.episode` span ran a power-loss episode.
    pub faulted_cells: Vec<usize>,
}

/// Adds every memoized run's counters and the cache counters of `h`;
/// returns the instructions those runs simulated and whether every run's
/// cycle buckets sum to its total.
fn add_harness_counters(h: &Harness, c: &mut Counters) -> (u64, bool) {
    let mut executed = 0;
    let mut cycle_sums_ok = true;
    for (rec, _) in h.records() {
        if let Ok(m) = &rec.result {
            cycle_sums_ok &= crate::library::cycle_sum_ok(&m.stats);
            c.add_stats(&m.stats);
            executed += m.stats.total_instructions();
            if let Some(s) = &m.swap {
                c.add_swap(s);
            }
            if let Some(b) = &m.block {
                c.add_block(b);
            }
        }
    }
    c.add("build.count", h.build_misses() as f64);
    c.add("harness.build_hits", h.build_hits() as f64);
    c.add("harness.build_misses", h.build_misses() as f64);
    c.add("harness.run_hits", h.run_hits() as f64);
    c.add("harness.run_misses", h.run_misses() as f64);
    c.add("harness.unique_builds", h.unique_builds() as f64);
    c.add("harness.unique_runs", h.run_misses() as f64);
    (executed, cycle_sums_ok)
}

/// Walks `campaign --spec fast` cell by cell on one thread: for each
/// cell, the first request of every image (`build.parse`, `build`), the
/// baseline and fault-free measurements (`campaign.measure`), then
/// `campaign::run_cell` (`campaign.episode`: the power-loss episode for
/// faulted cells, row building for the rest); finally the summary and
/// document write (`json.write`).
///
/// # Errors
///
/// An I/O error writing the document.
pub fn traced_campaign(seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<TracedSweep, String> {
    let spec = CampaignSpec::fast(seed);
    let cells = spec.cells();
    let h = Harness::with_jobs(1);
    let root = tracer.enter("rep", None);
    let mut seen = HashSet::new();
    let mut rows = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let profile = cell.profile();
        for system in [System::Baseline, cell.system()] {
            if seen.insert(format!("{}|{system:?}|{profile:?}", cell.bench.name())) {
                tracer.span("build.parse", Some(i), || {
                    parse_for(cell.bench, &system, &profile)
                });
                tracer.span("build", Some(i), || h.build(cell.bench, &system, &profile));
            }
            let _ = tracer.span("campaign.measure", Some(i), || {
                h.measure("campaign", cell.bench, &system, &profile, cell.freq)
            });
        }
        rows.push(tracer.span("campaign.episode", Some(i), || campaign::run_cell(&h, cell)));
    }
    let write = tracer.enter("json.write", None);
    let summary = campaign::summary_json(&rows);
    let doc = Json::obj(vec![("cells", Json::Arr(rows)), ("summary", summary)]);
    campaign::write_doc(&dir.join("traced.json"), &doc).map_err(|e| format!("write: {e}"))?;
    tracer.exit(write);
    tracer.exit(root);

    let mut counters = Counters::default();
    let (executed_instructions, cycle_sums_ok) = add_harness_counters(&h, &mut counters);
    outputs::add_campaign_counters(&doc, &mut counters);
    Ok(TracedSweep {
        tally: outputs::classify_campaign(&doc),
        counters,
        executed_instructions,
        cycle_sums_ok,
        faulted_cells: cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.fault_seed.is_some())
            .map(|(i, _)| i)
            .collect(),
    })
}

/// Runs every section of `experiments::run_report` (full mode, in its
/// order) on one single-threaded harness, each in an `experiments.<name>`
/// span, then writes the JSON report (`json.write`). The fault seed comes
/// from `SWAPRAM_FAULT_SEED`, as in the `all` binary.
///
/// # Errors
///
/// An I/O error writing the report.
pub fn traced_report(dir: &Path, tracer: &mut Tracer) -> Result<TracedSweep, String> {
    let h = Harness::with_jobs(1);
    let seed = resilience::base_seed();
    let root = tracer.enter("rep", None);
    let mut section = |name: &'static str, f: &dyn Fn(&Harness) -> String| {
        black_box(tracer.span(name, None, || f(&h)));
    };
    section("experiments.fig1", &|h| fig1::render(&fig1::run(h)));
    section("experiments.table1", &|h| table1::render(&table1::run(h)));
    section("experiments.fig7", &|h| fig7::render(&fig7::run(h)));
    section("experiments.table2", &|h| table2::render(&table2::run(h)));
    section("experiments.fig8", &|h| fig8::render(&fig8::run(h)));
    section("experiments.fig9_24mhz", &|h| {
        fig9::render(&fig9::run(h, Frequency::MHZ_24))
    });
    section("experiments.fig9_8mhz", &|h| {
        fig9::render(&fig9::run(h, Frequency::MHZ_8))
    });
    section("experiments.fig10", &|h| {
        fig10::render(&fig10::run(h, Frequency::MHZ_24))
    });
    section("experiments.resilience", &|h| {
        resilience::render(&resilience::run(h, resilience::DEFAULT_SCHEDULES, seed))
    });
    section("experiments.corruption", &|h| {
        corruption::render(&corruption::run(h, corruption::DEFAULT_FLIPS, seed))
    });
    section("experiments.concurrency", &|h| {
        concurrency::render(&concurrency::run(h, concurrency::DEFAULT_SCHEDULES, seed))
    });
    section("experiments.intermittent", &|h| {
        intermittent::render(&intermittent::run(h, &intermittent::Tier::ALL, seed))
    });
    section("experiments.ablation_sweep", &|h| {
        ablation::render_sweep(&ablation::cache_size_sweep(h))
    });
    section("experiments.ablation_policies", &|h| {
        ablation::render_policies(&ablation::policy_comparison(h, 512))
    });
    section("experiments.ablation_pgo", &|h| {
        ablation::render_profile_guided(&ablation::profile_guided_blacklist(h, 512))
    });
    section("experiments.ablation_hw_cache", &|h| {
        ablation::render_hw_cache(&ablation::hw_cache_ablation(h))
    });
    let write = tracer.enter("json.write", None);
    h.write_json(&dir.join("traced.json"))
        .map_err(|e| format!("write: {e}"))?;
    tracer.exit(write);
    tracer.exit(root);

    let doc = h.json_report();
    let mut counters = Counters::default();
    let (_, cycle_sums_ok) = add_harness_counters(&h, &mut counters);
    outputs::add_report_counters(&doc, &mut counters);
    Ok(TracedSweep {
        tally: outputs::classify_report(&doc),
        counters,
        // Sections interleave builds, runs and episodes inside one span,
        // so no span isolates simulation time.
        executed_instructions: 0,
        cycle_sums_ok,
        faulted_cells: Vec::new(),
    })
}
