//! Configuration-sweep campaign driver.
//!
//! Runs every cell of a sweep preset on `SWAPRAM_JOBS` worker threads,
//! writes the deterministic `BENCH_campaign.json`, and prints the
//! percentile/pareto report.
//!
//! ```text
//! campaign [--spec tiny|fast|full] [--json PATH] [--base-seed N]
//! campaign --summary [--json PATH] [--out BENCHMARKS.md]
//! ```
//!
//! Flags / environment:
//! - `--spec`: sweep preset (default `fast`; `full` is the ≥1000-cell
//!   tier).
//! - `--json`: output path (default `BENCH_campaign.json`). A
//!   `<path>.exec.json` sidecar carries the *non-deterministic* execution
//!   stats (wall-clock, thread count, cache counters) so the main
//!   document stays byte-identical across thread counts.
//! - `--base-seed`: fault-schedule base seed (default `SWAPRAM_FAULT_SEED`
//!   or 0xF00D).
//! - `--summary`: skip execution; re-render `BENCHMARKS.md` and the
//!   stdout report from an existing campaign JSON.
//! - `SWAPRAM_JOBS`: worker threads (default: all cores; rejected with a
//!   clear error when 0 or malformed).
//!
//! Exit codes: 0 complete, 1 I/O failure or any failed cell (`failed`,
//! or `ok` with wrong output; see [`campaign::is_failure`]), 2
//! usage/environment error (including unknown flags and flags missing
//! their value). `--summary` only re-renders, and exits 0 whatever the
//! cells say.

use experiments::campaign::{self, CampaignSpec};
use experiments::{harness, json, resilience};
use std::path::Path;
use std::time::Instant;

fn usage(msg: &str) -> ! {
    eprintln!("campaign: {msg}");
    eprintln!("usage: campaign [--spec tiny|fast|full] [--json PATH] [--base-seed N]");
    eprintln!("       campaign --summary [--json PATH] [--out PATH]");
    std::process::exit(2);
}

/// The parsed command line.
struct Args {
    spec: String,
    json: String,
    base_seed: Option<String>,
    summary: bool,
    out: String,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Args {
    let mut args = Args {
        spec: "fast".into(),
        json: "BENCH_campaign.json".into(),
        base_seed: None,
        summary: false,
        out: "BENCHMARKS.md".into(),
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--summary" {
            args.summary = true;
            continue;
        }
        let slot = match flag.as_str() {
            "--spec" => &mut args.spec,
            "--json" => &mut args.json,
            "--out" => &mut args.out,
            "--base-seed" => args.base_seed.insert(String::new()),
            _ => usage(&format!("unknown flag {flag:?}")),
        };
        *slot = value(&flag, it.next());
    }
    args
}

/// The value following `flag`; a missing one (or another flag in its
/// place) is a usage error.
fn value(flag: &str, next: Option<String>) -> String {
    match next {
        Some(v) if !v.starts_with("--") => v,
        _ => usage(&format!("{flag} needs a value")),
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let base_seed = match &args.base_seed {
        None => resilience::base_seed(),
        Some(v) => {
            v.trim().parse().unwrap_or_else(|_| usage(&format!("bad --base-seed value {v:?}")))
        }
    };
    let Some(spec) = CampaignSpec::preset(&args.spec, base_seed) else {
        usage(&format!("unknown spec {:?} (expected tiny, fast or full)", args.spec));
    };
    let json_path = Path::new(&args.json);
    if args.summary {
        summarize(json_path, &args.out);
        return;
    }

    let t0 = Instant::now();
    let h = harness::announce("campaign", &format!("spec {}", spec.name));
    let doc = campaign::run(&h, &spec);
    if let Err(e) = campaign::write_doc(json_path, &doc) {
        eprintln!("campaign: failed to write {}: {e}", json_path.display());
        std::process::exit(1);
    }
    print!("{}", campaign::render(&doc));
    harness::finish("campaign", &h);
    let cells = doc.get("cells").and_then(json::Json::as_arr).unwrap_or_default();
    write_exec_sidecar(json_path, &h, cells.len(), t0);
    eprintln!("campaign: {} cells; JSON -> {}", cells.len(), json_path.display());
    let failed = cells.iter().filter(|c| campaign::is_failure(c)).count();
    if failed > 0 {
        eprintln!("campaign: {failed} cell(s) failed or gave wrong output");
        std::process::exit(1);
    }
}

/// Writes the non-deterministic execution stats next to the campaign
/// JSON. Wall-clock, thread count and cache counters deliberately live
/// here (and in the stderr banners) — never in `BENCH_campaign.json`,
/// which must be byte-identical across thread counts.
fn write_exec_sidecar(json_path: &Path, h: &experiments::Harness, cells: usize, t0: Instant) {
    use json::Json;
    let sidecar = json_path.with_extension("exec.json");
    let doc = Json::obj(vec![
        ("jobs", Json::U64(h.jobs() as u64)),
        ("cells", Json::U64(cells as u64)),
        (
            "cache",
            Json::obj(vec![
                ("builds_unique", Json::U64(h.unique_builds() as u64)),
                ("build_hits", Json::U64(h.build_hits())),
                ("runs_unique", Json::U64(h.run_misses())),
                ("run_hits", Json::U64(h.run_hits())),
            ]),
        ),
        ("wall_ms", Json::F64(t0.elapsed().as_secs_f64() * 1e3)),
    ]);
    if let Err(e) = campaign::write_doc(&sidecar, &doc) {
        eprintln!("campaign: failed to write {}: {e}", sidecar.display());
    }
}

/// `--summary`: regenerate `BENCHMARKS.md` and the stdout report from an
/// existing campaign JSON.
fn summarize(json_path: &Path, out_path: &str) {
    let text = match std::fs::read_to_string(json_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign: cannot read {}: {e} (run a campaign first)", json_path.display());
            std::process::exit(1);
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("campaign: {} is not valid JSON: {e}", json_path.display());
            std::process::exit(1);
        }
    };
    let md = campaign::render_markdown(&doc);
    if let Err(e) = std::fs::write(out_path, md) {
        eprintln!("campaign: failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{}", campaign::render(&doc));
    eprintln!("campaign: markdown -> {out_path}");
}
