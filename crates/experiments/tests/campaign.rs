//! Acceptance tests for the campaign engine (workspace test tier): the
//! `BENCH_campaign.json` document must be byte-identical across
//! {1, 4, 16} worker threads, and the library sweep must produce exactly
//! the bytes the binary writes.

use experiments::campaign::{self, CampaignSpec};
use experiments::json::{self, Json};
use experiments::measure::{measure, MeasureError};
use experiments::{resilience, Harness};
use mibench::System;
use msp430_sim::freq::Frequency;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_campaign");

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir()
            .join(format!("swapram-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the campaign binary on the tiny spec with an explicit thread count
/// plus any extra flags, writing `<run>.json` in the scratch directory.
fn campaign(scratch: &Scratch, run: &str, jobs: usize, extra: &[&str]) -> Output {
    let json = scratch.path(&format!("{run}.json"));
    Command::new(BIN)
        .args(["--spec", "tiny", "--json", json.to_str().unwrap()])
        .args(extra)
        .env("SWAPRAM_JOBS", jobs.to_string())
        .env_remove(resilience::FAULT_SEED_ENV)
        .output()
        .expect("campaign binary runs")
}

fn read(scratch: &Scratch, run: &str) -> String {
    let path = scratch.path(&format!("{run}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_usage_error(out: &Output, what: &str, needle: &str) {
    let err = stderr_of(out);
    assert_eq!(out.status.code(), Some(2), "{what} is a usage error:\n{err}");
    assert!(err.contains(needle), "{what}: expected {needle:?} in:\n{err}");
    assert!(err.contains("usage: campaign"), "{what} prints the usage text:\n{err}");
}

#[test]
fn output_is_byte_identical_across_thread_counts() {
    let scratch = Scratch::new("det");
    let reference = campaign(&scratch, "j1", 1, &[]);
    assert!(reference.status.success(), "reference run failed:\n{}", stderr_of(&reference));
    let ref_bytes = read(&scratch, "j1");
    assert!(ref_bytes.contains("\"cells\""), "document has a cells array");

    for jobs in [4, 16] {
        let run = format!("j{jobs}");
        let out = campaign(&scratch, &run, jobs, &[]);
        assert!(out.status.success(), "{jobs}-thread run failed:\n{}", stderr_of(&out));
        assert_eq!(read(&scratch, &run), ref_bytes, "{jobs} threads must give the reference bytes");
        // stdout (the rendered report) must match too.
        assert_eq!(out.stdout, reference.stdout, "rendered report differs for {run}");
    }
}

#[test]
fn library_sweep_matches_the_binary() {
    let scratch = Scratch::new("lib");
    let out = campaign(&scratch, "bin", 2, &[]);
    assert!(out.status.success(), "campaign run failed:\n{}", stderr_of(&out));

    let spec = CampaignSpec::tiny(resilience::DEFAULT_FAULT_SEED);
    let doc = campaign::run(&Harness::with_jobs(1), &spec);
    let lib_path = scratch.path("lib.json");
    campaign::write_doc(&lib_path, &doc).expect("write library document");
    assert_eq!(read(&scratch, "lib"), read(&scratch, "bin"), "library and binary bytes differ");
    assert_eq!(
        doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
        Some(spec.cells().len()),
        "one row per cell"
    );
    assert_eq!(campaign::render(&doc).as_bytes(), out.stdout, "rendered report differs");
}

#[test]
fn malformed_jobs_and_spec_are_clean_errors() {
    let scratch = Scratch::new("err");
    let out = campaign(&scratch, "z", 0, &[]);
    assert_eq!(out.status.code(), Some(2), "SWAPRAM_JOBS=0 is a usage error");
    assert!(stderr_of(&out).contains("SWAPRAM_JOBS must be at least 1"), "{}", stderr_of(&out));

    let out = Command::new(BIN)
        .args(["--spec", "bogus"])
        .output()
        .expect("campaign binary runs");
    assert_eq!(out.status.code(), Some(2), "unknown spec is a usage error");
    assert!(stderr_of(&out).contains("unknown spec"), "{}", stderr_of(&out));

    // A flag left over from an old script must not be silently ignored.
    let out = campaign(&scratch, "dir", 1, &["--dir", "campaign-tiny"]);
    assert_usage_error(&out, "unknown flag", "unknown flag \"--dir\"");
    assert!(!scratch.path("dir.json").exists(), "a usage error runs nothing");

    // A value flag at the end of the line, or followed by another flag.
    let out = Command::new(BIN).args(["--spec", "tiny", "--json"]).output().expect("runs");
    assert_usage_error(&out, "--json without a value", "--json needs a value");
    let out = Command::new(BIN).args(["--spec", "--summary"]).output().expect("runs");
    assert_usage_error(&out, "--spec followed by a flag", "--spec needs a value");
}

#[test]
fn summary_regenerates_markdown_from_campaign_json() {
    let scratch = Scratch::new("md");
    let run = campaign(&scratch, "ref", 4, &[]);
    assert!(run.status.success(), "campaign run failed:\n{}", stderr_of(&run));
    let md_path = scratch.path("BENCHMARKS.md");
    let json = scratch.path("ref.json");
    let out = Command::new(BIN)
        .args(["--summary", "--json", json.to_str().unwrap()])
        .args(["--out", md_path.to_str().unwrap()])
        .current_dir(&scratch.0)
        .output()
        .expect("campaign binary runs");
    assert!(out.status.success(), "--summary failed:\n{}", stderr_of(&out));
    let md = std::fs::read_to_string(&md_path).expect("markdown written");
    assert!(md.starts_with("# Campaign benchmarks"), "{md}");
    assert!(md.contains("| ---: |"), "markdown tables present:\n{md}");
    assert!(md.contains("pareto"), "pareto tables present:\n{md}");
    // The summary report on stdout matches the one the campaign printed.
    assert_eq!(out.stdout, run.stdout, "summary re-renders the identical report");
}

#[test]
fn exec_sidecar_carries_the_nondeterministic_stats() {
    let scratch = Scratch::new("exec");
    let run = campaign(&scratch, "ref", 3, &[]);
    assert!(run.status.success(), "campaign run failed:\n{}", stderr_of(&run));
    let sidecar = scratch.path("ref.exec.json");
    let text = std::fs::read_to_string(&sidecar).expect("exec sidecar written");
    let doc = json::parse(&text).expect("sidecar parses");
    assert_eq!(
        doc.get("jobs").and_then(Json::as_u64),
        Some(3),
        "sidecar surfaces the resolved SWAPRAM_JOBS count"
    );
    assert_eq!(doc.get("cells").and_then(Json::as_u64), Some(24), "tiny has 24 cells");
    assert!(doc.get("wall_ms").is_some(), "wall-clock lives in the sidecar");
    // ... and must NOT leak into the deterministic document.
    let main = read(&scratch, "ref");
    assert!(!main.contains("wall_ms"), "campaign JSON stays wall-clock free");
    assert!(!main.contains("\"jobs\""), "campaign JSON stays jobs free");
    // The banner surfaces the resolved thread count.
    assert!(
        stderr_of(&run).contains("3 worker thread(s) (SWAPRAM_JOBS)"),
        "{}",
        stderr_of(&run)
    );
}

/// Every (benchmark, split) point of the full spec either does not fit or
/// runs its baseline to the oracle checksum: a layout whose stack runs
/// into its data must be a DNF, never a wrong row.
#[test]
fn full_spec_baselines_fit_or_run_correctly() {
    let mut points: Vec<_> = CampaignSpec::full(resilience::DEFAULT_FAULT_SEED)
        .cells()
        .into_iter()
        .map(|cell| (cell.bench, cell.split, cell.profile()))
        .collect();
    points.dedup_by_key(|(bench, split, _)| (*bench, *split));
    assert_eq!(points.len(), 18, "nine benchmarks at two splits");
    for (bench, split, profile) in points {
        let what = format!("{} split={split:#x}", bench.name());
        match measure(bench, &System::Baseline, &profile, Frequency::MHZ_24) {
            Ok(m) => assert!(m.correct, "{what}: wrong checksum"),
            Err(MeasureError::DoesNotFit(_)) => {}
            Err(e) => panic!("{what}: {e}"),
        }
    }
}
