//! Regenerates every table and figure of the paper's evaluation, plus the
//! machine-readable `BENCH_experiments.json`, through one shared harness.
//!
//! Flags / environment:
//! - `--fast`: skip the ablation studies and the 8 MHz Figure 9 variant
//!   (the CI configuration).
//! - `SWAPRAM_JOBS=<n>`: worker-thread count (default: available cores).
//! - `--json <path>`: where to write the JSON report (default
//!   `BENCH_experiments.json` in the current directory).
use std::time::Instant;

use experiments::harness;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_experiments.json".to_string());

    let h = harness::announce("experiments", if fast { "fast mode" } else { "" });
    let started = Instant::now();
    let report = experiments::run_report(&h, fast);
    let wall = started.elapsed();
    println!("{report}");

    // Every unique (benchmark, system, profile) key must have been built
    // exactly once: re-requests land as cache hits on the memoized cell.
    assert_eq!(
        h.build_misses(),
        h.unique_builds() as u64,
        "each unique configuration must be built exactly once"
    );

    if let Err(e) = h.write_json(std::path::Path::new(&json_path)) {
        eprintln!("experiments: failed to write {json_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "experiments: wall-clock {:.1}s on {} thread(s); builds {} unique ({} cache hits); runs {} unique ({} cache hits); JSON -> {json_path}",
        wall.as_secs_f64(),
        h.jobs(),
        h.unique_builds(),
        h.build_hits(),
        h.run_misses(),
        h.run_hits(),
    );
}
