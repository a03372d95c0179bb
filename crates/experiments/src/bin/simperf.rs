//! Times the fault-free benchmark matrix under the interpreter and the
//! pre-decoded engine and reports per-cell and geometric-mean wall-clock
//! speedups.
//!
//! Not part of `bin/all`: wall-clock numbers are machine-dependent, and
//! the combined report's stdout must stay byte-identical across runs.
//!
//! Flags:
//! - `--fast`: one frequency (24 MHz) and a smaller per-cell time budget
//!   instead of the full two-frequency matrix.
//! - `--json <path>`: write the `simperf` rows to `path`.
//! - `--check <min>`: exit nonzero unless the geomean speedup is at
//!   least `<min>` (e.g. `--check 3.0` in CI).
//!
//! Exits nonzero if any cell's engines disagree on observable results.

use experiments::simperf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1).cloned());
    let check: Option<f64> = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--check takes a number"));

    let rows = simperf::run(fast);
    print!("{}", simperf::render(&rows));

    if let Some(path) = json_path {
        let doc = experiments::json::Json::obj(vec![("simperf", simperf::rows_json(&rows))]);
        if let Err(e) = std::fs::write(&path, doc.pretty(2)) {
            eprintln!("simperf: failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("simperf: JSON -> {path}");
    }

    let broken: Vec<_> = rows.iter().filter(|r| !r.identical).collect();
    if !broken.is_empty() {
        for r in broken {
            eprintln!("FAIL {} / {} @ {} MHz: engines disagree", r.bench.name(), r.system, r.freq_mhz);
        }
        std::process::exit(1);
    }
    let geo = simperf::geomean_speedup(&rows);
    if let Some(min) = check {
        if geo < min {
            eprintln!("FAIL geomean speedup {geo:.2}x below required {min:.2}x");
            std::process::exit(1);
        }
        eprintln!("simperf: geomean speedup {geo:.2}x >= {min:.2}x");
    }
}
