//! Runs the bit-flip corruption campaign: every MiBench benchmark under
//! seeded single-bit flips targeting the SwapRAM metadata tables, the
//! SRAM cache window and the application data section, classifying each
//! episode as masked / detected-repaired / detected-degraded /
//! silent-wrong.
//!
//! Flags / environment:
//! - `--fast` or `SWAPRAM_FAST=1`: 2 flips per (benchmark, region)
//!   instead of 5 (the CI configuration).
//! - `--json <path>`: also write the JSON report (clean runs + the
//!   `corruption` section) to `path`.
//! - `SWAPRAM_FAULT_SEED=<n>`: base seed (default 0xF00D). Identical
//!   seeds yield byte-identical rows regardless of `SWAPRAM_JOBS`.
//!
//! Exits nonzero if any metadata-region flip produced silent wrong
//! output — the property this campaign exists to enforce.

use experiments::corruption::{self, FlipRegion};
use experiments::{harness, resilience};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast")
        || std::env::var("SWAPRAM_FAST").is_ok_and(|v| v != "0" && !v.is_empty());
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1).cloned());

    let flips = if fast { corruption::FAST_FLIPS } else { corruption::DEFAULT_FLIPS };
    let seed = resilience::base_seed();
    let h = harness::announce(
        "corruption",
        &format!("{flips} flips/(benchmark, region), base seed {seed:#x}"),
    );

    let rows = corruption::run(&h, flips, seed);
    print!("{}", corruption::render(&rows));
    harness::finish("corruption", &h);

    if let Some(path) = json_path {
        if let Err(e) = h.write_json(std::path::Path::new(&path)) {
            eprintln!("corruption: failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("corruption: JSON -> {path}");
    }

    let silent = corruption::silent_rows(&rows, FlipRegion::Metadata);
    if !silent.is_empty() {
        for r in silent {
            eprintln!(
                "FAIL {} seed {:#x}: silent wrong output from metadata flip at {:#06x} bit {} cycle {}",
                r.bench.name(),
                r.seed,
                r.addr,
                r.bit,
                r.cycle
            );
        }
        std::process::exit(1);
    }
}
