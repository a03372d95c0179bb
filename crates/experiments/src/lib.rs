//! # experiments — regenerating the paper's evaluation
//!
//! One module per table/figure of the SwapRAM paper's evaluation (§2, §5),
//! each with a `run(&Harness, ..)` that declares its measurement matrix
//! and a `render()` that prints the same rows/series the paper reports.
//! Binaries under `src/bin/` wrap the paper's tables and figures; `cargo
//! run -p experiments --release --bin all` regenerates everything (the
//! content of EXPERIMENTS.md, the four fault campaigns included) plus the
//! machine-readable `BENCH_experiments.json`.
//!
//! All modules share one [`harness::Harness`]: builds are memoized per
//! (benchmark, system, memory profile), simulations are memoized per
//! configuration × frequency, and independent matrix entries execute
//! concurrently on `SWAPRAM_JOBS` worker threads (default: all cores).
//! Results are identical regardless of the worker count.
//!
//! | Module    | Paper artefact                                     |
//! |-----------|----------------------------------------------------|
//! | [`fig1`]  | Figure 1 — memory-placement matrix                 |
//! | [`table1`]| Table 1 — sizes and code/data access ratios        |
//! | [`table2`]| Table 2 — FRAM accesses and unstalled cycles       |
//! | [`fig7`]  | Figure 7 — NVM usage and DNF                       |
//! | [`fig8`]  | Figure 8 — dynamic instruction breakdown           |
//! | [`fig9`]  | Figure 9 — speed/energy at 24 MHz (and 8 MHz)      |
//! | [`fig10`] | Figure 10 — split-SRAM execution                   |
//! | [`ablation`]| cache-size sweep, policies, hardware cache       |
//! | [`resilience`]| power-loss fault injection + crash recovery    |
//! | [`corruption`]| seeded bit-flip injection vs. the defense stack |
//! | [`concurrency`]| timer interrupts + preemptive tasks vs. reentrancy |
//! | [`intermittent`]| harvested-energy traces vs. forward progress      |
//! | [`episode`]| the one fault-episode executor the four campaigns share |
//! | [`campaign`]| in-process config sweep, key-ordered rows      |

pub mod ablation;
pub mod campaign;
pub mod concurrency;
pub mod corruption;
pub mod episode;
pub mod fig1;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod harness;
pub mod intermittent;
pub mod json;
pub mod measure;
pub mod report;
pub mod resilience;
pub mod simperf;
pub mod table1;
pub mod table2;

pub use harness::Harness;

use msp430_sim::freq::Frequency;

/// Runs every experiment through `h` and renders the full report.
pub fn run_all(h: &Harness) -> String {
    run_report(h, false)
}

/// Like [`run_all`], but `fast` skips the ablation studies and the 8 MHz
/// Figure-9 variant (the CI configuration).
pub fn run_report(h: &Harness, fast: bool) -> String {
    let mut out = String::new();
    out.push_str(&fig1::render(&fig1::run(h)));
    out.push('\n');
    out.push_str(&table1::render(&table1::run(h)));
    out.push('\n');
    out.push_str(&fig7::render(&fig7::run(h)));
    out.push('\n');
    out.push_str(&table2::render(&table2::run(h)));
    out.push('\n');
    out.push_str(&fig8::render(&fig8::run(h)));
    out.push('\n');
    out.push_str(&fig9::render(&fig9::run(h, Frequency::MHZ_24)));
    out.push('\n');
    if !fast {
        out.push_str(&fig9::render(&fig9::run(h, Frequency::MHZ_8)));
        out.push('\n');
    }
    out.push_str(&fig10::render(&fig10::run(h, Frequency::MHZ_24)));
    out.push('\n');
    let schedules =
        if fast { resilience::FAST_SCHEDULES } else { resilience::DEFAULT_SCHEDULES };
    out.push_str(&resilience::render(&resilience::run(h, schedules, resilience::base_seed())));
    out.push('\n');
    let flips = if fast { corruption::FAST_FLIPS } else { corruption::DEFAULT_FLIPS };
    out.push_str(&corruption::render(&corruption::run(h, flips, resilience::base_seed())));
    out.push('\n');
    let irq_schedules =
        if fast { concurrency::FAST_SCHEDULES } else { concurrency::DEFAULT_SCHEDULES };
    out.push_str(&concurrency::render(&concurrency::run(h, irq_schedules, resilience::base_seed())));
    out.push('\n');
    let tiers: &[intermittent::Tier] =
        if fast { &intermittent::Tier::FAST } else { &intermittent::Tier::ALL };
    out.push_str(&intermittent::render(&intermittent::run(h, tiers, resilience::base_seed())));
    out.push('\n');
    if !fast {
        out.push_str(&ablation::render_sweep(&ablation::cache_size_sweep(h)));
        out.push('\n');
        out.push_str(&ablation::render_policies(&ablation::policy_comparison(h, 512)));
        out.push('\n');
        out.push_str(&ablation::render_profile_guided(&ablation::profile_guided_blacklist(
            h, 512,
        )));
        out.push('\n');
        out.push_str(&ablation::render_hw_cache(&ablation::hw_cache_ablation(h)));
    }
    out
}
