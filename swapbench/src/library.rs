//! Library workloads: build a fixed image set once, then simulate every
//! cell of the matrix for a number of passes, calling the simulator crates
//! directly.

use crate::trace::Tracer;
use crate::workload::{self, Workload};
use experiments::campaign::fnv1a64;
use experiments::measure::geomean;
use mibench::builder::parse_benchmark_with;
use mibench::{input_for, Benchmark, Built, MemoryProfile, RunResult, System};
use msp430_sim::machine::Fr2355;
use msp430_sim::{EnergyModel, Frequency};
use std::time::Instant;

/// Cycle budget per run (the experiment harness's).
pub const MAX_CYCLES: u64 = experiments::measure::MAX_CYCLES;

/// Shortest time one `setup_s` sample spans. A single cold build of an
/// image set takes 10–40 ms, and bursts of contention from other tenants
/// of a shared host last longer than that, so a sample rebuilds the whole
/// set until this much time has passed and keeps the fastest build.
pub const MIN_SETUP_S: f64 = 0.2;

/// Calls `f` until at least `min_s` seconds have passed (at least once);
/// returns the seconds of the fastest call and the last call's result.
/// Each result is dropped before the next call, so at most one is alive
/// and repeating does not raise the peak RSS.
///
/// # Errors
///
/// The first error `f` returns.
pub fn fastest_of<T>(
    min_s: f64,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let started = Instant::now();
    let mut call = Instant::now();
    let mut out = f()?;
    let mut fastest = call.elapsed().as_secs_f64();
    while started.elapsed().as_secs_f64() < min_s {
        drop(out);
        call = Instant::now();
        out = f()?;
        fastest = fastest.min(call.elapsed().as_secs_f64());
    }
    Ok((fastest, out))
}

/// One simulated cell: an image run at a frequency.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into the workload's images.
    pub image: usize,
    /// Operating point.
    pub freq: Frequency,
}

/// A library workload's image set, cell matrix and pass count.
#[derive(Debug, Clone)]
pub struct LibraryWorkload {
    /// What gets built: benchmark, system, profile.
    pub images: Vec<(Benchmark, System, MemoryProfile)>,
    /// What gets simulated each pass.
    pub cells: Vec<Cell>,
    /// Passes over the cells in one timed rep.
    pub passes: usize,
}

impl LibraryWorkload {
    /// The library workload `w`, or `None` for a sweep workload.
    pub fn of(w: Workload) -> Option<LibraryWorkload> {
        match w {
            // 27 images x {8, 24} MHz = 54 cells; 5 passes take ~0.65 s.
            Workload::SimSteady => {
                let images = workload::main_images();
                let cells = (0..images.len())
                    .flat_map(|image| {
                        [Frequency::MHZ_8, Frequency::MHZ_24].map(|freq| Cell { image, freq })
                    })
                    .collect();
                Some(LibraryWorkload {
                    images,
                    cells,
                    passes: 5,
                })
            }
            // 45 images at 24 MHz; 5 passes take ~0.7 s.
            Workload::SwapThrash => {
                let images = workload::thrash_images();
                let cells = (0..images.len())
                    .map(|image| Cell {
                        image,
                        freq: Frequency::MHZ_24,
                    })
                    .collect();
                Some(LibraryWorkload {
                    images,
                    cells,
                    passes: 5,
                })
            }
            Workload::CampaignFast | Workload::PaperReport => None,
        }
    }

    /// Builds every image, each inside a `build` span preceded by a
    /// `build.parse` span that parses the same source on its own (the
    /// parse share of a build).
    ///
    /// # Errors
    ///
    /// A description of the first image that fails to build.
    pub fn build(&self, tracer: &mut Tracer) -> Result<Vec<Built>, String> {
        self.images
            .iter()
            .enumerate()
            .map(|(i, (bench, system, profile))| {
                if tracer.enabled() {
                    tracer.span("build.parse", Some(i), || {
                        parse_for(*bench, system, profile)
                    });
                }
                tracer
                    .span("build", Some(i), || mibench::build(*bench, system, profile))
                    .map_err(|e| format!("{} / {}: {e}", bench.name(), system.label()))
            })
            .collect()
    }

    /// One rep: build, then `passes` passes over every cell. Results of
    /// every pass are kept and checked only after the clock stops. An
    /// untraced rep rebuilds the image set for [`MIN_SETUP_S`] to time its
    /// set-up; a traced rep builds it once, so its spans cover one set.
    ///
    /// # Errors
    ///
    /// A build failure or a simulator error.
    pub fn rep(&self, seed: u64, passes: usize, tracer: &mut Tracer) -> Result<Rep, String> {
        let inputs: Vec<Vec<u8>> = self
            .images
            .iter()
            .map(|(b, _, _)| input_for(*b, seed))
            .collect();
        let root = tracer.enter("rep", None);
        let min_setup_s = if tracer.enabled() { 0.0 } else { MIN_SETUP_S };
        let (setup_s, built) = fastest_of(min_setup_s, || self.build(tracer))?;
        let mut results = Vec::with_capacity(passes * self.cells.len());
        let passes_started = Instant::now();
        for _ in 0..passes {
            for (i, cell) in self.cells.iter().enumerate() {
                results.push(run_cell(
                    &built[cell.image],
                    cell.freq,
                    &inputs[cell.image],
                    tracer,
                    i,
                )?);
            }
        }
        let pass_s = passes_started.elapsed().as_secs_f64();
        tracer.exit(root);

        let n = self.cells.len();
        let first = &results[..n];
        let repeatable = results.chunks(n).all(|pass| pass == first);
        let mut failed = 0;
        for (cell, r) in self.cells.iter().zip(first) {
            let (bench, _, _) = &self.images[cell.image];
            let oracle = bench.oracle_checksum(&inputs[cell.image]);
            if !r.outcome.success() || r.outcome.checksum.0 != oracle {
                failed += 1;
            }
        }
        Ok(Rep {
            pass_s,
            setup_s,
            attempted: results.len() as u64,
            failed: failed * passes as u64,
            repeatable,
            cycle_sums_ok: first.iter().all(|r| cycle_sum_ok(&r.outcome.stats)),
            digest: digest(first),
            device: self.device(first),
            executed_instructions: first
                .iter()
                .map(|r| r.outcome.stats.total_instructions())
                .sum::<u64>()
                * passes as u64,
            results: results.into_iter().take(n).collect(),
        })
    }

    /// Paper metrics over one pass: every SwapRAM cell against the
    /// baseline cell of the same benchmark and frequency.
    pub fn device(&self, results: &[RunResult]) -> Device {
        let energy = EnergyModel::fr2355();
        let mut speedups = Vec::new();
        let mut energy_ratios = Vec::new();
        let mut fram_accesses = 0;
        for (cell, r) in self.cells.iter().zip(results) {
            let (bench, system, _) = &self.images[cell.image];
            if !matches!(system, System::SwapRam(_)) {
                continue;
            }
            let Some((_, base)) = self.cells.iter().zip(results).find(|(c, _)| {
                let (b, s, _) = &self.images[c.image];
                b == bench && *s == System::Baseline && c.freq == cell.freq
            }) else {
                continue;
            };
            let (s, b) = (&r.outcome.stats, &base.outcome.stats);
            speedups.push(b.total_cycles() as f64 / s.total_cycles() as f64);
            energy_ratios.push(energy.energy_uj(s, cell.freq) / energy.energy_uj(b, cell.freq));
            fram_accesses += s.fram_accesses();
        }
        Device {
            swap_speedup_geo: geomean(&speedups),
            swap_energy_ratio_geo: geomean(&energy_ratios),
            swap_fram_accesses: fram_accesses,
        }
    }
}

/// Everything one library rep produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seconds spent in the simulation passes (the rep's `wall_s`).
    pub pass_s: f64,
    /// Seconds of the fastest cold build of the image set (the rep's
    /// `setup_s`).
    pub setup_s: f64,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that did not halt cleanly with the oracle checksum.
    pub failed: u64,
    /// Every pass produced results identical to the first.
    pub repeatable: bool,
    /// Every cell's cycle buckets sum to its total.
    pub cycle_sums_ok: bool,
    /// FNV-1a over every cell's stats, runtime counters and checksum.
    pub digest: u64,
    /// Paper metrics of the rep.
    pub device: Device,
    /// Simulated instructions over all passes.
    pub executed_instructions: u64,
    /// First-pass results, one per cell.
    pub results: Vec<RunResult>,
}

/// The paper's device-side metrics over a set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Device {
    /// Geomean of baseline cycles / SwapRAM cycles (Figure 9).
    pub swap_speedup_geo: f64,
    /// Geomean of SwapRAM energy / baseline energy (Figure 9).
    pub swap_energy_ratio_geo: f64,
    /// FRAM accesses summed over SwapRAM cells (Table 2).
    pub swap_fram_accesses: u64,
}

/// Parses the source `mibench::build` would parse for this image.
pub(crate) fn parse_for(bench: Benchmark, system: &System, profile: &MemoryProfile) -> bool {
    let irq_harness =
        matches!(system, System::SwapRam(cfg) if cfg.irq_harness) && !bench.is_multitask();
    std::hint::black_box(parse_benchmark_with(bench, profile, irq_harness)).is_ok()
}

/// `mibench::run` with a span around each of its three steps: machine
/// construction, image/input/runtime preparation, and simulation.
///
/// # Errors
///
/// A simulator error, described.
fn run_cell(
    built: &Built,
    freq: Frequency,
    input: &[u8],
    tracer: &mut Tracer,
    cell: usize,
) -> Result<RunResult, String> {
    let mut machine = tracer.span("sim.machine", Some(cell), || Fr2355::machine(freq));
    let (swap, block) = tracer
        .span("sim.prepare", Some(cell), || {
            mibench::prepare(&mut machine, built, input)
        })
        .map_err(|e| format!("{}: prepare: {e}", built.bench.name()))?;
    let outcome = tracer
        .span("sim.run", Some(cell), || machine.run(MAX_CYCLES))
        .map_err(|e| format!("{}: run: {e}", built.bench.name()))?;
    Ok(RunResult {
        outcome,
        swap: swap.map(|h| h.borrow().clone()),
        block: block.map(|h| h.borrow().clone()),
    })
}

/// Whether unstalled, wait and contention cycles sum to the total.
pub(crate) fn cycle_sum_ok(s: &msp430_sim::Stats) -> bool {
    s.unstalled_cycles
        .checked_add(s.wait_cycles)
        .and_then(|x| x.checked_add(s.contention_cycles))
        == Some(s.total_cycles())
}

/// FNV-1a digest of every result's deterministic content.
fn digest(results: &[RunResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        text.push_str(&format!(
            "{:?}|{:?}|{:?}|{:?}\n",
            r.outcome.stats, r.swap, r.block, r.outcome.checksum
        ));
    }
    fnv1a64(text.as_bytes())
}
