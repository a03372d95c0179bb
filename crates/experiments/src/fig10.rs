//! Figure 10: split-SRAM execution (§5.5) for the paper's four split
//! benchmarks — CRC, AES, bitcount, RSA. The list is the paper's §5.5
//! choice, not a fit test: DIJ, FFT, RC4 and STR fit their data in SRAM
//! too (Table 1's RAM column), and only LZFX does not.
//!
//! The SRAM is split: the low bytes hold program data and stack (the
//! "standard" placement), the remainder becomes the software code cache.
//! Results are normalized both to the unified baseline (as the paper
//! plots) and to the standard FRAM-code/SRAM-data baseline (the
//! comparison the section's text makes: +22% speed, -26% energy).

use crate::harness::Harness;
use crate::measure::{geomean, MeasureError, Measurement};
use crate::report::Table;
use mibench::builder::{MemoryProfile, System};
use mibench::Benchmark;
use msp430_sim::freq::Frequency;

/// The paper's four split benchmarks (its §5.5 choice; not every
/// benchmark whose data fits in SRAM).
pub const SPLIT_BENCHMARKS: [Benchmark; 4] =
    [Benchmark::Crc, Benchmark::Aes, Benchmark::Bitcount, Benchmark::Rsa];

/// Bytes reserved for the stack inside the SRAM data partition.
pub const STACK_RESERVE: u16 = 192;

/// One benchmark's split-SRAM results.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// Operating point.
    pub freq: Frequency,
    /// Unified-memory baseline (the plot's normalisation).
    pub unified_baseline: Measurement,
    /// Standard configuration: code FRAM, data+stack SRAM.
    pub standard_baseline: Measurement,
    /// SwapRAM in the split configuration.
    pub swapram: Measurement,
    /// Block cache in the split configuration (may fail on tiny caches).
    pub block: Result<Measurement, MeasureError>,
    /// Bytes of SRAM reserved for data+stack.
    pub reserved: u16,
}

/// Runs the split experiment at `freq`, concurrently per benchmark. The
/// data-partition probe reuses the memoized baseline build.
///
/// # Panics
///
/// Panics if any required configuration fails.
pub fn run(h: &Harness, freq: Frequency) -> Vec<Fig10Row> {
    h.parallel_map(SPLIT_BENCHMARKS.to_vec(), |bench| {
        // Size the data partition from the actual data section.
        let probe = h.build(bench, &System::Baseline, &MemoryProfile::unified());
        let probe = probe
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("fig10 {} probe: {e}", bench.name()));
        let reserved = (probe.data_bytes + STACK_RESERVE + 1) & !1;
        let split_profile = MemoryProfile::split_sram(reserved);

        let unified_baseline = h
            .measure("fig10", bench, &System::Baseline, &MemoryProfile::unified(), freq)
            .unwrap_or_else(|e| panic!("fig10 {} unified: {e}", bench.name()));
        let standard_baseline = h
            .measure("fig10", bench, &System::Baseline, &split_profile, freq)
            .unwrap_or_else(|e| panic!("fig10 {} standard: {e}", bench.name()));
        let swapram = h
            .measure(
                "fig10",
                bench,
                &System::SwapRam(swapram::SwapConfig::split_fr2355(reserved)),
                &split_profile,
                freq,
            )
            .unwrap_or_else(|e| panic!("fig10 {} SwapRAM split: {e}", bench.name()));
        let block = h.measure(
            "fig10",
            bench,
            &System::BlockCache(blockcache::BlockConfig::split_fr2355(reserved)),
            &split_profile,
            freq,
        );
        Fig10Row { bench, freq, unified_baseline, standard_baseline, swapram, block, reserved }
    })
}

/// Geometric means of SwapRAM speedup and energy ratio versus the
/// *standard* configuration (the §5.5 headline numbers).
pub fn summary_vs_standard(rows: &[Fig10Row]) -> (f64, f64) {
    let s: Vec<f64> = rows.iter().map(|r| r.swapram.speedup_vs(&r.standard_baseline)).collect();
    let e: Vec<f64> =
        rows.iter().map(|r| r.swapram.energy_ratio_vs(&r.standard_baseline)).collect();
    (geomean(&s), geomean(&e))
}

/// Renders the figure.
pub fn render(rows: &[Fig10Row]) -> String {
    let freq = rows.first().map(|r| r.freq.mhz).unwrap_or(0);
    let mut t = Table::new(
        &format!("Figure 10 — split-SRAM execution at {freq} MHz (speed relative to unified baseline)"),
        &[
            "benchmark",
            "data+stack (B)",
            "standard",
            "SR split",
            "BB split",
            "SR vs standard",
            "SR energy vs standard",
        ],
    );
    for r in rows {
        let speed = |m: &Measurement| r.unified_baseline.time_us / m.time_us;
        let bb = match &r.block {
            Ok(b) => format!("{:.2}", speed(b)),
            Err(MeasureError::DoesNotFit(_) | MeasureError::CycleLimit(_)) => "DNF".into(),
            Err(e) => format!("{e}"),
        };
        t.row(vec![
            r.bench.short_name().into(),
            r.reserved.to_string(),
            format!("{:.2}", speed(&r.standard_baseline)),
            format!("{:.2}", speed(&r.swapram)),
            bb,
            format!("{:.2}", r.swapram.speedup_vs(&r.standard_baseline)),
            format!("{:.2}", r.swapram.energy_ratio_vs(&r.standard_baseline)),
        ]);
    }
    let (s, e) = summary_vs_standard(rows);
    t.note(format!(
        "SwapRAM vs standard config (geomean): speed {s:.2}x, energy {e:.2}x — paper: +22% speed, -26% energy at 24 MHz"
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_swapram_beats_the_standard_configuration() {
        let rows = run(&Harness::new(), Frequency::MHZ_24);
        let (s, e) = summary_vs_standard(&rows);
        assert!(s > 1.0, "split SwapRAM should beat code-FRAM/data-SRAM (got {s})");
        assert!(e < 1.0, "split SwapRAM should save energy (got {e})");
    }

    #[test]
    fn standard_beats_unified() {
        for r in run(&Harness::new(), Frequency::MHZ_24) {
            assert!(
                r.standard_baseline.time_us < r.unified_baseline.time_us,
                "{}: data-in-SRAM must beat unified FRAM",
                r.bench.name()
            );
        }
    }
}
