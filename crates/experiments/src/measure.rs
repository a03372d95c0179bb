//! Shared measurement plumbing: build + run a benchmark under a system
//! and operating point, and collect every metric the paper reports.

use mibench::builder::{build, BuildError, Built, MemoryProfile, System};
use mibench::{input_for, Benchmark};
use msp430_sim::energy::EnergyModel;
use msp430_sim::freq::Frequency;
use msp430_sim::trace::{Category, Stats};

/// Everything one benchmark execution yields.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Which benchmark.
    pub bench: Benchmark,
    /// System label ("baseline" / "SwapRAM" / "block-based").
    pub system: &'static str,
    /// Operating point.
    pub freq: Frequency,
    /// Full simulator statistics.
    pub stats: Stats,
    /// Wall-clock execution time in microseconds.
    pub time_us: f64,
    /// Total energy in microjoules (default energy model).
    pub energy_uj: f64,
    /// Whether the output checksum matched the oracle.
    pub correct: bool,
    /// Static sizes of the build.
    pub built: BuildSizes,
    /// SwapRAM runtime counters, when applicable.
    pub swap: Option<swapram::SwapStats>,
    /// Block-cache runtime counters, when applicable.
    pub block: Option<blockcache::BlockStats>,
}

/// Static size information from a build.
#[derive(Debug, Clone, Copy)]
pub struct BuildSizes {
    /// Code bytes (transformed application).
    pub text_bytes: u16,
    /// Data bytes.
    pub data_bytes: u16,
    /// Cache metadata bytes in NVM.
    pub metadata_bytes: u16,
    /// Runtime code bytes in NVM.
    pub handler_bytes: u16,
}

impl Measurement {
    /// Total FRAM accesses (Table 2, top).
    pub fn fram_accesses(&self) -> u64 {
        self.stats.fram_accesses()
    }

    /// Unstalled CPU cycles (Table 2, bottom).
    pub fn unstalled_cycles(&self) -> u64 {
        self.stats.unstalled_cycles
    }

    /// Total cycles including stalls (execution-speed basis, Figure 9).
    pub fn total_cycles(&self) -> u64 {
        self.stats.total_cycles()
    }

    /// Execution speed relative to `base` (>1 means faster).
    pub fn speedup_vs(&self, base: &Measurement) -> f64 {
        base.time_us / self.time_us
    }

    /// Energy relative to `base` (<1 means less energy).
    pub fn energy_ratio_vs(&self, base: &Measurement) -> f64 {
        self.energy_uj / base.energy_uj
    }

    /// Fraction of dynamic instructions in each Figure-8 category.
    pub fn instruction_shares(&self) -> [f64; 4] {
        let total = self.stats.total_instructions().max(1) as f64;
        let mut out = [0.0; 4];
        for c in Category::ALL {
            out[c.index()] = self.stats.instructions_in(c) as f64 / total;
        }
        out
    }
}

/// Why a measurement is missing.
#[derive(Debug, Clone)]
pub enum MeasureError {
    /// The program does not fit the device (Figure 7's DNF).
    DoesNotFit(String),
    /// The run exhausted its cycle budget — a DNF in time rather than
    /// space. Carries the cycle count at which the run was cut off.
    CycleLimit(u64),
    /// Anything else.
    Failed(String),
}

impl MeasureError {
    /// The deterministic report status tag: DNF-in-space and DNF-in-time
    /// both read `"dnf"`, everything else `"failed"`.
    pub fn status(&self) -> &'static str {
        match self {
            MeasureError::DoesNotFit(_) | MeasureError::CycleLimit(_) => "dnf",
            MeasureError::Failed(_) => "failed",
        }
    }

    /// The JSON `result` object for a missing measurement — shared by the
    /// harness run records and the campaign cell rows so every report
    /// encodes failure the same way.
    pub fn json(&self) -> crate::json::Json {
        use crate::json::Json;
        let mut fields = vec![("status", Json::str(self.status()))];
        match self {
            MeasureError::DoesNotFit(msg) => fields.push(("message", Json::str(msg.clone()))),
            MeasureError::CycleLimit(c) => {
                fields
                    .push(("message", Json::str(format!("cycle budget exhausted after {c} cycles"))));
                fields.push(("cycles_run", Json::U64(*c)));
            }
            MeasureError::Failed(msg) => fields.push(("message", Json::str(msg.clone()))),
        }
        Json::obj(fields)
    }
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::DoesNotFit(m) => write!(f, "DNF: {m}"),
            MeasureError::CycleLimit(c) => {
                write!(f, "DNF: cycle budget exhausted after {c} cycles")
            }
            MeasureError::Failed(m) => write!(f, "failed: {m}"),
        }
    }
}

impl From<&BuildError> for MeasureError {
    fn from(e: &BuildError) -> MeasureError {
        match e {
            BuildError::DoesNotFit(m) => MeasureError::DoesNotFit(m.clone()),
            BuildError::Asm(m) => MeasureError::Failed(m.to_string()),
        }
    }
}

/// Default input seed for all experiments (deterministic).
pub const SEED: u64 = 1;

/// Cycle budget per run.
pub const MAX_CYCLES: u64 = 4_000_000_000;

/// Builds and runs one benchmark configuration.
///
/// # Errors
///
/// [`MeasureError::DoesNotFit`] reproduces the paper's DNF entries;
/// anything else is a hard failure.
pub fn measure(
    bench: Benchmark,
    system: &System,
    profile: &MemoryProfile,
    freq: Frequency,
) -> Result<Measurement, MeasureError> {
    let built = build(bench, system, profile).map_err(|e| MeasureError::from(&e))?;
    measure_built(&built, system.label(), freq)
}

/// Runs an already-built benchmark.
///
/// # Errors
///
/// [`MeasureError::Failed`] on simulation errors or cycle-limit overruns.
pub fn measure_built(
    built: &Built,
    system: &'static str,
    freq: Frequency,
) -> Result<Measurement, MeasureError> {
    let mut machine = msp430_sim::machine::Fr2355::machine(freq);
    measure_built_on(&mut machine, built, system, freq)
}

/// Runs an already-built benchmark on a caller-provided (fresh) machine —
/// the hook ablation studies use to e.g. disable the hardware cache.
///
/// # Errors
///
/// [`MeasureError::Failed`] on simulation errors or cycle-limit overruns.
pub fn measure_built_on(
    machine: &mut msp430_sim::machine::Machine,
    built: &Built,
    system: &'static str,
    freq: Frequency,
) -> Result<Measurement, MeasureError> {
    let input = input_for(built.bench, SEED);
    let result = mibench::builder::run_on(machine, built, &input, MAX_CYCLES)
        .map_err(|e| MeasureError::Failed(e.to_string()))?;
    if !result.outcome.success() {
        // A cycle-limit overrun is a "did not finish", not an opaque
        // failure: keep it distinguishable so reports can tag it DNF.
        if result.outcome.exit == msp430_sim::machine::ExitReason::CycleLimit {
            return Err(MeasureError::CycleLimit(result.outcome.stats.total_cycles()));
        }
        return Err(MeasureError::Failed(format!("exit {:?}", result.outcome.exit)));
    }
    let energy = EnergyModel::fr2355();
    let correct = result.outcome.checksum.0 == built.bench.oracle_checksum(&input);
    Ok(Measurement {
        bench: built.bench,
        system,
        freq,
        time_us: freq.cycles_to_us(result.outcome.stats.total_cycles()),
        energy_uj: energy.energy_uj(&result.outcome.stats, freq),
        correct,
        built: BuildSizes {
            text_bytes: built.text_bytes,
            data_bytes: built.data_bytes,
            metadata_bytes: built.metadata_bytes,
            handler_bytes: built.handler_bytes,
        },
        swap: result.swap,
        block: result.block,
        stats: result.outcome.stats,
    })
}

/// The three systems of the main evaluation, in paper order.
pub fn systems() -> [(&'static str, System); 3] {
    [
        ("baseline", System::Baseline),
        ("block-based", System::BlockCache(blockcache::BlockConfig::unified_fr2355())),
        ("SwapRAM", System::SwapRam(swapram::SwapConfig::unified_fr2355())),
    ]
}

/// Geometric mean of a nonempty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn measure_crc_baseline() {
        let m = measure(
            Benchmark::Crc,
            &System::Baseline,
            &MemoryProfile::unified(),
            Frequency::MHZ_24,
        )
        .expect("crc baseline runs");
        assert!(m.correct);
        assert!(m.fram_accesses() > 0);
        assert!(m.time_us > 0.0);
        assert!(m.energy_uj > 0.0);
    }
}
