//! Energy model for the simulated device.
//!
//! The paper measures whole-system energy with an oscilloscope across a
//! sense resistor; we have no board, so energy is integrated analytically
//! from the access mix the simulator counts exactly:
//!
//! ```text
//! E = cycles · E_core(f) + Σ_kind accesses_kind · E_kind
//! ```
//!
//! Constants are set from MSP430FR2355-class datasheet ballparks and are
//! deliberately conservative; the reproduction targets *relative* energy
//! (SwapRAM vs baseline), which depends on the access mix rather than the
//! absolute constants. All constants are public fields, so a caller can
//! build a model with its own values.

use crate::freq::Frequency;
use crate::trace::Stats;

/// Per-cycle and per-access energy constants, in picojoules.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Core energy per cycle at 8 MHz (includes static draw amortised over
    /// the longer cycle — low frequencies are less efficient per cycle).
    pub core_pj_per_cycle_8mhz: f64,
    /// Core energy per cycle at 24 MHz (the most efficient operating point
    /// for the digital core, per the paper §5.4).
    pub core_pj_per_cycle_24mhz: f64,
    /// Energy per FRAM read access (instruction fetch or data read).
    pub fram_read_pj: f64,
    /// Energy per FRAM write access.
    pub fram_write_pj: f64,
    /// Energy per SRAM read access.
    pub sram_read_pj: f64,
    /// Energy per SRAM write access.
    pub sram_write_pj: f64,
    /// Energy per MMIO access.
    pub mmio_pj: f64,
}

impl EnergyModel {
    /// The default MSP430FR2355-class model.
    ///
    /// FRAM accesses cost roughly 4× an SRAM access (the FRAM array plus
    /// its sense amplifiers draw over twice the power of comparable flash
    /// during execution, §2.2); the 8 MHz core point is ~25 % less
    /// efficient per cycle than 24 MHz.
    pub fn fr2355() -> EnergyModel {
        EnergyModel {
            core_pj_per_cycle_8mhz: 510.0,
            core_pj_per_cycle_24mhz: 405.0,
            fram_read_pj: 120.0,
            fram_write_pj: 150.0,
            sram_read_pj: 30.0,
            sram_write_pj: 34.0,
            mmio_pj: 20.0,
        }
    }

    /// Core energy per cycle at `freq`, interpolated linearly between the
    /// two calibration points.
    pub fn core_pj_per_cycle(&self, freq: Frequency) -> f64 {
        let f = freq.mhz as f64;
        let (f0, e0) = (8.0, self.core_pj_per_cycle_8mhz);
        let (f1, e1) = (24.0, self.core_pj_per_cycle_24mhz);
        if f <= f0 {
            e0
        } else if f >= f1 {
            e1
        } else {
            e0 + (e1 - e0) * (f - f0) / (f1 - f0)
        }
    }

    /// Total energy in microjoules for an execution described by `stats` at
    /// `freq`. Stall cycles burn core energy like active cycles (the CPU
    /// waits, it does not sleep).
    pub fn energy_uj(&self, stats: &Stats, freq: Frequency) -> f64 {
        let core = stats.total_cycles() as f64 * self.core_pj_per_cycle(freq);
        let fram =
            (stats.fram_ifetch + stats.fram_read) as f64 * self.fram_read_pj
                + stats.fram_write as f64 * self.fram_write_pj;
        let sram = (stats.sram_ifetch + stats.sram_read) as f64 * self.sram_read_pj
            + stats.sram_write as f64 * self.sram_write_pj;
        let mmio = stats.mmio_accesses as f64 * self.mmio_pj;
        (core + fram + sram + mmio) / 1.0e6
    }

    /// Average power in milliwatts for an execution described by `stats`.
    pub fn average_power_mw(&self, stats: &Stats, freq: Frequency) -> f64 {
        let us = freq.cycles_to_us(stats.total_cycles());
        if us == 0.0 {
            0.0
        } else {
            self.energy_uj(stats, freq) / us * 1000.0
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::fr2355()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(fram_ifetch: u64, sram_ifetch: u64, cycles: u64) -> Stats {
        Stats { fram_ifetch, sram_ifetch, unstalled_cycles: cycles, ..Stats::new() }
    }

    #[test]
    fn fram_heavy_run_costs_more() {
        let m = EnergyModel::fr2355();
        let fram = stats_with(1000, 0, 2000);
        let sram = stats_with(0, 1000, 2000);
        assert!(m.energy_uj(&fram, Frequency::MHZ_24) > m.energy_uj(&sram, Frequency::MHZ_24));
    }

    #[test]
    fn interpolation_endpoints() {
        let m = EnergyModel::fr2355();
        assert_eq!(m.core_pj_per_cycle(Frequency::MHZ_8), m.core_pj_per_cycle_8mhz);
        assert_eq!(m.core_pj_per_cycle(Frequency::MHZ_24), m.core_pj_per_cycle_24mhz);
        let mid = m.core_pj_per_cycle(Frequency::MHZ_16);
        assert!(mid < m.core_pj_per_cycle_8mhz && mid > m.core_pj_per_cycle_24mhz);
    }

    #[test]
    fn stall_cycles_burn_energy() {
        let m = EnergyModel::fr2355();
        let mut a = stats_with(100, 0, 1000);
        let b = a.clone();
        a.wait_cycles = 500;
        assert!(m.energy_uj(&a, Frequency::MHZ_24) > m.energy_uj(&b, Frequency::MHZ_24));
    }

    #[test]
    fn average_power_is_finite_and_positive() {
        let m = EnergyModel::fr2355();
        let s = stats_with(10, 10, 100);
        let p = m.average_power_mw(&s, Frequency::MHZ_8);
        assert!(p > 0.0 && p.is_finite());
    }
}
