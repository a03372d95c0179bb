//! Differential gate for the pre-decoded execution engine.
//!
//! The pre-decoded engine ([`msp430_sim::blockcache`]) must be
//! observationally indistinguishable from the reference interpreter: same
//! [`Stats`](msp430_sim::Stats) to the cycle, same checksums, same
//! [`ExitReason`](msp430_sim::ExitReason), same runtime counters — across
//! every benchmark, instruction-supply system, and operating frequency.
//! This suite is the gate that lets `predecoded` ship as the default
//! engine.
//!
//! Two modes:
//!
//! - **End-to-end matrix**: all 9 MiBench benchmarks × {baseline,
//!   block-based, SwapRAM} × {8 MHz, 24 MHz}, run to completion under both
//!   engines and compared wholesale ([`RunResult`] is `PartialEq`).
//! - **Lockstep**: for three benchmarks, both engines advance one
//!   instruction at a time with the full register file compared after
//!   every step and the cycle-accurate [`Stats`] compared every
//!   `STATS_EVERY` steps, so any future divergence is localised to the
//!   instruction that introduced it instead of surfacing as a checksum
//!   mismatch millions of cycles later.

use mibench::{build, input_for, prepare, run_on, Benchmark, Built, MemoryProfile, RunResult, System};
use msp430_sim::machine::Fr2355;
use msp430_sim::{Engine, Frequency, Machine, Reg};

/// Generous cycle budget: every benchmark halts well below this.
const MAX_CYCLES: u64 = 4_000_000_000;
/// Input seed shared with the experiment harness.
const SEED: u64 = 1;
/// Lockstep mode compares the cycle-accurate stats this often.
const STATS_EVERY: u64 = 64;
/// Hard ceiling on lockstep instruction count (divergence guard).
const STEP_CAP: u64 = 500_000_000;

fn run_with(built: &Built, freq: Frequency, input: &[u8], engine: Engine) -> RunResult {
    let mut machine = Fr2355::machine(freq);
    machine.set_engine(engine);
    run_on(&mut machine, built, input, MAX_CYCLES).unwrap_or_else(|e| {
        panic!("{} under {engine:?} died: {e:?}", built.bench.name());
    })
}

/// Runs every benchmark under `system` at `freq` with both engines and
/// asserts the two runs are indistinguishable.
fn diff_matrix(system: &System, freq: Frequency) {
    for bench in Benchmark::MIBENCH {
        let built = build(bench, system, &MemoryProfile::unified())
            .unwrap_or_else(|e| panic!("{} fails to build: {e:?}", bench.name()));
        let input = input_for(bench, SEED);
        let interp = run_with(&built, freq, &input, Engine::Interp);
        let pre = run_with(&built, freq, &input, Engine::Predecoded);
        assert_eq!(
            interp,
            pre,
            "{} under {} at {} MHz: engines diverged",
            bench.name(),
            system.label(),
            freq.mhz
        );
        // The diff alone proves equivalence; also pin both runs to the
        // ground truth so "identically wrong" cannot slip through.
        assert!(
            interp.outcome.success(),
            "{} under {} did not halt cleanly: {:?}",
            bench.name(),
            system.label(),
            interp.outcome.exit
        );
        assert_eq!(
            interp.outcome.checksum.0,
            bench.oracle_checksum(&input),
            "{} under {}: checksum does not match the oracle",
            bench.name(),
            system.label()
        );
    }
}

#[test]
fn matrix_baseline_8mhz() {
    diff_matrix(&System::Baseline, Frequency::MHZ_8);
}

#[test]
fn matrix_baseline_24mhz() {
    diff_matrix(&System::Baseline, Frequency::MHZ_24);
}

#[test]
fn matrix_blockcache_8mhz() {
    diff_matrix(&System::BlockCache(blockcache::BlockConfig::unified_fr2355()), Frequency::MHZ_8);
}

#[test]
fn matrix_blockcache_24mhz() {
    diff_matrix(&System::BlockCache(blockcache::BlockConfig::unified_fr2355()), Frequency::MHZ_24);
}

#[test]
fn matrix_swapram_8mhz() {
    diff_matrix(&System::SwapRam(swapram::SwapConfig::unified_fr2355()), Frequency::MHZ_8);
}

#[test]
fn matrix_swapram_24mhz() {
    diff_matrix(&System::SwapRam(swapram::SwapConfig::unified_fr2355()), Frequency::MHZ_24);
}

/// Asserts both machines hold identical architectural state.
fn compare_regs(a: &Machine, b: &Machine, bench: Benchmark, steps: u64) {
    for n in 0..16 {
        let r = Reg::r(n);
        assert_eq!(
            a.cpu().reg(r),
            b.cpu().reg(r),
            "{}: R{n} diverged after {steps} instructions (pc={:#06x})",
            bench.name(),
            a.cpu().pc()
        );
    }
}

/// Steps an interpreter machine and a pre-decoded machine in lockstep over
/// one benchmark, comparing per-step results, registers, latched sanitizer
/// violations, and (periodically) the full cycle-accurate stats.
fn lockstep(bench: Benchmark, system: &System, freq: Frequency) {
    let built = build(bench, system, &MemoryProfile::unified())
        .unwrap_or_else(|e| panic!("{} fails to build: {e:?}", bench.name()));
    let input = input_for(bench, SEED);
    let mut a = Fr2355::machine(freq);
    a.set_engine(Engine::Interp);
    let mut b = Fr2355::machine(freq);
    b.set_engine(Engine::Predecoded);
    let _ha = prepare(&mut a, &built, &input).expect("interp prepare");
    let _hb = prepare(&mut b, &built, &input).expect("predecoded prepare");

    let mut steps: u64 = 0;
    let halt = loop {
        let ra = a.step();
        let rb = b.step();
        assert_eq!(ra, rb, "{}: step {steps} results diverged", bench.name());
        // Mirror Machine::run's per-instruction polling so a latched
        // sanitizer violation surfaces at the same step in both machines.
        let (sp_a, sp_b) = (a.cpu().sp(), b.cpu().sp());
        a.bus_mut().check_stack(sp_a);
        b.bus_mut().check_stack(sp_b);
        let (va, vb) = (a.bus_mut().take_violation(), b.bus_mut().take_violation());
        assert_eq!(va, vb, "{}: violation diverged at step {steps}", bench.name());
        steps += 1;
        compare_regs(&a, &b, bench, steps);
        if steps.is_multiple_of(STATS_EVERY) {
            assert_eq!(
                a.bus().stats(),
                b.bus().stats(),
                "{}: stats diverged within {STATS_EVERY} instructions of step {steps}",
                bench.name()
            );
        }
        assert!(va.is_none(), "{}: unexpected sanitizer violation {va:?}", bench.name());
        match ra {
            Ok(Some(code)) => break code,
            Ok(None) => {}
            Err(e) => panic!("{}: simulation error at step {steps}: {e:?}", bench.name()),
        }
        assert!(steps < STEP_CAP, "{}: lockstep exceeded {STEP_CAP} instructions", bench.name());
    };
    assert_eq!(halt, 0, "{}: nonzero halt code", bench.name());
    assert_eq!(a.bus().stats(), b.bus().stats(), "{}: final stats diverged", bench.name());
    assert_eq!(
        a.bus().ports().checksum(),
        b.bus().ports().checksum(),
        "{}: final checksum diverged",
        bench.name()
    );
}

#[test]
fn lockstep_crc_swapram() {
    lockstep(Benchmark::Crc, &System::SwapRam(swapram::SwapConfig::unified_fr2355()), Frequency::MHZ_8);
}

#[test]
fn lockstep_bitcount_blockcache() {
    lockstep(
        Benchmark::Bitcount,
        &System::BlockCache(blockcache::BlockConfig::unified_fr2355()),
        Frequency::MHZ_24,
    );
}

#[test]
fn lockstep_stringsearch_swapram() {
    lockstep(
        Benchmark::Stringsearch,
        &System::SwapRam(swapram::SwapConfig::unified_fr2355()),
        Frequency::MHZ_24,
    );
}
