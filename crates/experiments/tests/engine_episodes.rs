//! Engine-differential gate on the fault-episode executor itself. The
//! multi-task benchmarks spend nearly all their simulated time in idle
//! polling loops, which the pre-decoded engine accounts without executing
//! (see `msp430_sim::blockcache`). Their intermittent (dense tier) and
//! concurrency episodes must end with the same simulator statistics,
//! runtime counters and end state under both engines, and the pre-decoded
//! runs must actually have skipped iterations.
//!
//! Lives in its own integration-test binary: the engine override is
//! process-global, and a dedicated process keeps it from racing other
//! tests.

use experiments::episode::{Ended, Episode};
use experiments::intermittent::{Tier, PROTOCOLS};
use experiments::measure::SEED;
use mibench::builder::{build, run, Built, MemoryProfile, System};
use mibench::{input_for, Benchmark};
use msp430_sim::fault::{EnergyTrace, FaultEvent, FaultKind, FaultPlan};
use msp430_sim::freq::Frequency;
use msp430_sim::irq::IrqSchedule;
use msp430_sim::{set_default_engine, Engine};
use swapram::{IsrProtocol, RecoveryMode, SwapConfig};

/// A campaign build of `bench`, as the concurrency and intermittent
/// campaigns configure it.
fn built(bench: Benchmark, protocol: IsrProtocol, recovery: RecoveryMode) -> Built {
    let cfg = SwapConfig::unified_fr2355()
        .with_recovery(recovery)
        .with_isr_protocol(protocol)
        .with_invariant_checks(true);
    build(bench, &System::SwapRam(cfg), &MemoryProfile::unified()).expect("the build fits")
}

fn clean_cycles(built: &Built) -> u64 {
    let input = input_for(built.bench, SEED);
    run(built, Frequency::MHZ_24, &input, 200_000_000).expect("clean run").outcome.stats.total_cycles()
}

/// A dense-tier harvested-energy episode with a periodic tick.
fn intermittent(built: &Built, clean: u64, seed: u64) -> Episode<'_> {
    let tier = Tier::Dense;
    let trace = EnergyTrace::new(tier.shape(), tier.budget(clean), seed);
    Episode {
        built,
        freq: Frequency::MHZ_24,
        faults: trace.plan_until(tier.horizon(clean)),
        irq: Some(IrqSchedule::periodic(1499 + seed % 8000, 1 + seed % 997)),
        budget: tier.horizon(clean),
        boot_cap: Some(tier.boot_cap()),
        sanitize: true,
        audit: false,
    }
}

/// A concurrency episode: a periodic tick and one mid-run power loss.
fn concurrency(built: &Built, clean: u64, seed: u64) -> Episode<'_> {
    let loss = FaultEvent { cycle: clean / 3 + seed % (clean / 3), kind: FaultKind::PowerLoss };
    Episode {
        built,
        freq: Frequency::MHZ_24,
        faults: FaultPlan::new(vec![loss]),
        irq: Some(IrqSchedule::periodic(1499 + seed % 8000, 1 + seed % 997)),
        budget: clean * 4 + 2_000_000,
        boot_cap: None,
        sanitize: true,
        audit: false,
    }
}

fn under(engine: Engine, episode: Episode<'_>) -> Ended {
    set_default_engine(Some(engine));
    let ended = episode.run();
    set_default_engine(None);
    ended
}

#[test]
fn multitask_episodes_match_across_engines_and_skip() {
    let mut cases: Vec<(Benchmark, IsrProtocol, RecoveryMode, &str)> = Vec::new();
    for bench in Benchmark::MULTITASK {
        for recovery in PROTOCOLS {
            cases.push((bench, IsrProtocol::Masked, recovery, "intermittent"));
        }
        for protocol in [IsrProtocol::Masked, IsrProtocol::Unprotected] {
            for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
                cases.push((bench, protocol, recovery, "concurrency"));
            }
        }
    }
    for (i, (bench, protocol, recovery, kind)) in cases.into_iter().enumerate() {
        let b = built(bench, protocol, recovery);
        let clean = clean_cycles(&b);
        let seed = 0x5eed_0000 + i as u64 * 7919;
        let episode = || match kind {
            "intermittent" => intermittent(&b, clean, seed),
            _ => concurrency(&b, clean, seed),
        };
        let name = format!("{} {kind} {protocol:?} {recovery:?}", bench.name());
        let interp = under(Engine::Interp, episode());
        let pre = under(Engine::Predecoded, episode());
        assert_eq!(interp.end, pre.end, "{name}: end");
        assert_eq!(interp.boots, pre.boots, "{name}: boots");
        assert_eq!(interp.sim, pre.sim, "{name}: simulator statistics");
        assert_eq!(interp.stats, pre.stats, "{name}: runtime counters");
        assert_eq!(interp.audit, pre.audit, "{name}: audit");
        assert_eq!(interp.skipped_iterations, 0, "{name}: the interpreter skips nothing");
        assert!(pre.skipped_iterations > 0, "{name}: no idle iteration skipped");
        assert!(pre.sim.irq_delivered > 0, "{name}: no tick delivered");
    }
}
