//! Pins the runtimes' modeled charges: five small runs that together
//! fire every priced step of the SwapRAM miss handler (entry, scan,
//! eviction, relocation, copy, exit, guard, stack scan, journal append,
//! recovery, checkpoint, watchdog) and of the block-cache runtime (entry,
//! probe, chain, copy, flush, exit). Each run's Figure-8 split and cycle
//! totals are recorded values, so re-pricing any single step by one
//! instruction or one cycle changes at least one of them.

use experiments::episode::Episode;
use experiments::measure::SEED;
use mibench::builder::{build, run, Built, MemoryProfile, System};
use mibench::{input_for, Benchmark};
use msp430_sim::fault::{EnergyShape, EnergyTrace, FaultPlan};
use msp430_sim::freq::Frequency;
use msp430_sim::machine::ExitReason;
use msp430_sim::trace::{Category, Stats};
use swapram::{IsrProtocol, PolicyKind, RecoveryMode, SwapConfig};

const MAX_CYCLES: u64 = 200_000_000;

/// `[miss-handler instructions, memcpy instructions, unstalled cycles,
/// total cycles]` of one run.
fn charged(stats: &Stats) -> [u64; 4] {
    [
        stats.instructions_in(Category::MissHandler),
        stats.instructions_in(Category::Memcpy),
        stats.unstalled_cycles,
        stats.total_cycles(),
    ]
}

fn built(bench: Benchmark, system: System) -> Built {
    build(bench, &system, &MemoryProfile::unified()).expect("the build fits")
}

/// One uninterrupted run that must halt with the oracle checksum.
fn clean(built: &Built) -> Stats {
    let input = input_for(built.bench, SEED);
    let out = run(built, Frequency::MHZ_24, &input, MAX_CYCLES).expect("run").outcome;
    assert_eq!(out.exit, ExitReason::Halted(0), "{}", built.bench.name());
    assert_eq!(out.checksum.0, built.bench.oracle_checksum(&input), "{}", built.bench.name());
    out.stats
}

/// A power-loss episode on the campaigns' executor: every boot after a
/// loss recovers with a fresh runtime, until the program halts with the
/// oracle checksum. Statistics survive power cycles, so the episode's are
/// those of its last run.
fn episode(built: &Built, faults: FaultPlan) -> Stats {
    let ended = Episode {
        built,
        freq: Frequency::MHZ_24,
        faults,
        irq: None,
        budget: MAX_CYCLES,
        boot_cap: Some(1000),
        sanitize: false,
        audit: false,
    }
    .run();
    assert!(ended.correct(), "{}: {:?}", built.bench.name(), ended.end);
    ended.sim
}

#[test]
fn modeled_charges_are_pinned() {
    let small =
        |policy| SwapConfig { cache_size: 256, ..SwapConfig::unified_fr2355().with_policy(policy) };
    let mut runs: Vec<(&str, [u64; 4], [u64; 4])> = Vec::new();

    // Entry, scan, evict, reloc, copy, exit, guard and the live stack
    // scan: the stack policy evicts on almost every miss.
    let aes = built(Benchmark::Aes, System::SwapRam(small(PolicyKind::Stack)));
    runs.push(("aes stack 256 B", charged(&clean(&aes)), [69973, 22152, 325933, 559500]));

    // Journal appends, then a dirty-log recovery after each loss.
    let cfg = SwapConfig::unified_fr2355().with_recovery(RecoveryMode::DirtyLog);
    let rc4 = built(Benchmark::Rc4, System::SwapRam(cfg));
    let cycles = clean(&rc4).total_cycles();
    let losses = FaultPlan::power_losses(0x5eed, 2, cycles / 10..cycles * 9 / 10);
    runs.push(("rc4 dirty-log losses", charged(&episode(&rc4, losses)), [1132, 822, 50575, 69159]));

    // Checkpoint commits, resumes and watchdog bookkeeping on a dense
    // harvested-energy trace.
    let cfg = SwapConfig::unified_fr2355().with_recovery(RecoveryMode::PersistentStack);
    let crc = built(Benchmark::Crc, System::SwapRam(cfg));
    let cycles = clean(&crc).total_cycles();
    let trace = EnergyTrace::new(EnergyShape::RcCharge, (cycles / 4).max(2_000), 0xd0e5);
    let dense = charged(&episode(&crc, trace.plan_until(cycles * 20 + 2_000_000)));
    runs.push(("crc persistent-stack dense", dense, [3760, 687, 370957, 394648]));

    // The suspended-task stack scan of the Masked protocol. It runs only
    // on an eviction, and a 256-byte cache holds every multi-task
    // function without one.
    let cfg = SwapConfig { cache_size: 192, ..small(PolicyKind::Stack) }
        .with_isr_protocol(IsrProtocol::Masked);
    let tasks = built(Benchmark::SensorCrypto, System::SwapRam(cfg));
    runs.push(("sensor-crypto masked 192 B", charged(&clean(&tasks)), [515, 297, 704725, 779037]));

    // Block cache: entry, probe, chain, copy, exit, and a flush whenever
    // the small cache fills.
    let block =
        blockcache::BlockConfig { cache_size: 256, ..blockcache::BlockConfig::unified_fr2355() };
    let fft = built(Benchmark::Fft, System::BlockCache(block));
    runs.push(("fft block 256 B", charged(&clean(&fft)), [881784, 366546, 3323283, 5678880]));

    let wrong: Vec<String> = runs
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:?}, recorded {want:?}"))
        .collect();
    assert!(wrong.is_empty(), "modeled charges moved:\n{}", wrong.join("\n"));
}
