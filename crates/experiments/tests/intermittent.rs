//! Acceptance tests for the intermittent-computing campaign: seeded
//! harvested-energy traces (with timer interrupts and composed bit
//! flips) across all loss-density tiers and recovery protocols must
//! produce zero silent-wrong episodes, persistent-stack must show a
//! strict forward-progress win over the replay protocols at the dense
//! tiers, and the famine tier must end in either real resumed progress
//! or a detected watchdog degradation — never an undetected livelock.

use experiments::intermittent::{self, IntermittentRow, Tier};
use experiments::episode::Outcome;
use experiments::{resilience, Harness};
use mibench::Benchmark;
use swapram::RecoveryMode;

fn completed(r: &IntermittentRow) -> bool {
    r.survived && r.correct
}

#[test]
fn campaign_is_sound_and_persistent_stack_wins_at_density() {
    let h = Harness::new();
    let rows = intermittent::run(&h, &Tier::ALL, resilience::DEFAULT_FAULT_SEED);
    let nbench = Benchmark::MIBENCH.len() + Benchmark::MULTITASK.len();
    assert_eq!(
        rows.len(),
        nbench * intermittent::PROTOCOLS.len() * Tier::ALL.len(),
        "(9+2) benchmarks x 3 protocols x 4 tiers"
    );

    // Soundness: no episode may end in a silently wrong answer, and
    // every detected rejection must trace back to a seeded bit flip —
    // power loss alone never trips the oracle.
    assert!(intermittent::silent_rows(&rows).is_empty());
    for r in &rows {
        assert!(
            r.no_silent_wrong(),
            "{} {:?} tier {}: silent wrong answer (error={:?})",
            r.bench.name(),
            r.recovery,
            r.tier.name(),
            r.error
        );
        if matches!(r.outcome, Outcome::InvariantViolation | Outcome::DetectedError) {
            assert!(
                r.bit_flip,
                "{} {:?} tier {}: detected rejection without an injected flip: {:?}",
                r.bench.name(),
                r.recovery,
                r.tier.name(),
                r.error
            );
        }
    }

    // The matrix really composes the hazards it claims to.
    assert!(rows.iter().any(|r| r.irq_delivered > 0), "timer interrupts were delivered");
    assert!(rows.iter().filter(|r| r.bit_flip).count() >= nbench, "flip episodes are seeded in");
    assert!(rows.iter().all(|r| r.tier == Tier::Sparse || r.losses > 1));

    let find = |bench: Benchmark, recovery: RecoveryMode, tier: Tier| {
        rows.iter()
            .find(|r| r.bench == bench && r.recovery == recovery && r.tier == tier)
            .expect("matrix cell missing")
    };

    // Forward-progress separation at the dense tiers: every flip-free
    // persistent-stack episode completes with strictly more useful
    // cycles per boot than both replay protocols, whose on-windows are
    // structurally too short to ever replay a whole benchmark.
    let mut ps_completions_per_bench = vec![0u32; Benchmark::MIBENCH.len()];
    for tier in [Tier::Dense, Tier::DENSEST_COMPLETABLE] {
        for (i, &bench) in Benchmark::MIBENCH.iter().enumerate() {
            let ps = find(bench, RecoveryMode::PersistentStack, tier);
            for replay in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
                let r = find(bench, replay, tier);
                assert!(
                    !completed(r),
                    "{} {:?} tier {}: replay cannot finish inside one on-window",
                    bench.name(),
                    replay,
                    tier.name()
                );
            }
            if ps.bit_flip {
                continue; // flip episodes may legitimately detect-and-halt
            }
            assert!(
                completed(ps),
                "{} tier {}: persistent stack must complete: {:?}",
                bench.name(),
                tier.name(),
                ps.error
            );
            ps_completions_per_bench[i] += 1;
            assert!(ps.resumes > 0, "{} tier {}: completion requires mid-run resume", bench.name(), tier.name());
            let ucpb = ps.useful_cycles_per_boot();
            for replay in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
                let r = find(bench, replay, tier);
                assert!(
                    ucpb > r.useful_cycles_per_boot(),
                    "{} tier {}: PS ucpb {ucpb} must beat {:?}",
                    bench.name(),
                    tier.name(),
                    replay
                );
            }
        }
    }
    // Across the two dense tiers, every single-task benchmark gets at
    // least one flip-free persistent-stack completion.
    for (i, &bench) in Benchmark::MIBENCH.iter().enumerate() {
        assert!(
            ps_completions_per_bench[i] > 0,
            "{}: no flip-free dense-tier completion under persistent stack",
            bench.name()
        );
    }

    // Famine: energy never suffices to finish, and persistent stack
    // either makes real (resumed, fingerprint-advancing) progress or
    // the Sisyphus watchdog reports the livelock — multitask programs,
    // whose stacks cannot be checkpointed, must always be flagged.
    for r in rows.iter().filter(|r| r.tier == Tier::Famine) {
        assert!(!completed(r), "{} {:?}: famine must starve", r.bench.name(), r.recovery);
        if r.recovery == RecoveryMode::PersistentStack {
            assert!(
                r.resumes > 0 || r.watchdog_degradations >= 1,
                "{}: famine boot loop neither resumed nor detected",
                r.bench.name()
            );
            if r.bench.is_multitask() {
                assert!(
                    r.watchdog_degradations >= 1,
                    "{}: uncheckpointable famine loop must degrade",
                    r.bench.name()
                );
            }
        }
    }
}

#[test]
fn rows_are_byte_identical_across_job_counts() {
    // The famine tier is the cheapest full sweep of the matrix; rows
    // carry no wall-clock, so sequential and parallel runs must render
    // identical JSON.
    let r1 = intermittent::run(&Harness::with_jobs(1), &[Tier::Famine], 42);
    let r4 = intermittent::run(&Harness::with_jobs(4), &[Tier::Famine], 42);
    assert_eq!(
        intermittent::rows_json(&r1).render(),
        intermittent::rows_json(&r4).render(),
        "identical seeds must yield byte-identical intermittent rows"
    );
}
