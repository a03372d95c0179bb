//! Engine-differential gate for the concurrency campaign: timer
//! interrupts preempting SwapRAM, composed with mid-run power losses and
//! metadata bit flips, must publish byte-identical rows whether the
//! simulator runs the reference interpreter or the pre-decoded engine.
//! The engine runs each episode to the next fault or timer fire, so this
//! proves interrupt delivery, `reti` boundaries and fault firing land on
//! the same instruction under both.
//!
//! Lives in its own integration-test binary: the engine override is
//! process-global, and a dedicated process keeps it from racing other
//! tests.

use experiments::{concurrency, resilience, Harness};
use msp430_sim::{set_default_engine, Engine};

#[test]
fn concurrency_rows_identical_across_engines() {
    // Fresh Harness per engine: its run memoization must not serve one
    // engine's rows to the other.
    set_default_engine(Some(Engine::Interp));
    let interp = concurrency::run(
        &Harness::new(),
        concurrency::FAST_SCHEDULES,
        resilience::DEFAULT_FAULT_SEED,
    );
    set_default_engine(Some(Engine::Predecoded));
    let pre = concurrency::run(
        &Harness::new(),
        concurrency::FAST_SCHEDULES,
        resilience::DEFAULT_FAULT_SEED,
    );
    set_default_engine(None);

    assert_eq!(
        interp.len(),
        concurrency::benchmarks().len() * 2 * 2 * concurrency::FAST_SCHEDULES,
        "campaign did not cover the fast matrix"
    );
    for (i, p) in interp.iter().zip(&pre) {
        assert_eq!(
            format!("{i:?}"),
            format!("{p:?}"),
            "concurrency row diverged between engines"
        );
    }
    assert_eq!(
        concurrency::rows_json(&interp).render(),
        concurrency::rows_json(&pre).render(),
        "published concurrency rows differ between engines"
    );
    assert!(
        interp.iter().any(|r| r.power_loss && r.boots > 1 && r.irq_delivered > 0),
        "the campaign must compose power losses with delivered interrupts"
    );
}
