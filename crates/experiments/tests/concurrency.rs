//! Acceptance tests for the concurrency campaign: every Masked episode
//! is correct or detectably rejected, no episode under either protocol
//! is silently wrong, the Unprotected matrix surfaces at least one
//! detected hazard, and the rows are byte-identical regardless of the
//! worker count.
//!
//! The contracts are checked on the full default matrix, the one the
//! report prints. The fast matrix (2 schedules per cell) composes no bit
//! flips, so its Unprotected detections rest on rare publish-window
//! repairs alone and can be zero.

use experiments::{concurrency, resilience, Harness};

fn assert_contracts(base_seed: u64) {
    let rows = concurrency::run(&Harness::new(), concurrency::DEFAULT_SCHEDULES, base_seed);
    let masked = concurrency::masked_failures(&rows);
    assert!(masked.is_empty(), "seed {base_seed:#x}: masked contract violated: {masked:#?}");
    let silent = concurrency::silent_rows(&rows);
    assert!(silent.is_empty(), "seed {base_seed:#x}: silent wrong output: {silent:#?}");
    assert!(
        !concurrency::unprotected_detections(&rows).is_empty(),
        "seed {base_seed:#x}: no hazard detected across the Unprotected matrix"
    );
}

#[test]
fn contracts_hold_at_the_default_seed() {
    assert_contracts(resilience::DEFAULT_FAULT_SEED);
}

#[test]
fn contracts_hold_at_the_ci_seed() {
    assert_contracts(51966);
}

#[test]
fn rows_are_byte_identical_across_job_counts() {
    let r1 = concurrency::run(&Harness::with_jobs(1), concurrency::FAST_SCHEDULES, 42);
    let r4 = concurrency::run(&Harness::with_jobs(4), concurrency::FAST_SCHEDULES, 42);
    assert_eq!(
        concurrency::rows_json(&r1).render(),
        concurrency::rows_json(&r4).render(),
        "identical seeds must yield byte-identical concurrency rows"
    );
}
