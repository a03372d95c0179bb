//! One pass of each library workload, traced: every output matches its
//! oracle, every cell's cycle buckets sum to its total, and the per-layer
//! ledger covers the traced wall.

use swapbench::layers::{metrics, Counters, PER_LAYER};
use swapbench::library::LibraryWorkload;
use swapbench::trace::Tracer;
use swapbench::workload::Workload;

fn one_pass(w: Workload) {
    let lw = LibraryWorkload::of(w).expect("library workload");
    let mut tracer = Tracer::new(true);
    let rep = lw.rep(1, 1, &mut tracer).expect("rep runs");
    assert_eq!(rep.attempted, lw.cells.len() as u64);
    assert_eq!(rep.failed, 0, "{}: failed_frac must be 0", w.name());
    assert!(
        rep.cycle_sums_ok,
        "{}: cycle buckets must sum to total_cycles",
        w.name()
    );
    assert!(rep.repeatable);
    let speedup = rep.device.swap_speedup_geo;
    assert!(
        speedup.is_finite() && speedup > 0.0,
        "{}: speedup {speedup}",
        w.name()
    );

    let mut counters = Counters::default();
    for r in &rep.results {
        counters.add_stats(&r.outcome.stats);
    }
    let m = metrics(tracer.spans(), &counters, rep.executed_instructions);
    assert_eq!(m.len(), PER_LAYER.len());
    let shares: f64 = m
        .iter()
        .filter(|(k, _)| k.ends_with("_pct") && **k != "build.pass_pct")
        .map(|(_, v)| v)
        .sum();
    assert!(
        (shares - 100.0).abs() < 1e-6,
        "{}: layer shares sum to {shares}%",
        w.name()
    );
    assert!(m["trace.wall_ms"] > 0.0);
    assert!(
        m["sim.run_pct"] > 50.0,
        "{}: simulation dominates",
        w.name()
    );
    assert_eq!(m["sim.instructions"], rep.executed_instructions as f64);

    let again = lw.rep(1, 1, &mut Tracer::new(false)).expect("rep runs");
    assert_eq!(again.digest, rep.digest, "{}: digest must repeat", w.name());
}

#[test]
fn sim_steady_one_pass() {
    one_pass(Workload::SimSteady);
}

#[test]
fn swap_thrash_one_pass() {
    one_pass(Workload::SwapThrash);
}
