//! Span self-time arithmetic.

use swapbench::trace::{layer_times, self_times, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        cell: None,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = vec![
        span("rep", 0, 100, None),
        span("build", 10, 30, Some(0)),
        span("build.parse", 12, 20, Some(1)),
        span("sim.run", 40, 90, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![30, 12, 8, 50]);
    // Self times partition the root exactly.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), spans[0].len_ns());
}

#[test]
fn layer_times_sum_by_name() {
    let spans = vec![
        span("rep", 0, 100, None),
        span("sim.run", 0, 20, Some(0)),
        span("sim.run", 20, 50, Some(0)),
    ];
    let layers = layer_times(&spans);
    assert_eq!(layers["sim.run"].self_ns, 50);
    assert_eq!(layers["sim.run"].count, 2);
    assert_eq!(layers["rep"].self_ns, 50);
}

#[test]
fn recorded_spans_nest_and_cover_the_root() {
    let mut t = Tracer::new(true);
    let root = t.enter("rep", None);
    let x = t.span("build", Some(3), || (0..1000u64).sum::<u64>());
    let inner = t.enter("sim.run", Some(4));
    t.span("sim.machine", Some(4), || ());
    t.exit(inner);
    t.exit(root);
    assert_eq!(x, 499_500);
    let spans = t.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].cell, Some(3));
    assert_eq!(spans[3].parent, Some(2));
    assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
    assert_eq!(self_times(spans).iter().sum::<u64>(), spans[0].len_ns());
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    let root = t.enter("rep", None);
    assert_eq!(t.span("build", None, || 7), 7);
    t.exit(root);
    assert!(t.spans().is_empty());
}
