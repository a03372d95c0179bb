//! Median and quartile math. Quartile references come from Python's
//! `statistics.quantiles(xs, n=4)`, which readers of the results use to
//! recompute spreads.

use swapbench::stats::{median, quartiles, window_minima, Summary};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
    assert_eq!(quartiles(&[0.5, 0.25, 0.75, 1.0, 2.0]), (0.375, 1.5));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
}

#[test]
fn window_minima_cover_every_value_in_order() {
    let xs = [5.0, 3.0, 4.0, 9.0, 1.0, 8.0, 7.0];
    // 7 values, windows of 3: two windows, [5 3 4] and [9 1 8 7].
    assert_eq!(window_minima(&xs, 3), vec![3.0, 1.0]);
    assert_eq!(window_minima(&xs, 1), xs.to_vec());
    // Fewer values than a window: one window of all of them.
    assert_eq!(window_minima(&[6.0, 2.0], 3), vec![2.0]);
}

#[test]
fn summary_collects_median_quartiles_and_count() {
    let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    let s = Summary::of(&ten);
    assert_eq!((s.median, s.q1, s.q3, s.n), (5.5, 2.75, 8.25, 10));
}
