//! `BENCHMARK.json` at the repository root names exactly the workloads and
//! metrics this package reports, with the same units.

use experiments::json::{parse, Json};
use swapbench::layers::PER_LAYER;
use swapbench::workload::{Workload, END_TO_END};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn workloads_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(
        names_and_units(&benchmark_json(), "end_to_end"),
        owned(&END_TO_END)
    );
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(
        names_and_units(&benchmark_json(), "per_layer"),
        owned(&PER_LAYER)
    );
}
