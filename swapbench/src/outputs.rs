//! Reading the JSON the sweep binaries write: which rows the repository's
//! contracts forbid, the paper metrics, and a digest of the deterministic
//! content.

use crate::layers::Counters;
use experiments::campaign::fnv1a64;
use experiments::json::Json;
use experiments::measure::geomean;
use std::collections::BTreeMap;

/// Rows attempted and rows that broke a contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Rows (cells, runs, episodes) in the output.
    pub attempted: u64,
    /// Rows the contracts forbid.
    pub failed: u64,
}

impl Tally {
    fn count(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }
}

fn str_field<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or("")
}

fn bool_field(row: &Json, key: &str) -> bool {
    row.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn num_field(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

/// A finished measurement that is wrong, or an outright failure. A DNF
/// (does not fit, or out of cycles) is an allowed outcome.
fn result_failed(status: &str, correct: bool) -> bool {
    status == "failed" || (status == "ok" && !correct)
}

/// Classifies a `campaign` document's cells.
pub fn classify_campaign(doc: &Json) -> Tally {
    let mut t = Tally::default();
    for row in rows(doc, "cells") {
        t.count(result_failed(
            str_field(row, "status"),
            bool_field(row, "correct"),
        ));
    }
    t
}

/// Classifies an `all` report: its memoized runs, resilience episodes that
/// survived with wrong output, silent-wrong concurrency and intermittent
/// episodes, and silent-wrong corruption episodes in the `metadata` region
/// (flips elsewhere are outside the runtime's trust boundary).
pub fn classify_report(doc: &Json) -> Tally {
    let mut t = Tally::default();
    for run in rows(doc, "runs") {
        let result = run.get("result").unwrap_or(&Json::Null);
        t.count(result_failed(
            str_field(result, "status"),
            bool_field(result, "correct"),
        ));
    }
    for row in rows(doc, "resilience") {
        t.count(bool_field(row, "survived") && !bool_field(row, "correct"));
    }
    for section in ["concurrency", "intermittent"] {
        for row in rows(doc, section) {
            t.count(str_field(row, "outcome").eq_ignore_ascii_case("silent-wrong"));
        }
    }
    for row in rows(doc, "corruption") {
        t.count(
            str_field(row, "region") == "metadata" && str_field(row, "outcome") == "silent-wrong",
        );
    }
    t
}

fn clean_ok_cells(doc: &Json) -> impl Iterator<Item = &Json> {
    rows(doc, "cells").iter().filter(|r| {
        r.get("fault_seed") == Some(&Json::Null)
            && str_field(r, "status") == "ok"
            && bool_field(r, "correct")
    })
}

/// Geomean of baseline cycles / SwapRAM cycles over the fault-free cells
/// that finished correctly.
pub fn campaign_speedup_geo(doc: &Json) -> f64 {
    let xs: Vec<f64> = clean_ok_cells(doc)
        .filter(|r| num_field(r, "base_cycles") > 0.0 && num_field(r, "clean_cycles") > 0.0)
        .map(|r| num_field(r, "base_cycles") / num_field(r, "clean_cycles"))
        .collect();
    geomean(&xs)
}

/// Median miss-cycle overhead (%) of the fault-free cells that finished
/// correctly.
pub(crate) fn campaign_overhead_p50(doc: &Json) -> f64 {
    let xs: Vec<f64> = clean_ok_cells(doc)
        .filter_map(|r| r.get("overhead_pct").and_then(Json::as_f64))
        .collect();
    if xs.is_empty() {
        f64::NAN
    } else {
        crate::stats::median(&xs)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean useful cycles per boot over the power-loss cells that finished
/// correctly.
pub(crate) fn campaign_ucpb_mean(doc: &Json) -> f64 {
    let xs: Vec<f64> = rows(doc, "cells")
        .iter()
        .filter(|r| r.get("fault_seed") != Some(&Json::Null) && str_field(r, "status") == "ok")
        .map(|r| num_field(r, "ucpb"))
        .collect();
    mean(&xs)
}

/// Mean useful cycles per boot over the report's intermittent rows.
pub(crate) fn report_ucpb_mean(doc: &Json) -> f64 {
    let xs: Vec<f64> = rows(doc, "intermittent")
        .iter()
        .map(|r| num_field(r, "useful_cycles_per_boot"))
        .collect();
    mean(&xs)
}

/// Every SwapRAM run of the report that finished correctly, paired with
/// the baseline run of the same benchmark, profile, machine variant and
/// frequency.
fn report_pairs<'a>(doc: &'a Json) -> Vec<(&'a Json, &'a Json)> {
    let key = |r: &Json| {
        format!(
            "{}|{}|{}|{}",
            str_field(r, "bench"),
            str_field(r, "profile"),
            str_field(r, "variant"),
            num_field(r, "freq_mhz")
        )
    };
    let result = |r: &'a Json| r.get("result").unwrap_or(&Json::Null);
    let ok =
        |r: &'a Json| str_field(result(r), "status") == "ok" && bool_field(result(r), "correct");
    let runs = rows(doc, "runs");
    let baselines: BTreeMap<String, &Json> = runs
        .iter()
        .filter(|r| str_field(r, "system") == "baseline" && ok(r))
        .map(|r| (key(r), result(r)))
        .collect();
    runs.iter()
        .filter(|r| str_field(r, "system") == "SwapRAM" && ok(r))
        .filter_map(|r| baselines.get(&key(r)).map(|b| (result(r), *b)))
        .collect()
}

/// Geomean of baseline cycles / SwapRAM cycles over every SwapRAM run of
/// the report.
pub fn report_speedup_geo(doc: &Json) -> f64 {
    let xs: Vec<f64> = report_pairs(doc)
        .into_iter()
        .map(|(s, b)| num_field(b, "total_cycles") / num_field(s, "total_cycles"))
        .collect();
    geomean(&xs)
}

/// Geomean of SwapRAM energy / baseline energy over every SwapRAM run of
/// the report.
pub(crate) fn report_energy_ratio_geo(doc: &Json) -> f64 {
    let xs: Vec<f64> = report_pairs(doc)
        .into_iter()
        .map(|(s, b)| num_field(s, "energy_uj") / num_field(b, "energy_uj"))
        .collect();
    geomean(&xs)
}

/// FRAM accesses summed over the report's SwapRAM runs.
pub(crate) fn report_fram_accesses(doc: &Json) -> f64 {
    report_pairs(doc)
        .into_iter()
        .map(|(s, _)| num_field(s, "fram_accesses"))
        .sum()
}

/// FNV-1a digest of a pretty-printed `all` report without its `wall_ms`
/// lines, the only members that vary between reps at a fixed worker
/// count. The text is digested as written: parsing it would cost seconds
/// per rep.
pub fn report_digest(text: &str) -> u64 {
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"wall_ms\":"))
        .collect();
    fnv1a64(kept.join("\n").as_bytes())
}

/// Adds the campaign cell counters.
pub(crate) fn add_campaign_counters(doc: &Json, c: &mut Counters) {
    for row in rows(doc, "cells") {
        let status = str_field(row, "status");
        if row.get("fault_seed") != Some(&Json::Null) {
            c.add("campaign.boots", num_field(row, "boots"));
        }
        let name = match status {
            "ok" if bool_field(row, "correct") => "campaign.ok_cells",
            "dnf" => "campaign.dnf_cells",
            _ => "campaign.wrong_cells",
        };
        c.add(name, 1.0);
    }
}

/// Adds the report's fault-campaign counters.
pub(crate) fn add_report_counters(doc: &Json, c: &mut Counters) {
    for row in rows(doc, "intermittent") {
        c.add("intermittent.boots", num_field(row, "boots"));
        c.add("intermittent.sim_cycles", num_field(row, "total_cycles"));
        c.add("intermittent.resumes", num_field(row, "resumes"));
        c.add(
            "intermittent.checkpoint_commits",
            num_field(row, "checkpoint_commits"),
        );
    }
    for row in rows(doc, "resilience") {
        c.add("resilience.boots", num_field(row, "boots"));
    }
    for row in rows(doc, "concurrency") {
        c.add("concurrency.irq_delivered", num_field(row, "irq_delivered"));
    }
}
