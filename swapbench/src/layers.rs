//! Per-layer metrics of a traced rep: self-time shares from the spans,
//! plus counters read from the simulator, the runtimes, the harness and
//! the JSON the sweeps write.

use crate::trace::{layer_times, Span};
use blockcache::BlockStats;
use msp430_sim::{Category, Stats};
use std::collections::BTreeMap;
use swapram::SwapStats;

/// Every per-layer metric, with its unit, in report order. A self-time
/// share (`%`) is the layer's summed span self time over the traced rep's
/// wall time; the shares of one rep sum to 100. Layers a workload does not
/// reach read 0.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("trace.wall_ms", "ms"),
    ("bench.glue_pct", "%"),
    ("build.count", "count"),
    ("build.self_pct", "%"),
    ("build.parse_pct", "%"),
    ("build.pass_pct", "%"),
    ("sim.machine_pct", "%"),
    ("sim.prepare_pct", "%"),
    ("sim.run_pct", "%"),
    ("sim.mips", "Minstr/s"),
    ("sim.instructions", "count"),
    ("sim.instr.app_fram", "count"),
    ("sim.instr.app_sram", "count"),
    ("sim.instr.miss_handler", "count"),
    ("sim.instr.memcpy", "count"),
    ("sim.cycles", "count"),
    ("sim.unstalled_cycles", "count"),
    ("sim.wait_cycles", "count"),
    ("sim.contention_cycles", "count"),
    ("sim.hwcache_hit_ratio", "ratio"),
    ("sim.fram_accesses", "count"),
    ("sim.sram_accesses", "count"),
    ("swapram.misses", "count"),
    ("swapram.fills", "count"),
    ("swapram.fill_ratio", "ratio"),
    ("swapram.evictions", "count"),
    ("swapram.bytes_copied", "count"),
    ("swapram.active_fallbacks", "count"),
    ("swapram.frozen_fallbacks", "count"),
    ("swapram.too_large", "count"),
    ("swapram.guard_checks", "count"),
    ("swapram.degraded", "count"),
    ("blockcache.traps", "count"),
    ("blockcache.fills", "count"),
    ("blockcache.bytes_copied", "count"),
    ("harness.build_hit_ratio", "ratio"),
    ("harness.run_hit_ratio", "ratio"),
    ("harness.unique_builds", "count"),
    ("harness.unique_runs", "count"),
    ("harness.parallel_eff", "ratio"),
    ("campaign.measure_pct", "%"),
    ("campaign.episode_pct", "%"),
    ("campaign.boots", "count"),
    ("campaign.ok_cells", "count"),
    ("campaign.dnf_cells", "count"),
    ("campaign.wrong_cells", "count"),
    ("experiments.fig1_pct", "%"),
    ("experiments.table1_pct", "%"),
    ("experiments.fig7_pct", "%"),
    ("experiments.table2_pct", "%"),
    ("experiments.fig8_pct", "%"),
    ("experiments.fig9_24mhz_pct", "%"),
    ("experiments.fig9_8mhz_pct", "%"),
    ("experiments.fig10_pct", "%"),
    ("experiments.resilience_pct", "%"),
    ("experiments.corruption_pct", "%"),
    ("experiments.concurrency_pct", "%"),
    ("experiments.intermittent_pct", "%"),
    ("experiments.ablation_sweep_pct", "%"),
    ("experiments.ablation_policies_pct", "%"),
    ("experiments.ablation_pgo_pct", "%"),
    ("experiments.ablation_hw_cache_pct", "%"),
    ("json.write_pct", "%"),
    ("intermittent.boots", "count"),
    ("intermittent.sim_cycles", "count"),
    ("intermittent.resumes", "count"),
    ("intermittent.checkpoint_commits", "count"),
    ("resilience.boots", "count"),
    ("concurrency.irq_delivered", "count"),
    ("trace.spans", "count"),
];

/// Span names whose self time is simulation (the `sim.mips` denominator).
const SIM_SPANS: [&str; 4] = ["sim.machine", "sim.prepare", "sim.run", "campaign.measure"];

/// The share metric a span name feeds.
fn share_metric(span: &str) -> String {
    match span {
        "rep" => "bench.glue_pct".to_string(),
        "build" => "build.self_pct".to_string(),
        _ => format!("{span}_pct"),
    }
}

/// Counter values keyed by per-layer metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds one run's simulator statistics.
    pub fn add_stats(&mut self, s: &Stats) {
        self.add("sim.instructions", s.total_instructions() as f64);
        for (name, cat) in [
            ("sim.instr.app_fram", Category::AppFram),
            ("sim.instr.app_sram", Category::AppSram),
            ("sim.instr.miss_handler", Category::MissHandler),
            ("sim.instr.memcpy", Category::Memcpy),
        ] {
            self.add(name, s.instructions_in(cat) as f64);
        }
        self.add("sim.cycles", s.total_cycles() as f64);
        self.add("sim.unstalled_cycles", s.unstalled_cycles as f64);
        self.add("sim.wait_cycles", s.wait_cycles as f64);
        self.add("sim.contention_cycles", s.contention_cycles as f64);
        self.add("sim.hw_cache_hits", s.hw_cache_hits as f64);
        self.add("sim.hw_cache_misses", s.hw_cache_misses as f64);
        self.add("sim.fram_accesses", s.fram_accesses() as f64);
        self.add("sim.sram_accesses", s.sram_accesses() as f64);
    }

    /// Adds one run's SwapRAM runtime counters.
    pub fn add_swap(&mut self, s: &SwapStats) {
        for (name, v) in [
            ("swapram.misses", s.misses),
            ("swapram.fills", s.fills),
            ("swapram.evictions", s.evictions),
            ("swapram.bytes_copied", s.bytes_copied),
            ("swapram.active_fallbacks", s.active_fallbacks),
            ("swapram.frozen_fallbacks", s.frozen_fallbacks),
            ("swapram.too_large", s.too_large),
            ("swapram.guard_checks", s.guard_checks),
            ("swapram.degraded", s.degraded),
        ] {
            self.add(name, v as f64);
        }
    }

    /// Adds one run's block-cache runtime counters.
    pub fn add_block(&mut self, b: &BlockStats) {
        self.add("blockcache.traps", b.traps as f64);
        self.add("blockcache.fills", b.fills as f64);
        self.add("blockcache.bytes_copied", b.bytes_copied as f64);
    }
}

/// The per-layer metrics of one traced rep. `spans` must hold one root
/// span named `rep`; `executed_instructions` is what the simulation spans
/// executed in total. Every name of [`PER_LAYER`] is present; the caller
/// fills `harness.parallel_eff`, which needs an untraced rep.
pub fn metrics(
    spans: &[Span],
    counters: &Counters,
    executed_instructions: u64,
) -> BTreeMap<&'static str, f64> {
    let wall_ns = spans
        .iter()
        .find(|s| s.parent.is_none() && s.name == "rep")
        .map_or(0, Span::len_ns);
    let layers = layer_times(spans);
    let ns = |name: &str| layers.get(name).map_or(0, |l| l.self_ns) as f64;
    let pct = |x: f64| {
        if wall_ns == 0 {
            0.0
        } else {
            x / wall_ns as f64 * 100.0
        }
    };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

    let mut derived: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in &layers {
        derived.insert(share_metric(name), pct(t.self_ns as f64));
    }
    derived.insert("trace.wall_ms".into(), wall_ns as f64 / 1e6);
    derived.insert("trace.spans".into(), spans.len() as f64);
    derived.insert(
        "build.pass_pct".into(),
        pct((ns("build") - ns("build.parse")).max(0.0)),
    );
    let sim_ns: f64 = SIM_SPANS.iter().map(|s| ns(s)).sum();
    derived.insert(
        "sim.mips".into(),
        ratio(executed_instructions as f64 * 1e3, sim_ns),
    );
    let c = counters;
    derived.insert(
        "sim.hwcache_hit_ratio".into(),
        ratio(
            c.get("sim.hw_cache_hits"),
            c.get("sim.hw_cache_hits") + c.get("sim.hw_cache_misses"),
        ),
    );
    derived.insert(
        "swapram.fill_ratio".into(),
        ratio(c.get("swapram.fills"), c.get("swapram.misses")),
    );
    derived.insert(
        "harness.build_hit_ratio".into(),
        ratio(
            c.get("harness.build_hits"),
            c.get("harness.build_hits") + c.get("harness.build_misses"),
        ),
    );
    derived.insert(
        "harness.run_hit_ratio".into(),
        ratio(
            c.get("harness.run_hits"),
            c.get("harness.run_hits") + c.get("harness.run_misses"),
        ),
    );

    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            (
                name,
                derived.get(name).copied().unwrap_or_else(|| c.get(name)),
            )
        })
        .collect()
}
