//! The four workloads, the end-to-end metrics, and each workload's set-up.

use blockcache::BlockConfig;
use experiments::campaign::CampaignSpec;
use mibench::{Benchmark, MemoryProfile, System};
use swapram::SwapConfig;

/// A named workload. Library workloads call the simulator crates directly
/// from a child process; sweep workloads time the repository's own
/// `campaign` / `all` binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Steady-state simulation of the Figure-9 matrix: few SwapRAM misses,
    /// so dispatch and accounting in `msp430-sim` do nearly all the work.
    SimSteady,
    /// Tiny SwapRAM caches under four policies: code is rewritten
    /// constantly, so invalidation, re-decode and the runtime carry the
    /// load.
    SwapThrash,
    /// `campaign --spec fast`: harness memo, worker pool and fault-episode
    /// replay, on a sweep where every cell is correct.
    CampaignFast,
    /// `all`: the full paper report, dominated by fault episodes.
    PaperReport,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SimSteady,
        Workload::SwapThrash,
        Workload::CampaignFast,
        Workload::PaperReport,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimSteady => "sim-steady",
            Workload::SwapThrash => "swap-thrash",
            Workload::CampaignFast => "campaign-fast",
            Workload::PaperReport => "paper-report",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether reps run library calls in a child (as opposed to a binary).
    pub fn is_library(self) -> bool {
        matches!(self, Workload::SimSteady | Workload::SwapThrash)
    }

    /// The repository binary a sweep workload runs, with its arguments.
    pub fn sweep_command(self) -> Option<(&'static str, &'static [&'static str])> {
        match self {
            Workload::CampaignFast => Some(("campaign", &["--spec", "fast", "--json", "out.json"])),
            Workload::PaperReport => Some(("all", &["--json", "out.json"])),
            Workload::SimSteady | Workload::SwapThrash => None,
        }
    }

    /// Images whose cold `mibench::build` is timed as `setup_s`: every
    /// image a library workload runs, every unique image of the campaign
    /// sweep (baselines included), and for the report the 27 Figure-9
    /// images. The report builds 134 images, but its harness keeps their
    /// configurations private and its JSON names them only by `Debug` text,
    /// so the benchmark can rebuild no more than this subset of them.
    pub fn setup_images(self, seed: u64) -> Vec<(Benchmark, System, MemoryProfile)> {
        match self {
            Workload::SimSteady | Workload::PaperReport => main_images(),
            Workload::SwapThrash => thrash_images(),
            Workload::CampaignFast => {
                let mut out: Vec<(Benchmark, System, MemoryProfile)> = Vec::new();
                for cell in CampaignSpec::fast(seed).cells() {
                    for system in [System::Baseline, cell.system()] {
                        let image = (cell.bench, system, cell.profile());
                        if !out.contains(&image) {
                            out.push(image);
                        }
                    }
                }
                out
            }
        }
    }
}

/// The end-to-end metrics every workload reports: name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("swap_speedup_geo", "x"),
];

/// Worker threads a sweep uses: two, or fewer on a smaller machine, so a
/// rep never runs more threads than there are cores.
pub fn sweep_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The Figure-9 systems on the unified profile for all nine MiBench
/// benchmarks.
pub(crate) fn main_images() -> Vec<(Benchmark, System, MemoryProfile)> {
    let systems = [
        System::Baseline,
        System::BlockCache(BlockConfig::unified_fr2355()),
        System::SwapRam(SwapConfig::unified_fr2355()),
    ];
    Benchmark::MIBENCH
        .into_iter()
        .flat_map(|b| systems.clone().map(|s| (b, s, MemoryProfile::unified())))
        .collect()
}

/// The benchmarks `swap-thrash` runs.
const THRASH_BENCHES: [Benchmark; 5] = [
    Benchmark::Fft,
    Benchmark::Aes,
    Benchmark::Bitcount,
    Benchmark::Rsa,
    Benchmark::Dijkstra,
];

/// SwapRAM cache sizes of `swap-thrash`, a sixteenth and about a tenth of
/// the 4 KiB default, so misses, evictions and copies recur all run long.
const THRASH_CACHE_BYTES: [u16; 2] = [0x100, 0x180];

/// Baselines plus SwapRAM at each thrash cache size under every policy.
pub(crate) fn thrash_images() -> Vec<(Benchmark, System, MemoryProfile)> {
    use swapram::PolicyKind;
    let policies = [
        PolicyKind::CircularQueue,
        PolicyKind::Stack,
        PolicyKind::PriorityCost,
        PolicyKind::FreezeOnThrash,
    ];
    let mut out = Vec::new();
    for bench in THRASH_BENCHES {
        out.push((bench, System::Baseline, MemoryProfile::unified()));
        for cache_size in THRASH_CACHE_BYTES {
            for policy in policies {
                let cfg = SwapConfig {
                    cache_size,
                    ..SwapConfig::unified_fr2355()
                }
                .with_policy(policy);
                out.push((bench, System::SwapRam(cfg), MemoryProfile::unified()));
            }
        }
    }
    out
}
