//! Build and run benchmarks under each system and memory profile.
//!
//! A benchmark binary is assembled from three parts — a generated `crt0`
//! (stack setup, call to `main`, halt), the shared runtime library
//! (`lib.s`, the "libgcc" the paper instruments alongside application
//! code) and the benchmark source — then run either as the unmodified
//! baseline, under SwapRAM, or under the block-cache baseline.
//!
//! Memory placement is a [`MemoryProfile`]: the unified-memory FRAM layout
//! of the paper's main evaluation, the split-SRAM layout of §5.5, and the
//! four Figure-1 placements.

use crate::suite::Benchmark;
use blockcache::{bbpass, BlockConfig, BlockProgram, BlockRuntime, BlockStats};
use msp430_asm::error::{AsmError, AsmResult};
use msp430_asm::layout::LayoutConfig;
use msp430_asm::object::{assemble, Assembly};
use msp430_asm::parser::parse;
use msp430_sim::freq::Frequency;
use msp430_sim::irq::{IrqSchedule, IrqTimer};
use msp430_sim::machine::{Fr2355, Machine, RunOutcome};
use msp430_sim::mem::{AddrRange, Image};
use msp430_sim::sanitize::SanitizerConfig;
use swapram::{Instrumented, SwapConfig, SwapRuntime, SwapStats};

/// FRAM capacity of the evaluation device in bytes.
pub const FRAM_BYTES: u32 = 32 * 1024;
/// SRAM capacity of the evaluation device in bytes.
pub const SRAM_BYTES: u32 = 4 * 1024;

/// Section placement for a build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryProfile {
    /// Human-readable name (used in experiment tables).
    pub name: &'static str,
    /// Base of the code section.
    pub text_base: u16,
    /// Base of the data section.
    pub data_base: u16,
    /// Initial stack pointer.
    pub stack_top: u16,
}

impl MemoryProfile {
    /// Unified-memory model (paper §2.2/§5.4): code, data and stack all in
    /// FRAM; the whole SRAM is free for software caching.
    pub fn unified() -> MemoryProfile {
        MemoryProfile { name: "unified", text_base: 0x4000, data_base: 0x7000, stack_top: 0x9FFC }
    }

    /// The "standard" configuration: code in FRAM, data + stack in SRAM
    /// (the baseline of Figure 10; also the code-FRAM/data-SRAM point of
    /// Figure 1).
    pub fn code_fram_data_sram() -> MemoryProfile {
        MemoryProfile {
            name: "code FRAM / data SRAM",
            text_base: 0x4000,
            data_base: 0x2000,
            stack_top: 0x2FFC,
        }
    }

    /// Figure 1: code in SRAM, data in FRAM.
    pub fn code_sram_data_fram() -> MemoryProfile {
        MemoryProfile {
            name: "code SRAM / data FRAM",
            text_base: 0x2000,
            data_base: 0x7000,
            stack_top: 0x9FFC,
        }
    }

    /// Figure 1: everything in SRAM (only feasible for small programs).
    pub fn all_sram() -> MemoryProfile {
        MemoryProfile {
            name: "code+data SRAM",
            text_base: 0x2000,
            data_base: 0x2800,
            stack_top: 0x2FFC,
        }
    }

    /// Split-SRAM model (paper §5.5): program data and stack occupy the
    /// low `reserved` bytes of SRAM; code stays in FRAM and the remaining
    /// SRAM becomes the software cache.
    pub fn split_sram(reserved: u16) -> MemoryProfile {
        MemoryProfile {
            name: "split SRAM",
            text_base: 0x4000,
            data_base: 0x2000,
            stack_top: 0x2000 + reserved - 4,
        }
    }
}

/// Which system manages instruction supply.
#[derive(Debug, Clone, PartialEq)]
pub enum System {
    /// Unmodified binary; FRAM execution through the hardware cache.
    Baseline,
    /// SwapRAM with the given configuration.
    SwapRam(SwapConfig),
    /// The block-cache baseline with the given configuration.
    BlockCache(BlockConfig),
}

impl System {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            System::Baseline => "baseline",
            System::SwapRam(_) => "SwapRAM",
            System::BlockCache(_) => "block-based",
        }
    }
}

/// The program form a build produced.
#[derive(Debug, Clone)]
pub enum Program {
    /// Plain assembly.
    Base(Assembly),
    /// SwapRAM-instrumented.
    Swap(Box<Instrumented>, SwapConfig),
    /// Block-cache-transformed.
    Block(Box<BlockProgram>, BlockConfig),
}

/// Timer-interrupt wiring a build requests: the ISR vector resolved from
/// the assembled image and a default periodic tick. [`prepare`] arms a
/// timer with these values; experiment drivers may re-attach a custom
/// [`IrqTimer`] afterwards to impose seeded schedules — multi-task
/// benchmarks only make forward progress while ticks keep arriving, so
/// replacement schedules must keep a periodic tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqSetup {
    /// Address of the ISR entry point (`__isr_entry`).
    pub vector: u16,
    /// Default tick period in cycles for [`prepare`].
    pub default_period: u64,
}

/// A built benchmark ready to run.
#[derive(Debug, Clone)]
pub struct Built {
    /// Which benchmark.
    pub bench: Benchmark,
    /// The program and its system.
    pub program: Program,
    /// Memory profile used.
    pub profile: MemoryProfile,
    /// Address of the input buffer.
    pub input_addr: u16,
    /// Address of the shared-corpus buffer, when the benchmark uses one
    /// (stringsearch); the harness fills it with [`crate::corpus::text`].
    pub corpus_addr: Option<u16>,
    /// Code-section bytes (binary size, Table 1 / Figure 7 "application").
    pub text_bytes: u16,
    /// Data-section bytes (Table 1 "RAM usage" analogue, minus stack).
    pub data_bytes: u16,
    /// Cache metadata bytes in NVM (Figure 7 "metadata"), 0 for baseline.
    pub metadata_bytes: u16,
    /// Runtime code bytes in NVM (Figure 7 "runtime"), 0 for baseline.
    pub handler_bytes: u16,
    /// Timer-interrupt wiring, when the build carries an ISR (multi-task
    /// benchmarks always; single-task benchmarks under a SwapRAM config
    /// with [`SwapConfig::irq_harness`] set).
    pub irq: Option<IrqSetup>,
}

// The experiment harness shares `Built` artifacts across worker threads
// and clones them out of its memoizing cache; keep the struct plain owned
// data (no Rc/RefCell — those live only in per-run runtimes).
const _: () = {
    const fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<Built>();
};

impl Built {
    /// The loadable image.
    pub fn image(&self) -> &Image {
        match &self.program {
            Program::Base(a) => &a.image,
            Program::Swap(i, _) => &i.assembly.image,
            Program::Block(p, _) => &p.assembly.image,
        }
    }

    /// Total NVM usage: transformed application + runtime + metadata
    /// (data excluded, as in Figure 7).
    pub fn nvm_bytes(&self) -> u32 {
        u32::from(self.text_bytes) + u32::from(self.metadata_bytes) + u32::from(self.handler_bytes)
    }
}

/// Why a build failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The transformed program does not fit the device (Figure 7 "DNF").
    DoesNotFit(String),
    /// Any other assembly problem.
    Asm(AsmError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::DoesNotFit(msg) => write!(f, "does not fit (DNF): {msg}"),
            BuildError::Asm(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> BuildError {
        // Section overlaps and address-space overflows are exactly the
        // "does not fit on the evaluation platform" condition of §5.2.
        if e.msg.contains("overlap") || e.msg.contains("overflow") {
            BuildError::DoesNotFit(e.msg)
        } else {
            BuildError::Asm(e)
        }
    }
}

/// Generates the C runtime startup shim. With `irq_harness` the shim
/// enables interrupts around `main` (multi-task benchmarks instead
/// manage GIE themselves, inside `main`).
fn crt0(stack_top: u16, irq_harness: bool) -> String {
    let (eint, dint) = if irq_harness { ("    eint\n", "    dint\n") } else { ("", "") };
    format!(
        "\
    .equ CONSOLE, 0x0100
    .equ HALT, 0x0102
    .equ CKSUM, 0x0104
    .equ MARK, 0x0106
    .equ __stack_top, 0x{stack_top:04x}
    .text
    .global __start
    .func __start
__start:
    mov #__stack_top, sp
    mov #1, &MARK
{eint}    call #main
{dint}    mov #2, &MARK
    mov #0, &HALT
__halt_spin:
    jmp __halt_spin
    .endfunc
"
    )
}

/// Parses the full source (crt0 + shared library + benchmark) for `bench`.
///
/// # Errors
///
/// Returns parse errors from any of the three parts.
pub fn parse_benchmark(bench: Benchmark, profile: &MemoryProfile) -> AsmResult<msp430_asm::Module> {
    parse_benchmark_with(bench, profile, false)
}

/// Like [`parse_benchmark`], additionally appending the timer-ISR
/// harness (`irq.s`) and the interrupt-enabling crt0 when `irq_harness`
/// is set. Multi-task benchmarks carry their own ISR and ignore the
/// flag.
pub fn parse_benchmark_with(
    bench: Benchmark,
    profile: &MemoryProfile,
    irq_harness: bool,
) -> AsmResult<msp430_asm::Module> {
    let harness = irq_harness && !bench.is_multitask();
    let mut src = crt0(profile.stack_top, harness);
    if bench.uses_lib() {
        src.push_str(include_str!("asm/lib.s"));
        src.push('\n');
    }
    src.push_str(bench.asm_source());
    if harness {
        src.push('\n');
        src.push_str(include_str!("asm/irq.s"));
    }
    parse(&src)
}

fn layout_for(profile: &MemoryProfile) -> LayoutConfig {
    LayoutConfig::new(profile.text_base, profile.data_base)
}

/// Checks that every emitted section lies inside a mapped memory region.
fn check_fit(assembly: &Assembly) -> Result<(), BuildError> {
    for (name, base, size) in &assembly.sections {
        if *size == 0 {
            continue;
        }
        let end = u32::from(*base) + u32::from(*size);
        let in_sram = *base >= 0x2000 && end <= 0x3000;
        let in_fram = *base >= 0x4000 && end <= 0xC000;
        if !in_sram && !in_fram {
            return Err(BuildError::DoesNotFit(format!(
                "section `{name}` [{base:#06x}, {end:#07x}) exceeds its memory region"
            )));
        }
    }
    Ok(())
}

/// Builds `bench` for `system` under `profile`.
///
/// # Errors
///
/// [`BuildError::DoesNotFit`] when the (transformed) program exceeds the
/// device memory — the paper's DNF outcome — or any assembly error.
pub fn build(
    bench: Benchmark,
    system: &System,
    profile: &MemoryProfile,
) -> Result<Built, BuildError> {
    let irq_harness =
        matches!(system, System::SwapRam(cfg) if cfg.irq_harness) && !bench.is_multitask();
    let module = parse_benchmark_with(bench, profile, irq_harness).map_err(BuildError::Asm)?;
    let layout = layout_for(profile);
    let (program, metadata_bytes, handler_bytes, assembly_ref) = match system {
        System::Baseline => {
            let a = assemble(&module, &layout)?;
            (Program::Base(a.clone()), 0, 0, a)
        }
        System::SwapRam(cfg) => {
            // The ISR entry must stay at a stable address (it is the
            // interrupt vector): harness builds register it as an ISR
            // root (excluded + funcId-veneered under Masked); multi-task
            // builds blacklist it instead — their scheduler saves the
            // funcId word per task in the context frame, so veneering
            // with a single static slot would restore the wrong task's
            // publish state after a context switch.
            let mut cfg = cfg.clone();
            if irq_harness {
                cfg = cfg.with_isr_root("__isr_entry");
            }
            if bench.is_multitask() {
                cfg = cfg.with_blacklisted("__isr_entry");
            }
            let inst = swapram::pass::instrument(&module, &cfg, &layout)?;
            let (m, h) = (inst.metadata_bytes, inst.handler_bytes);
            let a = inst.assembly.clone();
            (Program::Swap(Box::new(inst), cfg), m, h, a)
        }
        System::BlockCache(cfg) => {
            let p = bbpass::transform(&module, cfg, &layout)?;
            let (m, h) = (p.metadata_bytes, p.handler_bytes);
            let a = p.assembly.clone();
            (Program::Block(Box::new(p), cfg.clone()), m, h, a)
        }
    };
    check_fit(&assembly_ref)?;
    let input_addr = assembly_ref
        .symbol("__input")
        .ok_or_else(|| BuildError::Asm(AsmError::global("benchmark lacks `__input`")))?;
    let irq = if irq_harness || bench.is_multitask() {
        let vector = assembly_ref
            .symbol("__isr_entry")
            .ok_or_else(|| BuildError::Asm(AsmError::global("ISR build lacks `__isr_entry`")))?;
        let default_period = if bench.is_multitask() { 7919 } else { 9973 };
        Some(IrqSetup { vector, default_period })
    } else {
        None
    };
    Ok(Built {
        bench,
        program,
        profile: *profile,
        input_addr,
        corpus_addr: assembly_ref.symbol("__corpus"),
        text_bytes: assembly_ref.section_size("text"),
        data_bytes: assembly_ref.section_size("data"),
        metadata_bytes,
        handler_bytes,
        irq,
    })
}

/// Everything a run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Simulator outcome (stats, checksum, console).
    pub outcome: RunOutcome,
    /// SwapRAM runtime counters, when applicable.
    pub swap: Option<SwapStats>,
    /// Block-cache runtime counters, when applicable.
    pub block: Option<BlockStats>,
}

/// Default cycle budget per benchmark run.
pub const DEFAULT_MAX_CYCLES: u64 = 2_000_000_000;

/// Runs a built benchmark at `freq` with `input` loaded into its input
/// buffer.
///
/// # Errors
///
/// Propagates simulation errors (bus faults indicate a benchmark or
/// instrumentation bug).
pub fn run(
    built: &Built,
    freq: Frequency,
    input: &[u8],
    max_cycles: u64,
) -> msp430_sim::SimResult<RunResult> {
    let mut machine = Fr2355::machine(freq);
    run_on(&mut machine, built, input, max_cycles)
}

/// Like [`run`], but on a caller-provided machine (e.g. one with the
/// hardware cache disabled, for ablation studies). The machine should be
/// freshly constructed.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_on(
    machine: &mut Machine,
    built: &Built,
    input: &[u8],
    max_cycles: u64,
) -> msp430_sim::SimResult<RunResult> {
    let (swap_handle, block_handle) = prepare(machine, built, input)?;
    let outcome = machine.run(max_cycles)?;
    Ok(RunResult {
        outcome,
        swap: swap_handle.map(|h| h.borrow().clone()),
        block: block_handle.map(|h| h.borrow().clone()),
    })
}

/// Everything [`run_on`] does before calling [`Machine::run`]: loads the
/// image, injects the input and corpus bytes, and attaches the sanitizer
/// and runtime hook. Public so differential tests can drive two machines
/// in lockstep with [`Machine::step`] and compare state between steps.
///
/// # Errors
///
/// Propagates runtime-construction errors (corrupted metadata).
pub fn prepare(
    machine: &mut Machine,
    built: &Built,
    input: &[u8],
) -> msp430_sim::SimResult<(Option<SwapHandle>, Option<BlockHandle>)> {
    machine.load(built.image());
    poke_inputs(machine, built, input);
    if let Some(irq) = &built.irq {
        let schedule = IrqSchedule::periodic(irq.default_period, irq.default_period);
        machine.bus_mut().attach_timer(IrqTimer::new(schedule, irq.vector));
    }
    attach(machine, built)
}

/// Writes `input` into the build's input buffer and, for benchmarks that
/// scan a text corpus, the corpus into its buffer (host-side, no
/// accounting).
pub fn poke_inputs(machine: &mut Machine, built: &Built, input: &[u8]) {
    for (i, b) in input.iter().enumerate() {
        machine.bus_mut().poke_byte(built.input_addr.wrapping_add(i as u16), *b);
    }
    if let Some(base) = built.corpus_addr {
        for (i, b) in crate::corpus::text().iter().enumerate() {
            machine.bus_mut().poke_byte(base.wrapping_add(i as u16), *b);
        }
    }
}

/// A fresh SwapRAM runtime for `inst`. Under the Masked protocol the
/// runtime trusts the scheduler's task-control blocks (`__tcb0`, when
/// the build has them): suspended task stacks are scanned for return
/// addresses that pin cached copies against eviction.
pub fn swap_runtime(inst: &Instrumented, cfg: &SwapConfig) -> SwapRuntime {
    let mut rt = SwapRuntime::new(inst, cfg.clone());
    if cfg.isr_protocol == swapram::IsrProtocol::Masked {
        if let Some(tcb0) = inst.assembly.symbol("__tcb0") {
            rt.set_task_table(tcb0, 2);
        }
    }
    rt
}

/// Shared handle to the SwapRAM runtime's counters, live while the
/// machine runs.
pub type SwapHandle = std::rc::Rc<std::cell::RefCell<SwapStats>>;
/// Shared handle to the block-cache runtime's counters.
pub type BlockHandle = std::rc::Rc<std::cell::RefCell<BlockStats>>;

/// Range of a named non-empty section.
pub fn section_range(assembly: &Assembly, name: &str) -> Option<AddrRange> {
    assembly
        .sections
        .iter()
        .find(|(n, _, size)| n == name && *size > 0)
        .map(|(_, base, size)| AddrRange::new(*base, u32::from(*base) + u32::from(*size)))
}

/// Floor for the stack pointer: the end of the data section. In every
/// memory profile the stack grows down from `stack_top` toward the data
/// section, so dropping below it means the stack is eating program state
/// (and, in split-SRAM profiles, heading for the cache window).
fn stack_floor(assembly: &Assembly, profile: &MemoryProfile) -> Option<u16> {
    let end = section_range(assembly, "data")
        .map_or(u32::from(profile.data_base), |r| r.end)
        .min(0xFFFF) as u16;
    (profile.stack_top > end).then_some(end)
}

/// Builds the execution-sanitizer watchpoint configuration for a built
/// benchmark: instruction fetch is confined to the transformed text
/// section plus the SRAM cache window (with fill tracking on the window),
/// application stores may not touch code, metadata tables or the cache
/// window except through the instrumentation-planted metadata words
/// (`__sr_fid` + active counters for SwapRAM, `__bb_cur` for the block
/// cache), and the stack pointer must stay above the data section.
///
/// Returns `None` for the baseline: nothing moves code or metadata at
/// runtime, so there is nothing to watch.
pub fn sanitizer_for(built: &Built) -> Option<SanitizerConfig> {
    let (assembly, cache, tables, store_allow) = match &built.program {
        Program::Base(_) => return None,
        Program::Swap(inst, cfg) => {
            let cache = AddrRange::new(
                cfg.cache_base,
                u32::from(cfg.cache_base) + u32::from(cfg.cache_size),
            );
            let mut allow = vec![inst.fid_addr];
            allow.extend(inst.funcs.iter().map(|f| f.act_addr));
            // Masked-protocol ISR veneers save/restore the funcId word
            // through per-root slots in the metadata tables.
            allow.extend(inst.isr_slots.iter().map(|(_, addr)| *addr));
            let tables = section_range(&inst.assembly, swapram::tables::TABLES_SECTION);
            (&inst.assembly, cache, tables, allow)
        }
        Program::Block(prog, cfg) => {
            let cache = AddrRange::new(
                cfg.cache_base,
                u32::from(cfg.cache_base) + u32::from(cfg.cache_size),
            );
            let tables = section_range(&prog.assembly, bbpass::TABLES_SECTION);
            (&prog.assembly, cache, tables, vec![prog.cur_addr])
        }
    };
    let text = section_range(assembly, "text");
    // Multi-task benchmarks park task 1's stack inside the data section
    // (a statically allocated stack + context frame), so the single-stack
    // floor does not apply to them.
    let stack_limit = if built.bench.is_multitask() {
        None
    } else {
        stack_floor(assembly, &built.profile)
    };
    Some(SanitizerConfig {
        exec: text.iter().copied().chain([cache]).collect(),
        tracked: Some(cache),
        protected: text.iter().copied().chain(tables).chain([cache]).collect(),
        store_allow,
        stack_limit,
    })
}

fn attach(
    machine: &mut Machine,
    built: &Built,
) -> msp430_sim::SimResult<(Option<SwapHandle>, Option<BlockHandle>)> {
    if let Some(cfg) = sanitizer_for(built) {
        machine.bus_mut().attach_sanitizer(cfg);
    }
    match &built.program {
        Program::Base(_) => Ok((None, None)),
        Program::Swap(inst, cfg) => {
            let rt = swap_runtime(inst, cfg);
            let h = rt.stats_handle();
            machine.attach_hook(Box::new(rt));
            Ok((Some(h), None))
        }
        Program::Block(prog, cfg) => {
            let rt = BlockRuntime::new(prog, cfg.clone())?;
            let h = rt.stats_handle();
            machine.attach_hook(Box::new(rt));
            Ok((None, Some(h)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_builds_under_every_system() {
        let profile = MemoryProfile::unified();
        for bench in Benchmark::MIBENCH {
            for system in [
                System::Baseline,
                System::SwapRam(swapram::SwapConfig::unified_fr2355()),
                System::BlockCache(BlockConfig::unified_fr2355()),
            ] {
                let b = build(bench, &system, &profile)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", bench.name(), system.label()));
                assert!(b.text_bytes > 0, "{}", bench.name());
                assert!(b.image().size_bytes() > 0);
            }
        }
    }

    #[test]
    fn dnf_detection_fires_on_impossible_regions() {
        // Squeeze the text region to 64 bytes: every benchmark overflows
        // into the data base and must report DoesNotFit.
        let profile = MemoryProfile {
            name: "tiny",
            text_base: 0x4000,
            data_base: 0x4040,
            stack_top: 0x9FFC,
        };
        let err = build(Benchmark::Crc, &System::Baseline, &profile).unwrap_err();
        assert!(matches!(err, BuildError::DoesNotFit(_)), "{err}");
    }

    #[test]
    fn sram_code_placement_is_fit_checked() {
        // LZFX data (~5.7 KiB) cannot live in the 4 KiB SRAM.
        let profile = MemoryProfile {
            name: "data-in-sram",
            text_base: 0x4000,
            data_base: 0x2000,
            stack_top: 0x2FFC,
        };
        let err = build(Benchmark::Lzfx, &System::Baseline, &profile).unwrap_err();
        assert!(matches!(err, BuildError::DoesNotFit(_)), "{err}");
    }

    #[test]
    fn sanitizer_watchpoints_cover_cache_and_metadata() {
        let profile = MemoryProfile::unified();
        let base = build(Benchmark::Crc, &System::Baseline, &profile).unwrap();
        assert!(sanitizer_for(&base).is_none(), "baseline has nothing to watch");

        let swap = build(
            Benchmark::Crc,
            &System::SwapRam(swapram::SwapConfig::unified_fr2355()),
            &profile,
        )
        .unwrap();
        let cfg = sanitizer_for(&swap).expect("SwapRAM runs are sanitized");
        let Program::Swap(inst, scfg) = &swap.program else { unreachable!() };
        assert!(cfg.exec.iter().any(|r| r.contains(profile.text_base)));
        assert!(cfg.exec.iter().any(|r| r.contains(scfg.cache_base)));
        assert_eq!(cfg.tracked.unwrap().start, scfg.cache_base);
        // The funcId word lives in the metadata tables: protected, but on
        // the allow-list (call sites write it), as are the act counters.
        assert!(cfg.protected.iter().any(|r| r.contains(inst.fid_addr)));
        assert!(cfg.store_allow.contains(&inst.fid_addr));
        for f in &inst.funcs {
            assert!(cfg.store_allow.contains(&f.act_addr), "{}", f.name);
            assert!(cfg.protected.iter().any(|r| r.contains(f.redir_addr)), "{}", f.name);
            assert!(!cfg.store_allow.contains(&f.redir_addr), "{}", f.name);
        }
        assert!(cfg.stack_limit.is_some());

        let blk = build(
            Benchmark::Crc,
            &System::BlockCache(BlockConfig::unified_fr2355()),
            &profile,
        )
        .unwrap();
        let bcfg = sanitizer_for(&blk).expect("block-cache runs are sanitized");
        let Program::Block(prog, _) = &blk.program else { unreachable!() };
        assert!(bcfg.protected.iter().any(|r| r.contains(prog.cur_addr)));
        assert_eq!(bcfg.store_allow, vec![prog.cur_addr]);
    }

    #[test]
    fn metadata_sizes_reported_only_for_cache_systems() {
        let profile = MemoryProfile::unified();
        let base = build(Benchmark::Rsa, &System::Baseline, &profile).unwrap();
        assert_eq!(base.metadata_bytes, 0);
        assert_eq!(base.handler_bytes, 0);
        let swap = build(
            Benchmark::Rsa,
            &System::SwapRam(swapram::SwapConfig::unified_fr2355()),
            &profile,
        )
        .unwrap();
        assert!(swap.metadata_bytes > 0);
        assert!(swap.handler_bytes > 0);
        assert!(swap.nvm_bytes() > u32::from(base.text_bytes));
    }
}
