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
//! four Figure-1 placements. Every build carries its checked [`Layout`].

pub use crate::layout::MemoryProfile;
use crate::layout::{Layout, Role};
use crate::suite::Benchmark;
use blockcache::{bbpass, BlockConfig, BlockProgram, BlockRuntime, BlockStats};
use msp430_asm::error::{AsmError, AsmResult};
use msp430_asm::layout::LayoutConfig;
use msp430_asm::object::{assemble, Assembly};
use msp430_asm::parser::parse;
use msp430_sim::freq::Frequency;
use msp430_sim::irq::{IrqSchedule, IrqTimer};
use msp430_sim::machine::{Fr2355, Machine, RunOutcome};
use msp430_sim::mem::Image;
use msp430_sim::sanitize::SanitizerConfig;
use swapram::{Instrumented, SwapConfig, SwapRuntime, SwapStats};

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

impl Program {
    /// The assembled program.
    pub fn assembly(&self) -> &Assembly {
        match self {
            Program::Base(a) => a,
            Program::Swap(i, _) => &i.assembly,
            Program::Block(p, _) => &p.assembly,
        }
    }
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
    /// Where every region of the build lies, as its memory profile placed
    /// it (checked).
    pub layout: Layout,
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
        &self.program.assembly().image
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
    let placement = LayoutConfig::new(profile.text_base, profile.data_base);
    let (program, metadata_bytes, handler_bytes) = match system {
        System::Baseline => (Program::Base(assemble(&module, &placement)?), 0, 0),
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
            let inst = swapram::pass::instrument(&module, &cfg, &placement)?;
            let (m, h) = (inst.metadata_bytes, inst.handler_bytes);
            (Program::Swap(Box::new(inst), cfg), m, h)
        }
        System::BlockCache(cfg) => {
            let p = bbpass::transform(&module, &placement)?;
            let (m, h) = (p.metadata_bytes, p.handler_bytes);
            (Program::Block(Box::new(p), cfg.clone()), m, h)
        }
    };
    let layout = Layout::new(&program, profile);
    layout.check()?;
    let assembly = program.assembly();
    let input_addr = assembly
        .symbol("__input")
        .ok_or_else(|| BuildError::Asm(AsmError::global("benchmark lacks `__input`")))?;
    let irq = if irq_harness || bench.is_multitask() {
        let vector = assembly
            .symbol("__isr_entry")
            .ok_or_else(|| BuildError::Asm(AsmError::global("ISR build lacks `__isr_entry`")))?;
        let default_period = if bench.is_multitask() { 7919 } else { 9973 };
        Some(IrqSetup { vector, default_period })
    } else {
        None
    };
    Ok(Built {
        bench,
        corpus_addr: assembly.symbol("__corpus"),
        text_bytes: assembly.section_size("text"),
        data_bytes: assembly.section_size("data"),
        program,
        layout,
        input_addr,
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
    machine.bus_mut().poke_bytes(built.input_addr, input);
    if let Some(base) = built.corpus_addr {
        machine.bus_mut().poke_bytes(base, crate::corpus::text());
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

/// Builds the execution-sanitizer watchpoint configuration for a built
/// benchmark from its [`Layout`]: instruction fetch is confined to the
/// text section plus the SRAM cache window (with fill tracking on the
/// window), application stores may not touch code, metadata tables or the
/// cache window except through the instrumentation-planted metadata words
/// (`__sr_fid` + active counters for SwapRAM, `__bb_cur` for the block
/// cache), and the stack pointer must stay above the stack's floor. A
/// baseline has no cache or tables: its text and stack floor are watched.
pub fn sanitizer_for(built: &Built) -> SanitizerConfig {
    let layout = &built.layout;
    let text = layout.section("text");
    let cache = layout.get(Role::Cache);
    let store_allow = match &built.program {
        Program::Base(_) => Vec::new(),
        Program::Swap(inst, _) => {
            let mut allow = vec![inst.fid_addr];
            allow.extend(inst.funcs.iter().map(|f| f.act_addr));
            // Masked-protocol ISR veneers save/restore the funcId word
            // through per-root slots in the metadata tables.
            allow.extend(inst.isr_slots.iter().map(|(_, addr)| *addr));
            allow
        }
        Program::Block(prog, _) => vec![prog.cur_addr],
    };
    // Multi-task benchmarks park task 1's stack inside the data section
    // (a statically allocated stack + context frame), so the single-stack
    // floor does not apply to them.
    let stack_limit = if built.bench.is_multitask() {
        None
    } else {
        layout.get(Role::Stack).map(|stack| stack.start)
    };
    SanitizerConfig {
        exec: text.into_iter().chain(cache).collect(),
        tracked: cache,
        protected: text.into_iter().chain(layout.get(Role::Tables)).chain(cache).collect(),
        store_allow,
        stack_limit,
    }
}

fn attach(
    machine: &mut Machine,
    built: &Built,
) -> msp430_sim::SimResult<(Option<SwapHandle>, Option<BlockHandle>)> {
    machine.bus_mut().attach_sanitizer(sanitizer_for(built));
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
    fn fixed_runtime_layout_fits_every_profile() {
        assert_eq!(MemoryProfile::unified().stack_top + 4, swapram::STACK_TOP);
        let fixed = |profile| {
            (
                profile,
                SwapConfig::unified_fr2355(),
                BlockConfig::unified_fr2355(),
            )
        };
        let split = |n| {
            (
                MemoryProfile::split_sram(n),
                SwapConfig::split_fr2355(n),
                BlockConfig::split_fr2355(n),
            )
        };
        let plans = [
            fixed(MemoryProfile::unified()),
            fixed(MemoryProfile::code_fram_data_sram()),
            fixed(MemoryProfile::code_sram_data_fram()),
            fixed(MemoryProfile::all_sram()),
            split(0x400),
            split(0x800),
        ];
        let benches = Benchmark::MIBENCH
            .into_iter()
            .chain(Benchmark::MULTITASK)
            .chain([Benchmark::Arith]);
        let mut fit = 0;
        for bench in benches {
            for (profile, swap, block) in &plans {
                for system in [
                    System::Baseline,
                    System::SwapRam(swap.clone()),
                    System::BlockCache(block.clone()),
                ] {
                    let what =
                        format!("{}/{}/{:#06x}", bench.name(), system.label(), profile.stack_top);
                    match build(bench, &system, profile) {
                        Ok(b) => {
                            b.layout.check().unwrap_or_else(|e| panic!("{what}: {e}"));
                            fit += 1;
                        }
                        Err(BuildError::DoesNotFit(_)) => {}
                        // The multi-task benchmarks run only under SwapRAM.
                        Err(e) => assert!(
                            bench.is_multitask() && !matches!(system, System::SwapRam(_)),
                            "{what}: {e}"
                        ),
                    }
                }
            }
        }
        // 216 plans minus the multi-task benchmarks under baseline and
        // block, the unified cache over the data or text of the three SRAM
        // profiles, every system on stringsearch (data past the stack top
        // at both splits) and lzfx (data past SRAM), and commscompress's
        // data past its stack top at the 1 KiB split.
        assert_eq!(fit, 110);
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
        let text = base.layout.section("text").unwrap();
        let stack = base.layout.get(Role::Stack).unwrap();
        let cfg = sanitizer_for(&base);
        assert_eq!(cfg.exec, vec![text], "a baseline executes its text only");
        assert_eq!(cfg.protected, vec![text]);
        assert!(cfg.tracked.is_none() && cfg.store_allow.is_empty());
        assert_eq!(cfg.stack_limit, Some(stack.start));
        assert_eq!(stack.start, base.layout.section("data").unwrap().end as u16);

        let swap = build(
            Benchmark::Crc,
            &System::SwapRam(swapram::SwapConfig::unified_fr2355()),
            &profile,
        )
        .unwrap();
        let cfg = sanitizer_for(&swap);
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
        let bcfg = sanitizer_for(&blk);
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
