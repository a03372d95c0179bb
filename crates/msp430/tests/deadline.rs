//! Differential gate for deadline batching: at every cycle offset of a
//! small program, one event — a power loss, a code bit flip, a one-shot
//! timer fire, or the phase of a periodic timer — lands on the same
//! instruction boundary under both engines.
//!
//! [`Machine::run`] lets the pre-decoded engine execute straight to the
//! next fault or timer fire, chaining block into block, while the
//! interpreter acts after every instruction. The program exercises every
//! place the batch must stop early: loops and calls (block chaining), a
//! trap into the runtime window, an ISR ending in `reti`, a `dint`/`eint`
//! critical section (a latched but undelivered interrupt) and a store
//! that patches its own code. For each offset both engines must agree on
//! every run's result (exit reason, statistics, console, checksum), the
//! hook's log of traps and interrupt boundaries, the register file and
//! all writable memory.

use msp430_asm::layout::LayoutConfig;
use msp430_asm::object::{assemble, Assembly};
use msp430_asm::parser::parse;
use msp430_sim::mem::AddrRange;
use msp430_sim::{
    Bus, Cpu, Engine, ExitReason, FaultEvent, FaultKind, FaultPlan, Frequency, Hook, IrqBoundary,
    IrqSchedule, IrqTimer, Machine, Reg, RunOutcome, SanitizerConfig, SimResult, TrapAction,
    Violation,
};
use msp430_sim::machine::Fr2355;

/// `__start` sums `1..=n` in `work` for `n = 12..1`, trapping into the
/// runtime window once per pass, folding the sum in a `dint` loop, and then
/// patching the immediate of the `add` at `patch` with the loop counter —
/// a store into the block that is executing. The ISR reads and writes
/// SRAM, counts itself in r8 and returns with `reti`.
const SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x2ffe, sp
    mov #0, r8
    mov #0, r9
    mov #0, r10
    mov #12, r11
    eint
outer:
    mov r11, r12
    call #work
    add r12, r10
    call #0x0F00
    dint
    mov r10, r13
    mov #6, r14
crit:
    rla r13
    dec r14
    jnz crit
    add r13, r10
    eint
    mov r11, &patch+2
patch:
    add #0x1234, r10
    dec r11
    jnz outer
    dint
    mov r10, &0x0104
    mov r9, &0x0104
    mov r8, &0x0104
    mov #0, &0x0102
    .endfunc
    .func work
work:
    push r11
    mov #0, r11
w_loop:
    add r12, r11
    mov r11, &0x2100
    dec r12
    jnz w_loop
    mov r11, r12
    pop r11
    ret
    .endfunc
    .func isr
isr:
    inc r8
    push r12
    mov &0x2100, r12
    add r12, &0x2102
    pop r12
    reti
    .endfunc
";

/// Budget per run: a few times the clean run, so a bit flip that turns
/// the program into an endless loop ends at the cycle limit.
const BUDGET: u64 = 12_000;
/// Offsets tried: every cycle of the clean run and a little past it.
const WINDOW: u64 = 1_900;
/// Period of the periodic-timer scenario: short enough that fires land
/// in the `dint` loop and across the trap.
const PERIOD: u64 = 97;
/// A period long enough that the ISR's whole block fits before the next
/// fire, so the engine may skip polls inside it.
const SLOW_PERIOD: u64 = 400;
/// The only address the hook serves; anything else a corrupted program
/// jumps to in the trap window halts.
const TRAP: u16 = 0x0F00;

/// Logs every trap, interrupt boundary and power failure with the cycle
/// and PC it saw; serves `call #0x0F00` by counting in r9 and returning.
#[derive(Default)]
struct Runtime {
    log: Vec<(u8, u64, u16)>,
}

impl Runtime {
    fn note(&mut self, what: u8, cpu: &Cpu, bus: &Bus) {
        self.log.push((what, bus.stats().total_cycles(), cpu.pc()));
    }
}

impl Hook for Runtime {
    fn on_trap(&mut self, cpu: &mut Cpu, bus: &mut Bus, trap_pc: u16) -> SimResult<TrapAction> {
        self.note(b't', cpu, bus);
        if trap_pc != TRAP {
            return Ok(TrapAction::Halt(0xBAD));
        }
        cpu.set_reg(Reg::r(9), cpu.reg(Reg::r(9)).wrapping_add(1));
        let sp = cpu.sp();
        let ret = bus.read_word_data(sp)?;
        cpu.set_sp(sp.wrapping_add(2));
        cpu.set_pc(ret);
        Ok(TrapAction::Resume)
    }

    fn on_interrupt_boundary(
        &mut self,
        cpu: &mut Cpu,
        bus: &mut Bus,
        boundary: IrqBoundary,
    ) -> SimResult<()> {
        self.note(if boundary == IrqBoundary::Entry { b'e' } else { b'r' }, cpu, bus);
        Ok(())
    }

    fn on_power_failing(&mut self, cpu: &mut Cpu, bus: &mut Bus) -> SimResult<()> {
        self.note(b'p', cpu, bus);
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// The single event placed at offset `k`.
#[derive(Debug, Clone, Copy)]
enum Event {
    PowerLoss,
    CodeFlip,
    OneShotIrq,
    PeriodicIrq,
    /// A periodic timer of phase `k` whose ISR lies outside the
    /// sanitizer's executable range: its first instruction, `inc r8`,
    /// latches a wild jump at fetch although it stores nothing.
    PeriodicIrqIntoNoExec,
}

fn program() -> Assembly {
    assemble(&parse(SRC).unwrap(), &LayoutConfig::new(0x4000, 0x2000)).unwrap()
}

/// Watchpoints allowing fetches from `[start, end)` only, with a stack
/// floor.
fn sanitizer(start: u16, end: u32) -> SanitizerConfig {
    SanitizerConfig {
        exec: vec![AddrRange::new(start, end)],
        tracked: None,
        protected: Vec::new(),
        store_allow: Vec::new(),
        stack_limit: Some(0x2f00),
    }
}

/// Everything one episode produced besides the final machine.
#[derive(Debug, PartialEq)]
struct Episode {
    runs: Vec<SimResult<RunOutcome>>,
    logs: Vec<Vec<(u8, u64, u16)>>,
}

fn take_log(m: &mut Machine) -> Vec<(u8, u64, u16)> {
    let hook = m.take_hook().expect("hook attached");
    hook.as_any().unwrap().downcast_ref::<Runtime>().unwrap().log.clone()
}

/// Runs the program with `event` at offset `k` under `engine`; a power
/// loss reboots once (cold start from the entry) and runs to the end.
fn episode(asm: &Assembly, engine: Engine, event: Option<(Event, u64)>) -> (Machine, Episode) {
    let mut m = Fr2355::machine(Frequency::MHZ_24);
    m.set_engine(engine);
    m.load(&asm.image);
    m.attach_hook(Box::<Runtime>::default());
    let isr = asm.symbol("isr").unwrap();
    let (text, size) = asm.sections.iter().find(|s| s.0 == "text").map(|s| (s.1, s.2)).unwrap();
    match event {
        None => {}
        Some((Event::PowerLoss, k)) => {
            let loss = FaultEvent { cycle: k, kind: FaultKind::PowerLoss };
            m.attach_fault_plan(FaultPlan::new(vec![loss]));
        }
        Some((Event::CodeFlip, k)) => {
            let addr = text + (k * 7 % u64::from(size)) as u16;
            let bit = (k % 8) as u8;
            m.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
                cycle: k,
                kind: FaultKind::BitFlip { addr, bit },
            }]));
            // A corrupted program may run wild: the sanitizer stops it at
            // the first fetch outside the text or the first stack overflow.
            m.bus_mut().attach_sanitizer(sanitizer(text, u32::from(text) + u32::from(size)));
        }
        Some((Event::OneShotIrq, k)) => {
            m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::at(vec![k]), isr));
        }
        Some((Event::PeriodicIrq, k)) => {
            m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::periodic(PERIOD, k), isr));
        }
        Some((Event::PeriodicIrqIntoNoExec, k)) => {
            let schedule = IrqSchedule::periodic(SLOW_PERIOD, k);
            m.bus_mut().attach_timer(IrqTimer::new(schedule, isr));
            // The ISR is the last function of the text.
            m.bus_mut().attach_sanitizer(sanitizer(text, u32::from(isr)));
        }
    }
    let mut ep = Episode { runs: Vec::new(), logs: Vec::new() };
    loop {
        let out = m.run(BUDGET);
        let lost = matches!(&out, Ok(o) if o.exit == ExitReason::PowerLoss);
        ep.runs.push(out);
        ep.logs.push(take_log(&mut m));
        if !lost {
            break;
        }
        m.power_cycle();
        m.attach_hook(Box::<Runtime>::default());
    }
    (m, ep)
}

/// Asserts both engines agree on the episode at every offset below
/// `window` for `event`; returns the episodes.
fn every_offset(event: Event, window: u64) -> Vec<Episode> {
    let asm = program();
    let mut episodes = Vec::new();
    for k in 0..window {
        let (a, ea) = episode(&asm, Engine::Interp, Some((event, k)));
        let (b, eb) = episode(&asm, Engine::Predecoded, Some((event, k)));
        assert_eq!(ea, eb, "{event:?} at {k}: runs or hook logs diverged");
        for r in 0..16 {
            assert_eq!(a.cpu().reg(Reg::r(r)), b.cpu().reg(Reg::r(r)), "{event:?} at {k}: r{r}");
        }
        // Other stores fault or reach the ports (part of the outcome), so
        // SRAM and FRAM hold all the memory a run can change.
        let map = a.bus().map();
        let mut addrs =
            [map.sram, map.fram].into_iter().flat_map(|r| r.start..=(r.end - 1) as u16);
        if let Some(x) = addrs.find(|&x| a.bus().peek_byte(x) != b.bus().peek_byte(x)) {
            panic!("{event:?} at {k}: memory differs at 0x{x:04x}");
        }
        episodes.push(ea);
    }
    episodes
}

/// The window covers the whole clean run, and the program takes every
/// path the scenarios rely on.
#[test]
fn clean_run_fits_the_window() {
    let asm = program();
    let (_, ep) = episode(&asm, Engine::Interp, None);
    let out = ep.runs[0].as_ref().unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert!(out.stats.total_cycles() < WINDOW, "window too short: {}", out.stats.total_cycles());
    assert!(out.stats.total_cycles() * 3 < BUDGET);
    assert_eq!(ep.logs[0].iter().filter(|e| e.0 == b't').count(), 12, "one trap per pass");
    let (_, ep) = episode(&asm, Engine::Interp, Some((Event::PeriodicIrq, 0)));
    let out = ep.runs[0].as_ref().unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert!(out.stats.irq_delivered > 10);
}

#[test]
fn every_offset_power_loss() {
    every_offset(Event::PowerLoss, WINDOW);
}

#[test]
fn every_offset_code_flip() {
    every_offset(Event::CodeFlip, WINDOW);
}

#[test]
fn every_offset_one_shot_timer() {
    let episodes = every_offset(Event::OneShotIrq, WINDOW);
    // Some fires latch inside the `dint` loop and wait for `eint`: the
    // offsets that exercise single-stepping a latched interrupt.
    let deferral = |(k, ep): (u64, &Episode)| {
        ep.logs[0].iter().find(|e| e.0 == b'e').map_or(0, |e| e.1 - k)
    };
    let longest = (0..WINDOW).zip(&episodes).map(deferral).max().unwrap();
    assert!(longest > 20, "no delivery waited on GIE (longest deferral {longest} cycles)");
}

#[test]
fn every_offset_periodic_timer_phase() {
    every_offset(Event::PeriodicIrq, WINDOW);
}

#[test]
fn every_phase_isr_fetch_violation() {
    let isr = program().symbol("isr").unwrap();
    for ep in every_offset(Event::PeriodicIrqIntoNoExec, SLOW_PERIOD) {
        let exit = &ep.runs[0].as_ref().unwrap().exit;
        assert_eq!(*exit, ExitReason::SanitizerTrap(Violation::WildJump { pc: isr }));
    }
}
