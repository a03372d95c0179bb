//! Top-level simulated machine: CPU + bus + optional runtime hook.
//!
//! A [`Hook`] models a software runtime (the SwapRAM miss handler or the
//! block-cache runtime) that is entered whenever control flow reaches the
//! trap window of the memory map — the mechanism behind the indirect
//! `CALL &redir` / `BR &exit` instructions the instrumentation passes plant
//! in application code. The hook manipulates machine state through the same
//! bus as the program, so all of its memory traffic is counted.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::blockcache::BlockEngine;
use crate::cpu::{Cpu, FLAG_GIE};
use crate::error::{SimError, SimResult};
use crate::fault::{FaultKind, FaultPlan};
use crate::freq::Frequency;
use crate::hwcache::HwCache;
use crate::irq::IrqTimer;
use crate::isa::Reg;
use crate::mem::{Bus, Image, MemoryMap};
use crate::profile::Profiler;
use crate::sanitize::Violation;
use crate::trace::Stats;

/// Cycles the hardware interrupt entry sequence takes on the MSP430
/// (push PC, push SR, clear SR, fetch the vector): 6 cycles from request
/// acceptance to the first ISR instruction.
pub const IRQ_LATENCY_CYCLES: u32 = 6;

/// Which execution engine a [`Machine`] dispatches instructions with.
/// Both engines are byte-identical in observable behaviour (statistics,
/// checksums, exit reasons, faults) — see the differential test tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Fetch/decode/execute every instruction from memory.
    Interp,
    /// Pre-decoded basic-block dispatch (see [`crate::blockcache`]).
    Predecoded,
}

/// Process-wide override installed by [`set_default_engine`]:
/// 0 = none, 1 = interp, 2 = predecoded.
static ENGINE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the default engine for machines created after this call
/// (`None` restores the built-in default, pre-decoded). Intended
/// for differential tests that construct machines deep inside shared
/// helpers; per-machine [`Machine::set_engine`] wins when reachable.
pub fn set_default_engine(engine: Option<Engine>) {
    let v = match engine {
        None => 0,
        Some(Engine::Interp) => 1,
        Some(Engine::Predecoded) => 2,
    };
    ENGINE_OVERRIDE.store(v, Ordering::SeqCst);
}

/// The engine new machines start with: the [`set_default_engine`]
/// override if installed, else pre-decoded.
pub fn default_engine() -> Engine {
    match ENGINE_OVERRIDE.load(Ordering::SeqCst) {
        1 => Engine::Interp,
        _ => Engine::Predecoded,
    }
}

/// What a [`Hook`] asks the machine to do after servicing a trap.
///
/// The hook is responsible for setting the CPU's program counter to the
/// continuation address before returning [`TrapAction::Resume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapAction {
    /// Continue executing at the PC the hook installed.
    Resume,
    /// Stop the machine with an exit code.
    Halt(u16),
}

/// Which side of an interrupt the machine is crossing when it calls
/// [`Hook::on_interrupt_boundary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrqBoundary {
    /// A timer interrupt is about to be delivered (the hardware entry
    /// sequence has not run yet; CPU state is the interrupted program's).
    Entry,
    /// A `reti` just completed (CPU state is the resumed program's).
    Return,
}

/// A software runtime attached to the machine (see module docs).
pub trait Hook {
    /// Services a trap: control flow reached `trap_pc` inside the trap
    /// window.
    ///
    /// # Errors
    ///
    /// Returns an error to abort simulation (e.g. corrupted runtime state).
    fn on_trap(&mut self, cpu: &mut Cpu, bus: &mut Bus, trap_pc: u16) -> SimResult<TrapAction>;

    /// Called at every interrupt boundary when a timer is armed: just
    /// before delivery and just after each `reti`. Runtimes use this to
    /// audit their invariants at exactly the points asynchronous control
    /// flow could observe them mid-update. The default does nothing.
    ///
    /// # Errors
    ///
    /// Returns an error to abort simulation (e.g. an invariant violated
    /// at the boundary).
    fn on_interrupt_boundary(
        &mut self,
        _cpu: &mut Cpu,
        _bus: &mut Bus,
        _boundary: IrqBoundary,
    ) -> SimResult<()> {
        Ok(())
    }

    /// Called when a scheduled power-loss fault fires, after the last
    /// instruction retired and before the machine reports
    /// [`ExitReason::PowerLoss`]: the supply just crossed the brown-out
    /// threshold, and the decoupling capacitor's tail charge powers a
    /// final bounded burst of work. Just-in-time checkpointing runtimes
    /// (the Hibernus / QuickRecall model) use this dying gasp to commit a
    /// resume frame at the exact interruption point, so the next boot
    /// continues without re-executing anything — the property that makes
    /// checkpointing sound for programs that mutate non-volatile data in
    /// place. The default does nothing.
    ///
    /// # Errors
    ///
    /// Returns an error to abort simulation (e.g. corrupted runtime
    /// state discovered while checkpointing).
    fn on_power_failing(&mut self, _cpu: &mut Cpu, _bus: &mut Bus) -> SimResult<()> {
        Ok(())
    }

    /// Downcast support for callers that retrieve the hook after a run
    /// (e.g. to audit runtime metadata against final machine state).
    /// Implementations that want to be downcast return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Why a [`Machine::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitReason {
    /// The program wrote to the halt port (or a hook halted); carries the
    /// exit code.
    Halted(u16),
    /// The cycle budget was exhausted.
    CycleLimit,
    /// A scheduled [`FaultKind::PowerLoss`] fired. Call
    /// [`Machine::power_cycle`] and [`Machine::run`] again to model the
    /// reboot.
    PowerLoss,
    /// The execution sanitizer flagged a watchpoint violation (see
    /// [`crate::sanitize`]) — misexecution was stopped instead of running
    /// silently.
    SanitizerTrap(Violation),
}

/// Everything a finished run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Why execution stopped.
    pub exit: ExitReason,
    /// Full execution statistics.
    pub stats: Stats,
    /// Bytes the program wrote to the console port.
    pub console: Vec<u8>,
    /// Output checksum and number of words mixed into it.
    pub checksum: (u32, u64),
    /// Cycle numbers of phase-marker writes.
    pub marks: Vec<u64>,
}

impl RunOutcome {
    /// True if the program halted with exit code 0.
    pub fn success(&self) -> bool {
        matches!(self.exit, ExitReason::Halted(0))
    }
}

/// A complete simulated device.
pub struct Machine {
    cpu: Cpu,
    bus: Bus,
    hook: Option<Box<dyn Hook>>,
    profiler: Option<Profiler>,
    faults: Option<FaultPlan>,
    /// Entry point of the last loaded image — the reset vector a
    /// [`Machine::power_cycle`] reboots to.
    entry: u16,
    /// Pre-decoded dispatch engine; `None` = interpreter.
    engine: Option<Box<BlockEngine>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.cpu.pc())
            .field("has_hook", &self.hook.is_some())
            .finish()
    }
}

impl Machine {
    /// Creates a machine over `bus` with no runtime hook, using the
    /// [`default_engine`].
    pub fn new(bus: Bus) -> Machine {
        let mut m = Machine {
            cpu: Cpu::new(),
            bus,
            hook: None,
            profiler: None,
            faults: None,
            entry: 0,
            engine: None,
        };
        m.set_engine(default_engine());
        m
    }

    /// Switches the execution engine, dropping any cached decode state.
    pub fn set_engine(&mut self, engine: Engine) {
        match engine {
            Engine::Interp => {
                self.engine = None;
                self.bus.disable_code_watch();
            }
            Engine::Predecoded => {
                self.bus.enable_code_watch();
                let mut e = Box::new(BlockEngine::new());
                e.reset(&mut self.bus);
                self.engine = Some(e);
            }
        }
    }

    /// The active execution engine.
    pub fn engine(&self) -> Engine {
        if self.engine.is_some() { Engine::Predecoded } else { Engine::Interp }
    }

    /// The pre-decoded engine and its counters, or `None` under the
    /// interpreter.
    pub fn block_engine(&self) -> Option<&BlockEngine> {
        self.engine.as_deref()
    }

    /// Attaches a per-function execution profiler (see
    /// [`crate::profile`]).
    pub fn attach_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// The attached profiler, if any.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// The CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU access (e.g. to preset registers in tests).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The bus.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access (e.g. to inject benchmark inputs).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Simultaneous mutable CPU and bus access, for host-side runtimes
    /// whose boot-time recovery both rewrites memory and restores the
    /// register file (e.g. persistent-stack resume).
    pub fn cpu_bus_mut(&mut self) -> (&mut Cpu, &mut Bus) {
        (&mut self.cpu, &mut self.bus)
    }

    /// Attaches a runtime hook, replacing any previous one.
    pub fn attach_hook(&mut self, hook: Box<dyn Hook>) {
        self.hook = Some(hook);
    }

    /// Detaches and returns the runtime hook, if any.
    pub fn take_hook(&mut self) -> Option<Box<dyn Hook>> {
        self.hook.take()
    }

    /// Loads a program image and points the PC at its entry, remembering
    /// the entry as the reset vector for [`Machine::power_cycle`].
    ///
    /// # Panics
    ///
    /// Panics if a segment overflows the address space — a malformed
    /// image is a host-side construction bug, not a runtime condition
    /// (use [`Bus::load_image`] directly for a fallible load).
    pub fn load(&mut self, image: &Image) {
        self.bus.load_image(image).expect("malformed image");
        self.entry = image.entry;
        self.cpu.set_pc(image.entry);
    }

    /// Attaches a fault-injection schedule, replacing any previous one.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Models a reboot after power loss: the register file resets and the
    /// PC returns to the loaded image's entry; the bus loses all volatile
    /// state while FRAM persists (see [`Bus::power_cycle`]). Any attached
    /// hook is dropped — software runtimes hold volatile state and must
    /// be rebuilt and re-attached by the caller, exactly as a real
    /// runtime reconstructs itself from persistent metadata at boot. The
    /// fault plan and statistics survive (cumulative cycle schedules).
    pub fn power_cycle(&mut self) {
        self.cpu = Cpu::new();
        self.cpu.set_pc(self.entry);
        self.bus.power_cycle();
        // Cached decoded blocks are volatile state derived from SRAM
        // contents and sanitizer fill tracking — both just reset.
        if let Some(e) = &mut self.engine {
            e.reset(&mut self.bus);
        }
        self.hook = None;
    }

    /// Executes one instruction or services one trap.
    ///
    /// Returns `Some(code)` if the machine halted.
    ///
    /// # Errors
    ///
    /// Propagates CPU/bus errors; reaching the trap window with no hook
    /// attached is a [`SimError::Hook`] error.
    pub fn step(&mut self) -> SimResult<Option<u16>> {
        self.advance(None)
    }

    /// [`Machine::step`], except that with a `deadline` set the
    /// pre-decoded engine may execute many instructions, stopping where
    /// [`Machine::run`]'s polling would act — at the latest on the first
    /// boundary with `total_cycles ≥ deadline` (see
    /// [`BlockEngine::step_batched`]).
    fn advance(&mut self, deadline: Option<u64>) -> SimResult<Option<u16>> {
        let pc = self.cpu.pc();
        if self.bus.map().trap.contains(pc) {
            let action = self
                .call_hook(|hook, cpu, bus| hook.on_trap(cpu, bus, pc))
                .ok_or_else(|| SimError::Hook(format!("trap at 0x{pc:04x} with no hook")))?;
            match action? {
                TrapAction::Resume => {}
                TrapAction::Halt(code) => return Ok(Some(code)),
            }
        } else {
            if let Some(p) = &mut self.profiler {
                p.record(pc, self.bus.map().region_of(pc));
            }
            match (&mut self.engine, deadline) {
                (Some(e), Some(d)) => e.step_batched(&mut self.cpu, &mut self.bus, d)?,
                (Some(e), None) => e.step(&mut self.cpu, &mut self.bus)?,
                (None, _) => {
                    self.cpu.step(&mut self.bus)?;
                }
            }
        }
        Ok(self.bus.ports().halt_code())
    }

    /// Runs until the program halts or `max_cycles` total cycles elapse.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors from [`Machine::step`].
    pub fn run(&mut self, max_cycles: u64) -> SimResult<RunOutcome> {
        // Faults fire and timers latch only once `total_cycles` reaches
        // their due cycle, so each pass runs the pre-decoded engine to the
        // next event: `deadline` is the earliest of the cycle budget, the
        // next fault and the next timer fire, and the engine stops on the
        // first boundary at or past it — the boundary where stepping one
        // instruction at a time would act. Only two cases step singly: a
        // profiler records every PC, and a latched but undelivered
        // interrupt waits on GIE and the trap window, which any
        // instruction may change. Traps are serviced one per pass.
        let irq = self.bus.timer().is_some();
        let exit = loop {
            let single = self.profiler.is_some() || self.bus.irq_pending();
            let stepped = self.advance((!single).then(|| self.deadline(max_cycles)));
            // A latched sanitizer violation wins over whatever the wild
            // instruction did — including the bus fault it may have died
            // on — so misexecution surfaces as one typed exit.
            self.bus.check_stack(self.cpu.sp());
            if let Some(v) = self.bus.take_violation() {
                break ExitReason::SanitizerTrap(v);
            }
            if let Some(code) = stepped? {
                break ExitReason::Halted(code);
            }
            if let Some(reason) = self.fire_due_faults()? {
                break reason;
            }
            // Drain the reti flag even with no timer armed, so a timer
            // attached later never observes a stale boundary.
            if self.bus.take_reti() && irq {
                self.interrupt_boundary(IrqBoundary::Return)?;
            }
            if irq {
                self.service_interrupt()?;
            }
            if self.bus.stats().total_cycles() >= max_cycles {
                break ExitReason::CycleLimit;
            }
        };
        Ok(self.outcome(exit))
    }

    /// The earliest cycle at which the run loop must act: the budget
    /// `max_cycles`, the next fault, or the next timer fire.
    fn deadline(&self, max_cycles: u64) -> u64 {
        let fault = self.faults.as_ref().and_then(FaultPlan::next_due);
        let timer = self.bus.timer().and_then(IrqTimer::next_due);
        [fault, timer].into_iter().flatten().fold(max_cycles, u64::min)
    }

    /// Calls into the attached hook (`None` without one) in
    /// trusted-runtime mode: sanitizer watchpoints are suppressed while it
    /// fills cache slots, rewrites its metadata or commits checkpoints.
    fn call_hook<T>(
        &mut self,
        f: impl FnOnce(&mut dyn Hook, &mut Cpu, &mut Bus) -> SimResult<T>,
    ) -> Option<SimResult<T>> {
        let mut hook = self.hook.take()?;
        self.bus.set_runtime_mode(true);
        let result = f(hook.as_mut(), &mut self.cpu, &mut self.bus);
        self.bus.set_runtime_mode(false);
        self.hook = Some(hook);
        Some(result)
    }

    /// Notifies the hook of an interrupt boundary (no-op without a hook).
    fn interrupt_boundary(&mut self, boundary: IrqBoundary) -> SimResult<()> {
        self.call_hook(|hook, cpu, bus| hook.on_interrupt_boundary(cpu, bus, boundary))
            .unwrap_or(Ok(()))
    }

    /// Polls the timer and, if an interrupt is pending and deliverable,
    /// performs the MSP430 hardware entry sequence: push PC, push SR,
    /// clear SR (masking further interrupts — no nesting), load the
    /// vector, charge [`IRQ_LATENCY_CYCLES`].
    ///
    /// Delivery is gated on the `GIE` bit and deferred while the PC sits
    /// in the trap window — a pending runtime trap services first, so the
    /// hook's view of the trapping call's stack frame stays intact.
    ///
    /// # Errors
    ///
    /// An unset or misaligned vector is a [`SimError::Hook`] error; the
    /// stack pushes go through the bus and may fault like any guest
    /// store. Boundary-hook errors propagate.
    fn service_interrupt(&mut self) -> SimResult<()> {
        self.bus.poll_timer();
        if !self.bus.irq_pending()
            || self.cpu.sr() & FLAG_GIE == 0
            || self.bus.map().trap.contains(self.cpu.pc())
        {
            return Ok(());
        }
        let vector = self.bus.timer().map_or(0, |t| t.vector());
        if vector == 0 || vector == 0xFFFF || vector & 1 != 0 {
            return Err(SimError::Hook(format!("invalid interrupt vector 0x{vector:04x}")));
        }
        self.interrupt_boundary(IrqBoundary::Entry)?;
        let pc = self.cpu.pc();
        let sr = self.cpu.sr();
        let sp = self.cpu.sp().wrapping_sub(2);
        self.cpu.set_sp(sp);
        self.bus.write_word(sp, pc)?;
        let sp = sp.wrapping_sub(2);
        self.cpu.set_sp(sp);
        self.bus.write_word(sp, sr)?;
        self.cpu.set_reg(Reg::SR, 0);
        self.cpu.set_pc(vector);
        self.bus.clear_irq_pending();
        let stats = self.bus.stats_mut();
        stats.irq_delivered += 1;
        stats.irq_latency_cycles += u64::from(IRQ_LATENCY_CYCLES);
        stats.unstalled_cycles += u64::from(IRQ_LATENCY_CYCLES);
        Ok(())
    }

    /// Fires every scheduled fault whose cycle has been reached. Bit flips
    /// apply silently; a power loss notifies the hook (the brown-out
    /// dying gasp, see [`Hook::on_power_failing`]), stops the firing
    /// sweep (later events stay pending for subsequent boots) and returns
    /// the exit reason.
    fn fire_due_faults(&mut self) -> SimResult<Option<ExitReason>> {
        let now = self.bus.stats().total_cycles();
        loop {
            let Some(ev) = self.faults.as_mut().and_then(|f| f.take_due(now)) else {
                return Ok(None);
            };
            match ev.kind {
                FaultKind::PowerLoss => {
                    self.power_failing()?;
                    return Ok(Some(ExitReason::PowerLoss));
                }
                FaultKind::BitFlip { addr, bit } => self.bus.flip_bit(addr, bit),
            }
        }
    }

    /// Notifies the hook that the supply just browned out (no-op without
    /// a hook).
    fn power_failing(&mut self) -> SimResult<()> {
        self.call_hook(|hook, cpu, bus| hook.on_power_failing(cpu, bus)).unwrap_or(Ok(()))
    }

    /// Snapshots the current run outcome with the given exit reason.
    pub fn outcome(&self, exit: ExitReason) -> RunOutcome {
        RunOutcome {
            exit,
            stats: self.bus.stats().clone(),
            console: self.bus.ports().console().to_vec(),
            checksum: self.bus.ports().checksum(),
            marks: self.bus.ports().marks().to_vec(),
        }
    }
}

/// Builder for the MSP430FR2355 device profile used throughout the paper's
/// evaluation: 4 KiB SRAM, 32 KiB FRAM, 2-way × 2-set × 8-byte hardware
/// read cache.
#[derive(Debug, Clone, Copy)]
pub struct Fr2355;

impl Fr2355 {
    /// Creates a machine with the FR2355 memory map and hardware cache at
    /// the given operating point.
    pub fn machine(freq: Frequency) -> Machine {
        Machine::new(Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), freq))
    }

    /// Same as [`Fr2355::machine`] but with the hardware read cache
    /// disabled (for ablation studies).
    pub fn machine_without_hw_cache(freq: Frequency) -> Machine {
        Machine::new(Bus::new(MemoryMap::fr2355(), HwCache::disabled(), freq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Opcode, Operand, Reg, Size};
    use crate::mem::Segment;
    use crate::ports;

    fn image_of(instrs: &[Instr], base: u16) -> Image {
        let mut bytes = Vec::new();
        let mut at = base;
        for i in instrs {
            for w in i.encode(at).unwrap() {
                bytes.push((w & 0xff) as u8);
                bytes.push((w >> 8) as u8);
                at = at.wrapping_add(2);
            }
        }
        Image { segments: vec![Segment { addr: base, bytes }], entry: base }
    }

    fn halt_with(code: u16) -> Instr {
        Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(code),
            dst: Operand::Absolute(ports::HALT),
        }
    }

    #[test]
    fn run_halts_on_halt_port() {
        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.load(&image_of(&[halt_with(0)], 0x4000));
        let out = m.run(1_000).unwrap();
        assert!(out.success());
    }

    #[test]
    fn cycle_limit() {
        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // JMP -1 loops forever (jumps to itself).
        m.load(&image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4000));
        let out = m.run(100).unwrap();
        assert_eq!(out.exit, ExitReason::CycleLimit);
        assert!(out.stats.total_cycles() >= 100);
    }

    #[test]
    fn trap_without_hook_errors() {
        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // BR #0x0F00 jumps straight into the trap window.
        m.load(&image_of(
            &[Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(0x0F00),
                dst: Operand::Reg(Reg::PC),
            }],
            0x4000,
        ));
        assert!(matches!(m.run(1_000), Err(SimError::Hook(_))));
    }

    #[test]
    fn hook_is_invoked_and_can_redirect() {
        struct Bouncer {
            hits: u32,
        }
        impl Hook for Bouncer {
            fn on_trap(&mut self, cpu: &mut Cpu, _bus: &mut Bus, pc: u16) -> SimResult<TrapAction> {
                assert_eq!(pc, 0x0F00);
                self.hits += 1;
                cpu.set_pc(0x4100);
                Ok(TrapAction::Resume)
            }
        }
        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.load(&image_of(
            &[Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(0x0F00),
                dst: Operand::Reg(Reg::PC),
            }],
            0x4000,
        ));
        // Landing pad at 0x4100 halts.
        let pad = image_of(&[halt_with(0)], 0x4100);
        m.bus_mut().load_image(&pad).unwrap();
        m.attach_hook(Box::new(Bouncer { hits: 0 }));
        let out = m.run(1_000).unwrap();
        assert!(out.success());
    }

    #[test]
    fn scheduled_power_loss_interrupts_and_reboot_restarts() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // Spin forever; only the fault plan can stop this run.
        m.load(&image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4000));
        m.attach_fault_plan(FaultPlan::new(vec![
            FaultEvent { cycle: 40, kind: FaultKind::PowerLoss },
            FaultEvent { cycle: 90, kind: FaultKind::PowerLoss },
        ]));
        m.cpu_mut().set_reg(crate::isa::Reg::R12, 0x1234);
        m.bus_mut().poke_word(0x2000, 0xBEEF);

        let out = m.run(1_000_000).unwrap();
        assert_eq!(out.exit, ExitReason::PowerLoss);
        assert!(out.stats.total_cycles() >= 40);

        m.power_cycle();
        assert_eq!(m.cpu().pc(), 0x4000, "reboot returns to the entry");
        assert_eq!(m.cpu().reg(crate::isa::Reg::R12), 0, "registers are volatile");
        assert_eq!(m.bus().peek_word(0x2000), 0, "SRAM is volatile");

        // The second boot runs until the second scheduled loss.
        let out2 = m.run(1_000_000).unwrap();
        assert_eq!(out2.exit, ExitReason::PowerLoss);
        assert!(out2.stats.total_cycles() >= 90, "cycles accumulate across boots");
        assert_eq!(m.fault_plan().unwrap().remaining(), 0);

        // With the schedule exhausted the budget takes over again.
        m.power_cycle();
        let out3 = m.run(out2.stats.total_cycles() + 100).unwrap();
        assert_eq!(out3.exit, ExitReason::CycleLimit);
    }

    #[test]
    fn scheduled_bit_flip_corrupts_memory_mid_run() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.load(&image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4000));
        m.bus_mut().poke_word(0x5000, 0x0000);
        m.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: 20,
            kind: FaultKind::BitFlip { addr: 0x5000, bit: 1 },
        }]));
        let out = m.run(200).unwrap();
        assert_eq!(out.exit, ExitReason::CycleLimit, "bit flips do not stop the run");
        assert_eq!(m.bus().peek_byte(0x5000), 0x02);
    }

    #[test]
    fn bit_flip_in_cached_line_is_visible_after_invalidation() {
        use crate::fault::{FaultEvent, FaultKind, FaultPlan};

        // Loop: MOV.B &0x5000, &CONSOLE; JMP back. The data word sits in
        // FRAM behind the hardware read cache; the scheduled flip must
        // invalidate the covering line so the post-flip value — not the
        // stale cached one — reaches the console.
        let read_out = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Byte,
            src: Operand::Absolute(0x5000),
            dst: Operand::Absolute(ports::CONSOLE),
        };
        let mut m = Fr2355::machine(Frequency::MHZ_24);
        m.load(&image_of(&[read_out, Instr::Jump { op: Opcode::Jmp, offset_words: -4 }], 0x4000));
        m.bus_mut().poke_byte(0x5000, 0x11);
        m.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: 300,
            kind: FaultKind::BitFlip { addr: 0x5000, bit: 1 },
        }]));
        let out = m.run(1_000).unwrap();
        assert_eq!(out.exit, ExitReason::CycleLimit);
        assert_eq!(out.console.first(), Some(&0x11), "pre-flip value observed");
        assert_eq!(out.console.last(), Some(&0x13), "post-flip value observed");
        assert!(out.console.contains(&0x13), "flip must be visible through the cache");
    }

    #[test]
    fn sanitizer_flags_wild_jump_as_typed_exit() {
        use crate::sanitize::{SanitizerConfig, Violation};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // BR #0x9000: leaves the configured executable range.
        m.load(&image_of(
            &[Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(0x9000),
                dst: Operand::Reg(Reg::PC),
            }],
            0x4000,
        ));
        m.bus_mut().attach_sanitizer(SanitizerConfig {
            exec: vec![crate::mem::AddrRange::new(0x4000, 0x8000)],
            ..SanitizerConfig::default()
        });
        let out = m.run(1_000).unwrap();
        assert_eq!(out.exit, ExitReason::SanitizerTrap(Violation::WildJump { pc: 0x9000 }));
    }

    #[test]
    fn sanitizer_flags_fetch_from_unfilled_sram() {
        use crate::sanitize::{SanitizerConfig, Violation};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // BR #0x2800: jumps into tracked SRAM nothing ever filled.
        m.load(&image_of(
            &[Instr::FormatI {
                op: Opcode::Mov,
                size: Size::Word,
                src: Operand::Imm(0x2800),
                dst: Operand::Reg(Reg::PC),
            }],
            0x4000,
        ));
        m.bus_mut().attach_sanitizer(SanitizerConfig {
            exec: vec![
                crate::mem::AddrRange::new(0x4000, 0x8000),
                crate::mem::AddrRange::new(0x2800, 0x3000),
            ],
            tracked: Some(crate::mem::AddrRange::new(0x2800, 0x3000)),
            ..SanitizerConfig::default()
        });
        let out = m.run(1_000).unwrap();
        assert_eq!(out.exit, ExitReason::SanitizerTrap(Violation::StaleFetch { pc: 0x2800 }));
    }

    #[test]
    fn sanitizer_flags_application_store_into_protected_region() {
        use crate::sanitize::{SanitizerConfig, Violation};

        let store = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(0xBEEF),
            dst: Operand::Absolute(0x4100),
        };
        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.load(&image_of(&[store, halt_with(0)], 0x4000));
        m.bus_mut().attach_sanitizer(SanitizerConfig {
            exec: vec![crate::mem::AddrRange::new(0x4000, 0x8000)],
            protected: vec![crate::mem::AddrRange::new(0x4000, 0x4200)],
            ..SanitizerConfig::default()
        });
        let out = m.run(1_000).unwrap();
        assert_eq!(out.exit, ExitReason::SanitizerTrap(Violation::BadStore { addr: 0x4100 }));
    }

    /// `eint` (`bis #8, sr`) as an encodable instruction.
    fn eint() -> Instr {
        Instr::FormatI {
            op: Opcode::Bis,
            size: Size::Word,
            src: Operand::Imm(0x0008),
            dst: Operand::Reg(Reg::SR),
        }
    }

    fn reti() -> Instr {
        Instr::FormatII { op: Opcode::Reti, size: Size::Word, dst: Operand::Reg(Reg::CG) }
    }

    fn say(b: u8) -> Instr {
        Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Byte,
            src: Operand::Imm(u16::from(b)),
            dst: Operand::Absolute(ports::CONSOLE),
        }
    }

    /// Main at 0x4000: enable interrupts, set up a stack, spin. ISR at
    /// 0x4400: emit one console byte, return.
    fn irq_machine(engine: Engine) -> Machine {
        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.set_engine(engine);
        let set_sp = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(0x3000),
            dst: Operand::Reg(Reg::SP),
        };
        m.load(&image_of(
            &[set_sp, eint(), Instr::Jump { op: Opcode::Jmp, offset_words: -1 }],
            0x4000,
        ));
        let isr = image_of(&[say(b'!'), reti()], 0x4400);
        m.bus_mut().load_image(&isr).unwrap();
        m
    }

    #[test]
    fn timer_interrupt_delivers_and_returns() {
        use crate::irq::{IrqSchedule, IrqTimer};

        for engine in [Engine::Interp, Engine::Predecoded] {
            let mut m = irq_machine(engine);
            m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::periodic(500, 100), 0x4400));
            let out = m.run(2_000).unwrap();
            assert_eq!(out.exit, ExitReason::CycleLimit);
            assert_eq!(out.stats.irq_delivered, 4, "fires at 100/600/1100/1600 ({engine:?})");
            assert_eq!(out.console, b"!!!!");
            assert_eq!(out.stats.irq_latency_cycles, 4 * u64::from(IRQ_LATENCY_CYCLES));
            // reti restored SR with GIE set, so the spin loop keeps taking
            // interrupts — and the stack is balanced again.
            assert_eq!(m.cpu().sr() & FLAG_GIE, FLAG_GIE);
            assert_eq!(m.cpu().sp(), 0x3000);
        }
    }

    #[test]
    fn interrupts_masked_until_eint() {
        use crate::irq::{IrqSchedule, IrqTimer};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // No eint: GIE stays clear, nothing is ever delivered; fires
        // coalesce into the single pending latch.
        m.load(&image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4000));
        m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::periodic(100, 50), 0x4400));
        let out = m.run(1_000).unwrap();
        assert_eq!(out.exit, ExitReason::CycleLimit);
        assert_eq!(out.stats.irq_delivered, 0);
        assert!(out.stats.irq_coalesced >= 8, "pending requests coalesce while masked");
        assert!(m.bus().irq_pending());
    }

    #[test]
    fn gie_cleared_during_isr_prevents_nesting() {
        use crate::irq::{IrqSchedule, IrqTimer};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        let set_sp = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(0x3000),
            dst: Operand::Reg(Reg::SP),
        };
        m.load(&image_of(
            &[set_sp, eint(), Instr::Jump { op: Opcode::Jmp, offset_words: -1 }],
            0x4000,
        ));
        // ISR that spins forever: with GIE cleared on entry, the dense
        // periodic schedule must deliver exactly once.
        let isr = image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4400);
        m.bus_mut().load_image(&isr).unwrap();
        m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::periodic(50, 100), 0x4400));
        let out = m.run(5_000).unwrap();
        assert_eq!(out.exit, ExitReason::CycleLimit);
        assert_eq!(out.stats.irq_delivered, 1);
        assert_eq!(m.cpu().sr() & FLAG_GIE, 0, "hardware cleared GIE on entry");
    }

    #[test]
    fn invalid_vector_is_typed_error() {
        use crate::irq::{IrqSchedule, IrqTimer};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.load(&image_of(
            &[eint(), Instr::Jump { op: Opcode::Jmp, offset_words: -1 }],
            0x4000,
        ));
        m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::periodic(50, 50), 0x4401));
        assert!(matches!(m.run(1_000), Err(SimError::Hook(_))));
    }

    #[test]
    fn power_cycle_clears_pending_interrupt() {
        use crate::irq::{IrqSchedule, IrqTimer};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        // Masked the whole run, so the one-shot fire stays latched.
        m.load(&image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4000));
        m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::at(vec![50]), 0x4400));
        let out = m.run(500).unwrap();
        assert_eq!(out.exit, ExitReason::CycleLimit);
        assert!(m.bus().irq_pending());
        m.power_cycle();
        assert!(!m.bus().irq_pending(), "latched requests are volatile");
        assert!(m.bus().timer().is_some(), "the schedule itself survives");
    }

    #[test]
    fn power_cycle_partitions_persistent_from_volatile_state() {
        use crate::fault::{EnergyShape, EnergyTrace};

        let mut m = Fr2355::machine(Frequency::MHZ_8);
        m.load(&image_of(&[Instr::Jump { op: Opcode::Jmp, offset_words: -1 }], 0x4000));

        // Energy-trace fault cursor: cumulative bench clock, survives.
        let trace = EnergyTrace::new(EnergyShape::RcCharge, 600, 5);
        m.attach_fault_plan(trace.plan_until(10_000));
        let total = m.fault_plan().unwrap().events().len();
        let out = m.run(100_000).unwrap();
        assert_eq!(out.exit, ExitReason::PowerLoss);
        assert_eq!(m.fault_plan().unwrap().fired(), 1);

        // Volatile state to be lost: SRAM byte, port output. Persistent
        // state to survive: an FRAM word (e.g. a watchdog counter in the
        // metadata section) and a journalled port snapshot (resume frame
        // I/O log).
        m.bus_mut().poke_byte(0x2100, 0xAB);
        m.bus_mut().write_word(crate::ports::CONSOLE, 0x41).unwrap();
        m.bus_mut().poke_word(0xB7F0, 0x1234);
        m.bus_mut().nv_stash_ports(0xB7F0, 7);

        m.power_cycle();

        let plan = m.fault_plan().unwrap();
        assert_eq!(plan.fired(), 1, "fault cursor survives like the bench clock");
        assert_eq!(plan.events().len(), total, "no events dropped");
        assert_eq!(m.bus().peek_word(0xB7F0), 0x1234, "FRAM persists");
        assert_eq!(m.bus().nv_stashed_tag(0xB7F0), Some(7), "NV I/O journal persists");
        assert_eq!(m.bus().peek_byte(0x2100), 0, "SRAM cleared");
        assert!(m.bus().ports().console().is_empty(), "live port state cleared");
        let restored = m.bus_mut().nv_restore_ports(0xB7F0, 7);
        assert!(restored, "matching tag restores the snapshot");
        assert_eq!(m.bus().ports().console(), [0x41], "snapshot replays checkpoint-time output");
        assert!(!m.bus_mut().nv_restore_ports(0xB7F0, 8), "stale tag must not replay");
    }

    #[test]
    fn boundary_hook_sees_entry_and_return() {
        use crate::irq::{IrqSchedule, IrqTimer};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct Auditor {
            seen: Rc<RefCell<Vec<IrqBoundary>>>,
        }
        impl Hook for Auditor {
            fn on_trap(&mut self, _c: &mut Cpu, _b: &mut Bus, _pc: u16) -> SimResult<TrapAction> {
                unreachable!("no trap window entry in this test")
            }
            fn on_interrupt_boundary(
                &mut self,
                _cpu: &mut Cpu,
                _bus: &mut Bus,
                boundary: IrqBoundary,
            ) -> SimResult<()> {
                self.seen.borrow_mut().push(boundary);
                Ok(())
            }
        }

        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut m = irq_machine(Engine::Interp);
        m.attach_hook(Box::new(Auditor { seen: Rc::clone(&seen) }));
        m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::at(vec![100]), 0x4400));
        let out = m.run(1_000).unwrap();
        assert_eq!(out.stats.irq_delivered, 1);
        assert_eq!(*seen.borrow(), vec![IrqBoundary::Entry, IrqBoundary::Return]);
    }

    #[test]
    fn console_and_checksum_collected() {
        let say = |b: u8| Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Byte,
            src: Operand::Imm(u16::from(b)),
            dst: Operand::Absolute(ports::CONSOLE),
        };
        let sum = |w: u16| Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(w),
            dst: Operand::Absolute(ports::CHECKSUM),
        };
        let mut m = Fr2355::machine(Frequency::MHZ_24);
        m.load(&image_of(&[say(b'h'), say(b'i'), sum(0x1234), halt_with(0)], 0x4000));
        let out = m.run(10_000).unwrap();
        assert_eq!(out.console, b"hi");
        assert_eq!(out.checksum, (ports::checksum_of_words([0x1234]), 1));
    }
}
