//! Differential gate for the pre-decoded engine's idle-loop skip and its
//! decode-time ALU handlers.
//!
//! The engine accounts the repeats of an idle polling loop (`tst &flag;
//! jz`, `bit #1, &flag; jz`, `jmp $`) instead of executing them, and runs
//! every Format-I instruction through a handler monomorphised for its
//! (opcode, size). Both must be invisible: the interpreter, which
//! executes every iteration through the generic ALU, must agree on every
//! statistic, register and byte of memory, also when a power loss or a
//! bit flip lands inside a skipped span. Loops that only look idle — a
//! store, an `@Rn+` source, a counter, an SR or a cache state that never
//! settles — must never be skipped.

use msp430_asm::layout::LayoutConfig;
use msp430_asm::object::{assemble, Assembly};
use msp430_asm::parser::parse;
use msp430_sim::isa::Size;
use msp430_sim::machine::Fr2355;
use msp430_sim::mem::AddrRange;
use msp430_sim::rng::SplitMix64;
use msp430_sim::{
    Engine, ExitReason, FaultEvent, FaultKind, FaultPlan, Frequency, Instr, IrqSchedule, IrqTimer,
    Machine, Opcode, Operand, Reg, RunOutcome, SanitizerConfig, SimResult,
};

/// The flag every ISR sets and every idle loop polls (SRAM).
const FLAG: u16 = 0x2100;
/// Where `__start` copies `s_wait` to run it from SRAM.
const SRAM_TEXT: u16 = 0x2800;
/// Timer period: long enough for dozens of idle iterations per tick.
const PERIOD: u64 = 300;
/// Budget per run: a bit flip that hangs the program ends here.
const BUDGET: u64 = 20_000;

/// Waits on the flag three times — `tst &flag; jz` and `bit #1, &flag;
/// jz` in FRAM, then `tst &flag; jz` copied into SRAM — and then spins in
/// `jmp $` until the sixth tick, whose ISR returns to `done` instead.
const SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x2ffe, sp
    mov #0, r8
    mov #s_wait, r10
    mov #0x2800, r11
    mov #4, r12
copy:
    mov @r10+, 0(r11)
    incd r11
    dec r12
    jnz copy
    eint
    mov #0, &0x2100
w1:
    tst &0x2100
    jz w1
    mov #0, &0x2100
w2:
    bit #1, &0x2100
    jz w2
    mov #0, &0x2100
    call #0x2800
spin:
    jmp spin
done:
    dint
    mov r8, &0x0104
    mov #0, &0x0102
    .endfunc
    .func s_wait
s_wait:
    tst &0x2100
    jz s_wait
    ret
    .endfunc
    .func isr
isr:
    inc r8
    mov #1, &0x2100
    cmp #6, r8
    jl isr_out
    mov #done, 2(sp)
isr_out:
    reti
    .endfunc
";

/// The event placed at offset `k`.
#[derive(Debug, Clone, Copy)]
enum Event {
    PowerLoss,
    /// Every third offset flips a bit of the flag, the rest a bit of the
    /// text.
    BitFlip,
}

fn program(src: &str) -> Assembly {
    assemble(&parse(src).unwrap(), &LayoutConfig::new(0x4000, 0x2000)).unwrap()
}

fn text_of(asm: &Assembly) -> (u16, u16) {
    asm.sections.iter().find(|s| s.0 == "text").map(|s| (s.1, s.2)).unwrap()
}

/// Runs `asm` under `engine` with a periodic timer into `isr` and
/// `event` at offset `k`; a power loss reboots once and runs to the end.
fn episode(asm: &Assembly, engine: Engine, event: Option<(Event, u64)>) -> (Machine, Vec<SimResult<RunOutcome>>) {
    let mut m = Fr2355::machine(Frequency::MHZ_24);
    m.set_engine(engine);
    m.load(&asm.image);
    let isr = asm.symbol("isr").unwrap();
    m.bus_mut().attach_timer(IrqTimer::new(IrqSchedule::periodic(PERIOD, PERIOD), isr));
    match event {
        None => {}
        Some((Event::PowerLoss, k)) => {
            m.attach_fault_plan(FaultPlan::new(vec![FaultEvent { cycle: k, kind: FaultKind::PowerLoss }]));
        }
        Some((Event::BitFlip, k)) => {
            let (text, size) = text_of(asm);
            let addr = if k % 3 == 0 { FLAG } else { text + (k * 7 % u64::from(size)) as u16 };
            let kind = FaultKind::BitFlip { addr, bit: (k % 8) as u8 };
            m.attach_fault_plan(FaultPlan::new(vec![FaultEvent { cycle: k, kind }]));
            // A corrupted program may run wild: the sanitizer stops it at
            // the first fetch outside the text and the SRAM copy.
            m.bus_mut().attach_sanitizer(SanitizerConfig {
                exec: vec![
                    AddrRange::new(text, u32::from(text) + u32::from(size)),
                    AddrRange::new(SRAM_TEXT, u32::from(SRAM_TEXT) + 8),
                ],
                stack_limit: Some(0x2f00),
                ..SanitizerConfig::default()
            });
        }
    }
    let mut runs = Vec::new();
    loop {
        let out = m.run(BUDGET);
        let lost = matches!(&out, Ok(o) if o.exit == ExitReason::PowerLoss);
        runs.push(out);
        if !lost {
            break;
        }
        m.power_cycle();
    }
    (m, runs)
}

/// Asserts the two machines agree on every register and every byte of
/// SRAM and FRAM.
fn assert_same_state(a: &Machine, b: &Machine, what: &str) {
    for r in 0..16 {
        assert_eq!(a.cpu().reg(Reg::r(r)), b.cpu().reg(Reg::r(r)), "{what}: r{r}");
    }
    let map = a.bus().map();
    let mut addrs = [map.sram, map.fram].into_iter().flat_map(|r| r.start..=(r.end - 1) as u16);
    if let Some(x) = addrs.find(|&x| a.bus().peek_byte(x) != b.bus().peek_byte(x)) {
        panic!("{what}: memory differs at 0x{x:04x}");
    }
}

fn skipped(m: &Machine) -> u64 {
    m.block_engine().expect("pre-decoded engine").skipped_iterations()
}

/// Cycles of the clean run; asserts it halts after six ticks and that
/// the engine skipped iterations in it.
fn clean_cycles(asm: &Assembly) -> u64 {
    let (a, ra) = episode(asm, Engine::Interp, None);
    let (b, rb) = episode(asm, Engine::Predecoded, None);
    assert_eq!(ra, rb);
    assert_same_state(&a, &b, "clean run");
    let out = ra[0].as_ref().unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.stats.irq_delivered, 6);
    assert!(skipped(&b) > 0, "the clean run skips no idle iteration");
    out.stats.total_cycles()
}

fn every_offset(event: Event) {
    let asm = program(SRC);
    let window = clean_cycles(&asm) + 50;
    let mut skipping = 0;
    for k in 0..window {
        let (a, ra) = episode(&asm, Engine::Interp, Some((event, k)));
        let (b, rb) = episode(&asm, Engine::Predecoded, Some((event, k)));
        assert_eq!(ra, rb, "{event:?} at {k}: runs diverged");
        assert_same_state(&a, &b, &format!("{event:?} at {k}"));
        skipping += u64::from(skipped(&b) > 0);
    }
    assert!(skipping > window / 2, "only {skipping} of {window} episodes skipped an iteration");
}

#[test]
fn every_offset_power_loss() {
    every_offset(Event::PowerLoss);
}

#[test]
fn every_offset_bit_flip() {
    every_offset(Event::BitFlip);
}

/// `__start` runs `setup`, enables interrupts and enters `body`; the
/// fourth tick's ISR returns to `done`, which halts.
fn shape(setup: &str, body: &str) -> String {
    format!(
        "    .text
    .func __start
__start:
    mov #0x2ffe, sp
    mov #0, r8
    mov #0, &0x2100
{setup}
    eint
{body}
done:
    dint
    mov r8, &0x0104
    mov #0, &0x0102
    .endfunc
    .func isr
isr:
    inc r8
    mov #1, &0x2100
    cmp #4, r8
    jl isr_out
    mov #done, 2(sp)
isr_out:
    reti
    .endfunc
"
    )
}

/// Runs a shape under both engines, asserts they agree, and returns the
/// pre-decoded engine's skipped iterations.
fn skipped_in(name: &str, src: &str) -> u64 {
    let asm = program(src);
    let (a, ra) = episode(&asm, Engine::Interp, None);
    let (b, rb) = episode(&asm, Engine::Predecoded, None);
    assert_eq!(ra, rb, "{name}: runs diverged");
    assert_same_state(&a, &b, name);
    assert_eq!(ra[0].as_ref().unwrap().exit, ExitReason::Halted(0), "{name}");
    skipped(&b)
}

#[test]
fn idle_loops_are_skipped() {
    let cases = [
        ("tst in FRAM", shape("", "w:\n    tst &0x2100\n    jz w\n    jmp w")),
        ("bit in FRAM", shape("", "w:\n    bit #1, &0x2100\n    jz w\n    jmp w")),
        ("jmp $", shape("", "w:\n    jmp w")),
        (
            "tst in SRAM",
            // The copy of `w: tst &0x2100; jz w; jmp w` (4 words).
            shape(
                "    mov #src, r10\n    mov #0x2800, r11\n    mov #4, r12\ncopy:\n    mov @r10+, 0(r11)\n    incd r11\n    dec r12\n    jnz copy",
                "    mov #0x2800, pc\nsrc:\n    tst &0x2100\n    jz src\n    jmp src",
            ),
        ),
    ];
    for (name, src) in &cases {
        assert!(skipped_in(name, src) > 0, "{name}: no iteration skipped");
    }
}

#[test]
fn loops_that_change_state_are_never_skipped() {
    let cases = [
        ("store", shape("", "w:\n    mov r8, &0x2102\n    tst &0x2100\n    jz w\n    jmp w")),
        (
            "@Rn+ source",
            shape("    mov #0x2200, r5", "w:\n    cmp @r5+, &0x2100\n    jz w\n    jmp w"),
        ),
        ("counter", shape("    mov #3000, r5", "w:\n    dec r5\n    jnz w\n    jmp w")),
        // Z is set by `bit` exactly when it was clear before, so SR
        // alternates between iterations.
        ("SR that alternates", shape("    mov #2, r9", "w:\n    bit r2, r9\n    jmp w")),
        (
            // Code line, and two data lines of the same 2-way set: each
            // iteration leaves the ways permuted, so no iteration starts
            // from the state the previous one did.
            "three lines in one set",
            shape("", "    jmp w\n    .align 16\nw:\n    cmp &0x5810, &0x5820\n    jz w\n    jmp w"),
        ),
    ];
    for (name, src) in &cases {
        assert_eq!(skipped_in(name, src), 0, "{name}: iterations skipped");
    }
}

/// Source operand shapes of Format-I instructions. Memory operands point
/// into a random SRAM buffer at `BUF`; the base registers hold even
/// addresses inside it, and only word operations auto-increment them, so
/// they stay even.
fn random_src(rng: &mut SplitMix64, size: Size) -> Operand {
    let base = Reg::r(4 + rng.below(4) as u8); // R4..R7: buffer pointers
    match rng.below(7) {
        0 => Operand::Imm([0u16, 1, 2, 4, 8, 0xFFFF][rng.below(6) as usize]),
        1 => Operand::Imm(rng.next_u16()),
        2 => Operand::Reg(Reg::r(8 + rng.below(8) as u8)),
        3 => Operand::Indexed(2 * rng.below(16) as u16, base),
        4 => Operand::Absolute(BUF + 2 * rng.below(32) as u16),
        5 => Operand::Indirect(base),
        _ if size == Size::Word => Operand::IndirectInc(base),
        _ => Operand::Indirect(base),
    }
}

fn random_dst(rng: &mut SplitMix64) -> Operand {
    let base = Reg::r(4 + rng.below(4) as u8);
    match rng.below(4) {
        0 | 1 => Operand::Reg(Reg::r(8 + rng.below(8) as u8)),
        2 => Operand::Indexed(2 * rng.below(16) as u16, base),
        _ => Operand::Absolute(BUF + 2 * rng.below(32) as u16),
    }
}

/// The random data buffer of the handler cases.
const BUF: u16 = 0x2400;

const FORMAT_I: [Opcode; 12] = [
    Opcode::Mov,
    Opcode::Add,
    Opcode::Addc,
    Opcode::Subc,
    Opcode::Sub,
    Opcode::Cmp,
    Opcode::Dadd,
    Opcode::Bit,
    Opcode::Bic,
    Opcode::Bis,
    Opcode::Xor,
    Opcode::And,
];

/// Seeded check of every decode-time ALU handler: each case runs a
/// straight line of random Format-I instructions — every opcode, both
/// sizes, every source and destination shape — from FRAM or SRAM, ending
/// in a halt, on both engines from identical random registers, flags and
/// memory. Register-only runs go through the batched loop's direct
/// handler calls, the rest through single-instruction dispatch; both
/// must match [`msp430_sim::Cpu::step`] on statistics, registers and
/// memory.
#[test]
fn alu_handlers_match_the_interpreter() {
    let mut covered = [[false; 2]; 12];
    for seed in 0..400u64 {
        let mut rng = SplitMix64::new((0xA1 << 32) | seed);
        let base = if seed % 2 == 0 { 0x4000 } else { 0x2800 };
        let mut words = Vec::new();
        for _ in 0..24 {
            let op = FORMAT_I[rng.below(12) as usize];
            let size = if rng.next_bool() { Size::Byte } else { Size::Word };
            covered[FORMAT_I.iter().position(|&o| o == op).unwrap()][usize::from(size == Size::Byte)] = true;
            // Half the cases stay register-only, so whole runs batch.
            let (src, dst) = if seed % 4 < 2 {
                (random_src(&mut rng, size), random_dst(&mut rng))
            } else {
                (Operand::Reg(Reg::r(8 + rng.below(8) as u8)), Operand::Reg(Reg::r(8 + rng.below(8) as u8)))
            };
            let at = base + 2 * words.len() as u16;
            words.extend(Instr::FormatI { op, size, src, dst }.encode(at).unwrap());
        }
        let halt = Instr::FormatI {
            op: Opcode::Mov,
            size: Size::Word,
            src: Operand::Imm(0),
            dst: Operand::Absolute(0x0102),
        };
        let at = base + 2 * words.len() as u16;
        words.extend(halt.encode(at).unwrap());

        let regs: Vec<u16> = (0..16)
            .map(|r| match r {
                4..=7 => BUF + 2 * rng.below(64) as u16,
                _ => rng.next_u16(),
            })
            .collect();
        let sr = rng.next_u16() & 0x0107; // C, Z, N, V
        let data: Vec<u8> = (0..0x100).map(|_| rng.next_u8()).collect();
        let machine = |engine| {
            let mut m = Fr2355::machine(Frequency::MHZ_24);
            m.set_engine(engine);
            for (i, w) in words.iter().enumerate() {
                m.bus_mut().poke_word(base + 2 * i as u16, *w);
            }
            m.bus_mut().poke_bytes(BUF, &data);
            for (r, v) in regs.iter().enumerate().skip(4) {
                m.cpu_mut().set_reg(Reg::r(r as u8), *v);
            }
            m.cpu_mut().set_reg(Reg::SR, sr);
            m.cpu_mut().set_sp(0x2f00);
            m.cpu_mut().set_pc(base);
            m
        };
        let (mut a, mut b) = (machine(Engine::Interp), machine(Engine::Predecoded));
        let (ra, rb) = (a.run(10_000), b.run(10_000));
        assert_eq!(ra, rb, "seed {seed}: runs diverged");
        assert_same_state(&a, &b, &format!("seed {seed}"));
    }
    assert!(covered.iter().flatten().all(|&c| c), "some (opcode, size) was never drawn");
}
