//! Crash-consistency tests: power-loss fault injection, boot-time
//! recovery (full-scan and dirty-log), the metadata invariant checker,
//! and eviction under active-function pinning.
//!
//! The simulator fires faults between instructions, so a power loss never
//! splits the miss handler's own write sequence (one `on_trap` is one
//! step); the handler's internal write-ahead ordering is therefore
//! exercised here with hand-constructed torn states in addition to the
//! end-to-end seeded schedules.

use msp430_asm::layout::LayoutConfig;
use msp430_asm::parser::parse;
use msp430_sim::cpu::Cpu;
use msp430_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use msp430_sim::freq::Frequency;
use msp430_sim::hwcache::HwCache;
use msp430_sim::machine::{ExitReason, Fr2355, Hook, Machine};
use msp430_sim::mem::{Bus, MemoryMap};
use msp430_sim::ports::checksum_of_words;
use msp430_sim::rng::SplitMix64;
use swapram::pass::{instrument, ResumeArea};
use swapram::{Instrumented, RecoveryMode, SwapConfig, SwapRuntime};

/// main iterates `r12 = ((r12 * 2) + 2) + 1` four times through a chain of
/// nested calls (main → a → b → c), so several functions are on the call
/// stack at once and deep active-counter pinning occurs under a small
/// cache.
const SRC: &str = "\
    .text
    .func __start
__start:
    mov #0x2ffe, sp
    call #main
    mov #0, &0x0102
    .endfunc
    .func main
main:
    mov #0, r10
    mov #4, r11
main_loop:
    mov r10, r12
    call #a
    mov r12, r10
    dec r11
    jnz main_loop
    mov r10, &0x0104
    ret
    .endfunc
    .func a
a:
    call #b
    add #1, r12
    ret
    .endfunc
    .func b
b:
    call #c
    add #2, r12
    ret
    .endfunc
    .func c
c:
    add r12, r12
    ret
    .endfunc
";

const BUDGET: u64 = 50_000_000;

fn expected_checksum() -> u32 {
    let mut v: u16 = 0;
    for _ in 0..4 {
        v = (v * 2 + 2) + 1;
    }
    checksum_of_words([v])
}

fn instrumented(cfg: &SwapConfig) -> Instrumented {
    let m = parse(SRC).unwrap();
    let lc = LayoutConfig::new(0x4000, 0x9000);
    instrument(&m, cfg, &lc).unwrap()
}

fn machine_with(inst: &Instrumented, cfg: &SwapConfig) -> Machine {
    let mut machine = Fr2355::machine(Frequency::MHZ_24);
    machine.load(&inst.assembly.image);
    machine.attach_hook(Box::new(SwapRuntime::new(inst, cfg.clone())));
    machine
}

/// Cycle count of an uninterrupted run, used to calibrate fault schedules.
fn clean_cycles(inst: &Instrumented, cfg: &SwapConfig) -> u64 {
    let mut machine = machine_with(inst, cfg);
    let out = machine.run(BUDGET).expect("clean run");
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum());
    out.stats.total_cycles()
}

/// Runs to completion across power losses: every reboot rebuilds a fresh
/// runtime and performs boot-time recovery, exactly as the resilience
/// runner does. Returns (checksum, boots).
fn run_with_recovery(inst: &Instrumented, cfg: &SwapConfig, plan: FaultPlan) -> (u32, u32) {
    let mut machine = machine_with(inst, cfg);
    machine.attach_fault_plan(plan);
    let mut boots = 1u32;
    loop {
        let out = machine.run(BUDGET).expect("simulation error");
        match out.exit {
            ExitReason::Halted(0) => return (out.checksum.0, boots),
            ExitReason::PowerLoss => {
                boots += 1;
                assert!(boots <= 64, "power-loss loop did not converge");
                machine.power_cycle();
                let mut rt = SwapRuntime::new(inst, cfg.clone());
                rt.recover(machine.bus_mut()).expect("recovery failed");
                machine.attach_hook(Box::new(rt));
            }
            other => panic!("unexpected exit {other:?}"),
        }
    }
}

#[test]
fn power_loss_without_recovery_is_hazardous() {
    // Demonstrates the wild-jump hazard recovery exists to close: reboot
    // without rewinding metadata leaves FRAM redirection words pointing
    // into zeroed SRAM.
    let cfg = SwapConfig { cache_size: 0x0E00, ..SwapConfig::unified_fr2355() };
    let inst = instrumented(&cfg);
    let mid = clean_cycles(&inst, &cfg) / 2;
    let mut machine = machine_with(&inst, &cfg);
    machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
        cycle: mid,
        kind: FaultKind::PowerLoss,
    }]));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::PowerLoss);

    machine.power_cycle();
    // Re-attach a fresh runtime but deliberately skip recover().
    machine.attach_hook(Box::new(SwapRuntime::new(&inst, cfg.clone())));
    let hazardous = match machine.run(BUDGET) {
        Err(_) => true, // wild jump into zeroed SRAM faulted
        Ok(out) => !(out.exit == ExitReason::Halted(0) && out.checksum.0 == expected_checksum()),
    };
    assert!(hazardous, "unrecovered reboot should not silently succeed");
}

#[test]
fn full_scan_recovery_survives_seeded_schedules() {
    let cfg = SwapConfig {
        cache_size: 0x0E00,
        check_invariants: true,
        ..SwapConfig::unified_fr2355()
    };
    let inst = instrumented(&cfg);
    let c = clean_cycles(&inst, &cfg);
    for seed in [1u64, 7, 42, 1234, 99999] {
        let plan = FaultPlan::power_losses(seed, 3, c / 10..c * 9 / 10);
        let losses = plan.events().len() as u32;
        let (sum, boots) = run_with_recovery(&inst, &cfg, plan);
        assert_eq!(sum, expected_checksum(), "seed {seed}");
        assert_eq!(boots, losses + 1, "seed {seed}: one reboot per loss");
    }
}

#[test]
fn dirty_log_recovery_survives_and_is_bounded_by_dirty_set() {
    let cfg = SwapConfig {
        cache_size: 0x0E00,
        recovery: RecoveryMode::DirtyLog,
        check_invariants: true,
        ..SwapConfig::unified_fr2355()
    };
    let inst = instrumented(&cfg);
    assert!(inst.journal.is_some(), "DirtyLog config must emit a journal");
    let c = clean_cycles(&inst, &cfg);
    for seed in [3u64, 21, 777] {
        let plan = FaultPlan::power_losses(seed, 3, c / 10..c * 9 / 10);
        let (sum, _) = run_with_recovery(&inst, &cfg, plan);
        assert_eq!(sum, expected_checksum(), "seed {seed}");
    }
}

#[test]
fn dirty_log_recovery_rewinds_only_logged_functions() {
    let cfg = SwapConfig {
        cache_size: 0x0E00,
        recovery: RecoveryMode::DirtyLog,
        ..SwapConfig::unified_fr2355()
    };
    let inst = instrumented(&cfg);
    let mid = clean_cycles(&inst, &cfg) / 2;
    let mut machine = machine_with(&inst, &cfg);
    machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
        cycle: mid,
        kind: FaultKind::PowerLoss,
    }]));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::PowerLoss);

    machine.power_cycle();
    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    let outcome = rt.recover(machine.bus_mut()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::DirtyLog);
    assert!(!outcome.journal_fallback);
    assert!(outcome.rewound >= 1, "something was cached before the loss");
    assert!(
        outcome.rewound <= inst.funcs.len() as u64,
        "rewound more functions than exist"
    );
    rt.check_invariants(machine.bus()).expect("post-recovery state consistent");

    // The generation advanced and the log is empty again.
    let j = inst.journal.unwrap();
    assert_eq!(machine.bus().peek_word(j.count_addr), 0);
    assert_eq!(machine.bus().peek_word(j.gen_addr), 2);

    machine.attach_hook(Box::new(rt));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum());
}

#[test]
fn torn_journal_falls_back_to_full_scan() {
    let cfg = SwapConfig {
        cache_size: 0x0E00,
        recovery: RecoveryMode::DirtyLog,
        ..SwapConfig::unified_fr2355()
    };
    let inst = instrumented(&cfg);
    let j = inst.journal.unwrap();
    let mid = clean_cycles(&inst, &cfg) / 2;
    let mut machine = machine_with(&inst, &cfg);
    machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
        cycle: mid,
        kind: FaultKind::PowerLoss,
    }]));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::PowerLoss);
    machine.power_cycle();

    // Tear the first log slot the way a failed FRAM write would: the
    // marker bit is lost, so validation must reject the entry.
    let slot = machine.bus().peek_word(j.slots_addr);
    machine.bus_mut().poke_word(j.slots_addr, slot & !0x8000);

    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    let outcome = rt.recover(machine.bus_mut()).unwrap();
    assert_eq!(outcome.mode, RecoveryMode::FullScan);
    assert!(outcome.journal_fallback);
    assert_eq!(rt.stats_handle().borrow().journal_fallbacks, 1);
    rt.check_invariants(machine.bus()).expect("full scan repaired the state");

    machine.attach_hook(Box::new(rt));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum());
}

#[test]
fn recovery_on_clean_first_boot_is_a_noop() {
    for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
        let cfg = SwapConfig { recovery, ..SwapConfig::unified_fr2355() };
        let inst = instrumented(&cfg);
        let mut machine = Fr2355::machine(Frequency::MHZ_24);
        machine.load(&inst.assembly.image);
        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let outcome = rt.recover(machine.bus_mut()).unwrap();
        assert_eq!(outcome.rewound, 0, "{recovery:?}: nothing to rewind on first boot");
        machine.attach_hook(Box::new(rt));
        let out = machine.run(BUDGET).unwrap();
        assert_eq!(out.exit, ExitReason::Halted(0));
        assert_eq!(out.checksum.0, expected_checksum());
    }
}

#[test]
fn eviction_respects_active_function_pinning() {
    // `init` runs once before `main` and is cached first, at the base of
    // the cache region. The cache is sized to hold exactly init + main, so
    // the first miss inside the loop wraps the queue: evicting the
    // long-inactive `init` is legal (a real eviction must happen), but the
    // next victim in queue order is `main` — live on the call stack — and
    // the runtime must refuse it and fall back to FRAM execution rather
    // than cut the ground from under the stack.
    let pin_src = format!(
        "\
    .text
    .func __start
__start:
    mov #0x2ffe, sp
    call #init
    call #main
    mov #0, &0x0102
    .endfunc
    .func init
init:
    jmp init_end
    .space 0x12
    .align 2
init_end:
    ret
    .endfunc
{}",
        SRC.split_once(".func main").map(|(_, rest)| format!("    .func main{rest}")).unwrap()
    );
    let m = parse(&pin_src).unwrap();
    let lc = LayoutConfig::new(0x4000, 0x9000);
    let probe = instrument(&m, &SwapConfig::unified_fr2355(), &lc).unwrap();
    let span = |name: &str| {
        let f = probe.func_by_name(name).unwrap();
        (f.size + 1) & !1
    };
    let cfg = SwapConfig {
        cache_size: span("init") + span("main") + 2,
        check_invariants: true,
        ..SwapConfig::unified_fr2355()
    };
    let inst = instrument(&m, &cfg, &lc).unwrap();
    let rt = SwapRuntime::new(&inst, cfg.clone());
    let rt_stats = rt.stats_handle();
    let mut machine = Fr2355::machine(Frequency::MHZ_24);
    machine.load(&inst.assembly.image);
    machine.attach_hook(Box::new(rt));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum());
    let s = rt_stats.borrow();
    assert!(
        s.active_fallbacks > 0,
        "the nested-call pattern must hit active-counter pinning: {s}"
    );
    assert!(s.evictions > 0, "the inactive init function must be evicted: {s}");
}

/// Drives the runtime directly (no machine) so tests can interleave miss
/// handling with hand-crafted state.
fn direct_rig(cfg: &SwapConfig) -> (Instrumented, SwapRuntime, Cpu, Bus) {
    let inst = instrumented(cfg);
    let rt = SwapRuntime::new(&inst, cfg.clone());
    let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_24);
    bus.load_image(&inst.assembly.image).unwrap();
    (inst, rt, Cpu::new(), bus)
}

#[test]
fn checker_rejects_hand_corrupted_metadata() {
    let cfg = SwapConfig {
        cache_size: 0x0E00,
        recovery: RecoveryMode::DirtyLog,
        ..SwapConfig::unified_fr2355()
    };
    let (inst, mut rt, mut cpu, mut bus) = direct_rig(&cfg);

    // Cache function 0 by simulating its first call.
    bus.poke_word(rt.fid_addr(), 0);
    rt.on_trap(&mut cpu, &mut bus, swapram::TRAP_ADDR).unwrap();
    rt.check_invariants(&bus).expect("freshly cached state is consistent");
    let f = inst.funcs[0].clone();
    let place = rt.entries_snapshot()[0].1;

    // Redirection word of a cached function pointing elsewhere.
    let good = bus.peek_word(f.redir_addr);
    bus.poke_word(f.redir_addr, place.wrapping_add(0x40));
    assert!(rt.check_invariants(&bus).is_err(), "corrupt redirection must be caught");
    bus.poke_word(f.redir_addr, good);

    // Active counter underflow.
    bus.poke_word(f.act_addr, 0xFFFF);
    assert!(rt.check_invariants(&bus).is_err(), "underflowed counter must be caught");
    bus.poke_word(f.act_addr, 0);

    // funcId word out of range.
    bus.poke_word(rt.fid_addr(), 0x7777);
    assert!(rt.check_invariants(&bus).is_err(), "wild funcId must be caught");
    bus.poke_word(rt.fid_addr(), 0);

    // Journal: count beyond capacity, then a stale-generation entry.
    let j = inst.journal.unwrap();
    let good_count = bus.peek_word(j.count_addr);
    bus.poke_word(j.count_addr, j.capacity + 1);
    assert!(rt.check_invariants(&bus).is_err(), "oversized journal must be caught");
    bus.poke_word(j.count_addr, good_count);
    let good_slot = bus.peek_word(j.slots_addr);
    bus.poke_word(j.slots_addr, good_slot ^ 0x0100); // flip a generation-tag bit
    assert!(rt.check_invariants(&bus).is_err(), "stale journal entry must be caught");
    bus.poke_word(j.slots_addr, good_slot);

    rt.check_invariants(&bus).expect("restored state is consistent again");
}

#[test]
fn checker_rejects_corrupted_relocation_words() {
    // The far-branch program from the pass tests: one relocatable branch.
    let src = "\
    .func __start
__start:
    mov #0x2ffe, sp
    call #big
    mov #0, &0x0102
    .endfunc
    .func big
big:
    tst r12
    jz big_end
    .space 0x900
    .align 2
big_end:
    ret
    .endfunc
";
    let m = parse(src).unwrap();
    let lc = LayoutConfig::new(0x4000, 0x9000);
    let cfg = SwapConfig::unified_fr2355();
    let inst = instrument(&m, &cfg, &lc).unwrap();
    let big = inst.func_by_name("big").unwrap().clone();
    assert_eq!(big.relocs.len(), 1);
    let rt = SwapRuntime::new(&inst, cfg.clone());
    let mut bus = Bus::new(MemoryMap::fr2355(), HwCache::fr2355(), Frequency::MHZ_24);
    bus.load_image(&inst.assembly.image).unwrap();
    rt.check_invariants(&bus).expect("initial state is consistent");

    let r = big.relocs[0];
    let good = bus.peek_word(r.reloc_addr);
    bus.poke_word(r.reloc_addr, 0x2EEE); // dangling SRAM target
    assert!(rt.check_invariants(&bus).is_err(), "corrupt reloc word must be caught");
    bus.poke_word(r.reloc_addr, good);

    let good_ofs = bus.peek_word(r.rofs_addr);
    bus.poke_word(r.rofs_addr, good_ofs.wrapping_add(2));
    assert!(rt.check_invariants(&bus).is_err(), "corrupt static offset must be caught");
}

/// The recovery loop itself can lose power: `recover_full_scan` /
/// `recover_from_log` rewind function-by-function, so a crash leaves a
/// rewound prefix and an untouched suffix, with the journal still open
/// (the generation closes only after every rewind). Re-entering recovery
/// must finish the job from that state.
#[test]
fn recovery_reenters_after_crash_mid_rewind() {
    for recovery in [RecoveryMode::FullScan, RecoveryMode::DirtyLog] {
        let cfg = SwapConfig {
            cache_size: 0x0E00,
            recovery,
            check_invariants: true,
            ..SwapConfig::unified_fr2355()
        };
        let inst = instrumented(&cfg);
        let mid = clean_cycles(&inst, &cfg) / 2;
        let mut machine = machine_with(&inst, &cfg);
        machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
            cycle: mid,
            kind: FaultKind::PowerLoss,
        }]));
        let out = machine.run(BUDGET).unwrap();
        assert_eq!(out.exit, ExitReason::PowerLoss);
        machine.power_cycle();

        // Snapshot the pre-recovery (crash-time) metadata and journal
        // header, then let a first recovery pass run to completion.
        let stale: Vec<u16> =
            inst.funcs.iter().map(|f| machine.bus().peek_word(f.redir_addr)).collect();
        let jhdr = inst.journal.map(|j| {
            (machine.bus().peek_word(j.gen_addr), machine.bus().peek_word(j.count_addr))
        });
        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        rt.recover(machine.bus_mut()).expect("first recovery pass");
        let rewound: Vec<u16> =
            inst.funcs.iter().map(|f| machine.bus().peek_word(f.redir_addr)).collect();
        assert_ne!(stale, rewound, "{recovery:?}: the loss must leave dirty metadata");

        // Reconstruct the state a crash halfway through the rewind loop
        // leaves behind: a suffix of functions still carries crash-time
        // redirections, and the journal generation was never closed.
        let half = inst.funcs.len() / 2;
        for (f, w) in inst.funcs.iter().zip(&stale).skip(half) {
            machine.bus_mut().poke_word(f.redir_addr, *w);
        }
        if let (Some(j), Some((gen, count))) = (inst.journal, jhdr) {
            machine.bus_mut().poke_word(j.gen_addr, gen);
            machine.bus_mut().poke_word(j.count_addr, count);
        }
        machine.power_cycle();

        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let outcome = rt.recover(machine.bus_mut()).expect("re-entered recovery");
        if recovery == RecoveryMode::DirtyLog {
            assert_eq!(outcome.mode, RecoveryMode::DirtyLog, "the open journal replays");
            assert!(!outcome.journal_fallback);
        }
        let after: Vec<u16> =
            inst.funcs.iter().map(|f| machine.bus().peek_word(f.redir_addr)).collect();
        assert_eq!(after, rewound, "{recovery:?}: re-entry must finish the interrupted rewind");
        rt.check_invariants(machine.bus()).expect("re-entered recovery leaves consistent state");

        machine.attach_hook(Box::new(rt));
        let out = machine.run(BUDGET).unwrap();
        assert_eq!(out.exit, ExitReason::Halted(0));
        assert_eq!(out.checksum.0, expected_checksum(), "{recovery:?}");
    }
}

/// The journal closes in two writes (bump generation, zero count); a
/// crash between them leaves old-generation entries under a new tag. The
/// next recovery must spot the mismatch and fall back to the full scan.
#[test]
fn stale_generation_journal_forces_fallback_on_reentry() {
    let cfg = SwapConfig {
        cache_size: 0x0E00,
        recovery: RecoveryMode::DirtyLog,
        check_invariants: true,
        ..SwapConfig::unified_fr2355()
    };
    let inst = instrumented(&cfg);
    let j = inst.journal.unwrap();
    let mid = clean_cycles(&inst, &cfg) / 2;
    let mut machine = machine_with(&inst, &cfg);
    machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
        cycle: mid,
        kind: FaultKind::PowerLoss,
    }]));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::PowerLoss);
    machine.power_cycle();

    let count0 = machine.bus().peek_word(j.count_addr);
    assert!(count0 > 0, "the interrupted run must have logged dirty functions");
    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    rt.recover(machine.bus_mut()).expect("first recovery pass");

    // Crash landed between the generation bump and the count reset: the
    // rewinds are durable, but the header says the old entries are live.
    machine.bus_mut().poke_word(j.count_addr, count0);
    machine.power_cycle();

    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    let outcome = rt.recover(machine.bus_mut()).expect("re-entered recovery");
    assert_eq!(outcome.mode, RecoveryMode::FullScan);
    assert!(outcome.journal_fallback, "stale-generation entries must not replay");
    assert_eq!(rt.stats_handle().borrow().journal_fallbacks, 1);
    assert_eq!(outcome.rewound, 0, "the first pass already rewound everything");
    rt.check_invariants(machine.bus()).expect("consistent after the fallback");

    machine.attach_hook(Box::new(rt));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum());
}

/// Seeded nested-crash property: at every reboot, power may fail again
/// zero to two times right after recovery finishes (before the first
/// app instruction). Each re-entry must leave a consistent state and the
/// run must still converge to the exact answer.
#[test]
fn seeded_reentry_property_survives_nested_crashes() {
    for (seed, recovery) in [
        (5u64, RecoveryMode::FullScan),
        (29, RecoveryMode::DirtyLog),
        (4242, RecoveryMode::DirtyLog),
        (90210, RecoveryMode::FullScan),
    ] {
        let cfg = SwapConfig {
            cache_size: 0x0E00,
            recovery,
            check_invariants: true,
            ..SwapConfig::unified_fr2355()
        };
        let inst = instrumented(&cfg);
        let c = clean_cycles(&inst, &cfg);
        let plan = FaultPlan::power_losses(seed, 4, c / 10..c * 9 / 10);
        let mut machine = machine_with(&inst, &cfg);
        machine.attach_fault_plan(plan);
        let mut rng = SplitMix64::new(seed ^ 0xDEAD_BEEF);
        let mut boots = 1u32;
        loop {
            let out = machine.run(BUDGET).expect("simulation error");
            match out.exit {
                ExitReason::Halted(0) => {
                    assert_eq!(out.checksum.0, expected_checksum(), "seed {seed} {recovery:?}");
                    break;
                }
                ExitReason::PowerLoss => {
                    boots += 1;
                    assert!(boots <= 64, "seed {seed}: power-loss loop did not converge");
                    machine.power_cycle();
                    // Nested crashes: recovery completes, then power fails
                    // again before any instruction runs.
                    for _ in 0..rng.below(3) {
                        let mut rt = SwapRuntime::new(&inst, cfg.clone());
                        rt.recover(machine.bus_mut()).expect("nested recovery");
                        rt.check_invariants(machine.bus()).expect("nested recovery consistent");
                        machine.power_cycle();
                    }
                    let mut rt = SwapRuntime::new(&inst, cfg.clone());
                    rt.recover(machine.bus_mut()).expect("final recovery");
                    machine.attach_hook(Box::new(rt));
                }
                other => panic!("seed {seed}: unexpected exit {other:?}"),
            }
        }
        assert!(boots > 1, "seed {seed}: the schedule must actually cut power");
    }
}

/// The persistent-stack variants of the same program: SP parks at the
/// top of FRAM so the live stack window survives power loss and the
/// commit gate accepts checkpoints.
fn fram_stack_src() -> String {
    SRC.replace("#0x2ffe", "#0x9ffe")
}

fn ps_cfg() -> SwapConfig {
    SwapConfig {
        cache_size: 0x0E00,
        recovery: RecoveryMode::PersistentStack,
        check_invariants: true,
        ..SwapConfig::unified_fr2355()
    }
    .with_checkpoint_interval(0)
}

fn ps_instrumented(cfg: &SwapConfig) -> Instrumented {
    let m = parse(&fram_stack_src()).unwrap();
    let lc = LayoutConfig::new(0x4000, 0x9000);
    instrument(&m, cfg, &lc).unwrap()
}

/// Runs a PS machine to the single scheduled loss and power-cycles it,
/// leaving committed checkpoint frames (trap commits plus the dying-gasp
/// frame) in FRAM. Returns the machine.
fn ps_machine_after_loss(inst: &Instrumented, cfg: &SwapConfig) -> Machine {
    let mut calib = Fr2355::machine(Frequency::MHZ_24);
    calib.load(&inst.assembly.image);
    calib.attach_hook(Box::new(SwapRuntime::new(inst, cfg.clone())));
    let clean = calib.run(BUDGET).unwrap();
    assert_eq!(clean.exit, ExitReason::Halted(0));

    let mut machine = Fr2355::machine(Frequency::MHZ_24);
    machine.load(&inst.assembly.image);
    machine.attach_fault_plan(FaultPlan::new(vec![FaultEvent {
        cycle: clean.stats.total_cycles() / 2,
        kind: FaultKind::PowerLoss,
    }]));
    machine.attach_hook(Box::new(SwapRuntime::new(inst, cfg.clone())));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::PowerLoss);
    machine.power_cycle();
    machine
}

/// Power loss during persistent-stack recovery itself: each re-entered
/// boot resumes the same frame without executing a single instruction,
/// so the state fingerprint never moves. The Sisyphus watchdog must call
/// that out as degradation instead of looping silently — and the
/// degraded (but resumed) boot must still finish with the exact answer.
#[test]
fn persistent_stack_crash_during_recovery_degrades_then_completes() {
    let cfg = ps_cfg().with_watchdog_boots(2);
    let inst = ps_instrumented(&cfg);
    let mut machine = ps_machine_after_loss(&inst, &cfg);

    let mut last: Option<SwapRuntime> = None;
    for boot in 1..=3u32 {
        let mut rt = SwapRuntime::new(&inst, cfg.clone());
        let (cpu, bus) = machine.cpu_bus_mut();
        let outcome = rt.recover_resume(cpu, bus).expect("re-entered recovery");
        assert!(outcome.resumed, "boot {boot}: the gasp frame must resume every time");
        assert_eq!(
            outcome.watchdog_degraded,
            boot >= 3,
            "boot {boot}: an unmoved fingerprint degrades exactly at the threshold"
        );
        if boot < 3 {
            // Power fails again before the first resumed instruction.
            machine.power_cycle();
        }
        last = Some(rt);
    }
    let rt = last.unwrap();
    let stats = rt.stats_handle();
    machine.attach_hook(Box::new(rt));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum(), "degraded resume is still exact");
    assert_eq!(stats.borrow().watchdog_degradations, 1);
}

/// A commit torn by the outage (bad payload under a published
/// generation) must be rolled back on the next boot, and the boot after
/// that — another crash before progress — must re-enter cleanly on the
/// surviving older frame.
///
/// The invariant oracle stays off here: under the two-phase commit
/// protocol a published generation with a bad CRC is unreachable from
/// power loss alone, so the oracle classifies it as corruption and
/// rejects the boot (covered below); rollback is the graceful-runtime
/// path.
#[test]
fn persistent_stack_torn_commit_reenters_on_older_frame() {
    let cfg = SwapConfig { check_invariants: false, ..ps_cfg() };
    let inst = ps_instrumented(&cfg);
    let ra = inst.resume.expect("persistent-stack layout emitted");
    let mut machine = ps_machine_after_loss(&inst, &cfg);

    // Both slots commit during the run (trap commits alternate, the gasp
    // lands last); tear the payload of the newest one.
    let gens: Vec<u16> = (0..2).map(|s| machine.bus().peek_word(ra.word_addr(s, 0))).collect();
    assert!(
        gens.iter().all(|g| g & ResumeArea::GEN_MARK != 0),
        "both slots must hold committed frames: {gens:04x?}"
    );
    let newest = usize::from((gens[1] & !ResumeArea::GEN_MARK) > (gens[0] & !ResumeArea::GEN_MARK));
    let at = ra.word_addr(newest, ResumeArea::REGS_OFS + 4);
    let w = machine.bus().peek_word(at);
    machine.bus_mut().poke_word(at, w ^ 0x0800);

    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    let stats = rt.stats_handle();
    let (cpu, bus) = machine.cpu_bus_mut();
    let outcome = rt.recover_resume(cpu, bus).expect("recovery with a torn frame");
    assert!(outcome.resumed, "the older intact frame must resume");
    assert_eq!(stats.borrow().torn_checkpoints, 1);
    assert_eq!(
        machine.bus().peek_word(ra.word_addr(newest, 0)) & ResumeArea::GEN_MARK,
        0,
        "the torn slot rolled back"
    );

    // Crash again before any progress: re-entry must tear nothing new
    // and resume the same older frame.
    machine.power_cycle();
    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    let stats = rt.stats_handle();
    let (cpu, bus) = machine.cpu_bus_mut();
    let outcome = rt.recover_resume(cpu, bus).expect("re-entered recovery");
    assert!(outcome.resumed);
    assert_eq!(stats.borrow().torn_checkpoints, 0, "rollback is durable, not re-detected");

    machine.attach_hook(Box::new(rt));
    let out = machine.run(BUDGET).unwrap();
    assert_eq!(out.exit, ExitReason::Halted(0));
    assert_eq!(out.checksum.0, expected_checksum(), "replay from the older frame is exact");
}

/// With the oracle on, the same torn frame is a *detected* integrity
/// failure at boot — never a silent resume of corrupt state.
#[test]
fn oracle_rejects_torn_commit_as_corruption() {
    let cfg = ps_cfg();
    let inst = ps_instrumented(&cfg);
    let ra = inst.resume.expect("persistent-stack layout emitted");
    let mut machine = ps_machine_after_loss(&inst, &cfg);

    let gens: Vec<u16> = (0..2).map(|s| machine.bus().peek_word(ra.word_addr(s, 0))).collect();
    let newest = usize::from((gens[1] & !ResumeArea::GEN_MARK) > (gens[0] & !ResumeArea::GEN_MARK));
    let at = ra.word_addr(newest, ResumeArea::REGS_OFS + 4);
    let w = machine.bus().peek_word(at);
    machine.bus_mut().poke_word(at, w ^ 0x0800);

    let mut rt = SwapRuntime::new(&inst, cfg.clone());
    let (cpu, bus) = machine.cpu_bus_mut();
    let err = rt.recover_resume(cpu, bus).expect_err("oracle must reject the corrupt frame");
    assert!(
        format!("{err:?}").contains("invariant violation"),
        "detected as an integrity failure: {err:?}"
    );
}

#[test]
fn property_checker_accepts_all_reachable_states() {
    // Seeded SplitMix64 property loop (PR 2 convention): random call
    // sequences, random app-plausible active counters, and random power
    // cycles with recovery must keep the invariant checker satisfied at
    // every step, in both recovery modes.
    for (seed, recovery) in [
        (11u64, RecoveryMode::FullScan),
        (42, RecoveryMode::DirtyLog),
        (1234, RecoveryMode::DirtyLog),
        (77, RecoveryMode::FullScan),
    ] {
        let cfg = SwapConfig {
            cache_size: 0x0200, // tiny: heavy eviction and fallback traffic
            recovery,
            check_invariants: true, // on_trap itself also asserts
            ..SwapConfig::unified_fr2355()
        };
        let (inst, mut rt, mut cpu, mut bus) = direct_rig(&cfg);
        let nfuncs = inst.funcs.len() as u16;
        let mut rng = SplitMix64::new(seed);
        for step in 0..300u32 {
            match rng.below(20) {
                0 => {
                    // Power cycle + fresh runtime + recovery.
                    bus.power_cycle();
                    rt = SwapRuntime::new(&inst, cfg.clone());
                    rt.recover(&mut bus).unwrap_or_else(|e| {
                        panic!("seed {seed} step {step}: recovery rejected: {e}")
                    });
                }
                1 => {
                    // An app-plausible active counter (a caller somewhere
                    // on the stack).
                    let f = &inst.funcs[usize::from(rng.below(u64::from(nfuncs)) as u16)];
                    bus.poke_word(f.act_addr, (rng.below(3) + 1) as u16);
                }
                2 => {
                    // The app returning: counters drop back to zero.
                    for f in &inst.funcs {
                        bus.poke_word(f.act_addr, 0);
                    }
                }
                _ => {
                    let fid = rng.below(u64::from(nfuncs)) as u16;
                    bus.poke_word(rt.fid_addr(), fid);
                    rt.on_trap(&mut cpu, &mut bus, swapram::TRAP_ADDR).unwrap_or_else(|e| {
                        panic!("seed {seed} step {step}: miss on f{fid} rejected: {e}")
                    });
                }
            }
            rt.check_invariants(&bus).unwrap_or_else(|e| {
                panic!("seed {seed} step {step}: checker rejected reachable state: {e}")
            });
        }
    }
}
