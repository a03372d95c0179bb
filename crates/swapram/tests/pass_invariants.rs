//! Structural invariants of the SwapRAM static pass output.

use msp430_asm::ast::{AsmOperand, Insn, Item};
use msp430_asm::layout::LayoutConfig;
use msp430_asm::parser::parse;
use swapram::pass::instrument;
use swapram::SwapConfig;

const SRC: &str = "\
    .text
    .func __start
__start:
    mov  #0x9ffc, sp
    call #main
    mov  #0, &0x0102
    .endfunc
    .func main
main:
    mov  #4, r12
    call #helper
    call #helper
    call #leaf
    ret
    .endfunc
    .func helper
helper:
    call #leaf
    ret
    .endfunc
    .func leaf
leaf:
    add  #1, r12
    ret
    .endfunc
";

fn setup() -> swapram::Instrumented {
    let module = parse(SRC).unwrap();
    instrument(&module, &SwapConfig::unified_fr2355(), &LayoutConfig::new(0x4000, 0x9000)).unwrap()
}

#[test]
fn no_direct_calls_to_cacheable_functions_remain() {
    let inst = setup();
    let cacheable: Vec<&str> = inst.funcs.iter().map(|f| f.name.as_str()).collect();
    for stmt in &inst.assembly.module.stmts {
        if let Item::Insn(insn) = &stmt.item {
            if let Some(target) = insn.call_target().and_then(|e| e.as_symbol()) {
                assert!(
                    !cacheable.contains(&target),
                    "direct call to cacheable `{target}` survived the pass"
                );
            }
        }
    }
}

#[test]
fn every_cacheable_function_has_unique_tables() {
    let inst = setup();
    assert_eq!(inst.funcs.len(), 3, "__start is excluded");
    let mut addrs: Vec<u16> = Vec::new();
    for f in &inst.funcs {
        addrs.push(f.redir_addr);
        addrs.push(f.act_addr);
        assert!(f.redir_addr >= swapram::TABLES_BASE, "{}: metadata in the tables section", f.name);
        // Function sizes match the assembled spans.
        let span = inst.assembly.function(&f.name).unwrap();
        assert_eq!(f.fram_addr, span.start, "{}", f.name);
        assert_eq!(f.size, span.size(), "{}", f.name);
    }
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), 6, "redirection/counter words must not alias");
}

#[test]
fn call_sites_write_the_callees_func_id() {
    let inst = setup();
    // Each rewritten call site is preceded by `mov #id, &__sr_fid`; count
    // fid stores == indirect calls.
    let mut fid_stores = 0;
    let mut indirect_calls = 0;
    for stmt in &inst.assembly.module.stmts {
        if let Item::Insn(insn) = &stmt.item {
            match insn {
                Insn::FormatI { dst: AsmOperand::Absolute(e), .. }
                    if e.as_symbol() == Some("__sr_fid") =>
                {
                    fid_stores += 1;
                }
                Insn::FormatII {
                    op: msp430_sim::Opcode::Call,
                    dst: AsmOperand::Absolute(_),
                    ..
                } => indirect_calls += 1,
                _ => {}
            }
        }
    }
    assert_eq!(fid_stores, inst.call_sites);
    assert_eq!(indirect_calls, inst.call_sites);
    assert_eq!(inst.call_sites, 5, "5 rewritten call sites in the source");
}

#[test]
fn instrumentation_is_deterministic() {
    let a = setup();
    let b = setup();
    assert_eq!(a.assembly.image, b.assembly.image, "same input, same binary");
    assert_eq!(a.funcs, b.funcs);
}

#[test]
fn blacklist_shrinks_metadata() {
    let cfg = SwapConfig::unified_fr2355().with_blacklisted("leaf");
    let module = parse(SRC).unwrap();
    let inst = instrument(&module, &cfg, &LayoutConfig::new(0x4000, 0x9000)).unwrap();
    assert_eq!(inst.funcs.len(), 2);
    let full = setup();
    assert!(inst.metadata_bytes < full.metadata_bytes);
    assert!(inst.call_sites < full.call_sites, "calls to leaf stay direct");
}
