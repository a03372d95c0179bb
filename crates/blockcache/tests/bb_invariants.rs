//! Structural invariants of the block-cache transformation.

use blockcache::bbpass::{transform, ExitKind};
use msp430_asm::layout::LayoutConfig;
use msp430_asm::parser::parse;

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
    mov  #5, r12
m_loop:
    call #work
    dec  r12
    jnz  m_loop
    ret
    .endfunc
    .func work
work:
    tst  r12
    jz   w_zero
    add  #2, r12
    ret
w_zero:
    mov  #1, r12
    ret
    .endfunc
";

fn setup() -> blockcache::BlockProgram {
    let module = parse(SRC).unwrap();
    transform(&module, &LayoutConfig::new(0x4000, 0x9000)).unwrap()
}

#[test]
fn every_static_exit_targets_a_block_start() {
    let p = setup();
    for e in &p.exits {
        if let ExitKind::Static { target } = &e.kind {
            let addr = p.assembly.symbol(target).expect("exit target resolves");
            assert!(
                p.block_at(addr).is_some(),
                "exit {} targets `{target}` at {addr:#06x}, which is not a block start",
                e.k
            );
        }
    }
}

#[test]
fn blocks_are_disjoint_and_cover_positive_sizes() {
    let p = setup();
    let mut spans: Vec<(u16, u16)> =
        p.blocks.iter().map(|b| (b.addr, b.addr + b.size)).collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
    }
    for b in &p.blocks {
        assert!(b.size > 0, "block {} is empty", b.b);
        assert_eq!(b.size % 2, 0, "block {} has odd size", b.b);
    }
}

#[test]
fn exit_words_live_in_the_metadata_section_and_are_unique() {
    let p = setup();
    let mut addrs: Vec<u16> = p.exits.iter().map(|e| e.word_addr).collect();
    for a in &addrs {
        assert!(*a >= blockcache::TABLES_BASE, "exit word at {a:#06x} outside the tables section");
    }
    addrs.sort_unstable();
    addrs.dedup();
    assert_eq!(addrs.len(), p.exits.len(), "exit words must not alias");
}

#[test]
fn returns_use_dynamic_exits() {
    let p = setup();
    let returns = p.exits.iter().filter(|e| matches!(e.kind, ExitKind::Return)).count();
    assert_eq!(returns, 3, "main has 1 ret, work has 2; __start never returns");
}

#[test]
fn hash_capacity_honours_load_factor() {
    let p = setup();
    assert!(
        u32::from(p.hash_capacity) >= 2 * p.blocks.len() as u32,
        "0.5 load factor: capacity {} for {} blocks",
        p.hash_capacity,
        p.blocks.len()
    );
}
