//! Program model: functions, call graph and basic blocks over a [`Module`].
//!
//! The instrumentation passes (SwapRAM's function-level pass, the baseline
//! block cache's basic-block pass) need a structural view of the statement
//! list: which statements belong to which function, who calls whom, and
//! where basic blocks begin and end.

use crate::ast::{Item, Module};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// A function's extent in a module's statement list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncStmts {
    /// Function name (from `.func`).
    pub name: String,
    /// Statement indices of the body, excluding the `.func`/`.endfunc`
    /// markers themselves.
    pub body: Range<usize>,
}

/// Finds all `.func`/`.endfunc` spans in statement order.
///
/// Malformed modules (unbalanced markers) yield truncated results; the
/// layout pass reports those as hard errors.
pub fn functions_of(module: &Module) -> Vec<FuncStmts> {
    let mut out = Vec::new();
    let mut open: Option<(String, usize)> = None;
    for (i, stmt) in module.stmts.iter().enumerate() {
        match &stmt.item {
            Item::FuncStart(name) => open = Some((name.clone(), i + 1)),
            Item::FuncEnd => {
                if let Some((name, start)) = open.take() {
                    out.push(FuncStmts { name, body: start..i });
                }
            }
            _ => {}
        }
    }
    out
}

/// The static call graph: for each function, the set of direct
/// (`CALL #sym`) callees.
pub fn call_graph(module: &Module) -> BTreeMap<String, BTreeSet<String>> {
    let mut graph = BTreeMap::new();
    for f in functions_of(module) {
        let mut callees = BTreeSet::new();
        for stmt in &module.stmts[f.body.clone()] {
            if let Item::Insn(insn) = &stmt.item {
                if let Some(target) = insn.call_target().and_then(|e| e.as_symbol()) {
                    callees.insert(target.to_string());
                }
            }
        }
        graph.insert(f.name, callees);
    }
    graph
}

/// A basic block: a maximal straight-line statement range inside one
/// function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Statement indices of the block (instructions and labels only).
    pub stmts: Range<usize>,
    /// True if the last instruction is a control-flow instruction; false if
    /// the block falls through to its successor.
    pub ends_in_cfi: bool,
}

/// Splits a function body (a statement range) into basic blocks.
///
/// Blocks begin at labels and after control-flow instructions, matching the
/// splitting the block-cache baseline performs at instrumentation time
/// (paper §4 "we instrument application code for block caching at the
/// assembly level … with additional passes to identify basic blocks").
pub fn basic_blocks(module: &Module, body: Range<usize>) -> Vec<BasicBlock> {
    let mut blocks = Vec::new();
    let mut start: Option<usize> = None;
    let mut i = body.start;
    while i < body.end {
        match &module.stmts[i].item {
            Item::Label(_) => {
                if let Some(s) = start {
                    // A label in the middle of straight-line code starts a
                    // new block (it is a potential jump target) — but only
                    // if the open block already holds instructions;
                    // consecutive labels stay with the following block.
                    if insn_count(module, s..i) > 0 {
                        blocks.push(BasicBlock { stmts: s..i, ends_in_cfi: false });
                        start = Some(i);
                    }
                } else {
                    start = Some(i);
                }
            }
            Item::Insn(insn) => {
                if start.is_none() {
                    start = Some(i);
                }
                if insn.is_control_flow() {
                    blocks.push(BasicBlock {
                        stmts: start.expect("block open")..i + 1,
                        ends_in_cfi: true,
                    });
                    start = None;
                }
            }
            // Data or directives inside a function end any open block.
            _ => {
                if let Some(s) = start.take() {
                    if s < i {
                        blocks.push(BasicBlock { stmts: s..i, ends_in_cfi: false });
                    }
                }
            }
        }
        i += 1;
    }
    if let Some(s) = start {
        if s < body.end {
            blocks.push(BasicBlock { stmts: s..body.end, ends_in_cfi: false });
        }
    }
    blocks
}

/// Count of instruction statements in a range (labels excluded).
pub fn insn_count(module: &Module, range: Range<usize>) -> usize {
    module.stmts[range]
        .iter()
        .filter(|s| matches!(s.item, Item::Insn(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = "\
    .text
    .func main
main:
    call #helper
    tst r12
    jz done
    call #helper
done:
    ret
    .endfunc
    .func helper
helper:
loop:
    dec r12
    jnz loop
    ret
    .endfunc
";

    #[test]
    fn function_discovery() {
        let m = parse(SRC).unwrap();
        let fns = functions_of(&m);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "main");
        assert_eq!(fns[1].name, "helper");
    }

    #[test]
    fn call_graph_edges() {
        let m = parse(SRC).unwrap();
        let g = call_graph(&m);
        assert!(g["main"].contains("helper"));
        assert!(g["helper"].is_empty());
    }

    #[test]
    fn block_splitting() {
        let m = parse(SRC).unwrap();
        let fns = functions_of(&m);
        let blocks = basic_blocks(&m, fns[1].body.clone());
        // helper: [helper:, loop:, dec, jnz] then [ret].
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].ends_in_cfi);
        assert!(blocks[1].ends_in_cfi); // ret is a CFI
    }

    #[test]
    fn main_blocks_split_at_calls_and_labels() {
        let m = parse(SRC).unwrap();
        let fns = functions_of(&m);
        let blocks = basic_blocks(&m, fns[0].body.clone());
        // [main:, call] [tst, jz] [call] [done:, ret]
        assert_eq!(blocks.len(), 4);
        assert!(blocks.iter().all(|b| b.ends_in_cfi));
    }

    #[test]
    fn fallthrough_block_detected() {
        let m = parse("    .func f\nf:\n    nop\nl2:\n    nop\n    ret\n    .endfunc\n").unwrap();
        let fns = functions_of(&m);
        let blocks = basic_blocks(&m, fns[0].body.clone());
        assert_eq!(blocks.len(), 2);
        assert!(!blocks[0].ends_in_cfi, "first block falls through into l2");
        assert!(blocks[1].ends_in_cfi);
    }
}
