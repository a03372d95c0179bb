//! Where every byte of a build lives, decided and checked in one place.
//!
//! A [`MemoryProfile`] places the application's sections and stack; the
//! build's system adds its runtime's regions. Each build names them all in
//! one [`Layout`], and [`Layout::check`] rejects any region outside its
//! memory and any two regions that share an address — the paper's DNF
//! outcome. Everything downstream (the sanitizer's watchpoints, the fault
//! campaigns' flip targets, what a reboot restores) reads the build's
//! [`Layout`] instead of working addresses out on its own.

use crate::builder::{BuildError, Program};
use blockcache::bbpass;
use msp430_sim::mem::{AddrRange, MemoryMap, HANDLER_WINDOW};
use std::fmt;

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
        let sram = MemoryMap::fr2355().sram.len() as u16;
        MemoryProfile { name: "code FRAM / data SRAM", ..MemoryProfile::split_sram(sram) }
    }

    /// Figure 1: code in SRAM, data in FRAM.
    pub fn code_sram_data_fram() -> MemoryProfile {
        MemoryProfile {
            name: "code SRAM / data FRAM",
            text_base: MemoryMap::fr2355().sram.start,
            ..MemoryProfile::unified()
        }
    }

    /// Figure 1: everything in SRAM (only feasible for small programs):
    /// code in the low half, data and stack in the high half.
    pub fn all_sram() -> MemoryProfile {
        let (code, data) = MemoryMap::fr2355().split_sram(0x800);
        MemoryProfile {
            name: "code+data SRAM",
            text_base: code.start,
            data_base: data.start,
            stack_top: (data.end - 4) as u16,
        }
    }

    /// Split-SRAM model (paper §5.5): program data and stack occupy the
    /// low `reserved` bytes of SRAM; code stays in FRAM and the remaining
    /// SRAM becomes the software cache.
    pub fn split_sram(reserved: u16) -> MemoryProfile {
        let (data, _) = MemoryMap::fr2355().split_sram(reserved);
        MemoryProfile {
            name: "split SRAM",
            text_base: 0x4000,
            data_base: data.start,
            stack_top: (data.end - 4) as u16,
        }
    }
}

/// What a [`Region`] of a [`Layout`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An application section (`text`, `data`): a replay boot restores it
    /// from the image.
    Section,
    /// The runtime's metadata tables: they survive a reboot as the power
    /// loss left them, for recovery to repair.
    Tables,
    /// SwapRAM's persistent-stack resume area: its committed checkpoints
    /// and watchdog words survive every reboot.
    Resume,
    /// The application stack, `[end of the section below it, stack top +
    /// 4)` in the stack top's memory.
    Stack,
    /// The runtime's SRAM code cache.
    Cache,
    /// The FRAM window the runtime's handler code is fetched from.
    Handler,
    /// The trap word uncached calls and block exits jump to.
    Trap,
}

/// One named address range of a [`Layout`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// The section's name, or what the region is (`stack`, `cache`, ...).
    pub name: String,
    /// What the region holds.
    pub role: Role,
    /// Where it lies.
    pub range: AddrRange,
}

impl Region {
    fn new(name: &str, role: Role, start: u16, len: u32) -> Region {
        let end = (u32::from(start) + len).min(0x1_0000);
        Region { name: name.to_string(), role, range: AddrRange::new(start, end) }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.role {
            Role::Section | Role::Tables | Role::Resume => write!(f, "section `{}`", self.name)?,
            _ => f.write_str(&self.name)?,
        }
        write!(f, " [{:#06x}, {:#07x})", self.range.start, self.range.end)
    }
}

/// Every region of one build: its non-empty sections and its stack, plus,
/// under a software cache, the cache window, the handler window and the
/// trap of that system's runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// The regions: sections in address order, then the stack, then the
    /// runtime's regions.
    pub regions: Vec<Region>,
}

impl Layout {
    /// The layout of `program` as `profile` placed it.
    pub(crate) fn new(program: &Program, profile: &MemoryProfile) -> Layout {
        // The runtime's tables section, cache window, handler base and trap.
        let (tables, runtime) = match program {
            Program::Base(_) => ("", None),
            Program::Swap(_, cfg) => {
                let (handler, trap) = (swapram::HANDLER_CODE_BASE, swapram::TRAP_ADDR);
                let tables = swapram::tables::TABLES_SECTION;
                (tables, Some((cfg.cache_base, cfg.cache_size, handler, trap)))
            }
            Program::Block(_, cfg) => {
                let (handler, trap) = (blockcache::HANDLER_CODE_BASE, blockcache::TRAP_ADDR);
                (bbpass::TABLES_SECTION, Some((cfg.cache_base, cfg.cache_size, handler, trap)))
            }
        };
        let mut regions: Vec<Region> = program
            .assembly()
            .sections
            .iter()
            .filter(|(_, _, size)| *size > 0)
            .map(|(name, base, size)| {
                let role = match name.as_str() {
                    n if n == tables => Role::Tables,
                    swapram::tables::RESUME_SECTION => Role::Resume,
                    _ => Role::Section,
                };
                Region::new(name, role, *base, u32::from(*size))
            })
            .collect();
        regions.push(stack(&regions, profile.stack_top));
        if let Some((cache_base, cache_size, handler, trap)) = runtime {
            let window = u32::from(HANDLER_WINDOW);
            regions.push(Region::new("cache", Role::Cache, cache_base, u32::from(cache_size)));
            regions.push(Region::new("handler window", Role::Handler, handler, window));
            regions.push(Region::new("trap", Role::Trap, trap, 2));
        }
        Layout { regions }
    }

    /// Checks that the build fits the device: a trap lies in the trap
    /// window and every other region in SRAM or FRAM, the stack has room
    /// for a word below its top, and no two regions share an address.
    ///
    /// # Errors
    ///
    /// [`BuildError::DoesNotFit`] naming the first offending region (or
    /// pair of regions).
    pub fn check(&self) -> Result<(), BuildError> {
        let map = MemoryMap::fr2355();
        let dnf = |msg: String| Err(BuildError::DoesNotFit(msg));
        for r in &self.regions {
            let homes = if r.role == Role::Trap { &[map.trap][..] } else { &[map.sram, map.fram] };
            if !homes.iter().any(|m| m.start <= r.range.start && r.range.end <= m.end) {
                return dnf(format!("{r} exceeds its memory region"));
            }
            if r.role == Role::Stack && r.range.len() <= 4 {
                return dnf(format!("{r} has no room below its top"));
            }
        }
        for (i, a) in self.regions.iter().enumerate() {
            if let Some(b) = self.regions[i + 1..].iter().find(|b| a.range.overlaps(&b.range)) {
                return dnf(format!("{a} overlaps {b}"));
            }
        }
        Ok(())
    }

    /// The range of the first region with `role`.
    pub fn get(&self, role: Role) -> Option<AddrRange> {
        self.regions.iter().find(|r| r.role == role).map(|r| r.range)
    }

    /// The range of the non-empty section `name`.
    pub fn section(&self, name: &str) -> Option<AddrRange> {
        self.regions.iter().find(|r| r.name == name).map(|r| r.range)
    }

    /// Whether `addr` lies in a region that keeps its bytes across a
    /// reboot: the metadata tables and the resume area.
    pub fn survives_reboot(&self, addr: u16) -> bool {
        self.regions
            .iter()
            .any(|r| matches!(r.role, Role::Tables | Role::Resume) && r.range.contains(addr))
    }
}

/// The stack region below `stack_top`: from the end of the highest section
/// that lies below the top in the same memory (or from the memory's start)
/// up to `stack_top + 4`. A top inside a section thus overlaps it.
fn stack(sections: &[Region], stack_top: u16) -> Region {
    let map = MemoryMap::fr2355();
    let top = u32::from(stack_top) + 4;
    let floor = [map.sram, map.fram].into_iter().find(|m| m.contains(stack_top)).map_or(
        u32::from(stack_top),
        |m| {
            sections
                .iter()
                .filter(|r| r.range.start >= m.start && r.range.end <= top)
                .map(|r| r.range.end)
                .fold(u32::from(m.start), u32::max)
        },
    );
    Region::new("stack", Role::Stack, floor as u16, top - floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build, System};
    use crate::Benchmark;
    use swapram::SwapConfig;

    #[test]
    fn check_rejects_every_overlap_kind() {
        let built = build(
            Benchmark::Crc,
            &System::SwapRam(SwapConfig::unified_fr2355()),
            &MemoryProfile::unified(),
        )
        .unwrap();
        let good = built.layout;
        assert_eq!(good.check(), Ok(()));
        let text = good.section("text").unwrap();
        let data = good.section("data").unwrap();
        let handler = good.get(Role::Handler).unwrap();
        let sections: Vec<Region> =
            good.regions.iter().filter(|r| r.role == Role::Section).cloned().collect();
        // `good` with the first region `pick` selects moved to `range`.
        let moved = |pick: &dyn Fn(&Region) -> bool, range: AddrRange| {
            let mut layout = good.clone();
            layout.regions.iter_mut().find(|r| pick(r)).unwrap().range = range;
            layout
        };
        let role = |role: Role| move |r: &Region| r.role == role;
        let stack_at = |top: u16| moved(&role(Role::Stack), stack(&sections, top).range);
        let into_handler = AddrRange::new(handler.start, u32::from(handler.start) + 0x10);
        let off_trap = AddrRange::new(0x0E00, 0x0E02);
        let cases = [
            ("stack top inside a section", stack_at(data.start + 0x10), "overlaps stack"),
            ("stack top on the section below it", stack_at(data.end as u16), "no room"),
            ("cache window over data", moved(&role(Role::Cache), data), "overlaps cache"),
            ("cache window over text", moved(&role(Role::Cache), text), "overlaps cache"),
            (
                "section inside a handler window",
                moved(&|r| r.name == "data", into_handler),
                "overlaps handler window",
            ),
            ("trap outside the trap window", moved(&role(Role::Trap), off_trap), "exceeds"),
        ];
        for (what, layout, needle) in cases {
            match layout.check() {
                Err(BuildError::DoesNotFit(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
                other => panic!("{what}: not rejected ({other:?})"),
            }
        }
    }
}
