//! The machine-information header printed above every result.

use std::path::Path;

/// Host facts a reader needs to compare two results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineInfo {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Commit of the checkout, when it is a git checkout.
    pub git_rev: String,
    /// Every `SWAPRAM_*` variable in the environment (reps run without
    /// them, except the worker count and fault seed the benchmark sets).
    pub swapram_env: Vec<(String, String)>,
}

impl MachineInfo {
    /// Reads the facts from the running system and the checkout at `root`.
    pub fn collect(root: &Path) -> MachineInfo {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut swapram_env: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("SWAPRAM_"))
            .collect();
        swapram_env.sort();
        MachineInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            git_rev: git_rev(root).unwrap_or_else(|| "unknown (not a git checkout)".into()),
            swapram_env,
        }
    }

    /// Markdown table in the style of a BENCHMARKS.md "System Information"
    /// section.
    pub fn render(&self) -> String {
        let env = if self.swapram_env.is_empty() {
            "(none)".to_string()
        } else {
            self.swapram_env
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let rows = [
            ("nproc", self.nproc.to_string()),
            ("CPU", self.cpu.clone()),
            ("git rev", self.git_rev.clone()),
            ("SWAPRAM_* seen", env),
        ];
        let mut out = String::from("## System Information\n\n| Property | Value |\n|---|---|\n");
        for (k, v) in rows {
            out.push_str(&format!("| {k} | {v} |\n"));
        }
        out
    }
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| {
            let (rev, name) = l.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
}
