//! Peak resident memory from `getrusage(2)`.
//!
//! The standard library does not expose it, and the workspace builds
//! without external crates, so the call is declared here. The layout below
//! is the Linux `struct rusage` on 64-bit targets, where `time_t`,
//! `suseconds_t` and every counter are a C `long`.

use std::os::raw::{c_int, c_long};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("swapbench reads `struct rusage` with the 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Rusage {
    /// `ru_utime` and `ru_stime`, two `struct timeval`s.
    times: [c_long; 4],
    /// Peak resident set size in KiB.
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

fn peak_rss_mb(who: c_int) -> f64 {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, writable `struct rusage` for this target
    // (see the module docs), and `who` is one of the two values the call
    // defines; the kernel writes only inside the struct.
    let rc = unsafe { getrusage(who, &mut r) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    r.maxrss.max(0) as f64 * 1024.0 / 1e6
}

/// Peak RSS of the calling process so far, in MB (10^6 bytes).
pub fn this_process_peak_mb() -> f64 {
    peak_rss_mb(RUSAGE_SELF)
}

/// Largest peak RSS of any child this process has waited for, in MB.
pub fn children_peak_mb() -> f64 {
    peak_rss_mb(RUSAGE_CHILDREN)
}
