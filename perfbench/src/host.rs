//! The host clock: CPU pinning, CPU time and memory of this process.
//!
//! The simulator runs one OS thread per simulated process under a strict
//! hand-off, so exactly one thread is runnable at any instant. Left
//! unpinned on a 2-core machine the scheduler bounces that one runnable
//! thread between cores and the same 16-writer run took 2.0, 3.9, 9.5,
//! 10.3 and 10.3 s; pinned to one CPU it took 1.94–2.08 s. Every run
//! therefore pins itself before it creates a `Simulation`, and reports
//! CPU seconds (user + system, all threads), which other load on the
//! machine does not inflate the way it inflates wall time.

use std::time::Duration;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed
/// by fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
/// Words in the affinity mask handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Where this process runs.
#[derive(Debug, Clone, Copy)]
pub struct Pinning {
    /// CPUs the process was allowed on before pinning.
    pub nproc: usize,
    /// The CPU it is pinned to, if pinning succeeded.
    pub cpu: Option<usize>,
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU it is allowed on (interrupts and the parent
/// shell tend to sit on CPU 0).
pub fn pin_to_one_cpu() -> Pinning {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return Pinning {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: None,
        };
    }
    let nproc = mask.iter().map(|w| w.count_ones() as usize).sum();
    let Some(word) = mask.iter().rposition(|w| *w != 0) else {
        return Pinning { nproc, cpu: None };
    };
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the size passed, read
    // only by the kernel.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    Pinning {
        nproc,
        cpu: (set == 0).then_some(word * 64 + bit),
    }
}

/// CPU time and voluntary context switches of the whole process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    /// Voluntary context switches: one per simulated-process hand-off
    /// that had to block.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // the kernel fills in.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let tv = |t: [i64; 2]| Duration::new(t[0] as u64, t[1] as u32 * 1_000);
        Usage {
            user: tv(ru.utime),
            sys: tv(ru.stime),
            ctx_switches: ru.longs[NVCSW] as u64,
        }
    }

    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// One `kB`- or count-valued field of `/proc/self/status`.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    proc_status("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// OS threads of this process right now.
pub fn threads() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}
