//! What the benchmark reads about its own process (`getrusage`, `/proc`),
//! plus the host facts every result records.

/// `struct timespec`, `struct timeval` and `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_CHILDREN: i32 = -1;

/// CPU seconds on a CPU-time clock. These clocks include the running
/// threads' time since their last tick; `getrusage` and `/proc` do not,
/// and lag by up to a tick.
fn clock_cpu_s(clock: i32) -> f64 {
    let mut t = Timespec::default();
    // SAFETY: `t` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// User + system CPU seconds of the children that have been waited for.
fn children_cpu_s() -> f64 {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    let s = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    s(&u.utime) + s(&u.stime)
}

/// CPU seconds of this process (all its threads, finished ones included)
/// plus its children that have been waited for (the farm processes).
/// `/proc/<pid>/stat` counts in 10 ms ticks, too coarse for rounds of a
/// few milliseconds.
pub fn cpu_s() -> f64 {
    clock_cpu_s(CLOCK_PROCESS_CPUTIME_ID) + children_cpu_s()
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    clock_cpu_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    peak_rss_mb_of("self")
}

/// Peak resident set size of process `pid` (or `"self"`), in MB.
pub fn peak_rss_mb_of(pid: &str) -> f64 {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in {path}"));
    kb / 1024.0
}

/// Hardware threads available to the process (`nproc`).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit under test: `git rev-parse` in the working directory, else
/// `"unknown"` (an exported checkout).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
