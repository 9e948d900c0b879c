//! Memory: high-water marks of this process and its children, and
//! returning free heap to the OS.

/// `VmHWM` of a live process, in MiB, from `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident size (writes
/// `5` to `/proc/self/clear_refs`); a no-op where that is not allowed.
pub fn reset_self_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MiB.
pub fn self_hwm_mb() -> Option<f64> {
    vm_hwm_mb(std::process::id())
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns the allocator's free memory to the OS (glibc `malloc_trim`),
/// so the next timed pass starts from the heap a fresh process has: it
/// pays for faulting in every page it uses.
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases free memory and takes no pointers.
    unsafe {
        malloc_trim(0);
    }
}

const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Option<Rusage> {
    let mut usage = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` laid out as the
    // C definition on 64-bit Linux; getrusage writes only inside it.
    let rc = unsafe { getrusage(who, &mut usage) };
    (rc == 0).then_some(usage)
}

/// The largest `ru_maxrss` among every child this process has waited
/// for, in MiB.
pub fn children_max_rss_mb() -> Option<f64> {
    rusage(RUSAGE_CHILDREN).map(|u| u.ru_maxrss as f64 / 1024.0)
}
