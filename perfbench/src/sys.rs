//! Process-wide readings from the operating system: CPU time and voluntary
//! context switches of every thread of this process (`getrusage`), and the
//! resident-set high-water mark (`/proc/self/status`).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage/procfs with the 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time and voluntary context switches of the whole process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU time of all threads, live and exited, in ns.
    pub cpu_ns: u64,
    /// Voluntary context switches of all threads.
    pub voluntary_switches: u64,
}

impl Usage {
    /// Read the current totals.
    pub fn now() -> Usage {
        let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `ru` points to writable memory the size and layout of the
        // C `struct rusage` on 64-bit Linux (checked by the cfg above);
        // getrusage writes only into it.
        let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
        );
        // SAFETY: zero-initialised, then filled by a successful getrusage;
        // every field is a plain integer, so any bit pattern is valid.
        let ru = unsafe { ru.assume_init() };
        let ns = |t: &Timeval| t.sec as u64 * 1_000_000_000 + t.usec as u64 * 1_000;
        Usage {
            cpu_ns: ns(&ru.utime) + ns(&ru.stime),
            voluntary_switches: ru.nvcsw as u64,
        }
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted on Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status carries VmHWM");
    kb / 1024.0
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Hold the calling thread — and every thread it starts afterwards — to
/// the CPU it is running on now. Returns that CPU, or `None` if the
/// affinity could not be set.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads the kernel's
    // record of the calling thread's CPU.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a 1024-bit cpu_set_t (16 × 64 bits) that lives
    // across the call, and its size is passed alongside; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}
