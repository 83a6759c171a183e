//! Facts about the host and the process: recorded with every report so a
//! noisy run can be told apart from a slow program.

use crate::report::{num, object, string};
use std::path::Path;

/// Resource usage of the whole process (every thread, server threads
/// included — the server runs in-process).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU time, microseconds.
    pub cpu_us: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: f64,
    /// Peak resident set size, KiB.
    pub maxrss_kib: f64,
    /// Host-wide CPU time stolen by the hypervisor, seconds summed over
    /// CPUs (`/proc/stat`): other tenants' load, not this program.
    pub steal_s: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

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
    fn malloc_trim(pad: usize) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit Linux
    // (two timevals of two longs, then fourteen longs), and the pointer is
    // valid for writes of that size for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised, then filled by a successful getrusage; every
    // field is a plain integer, so any bit pattern is valid.
    let ru = unsafe { ru.assume_init() };
    let tv = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    Usage {
        cpu_us: tv(&ru.utime) + tv(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw) as f64,
        maxrss_kib: ru.maxrss as f64,
        steal_s: steal_s(),
    }
}

/// Host-wide CPU time the hypervisor has stolen so far, seconds summed
/// over CPUs: time this machine's CPUs wanted to run and another tenant
/// ran instead.
pub fn steal_s() -> f64 {
    steal_ticks() / USER_HZ
}

/// Clock ticks per second of `/proc/stat` (USER_HZ, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> f64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

impl Usage {
    /// Usage accrued since `earlier` (the peak RSS is the later reading).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            maxrss_kib: self.maxrss_kib,
            steal_s: self.steal_s - earlier.steal_s,
        }
    }

    /// As a JSON object for the report.
    pub fn json(&self) -> String {
        object(&[
            ("cpu_s".to_string(), num(self.cpu_us / 1e6)),
            ("ctx_switches".to_string(), num(self.ctx_switches)),
            ("peak_rss_mib".to_string(), num(self.maxrss_kib / 1024.0)),
            ("host_steal_s".to_string(), num(self.steal_s)),
        ])
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Peak resident memory over the phases in which the program works.
///
/// When a phase starts, the allocator returns its free pages to the kernel
/// (`malloc_trim`) and the kernel's high-water mark (`VmHWM`) is reset
/// (writing `5` to the process's own `/proc/self/clear_refs`, which touches
/// no file); the mark is read when the phase ends. So the benchmark's
/// transient structures built between phases — oracles, replays,
/// final-state copies — stay out of the figure. What the benchmark keeps
/// resident inside a phase is listed per workload in `README.md`.
#[derive(Default)]
pub struct PeakRss {
    mib: f64,
}

impl PeakRss {
    pub fn start(&mut self) -> Result<(), String> {
        // SAFETY: `malloc_trim` only hands free heap pages back to the
        // kernel; it takes no pointer and leaves every allocation in place.
        unsafe { malloc_trim(0) };
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))
    }

    pub fn stop(&mut self) -> Result<(), String> {
        let hwm_kib = read("/proc/self/status")
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or("no VmHWM in /proc/self/status")?;
        self.mib = self.mib.max(hwm_kib / 1024.0);
        Ok(())
    }

    /// The highest mark of the phases so far.
    pub fn mib(&self) -> f64 {
        self.mib
    }
}

/// Filesystem type holding `dir`: the longest mount point in
/// `/proc/mounts` that prefixes its canonical path.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let mut best = (0, "unknown".to_string());
    for line in read("/proc/mounts").lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 {
            continue;
        }
        let mnt = Path::new(f[1]);
        let depth = mnt.as_os_str().len();
        if dir.starts_with(mnt) && depth >= best.0 {
            best = (depth, f[2].to_string());
        }
    }
    best.1
}

/// Iterations of the host speed probe (about 0.1 s on a 2020s core).
const PROBE_ITERS: u64 = 50_000_000;

/// Host speed probe: a fixed dependent integer loop on one thread, in
/// millions of iterations per second. With the same binary, a drop between
/// runs is the host (another tenant on the core or its sibling), not the
/// program.
pub fn speed_probe_mips() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..PROBE_ITERS {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    PROBE_ITERS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// The host facts recorded with every report.
pub fn host_json(data_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let load = read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(-1.0);
    object(&[
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), string(&cpu)),
        (
            "kernel".to_string(),
            string(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("loadavg_1m".to_string(), num(load)),
        ("speed_probe_mips".to_string(), num(speed_probe_mips())),
        ("data_dir_fs".to_string(), string(&fs_type(data_dir))),
        (
            "rayon_num_threads".to_string(),
            string(if std::env::var_os("RAYON_NUM_THREADS").is_some() {
                "set"
            } else {
                "unset"
            }),
        ),
    ])
}
