//! Where a result was measured: host, toolchain and load. Everything is
//! read through the CPU and the C library, so the benchmark reads no
//! file outside its checkout.

use std::ffi::c_int;

/// Host and build description printed with every result.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU brand string.
    pub cpu_model: String,
    /// Per-core L2 size in KiB (0 when unknown).
    pub l2_kib: u64,
    /// Shared L3 size in KiB (0 when unknown).
    pub l3_kib: u64,
    /// `rustc -vV` release and commit-hash of the compiler that built
    /// the benchmark.
    pub rustc: String,
    /// 1-, 5- and 15-minute load averages when the run started.
    pub load_avg: [f64; 3],
}

impl Provenance {
    /// Collects the description now.
    pub fn collect() -> Provenance {
        let (cpu_model, l2_kib, l3_kib) = cpu_description();
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_kib,
            l3_kib,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            load_avg: load_average(),
        }
    }

    /// One line per fact, for the human-readable report.
    pub fn lines(&self) -> Vec<String> {
        vec![
            format!("nproc        {}", self.nproc),
            format!("cpu          {}", self.cpu_model),
            format!(
                "cache        L2 {} KiB, L3 {} KiB",
                self.l2_kib, self.l3_kib
            ),
            format!("rustc        {}", self.rustc),
            format!(
                "load average {:.2} {:.2} {:.2} (at start)",
                self.load_avg[0], self.load_avg[1], self.load_avg[2]
            ),
        ]
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_description() -> (String, u64, u64) {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // Leaves beyond the reported maxima are not queried.
    let max_ext = __cpuid(0x8000_0000).eax;
    let mut brand = Vec::new();
    if max_ext >= 0x8000_0004 {
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for word in [r.eax, r.ebx, r.ecx, r.edx] {
                brand.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
    let model = String::from_utf8_lossy(&brand)
        .trim_matches(char::from(0))
        .trim()
        .to_string();
    let (mut l2, mut l3) = (0, 0);
    let max_basic = __cpuid(0).eax;
    if max_basic >= 4 {
        // Deterministic cache parameters (leaf 4), one sub-leaf per cache.
        for sub in 0..16u32 {
            let r = __cpuid_count(4, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
            let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
            let line = u64::from(r.ebx & 0xfff) + 1;
            let sets = u64::from(r.ecx) + 1;
            let kib = ways * partitions * line * sets / 1024;
            match level {
                2 => l2 = kib,
                3 => l3 = kib,
                _ => {}
            }
        }
    }
    (
        if model.is_empty() {
            "unknown".to_string()
        } else {
            model
        },
        l2,
        l3,
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_description() -> (String, u64, u64) {
    ("unknown".to_string(), 0, 0)
}

extern "C" {
    fn getloadavg(loadavg: *mut f64, nelem: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// `struct rusage` as Linux and the BSDs lay it out: two `timeval`s
/// followed by fourteen `long`s, of which `ru_maxrss` is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

fn load_average() -> [f64; 3] {
    let mut avg = [0.0f64; 3];
    // SAFETY: `avg` has room for the three samples requested.
    let got = unsafe { getloadavg(avg.as_mut_ptr(), 3) };
    if got == 3 {
        avg
    } else {
        [f64::NAN; 3]
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage`; 0 is
    // RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        // Linux reports ru_maxrss in KiB.
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}
