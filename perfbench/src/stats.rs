//! Order statistics, process memory and the machine-drift reference loop.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// value with exactly ten larger samples, reported with its percentile
/// `100·(n−10)/n`. Below 11 samples no percentile qualifies and the
/// maximum (percentile 100) is reported instead, which the caller
/// prints with the sample count.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// `prctl` option that turns transparent huge pages off for the process.
const PR_SET_THP_DISABLE: i32 = 41;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// Turn transparent huge pages off for this process; false if the
/// kernel refused.
///
/// Where the host backs the heap with huge pages (THP `always`, or
/// `madvise` with a malloc that advises), a fault maps 2 MiB or 4 KiB
/// depending on whether the host has a free 2 MiB block at that moment,
/// so `VmHWM` moves by whole huge pages with the host's memory load:
/// paper_tables' 48 MiB peak read up to ~8 MiB higher in some runs of
/// identical work. With THP off every fault maps 4 KiB and the peak is
/// the program's own. Call it first thing, before the heap grows.
pub fn disable_thp() -> bool {
    // SAFETY: PR_SET_THP_DISABLE takes one integer flag and requires
    // the remaining three arguments to be 0; it touches no memory of ours.
    unsafe { prctl(PR_SET_THP_DISABLE, 1u64, 0u64, 0u64, 0u64) == 0 }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Iterations of the reference loop: ~50 ms on a 2-core x86-64 VM.
const REF_LOOP_ITERS: u64 = 40_000_000;
/// Iterations of one core-speed probe: ~2 ms.
const PROBE_ITERS: u64 = 1_500_000;

/// Wall time in ms of a fixed pure-compute loop (a SplitMix64 walk).
/// It touches no program code, so a change to the program cannot move
/// it: a slower reading means a slower machine, not a slower change.
pub fn ref_loop_ms() -> f64 {
    spin_ms(REF_LOOP_ITERS)
}

fn spin_ms(iters: u64) -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..black_box(iters) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// A `cpu_set_t` (1024 CPUs).
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, read once before any pinning.
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(|| {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a valid, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

fn pin(cpu: usize) -> bool {
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a valid buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Pin the calling thread to whichever allowed CPU runs a short
/// pure-compute probe fastest right now, and return it.
///
/// Each virtual CPU of a shared 2-vCPU host can run ~1.6× slower for
/// seconds at a time, often one CPU at a time. Moving the single
/// benchmark thread to the quieter CPU every so often measures the
/// program rather than the host's other load. Threads spawned
/// afterwards inherit the pin. Returns `None` (and changes nothing)
/// with fewer than two CPUs.
pub fn pin_to_quietest_cpu() -> Option<usize> {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return None;
    }
    let mut best = vec![f64::INFINITY; cpus.len()];
    for _ in 0..3 {
        for (i, &c) in cpus.iter().enumerate() {
            if pin(c) {
                best[i] = best[i].min(spin_ms(PROBE_ITERS));
            }
        }
    }
    let (i, _) = best.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1))?;
    pin(cpus[i]).then_some(cpus[i])
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Exactly ten samples (91..=100) lie beyond the 90th.
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0));
    }
}
