//! Small helpers: the seeded generator, order statistics, the CPU clocks
//! and the yardstick op costs are measured in, the host's CPU steal, the
//! process memory high-water mark and the run's provenance.

use std::time::Instant;

/// splitmix64: a tiny seeded generator, so the benchmark's inputs depend
/// on `--seed` alone and on no external crate.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, further keyed by `stream` so independent
    /// draws (permutations, splits, pfail streams) do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of the samples ranked from quantile `from` to quantile `to`
/// (`0 ≤ from < to ≤ 1`), weighting the two samples the band cuts
/// through by the share of them inside it, so the value moves smoothly
/// as samples cross its edges; 0 when empty.
pub fn band_mean(samples: &[f64], from: f64, to: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (lo, hi) = (from * n, to * n);
    let mut sum = 0.0;
    for (i, v) in sorted.iter().enumerate() {
        let inside = (hi.min(i as f64 + 1.0) - lo.max(i as f64)).max(0.0);
        sum += inside * v;
    }
    sum / (hi - lo)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Microseconds since `start`, with sub-microsecond digits.
pub fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Runs `f`, returning its value and its duration in microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let value = f();
    (value, micros_since(start))
}

/// CPU time the process has run so far, all threads together, in
/// seconds (`CLOCK_PROCESS_CPUTIME_ID`). On a guest with paravirtual
/// steal-time accounting this excludes the time the hypervisor gave the
/// process's cores to other guests, and it never counts time spent
/// waiting.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU time the calling thread has run so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

fn cpu_clock_s(clock: std::os::raw::c_int) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut now) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// The reference computation: a fixed mix of sorting, binary search over
/// a 1 MiB table and a floating-point convolution, made by this crate and
/// no other, so no change to the system under test changes its cost.
fn reference_computation() -> u64 {
    let mut rng = SplitMix::new(0x5eed, 0);
    let mut table: Vec<u64> = (0..1 << 17).map(|_| rng.next_u64()).collect();
    table.sort_unstable();
    let mut acc = 0u64;
    for _ in 0..1 << 17 {
        let probe = rng.next_u64();
        let i = table.partition_point(|&v| v < probe).min(table.len() - 1);
        acc = acc.wrapping_add(table[i] ^ probe);
    }
    let signal: Vec<f64> = table
        .iter()
        .take(2048)
        .map(|&v| v as f64 / u64::MAX as f64)
        .collect();
    let mut out = vec![0.0f64; 2 * signal.len()];
    for (i, a) in signal.iter().enumerate() {
        for (j, b) in signal.iter().enumerate() {
            out[i + j] += a * b;
        }
    }
    acc ^ out.iter().sum::<f64>().to_bits()
}

/// The yardstick the end-to-end costs are measured in: the CPU time of
/// the reference computation, run on the timed loop's thread every
/// `every` of wall time. A busy host slows every instruction (another
/// guest on the sibling hyperthread, shared caches), which CPU time does
/// count; the ratio of an op's CPU time to the reference's, measured
/// under the same conditions, cancels that slowdown.
#[derive(Debug)]
pub struct Yardstick {
    samples: Vec<f64>,
    every: std::time::Duration,
    last: Instant,
}

impl Yardstick {
    /// A yardstick, measured once now.
    pub fn new(every: std::time::Duration) -> Self {
        let mut yardstick = Self {
            samples: Vec::new(),
            every,
            last: Instant::now(),
        };
        yardstick.measure();
        yardstick
    }

    /// Measures the reference once more if `every` has passed since the
    /// last measurement. Call it between ops, never inside one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= self.every {
            self.measure();
        }
    }

    fn measure(&mut self) {
        let start = thread_cpu_s();
        std::hint::black_box(reference_computation());
        self.samples.push((thread_cpu_s() - start) * 1e6);
        self.last = Instant::now();
    }

    /// The reference's median CPU time in µs, over a closing measurement
    /// and all before it.
    pub fn finish(mut self) -> (f64, usize) {
        self.measure();
        (median(&self.samples), self.samples.len())
    }
}

/// The host's CPU steal over an interval, from the `steal` column of
/// `/proc/stat`: the share of the interval the hypervisor ran other
/// guests on this machine's cores.
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    start: Option<(u64, u64)>,
    end: Option<(u64, u64)>,
}

impl Steal {
    /// Starts an interval now.
    pub fn start() -> Self {
        Self {
            start: steal_and_total(),
            end: None,
        }
    }

    /// Ends the interval now.
    pub fn stop(&mut self) {
        self.end = steal_and_total();
    }

    /// Stolen share of the interval; 0 where `/proc/stat` is missing.
    pub fn fraction(&self) -> f64 {
        match (self.start, self.end) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// (steal, total) jiffies of all cores.
fn steal_and_total() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0
/// where `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The git revision of the working directory's checkout, read from
/// `.git` without spawning git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled under.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = SplitMix::new(7, 1).permutation(25);
        let b = SplitMix::new(7, 1).permutation(25);
        let c = SplitMix::new(8, 1).permutation(25);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn band_means_weigh_cut_samples_by_their_share() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(band_mean(&samples, 0.0, 1.0), 50.5);
        assert_eq!(band_mean(&samples, 0.99, 1.0), 100.0);
        assert_eq!(band_mean(&samples, 0.25, 0.75), 50.5);
        // A band of 1.5 samples: all of 100, half of 99.
        assert!((band_mean(&samples, 0.985, 1.0) - (100.0 + 0.5 * 99.0) / 1.5).abs() < 1e-9);
        assert_eq!(band_mean(&[], 0.25, 0.75), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
