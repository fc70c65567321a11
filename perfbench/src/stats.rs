//! Sample statistics, clocks and host diagnostics shared by every
//! workload.

use std::time::Instant;

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, secs(t0))
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank 99th percentile, or `None` when fewer than ten samples
/// lie beyond it (such a percentile would not describe a tail).
pub fn p99(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * 99).div_ceil(100);
    (rank >= 1 && v.len() - rank >= 10).then(|| v[rank - 1])
}

/// Prints the warm-submit latencies as a diagnostic. They are not
/// end-to-end metrics: on a shared host the run-to-run spread of the
/// median is wider than any bound allows, and through the coordinator
/// about 1% of warm submits take some 25 ms longer than the rest, so
/// from run to run the p99 lands on either side of that second mode.
pub fn warm_tail(warm_ms: &[f64]) {
    let p50 = median(warm_ms);
    let slow = warm_ms.iter().filter(|&&x| x > p50 + 15.0).count();
    eprintln!(
        "perfbench: warm ms over {} samples: p50 {p50:.3}, p99 {}, max {:.2}, \
         {slow} samples over p50 + 15 ms",
        warm_ms.len(),
        p99(warm_ms).map_or("-".to_string(), |x| format!("{x:.3}")),
        warm_ms.iter().copied().fold(0.0, f64::max),
    );
}

/// The two-worker sweep's efficiency: serial time ÷ (2 × two-worker
/// time), with the passes in the order serial, two-worker, two-worker,
/// serial, so that a host speed drifting steadily across the four passes
/// cancels. `serial` and `par` each run one pass and report success.
pub fn par_efficiency(serial: impl Fn() -> bool, par: impl Fn() -> bool) -> (f64, bool) {
    let (ok1, s1) = timed(&serial);
    let (ok2, p1) = timed(&par);
    let (ok3, p2) = timed(&par);
    let (ok4, s2) = timed(&serial);
    ((s1 + s2) / (2.0 * (p1 + p2)), ok1 && ok2 && ok3 && ok4)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host-speed reference: a fixed amount of work (a dependent
/// multiply-xorshift chain over a 1 MiB table, so it exercises both the
/// ALU and the cache hierarchy) timed in milliseconds. It is printed as a
/// diagnostic beside every run so that a noisy verdict can be traced to
/// the host; it is neither a metric nor a divisor.
pub fn host_reference_ms() -> f64 {
    const WORDS: usize = 1 << 17;
    let table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..200_000u32 {
        x ^= table[(x as usize) & (WORDS - 1)];
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        x ^= x >> 29;
    }
    std::hint::black_box(x);
    secs(t0) * 1e3
}

/// SplitMix64: the benchmark's own input generator, so the inputs a
/// seed produces do not depend on any generator inside the program.
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A generator for `seed` and an input `stream`, so that different
    /// inputs drawn from one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Mix {
        let mut m = Mix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        m.next();
        m
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Host-speed reference samples, in milliseconds.
    pub host_ref_ms: Vec<f64>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a correctness check: `ok` or the violation `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            let why = why();
            eprintln!("perfbench: check failed: {why}");
            self.violations.push(why);
        }
    }

    /// Samples the host-speed reference.
    pub fn sample_host(&mut self) {
        self.host_ref_ms.push(host_reference_ms());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&xs), Some(990.0));
        assert_eq!(p99(&xs[..999]), None);
    }

    #[test]
    fn mix_is_deterministic() {
        let a: Vec<u64> = (0..4).map(|_| Mix::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Mix::new(7, 1).next(), Mix::new(7, 2).next());
        let mut p = Mix::new(3, 0).permutation(10);
        p.sort_unstable();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }
}
