//! Measurement helpers: percentiles, seed mixing, hashing, peak memory
//! and the spin-loop calibration printed with every run.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean of `values`; `0.0` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// splitmix64 of `seed` and `k`: the `k`-th input seed derived from the
/// benchmark's `--seed`.
#[must_use]
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a: compares report bytes without keeping every report.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Milliseconds elapsed since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set size in MB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer spin: the same work on every machine, so its time
/// measures the host rather than the program.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    black_box(x)
}

/// The host calibration recorded with every run: the 1-thread spin time
/// and the effective parallelism at `threads` (`threads × t₁ / tₙ`, where
/// `tₙ` is the wall time of `threads` concurrent copies).
#[must_use]
pub fn calibrate(threads: usize) -> (f64, f64) {
    const ITERS: u64 = 20_000_000;
    let one: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            spin(ITERS);
            ms_since(t)
        })
        .collect();
    let t1 = median(&one);
    let many: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| spin(ITERS));
                }
            });
            ms_since(t)
        })
        .collect();
    (t1, threads as f64 * t1 / median(&many))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn mixed_seeds_differ_and_repeat() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
