//! Deterministic ordered fork-join fan-out.
//!
//! The build environment is offline, so this crate stands in for `rayon`
//! with the one primitive the engine's tile fan-out needs: an ordered
//! parallel map over an index range. Work is split into one contiguous
//! range per worker on `std::thread::scope`; results are concatenated in
//! range order, so output ordering (and therefore every downstream
//! reduction) is identical to the sequential loop regardless of thread
//! count or scheduling. Swap for `rayon` when a registry is reachable.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::thread;

/// Worker-thread budget: `PADE_THREADS` if set, else the machine's
/// available parallelism.
#[must_use]
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("PADE_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Splits `0..n` into at most `workers` contiguous ranges of near-equal
/// length (never empty).
fn split_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Ordered parallel map over `0..n`: returns `[f(0), f(1), ..., f(n-1)]`.
///
/// Falls back to a sequential loop for a single worker or tiny `n`, so
/// the result is always identical to `(0..n).map(f).collect()`.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = max_threads();
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let ranges = split_ranges(n, workers);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let f = &f;
                scope.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("pade-par worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for p in parts {
        out.extend(p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let got = par_map_indexed(1000, |i| i * 3);
        let want: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i), vec![0]);
    }

    #[test]
    fn split_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 64, 1000] {
            for w in [1usize, 2, 3, 8, 64] {
                let r = split_ranges(n, w);
                let total: usize = r.iter().map(|(a, b)| b - a).sum();
                assert_eq!(total, n, "n={n} w={w}");
                for win in r.windows(2) {
                    assert_eq!(win[0].1, win[1].0);
                }
            }
        }
    }
}
