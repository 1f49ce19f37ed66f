//! The ordered fork-join shim's core contract: results come back in
//! submission order, identical to the sequential loop, **regardless of
//! worker count**. Every thread-count bit-identity claim in the
//! workspace reduces to these properties.

use pade_testutil::mix;
use proptest::prelude::*;

/// Sweeps explicit worker counts via `PADE_THREADS`. All env twiddling
/// lives in this one test so concurrently-running tests in this binary
/// never observe a half-set variable (the other tests here are
/// thread-count-agnostic by the very property this file proves).
#[test]
fn results_are_in_submission_order_for_every_worker_count() {
    let sizes = [0usize, 1, 2, 7, 64, 257, 1000];
    let expected: Vec<Vec<u64>> =
        sizes.iter().map(|&n| (0..n).map(|i| mix(42, i)).collect()).collect();
    for workers in ["1", "2", "3", "5", "8", "64"] {
        std::env::set_var("PADE_THREADS", workers);
        assert_eq!(pade_par::max_threads(), workers.parse::<usize>().unwrap());
        for (&n, want) in sizes.iter().zip(&expected) {
            let got = pade_par::par_map_indexed(n, |i| mix(42, i));
            assert_eq!(&got, want, "par_map_indexed n={n} workers={workers}");
        }
    }
    std::env::remove_var("PADE_THREADS");
}

proptest! {
    /// Under the ambient thread budget, the parallel map is exactly the
    /// sequential map for arbitrary sizes and seeds.
    #[test]
    fn par_map_equals_sequential_map(n in 0usize..1200, seed in any::<u64>()) {
        let want: Vec<u64> = (0..n).map(|i| mix(seed, i)).collect();
        prop_assert_eq!(pade_par::par_map_indexed(n, |i| mix(seed, i)), want);
    }
}
