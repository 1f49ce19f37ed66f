//! Reuse-Aware Reorder Scheduling (RARS) — §V-E, Fig. 13.
//!
//! Retained scores are scattered, so a naive left-to-right `S×V`
//! computation reloads V vectors that several score rows share. RARS
//! reorders the schedule greedily: each V-PU round loads the pair of V
//! vectors wanted by the most still-unserved score rows (ties broken
//! toward *low-demand* vectors, saving high-demand ones for rounds where
//! their sharers have free slots). On the paper's running example this
//! recovers exactly the published 11 → 8 load reduction.

use std::collections::BTreeSet;

/// A V-fetch schedule: the V-vector ids loaded in each round, and the
/// total number of loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Per-round loaded V-vector ids.
    pub rounds: Vec<Vec<usize>>,
    /// Total V-vector loads (Σ round sizes).
    pub total_loads: usize,
}

impl Schedule {
    /// Checks that every (row, v) demand in `rows` is served by some round
    /// in which the row has a free slot. Used by tests.
    #[must_use]
    pub fn covers(&self, rows: &[Vec<usize>], per_row: usize) -> bool {
        let mut pending: Vec<BTreeSet<usize>> =
            rows.iter().map(|r| r.iter().copied().collect()).collect();
        for round in &self.rounds {
            for p in &mut pending {
                let mut served = 0;
                for v in round {
                    if served < per_row && p.remove(v) {
                        served += 1;
                    }
                }
            }
        }
        pending.iter().all(BTreeSet::is_empty)
    }
}

/// Naive left-to-right execution (Fig. 13(a)): each round, every pending
/// score row takes its next `per_row` V vectors in ascending order; the
/// round loads the union. No cross-row reuse planning.
///
/// # Example
///
/// ```
/// use pade_core::rars::naive_schedule;
///
/// // The paper's Fig. 13 example: 11 loads.
/// let rows = vec![vec![0, 1, 2, 3], vec![2, 3, 4, 7], vec![4, 5, 6, 7], vec![2, 3, 4, 7]];
/// assert_eq!(naive_schedule(&rows, 2).total_loads, 11);
/// ```
#[must_use]
pub fn naive_schedule(rows: &[Vec<usize>], per_row: usize) -> Schedule {
    let per_row = per_row.max(1);
    let mut pending: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| {
            let mut v: Vec<usize> = r.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut rounds = Vec::new();
    let mut total = 0usize;
    while pending.iter().any(|p| !p.is_empty()) {
        let mut loaded = BTreeSet::new();
        for p in &mut pending {
            let take = p.len().min(per_row);
            for v in p.drain(..take) {
                loaded.insert(v);
            }
        }
        total += loaded.len();
        rounds.push(loaded.into_iter().collect());
    }
    Schedule { rounds, total_loads: total }
}

/// RARS greedy scheduling (Fig. 13(c)–(e)).
///
/// Per round (up to `buffer_capacity` V loads, each row consuming at most
/// `per_row` of them), repeatedly pick the V *pair* covering the most rows
/// that still have two free slots; ties prefer the pair with the smallest
/// remaining total demand. Rows with a single leftover demand are served
/// by single loads when no pair helps.
///
/// # Example
///
/// ```
/// use pade_core::rars::rars_schedule;
///
/// // The paper's Fig. 13 example drops from 11 to 8 loads (30% fewer).
/// let rows = vec![vec![0, 1, 2, 3], vec![2, 3, 4, 7], vec![4, 5, 6, 7], vec![2, 3, 4, 7]];
/// assert_eq!(rars_schedule(&rows, 2, 4).total_loads, 8);
/// ```
#[must_use]
pub fn rars_schedule(rows: &[Vec<usize>], per_row: usize, buffer_capacity: usize) -> Schedule {
    // With one row every pair covers that row alone and ties at demand 2,
    // so the greedy loads the lowest pending ids each round: the naive
    // schedule, without the greedy's pair scan.
    if rows.len() <= 1 {
        return naive_schedule(rows, per_row);
    }
    // The FSM keeps the naive order as a fallback: if greedy reordering
    // does not reduce loads for this batch, execute left-to-right.
    let greedy = rars_greedy(rows, per_row, buffer_capacity);
    let naive = naive_schedule(rows, per_row);
    if greedy.total_loads <= naive.total_loads {
        greedy
    } else {
        naive
    }
}

/// The greedy schedule of [`rars_schedule`] over dense structures indexed
/// by V id: one pending bitset per row, per-V demand counts kept in step
/// with every served load, and pair deduplication by the rows already
/// enumerated. Enumeration order and tie-breaks are those of the
/// set-based formulation kept as `rars_greedy_reference` in the tests,
/// which pins identical schedules.
fn rars_greedy(rows: &[Vec<usize>], per_row: usize, buffer_capacity: usize) -> Schedule {
    let per_row = per_row.max(1);
    let buffer_capacity = buffer_capacity.max(per_row);
    let n_v = rows.iter().flatten().max().map_or(0, |&v| v + 1);
    let words = n_v.div_ceil(64);
    // Row r's pending V ids are the set bits of `pending[r·words..][..words]`.
    let mut pending = vec![0u64; rows.len() * words];
    // Rows with each V id pending: the tie-break signal ("save high-demand
    // vectors for rounds where their sharers have free slots", Fig. 13(d)).
    let mut demand = vec![0usize; n_v];
    for (r, row) in rows.iter().enumerate() {
        for &v in row {
            if !has(&pending, r * words, v) {
                flip(&mut pending, r * words, v);
                demand[v] += 1;
            }
        }
    }
    let mut rounds = Vec::new();
    let mut total = 0usize;
    let mut loaded_bits = vec![0u64; words];
    let mut free = vec![0u64; words];
    let mut fresh = vec![0u64; words];
    let (mut earlier, mut later) = (Vec::new(), Vec::new());

    while pending.iter().any(|&w| w != 0) {
        let mut slots: Vec<usize> = vec![per_row; rows.len()];
        // The round's loads in ascending order, and as a bitset.
        let mut loaded: Vec<usize> = Vec::new();
        loaded_bits.fill(0);
        let round_start = pending.clone();

        loop {
            let remaining = buffer_capacity - loaded.len();
            if remaining == 0 {
                break;
            }
            let unloaded = |r: usize, w: usize| pending[r * words + w] & !loaded_bits[w];
            let any_servable =
                (0..rows.len()).any(|r| slots[r] > 0 && (0..words).any(|w| unloaded(r, w) != 0));
            if !any_servable {
                break;
            }

            // Candidate pairs: 2-subsets co-pending in some row with ≥2
            // slots, each scored once — by the first such row holding both.
            let mut best_pair: Option<(usize, usize)> = None;
            let mut best_cover = 0usize;
            let mut best_tie = usize::MAX;
            if remaining >= 2 {
                for r in (0..rows.len()).filter(|&r| slots[r] >= 2) {
                    for (w, f) in free.iter_mut().enumerate() {
                        *f = unloaded(r, w);
                    }
                    for a in set_bits(&free, 0) {
                        earlier.clear();
                        later.clear();
                        for q in (0..rows.len()).filter(|&q| q != r && slots[q] >= 2) {
                            if has(&pending, q * words, a) {
                                if q < r { &mut earlier } else { &mut later }.push(q);
                            }
                        }
                        // Partners of `a` no earlier row holds with it.
                        for w in a / 64..words {
                            fresh[w] =
                                earlier.iter().fold(free[w], |f, &q| f & !pending[q * words + w]);
                        }
                        for b in set_bits(&fresh, a + 1) {
                            let cover =
                                1 + later.iter().filter(|&&q| has(&pending, q * words, b)).count();
                            let tie = demand[a] + demand[b];
                            if cover > best_cover || (cover == best_cover && tie < best_tie) {
                                best_pair = Some((a, b));
                                best_cover = cover;
                                best_tie = tie;
                            }
                        }
                    }
                }
            }

            let (chosen, n_chosen) = match best_pair {
                Some((a, b)) => ([a, b], 2),
                None => {
                    // Single loads: most-demanded unloaded V (lowest id on a
                    // tie) pending in a row that still has a free slot.
                    free.fill(0);
                    for r in (0..rows.len()).filter(|&r| slots[r] > 0) {
                        for (w, f) in free.iter_mut().enumerate() {
                            *f |= unloaded(r, w);
                        }
                    }
                    let mut candidate: Option<usize> = None;
                    for v in set_bits(&free, 0) {
                        if candidate.is_none_or(|c| demand[v] > demand[c]) {
                            candidate = Some(v);
                        }
                    }
                    match candidate {
                        Some(v) => ([v, v], 1),
                        None => break,
                    }
                }
            };

            for &v in &chosen[..n_chosen] {
                let at = loaded.partition_point(|&l| l < v);
                loaded.insert(at, v);
                flip(&mut loaded_bits, 0, v);
            }
            // Serve rows immediately so coverage counts reflect consumption.
            for (r, s) in slots.iter_mut().enumerate() {
                for &v in &loaded {
                    if *s == 0 {
                        break;
                    }
                    if has(&pending, r * words, v) {
                        flip(&mut pending, r * words, v);
                        demand[v] -= 1;
                        *s -= 1;
                    }
                }
            }
        }

        if loaded.is_empty() {
            // Nothing was schedulable this round (all pending rows slotless
            // can't happen since slots reset): defensive against livelock.
            break;
        }
        // Canonicalize the round's consumption: each row serves its pending
        // demands from the loaded set in ascending V order, up to per_row —
        // the same replay rule Schedule::covers applies.
        for r in 0..rows.len() {
            let base = r * words;
            for v in (0..words)
                .flat_map(|w| set_bits_of_word(round_start[base + w] & !pending[base + w], w))
            {
                demand[v] += 1;
            }
            pending[base..base + words].copy_from_slice(&round_start[base..base + words]);
            let mut served = 0usize;
            for &v in &loaded {
                if served < per_row && has(&pending, base, v) {
                    flip(&mut pending, base, v);
                    demand[v] -= 1;
                    served += 1;
                }
            }
        }
        total += loaded.len();
        rounds.push(loaded);
    }

    Schedule { rounds, total_loads: total }
}

/// Whether bit `v` of the bitset starting at `bits[base]` is set.
fn has(bits: &[u64], base: usize, v: usize) -> bool {
    bits[base + v / 64] >> (v % 64) & 1 == 1
}

/// Toggles bit `v` of the bitset starting at `bits[base]`.
fn flip(bits: &mut [u64], base: usize, v: usize) {
    bits[base + v / 64] ^= 1 << (v % 64);
}

/// Set bits of `word`, the `w`-th word of a bitset, as ascending indices.
fn set_bits_of_word(mut word: u64, w: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + i
        })
    })
}

/// Set bits of `bits` at index `start` or above, ascending.
fn set_bits(bits: &[u64], start: usize) -> impl Iterator<Item = usize> + '_ {
    let first = start / 64;
    bits.iter().enumerate().skip(first).flat_map(move |(w, &word)| {
        let word = if w == first { word & (!0u64 << (start % 64)) } else { word };
        set_bits_of_word(word, w)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The set-based greedy this module shipped first, kept as the
    /// reference [`rars_greedy`] must match schedule for schedule.
    fn rars_greedy_reference(
        rows: &[Vec<usize>],
        per_row: usize,
        buffer_capacity: usize,
    ) -> Schedule {
        let per_row = per_row.max(1);
        let buffer_capacity = buffer_capacity.max(per_row);
        let mut pending: Vec<BTreeSet<usize>> =
            rows.iter().map(|r| r.iter().copied().collect::<BTreeSet<_>>()).collect();
        let mut rounds = Vec::new();
        let mut total = 0usize;

        while pending.iter().any(|p| !p.is_empty()) {
            let mut slots: Vec<usize> = vec![per_row; pending.len()];
            let mut loaded: BTreeSet<usize> = BTreeSet::new();
            let round_start: Vec<BTreeSet<usize>> = pending.clone();

            loop {
                let remaining = buffer_capacity - loaded.len();
                if remaining == 0 {
                    break;
                }
                // Global demand per V across every row's remaining work — the
                // tie-break signal ("save high-demand vectors for rounds where
                // their sharers have free slots", Fig. 13(d)).
                let mut demand: BTreeMap<usize, usize> = Default::default();
                for p in pending.iter() {
                    for &v in p {
                        *demand.entry(v).or_default() += 1;
                    }
                }
                let any_servable = pending
                    .iter()
                    .zip(&slots)
                    .any(|(p, &s)| s > 0 && p.iter().any(|v| !loaded.contains(v)));
                if !any_servable {
                    break;
                }

                // Candidate pairs: 2-subsets co-pending in some row with ≥2 slots.
                let mut best_pair: Option<(usize, usize)> = None;
                let mut best_cover = 0usize;
                let mut best_tie = usize::MAX;
                if remaining >= 2 {
                    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
                    for (p, &s) in pending.iter().zip(&slots) {
                        if s < 2 {
                            continue;
                        }
                        let vs: Vec<usize> =
                            p.iter().copied().filter(|v| !loaded.contains(v)).collect();
                        for (a_idx, &a) in vs.iter().enumerate() {
                            for &b in &vs[a_idx + 1..] {
                                if !seen.insert((a, b)) {
                                    continue;
                                }
                                let cover = pending
                                    .iter()
                                    .zip(&slots)
                                    .filter(|(q, &s2)| s2 >= 2 && q.contains(&a) && q.contains(&b))
                                    .count();
                                let tie = demand.get(&a).copied().unwrap_or(0)
                                    + demand.get(&b).copied().unwrap_or(0);
                                if cover > best_cover || (cover == best_cover && tie < best_tie) {
                                    best_pair = Some((a, b));
                                    best_cover = cover;
                                    best_tie = tie;
                                }
                            }
                        }
                    }
                }

                let chosen: Vec<usize> = if let Some((a, b)) = best_pair {
                    vec![a, b]
                } else {
                    // Single loads: most-demanded unloaded V pending in a row
                    // that still has a free slot.
                    let mut candidate: Option<(usize, usize)> = None; // (v, demand)
                    for (p, &sl) in pending.iter().zip(&slots) {
                        if sl == 0 {
                            continue;
                        }
                        for &v in p.iter().filter(|v| !loaded.contains(*v)) {
                            let d = demand.get(&v).copied().unwrap_or(0);
                            let better = match candidate {
                                None => true,
                                Some((bv, bd)) => d > bd || (d == bd && v < bv),
                            };
                            if better {
                                candidate = Some((v, d));
                            }
                        }
                    }
                    match candidate {
                        Some((v, _)) => vec![v],
                        None => break,
                    }
                };

                for v in chosen {
                    loaded.insert(v);
                }
                // Serve rows immediately so coverage counts reflect consumption.
                for (p, s) in pending.iter_mut().zip(&mut slots) {
                    let mine: Vec<usize> =
                        loaded.iter().copied().filter(|v| p.contains(v)).collect();
                    for v in mine {
                        if *s == 0 {
                            break;
                        }
                        if p.remove(&v) {
                            *s -= 1;
                        }
                    }
                }
            }

            if loaded.is_empty() {
                // Nothing was schedulable this round (all pending rows slotless
                // can't happen since slots reset): defensive against livelock.
                break;
            }
            // Canonicalize the round's consumption: each row serves its pending
            // demands from the loaded set in ascending V order, up to per_row —
            // the same replay rule Schedule::covers applies.
            for (p, snapshot) in pending.iter_mut().zip(&round_start) {
                *p = snapshot.clone();
                let mut served = 0usize;
                for v in &loaded {
                    if served < per_row && p.remove(v) {
                        served += 1;
                    }
                }
            }
            total += loaded.len();
            rounds.push(loaded.into_iter().collect());
        }

        Schedule { rounds, total_loads: total }
    }

    fn paper_rows() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2, 3], vec![2, 3, 4, 7], vec![4, 5, 6, 7], vec![2, 3, 4, 7]]
    }

    #[test]
    fn paper_example_naive_is_eleven_loads() {
        let s = naive_schedule(&paper_rows(), 2);
        assert_eq!(s.total_loads, 11);
        assert!(s.covers(&paper_rows(), 2));
    }

    #[test]
    fn paper_example_rars_is_eight_loads() {
        let s = rars_schedule(&paper_rows(), 2, 4);
        assert_eq!(s.total_loads, 8, "rounds: {:?}", s.rounds);
        assert!(s.covers(&paper_rows(), 2));
        // ~30% reduction, as the paper reports.
        assert!((1.0_f64 - 8.0 / 11.0 - 0.27).abs() < 0.01);
    }

    #[test]
    fn disjoint_rows_cannot_be_improved() {
        let rows = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        let n = naive_schedule(&rows, 2);
        let r = rars_schedule(&rows, 2, 6);
        assert_eq!(n.total_loads, 6);
        assert_eq!(r.total_loads, 6);
    }

    #[test]
    fn identical_rows_collapse_to_one_load_set() {
        let rows = vec![vec![1, 2]; 8];
        let r = rars_schedule(&rows, 2, 4);
        assert_eq!(r.total_loads, 2);
        assert!(r.covers(&rows, 2));
    }

    #[test]
    fn empty_rows_produce_empty_schedule() {
        let rows: Vec<Vec<usize>> = vec![vec![], vec![]];
        assert_eq!(naive_schedule(&rows, 2).total_loads, 0);
        assert_eq!(rars_schedule(&rows, 2, 4).total_loads, 0);
    }

    #[test]
    fn odd_row_lengths_are_served() {
        let rows = vec![vec![0], vec![0, 1, 2], vec![2]];
        let r = rars_schedule(&rows, 2, 4);
        assert!(r.covers(&rows, 2), "rounds: {:?}", r.rounds);
        let n = naive_schedule(&rows, 2);
        assert!(n.covers(&rows, 2));
    }

    proptest! {
        #[test]
        fn prop_rars_covers_and_never_exceeds_naive(
            raw in proptest::collection::vec(
                proptest::collection::vec(0usize..12, 0..8), 1..8),
        ) {
            let rows: Vec<Vec<usize>> = raw
                .into_iter()
                .map(|mut r| { r.sort_unstable(); r.dedup(); r })
                .collect();
            let n = naive_schedule(&rows, 2);
            let r = rars_schedule(&rows, 2, 4);
            prop_assert!(n.covers(&rows, 2));
            prop_assert!(r.covers(&rows, 2), "rounds {:?} rows {:?}", r.rounds, rows);
            prop_assert!(
                r.total_loads <= n.total_loads,
                "RARS {} must not exceed naive {}",
                r.total_loads,
                n.total_loads
            );
        }

        #[test]
        fn prop_dense_greedy_matches_set_based_reference(
            rows in proptest::collection::vec(
                proptest::collection::vec(0usize..150, 0..40), 1..7),
            per_row in 1usize..4,
            buffer_capacity in 0usize..9,
        ) {
            // Unsorted rows with repeats, ids across three bitset words,
            // and every per-row/buffer ratio including a clamped buffer.
            prop_assert_eq!(
                rars_greedy(&rows, per_row, buffer_capacity),
                rars_greedy_reference(&rows, per_row, buffer_capacity)
            );
        }

        #[test]
        fn prop_single_row_fast_path_matches_set_based_reference(
            row in proptest::collection::vec(0usize..150, 0..40),
            per_row in 1usize..=4,
            extra_capacity in 0usize..6,
        ) {
            // Unsorted, with repeats; every buffer at least one row wide.
            let rows = [row];
            let buffer_capacity = per_row + extra_capacity;
            prop_assert_eq!(
                rars_schedule(&rows, per_row, buffer_capacity),
                rars_greedy_reference(&rows, per_row, buffer_capacity)
            );
        }
    }
}
