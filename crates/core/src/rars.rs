//! Reuse-Aware Reorder Scheduling (RARS) — §V-E, Fig. 13.
//!
//! Retained scores are scattered, so a naive left-to-right `S×V`
//! computation reloads V vectors that several score rows share. RARS
//! reorders the schedule greedily: each V-PU round loads the pair of V
//! vectors wanted by the most still-unserved score rows (ties broken
//! toward *low-demand* vectors, saving high-demand ones for rounds where
//! their sharers have free slots). On the paper's running example this
//! recovers exactly the published 11 → 8 load reduction.
//!
//! The greedy keeps one `u64` row mask per V id: the rows that still want
//! it. A V's demand is its mask's popcount, and a pair's cover is the
//! popcount of the two masks' intersection over the rows with two free
//! slots. Ids with the same mask score alike, so each selection compares
//! only the distinct masks among unloaded ids, each class by its lowest
//! ids. Its cost grows with the loads and the mask classes, not with the
//! square of the retained keys. A block holds at most 64 score rows, the
//! mask's width; [`PadeConfig::validate`](crate::config::PadeConfig::validate)
//! caps `pe_rows` to match.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

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
///
/// # Panics
///
/// Panics if `rows` holds more than 64 score rows.
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

/// The greedy schedule of [`rars_schedule`] over one row mask per V id:
/// `mask[v]` holds the rows that still have `v` pending, so `v`'s demand
/// is its popcount and a pair's cover is the popcount of `mask_a & mask_b`
/// over the rows with two free slots. Ids sharing a mask score alike, so
/// a selection weighs only the distinct masks among unloaded ids (see
/// [`best_pair`]). Tie-breaks are those of the set-based formulation kept
/// as `rars_greedy_reference` in the tests, which pins identical
/// schedules.
fn rars_greedy(rows: &[Vec<usize>], per_row: usize, buffer_capacity: usize) -> Schedule {
    assert!(rows.len() <= 64, "RARS row masks hold at most 64 rows, got {}", rows.len());
    let per_row = per_row.max(1);
    let buffer_capacity = buffer_capacity.max(per_row);
    let n_v = rows.iter().flatten().max().map_or(0, |&v| v + 1);
    // Rows with each V id pending. Its popcount is the tie-break demand
    // ("save high-demand vectors for rounds where their sharers have free
    // slots", Fig. 13(d)).
    let mut mask = vec![0u64; n_v];
    for (r, row) in rows.iter().enumerate() {
        for &v in row {
            mask[v] |= 1 << r;
        }
    }
    // Unloaded pending ids by mask, ascending within each class. Within a
    // round only loaded ids' masks change, so the classes change only by
    // losing the ids a round loads and regaining those it leaves pending.
    let mut classes: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
    for (v, &m) in mask.iter().enumerate().filter(|&(_, &m)| m != 0) {
        classes.entry(m).or_default().insert(v);
    }
    let mut rounds = Vec::new();
    let mut total = 0usize;

    while !classes.is_empty() {
        let mut slots: Vec<usize> = vec![per_row; rows.len()];
        // The round's loads in ascending order, each with its mask at load.
        let mut loaded: Vec<(usize, u64)> = Vec::new();
        while loaded.len() < buffer_capacity {
            let rows_with = |free: usize| {
                (0..slots.len()).filter(|&r| slots[r] >= free).fold(0u64, |m, r| m | 1 << r)
            };
            let pair = if buffer_capacity - loaded.len() >= 2 {
                best_pair(&classes, rows_with(2))
            } else {
                None
            };
            let chosen = match pair {
                Some((a, b)) => vec![a, b],
                None => {
                    // Single loads: most-demanded unloaded V (lowest id on a
                    // tie) pending in a row that still has a free slot.
                    let one_free = rows_with(1);
                    let single = classes
                        .iter()
                        .filter(|&(&m, _)| m & one_free != 0)
                        .min_by_key(|&(&m, ids)| (Reverse(m.count_ones()), ids.first()));
                    match single.and_then(|(_, ids)| ids.first()) {
                        Some(&v) => vec![v],
                        None => break,
                    }
                }
            };
            for v in chosen {
                let class = classes.get_mut(&mask[v]).expect("an unloaded pending id has a class");
                class.remove(&v);
                if class.is_empty() {
                    classes.remove(&mask[v]);
                }
                let at = loaded.partition_point(|&(l, _)| l < v);
                loaded.insert(at, (v, mask[v]));
                // Serve rows immediately so coverage counts reflect consumption.
                serve(&mut mask[v], &mut slots);
            }
        }

        // Canonicalize the round's consumption: each row serves its pending
        // demands from the loaded set in ascending V order, up to per_row —
        // the same replay rule Schedule::covers applies.
        slots.fill(per_row);
        for &(v, at_load) in &loaded {
            mask[v] = at_load;
            serve(&mut mask[v], &mut slots);
            if mask[v] != 0 {
                classes.entry(mask[v]).or_default().insert(v);
            }
        }
        total += loaded.len();
        rounds.push(loaded.into_iter().map(|(v, _)| v).collect());
    }

    Schedule { rounds, total_loads: total }
}

/// The pair a selection loads, over the rows in `two_free`: the highest
/// cover, then the lowest total demand, then the lowest row holding both,
/// then the lowest ids — the order in which a scan over rows, then `a`,
/// then `b` first finds the best pair. A class offers its lowest id
/// toward every other class and its lowest two toward itself.
fn best_pair(classes: &BTreeMap<u64, BTreeSet<usize>>, two_free: u64) -> Option<(usize, usize)> {
    let reps: Vec<(u64, usize, Option<usize>)> = classes
        .iter()
        .filter(|&(&m, _)| m & two_free != 0)
        .map(|(&m, ids)| {
            let mut ids = ids.iter().copied();
            (m, ids.next().expect("classes are non-empty"), ids.next())
        })
        .collect();
    reps.iter()
        .enumerate()
        .flat_map(|(i, &(ma, a, a2))| {
            let own = a2.map(|a2| (ma, ma, a, a2));
            let cross = reps[i + 1..].iter().map(move |&(mb, b, _)| (ma, mb, a.min(b), a.max(b)));
            own.into_iter().chain(cross)
        })
        .filter_map(|(ma, mb, a, b)| {
            let both = ma & mb & two_free;
            let demand = ma.count_ones() + mb.count_ones();
            (both != 0).then(|| (Reverse(both.count_ones()), demand, both.trailing_zeros(), a, b))
        })
        .min()
        .map(|(.., a, b)| (a, b))
}

/// Serves one loaded V id to every row in its `mask` with a free slot.
fn serve(mask: &mut u64, slots: &mut [usize]) {
    let mut rows = *mask;
    while rows != 0 {
        let r = rows.trailing_zeros() as usize;
        rows &= rows - 1;
        if slots[r] > 0 {
            slots[r] -= 1;
            *mask &= !(1 << r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn fully_retained_eight_row_block_takes_one_load_per_id() {
        // Every row wants every id, so each round loads the same two ids
        // for all eight rows: one load per id, never a reload.
        let rows = vec![(0..4096).collect::<Vec<usize>>(); 8];
        let s = rars_schedule(&rows, 2, 16);
        assert!(s.covers(&rows, 2));
        assert_eq!(s.total_loads, 4096);
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
        fn prop_mask_class_ties_match_set_based_reference(
            rows in proptest::collection::vec(
                proptest::collection::vec(0usize..24, 0..=24), 1..=8),
            per_row in 1usize..=4,
            buffer_capacity in 0usize..=16,
        ) {
            // Few ids over many rows: most ids share a row mask with
            // others, so selections hinge on the class tie-breaks.
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
