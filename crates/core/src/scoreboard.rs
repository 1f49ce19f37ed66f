//! Scoreboard-based result-reusable PE lane storage — §V-C, Fig. 11(b).
//!
//! Bit-serial speculation would be ruinous if every round re-fetched and
//! re-computed all previously seen planes. Each PE lane therefore carries a
//! small scoreboard (32 entries × 45 bits in Table III) caching the partial
//! score of every in-flight key; when the next plane arrives from DRAM the
//! entry is looked up by token index (the `Hit` path of Fig. 11(b)),
//! updated, and re-evaluated. A full scoreboard limits how many key fetches
//! may be outstanding — the utilization lever studied in Fig. 17(b).

use std::error::Error;
use std::fmt;

/// One in-flight key's cached state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Token (key) index.
    pub token: usize,
    /// Next bit plane to process (planes `0..next_plane` are folded into
    /// `partial`).
    pub next_plane: u32,
    /// Conservative partial score (unknown bits as zero).
    pub partial: i64,
}

/// Error returned when inserting into a full scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreboardFullError;

impl fmt::Display for ScoreboardFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scoreboard is full")
    }
}

impl Error for ScoreboardFullError {}

/// A PE lane's scoreboard.
///
/// # Example
///
/// ```
/// use pade_core::scoreboard::Scoreboard;
///
/// let mut sb = Scoreboard::new(2);
/// sb.insert(7, 1, -640)?;
/// assert_eq!(sb.lookup(7).unwrap().partial, -640);
/// sb.update(7, 2, -600);
/// assert_eq!(sb.evict(7).unwrap().next_plane, 2);
/// # Ok::<(), pade_core::scoreboard::ScoreboardFullError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scoreboard {
    entries: Vec<Entry>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    high_water: usize,
}

impl Scoreboard {
    /// Width in bits of one hardware entry (Table III: 45 bits — token
    /// index, bit index, partial score).
    pub const ENTRY_BITS: u32 = 45;

    /// Creates a scoreboard with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "scoreboard capacity must be positive");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
            high_water: 0,
        }
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of in-flight keys.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no more keys can be tracked.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Looks up a token's cached state, counting the hit/miss (the `Hit`
    /// signal of Fig. 11(b)).
    pub fn lookup(&mut self, token: usize) -> Option<Entry> {
        match self.entries.iter().find(|e| e.token == token) {
            Some(e) => {
                self.hits += 1;
                Some(*e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a fresh entry (first plane of a key just computed).
    ///
    /// # Errors
    ///
    /// Returns [`ScoreboardFullError`] when at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the token is already tracked (hardware never double-
    /// allocates an in-flight key).
    pub fn insert(
        &mut self,
        token: usize,
        next_plane: u32,
        partial: i64,
    ) -> Result<(), ScoreboardFullError> {
        if self.is_full() {
            return Err(ScoreboardFullError);
        }
        assert!(!self.entries.iter().any(|e| e.token == token), "token {token} already in flight");
        self.entries.push(Entry { token, next_plane, partial });
        self.high_water = self.high_water.max(self.entries.len());
        Ok(())
    }

    /// Updates an in-flight key after absorbing another plane.
    ///
    /// # Panics
    ///
    /// Panics if the token is not tracked.
    pub fn update(&mut self, token: usize, next_plane: u32, partial: i64) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.token == token)
            .unwrap_or_else(|| panic!("token {token} not in scoreboard"));
        e.next_plane = next_plane;
        e.partial = partial;
    }

    /// Removes a key (pruned or fully resolved), returning its last state.
    pub fn evict(&mut self, token: usize) -> Option<Entry> {
        let idx = self.entries.iter().position(|e| e.token == token)?;
        self.evictions += 1;
        Some(self.entries.swap_remove(idx))
    }

    /// Lifetime lookup hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime evictions.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Peak occupancy observed.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_lookup_update_evict_round_trip() {
        let mut sb = Scoreboard::new(4);
        sb.insert(10, 1, 100).unwrap();
        sb.insert(20, 1, -50).unwrap();
        assert_eq!(sb.occupancy(), 2);
        assert_eq!(sb.lookup(10).unwrap().partial, 100);
        sb.update(10, 2, 164);
        assert_eq!(sb.lookup(10).unwrap().next_plane, 2);
        let e = sb.evict(10).unwrap();
        assert_eq!(e.partial, 164);
        assert_eq!(sb.occupancy(), 1);
        assert!(sb.evict(10).is_none());
    }

    #[test]
    fn full_scoreboard_rejects_inserts() {
        let mut sb = Scoreboard::new(2);
        sb.insert(1, 1, 0).unwrap();
        sb.insert(2, 1, 0).unwrap();
        assert!(sb.insert(3, 1, 0).is_err());
        sb.evict(1);
        assert!(sb.insert(3, 1, 0).is_ok());
    }

    #[test]
    fn hit_miss_accounting() {
        let mut sb = Scoreboard::new(2);
        sb.insert(1, 1, 0).unwrap();
        sb.lookup(1);
        sb.lookup(9);
        assert_eq!(sb.hits(), 1);
        assert_eq!(sb.misses(), 1);
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn double_insert_panics() {
        let mut sb = Scoreboard::new(4);
        sb.insert(1, 1, 0).unwrap();
        let _ = sb.insert(1, 2, 5);
    }

    proptest! {
        #[test]
        fn prop_partial_accumulation_is_exact(
            tokens in proptest::collection::vec(0usize..1000, 1..30),
        ) {
            // Accumulating per-plane deltas through the scoreboard yields
            // the same total as summing them directly.
            let mut unique = tokens.clone();
            unique.sort_unstable();
            unique.dedup();
            let mut sb = Scoreboard::new(unique.len());
            for (i, &t) in unique.iter().enumerate() {
                sb.insert(t, 1, i as i64).unwrap();
            }
            for round in 2..=4u32 {
                for &t in &unique {
                    let e = sb.lookup(t).unwrap();
                    sb.update(t, round, e.partial + 10);
                }
            }
            for (i, &t) in unique.iter().enumerate() {
                let e = sb.evict(t).unwrap();
                prop_assert_eq!(e.partial, i as i64 + 30);
                prop_assert_eq!(e.next_plane, 4);
            }
            prop_assert_eq!(sb.occupancy(), 0);
        }
    }
}
