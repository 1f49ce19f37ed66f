//! The production walk's lane-visit calendar: which lanes are due at each
//! of the next few cycles, as one bitmask per cycle.
//!
//! A lane is due when it is free to issue and absorb: at the cycle its
//! last absorption ends, or at the delivery that wakes it from a DRAM
//! wait. An absorption takes at most
//! [`Gsat::max_plane_cycles`](crate::gsat::Gsat::max_plane_cycles) cycles, so every booking lies less than a ring
//! of `2^k > max` buckets ahead of the current cycle and no two pending
//! cycles share a bucket. Each bucket holds `⌈lanes / 64⌉` words, and a
//! step visits its set bits in ascending lane id — the order of the
//! oracle's pass over all lanes.

use pade_sim::Cycle;

#[derive(Debug)]
pub(super) struct LaneCalendar {
    /// Words per bucket.
    words: usize,
    /// Buckets minus one (the ring size is a power of two).
    mask: u64,
    /// Bucket `t & mask` is `bits[(t & mask)·words ..][..words]`: the lanes
    /// due at cycle `t`, for every booked `t` in `[now, now + mask]`.
    bits: Vec<u64>,
}

impl LaneCalendar {
    /// A calendar of `lanes` lanes, each booked at most `reach` cycles
    /// past the cycle that books it.
    pub(super) fn new(lanes: usize, reach: u64) -> Self {
        let words = lanes.div_ceil(64);
        let buckets = (reach + 1).next_power_of_two();
        Self { words, mask: buckets - 1, bits: vec![0; words * buckets as usize] }
    }

    /// Words per bucket: lane `64·w + b` is bit `b` of word `w`.
    pub(super) fn words(&self) -> usize {
        self.words
    }

    fn bucket(&self, t: Cycle) -> usize {
        (t.0 & self.mask) as usize * self.words
    }

    /// Marks `lane` due at cycle `at`.
    pub(super) fn book(&mut self, lane: usize, at: Cycle) {
        let i = self.bucket(at) + lane / 64;
        self.bits[i] |= 1 << (lane % 64);
    }

    /// Takes word `word` of cycle `now`'s bucket, leaving it empty.
    pub(super) fn take(&mut self, now: Cycle, word: usize) -> u64 {
        let i = self.bucket(now) + word;
        std::mem::take(&mut self.bits[i])
    }

    /// The first cycle after `now` with a lane due, if any lane is booked.
    pub(super) fn next_after(&self, now: Cycle) -> Option<Cycle> {
        (1..=self.mask).map(|d| now + Cycle(d)).find(|&t| {
            let b = self.bucket(t);
            self.bits[b..b + self.words].iter().any(|&w| w != 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains cycle `now`'s bucket into ascending lane ids.
    fn due(cal: &mut LaneCalendar, now: Cycle) -> Vec<usize> {
        let mut lanes = Vec::new();
        for w in 0..cal.words() {
            let mut bits = cal.take(now, w);
            while bits != 0 {
                lanes.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        lanes
    }

    #[test]
    fn lanes_come_out_in_ascending_order_across_mask_words() {
        let mut cal = LaneCalendar::new(256, 2);
        for lane in [255, 3, 130, 64, 0, 63, 200] {
            cal.book(lane, Cycle(5));
        }
        cal.book(7, Cycle(7));
        assert_eq!(cal.next_after(Cycle(4)), Some(Cycle(5)));
        assert_eq!(due(&mut cal, Cycle(5)), [0, 3, 63, 64, 130, 200, 255]);
        assert_eq!(cal.next_after(Cycle(5)), Some(Cycle(7)));
        assert_eq!(due(&mut cal, Cycle(7)), [7]);
        assert_eq!(cal.next_after(Cycle(7)), None);
    }

    #[test]
    fn the_ring_covers_its_reach_without_collisions() {
        for reach in [1u64, 2, 3, 8, 9] {
            let mut cal = LaneCalendar::new(70, reach);
            let now = Cycle(1000 + reach);
            // One lane per cycle of the reach, booked from `now`.
            for d in 1..=reach {
                cal.book(d as usize, now + Cycle(d));
            }
            for d in 1..=reach {
                assert_eq!(cal.next_after(now + Cycle(d - 1)), Some(now + Cycle(d)), "{reach}");
                assert_eq!(due(&mut cal, now + Cycle(d)), [d as usize], "reach {reach}");
            }
            assert_eq!(cal.next_after(now + Cycle(reach)), None, "reach {reach}");
        }
    }
}
