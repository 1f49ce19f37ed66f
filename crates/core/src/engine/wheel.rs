//! The engine's event wheel: [`EventQueue`]'s delivery order at the cost
//! of a bucket push and pop per event, with no allocation once warm.
//!
//! Plane arrivals land a few tens of cycles after the cycle that issues
//! them, so a ring of per-cycle FIFO buckets covering the next
//! [`SLOTS`] cycles holds nearly every pending event; the rare arrival
//! further out (a deep queue on one HBM channel) waits in an overflow
//! [`EventQueue`] and moves into its bucket once the wheel comes within
//! [`SLOTS`] cycles of it. The buckets are linked lists threaded through
//! one node arena: a delivered event's node goes on a free list and the
//! next scheduled event reuses it, so the arena never holds more nodes
//! than the most events ever bucketed at once.

use pade_sim::{Cycle, EventQueue};

/// Ring size in cycles (a power of two).
const SLOTS: u64 = 256;

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One arena node: an event (`None` while on the free list) and the next
/// node of its list.
#[derive(Debug)]
struct Node<T> {
    event: Option<T>,
    next: u32,
}

/// A time-bucketed event queue delivering events in `(time, insertion)`
/// order, exactly as [`EventQueue`] does, for the engine's use pattern:
/// events are scheduled no earlier than the last delivered event's time.
#[derive(Debug)]
pub(super) struct EventWheel<T> {
    /// Bucket `t % SLOTS` is the list from `heads[..]` to `tails[..]`
    /// holding, in insertion order, the events due at `t` for every `t`
    /// in `[pos, pos + SLOTS)`.
    heads: [u32; SLOTS as usize],
    tails: [u32; SLOTS as usize],
    nodes: Vec<Node<T>>,
    /// First node of the free list.
    free: u32,
    /// Time of the last delivered event: nothing pending is due earlier.
    pos: u64,
    /// No bucketed event is due before `scan` (a search hint).
    scan: u64,
    /// Events in the buckets.
    near: usize,
    /// Events due at or after `pos + SLOTS` when they were scheduled.
    far: EventQueue<T>,
}

impl<T> EventWheel<T> {
    pub(super) fn new() -> Self {
        Self {
            heads: [NIL; SLOTS as usize],
            tails: [NIL; SLOTS as usize],
            nodes: Vec::new(),
            free: NIL,
            pos: 0,
            scan: 0,
            near: 0,
            far: EventQueue::new(),
        }
    }

    /// Appends `event` to the bucket of time `t`.
    fn push(&mut self, t: u64, event: T) {
        let node = Node { event: Some(event), next: NIL };
        let i = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 - 1 pending events")
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        let slot = (t % SLOTS) as usize;
        match self.tails[slot] {
            NIL => self.heads[slot] = i,
            tail => self.nodes[tail as usize].next = i,
        }
        self.tails[slot] = i;
        self.near += 1;
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics (in every build) if `time` is earlier than an event already
    /// delivered: the wheel has moved past its bucket, and silently
    /// delivering it late would reorder the simulation.
    pub(super) fn schedule(&mut self, time: Cycle, event: T) {
        let t = time.0;
        assert!(
            t >= self.pos,
            "event due at cycle {t} scheduled after cycle {} was delivered",
            self.pos
        );
        if t - self.pos < SLOTS {
            self.push(t, event);
            self.scan = self.scan.min(t);
        } else {
            self.far.schedule(time, event);
        }
    }

    /// The firing time of the earliest pending event.
    pub(super) fn next_time(&mut self) -> Option<Cycle> {
        if self.near == 0 {
            return self.far.next_time();
        }
        // Buckets before `scan` are known empty; every overflow event is
        // due after every bucketed one.
        let mut t = self.scan.max(self.pos);
        while self.heads[(t % SLOTS) as usize] == NIL {
            t += 1;
        }
        self.scan = t;
        Some(Cycle(t))
    }

    /// Pops the oldest event whose time is `<= now`, if any.
    pub(super) fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        let t = self.next_time().filter(|&t| t <= now)?.0;
        self.pos = t;
        // Overflow events now within reach join their buckets — before
        // anything new can be scheduled there, so insertion order holds.
        while let Some(due) = self.far.next_time().filter(|d| d.0 - t < SLOTS) {
            let event = self.far.pop_ready(due).expect("peeked event is due");
            self.push(due.0, event);
        }
        let slot = (t % SLOTS) as usize;
        let i = self.heads[slot];
        let node = &mut self.nodes[i as usize];
        let event = node.event.take().expect("next_time names a non-empty bucket");
        self.heads[slot] = node.next;
        if node.next == NIL {
            self.tails[slot] = NIL;
        }
        node.next = self.free;
        self.free = i;
        self.near -= 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Steps a wheel and an [`EventQueue`] the way the engine loop does —
    /// deliver everything due, schedule new events, jump to the next event
    /// or take a single step — and returns both delivery logs.
    fn replay(bursts: &[(u8, Vec<(u16, u8)>)], far_every: usize) -> (Vec<u32>, Vec<u32>) {
        let mut wheel = EventWheel::new();
        let mut queue = EventQueue::new();
        let (mut from_wheel, mut from_queue) = (Vec::new(), Vec::new());
        let mut now = Cycle::ZERO;
        let mut id = 0u32;
        for (step, (advance, batch)) in bursts.iter().enumerate() {
            while let Some(e) = wheel.pop_ready(now) {
                from_wheel.push(e);
            }
            while let Some(e) = queue.pop_ready(now) {
                from_queue.push(e);
            }
            for &(delay, burst) in batch {
                // Same-cycle bursts, short gaps and, every `far_every`
                // steps, arrivals far past the ring.
                let far = if far_every > 0 && step % far_every == 0 { 40 * SLOTS } else { 0 };
                let at = now + Cycle(u64::from(delay) + far);
                for _ in 0..=burst % 4 {
                    wheel.schedule(at, id);
                    queue.schedule(at, id);
                    id += 1;
                }
            }
            assert_eq!(wheel.next_time(), queue.next_time(), "step {step}");
            now = match (*advance % 3, wheel.next_time()) {
                (0, Some(t)) if t > now => t,
                _ => now + Cycle(1 + u64::from(*advance)),
            };
        }
        // Drain whatever is left at one far-off instant.
        now += Cycle(1 << 40);
        while let Some(e) = wheel.pop_ready(now) {
            from_wheel.push(e);
        }
        while let Some(e) = queue.pop_ready(now) {
            from_queue.push(e);
        }
        assert_eq!(from_queue.len(), id as usize, "the reference delivers every event");
        (from_wheel, from_queue)
    }

    proptest! {
        #[test]
        fn prop_wheel_delivers_in_event_queue_order(
            bursts in proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec((0u16..600, any::<u8>()), 0..6)),
                1..120,
            ),
            far_every in 0usize..5,
        ) {
            let (wheel, queue) = replay(&bursts, far_every);
            prop_assert_eq!(wheel, queue);
        }
    }

    #[test]
    fn same_cycle_events_fire_in_insertion_order_across_the_overflow() {
        let mut wheel = EventWheel::new();
        let far = Cycle(10 * SLOTS);
        wheel.schedule(far, 'a'); // overflow
        wheel.schedule(Cycle(3), 'x');
        assert_eq!(wheel.pop_ready(Cycle(3)), Some('x'));
        wheel.schedule(far, 'b'); // still overflow
        assert_eq!(wheel.pop_ready(far - Cycle(1)), None);
        assert_eq!(wheel.next_time(), Some(far));
        assert_eq!(wheel.pop_ready(far), Some('a'));
        wheel.schedule(far, 'c'); // bucketed behind `b`
        assert_eq!(wheel.pop_ready(far), Some('b'));
        assert_eq!(wheel.pop_ready(far), Some('c'));
        assert_eq!(wheel.pop_ready(Cycle(u64::MAX)), None);
    }

    #[test]
    fn an_event_due_before_now_is_still_delivered_first() {
        // Due before `now` but not before the last delivery: delivered by
        // the next pop, ahead of later events.
        let mut wheel = EventWheel::new();
        wheel.schedule(Cycle(5), 1);
        assert_eq!(wheel.pop_ready(Cycle(9)), Some(1));
        wheel.schedule(Cycle(20), 3);
        wheel.schedule(Cycle(6), 2);
        assert_eq!(wheel.pop_ready(Cycle(20)), Some(2));
        assert_eq!(wheel.pop_ready(Cycle(20)), Some(3));
    }

    #[test]
    fn the_arena_never_outgrows_the_peak_pending_count() {
        // Thousands of rounds with at most `k` events pending, a fifth of
        // them due past the ring (so they move in from the overflow):
        // delivered nodes go back on the free list and are reused, so the
        // arena stays within the most events ever pending at once.
        let mut rng = TestRng::for_case("wheel::arena", 0);
        for k in [1usize, 3, 16] {
            let mut wheel = EventWheel::new();
            let mut queue = EventQueue::new();
            let (mut now, mut id, mut pending, mut peak) = (Cycle::ZERO, 0u32, 0usize, 0usize);
            for _ in 0..5000 {
                if pending < k && (0u32..3).sample(&mut rng) > 0 {
                    let far = if (0u32..5).sample(&mut rng) == 0 { 2 * SLOTS } else { 0 };
                    let at = now + Cycle(u64::from((0u32..40).sample(&mut rng)) + far);
                    wheel.schedule(at, id);
                    queue.schedule(at, id);
                    id += 1;
                    pending += 1;
                    peak = peak.max(pending);
                } else if let Some(t) = wheel.next_time() {
                    now = now.max(t);
                    assert_eq!(wheel.pop_ready(now), queue.pop_ready(now));
                    pending -= 1;
                }
                assert!(wheel.nodes.len() <= peak, "k {k}: {} nodes", wheel.nodes.len());
            }
            assert!(peak == k && id > 1000, "k {k}: peak {peak}, {id} events");
        }
    }

    #[test]
    #[should_panic(expected = "scheduled after cycle 9 was delivered")]
    fn an_event_due_before_the_last_delivery_panics() {
        let mut wheel = EventWheel::new();
        wheel.schedule(Cycle(9), ());
        assert_eq!(wheel.pop_ready(Cycle(9)), Some(()));
        wheel.schedule(Cycle(8), ());
    }
}
