//! Crate-level property tests for the simulation kernel: event-queue time
//! ordering, cycle/frequency arithmetic and statistic merging — the
//! bookkeeping every higher-level result trusts.

use pade_sim::{Cycle, EventQueue, Frequency, OpCounts, TrafficCounts, UtilizationCounter};
use proptest::prelude::*;

proptest! {
    /// Events pop in non-decreasing time order and only once ready.
    #[test]
    fn event_queue_orders_by_time(
        events in proptest::collection::vec((0u64..1000, 0u32..100), 1..60),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        for &(t, v) in &events {
            q.schedule(Cycle(t), v);
        }
        prop_assert_eq!(q.len(), events.len());
        let horizon = Cycle(1000);
        let mut last = Cycle::ZERO;
        let mut drained = 0usize;
        // Nothing before its scheduled time.
        let min_t = events.iter().map(|&(t, _)| t).min().unwrap();
        if min_t > 0 {
            prop_assert!(q.pop_ready(Cycle(min_t - 1)).is_none());
        }
        while let Some(next) = q.next_time() {
            prop_assert!(next >= last);
            let _ = q.pop_ready(horizon).unwrap();
            last = next;
            drained += 1;
        }
        prop_assert_eq!(drained, events.len());
        prop_assert!(q.is_empty());
    }

    /// Frequency round trip: ns → cycles → seconds is consistent within a
    /// cycle of quantization.
    #[test]
    fn frequency_round_trip(mhz in 100.0f64..3000.0, ns in 0.0f64..10_000.0) {
        let f = Frequency::mhz(mhz);
        let cycles = f.cycles_from_ns(ns);
        let seconds = f.seconds(cycles);
        let err = (seconds - ns * 1e-9).abs();
        prop_assert!(err <= 1.0 / f.hz() + 1e-12, "err {err}");
    }

    /// OpCounts/TrafficCounts merging is component-wise addition (checked
    /// through the totals, which every energy figure uses).
    #[test]
    fn counters_merge_additively(
        a in proptest::collection::vec(0u64..1_000_000, 7),
        b in proptest::collection::vec(0u64..1_000_000, 7),
    ) {
        let make_ops = |v: &[u64]| OpCounts {
            int8_mac: v[0],
            bit_serial_acc: v[1],
            shift_add: v[2],
            fp_exp: v[3],
            fp_mul: v[4],
            compare: v[5],
            lut_lookup: v[6],
            ..OpCounts::default()
        };
        let mut x = make_ops(&a);
        x.merge(&make_ops(&b));
        prop_assert_eq!(x.int8_mac, a[0] + b[0]);
        prop_assert_eq!(x.bit_serial_acc, a[1] + b[1]);
        prop_assert_eq!(x.equivalent_adds(),
            make_ops(&a).equivalent_adds() + make_ops(&b).equivalent_adds());

        let mut ta = TrafficCounts {
            dram_read_bytes: a[0],
            sram_read_bytes: a[1],
            ..TrafficCounts::default()
        };
        let tb = TrafficCounts {
            dram_read_bytes: b[0],
            sram_write_bytes: b[2],
            ..TrafficCounts::default()
        };
        ta.merge(&tb);
        prop_assert_eq!(ta.dram_total_bytes(), a[0] + b[0]);
        prop_assert_eq!(ta.sram_total_bytes(), a[1] + b[2]);
    }

    /// Utilization categories always partition the total, and the derived
    /// fractions stay inside [0, 1].
    #[test]
    fn utilization_partitions_the_total(
        segments in proptest::collection::vec((0u8..4, 1u64..1000), 1..40),
    ) {
        let mut u = UtilizationCounter::new();
        let mut busy = 0u64;
        let mut total = 0u64;
        for (kind, n) in segments {
            match kind {
                0 => { u.busy(n); busy += n; }
                1 => u.stall_intra(n),
                2 => u.stall_inter(n),
                _ => u.stall_mem(n),
            }
            total += n;
        }
        prop_assert_eq!(u.total(), total);
        prop_assert_eq!(u.busy_cycles(), busy);
        prop_assert!((0.0..=1.0).contains(&u.utilization()));
        prop_assert!((0.0..=1.0).contains(&u.balance_efficiency()));
    }

    /// Cycle arithmetic: max/add/saturating_sub behave like u64.
    #[test]
    fn cycle_arithmetic(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (ca, cb) = (Cycle(a), Cycle(b));
        prop_assert_eq!((ca + cb).0, a + b);
        prop_assert_eq!(ca.max(cb).0, a.max(b));
        prop_assert_eq!(ca.saturating_sub(cb).0, a.saturating_sub(b));
    }
}
