//! Tests pinning the concrete worked examples printed in the paper's
//! figures — if any of these breaks, the implementation has diverged from
//! the mechanism as published.

use pade::core::bui::Bui;
use pade::core::rars::{naive_schedule, rars_schedule};
use pade::energy::area::{gsat_cost, PadeAreaModel};
use pade::quant::{plane_weight, BitPlaneMatrix};

#[test]
fn fig5a_msb_speculation_error_example() {
    // (+5)·(+5) + (+5)·(-5) = 0, but 1-bit MSB speculation says -40.
    let key_planes = BitPlaneMatrix::from_rows(&[5, -5], 2, 4).unwrap();
    let k = key_planes.token(0);
    let est = plane_weight(0, 4) * k.plane(0).masked_sum(&[5, 5]);
    assert_eq!(est, -40);
    let exact: i32 = k.reconstruct().iter().zip([5, 5].iter()).map(|(a, b)| a * b).sum();
    assert_eq!(exact, 0);
}

#[test]
fn fig6_bui_interval_structure() {
    // Q = [6, -5, 9, -4]: P = 15, N = -9; the paper's fractional intervals
    // (-69.75, +116.25) are exactly (N, P) · 7.75.
    let bui = Bui::new(&[6, -5, 9, -4], 8);
    assert_eq!(bui.pos_sum(), 15);
    assert_eq!(bui.neg_sum(), -9);
    assert!((15.0 * 7.75 - 116.25f64).abs() < 1e-9);
    assert!((-9.0 * 7.75 - (-69.75f64)).abs() < 1e-9);
    // And the integer-domain interval at the MSB is U₀·(N, P) with U₀=127.
    assert_eq!(bui.interval(0), (-127 * 9, 127 * 15));
}

#[test]
fn fig13_rars_example_eleven_to_eight() {
    let rows = vec![vec![0, 1, 2, 3], vec![2, 3, 4, 7], vec![4, 5, 6, 7], vec![2, 3, 4, 7]];
    assert_eq!(naive_schedule(&rows, 2).total_loads, 11);
    let rars = rars_schedule(&rows, 2, 4);
    assert_eq!(rars.total_loads, 8);
    assert!(rars.covers(&rows, 2));
}

#[test]
fn fig17a_gsat_optimum_is_eight() {
    let best = [2usize, 4, 8, 16, 32, 64]
        .into_iter()
        .min_by(|&a, &b| gsat_cost(a).0.partial_cmp(&gsat_cost(b).0).unwrap())
        .unwrap();
    assert_eq!(best, 8);
}

#[test]
fn fig20_area_power_and_peak_efficiency() {
    let m = PadeAreaModel::paper();
    assert!((m.total_area_mm2() - 4.53).abs() < 1e-9);
    assert!((m.total_power_mw() - 591.0).abs() < 1e-9);
    assert!((m.peak_tops_per_watt() - 11.36).abs() < 1.0);
    let (area, power) = m.fusion_overhead();
    assert!((area - 0.058).abs() < 0.01);
    assert!((power - 0.121).abs() < 0.02);
}

#[test]
fn table3_configuration_invariants() {
    use pade::core::config::PadeConfig;
    let c = PadeConfig::standard();
    c.validate();
    assert_eq!(c.total_lanes(), 128);
    assert_eq!((c.vpu_rows, c.vpu_cols), (8, 16));
    assert_eq!(c.scoreboard_entries, 32);
    assert_eq!((c.kv_buffer_kb, c.q_buffer_kb), (320, 32));
    assert_eq!(c.hbm.channels, 16);
    assert!((c.hbm.peak_bandwidth_bytes_per_s() - 256e9).abs() < 1e6);
    assert!((c.hbm.t_rc_ns - 50.0).abs() < 1e-9);
}

#[test]
fn eq1_softmax_decay_bound() {
    // softmax(x0) < e^{-Δ} when x1 = x0 + Δ is present (Eq. 1).
    for delta in [1.0f32, 2.5, 5.0, 8.0] {
        let p = pade::linalg::softmax(&[0.0, delta]);
        assert!(p[0] < (-delta).exp(), "Δ={delta}: {} !< {}", p[0], (-delta).exp());
    }
}

#[test]
fn table1_feature_matrix_shape() {
    let rows = pade::baselines::tableone::table();
    assert_eq!(rows.len(), 9);
    let pade_row = rows.iter().find(|r| r.name == "PADE").unwrap();
    assert!(pade_row.predictor_free && !pade_row.needs_retrain && pade_row.tiling_support);
}
