//! Fig. 25 — extending BUI-GF to the MXINT micro-scaling format: per-group
//! integer BUIs are scaled by their calibration factors and summed, giving
//! sound real-valued bounds for dot products of arbitrary length.

use pade_core::bui::MxBui;
use pade_experiments::report::{banner, Table};
use pade_quant::mxint::{mx_dot, MxVector};
use pade_quant::{plane_weight, BitPlaneMatrix};

fn main() {
    banner("Fig. 25", "BUI-GF compatibility with the MX format (group-wise scaling)");
    // A 64-element dot product in two 32-element MX groups with distinct
    // calibration scales (group 2 carries 8x larger magnitudes).
    let q_real: Vec<f32> = (0..64)
        .map(|i| {
            let base = ((i * 13) % 17) as f32 - 8.0;
            if i < 32 {
                base * 0.1
            } else {
                base * 0.8
            }
        })
        .collect();
    let k_real: Vec<f32> = (0..64)
        .map(|i| {
            let base = ((i * 7) % 19) as f32 - 9.0;
            if i < 32 {
                base * 0.05
            } else {
                base * 0.4
            }
        })
        .collect();
    let q = MxVector::quantize(&q_real, 32, 8).expect("Q quantizes");
    let k = MxVector::quantize(&k_real, 32, 8).expect("K quantizes");
    let k_scales: Vec<f32> = (0..k.groups()).map(|g| k.group_scale(g)).collect();
    let bui = MxBui::new(&q, &k_scales);
    let exact = f64::from(mx_dot(&q, &k).expect("same structure"));

    println!(
        "group scales: ΔQ = {:?}",
        (0..q.groups()).map(|g| q.group_scale(g)).collect::<Vec<_>>()
    );
    println!("              ΔK = {k_scales:?}");
    println!("exact real dot product: {exact:.3}\n");

    let mut table =
        Table::new(vec!["planes known", "lower bound", "upper bound", "width", "contains exact"]);
    for r in 0..8u32 {
        let partials: Vec<i64> = (0..q.groups())
            .map(|g| {
                let codes = k.group_codes(g);
                let key_planes = BitPlaneMatrix::from_rows(codes, codes.len(), 8).unwrap();
                let planes = key_planes.token(0);
                (0..=r)
                    .map(|p| {
                        i64::from(plane_weight(p, 8))
                            * i64::from(planes.plane(p).masked_sum(q.group_codes(g)))
                    })
                    .sum()
            })
            .collect();
        let (lo, hi) = bui.bounds(&partials, r);
        table.row(vec![
            format!("{} (MSB..)", r + 1),
            format!("{lo:.3}"),
            format!("{hi:.3}"),
            format!("{:.3}", hi - lo),
            (lo <= exact && exact <= hi).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Shape to check: bounds always contain the exact value, the width");
    println!("halves per plane, and it collapses to zero at the LSB — the");
    println!("group-wise scaling of Fig. 25(b) preserves BUI soundness, so the");
    println!("guard-filter logic runs unchanged on MX operands.");
}
