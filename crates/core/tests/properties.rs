//! Crate-level differential tests for the engine: the optimized hot path
//! (`run_qk_block`) must be **bit-identical** to the seed oracle
//! (`run_qk_block_reference`) over seeded random operands — not just the
//! workload generator's friendly traces — and a growable cache snapshot
//! must be indistinguishable from a from-scratch tensor through both
//! engine entries (one tile via `run_qk_block`, a tiled heterogeneous
//! batch via `run_qk_batch`, which fans out over `pade-par`).
//!
//! The convention (see README § Testing): the reference kernel stays
//! verbatim; optimizations live behind `run_qk_block`/`run_qk_batch` and
//! must keep these properties green.

use std::sync::Arc;

use pade_core::config::PadeConfig;
use pade_core::engine::{
    run_qk_batch, run_qk_batch_traced, run_qk_block, run_qk_block_reference, KeySource, QkBatchJob,
};
use pade_mem::{HbmConfig, KeyLayout};
use pade_quant::{BitPlaneMatrix, GrowableKeyCache, PlaneSource};
use pade_testutil::{mix, vec_i8_bits};
use proptest::prelude::*;

/// A config whose width/pruning knobs are driven from hash bits so the
/// differential sweep touches the restructured code paths (BS, OOE,
/// layouts, narrow scoreboards, GSAT shapes on and off the SWAR byte path,
/// lane counts up to the 32 per row whose 8 rows fill four words of the
/// walk's lane calendar) without enumerating them by hand.
fn config_for(bits: u32, knobs: u64) -> PadeConfig {
    let layout = match knobs % 3 {
        0 => KeyLayout::BitPlaneInterleaved,
        1 => KeyLayout::BitPlaneLinear,
        _ => KeyLayout::ValueRowMajor,
    };
    PadeConfig {
        bits,
        layout,
        enable_bs: knobs & 4 != 0,
        enable_ooe: knobs & 8 != 0,
        enable_bui_gf: knobs & 16 != 0,
        scoreboard_entries: if knobs & 32 != 0 { 4 } else { 16 },
        gsat_width: [32, 64, 128][(knobs >> 6) as usize % 3],
        subgroup: if knobs & 256 != 0 { 4 } else { 8 },
        lanes_per_row: [1, 4, 16, 32][(knobs >> 9) as usize % 4],
        ..PadeConfig::standard()
    }
}

proptest! {
    /// Optimized engine ≡ seed oracle over raw random operands: random
    /// context lengths (down to the degenerate S=1), dimensions, widths
    /// and feature knobs. Dimensions run past 128 so plane rows span
    /// several `u64` words, as at head dim 128, and rows run up to all
    /// `pe_rows` so the lane calendar spans several mask words.
    #[test]
    fn optimized_engine_matches_oracle_on_random_shapes(
        bits in prop_oneof![Just(2u32), Just(4), Just(8)],
        s in 1usize..48,
        dims in 1usize..200,
        rows in 1usize..=PadeConfig::standard().pe_rows,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = config_for(bits, knobs);
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let keys = BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let fast = run_qk_block(&config, &queries, &keys, scale);
        let oracle = run_qk_block_reference(&config, &queries, &keys, scale);
        prop_assert_eq!(fast, oracle);
    }

    /// The decode and prefill shapes at serving length: one query row or
    /// all `pe_rows` over a long context, on 1, 2 or 16 HBM channels. Few
    /// channels queue hundreds of plane fetches, so lanes wait on DRAM for
    /// hundreds of cycles and arrivals land past the event wheel's ring;
    /// this pins the parked-lane memory-stall accounting, the wheel's
    /// overflow path, multi-word GSAT passes (dims 128) and, with every
    /// row busy, the lane calendar's later mask words against the oracle.
    #[test]
    fn long_context_blocks_match_oracle(
        s in 256usize..700,
        dims in prop_oneof![Just(64usize), Just(128)],
        rows in prop_oneof![Just(1usize), Just(PadeConfig::standard().pe_rows)],
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let base = config_for(8, knobs);
        let channels = [1, 2, 16][(knobs >> 12) as usize % 3];
        let config = PadeConfig { hbm: HbmConfig { channels, ..base.hbm }, ..base };
        let keys_data = vec_i8_bits(s * dims, seed, 8);
        let keys = BitPlaneMatrix::from_rows(&keys_data, dims, 8).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, !seed ^ mix(seed, r), 8)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let fast = run_qk_block(&config, &queries, &keys, scale);
        let oracle = run_qk_block_reference(&config, &queries, &keys, scale);
        prop_assert_eq!(fast, oracle);
    }

    /// Cache-snapshot execution ≡ from-scratch execution ≡ seed oracle,
    /// for any append split and chunk size — the tentpole's engine-level
    /// guarantee, solo and batched.
    #[test]
    fn snapshot_execution_matches_from_scratch_and_oracle(
        bits in prop_oneof![Just(4u32), Just(8)],
        s in 1usize..40,
        dims in 1usize..32,
        rows in 1usize..10,
        chunk in 1usize..13,
        split in 0usize..40,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = config_for(bits, knobs);
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let scratch = Arc::new(BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap());
        let mut cache = GrowableKeyCache::new(dims, bits, chunk).unwrap();
        let split = split.min(s);
        cache.append_rows(&keys_data[..split * dims]).unwrap();
        for t in split..s {
            cache.append_token(&keys_data[t * dims..(t + 1) * dims]).unwrap();
        }
        let snap = cache.snapshot();
        prop_assert_eq!(snap.tokens(), s);
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(!seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        // Solo block (first pe_rows-bounded chunk of rows).
        let head = &queries[..queries.len().min(config.pe_rows)];
        let cached = run_qk_block(&config, head, &snap, scale);
        prop_assert_eq!(&cached, &run_qk_block(&config, head, &scratch, scale));
        prop_assert_eq!(&cached, &run_qk_block_reference(&config, head, &scratch, scale));
        // Batched rows (may span several blocks).
        let job =
            |keys: KeySource| QkBatchJob { queries: queries.clone(), keys, logit_scale: scale };
        prop_assert_eq!(
            run_qk_batch(&config, &[job(KeySource::Cache(snap.clone()))]),
            run_qk_batch(&config, &[job(KeySource::Planes(Arc::clone(&scratch)))])
        );
    }

    /// A heterogeneous batch mixing shared-tensor jobs with cache-snapshot
    /// jobs over the *same* operands, each job longer than `pe_rows` rows,
    /// yields one result per tile in job-then-tile order; every tile
    /// equals `run_qk_block` over its rows and the seed oracle, for both
    /// storage forms.
    #[test]
    fn mixed_key_source_batch_matches_per_tile_blocks_and_oracle(
        s in 1usize..32,
        dims in 1usize..24,
        rows in 1usize..20,
        chunk in 1usize..9,
        seed in any::<u64>(),
    ) {
        let config = PadeConfig::standard();
        let bits = config.bits;
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let scratch = Arc::new(BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap());
        let mut cache = GrowableKeyCache::new(dims, bits, chunk).unwrap();
        cache.append_rows(&keys_data).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(0xBEEF, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let sources =
            [KeySource::Planes(Arc::clone(&scratch)), KeySource::Cache(cache.snapshot())];
        let jobs: Vec<QkBatchJob> = sources
            .iter()
            .map(|keys| QkBatchJob {
                queries: queries.clone(),
                keys: keys.clone(),
                logit_scale: scale,
            })
            .collect();
        let results = run_qk_batch(&config, &jobs);
        let tiles: Vec<&[&[i8]]> = queries.chunks(config.pe_rows).collect();
        prop_assert_eq!(results.len(), jobs.len() * tiles.len());
        for (j, keys) in sources.iter().enumerate() {
            for (t, rows) in tiles.iter().enumerate() {
                let got = &results[j * tiles.len() + t];
                prop_assert_eq!(got, &run_qk_block(&config, rows, keys, scale));
                prop_assert_eq!(got, &run_qk_block_reference(&config, rows, &scratch, scale));
            }
        }
    }

    /// The traced entry points are the seed path plus a pure side
    /// channel: with a recorder attached or absent the outputs stay
    /// byte-identical to the oracle, and the recorded stream is strictly
    /// well-formed and holds the engine's block spans.
    #[test]
    fn traced_engine_matches_oracle_and_records_wellformed_spans(
        bits in prop_oneof![Just(2u32), Just(4), Just(8)],
        s in 1usize..40,
        dims in 1usize..32,
        rows in 1usize..12,
        knobs in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let config = config_for(bits, knobs);
        let keys_data = vec_i8_bits(s * dims, seed, bits);
        let keys = BitPlaneMatrix::from_rows(&keys_data, dims, bits).unwrap();
        let query_data: Vec<Vec<i8>> =
            (0..rows).map(|r| vec_i8_bits(dims, seed ^ mix(seed, r), bits)).collect();
        let queries: Vec<&[i8]> = query_data.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / 64.0;
        let recorder = Arc::new(pade_trace::Recorder::new());
        let tracer =
            pade_trace::Tracer::new(Arc::clone(&recorder) as Arc<dyn pade_trace::TraceSink>);
        let track = pade_trace::track::id(pade_trace::track::ENGINE, 7, 0);
        let job =
            QkBatchJob { queries: queries.clone(), keys: keys.clone().into(), logit_scale: scale };
        let oracle: Vec<_> = queries
            .chunks(config.pe_rows)
            .map(|rows| run_qk_block_reference(&config, rows, &keys, scale))
            .collect();
        let traced = run_qk_batch_traced(&config, std::slice::from_ref(&job), &tracer, track);
        prop_assert_eq!(&traced, &oracle);
        let inert = run_qk_batch_traced(
            &config, &[job], &pade_trace::Tracer::disabled(), track,
        );
        prop_assert_eq!(&inert, &oracle);
        let snap = recorder.snapshot();
        prop_assert!(snap.check_well_formed().is_ok());
                prop_assert!(snap.span_count() > 0);
        prop_assert!(snap.stage_names().contains("engine.qk_block"));
    }
}
