//! Property tests for the whole-report cache tier: a stored report is
//! an index entry, not an approximation, so a report-cache hit must
//! reproduce the uncached launch bit-for-bit — across topologies,
//! kernels and batch sizes. Counter snapshots (`report.cache`) are the
//! one deliberately observational field and are normalised out before
//! comparison.

use c2m_core::cache::PlanCache;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_dram::{CacheCounters, ExecutionReport};
use proptest::prelude::*;
use std::sync::Arc;

fn stream(k: usize, seed: u64) -> Vec<i64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(-128i64..128)).collect()
}

fn build(channels: usize, subarrays: usize, cache: Option<Arc<PlanCache>>) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    cfg.subarrays = subarrays;
    let builder = C2mEngine::builder(cfg);
    match cache {
        Some(c) => builder.shared_cache(c).build(),
        None => builder.no_cache().build(),
    }
}

/// The full numeric surface of a report as JSON, with the
/// observational cache-counter snapshot zeroed — exactly the bytes a
/// figure binary would serialise.
fn report_json(report: &ExecutionReport) -> String {
    let mut normalised = report.clone();
    normalised.cache = CacheCounters::default();
    serde_json::to_string(&normalised).expect("report serialises")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached ≡ uncached, bit-for-bit, for every kernel entry point: the
    /// first cached launch folds and stores, the second is a pure
    /// report-tier clone, and both must serialise byte-identically to
    /// the uncached engine's launch.
    #[test]
    fn report_hits_reproduce_uncached_launches_bit_for_bit(
        k in 64usize..512,
        n in 128usize..1024,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        for (channels, subarrays) in [(1usize, 1usize), (2, 1), (4, 8)] {
            let cached = build(channels, subarrays, Some(Arc::new(PlanCache::default())));
            let uncached = build(channels, subarrays, None);
            let xs = stream(k, seed);
            let mates: Vec<Vec<i64>> =
                (0..batch).map(|i| stream(k, seed ^ (i as u64 + 1))).collect();
            let planes = [(0u32, false), (3, true), (6, false)];

            let launches: [&dyn Fn(&C2mEngine) -> ExecutionReport; 5] = [
                &|e| e.ternary_gemv(&xs, n),
                &|e| e.ternary_gemv_batch(&mates, n),
                &|e| e.ternary_gemm(8, n, &xs),
                &|e| e.binary_gemm(8, n, &xs),
                &|e| e.int_gemv(&xs, n, &planes),
            ];
            for (i, launch) in launches.iter().enumerate() {
                let reference = report_json(&launch(&uncached));
                let miss = report_json(&launch(&cached));
                let hit = report_json(&launch(&cached));
                prop_assert_eq!(&miss, &reference, "kernel {} cold-path divergence", i);
                prop_assert_eq!(&hit, &reference, "kernel {} report-hit divergence", i);
            }
            // Every second launch above must actually have been a hit.
            prop_assert_eq!(cached.cache_stats().report_hits, launches.len() as u64);
        }
    }
}
