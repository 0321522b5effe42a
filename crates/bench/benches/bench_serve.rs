//! Serving-runtime benchmarks recording the tentpole perf claim: a
//! steady-state `fig_serve`-style run (backlogged single-tenant trace,
//! batch cap 8, 4 channels) against a warm shared plan/pricing cache
//! must price at least 5× faster than the same run with every cache
//! disabled. The committed `BENCH_serve.json` at the repository root
//! is this target's saved baseline:
//!
//! ```console
//! $ CRITERION_BASELINE_DIR=$PWD cargo bench -p c2m_bench --bench bench_serve -- --save-baseline BENCH_serve
//! ```
//!
//! (`CRITERION_BASELINE_DIR` must be absolute: cargo runs bench
//! binaries from the package directory, not the invocation directory.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use c2m_core::cache::PlanCache;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_core::store::CacheStore;
use c2m_serve::{open_loop, OpenLoopConfig, ServeConfig, ServeRequest, ServeRuntime, TenantSpec};
use std::sync::Arc;

/// A scaled-down fig_serve trace: one tenant, arrivals fast enough to
/// keep the queue backlogged, repeated shapes so a warm cache hits.
fn trace() -> Vec<ServeRequest> {
    open_loop(&OpenLoopConfig {
        tenants: vec![TenantSpec::new(1024, 512)],
        requests: 24,
        mean_interarrival_ns: 20_000.0,
        seed: 0x5EE5,
    })
}

fn engine(cache: Option<&Arc<PlanCache>>) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = 4;
    let b = C2mEngine::builder(cfg);
    match cache {
        Some(c) => b.shared_cache(Arc::clone(c)),
        None => b.no_cache(),
    }
    .build()
}

fn cfg() -> ServeConfig {
    ServeConfig {
        window_ns: 1e9,
        max_batch: 8,
        ..ServeConfig::default()
    }
}

fn bench_steady_state(c: &mut Criterion) {
    let reqs = trace();
    let cache = Arc::new(PlanCache::default());
    // Warm-up run pays the compulsory per-topology misses; the
    // measured runs are the sweep's steady state.
    let _ = ServeRuntime::new(engine(Some(&cache)), cfg()).run(&reqs);
    c.bench_function("fig_serve/steady_state_run_cached", |b| {
        b.iter(|| ServeRuntime::new(engine(Some(&cache)), cfg()).run(black_box(&reqs)))
    });
    c.bench_function("fig_serve/steady_state_run_uncached", |b| {
        b.iter(|| ServeRuntime::new(engine(None), cfg()).run(black_box(&reqs)))
    });
}

/// The `--cache-dir` cross-process path: every iteration simulates a
/// fresh process — a cold [`PlanCache`] warmed by loading the persisted
/// store of a previous invocation's run, then the steady-state sweep.
/// Tracks the persistent tier's end-to-end value: load + warm run must
/// beat the uncached run even with the store parse in the loop.
fn bench_persistent_warm(c: &mut Criterion) {
    let reqs = trace();
    let path = std::env::temp_dir().join(format!(
        "c2m_bench_serve_{}.c2mcache.json",
        std::process::id()
    ));
    let warm = Arc::new(PlanCache::default());
    let _ = ServeRuntime::new(engine(Some(&warm)), cfg()).run(&reqs);
    CacheStore::save(&path, &warm).expect("bench store path is writable");
    c.bench_function("fig_serve/steady_state_run_persistent_warm", |b| {
        b.iter(|| {
            let cache = Arc::new(PlanCache::default());
            assert!(CacheStore::load_into(&path, &cache), "store must load");
            ServeRuntime::new(engine(Some(&cache)), cfg()).run(black_box(&reqs))
        })
    });
    std::fs::remove_file(&path).ok();
}

/// The serial (batch cap 1) configuration, where the per-request
/// plan-pass cache is the only lever: still a large win.
fn bench_serial(c: &mut Criterion) {
    let reqs = trace();
    let cache = Arc::new(PlanCache::default());
    let serial = ServeConfig::default();
    let _ = ServeRuntime::new(engine(Some(&cache)), serial.clone()).run(&reqs);
    c.bench_function("fig_serve/serial_run_cached", |b| {
        b.iter(|| ServeRuntime::new(engine(Some(&cache)), serial.clone()).run(black_box(&reqs)))
    });
    c.bench_function("fig_serve/serial_run_uncached", |b| {
        b.iter(|| ServeRuntime::new(engine(None), serial.clone()).run(black_box(&reqs)))
    });
}

criterion_group!(
    benches,
    bench_steady_state,
    bench_persistent_warm,
    bench_serial
);
criterion_main!(benches);
