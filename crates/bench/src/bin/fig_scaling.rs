//! Channel/rank scaling curves (extension of §7.2 beyond Table 2's
//! single channel): ternary GEMV (V0) and GEMM (M2) latency and
//! throughput as the engine shards over 1→8 channels, for uniform Ambit
//! and FCDRAM dispatch plus a mixed Ambit+FCDRAM module, then over
//! 1→128 SALP streams per bank (`Ambit/SALP` rows) at 1 and 4 channels.
//!
//! GEMV shards the inner dimension (cross-unit partial-sum merges cap
//! the gain); GEMM shards output rows (only the host gather is shared),
//! so both curves are sublinear in channels, GEMM less so. The SALP
//! rows shard below the rank: concurrent per-subarray AAP streams
//! multiply per-module throughput until the shared-bank command gate
//! caps the stream count.
//!
//! Sweep points are priced **in parallel** on `rayon` workers against
//! one shared plan/pricing/report cache; results are collected in input
//! order and per-group speedup baselines applied afterwards, so the
//! table and `--json` output are byte-identical at any
//! `RAYON_NUM_THREADS`.

use c2m_bench::{eng, header, maybe_json, trace_flag};
use c2m_cim::Backend;
use c2m_core::cache::PlanCache;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_core::shard::BackendPolicy;
use c2m_workloads::distributions::int8_embeddings;
use c2m_workloads::llama::{GEMM_SHAPES, GEMV_SHAPES};
use rayon::prelude::*;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct ScalingRow {
    dispatch: String,
    channels: usize,
    ranks: usize,
    subarrays: usize,
    gemv_ms: f64,
    gemv_gops: f64,
    gemv_speedup: f64,
    gemm_ms: f64,
    gemm_gops: f64,
    gemm_speedup: f64,
}

/// One sweep point: a dispatch label, its backend policy and the
/// topology to price. `group` ties the point to its speedup baseline
/// (the first job of each group is the 1× reference).
struct Job {
    group: usize,
    label: &'static str,
    policy: BackendPolicy,
    channels: usize,
    subarrays: usize,
}

/// The V0 GEMV and M2 GEMM reports for one sweep point. Speedups are
/// derived after collection so each group's baseline is its own first
/// point regardless of execution order.
struct Priced {
    gemv_ns: f64,
    gemv_ms: f64,
    gemv_gops: f64,
    gemm_ns: f64,
    gemm_ms: f64,
    gemm_gops: f64,
}

fn exec(job: &Job, x_gemv: &[i64], x_gemm: &[i64], cache: &Arc<PlanCache>) -> Priced {
    let gemv_shape = GEMV_SHAPES[0]; // V0: 1 x 22016 x 8192
    let gemm_shape = GEMM_SHAPES[2]; // M2: 8192 x 8192 x 8192
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = job.channels;
    // SALP points past the DDR5 geometry (128) are modelled by widening
    // `subarrays_per_bank`; the engine still clamps the granted streams
    // at the channel-gate cap, so the curve saturates instead of rising
    // without bound.
    cfg.dram.subarrays_per_bank = cfg.dram.subarrays_per_bank.max(job.subarrays);
    cfg.subarrays = job.subarrays;
    // All sweep points share one cache: the input streams repeat across
    // channel counts and policies, so only the first point pays the
    // IARM planning pass.
    let engine = C2mEngine::builder(cfg)
        .backends(job.policy.clone())
        .shared_cache(Arc::clone(cache))
        .build();
    let gemv = engine.ternary_gemv(x_gemv, gemv_shape.n);
    let gemm = engine.ternary_gemm(gemm_shape.m, gemm_shape.n, x_gemm);
    Priced {
        gemv_ns: gemv.elapsed_ns,
        gemv_ms: gemv.elapsed_ms(),
        gemv_gops: gemv.gops(),
        gemm_ns: gemm.elapsed_ns,
        gemm_ms: gemm.elapsed_ms(),
        gemm_gops: gemm.gops(),
    }
}

fn print_row(row: &ScalingRow) {
    println!(
        "{:>14} | {:>3} {:>4} | {:>9} {:>8} {:>7} | {:>9} {:>8} {:>7}",
        row.dispatch,
        row.channels,
        row.subarrays,
        eng(row.gemv_ms),
        eng(row.gemv_gops),
        eng(row.gemv_speedup),
        eng(row.gemm_ms),
        eng(row.gemm_gops),
        eng(row.gemm_speedup),
    );
}

/// `--trace <out.json>`: replay the V0 GEMV on fresh private-cache
/// engines — once bare, once with a recording sink — assert the traced
/// [`c2m_dram::ExecutionReport`] serialises bit-identically to the
/// untraced one, and export the Chrome-trace JSON of the engine launch
/// (launch span, per-channel shard spans, merge rounds, cache
/// counters). The analytic launch never drives a command scheduler or
/// fetch queue, so the trace carries `core` events only.
fn trace_export(path: &str) {
    let shape = GEMV_SHAPES[0];
    let x = int8_embeddings(shape.k, 0x5CA1);
    let build = |sink: Option<Arc<dyn c2m_trace::TraceSink>>| {
        let mut cfg = EngineConfig::c2m(16);
        cfg.dram.channels = 4;
        let mut b = C2mEngine::builder(cfg).backends(BackendPolicy::Uniform(Backend::Ambit));
        if let Some(s) = sink {
            b = b.trace(s);
        }
        b.build()
    };
    let plain = build(None).ternary_gemv(&x, shape.n);
    let sink = Arc::new(c2m_trace::RecordingSink::default());
    let traced = build(Some(sink.clone())).ternary_gemv(&x, shape.n);
    assert_eq!(
        serde_json::to_string(&plain).expect("report serialises"),
        serde_json::to_string(&traced).expect("report serialises"),
        "tracing must not change the execution report"
    );
    let json = sink.chrome_trace_json();
    let check = c2m_trace::validate_chrome_trace(&json).expect("recorded trace is valid");
    assert!(
        check.cats.iter().any(|c| c == "core"),
        "engine trace must carry core events"
    );
    std::fs::write(path, &json).expect("trace output path is writable");
    println!(
        "\n--trace: {path} — {} events, {} spans, {} tracks; traced report bit-equal to untraced",
        check.events, check.spans, check.tracks
    );
}

fn main() {
    header(
        "fig_scaling",
        "Topology scaling: V0 GEMV / M2 GEMM over channels and SALP streams",
    );
    println!(
        "\n{:>14} | {:>3} {:>4} | {:>9} {:>8} {:>7} | {:>9} {:>8} {:>7}",
        "dispatch", "ch", "sub", "gemv ms", "gops", "speedup", "gemm ms", "gops", "speedup"
    );
    let gemv_shape = GEMV_SHAPES[0];
    let gemm_shape = GEMM_SHAPES[2];
    let x_gemv = int8_embeddings(gemv_shape.k, 0x5CA1);
    let x_gemm = int8_embeddings(gemm_shape.k, 0x5CA2);
    let cache = Arc::new(PlanCache::default());

    // Channel-scaling groups (first point of each group = 1 channel),
    // then the SALP groups (first point = 1 stream) at 1 and 4 channels.
    let mut jobs: Vec<Job> = Vec::new();
    let channel_groups: [(&'static str, BackendPolicy); 3] = [
        ("Ambit", BackendPolicy::Uniform(Backend::Ambit)),
        ("FCDRAM", BackendPolicy::Uniform(Backend::Fcdram)),
        (
            "Ambit+FCDRAM",
            BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]),
        ),
    ];
    for (g, (label, policy)) in channel_groups.iter().enumerate() {
        for channels in [1usize, 2, 4, 8] {
            jobs.push(Job {
                group: g,
                label,
                policy: policy.clone(),
                channels,
                subarrays: 1,
            });
        }
    }
    for (i, channels) in [1usize, 4].into_iter().enumerate() {
        for subarrays in [1usize, 8, 32, 128] {
            jobs.push(Job {
                group: channel_groups.len() + i,
                label: "Ambit/SALP",
                policy: BackendPolicy::Uniform(Backend::Ambit),
                channels,
                subarrays,
            });
        }
    }

    // Price every point on a worker; collect() preserves input order.
    let priced: Vec<Priced> = jobs
        .par_iter()
        .map(|j| exec(j, &x_gemv, &x_gemm, &cache))
        .collect();

    // Speedup baselines: the first point of each group, applied in
    // input order so the rows come out exactly as the serial sweep did.
    let mut rows = Vec::with_capacity(jobs.len());
    let mut base: Option<(usize, f64, f64)> = None;
    for (job, p) in jobs.iter().zip(&priced) {
        let (base_gemv, base_gemm) = match base {
            Some((g, v, m)) if g == job.group => (v, m),
            _ => {
                base = Some((job.group, p.gemv_ns, p.gemm_ns));
                (p.gemv_ns, p.gemm_ns)
            }
        };
        let row = ScalingRow {
            dispatch: job.label.to_string(),
            channels: job.channels,
            ranks: 1,
            subarrays: job.subarrays,
            gemv_ms: p.gemv_ms,
            gemv_gops: p.gemv_gops,
            gemv_speedup: base_gemv / p.gemv_ns,
            gemm_ms: p.gemm_ms,
            gemm_gops: p.gemm_gops,
            gemm_speedup: base_gemm / p.gemm_ns,
        };
        print_row(&row);
        rows.push(row);
    }

    println!("\nGEMV shards K (pays cross-unit merges); GEMM shards rows (pays host gather);");
    println!("speedups are sublinear in channels, and FCDRAM pays the generic-lowering premium.");
    println!("SALP rows shard below the rank too: streams saturate at the channel-gate cap,");
    println!("so the 32- and 128-subarray points coincide once the cap binds.");
    if let Some(path) = trace_flag() {
        trace_export(&path);
    }
    maybe_json(&rows);
}
