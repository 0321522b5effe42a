//! `kernel_cold`: each op is one engine launch on a fresh seeded int8
//! input that never repeats — ternary GEMV at three inner dimensions,
//! a 16-row GEMM and a 4-request batched GEMV — rotating over four
//! engines that share one cache.
//!
//! Why: this is the fig_scaling / fig14–16 / fig18 pricing path on new
//! inputs. Every report and stream lookup misses, so IARM planning,
//! shard planning, the sharded fold and cache inserts do the work. It
//! uses the same cache tiers as `serve_sweep`, writing where
//! `serve_sweep` reads, and never enters `c2m_serve`.

use crate::spans::Tracer;
use crate::util::{canonical_json, digest_str, ratio, SplitMix};
use crate::{Args, OpResult, Size, Workload};
use c2m_cim::Backend;
use c2m_core::cache::PlanCache;
use c2m_core::engine::{doubled_ternary, C2mEngine, EngineConfig};
use c2m_core::shard::BackendPolicy;
use c2m_dram::{CacheCounters, ExecutionReport};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Output width of every kernel.
const N_OUT: usize = 2048;
/// Rows of the GEMM kernel and requests of the batched GEMV.
const GEMM_ROWS: usize = 16;
const BATCH: usize = 4;
/// One op in this many, and op 0, is re-priced by an uncached engine
/// and compared.
const CHECK_EVERY: usize = 8;

#[derive(Clone, Copy)]
enum Kernel {
    Gemv(usize),
    Gemm(usize),
    Batch(usize),
}

impl Kernel {
    fn span(self) -> &'static str {
        match self {
            Kernel::Gemv(_) => "core.engine.cold_launch.gemv",
            Kernel::Gemm(_) => "core.engine.cold_launch.gemm",
            Kernel::Batch(_) => "core.engine.cold_launch.batch",
        }
    }

    fn launch(self, engine: &C2mEngine, xs: &[Vec<i64>]) -> ExecutionReport {
        match self {
            Kernel::Gemv(_) => engine.ternary_gemv(&xs[0], N_OUT),
            Kernel::Gemm(_) => engine.ternary_gemm(GEMM_ROWS, N_OUT, &xs[0]),
            Kernel::Batch(_) => engine.ternary_gemv_batch(xs, N_OUT),
        }
    }

    /// The op's fresh input streams.
    fn inputs(self, rng: &mut SplitMix) -> Vec<Vec<i64>> {
        match self {
            Kernel::Gemv(k) | Kernel::Gemm(k) => vec![rng.int8_stream(k)],
            Kernel::Batch(k) => (0..BATCH).map(|_| rng.int8_stream(k)).collect(),
        }
    }
}

#[derive(Default)]
struct LayerTally {
    ops: usize,
    seqs: u64,
    cache: CacheCounters,
}

pub struct KernelCold {
    seed: u64,
    kernels: Vec<Kernel>,
    /// Engines sharing one cache, and an uncached twin of each.
    engines: Vec<C2mEngine>,
    uncached: Vec<C2mEngine>,
    /// Corrupts op 0's reference on purpose.
    corrupt: bool,
    layer: LayerTally,
}

fn engine(
    channels: usize,
    subarrays: usize,
    backends: &BackendPolicy,
    cache: Option<&Arc<PlanCache>>,
) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    cfg.subarrays = subarrays;
    let b = C2mEngine::builder(cfg).backends(backends.clone());
    match cache {
        Some(c) => b.shared_cache(Arc::clone(c)),
        None => b.no_cache(),
    }
    .build()
}

impl KernelCold {
    pub fn setup(args: &Args) -> Self {
        let scale = match args.size {
            Size::Full => 1,
            Size::Tiny => 16,
        };
        let kernels = vec![
            Kernel::Gemv(1024 / scale),
            Kernel::Gemv(2048 / scale),
            Kernel::Gemv(4096 / scale),
            Kernel::Gemm(2048 / scale),
            Kernel::Batch(2048 / scale),
        ];
        let ambit = BackendPolicy::Uniform(Backend::Ambit);
        let mixed = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
        // 1 channel, 4 channels, 4 channels x 8 SALP streams, and the
        // 2-channel mixed Ambit+FCDRAM module.
        let specs = [
            (1, 1, &ambit),
            (4, 1, &ambit),
            (4, 8, &ambit),
            (2, 1, &mixed),
        ];
        let cache = Arc::new(PlanCache::default());
        Self {
            seed: args.seed,
            kernels,
            engines: specs
                .iter()
                .map(|&(ch, sa, b)| engine(ch, sa, b, Some(&cache)))
                .collect(),
            uncached: specs
                .iter()
                .map(|&(ch, sa, b)| engine(ch, sa, b, None))
                .collect(),
            corrupt: args.corrupt,
            layer: LayerTally::default(),
        }
    }

    /// Replays the layer calls a cold launch makes internally: shard
    /// planning, then the uncached IARM pass over every priced stream.
    fn replay(
        &mut self,
        kernel: Kernel,
        e: usize,
        xs: &[Vec<i64>],
        tr: &mut Tracer,
        id: u64,
        root: usize,
    ) {
        let engine = &self.engines[e];
        let (plan, _) = tr.leaf("core.shard.plan", id, Some(root), || {
            let planner = engine.planner();
            match kernel {
                Kernel::Gemv(k) => planner.plan_inner(k),
                Kernel::Gemm(_) => planner.plan_rows(GEMM_ROWS),
                Kernel::Batch(_) => planner.plan_rows(xs.len()),
            }
        });
        // A GEMV prices each shard's K-slice; a GEMM prices its sample
        // row once; a batch prices each request.
        let streams: Vec<&[i64]> = match kernel {
            Kernel::Gemv(_) => plan
                .shards
                .iter()
                .map(|s| &xs[0][s.start..s.end()])
                .collect(),
            Kernel::Gemm(_) | Kernel::Batch(_) => xs.iter().map(Vec::as_slice).collect(),
        };
        // On the engine's pool, as the launch prices them, so the span
        // is comparable with the launch's own IARM time.
        let (seqs, _) = tr.leaf("jc.iarm.sequences_for_stream", id, Some(root), || {
            streams
                .par_iter()
                .map(|s| engine.sequences_for_stream(&doubled_ternary(s)))
                .collect::<Vec<u64>>()
        });
        self.layer.seqs += seqs.iter().sum::<u64>();
        self.layer.ops += 1;
    }
}

impl Workload for KernelCold {
    fn cycle(&self) -> usize {
        self.kernels.len() * self.engines.len()
    }

    fn op(&mut self, id: u64, tracer: Option<&mut Tracer>) -> OpResult {
        let kernel = self.kernels[id as usize % self.kernels.len()];
        let e = (id as usize / self.kernels.len()) % self.engines.len();
        let xs = kernel.inputs(&mut SplitMix::derive(self.seed, "kernel_cold.inputs", id));
        let engine = &self.engines[e];
        let (report, ns) = match tracer {
            None => {
                let t = Instant::now();
                let report = kernel.launch(engine, &xs);
                (report, t.elapsed().as_nanos() as u64)
            }
            Some(tr) => {
                let before = engine.cache_stats();
                let (report, root) =
                    tr.leaf(kernel.span(), id, None, || kernel.launch(engine, &xs));
                let delta = engine.cache_stats().delta_since(&before);
                self.layer.cache.merge(&delta);
                let ns = tr.dur_ns(root);
                self.replay(kernel, e, &xs, tr, id, root);
                (report, ns)
            }
        };
        let canon = canonical_json(&report);
        let checked =
            id == 0 || SplitMix::derive(self.seed, "kernel_cold.check", id).below(CHECK_EVERY) == 0;
        let ok = !checked || {
            let mut reference = canonical_json(&kernel.launch(&self.uncached[e], &xs));
            if self.corrupt && id == 0 {
                reference.push_str(" corrupted");
            }
            canon == reference
        };
        OpResult {
            ns,
            ok,
            digest: digest_str(&canon),
        }
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let l = &self.layer;
        let c = &l.cache;
        let hit = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
        let launches = [
            "core.engine.cold_launch.gemv",
            "core.engine.cold_launch.gemm",
            "core.engine.cold_launch.batch",
        ];
        vec![
            ("core.engine.cold_launch_us.gemv", tr.mean_us(launches[0])),
            ("core.engine.cold_launch_us.gemm", tr.mean_us(launches[1])),
            ("core.engine.cold_launch_us.batch", tr.mean_us(launches[2])),
            (
                "jc.iarm.seqs_per_s",
                ratio(l.seqs as f64, tr.total_s("jc.iarm.sequences_for_stream")),
            ),
            ("jc.iarm.seqs", ratio(l.seqs as f64, l.ops as f64)),
            ("core.shard.plan_us", tr.mean_us("core.shard.plan")),
            ("core.engine.fold_us", tr.mean_self_us(&launches)),
            ("core.cache.plan_hit_ratio", hit(c.plan_hits, c.plan_misses)),
            (
                "core.cache.stream_hit_ratio",
                hit(c.stream_hits, c.stream_misses),
            ),
            (
                "core.cache.report_hit_ratio",
                hit(c.report_hits, c.report_misses),
            ),
        ]
    }
}
