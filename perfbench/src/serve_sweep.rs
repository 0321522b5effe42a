//! `serve_sweep`: each op is one `ServeRuntime::run` of one fig_serve
//! sweep point, the points cycling in a fixed order over two seeded
//! open-loop traces, every engine sharing one `PlanCache` warmed in
//! set-up.
//!
//! Why: this is the sweep users run most. At steady state every launch
//! is a cache hit, so the op's time falls on the serve event loop, the
//! live FR-FCFS fetch pricing and the hit path of the cache tiers;
//! IARM planning and the pricing fold do almost none of it.

use crate::spans::Tracer;
use crate::util::{canonical_json, digest_str, ratio, SplitMix};
use crate::{Args, OpResult, Size, Workload};
use c2m_cim::Backend;
use c2m_core::cache::PlanCache;
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_core::shard::BackendPolicy;
use c2m_dram::{BatchWindow, CacheCounters, DramConfig, MemoryRequest, RequestQueue};
use c2m_serve::{SchedPolicy, ServeConfig, ServeReport, ServeRequest, ServeRuntime, ServiceClass};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One tenant of a trace: output width N, inner dimension K, SLO class.
type Tenant = (usize, usize, ServiceClass);

struct Point {
    trace: usize,
    engine: C2mEngine,
    cfg: ServeConfig,
}

/// Point shape: trace, channels, backend policy, weighted sizing, config.
type Spec = (usize, usize, BackendPolicy, bool, ServeConfig);

#[derive(Default)]
struct LayerTally {
    ops: usize,
    batches: usize,
    requests: usize,
    fetch_requests: usize,
    cache: CacheCounters,
}

pub struct ServeSweep {
    traces: [Vec<ServeRequest>; 2],
    points: Vec<Point>,
    /// Each point's report from a fresh uncached engine, cache
    /// counters excluded.
    refs: Vec<String>,
    layer: LayerTally,
}

/// Poisson arrivals at `mean_gap_ns`, a uniform tenant per request and
/// int8-embedding inputs. Request ids index the trace.
fn open_loop(
    rng: &mut SplitMix,
    tenants: &[Tenant],
    requests: usize,
    mean_gap_ns: f64,
) -> Vec<ServeRequest> {
    let mut t = 0.0;
    (0..requests)
        .map(|i| {
            t += -mean_gap_ns * (1.0 - rng.unit()).ln();
            let tenant = rng.below(tenants.len());
            let (n, k, class) = tenants[tenant];
            ServeRequest {
                id: i as u64,
                arrival_ns: t,
                tenant,
                class,
                n,
                x: rng.int8_stream(k),
            }
        })
        .collect()
}

fn engine(
    channels: usize,
    backends: &BackendPolicy,
    weighted: bool,
    cache: Option<&Arc<PlanCache>>,
) -> C2mEngine {
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = channels;
    let mut b = C2mEngine::builder(cfg).backends(backends.clone());
    if weighted {
        b = b.balanced_sizing();
    }
    match cache {
        Some(c) => b.shared_cache(Arc::clone(c)),
        None => b.no_cache(),
    }
    .build()
}

/// The fetch requests the runtime streams for one request: its input
/// vector in 64-element bursts from the tenant's buffer rows.
fn fetch_plan(dram: &DramConfig, r: &ServeRequest) -> Vec<MemoryRequest> {
    let row_bytes = dram.row_bits_per_rank() / 8;
    let bank = r.tenant % dram.banks;
    let base_row = (r.tenant / dram.banks) * 64;
    let bursts = r.k().div_ceil(64).max(1);
    (0..bursts)
        .map(|b| MemoryRequest::read(r.arrival_ns, bank, base_row + (b * 64) / row_bytes))
        .collect()
}

impl ServeSweep {
    pub fn setup(args: &Args) -> Self {
        let mut rng = SplitMix::derive(args.seed, "serve_sweep.traces", 0);
        // (tenant shape, requests) of the one-tenant trace and of the
        // four-tenant SLO overload.
        let (one, one_reqs, four, four_reqs) = match args.size {
            Size::Full => ((4096, 2048), 64, (1024, 512), 96),
            Size::Tiny => ((256, 128), 8, (64, 32), 12),
        };
        let critical = ServiceClass::new(2, 8_000_000.0);
        let bulk = ServiceClass::new(0, 100_000_000.0);
        let traces = [
            open_loop(
                &mut rng,
                &[(one.0, one.1, ServiceClass::BEST_EFFORT)],
                one_reqs,
                20_000.0,
            ),
            open_loop(
                &mut rng,
                &[
                    (four.0, four.1, critical),
                    (four.0, four.1, bulk),
                    (four.0, four.1, bulk),
                    (four.0, four.1, bulk),
                ],
                four_reqs,
                30_000.0,
            ),
        ];

        let ambit = BackendPolicy::Uniform(Backend::Ambit);
        let mixed = BackendPolicy::PerChannel(vec![Backend::Ambit, Backend::Fcdram]);
        let batched = |max_batch: usize| ServeConfig {
            window_ns: if max_batch > 1 { 1e9 } else { 0.0 },
            max_batch,
            ..ServeConfig::default()
        };
        let mut specs: Vec<Spec> = Vec::new();
        for channels in [1, 4] {
            for cap in [1, 2, 4, 8, 16] {
                specs.push((0, channels, ambit.clone(), false, batched(cap)));
            }
        }
        specs.push((0, 4, mixed, true, batched(16)));
        let budget = 2 * engine(1, &ambit, false, None).tenant_mask_rows(four.0, four.1);
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::EarliestDeadlineFirst,
            SchedPolicy::PriorityWeighted,
        ] {
            let cfg = ServeConfig {
                policy,
                max_wait_ns: 10e6,
                residency_rows: Some(budget),
                ..batched(8)
            };
            specs.push((1, 1, ambit.clone(), false, cfg));
        }

        let mut refs: Vec<String> = specs
            .iter()
            .map(|(trace, ch, backends, weighted, cfg)| {
                let runtime =
                    ServeRuntime::new(engine(*ch, backends, *weighted, None), cfg.clone());
                canonical_json(&runtime.run(&traces[*trace]))
            })
            .collect();
        if args.corrupt {
            refs[0].push_str(" corrupted");
        }
        let cache = Arc::new(PlanCache::default());
        let points: Vec<Point> = specs
            .into_iter()
            .map(|(trace, ch, backends, weighted, cfg)| Point {
                trace,
                engine: engine(ch, &backends, weighted, Some(&cache)),
                cfg,
            })
            .collect();
        Self {
            traces,
            points,
            refs,
            layer: LayerTally::default(),
        }
    }
}

/// Replays, after the op, the layer calls `ServeRuntime::run` made
/// internally, batch by batch in its order: the FR-FCFS fetch of the
/// batch's inputs, the stream lookup of each request and the engine
/// launch against the warm cache.
fn replay(
    p: &Point,
    trace: &[ServeRequest],
    rep: &ServeReport,
    tr: &mut Tracer,
    id: u64,
    root: usize,
    layer: &mut LayerTally,
) {
    let mut members: Vec<Vec<&ServeRequest>> = vec![Vec::new(); rep.batches.len()];
    for o in &rep.outcomes {
        members[o.batch].push(&trace[o.id as usize]);
    }
    let ecfg = p.engine.config();
    let mut queue = RequestQueue::new(ecfg.timing, ecfg.dram.banks);
    let window = BatchWindow {
        window_ns: p.cfg.window_ns,
        max_wait_ns: p.cfg.max_wait_ns,
    };
    for batch in &members {
        let fetch: Vec<MemoryRequest> = batch
            .iter()
            .flat_map(|r| fetch_plan(&ecfg.dram, r))
            .collect();
        layer.fetch_requests += fetch.len();
        tr.leaf("dram.request_queue.run_batched", id, Some(root), || {
            black_box(queue.run_batched(&fetch, window));
        });
        for r in batch {
            tr.leaf("core.engine.stream_lookup", id, Some(root), || {
                black_box(p.engine.cached_sequences_for_doubled(&r.x));
            });
        }
        tr.leaf("core.engine.hit_launch", id, Some(root), || {
            if batch.len() == 1 {
                black_box(p.engine.ternary_gemv(&batch[0].x, batch[0].n));
            } else {
                let xs: Vec<&[i64]> = batch.iter().map(|r| r.x.as_slice()).collect();
                black_box(p.engine.ternary_gemv_batch(&xs, batch[0].n));
            }
        });
    }
    layer.ops += 1;
    layer.batches += rep.batches.len();
    layer.requests += rep.outcomes.len();
    layer.cache.merge(&rep.engine_cache);
}

impl Workload for ServeSweep {
    fn cycle(&self) -> usize {
        self.points.len()
    }

    fn op(&mut self, id: u64, tracer: Option<&mut Tracer>) -> OpResult {
        let idx = id as usize % self.points.len();
        let p = &self.points[idx];
        let trace = &self.traces[p.trace];
        // As fig_serve does per point: a runtime over a clone of the
        // point's engine, sharing the warm cache.
        let serve = || ServeRuntime::new(p.engine.clone(), p.cfg.clone()).run(trace);
        let (rep, ns) = match tracer {
            None => {
                let t = Instant::now();
                let rep = serve();
                (rep, t.elapsed().as_nanos() as u64)
            }
            Some(tr) => {
                let (rep, root) = tr.leaf("serve.runtime.run", id, None, serve);
                let ns = tr.dur_ns(root);
                replay(p, trace, &rep, tr, id, root, &mut self.layer);
                (rep, ns)
            }
        };
        let canon = canonical_json(&rep);
        OpResult {
            ns,
            ok: canon == self.refs[idx],
            digest: digest_str(&canon),
        }
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let l = &self.layer;
        let c = &l.cache;
        let hit = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
        vec![
            (
                "serve.runtime.run_ms",
                tr.mean_us("serve.runtime.run") / 1e3,
            ),
            (
                "serve.runtime.self_ms",
                tr.mean_self_us(&["serve.runtime.run"]) / 1e3,
            ),
            (
                "serve.runtime.sim_req_per_s",
                ratio(l.requests as f64, tr.total_s("serve.runtime.run")),
            ),
            (
                "serve.runtime.batches",
                ratio(l.batches as f64, l.ops as f64),
            ),
            (
                "core.engine.hit_launch_us",
                tr.mean_us("core.engine.hit_launch"),
            ),
            (
                "core.engine.stream_lookup_us",
                tr.mean_us("core.engine.stream_lookup"),
            ),
            (
                "dram.request_queue.req_per_s",
                ratio(
                    l.fetch_requests as f64,
                    tr.total_s("dram.request_queue.run_batched"),
                ),
            ),
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
