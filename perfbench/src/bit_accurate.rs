//! `bit_accurate`: each op is one Monte Carlo cell of the reliability
//! figures, run at every fault rate in {1e-4, 1e-3, 1e-2}. At each rate
//! a cell has the same three parts, so every op has the same
//! composition:
//!
//! 1. faulty radix-10 `CounterBank` accumulations under TMR and under
//!    ECC (Fig. 4a), each increment's mask also formed by the
//!    ECC-protected AND (Fig. 13) on one 64-bit ECC word;
//! 2. the faulty half of a bit-accurate `TernaryMlp` forward pair
//!    (Fig. 17b; the exact half runs once per cell);
//! 3. a lowered k-ary increment executed repeatedly on a faulty
//!    `CoSim`.
//!
//! Cells sweep their size in a fixed rotation of `SIZES` steps: the
//! increments per accumulation and the co-simulated repeats grow by one
//! step per op, so op costs spread evenly over about a factor of two.
//! On a shared host whose speed moves in steps, a workload whose ops all
//! cost the same has a bimodal latency distribution, and its median
//! jumps from one host state to the other; over evenly spread costs the
//! median moves smoothly with the share of time the host was fast.
//!
//! Why: this is the paper's "reliable" claim, and the only workload
//! that exercises `cim`, `ecc`, the `jc` counters, the bit-accurate
//! kernels and the DRAM command scheduler. It never touches the
//! engine, the cache or serve.

use crate::spans::{maybe_span, Tracer};
use crate::util::{ratio, Fnv, SplitMix};
use crate::{Args, OpResult, Size, Workload};
use c2m_cim::ambit::{AmbitSubarray, MicroOp};
use c2m_cim::{FaultModel, Row};
use c2m_core::cosim::CoSim;
use c2m_core::kernels::{ternary_gemv, KernelConfig};
use c2m_core::matrix::TernaryMatrix;
use c2m_dram::{ChannelScheduler, CommandKind, DramCommand, TimingParams};
use c2m_ecc::protect::{EccProtection, ProtectStats, ProtectionKind};
use c2m_jc::ambit_lower::{lower_step, CounterLayout};
use c2m_jc::bank::CounterBank;
use c2m_jc::{JohnsonCode, TransitionPattern};
use c2m_workloads::bertproxy::TernaryMlp;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::time::Instant;

const RATES: [f64; 3] = [1e-4, 1e-3, 1e-2];
/// Radix-10 counters of five digits (Fig. 4a's set-up); a radix-10
/// digit is a 5-bit Johnson code.
const RADIX: usize = 10;
const DIGITS: usize = 5;
const JC_BITS: usize = 5;
/// FR checks of the ECC-protected AND.
const FR_CHECKS: u32 = 2;
/// Lanes of one SECDED(72,64) word: the ECC-protected AND runs on one
/// word per increment, so its retries stay a bounded share of a cell at
/// every fault rate instead of dominating the cells at 1e-2.
const ECC_WORD: usize = 64;
/// Banks of the co-simulated channel; the counter lives on bank 0.
const BANKS: usize = 16;
/// Input width of the ternary MLP proxy's first layer (64 -> 48).
const MLP_IN: usize = 64;
const MLP_H1: usize = 48;
/// Cell sizes in the rotation: op `id` has size step `id % SIZES`.
const SIZES: usize = 10;

struct Shape {
    lanes: usize,
    /// Increments per accumulation at size step 0, and per step.
    adds: usize,
    adds_step: usize,
    cosim_width: usize,
    /// Co-simulated repeats at size step 0, and per step.
    repeats: usize,
    repeats_step: usize,
}

impl Shape {
    /// Increments per accumulation and co-simulated repeats of op `id`.
    fn size(&self, id: u64) -> (usize, usize) {
        let k = (id % SIZES as u64) as usize;
        (
            self.adds + k * self.adds_step,
            self.repeats + k * self.repeats_step,
        )
    }
}

/// One cell's inputs, drawn before the timer starts.
struct Cell {
    values: Vec<u128>,
    active: Row,
    selects: Vec<Row>,
    /// `active` and each select row cut to one ECC word.
    word_active: Row,
    word_selects: Vec<Row>,
    x: Vec<i64>,
    k: usize,
    /// The co-simulated subarray's mask row and counter bit rows, and
    /// how many times the lowered increment runs on it.
    mask: Row,
    bit_rows: Vec<Row>,
    repeats: usize,
    /// Fault seeds per rate: protected AND, TMR bank, ECC bank, MLP,
    /// co-simulator.
    seeds: [[u64; 5]; 3],
}

#[derive(Default)]
struct LayerTally {
    ops: usize,
    increments: u64,
    ambit_ops: u64,
    protect: ProtectStats,
    cmds: u64,
}

pub struct BitAccurate {
    seed: u64,
    shape: Shape,
    mlp: TernaryMlp,
    /// A matrix of the MLP's first-layer shape, for the replayed
    /// bit-accurate GEMV and the fault-free kernel control.
    probe: TernaryMatrix,
    corrupt: bool,
    layer: LayerTally,
}

/// The MLP proxy's kernel configuration at fault rate `rate` (0 for the
/// exact half of the pair); faults hit unprotected, as in fig17b's JC
/// series.
fn kernel_config(rate: f64, seed: u64) -> KernelConfig {
    KernelConfig {
        radix: RADIX,
        fault_rate: rate,
        seed,
        ..KernelConfig::compact()
    }
}

impl BitAccurate {
    pub fn setup(args: &Args) -> Self {
        let shape = match args.size {
            Size::Full => Shape {
                lanes: 512,
                adds: 8,
                adds_step: 8,
                cosim_width: 256,
                repeats: 8,
                repeats_step: 6,
            },
            Size::Tiny => Shape {
                lanes: 64,
                adds: 2,
                adds_step: 1,
                cosim_width: 32,
                repeats: 1,
                repeats_step: 1,
            },
        };
        // The model is fixed, as in fig17 (`TernaryMlp::new(7)`): the
        // seed draws inputs and faults, not the amount of work per op.
        let mlp = TernaryMlp::new(7);
        let probe = TernaryMatrix::random(MLP_IN, MLP_H1, 0.6, &mut ChaCha12Rng::seed_from_u64(7));
        Self {
            seed: args.seed,
            shape,
            mlp,
            probe,
            corrupt: args.corrupt,
            layer: LayerTally::default(),
        }
    }

    fn cell(&self, id: u64) -> Cell {
        let s = &self.shape;
        let (adds, repeats) = s.size(id);
        let mut g = SplitMix::derive(self.seed, "bit_accurate.cell", id);
        let row =
            |g: &mut SplitMix, width: usize, p: f64| Row::from_bits((0..width).map(|_| g.bit(p)));
        let code = JohnsonCode::new(JC_BITS);
        let states: Vec<usize> = (0..s.cosim_width).map(|_| g.below(2 * JC_BITS)).collect();
        let active = row(&mut g, s.lanes, 0.9);
        let selects: Vec<Row> = (0..adds).map(|_| row(&mut g, s.lanes, 0.5)).collect();
        let word = |r: &Row| Row::from_bits(r.iter_bits().take(ECC_WORD));
        Cell {
            values: (0..adds).map(|_| 1 + g.below(16) as u128).collect(),
            word_active: word(&active),
            word_selects: selects.iter().map(word).collect(),
            active,
            selects,
            x: g.int8_stream(MLP_IN),
            k: 1 + g.below(2 * JC_BITS - 1),
            mask: row(&mut g, s.cosim_width, 0.5),
            bit_rows: (0..JC_BITS)
                .map(|i| Row::from_bits(states.iter().map(|&st| code.bit(st, i))))
                .collect(),
            repeats,
            seeds: std::array::from_fn(|_| std::array::from_fn(|_| g.next_u64())),
        }
    }

    /// The fault-free control: the same accumulation on exact masks
    /// must equal naive integer sums, and the exact bit-accurate GEMV
    /// must equal the host reference.
    fn control_ok(&self, c: &Cell, id: u64) -> bool {
        let s = &self.shape;
        let mut bank = CounterBank::new(RADIX, DIGITS, s.lanes);
        let masks: Vec<Row> = c.selects.iter().map(|sel| c.active.and(sel)).collect();
        for (v, m) in c.values.iter().zip(&masks) {
            bank.accumulate_ripple(*v, m);
        }
        let counters_ok = (0..s.lanes).all(|l| {
            let mut naive: u128 = c
                .values
                .iter()
                .zip(&masks)
                .filter(|(_, m)| m.get(l))
                .map(|(v, _)| *v)
                .sum();
            if self.corrupt && id == 0 && l == 0 {
                naive += 1;
            }
            bank.get(l) == Some(naive)
        });
        let y = ternary_gemv(&kernel_config(0.0, 0), &c.x, &self.probe).y;
        let reference = self.probe.reference_gemv(&c.x);
        counters_ok && y.iter().zip(&reference).all(|(a, b)| *a == i128::from(*b))
    }

    /// The co-simulator's subarray as the cell seeds it.
    fn seed_rows(sub: &mut AmbitSubarray, layout: &CounterLayout, c: &Cell) {
        sub.write_data(layout.mask_row, &c.mask);
        for (r, bits) in layout.bit_rows.iter().zip(&c.bit_rows) {
            sub.write_data(*r, bits);
        }
    }
}

impl Workload for BitAccurate {
    fn cycle(&self) -> usize {
        SIZES
    }

    fn op(&mut self, id: u64, mut tracer: Option<&mut Tracer>) -> OpResult {
        let c = self.cell(id);
        let s = &self.shape;
        let layout = CounterLayout::dense(JC_BITS, 0);
        let pattern = TransitionPattern::increment(JC_BITS, c.k);
        let masks: Vec<Row> = c.selects.iter().map(|sel| c.active.and(sel)).collect();
        let tr = &mut tracer;
        let mut h = Fnv::new();
        let mut counts_ok = true;

        let t = Instant::now();
        let root = tr.as_mut().map(|t| t.begin("bit_accurate.cell", id, None));
        let exact = maybe_span(tr, "workloads.bertproxy.forward", id, root, || {
            self.mlp.forward(&kernel_config(0.0, 0), &c.x)
        });
        let prog = maybe_span(tr, "jc.ambit_lower.lower_step", id, root, || {
            lower_step(&layout, &pattern)
        });
        let mut banks = Vec::with_capacity(2 * RATES.len());
        let mut pstats = ProtectStats::default();
        let mut reports = Vec::with_capacity(RATES.len());
        for (&rate, seeds) in RATES.iter().zip(&c.seeds) {
            // 1. Protected accumulation under TMR and under ECC.
            let mut prot = EccProtection::new(FR_CHECKS, FaultModel::new(rate, seeds[0]));
            let mut pair = [
                CounterBank::with_faults(
                    RADIX,
                    DIGITS,
                    s.lanes,
                    FaultModel::new(rate, seeds[1]),
                    ProtectionKind::Tmr,
                ),
                CounterBank::with_faults(
                    RADIX,
                    DIGITS,
                    s.lanes,
                    FaultModel::new(rate, seeds[2]),
                    ProtectionKind::ecc_default(),
                ),
            ];
            for ((v, mask), word_sel) in c.values.iter().zip(&masks).zip(&c.word_selects) {
                let (word_mask, st) = maybe_span(tr, "ecc.protect.protected_and", id, root, || {
                    prot.protected_and(&c.word_active, word_sel)
                });
                pstats.merge(&st);
                h.u64(word_mask.count_ones() as u64);
                for bank in &mut pair {
                    maybe_span(tr, "jc.bank.accumulate_ripple", id, root, || {
                        bank.accumulate_ripple(*v, mask)
                    });
                }
            }
            for bank in &pair {
                for l in 0..s.lanes {
                    h.bytes(&bank.get_nearest(l).to_le_bytes());
                }
            }
            banks.extend(pair);
            // 2. The faulty half of the MLP forward pair.
            let label = maybe_span(tr, "workloads.bertproxy.forward", id, root, || {
                self.mlp.forward(&kernel_config(rate, seeds[3]), &c.x)
            });
            h.u64(label as u64);
            // 3. The lowered increment on the faulty co-simulator.
            let mut sim = CoSim::with_faults(
                s.cosim_width,
                CounterLayout::rows_needed(JC_BITS),
                BANKS,
                0,
                FaultModel::new(rate, seeds[4]),
            );
            Self::seed_rows(sim.subarray_mut(), &layout, &c);
            for _ in 0..c.repeats {
                maybe_span(tr, "core.cosim.execute", id, root, || sim.execute(&prog));
            }
            reports.push((
                sim.report((s.cosim_width * c.repeats) as u64),
                sim.subarray().faults_injected(),
            ));
        }
        let ns = match (tr.as_mut(), root) {
            (Some(t), Some(root)) => {
                t.end(root);
                t.dur_ns(root)
            }
            _ => t.elapsed().as_nanos() as u64,
        };

        if let (Some(t), Some(root)) = (tr.as_mut(), root) {
            // Replays of layer calls made inside the simulator, at each
            // rate: one faulty bit-accurate GEMV of the MLP's
            // first-layer shape, and the co-simulated program split into
            // its subarray execution and its command scheduling.
            let cmds: Vec<DramCommand> = prog
                .ops()
                .iter()
                .map(|op| match op {
                    MicroOp::Aap(..) => DramCommand::new(0, CommandKind::Aap),
                    MicroOp::Ap(..) => DramCommand::new(0, CommandKind::Ap),
                })
                .collect();
            for (&rate, seeds) in RATES.iter().zip(&c.seeds) {
                t.leaf("core.kernels.ternary_gemv", id, Some(root), || {
                    black_box(ternary_gemv(
                        &kernel_config(rate, seeds[3]),
                        &c.x,
                        &self.probe,
                    ));
                });
                let mut sub = AmbitSubarray::with_faults(
                    s.cosim_width,
                    CounterLayout::rows_needed(JC_BITS),
                    FaultModel::new(rate, seeds[4]),
                );
                Self::seed_rows(&mut sub, &layout, &c);
                t.leaf("cim.ambit.execute", id, Some(root), || {
                    for _ in 0..c.repeats {
                        sub.execute(&prog);
                    }
                });
                let mut sched = ChannelScheduler::new(TimingParams::ddr5_4400(), BANKS);
                t.leaf("dram.scheduler.issue", id, Some(root), || {
                    for _ in 0..c.repeats {
                        for cmd in &cmds {
                            sched.issue(*cmd);
                        }
                    }
                });
            }
            let l = &mut self.layer;
            l.ops += 1;
            for b in &banks {
                l.increments += b.stats().increments;
                l.ambit_ops += b.stats().ambit_ops;
            }
            l.protect.merge(&pstats);
            l.cmds += (RATES.len() * prog.len() * c.repeats) as u64;
        }

        for (report, faults) in &reports {
            counts_ok &= report.stats.total() == (prog.len() * c.repeats) as u64;
            for v in [
                report.elapsed_ns.to_bits(),
                report.energy_nj.to_bits(),
                report.stats.total(),
                *faults,
            ] {
                h.u64(v);
            }
        }
        for b in &banks {
            let st = b.stats();
            for v in [st.increments, st.ambit_ops, st.resolves] {
                h.u64(v);
            }
        }
        for v in [pstats.ops, pstats.retries, pstats.checks, exact as u64] {
            h.u64(v);
        }
        OpResult {
            ns,
            ok: counts_ok && self.control_ok(&c, id),
            digest: h.finish(),
        }
    }

    fn layer_metrics(&self, tr: &Tracer) -> Vec<(&'static str, f64)> {
        let l = &self.layer;
        vec![
            (
                "jc.bank.increments_per_s",
                ratio(l.increments as f64, tr.total_s("jc.bank.accumulate_ripple")),
            ),
            ("jc.bank.ambit_ops", ratio(l.ambit_ops as f64, l.ops as f64)),
            (
                "ecc.protect.retry_ratio",
                ratio(l.protect.retries as f64, l.protect.ops as f64),
            ),
            (
                "core.kernels.gemv_us",
                tr.mean_us("core.kernels.ternary_gemv"),
            ),
            (
                "jc.ambit_lower.lower_us",
                tr.mean_us("jc.ambit_lower.lower_step"),
            ),
            (
                "cim.ambit.cmds_per_s",
                ratio(l.cmds as f64, tr.total_s("cim.ambit.execute")),
            ),
            (
                "dram.scheduler.cmds_per_s",
                ratio(l.cmds as f64, tr.total_s("dram.scheduler.issue")),
            ),
        ]
    }
}
