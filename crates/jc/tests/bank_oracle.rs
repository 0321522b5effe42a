//! Oracle tests for the bit-accurate substrate: the in-place
//! `CounterBank` and `AmbitSubarray` against the allocating
//! implementations they replaced, kept here as references.
//!
//! The contract is bit for bit, faults included: every computed row must
//! receive the same sequence of `FaultModel::perturb` calls, in the same
//! order, so both sides draw the same fault stream. The properties
//! compare every bit row, `O_next` row, `BankStats`, fault count and
//! nearest-decoded lane (banks), and every data row, compute row, command
//! count and fault count (subarrays).

use c2m_cim::ambit::{AmbitAddr, AmbitSubarray, MicroOp, MicroProgram};
use c2m_cim::{FaultModel, Row};
use c2m_dram::{CommandKind, CommandStats};
use c2m_ecc::protect::{ProtectionAnalysis, ProtectionKind};
use c2m_ecc::TmrVoter;
use c2m_jc::ambit_lower::{lower_step, CounterLayout};
use c2m_jc::bank::{BankStats, CounterBank};
use c2m_jc::kary::FlagRule;
use c2m_jc::{JohnsonCode, TransitionPattern};
use proptest::prelude::*;

const WIDTHS: [usize; 7] = [1, 5, 63, 64, 65, 200, 512];
const RADICES: [usize; 5] = [2, 4, 6, 10, 18];
const RATES: [f64; 5] = [0.0, 1e-12, 1e-4, 1e-2, 0.3];

/// SplitMix64: reproducible rows and operation streams from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn row(&mut self, width: usize) -> Row {
        Row::from_bits((0..width).map(|_| self.next() & 1 == 1))
    }
}

fn protection(i: usize) -> ProtectionKind {
    [
        ProtectionKind::None,
        ProtectionKind::Tmr,
        ProtectionKind::ecc_default(),
    ][i]
}

/// The allocating `CounterBank` this crate used to ship: every step
/// clones the digit's rows and allocates each intermediate row.
struct ReferenceBank {
    code: JohnsonCode,
    digits: usize,
    width: usize,
    bits: Vec<Vec<Row>>,
    onext: Vec<Row>,
    protection: ProtectionKind,
    faults: FaultModel,
    effective_rate: f64,
    stats: BankStats,
}

impl ReferenceBank {
    fn with_faults(
        radix: usize,
        digits: usize,
        width: usize,
        faults: FaultModel,
        protection: ProtectionKind,
    ) -> Self {
        let code = JohnsonCode::for_radix(radix);
        let n = code.bits();
        let raw = faults.rate();
        let effective_rate = match protection {
            ProtectionKind::None => raw,
            ProtectionKind::Tmr => TmrVoter::effective_per_op_rate(raw),
            ProtectionKind::Ecc { fr_checks, .. } => ProtectionAnalysis {
                fault_rate: raw,
                fr_checks,
            }
            .undetected_error_rate()
            .min(1.0),
        };
        Self {
            code,
            digits,
            width,
            bits: vec![vec![Row::zeros(width); n]; digits],
            onext: vec![Row::zeros(width); digits],
            protection,
            faults: FaultModel::new(effective_rate.min(1.0), 0xC0DE ^ width as u64),
            effective_rate,
            stats: BankStats::default(),
        }
    }

    fn get_nearest(&self, col: usize) -> u128 {
        let radix = self.code.radix() as u128;
        let mut total = 0u128;
        let mut scale = 1u128;
        for d in 0..self.digits {
            let mut bits = 0u64;
            for i in 0..self.code.bits() {
                if self.bits[d][i].get(col) {
                    bits |= 1 << i;
                }
            }
            let v = self.code.decode_nearest(bits);
            let pending = u128::from(self.onext[d].get(col));
            total += scale * (v as u128 + radix * pending);
            scale *= radix;
        }
        total % scale
    }

    fn step_digit(&mut self, d: usize, pattern: &TransitionPattern, mask: &Row) {
        let n = self.code.bits();
        let old: Vec<Row> = self.bits[d].clone();
        let not_mask = mask.not();
        let old_msb = old[n - 1].clone();
        for (i, srcspec) in pattern.sources().iter().enumerate() {
            let src = if srcspec.invert {
                old[srcspec.src].not()
            } else {
                old[srcspec.src].clone()
            };
            let keep = self.faulty(old[i].and(&not_mask));
            let take = self.faulty(src.and(mask));
            let merged = self.faulty(keep.or(&take));
            self.bits[d][i] = merged;
        }
        let new_msb = &self.bits[d][n - 1];
        let fired = match pattern.flag_rule() {
            FlagRule::IncSmall => old_msb.and(&new_msb.not()),
            FlagRule::IncLarge => old_msb.or(&new_msb.not()).and(mask),
            FlagRule::DecSmall => old_msb.not().and(new_msb),
            FlagRule::DecLarge => old_msb.not().or(new_msb).and(mask),
        };
        let fired = self.faulty(fired);
        self.onext[d] = self.faulty(self.onext[d].or(&fired));
        self.stats.increments += 1;
        self.stats.ambit_ops += self.protection.ambit_increment_ops(self.code.bits());
    }

    fn increment_digit(&mut self, d: usize, k: usize, mask: &Row) {
        let p = TransitionPattern::increment(self.code.bits(), k);
        self.step_digit(d, &p, mask);
    }

    fn decrement_digit(&mut self, d: usize, k: usize, mask: &Row) {
        let p = TransitionPattern::decrement(self.code.bits(), k);
        self.step_digit(d, &p, mask);
    }

    fn resolve_carry(&mut self, d: usize) {
        let mask = self.onext[d].clone();
        self.onext[d] = Row::zeros(self.width);
        if d + 1 < self.digits {
            self.increment_digit(d + 1, 1, &mask);
        }
        self.stats.resolves += 1;
    }

    fn resolve_borrow(&mut self, d: usize) {
        let mask = self.onext[d].clone();
        self.onext[d] = Row::zeros(self.width);
        if d + 1 < self.digits {
            self.decrement_digit(d + 1, 1, &mask);
        }
        self.stats.resolves += 1;
    }

    fn has_pending(&self, d: usize) -> bool {
        self.onext[d].count_ones() > 0
    }

    fn accumulate_ripple(&mut self, value: u128, mask: &Row) {
        let radix = self.code.radix() as u128;
        let mut v = value;
        for d in 0..self.digits {
            let k = (v % radix) as usize;
            v /= radix;
            if k == 0 {
                continue;
            }
            self.increment_digit(d, k, mask);
            for dd in d..self.digits {
                if !self.has_pending(dd) {
                    break;
                }
                self.resolve_carry(dd);
            }
        }
    }

    fn subtract_ripple(&mut self, value: u128, mask: &Row) {
        let radix = self.code.radix() as u128;
        let mut v = value;
        for d in 0..self.digits {
            let k = (v % radix) as usize;
            v /= radix;
            if k == 0 {
                continue;
            }
            self.decrement_digit(d, k, mask);
            for dd in d..self.digits {
                if !self.has_pending(dd) {
                    break;
                }
                self.resolve_borrow(dd);
            }
        }
    }

    fn faulty(&mut self, mut r: Row) -> Row {
        if self.effective_rate > 0.0 {
            self.faults.perturb(&mut r);
        }
        r
    }
}

/// Asserts that `bank` and `reference` hold identical state.
fn assert_same_bank(bank: &CounterBank, reference: &ReferenceBank) {
    let n = reference.code.bits();
    for d in 0..reference.digits {
        for i in 0..n {
            assert_eq!(bank.bit_row(d, i), &reference.bits[d][i], "bit row {d}.{i}");
        }
        assert_eq!(bank.onext(d), &reference.onext[d], "onext row {d}");
        assert_eq!(bank.has_pending(d), reference.has_pending(d), "pending {d}");
    }
    assert_eq!(bank.stats(), &reference.stats, "stats");
    assert_eq!(
        bank.faults_injected(),
        reference.faults.injected(),
        "faults"
    );
    for col in 0..reference.width {
        assert_eq!(
            bank.get_nearest(col),
            reference.get_nearest(col),
            "get_nearest({col})"
        );
    }
}

/// Drives `bank` and `reference` through the same random operation
/// stream and compares them after every operation.
fn run_bank_stream(
    width: usize,
    radix: usize,
    digits: usize,
    prot: ProtectionKind,
    rate: f64,
    ops: usize,
    seed: u64,
) {
    let mut g = Mix(seed);
    let raw = || FaultModel::new(rate, seed);
    let mut bank = CounterBank::with_faults(radix, digits, width, raw(), prot);
    let mut reference = ReferenceBank::with_faults(radix, digits, width, raw(), prot);
    let n = radix / 2;
    for _ in 0..ops {
        let mask = g.row(width);
        let d = g.below(digits);
        let k = 1 + g.below(radix - 1);
        match g.below(7) {
            0 => {
                bank.increment_digit(d, k, &mask);
                reference.increment_digit(d, k, &mask);
            }
            1 => {
                bank.decrement_digit(d, k, &mask);
                reference.decrement_digit(d, k, &mask);
            }
            2 => {
                let p = if g.below(2) == 0 {
                    TransitionPattern::increment(n, k)
                } else {
                    TransitionPattern::decrement(n, k)
                };
                bank.step_digit(d, &p, &mask);
                reference.step_digit(d, &p, &mask);
            }
            3 => {
                bank.resolve_carry(d);
                reference.resolve_carry(d);
            }
            4 => {
                bank.resolve_borrow(d);
                reference.resolve_borrow(d);
            }
            5 => {
                let v = u128::from(g.next()) % bank.capacity();
                bank.accumulate_ripple(v, &mask);
                reference.accumulate_ripple(v, &mask);
            }
            _ => {
                let v = u128::from(g.next()) % bank.capacity();
                bank.subtract_ripple(v, &mask);
                reference.subtract_ripple(v, &mask);
            }
        }
        assert_same_bank(&bank, &reference);
    }
}

#[test]
fn bank_matches_reference_on_every_geometry_protection_and_rate() {
    for (wi, &width) in WIDTHS.iter().enumerate() {
        for (ri, &radix) in RADICES.iter().enumerate() {
            for prot in 0..3 {
                for (fi, &rate) in RATES.iter().enumerate() {
                    let seed = (wi * 1000 + ri * 100 + prot * 10 + fi) as u64;
                    run_bank_stream(width, radix, 3, protection(prot), rate, 6, seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bank_matches_reference(
        w in 0usize..7,
        r in 0usize..5,
        prot in 0usize..3,
        f in 0usize..5,
        ops in 1usize..16,
        seed in any::<u64>(),
    ) {
        let digits = 1 + (seed % 4) as usize;
        run_bank_stream(WIDTHS[w], RADICES[r], digits, protection(prot), RATES[f], ops, seed);
    }
}

/// The allocating `AmbitSubarray` this crate used to ship: every
/// activation clones the rows it senses.
struct ReferenceSubarray {
    width: usize,
    data: Vec<Row>,
    t: [Row; 4],
    dcc: [Row; 2],
    fault: FaultModel,
    stats: CommandStats,
}

impl ReferenceSubarray {
    fn with_faults(width: usize, data_rows: usize, fault: FaultModel) -> Self {
        Self {
            width,
            data: vec![Row::zeros(width); data_rows],
            t: std::array::from_fn(|_| Row::zeros(width)),
            dcc: std::array::from_fn(|_| Row::zeros(width)),
            fault,
            stats: CommandStats::default(),
        }
    }

    fn execute_op(&mut self, op: MicroOp) {
        match op {
            MicroOp::Aap(src, dst) => {
                let v = self.activate_read(src);
                self.write_addr(dst, &v);
                self.stats.record(CommandKind::Aap);
            }
            MicroOp::Ap(addr) => {
                let _ = self.activate_read(addr);
                self.stats.record(CommandKind::Ap);
            }
        }
    }

    fn activate_read(&mut self, addr: AmbitAddr) -> Row {
        match addr {
            AmbitAddr::Data(i) => self.data[i].clone(),
            AmbitAddr::T(i) => self.t[usize::from(i)].clone(),
            AmbitAddr::Dcc(i) => self.dcc[usize::from(i)].clone(),
            AmbitAddr::DccNeg(i) => self.dcc[usize::from(i)].not(),
            AmbitAddr::C0 => Row::zeros(self.width),
            AmbitAddr::C1 => Row::ones(self.width),
            AmbitAddr::PairT0Dcc0 => self.t[0].clone(),
            AmbitAddr::PairT1Dcc1 => self.t[1].clone(),
            AmbitAddr::PairT2T3 => self.t[2].clone(),
            triple => {
                let (a, b, c) = self.triple_rows(triple);
                let mut m = Row::maj3(&a, &b, &c);
                self.fault.perturb(&mut m);
                self.write_triple(triple, &m);
                m
            }
        }
    }

    fn triple_rows(&self, addr: AmbitAddr) -> (Row, Row, Row) {
        match addr {
            AmbitAddr::TripleT0T1Dcc0 => {
                (self.t[0].clone(), self.t[1].clone(), self.dcc[0].clone())
            }
            AmbitAddr::TripleT0T1T2 => (self.t[0].clone(), self.t[1].clone(), self.t[2].clone()),
            AmbitAddr::TripleT1T2T3 => (self.t[1].clone(), self.t[2].clone(), self.t[3].clone()),
            AmbitAddr::TripleT1T2Dcc0 => {
                (self.t[1].clone(), self.t[2].clone(), self.dcc[0].clone())
            }
            AmbitAddr::TripleT0T3Dcc1 => {
                (self.t[0].clone(), self.t[3].clone(), self.dcc[1].clone())
            }
            _ => unreachable!("not a triple address"),
        }
    }

    fn write_triple(&mut self, addr: AmbitAddr, v: &Row) {
        match addr {
            AmbitAddr::TripleT0T1Dcc0 => {
                self.t[0] = v.clone();
                self.t[1] = v.clone();
                self.dcc[0] = v.clone();
            }
            AmbitAddr::TripleT0T1T2 => {
                self.t[0] = v.clone();
                self.t[1] = v.clone();
                self.t[2] = v.clone();
            }
            AmbitAddr::TripleT1T2T3 => {
                self.t[1] = v.clone();
                self.t[2] = v.clone();
                self.t[3] = v.clone();
            }
            AmbitAddr::TripleT1T2Dcc0 => {
                self.t[1] = v.clone();
                self.t[2] = v.clone();
                self.dcc[0] = v.clone();
            }
            AmbitAddr::TripleT0T3Dcc1 => {
                self.t[0] = v.clone();
                self.t[3] = v.clone();
                self.dcc[1] = v.clone();
            }
            _ => unreachable!("not a triple address"),
        }
    }

    fn write_addr(&mut self, addr: AmbitAddr, v: &Row) {
        match addr {
            AmbitAddr::Data(i) => self.data[i] = v.clone(),
            AmbitAddr::T(i) => self.t[usize::from(i)] = v.clone(),
            AmbitAddr::Dcc(i) => self.dcc[usize::from(i)] = v.clone(),
            AmbitAddr::DccNeg(i) => self.dcc[usize::from(i)] = v.not(),
            AmbitAddr::C0 | AmbitAddr::C1 => panic!("C-group control rows are read-only"),
            AmbitAddr::PairT0Dcc0 => {
                self.t[0] = v.clone();
                self.dcc[0] = v.not();
            }
            AmbitAddr::PairT1Dcc1 => {
                self.t[1] = v.clone();
                self.dcc[1] = v.not();
            }
            AmbitAddr::PairT2T3 => {
                self.t[2] = v.clone();
                self.t[3] = v.clone();
            }
            triple => self.write_triple(triple, v),
        }
    }
}

const TRIPLES: [AmbitAddr; 5] = [
    AmbitAddr::TripleT0T1Dcc0,
    AmbitAddr::TripleT0T1T2,
    AmbitAddr::TripleT1T2T3,
    AmbitAddr::TripleT1T2Dcc0,
    AmbitAddr::TripleT0T3Dcc1,
];

/// A random address; `writable` excludes the read-only C-group rows.
fn addr(g: &mut Mix, data_rows: usize, writable: bool) -> AmbitAddr {
    let pick = g.below(if writable { 9 } else { 11 });
    match pick {
        0 => AmbitAddr::Data(g.below(data_rows)),
        1 => AmbitAddr::T(g.below(4) as u8),
        2 => AmbitAddr::Dcc(g.below(2) as u8),
        3 => AmbitAddr::DccNeg(g.below(2) as u8),
        4 => AmbitAddr::PairT0Dcc0,
        5 => AmbitAddr::PairT1Dcc1,
        6 => AmbitAddr::PairT2T3,
        7 | 8 => TRIPLES[g.below(5)],
        9 => AmbitAddr::C0,
        _ => AmbitAddr::C1,
    }
}

/// Runs `prog` on both subarrays, then copies every compute row out to a
/// data row, and asserts identical rows, command counts and faults.
fn assert_same_execution(
    width: usize,
    data_rows: usize,
    rate: f64,
    seed: u64,
    init: &[Row],
    prog: &MicroProgram,
) {
    let mut sub = AmbitSubarray::with_faults(width, data_rows, FaultModel::new(rate, seed));
    let mut reference =
        ReferenceSubarray::with_faults(width, data_rows, FaultModel::new(rate, seed));
    for (r, row) in init.iter().enumerate() {
        sub.write_data(r, row);
        reference.data[r] = row.clone();
    }
    let mut full = prog.clone();
    for src in [
        AmbitAddr::T(0),
        AmbitAddr::T(1),
        AmbitAddr::T(2),
        AmbitAddr::T(3),
        AmbitAddr::Dcc(0),
        AmbitAddr::Dcc(1),
    ] {
        full.aap(src, AmbitAddr::Data(0));
        full.aap(AmbitAddr::Data(0), AmbitAddr::Data(data_rows - 1));
    }
    for &op in full.ops() {
        sub.execute_op(op);
        reference.execute_op(op);
        for r in 0..data_rows {
            assert_eq!(
                sub.read_data(r),
                &reference.data[r],
                "data row {r} after {op:?}"
            );
        }
    }
    assert_eq!(sub.stats(), &reference.stats, "command stats");
    assert_eq!(sub.faults_injected(), reference.fault.injected(), "faults");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ambit_matches_reference_on_random_programs(
        w in 0usize..7,
        f in 0usize..5,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        let (width, data_rows) = (WIDTHS[w], 6);
        let mut g = Mix(seed);
        let init: Vec<Row> = (0..data_rows).map(|_| g.row(width)).collect();
        let mut prog = MicroProgram::new();
        for _ in 0..len {
            if g.below(4) == 0 {
                prog.ap(TRIPLES[g.below(5)]);
            } else {
                let src = addr(&mut g, data_rows, false);
                let dst = addr(&mut g, data_rows, true);
                prog.aap(src, dst);
            }
        }
        assert_same_execution(width, data_rows, RATES[f], seed, &init, &prog);
    }

    #[test]
    fn ambit_matches_reference_on_lowered_kary_programs(
        w in 0usize..7,
        r in 0usize..5,
        f in 0usize..5,
        repeats in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (width, radix) = (WIDTHS[w], RADICES[r]);
        let n = radix / 2;
        let mut g = Mix(seed);
        let k = 1 + g.below(radix - 1);
        let pattern = if g.below(2) == 0 {
            TransitionPattern::increment(n, k)
        } else {
            TransitionPattern::decrement(n, k)
        };
        let layout = CounterLayout::dense(n, 0);
        let data_rows = CounterLayout::rows_needed(n);
        let init: Vec<Row> = (0..data_rows).map(|_| g.row(width)).collect();
        let step = lower_step(&layout, &pattern);
        let mut prog = MicroProgram::new();
        for _ in 0..repeats {
            prog.extend(&step);
        }
        assert_same_execution(width, data_rows, RATES[f], seed, &init, &prog);
    }
}
