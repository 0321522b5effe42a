//! The XOR-embedding CIM fault-protection scheme (§6, Figs. 12–13, Tab. 1).
//!
//! Core idea: memory ECCs are homomorphic over XOR, so if every CIM
//! masking operation is embedded into a short sequence that *also*
//! produces the XOR of its operands, the existing row-level ECC hardware
//! can validate the XOR's check bits (predicted by XOR-ing the operands'
//! stored check bits) and thereby detect faults in any intermediate
//! result. On detection the μProgram restarts the affected step.
//!
//! The synthesis (Fig. 12a): to protect `IR2 = a AND b`, additionally
//! compute `IR1 = a OR b` and `FR = IR1 AND NOT IR2`; fault-free, `FR`
//! equals `a XOR b`, whose check bits the controller already knows.
//! Repeating the `FR` computation (`fr_checks`) drives the undetected
//! error rate down exponentially (Tab. 1).
//!
//! Fault physics (§6.1): in MAJ3-based gates, a column whose three
//! activated cells agree ("unanimous") senses with margins at least as
//! good as a normal read and is effectively fault-free (≈10⁻²⁰); only
//! non-unanimous columns are exposed to compute faults. This is what
//! makes *single* faults always land on detectable positions.

use crate::code::LinearCode;
use crate::hamming::Secded;
use c2m_cim::{FaultModel, Row};
use serde::{Deserialize, Serialize};

/// Fault-tolerance configuration for counter execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProtectionKind {
    /// No protection: raw CIM fault exposure.
    None,
    /// Triple modular redundancy (the SOTA baseline the paper compares
    /// against): ≈4× op overhead, residual error ≈ vote exposure.
    Tmr,
    /// The paper's XOR-embedding ECC scheme with `fr_checks` total FR
    /// computations (Tab. 1 uses 2, 4 and 6).
    Ecc {
        /// Total number of FR computations checked per protected gate.
        fr_checks: u32,
        /// §6.3: protect `b_i ∧ m` and `b_i ∧ !m` together via De Morgan,
        /// reducing net overhead by 25 % on inverted-feedback steps.
        fuse_inverted_feedback: bool,
    },
}

impl ProtectionKind {
    /// Default ECC protection (the "repeats = 1" ⇒ 2 FR checks setting of
    /// §7.3.2).
    #[must_use]
    pub fn ecc_default() -> Self {
        ProtectionKind::Ecc {
            fr_checks: 2,
            fuse_inverted_feedback: false,
        }
    }

    /// Ambit AAP/AP command count for one k-ary masked increment with
    /// overflow check on an n-bit digit under this protection (Tab. 1
    /// bottom row): unprotected `7n+7`, ECC with r FR checks
    /// `(5r+3)n + 5r+6`, TMR `4·(7n+7)`.
    #[must_use]
    pub fn ambit_increment_ops(&self, n: usize) -> u64 {
        let n = n as u64;
        match self {
            ProtectionKind::None => 7 * n + 7,
            ProtectionKind::Tmr => 4 * (7 * n + 7),
            ProtectionKind::Ecc {
                fr_checks,
                fuse_inverted_feedback,
            } => {
                let r = u64::from(*fr_checks);
                let base = (5 * r + 3) * n + 5 * r + 6;
                if *fuse_inverted_feedback {
                    // §6.3: inverted feedback is half of the k-ary steps on
                    // average and its two maskings share one XOR check,
                    // cutting the *protection* overhead by 25 %.
                    let unprot = 7 * n + 7;
                    let overhead = base - unprot;
                    unprot + overhead - overhead / 4
                } else {
                    base
                }
            }
        }
    }
}

/// Closed-form error/detect model reproducing Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtectionAnalysis {
    /// Inherent per-bit CIM fault probability of one compute operation.
    pub fault_rate: f64,
    /// Total FR computations per protected gate.
    pub fr_checks: u32,
}

impl ProtectionAnalysis {
    /// DRAM read-path fault rate — the floor under any residual error
    /// (§6.3, conservatively 10⁻²⁰ per the field study the paper cites).
    pub const DRAM_FLOOR: f64 = 1e-20;

    /// Per-bit probability of an *undetectable* error (Tab. 1 "Error
    /// rate"). An undetected error needs a fault in an intermediate result
    /// plus coordinated faults in **all** `r` FR computations, giving
    /// `≈ 1.5 · p^(r+1)`; the DRAM access floor bounds it from below.
    #[must_use]
    pub fn undetected_error_rate(&self) -> f64 {
        let p = self.fault_rate;
        let r = f64::from(self.fr_checks);
        (1.5 * p.powf(r + 1.0)).max(Self::DRAM_FLOOR)
    }

    /// Per-bit probability of a *detected* (recompute-triggering) error
    /// (Tab. 1 "Detect rate"): any fault among the 2 IRs and r FR
    /// computations that is not silent, `≈ 1 − (1−p)^(r+2)`.
    #[must_use]
    pub fn detect_rate(&self) -> f64 {
        let p = self.fault_rate;
        let r = f64::from(self.fr_checks);
        (1.0 - (1.0 - p).powf(r + 2.0)) - self.undetected_error_rate()
    }

    /// Expected recomputations per protected gate per row of `row_bits`
    /// columns (drives the ~19.6 % correction overhead of §7.3.2).
    #[must_use]
    pub fn expected_recomputes_per_row(&self, row_bits: usize) -> f64 {
        // A row is recomputed if any of its bits raises a detection.
        1.0 - (1.0 - self.detect_rate()).powf(row_bits as f64)
    }
}

/// Statistics of one protected operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectStats {
    /// Logic operations executed (including retries).
    pub ops: u64,
    /// Detection-triggered recomputations.
    pub retries: u64,
    /// Parity checks performed.
    pub checks: u64,
}

impl ProtectStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, o: &ProtectStats) {
        self.ops += o.ops;
        self.retries += o.retries;
        self.checks += o.checks;
    }
}

/// SECDED check bits of one 64-bit data word, packed LSB-first: check
/// bit `j` is the parity of the data bits under generator row `j`. The
/// rows are read off the code's checks of the 64 unit words, so for a
/// linear code the packed checks equal [`LinearCode::checks`] exactly.
#[derive(Debug, Clone)]
struct WordChecks {
    rows: Vec<u64>,
}

impl WordChecks {
    fn new(code: &Secded) -> Self {
        assert_eq!(code.data_bits(), 64, "word checks need a 64-bit code");
        let mut rows = vec![0u64; code.check_bits()];
        for i in 0..64 {
            let unit: Vec<bool> = (0..64).map(|b| b == i).collect();
            for (row, c) in rows.iter_mut().zip(code.checks(&unit)) {
                *row |= u64::from(c) << i;
            }
        }
        Self { rows }
    }

    fn checks(&self, word: u64) -> u64 {
        self.rows.iter().enumerate().fold(0, |acc, (j, &g)| {
            acc | u64::from((word & g).count_ones() & 1) << j
        })
    }
}

/// Executes protected masking operations on rows, with Monte-Carlo fault
/// injection and real syndrome checks over per-64-bit-chunk SECDED words.
#[derive(Debug, Clone)]
pub struct EccProtection {
    fr_checks: u32,
    code: WordChecks,
    faults: FaultModel,
    max_retries: u32,
    /// Fault-pattern scratch row, reused across operations.
    flips: Row,
}

impl EccProtection {
    /// Creates a protection executor with the given FR-check count and
    /// per-op fault model.
    ///
    /// # Panics
    ///
    /// Panics if `fr_checks` is zero.
    #[must_use]
    pub fn new(fr_checks: u32, faults: FaultModel) -> Self {
        assert!(fr_checks >= 1, "need at least one FR computation");
        Self {
            fr_checks,
            code: WordChecks::new(&Secded::secded_72_64()),
            faults,
            max_retries: 64,
            flips: Row::zeros(64),
        }
    }

    /// Per-op fault rate in effect.
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        self.faults.rate()
    }

    /// Computes `a AND b` with XOR-embedding protection: returns the
    /// (possibly silently wrong, with Tab. 1 probability) result plus
    /// execution statistics.
    pub fn protected_and(&mut self, a: &Row, b: &Row) -> (Row, ProtectStats) {
        let mut stats = ProtectStats::default();
        let mut ir2 = a.clone();
        let mut ir1 = a.clone();
        let mut not_ir2 = a.clone();
        let mut fr = a.clone();
        for _ in 0..=self.max_retries {
            // IR2 = a & b  (the result we actually want).
            self.faulty_and(&mut ir2, a, b, &mut stats);
            // IR1 = a | b.
            self.faulty_or(&mut ir1, a, b, &mut stats);
            // FR = IR1 & !IR2 (== a ^ b fault-free), recomputed fr_checks
            // times; every copy must pass the syndrome check.
            not_ir2.clone_from(&ir2);
            not_ir2.invert(); // DCC-mediated, access-reliable
            let mut all_pass = true;
            for _ in 0..self.fr_checks {
                self.faulty_and(&mut fr, &ir1, &not_ir2, &mut stats);
                stats.checks += 1;
                if !self.passes(&fr, a, b) {
                    all_pass = false;
                    break;
                }
            }
            if all_pass {
                return (ir2, stats);
            }
            stats.retries += 1;
        }
        // Give up after max_retries (only reachable at extreme rates);
        // return an unprotected result.
        self.faulty_and(&mut ir2, a, b, &mut stats);
        (ir2, stats)
    }

    /// The ECC hardware recomputes the FR word's checks and compares them
    /// with the ones predicted by XOR-ing the operands' stored checks (the
    /// XOR homomorphism — no in-memory XOR needed). The code is linear, so
    /// that comparison is `checks(fr ^ a ^ b) == 0`, word by word.
    fn passes(&self, fr: &Row, a: &Row, b: &Row) -> bool {
        fr.words()
            .iter()
            .zip(a.words())
            .zip(b.words())
            .all(|((&f, &x), &y)| self.code.checks(f ^ x ^ y) == 0)
    }

    /// `out = a AND b` via MAJ3(a, b, 0): only columns where the three
    /// activated rows disagree are fault-exposed (§6.1), i.e. columns
    /// with a|b = 1.
    fn faulty_and(&mut self, out: &mut Row, a: &Row, b: &Row, stats: &mut ProtectStats) {
        stats.ops += 1;
        out.clone_from(a);
        *out &= b;
        self.apply_faults(out, |i| a.get(i) || b.get(i));
    }

    /// `out = a OR b` via MAJ3(a, b, 1): unanimity only when a = b = 1,
    /// so columns with !(a & b) are fault-exposed.
    fn faulty_or(&mut self, out: &mut Row, a: &Row, b: &Row, stats: &mut ProtectStats) {
        stats.ops += 1;
        out.clone_from(a);
        *out |= b;
        self.apply_faults(out, |i| !(a.get(i) && b.get(i)));
    }

    /// Draws one row of faults and flips the drawn columns of `out` that
    /// are `exposed`.
    fn apply_faults(&mut self, out: &mut Row, exposed: impl Fn(usize) -> bool) {
        if self.faults.rate() <= 0.0 {
            return;
        }
        if self.flips.width() == out.width() {
            self.flips.clear();
        } else {
            self.flips = Row::zeros(out.width());
        }
        self.faults.perturb(&mut self.flips);
        for (w, &word) in self.flips.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = 64 * w + bits.trailing_zeros() as usize;
                if exposed(i) {
                    out.flip(i);
                }
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn table1_error_rates_match_paper_shape() {
        // Paper Table 1 "Error rate" row, FR checks = 2.
        let cases = [
            (2u32, 1e-1, 1.4e-3),
            (2, 1e-2, 1.5e-6),
            (2, 1e-4, 1.5e-12),
            (4, 1e-1, 1.4e-5),
            (4, 1e-2, 1.5e-10),
            (6, 1e-1, 1.4e-7),
            (6, 1e-2, 1.5e-14),
        ];
        for (r, p, expect) in cases {
            let a = ProtectionAnalysis {
                fault_rate: p,
                fr_checks: r,
            };
            let got = a.undetected_error_rate();
            assert!(
                (got / expect - 1.0).abs() < 0.25,
                "r={r} p={p}: got {got}, paper {expect}"
            );
        }
        // DRAM floor clamps the extreme cells.
        let a = ProtectionAnalysis {
            fault_rate: 1e-4,
            fr_checks: 6,
        };
        assert_eq!(a.undetected_error_rate(), ProtectionAnalysis::DRAM_FLOOR);
    }

    #[test]
    fn table1_detect_rates_match_paper_shape() {
        let cases = [
            (2u32, 1e-1, 3.1e-1),
            (2, 1e-2, 3.5e-2),
            (2, 1e-4, 3.5e-4),
            (4, 1e-1, 4.4e-1),
            (4, 1e-2, 5.4e-2),
            (4, 1e-4, 5.5e-4),
            (6, 1e-1, 5.5e-1),
            (6, 1e-2, 7.3e-2),
            (6, 1e-4, 7.5e-4),
        ];
        for (r, p, expect) in cases {
            let a = ProtectionAnalysis {
                fault_rate: p,
                fr_checks: r,
            };
            let got = a.detect_rate();
            assert!(
                (got / expect - 1.0).abs() < 0.2,
                "r={r} p={p}: got {got}, paper {expect}"
            );
        }
    }

    #[test]
    fn table1_op_counts() {
        // Bottom row of Table 1: 13n+16, 23n+26, 33n+36; plus §7.3.2's
        // "7n+7 -> 13n+16" transition.
        let n = 5;
        assert_eq!(ProtectionKind::None.ambit_increment_ops(n), 7 * 5 + 7);
        let ecc = |r| ProtectionKind::Ecc {
            fr_checks: r,
            fuse_inverted_feedback: false,
        };
        assert_eq!(ecc(2).ambit_increment_ops(n), 13 * 5 + 16);
        assert_eq!(ecc(4).ambit_increment_ops(n), 23 * 5 + 26);
        assert_eq!(ecc(6).ambit_increment_ops(n), 33 * 5 + 36);
        assert_eq!(ProtectionKind::Tmr.ambit_increment_ops(n), 4 * (7 * 5 + 7));
    }

    #[test]
    fn demorgan_fusing_cuts_overhead_by_quarter() {
        let n = 5;
        let plain = ProtectionKind::Ecc {
            fr_checks: 2,
            fuse_inverted_feedback: false,
        }
        .ambit_increment_ops(n);
        let fused = ProtectionKind::Ecc {
            fr_checks: 2,
            fuse_inverted_feedback: true,
        }
        .ambit_increment_ops(n);
        let unprot = ProtectionKind::None.ambit_increment_ops(n);
        let saved = plain - fused;
        let overhead = plain - unprot;
        assert_eq!(saved, overhead / 4);
    }

    #[test]
    fn fault_free_protected_and_is_exact() {
        let mut p = EccProtection::new(2, FaultModel::fault_free());
        let a = Row::from_bits((0..256).map(|i| i % 3 == 0));
        let b = Row::from_bits((0..256).map(|i| i % 5 == 0));
        let (r, stats) = p.protected_and(&a, &b);
        assert_eq!(r, a.and(&b));
        assert_eq!(stats.retries, 0);
        // IR2 + IR1 + fr_checks FR computations.
        assert_eq!(stats.ops, 2 + 2);
    }

    #[test]
    fn single_faults_always_detected_and_corrected_by_retry() {
        // With data-dependent exposure, every single fault lands where the
        // scheme can see it; retries eventually return the exact result.
        let mut p = EccProtection::new(2, FaultModel::new(1e-3, 99));
        let a = Row::from_bits((0..512).map(|i| i % 2 == 0));
        let b = Row::from_bits((0..512).map(|i| i % 7 == 0));
        let mut silent = 0;
        let mut retries = 0;
        let trials = 200;
        for _ in 0..trials {
            let (r, stats) = p.protected_and(&a, &b);
            if r != a.and(&b) {
                silent += 1;
            }
            retries += stats.retries;
        }
        // Undetected error probability per op ≈ 1.5e-9 per bit; with 512
        // bits and 200 trials the expected silent count is ≈ 1.5e-4.
        assert_eq!(silent, 0, "unexpected silent errors: {silent}");
        // But detections (and hence retries) must be happening: each
        // attempt flips ≈ 1.3 bits somewhere in the IR/FR chain.
        assert!(retries > 20, "expected frequent detections, saw {retries}");
    }

    #[test]
    fn retries_occur_at_high_fault_rates() {
        let mut p = EccProtection::new(2, FaultModel::new(0.05, 5));
        let a = Row::from_bits((0..4096).map(|i| i % 2 == 0));
        let b = Row::from_bits((0..4096).map(|i| i % 3 == 0));
        let (_, stats) = p.protected_and(&a, &b);
        assert!(stats.retries > 0, "4096 columns at 5% must trip detection");
    }

    #[test]
    fn word_checks_equal_packed_secded_checks() {
        let code = Secded::secded_72_64();
        let words = WordChecks::new(&code);
        let packed = |w: u64| -> u64 {
            let bits: Vec<bool> = (0..64).map(|i| (w >> i) & 1 == 1).collect();
            code.checks(&bits)
                .iter()
                .enumerate()
                .fold(0, |acc, (j, &c)| acc | u64::from(c) << j)
        };
        let mut rng = StdRng::seed_from_u64(3);
        let units = (0..64).map(|i| 1u64 << i);
        let randoms = (0..2000).map(|_| rng.gen::<u64>());
        for w in [0, u64::MAX].into_iter().chain(units).chain(randoms) {
            assert_eq!(words.checks(w), packed(w), "word {w:#x}");
        }
    }

    /// The allocating executor this module used to ship: per-chunk
    /// `Vec<bool>` check bits and a fresh row per intermediate result.
    struct ReferenceEcc {
        fr_checks: u32,
        code: Secded,
        faults: FaultModel,
        max_retries: u32,
    }

    impl ReferenceEcc {
        fn protected_and(&mut self, a: &Row, b: &Row) -> (Row, ProtectStats) {
            let mut stats = ProtectStats::default();
            let expected_checks = self.xor_checks(a, b);
            for _ in 0..=self.max_retries {
                let ir2 = self.faulty_and(a, b, &mut stats);
                let ir1 = self.faulty_or(a, b, &mut stats);
                let not_ir2 = ir2.not();
                let mut all_pass = true;
                for _ in 0..self.fr_checks {
                    let fr = self.faulty_and(&ir1, &not_ir2, &mut stats);
                    stats.checks += 1;
                    if self.row_checks(&fr) != expected_checks {
                        all_pass = false;
                        break;
                    }
                }
                if all_pass {
                    return (ir2, stats);
                }
                stats.retries += 1;
            }
            (self.faulty_and(a, b, &mut stats), stats)
        }

        fn xor_checks(&self, a: &Row, b: &Row) -> Vec<Vec<bool>> {
            let xa = self.row_checks(a);
            let xb = self.row_checks(b);
            xa.into_iter()
                .zip(xb)
                .map(|(ca, cb)| crate::code::xor_bits(&ca, &cb))
                .collect()
        }

        fn row_checks(&self, r: &Row) -> Vec<Vec<bool>> {
            let bits: Vec<bool> = r.iter_bits().collect();
            bits.chunks(64)
                .map(|chunk| {
                    let mut word = chunk.to_vec();
                    word.resize(64, false);
                    self.code.checks(&word)
                })
                .collect()
        }

        fn faulty_and(&mut self, a: &Row, b: &Row, stats: &mut ProtectStats) -> Row {
            stats.ops += 1;
            let clean = a.and(b);
            let vulnerable = a.or(b);
            self.apply_faults(clean, &vulnerable)
        }

        fn faulty_or(&mut self, a: &Row, b: &Row, stats: &mut ProtectStats) -> Row {
            stats.ops += 1;
            let clean = a.or(b);
            let vulnerable = a.and(b).not();
            self.apply_faults(clean, &vulnerable)
        }

        fn apply_faults(&mut self, clean: Row, vulnerable: &Row) -> Row {
            if self.faults.rate() <= 0.0 {
                return clean;
            }
            let mut flips = Row::zeros(clean.width());
            self.faults.perturb(&mut flips);
            clean.xor(&flips.and(vulnerable))
        }
    }

    #[test]
    fn protected_and_matches_reference() {
        let rates = [0.0, 1e-4, 1e-3, 1e-2, 0.05, 0.3];
        for (ri, &rate) in rates.iter().enumerate() {
            for seed in 0..6u64 {
                for fr_checks in [1u32, 2, 4] {
                    let mut p = EccProtection::new(fr_checks, FaultModel::new(rate, seed));
                    let mut r = ReferenceEcc {
                        fr_checks,
                        code: Secded::secded_72_64(),
                        faults: FaultModel::new(rate, seed),
                        max_retries: 64,
                    };
                    let mut rng = StdRng::seed_from_u64(seed * 31 + ri as u64);
                    // Width changes between calls reuse or resize the
                    // executor's scratch row.
                    for width in [64, 64, 1, 65, 200, 512, 64] {
                        let row = |rng: &mut StdRng| {
                            Row::from_bits((0..width).map(|_| rng.gen_bool(0.5)))
                        };
                        let (a, b) = (row(&mut rng), row(&mut rng));
                        let (got, got_stats) = p.protected_and(&a, &b);
                        let (want, want_stats) = r.protected_and(&a, &b);
                        assert_eq!(got, want, "rate {rate} seed {seed} width {width}");
                        assert_eq!(
                            got_stats, want_stats,
                            "rate {rate} seed {seed} width {width}"
                        );
                    }
                    assert_eq!(p.faults.injected(), r.faults.injected());
                }
            }
        }
    }

    #[test]
    fn expected_recompute_rate_matches_paper_example() {
        // §7.3.2: fault 1e-4, repeats=1 (2 FR checks) -> detected rate
        // 3.5e-4/bit -> 0.16 detections per 512-bit row.
        let a = ProtectionAnalysis {
            fault_rate: 1e-4,
            fr_checks: 2,
        };
        let per_row = a.expected_recomputes_per_row(512);
        assert!(
            (0.10..0.25).contains(&per_row),
            "per-row recompute {per_row} outside paper's ~0.16 ballpark"
        );
    }
}
