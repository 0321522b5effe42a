//! Input generation, digests and report canonicalisation shared by the
//! workloads.

use serde::{Serialize, Value};

/// SplitMix64: the benchmark's own generator. Every trace, stream and
/// fault seed is drawn from it, so the inputs depend only on `--seed`
/// and never on a generator inside the simulator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for the input stream named `tag` of op `id` under
    /// the workload seed `seed`.
    pub fn derive(seed: u64, tag: &str, id: u64) -> Self {
        let mut h = Fnv::new();
        h.bytes(tag.as_bytes());
        let mut g =
            Self(seed ^ h.finish().rotate_left(17) ^ id.wrapping_mul(0xA24B_AED4_963E_E407));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bit(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// One int8 activation from the Fig. 3b embedding shape: a
    /// near-normal value (sum of twelve uniforms) clamped to int8, so
    /// small magnitudes and zeros dominate as in real activations.
    pub fn int8(&mut self) -> i64 {
        let s: f64 = (0..12).map(|_| self.unit() - 0.5).sum();
        ((s * 14.0).round() as i64).clamp(-128, 127)
    }

    pub fn int8_stream(&mut self, len: usize) -> Vec<i64> {
        (0..len).map(|_| self.int8()).collect()
    }
}

/// FNV-1a, 64-bit: the digest of simulated output.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn digest_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.finish()
}

/// A report serialised without its cache counters (every top-level
/// field whose name mentions `cache`). Cache tallies depend on what
/// ran before, not on what was simulated, so a cached op and an
/// uncached reference agree on everything else.
pub fn canonical_json<T: Serialize>(report: &T) -> String {
    let value = match report.to_value() {
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| !k.contains("cache"))
                .collect(),
        ),
        other => other,
    };
    serde_json::to_string(&value).expect("a report serialises to JSON")
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
