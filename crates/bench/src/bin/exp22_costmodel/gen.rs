//! Input generation: the operation stream a client replays, made from
//! the seed alone before the clock starts. The generator is the
//! benchmark's own (SplitMix64), so a stream never changes because a
//! library's RNG did.

use crate::spec::Workload;

/// Stream tags. A stream is a flat `u32` sequence: `TRANSFER src dst`,
/// `SCAN item × scan_len`, or `FULL_SCAN`.
pub const TRANSFER: u32 = 0;
pub const SCAN: u32 = 1;
pub const FULL_SCAN: u32 = 2;

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, full period,
/// passes BigCrush — ample for choosing accounts.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these `n` is below
    /// 2⁻³²).
    pub fn below(&mut self, n: u32) -> u32 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Account chooser: uniform, or Zipf(θ) by inverting a cumulative table.
#[derive(Clone, Debug)]
pub struct Accounts {
    n: u32,
    /// Cumulative probabilities for Zipf; empty when uniform.
    cdf: Vec<f64>,
}

impl Accounts {
    pub fn new(n: u32, theta: f64) -> Self {
        let mut cdf = Vec::new();
        if theta > 0.0 {
            let mut acc = 0.0;
            cdf.extend((1..=n).map(|rank| {
                acc += 1.0 / f64::from(rank).powf(theta);
                acc
            }));
            for p in &mut cdf {
                *p /= acc;
            }
        }
        Accounts { n, cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        if self.cdf.is_empty() {
            rng.below(self.n)
        } else {
            let u = rng.unit();
            (self.cdf.partition_point(|&p| p <= u) as u32).min(self.n - 1)
        }
    }
}

/// The seed of one client's stream for one slice. Slices and clients get
/// unrelated streams, and slice 0 is the warm-up.
pub fn stream_seed(seed: u64, client: usize, slice: usize) -> u64 {
    let mut r = Rng::new(seed ^ ((client as u64) << 48) ^ ((slice as u64) << 16));
    r.next_u64()
}

/// Fills `out` with `txns` transactions of `w`'s mix.
pub fn fill_stream(w: &Workload, accounts: &Accounts, seed: u64, txns: usize, out: &mut Vec<u32>) {
    out.clear();
    let mut rng = Rng::new(seed);
    let mut scans_to_full = w.full_scan_every;
    for _ in 0..txns {
        if w.scans_per_mille > 0 && rng.below(1000) < w.scans_per_mille {
            scans_to_full = scans_to_full.saturating_sub(1);
            if w.full_scan_every > 0 && scans_to_full == 0 {
                scans_to_full = w.full_scan_every;
                out.push(FULL_SCAN);
            } else {
                out.push(SCAN);
                out.extend((0..w.scan_len).map(|_| accounts.sample(&mut rng)));
            }
        } else {
            let src = accounts.sample(&mut rng);
            let mut dst = accounts.sample(&mut rng);
            while dst == src {
                dst = accounts.sample(&mut rng);
            }
            out.extend([TRANSFER, src, dst]);
        }
    }
}

/// Upper bound on the `u32` words a stream of `txns` transactions needs
/// (buffers are allocated once at this size).
pub fn stream_capacity(w: &Workload, txns: usize) -> usize {
    txns * (1 + w.scan_len.max(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in &WORKLOADS {
            let accounts = Accounts::new(w.accounts, w.zipf_theta);
            let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
            fill_stream(w, &accounts, stream_seed(7, 0, 1), 5_000, &mut a);
            fill_stream(w, &accounts, stream_seed(7, 0, 1), 5_000, &mut b);
            fill_stream(w, &accounts, stream_seed(8, 0, 1), 5_000, &mut c);
            assert_eq!(a, b, "{}: same seed must give the same stream", w.name);
            assert_ne!(a, c, "{}: another seed must give another stream", w.name);
            assert!(a.len() <= stream_capacity(w, 5_000));
        }
        assert_ne!(stream_seed(7, 0, 1), stream_seed(7, 1, 1));
        assert_ne!(stream_seed(7, 0, 1), stream_seed(7, 0, 2));
    }

    #[test]
    fn the_mix_has_the_stated_shape() {
        let w = crate::spec::workload("snapshot_scan_1t").expect("workload exists");
        let accounts = Accounts::new(w.accounts, w.zipf_theta);
        let mut s = Vec::new();
        fill_stream(w, &accounts, 1, 100_000, &mut s);
        let (mut transfers, mut scans, mut full, mut hot, mut i) = (0, 0, 0, 0u32, 0);
        while i < s.len() {
            match s[i] {
                TRANSFER => {
                    assert_ne!(s[i + 1], s[i + 2], "a transfer moves between two accounts");
                    transfers += 1;
                    i += 3;
                }
                SCAN => {
                    hot += s[i + 1..=i + w.scan_len].iter().filter(|&&a| a == 0).count() as u32;
                    assert!(s[i + 1..=i + w.scan_len].iter().all(|&a| a < w.accounts));
                    scans += 1;
                    i += 1 + w.scan_len;
                }
                FULL_SCAN => {
                    full += 1;
                    i += 1;
                }
                tag => panic!("unknown tag {tag}"),
            }
        }
        assert_eq!(transfers + scans + full, 100_000);
        assert!((4_500..5_500).contains(&transfers), "{transfers} transfers, want ≈5%");
        assert_eq!(full, (scans + full) / w.full_scan_every);
        // Zipf(0.9) over 256 ranks gives rank 1 about 11% of the draws;
        // uniform would give 0.4%.
        let share = f64::from(hot) / (scans * w.scan_len as u32) as f64;
        assert!((0.08..0.15).contains(&share), "rank-1 share {share}");
    }
}
