//! Parametric synthetic trace generators.
//!
//! These isolate the two axes the adaptive encoding responds to — the
//! read/write mix and the bit density of the data — so the experiment
//! harness can sweep them independently (the crossover study, `fig8`).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::Address;

/// How synthetic accesses pick their target line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AddressPattern {
    /// Round-robin over the footprint.
    Sequential,
    /// Round-robin with a fixed line stride.
    Strided {
        /// Stride in lines (must be non-zero).
        stride_lines: u32,
    },
    /// Uniformly random lines.
    UniformRandom,
    /// Zipf-distributed line popularity with exponent `theta`.
    Zipfian {
        /// Skew exponent; 0 = uniform, ≈1 = classic web-like skew.
        theta: f64,
    },
}

/// Specification of one synthetic trace.
///
/// # Example
///
/// ```
/// use cnt_workloads::synthetic::{AddressPattern, SyntheticSpec};
///
/// let trace = SyntheticSpec {
///     accesses: 1000,
///     footprint_lines: 16,
///     read_fraction: 0.9,
///     ones_density: 0.1,
///     pattern: AddressPattern::Sequential,
///     seed: 1,
/// }
/// .generate();
/// assert_eq!(trace.footprint_blocks(), 16);
/// // Init writes push the write fraction slightly above 10%.
/// assert!(trace.write_fraction() < 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Number of demand accesses (excluding the per-line init writes).
    pub accesses: usize,
    /// Working-set size in 64-byte lines.
    pub footprint_lines: usize,
    /// Fraction of the demand accesses that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Probability that any written data bit is `1`, in `[0, 1]`.
    pub ones_density: f64,
    /// Line-selection pattern.
    pub pattern: AddressPattern,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            accesses: 10_000,
            footprint_lines: 64,
            read_fraction: 0.7,
            ones_density: 0.25,
            pattern: AddressPattern::Sequential,
            seed: 0xC47,
        }
    }
}

/// Synthetic traces place their footprint at this base address.
const BASE: u64 = 0x0100_0000;

impl SyntheticSpec {
    /// Generates the trace: one initializing write per line (so reads see
    /// density-distributed data), then `accesses` demand accesses.
    ///
    /// Materializes [`stream`](Self::stream) — the two produce the exact
    /// same access sequence.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_lines` is zero, a fraction is outside
    /// `[0, 1]`, or a strided pattern has a zero stride.
    pub fn generate(&self) -> AccessBatch {
        self.stream().collect()
    }

    /// Lazily yields the same sequence as [`generate`](Self::generate)
    /// without materializing it, so multi-GB traces can be packed (or
    /// replayed) in bounded memory:
    ///
    /// ```
    /// use cnt_workloads::synthetic::SyntheticSpec;
    ///
    /// let spec = SyntheticSpec::default();
    /// let streamed: Vec<_> = spec.stream().collect();
    /// assert_eq!(streamed.len(), spec.stream().len());
    /// assert_eq!(cnt_sim::trace::AccessBatch::from_iter(streamed), spec.generate());
    /// ```
    ///
    /// # Panics
    ///
    /// As [`generate`](Self::generate).
    pub fn stream(&self) -> SyntheticStream {
        assert!(self.footprint_lines > 0, "footprint must be non-empty");
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read_fraction must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.ones_density),
            "ones_density must be in [0, 1]"
        );
        if let AddressPattern::Strided { stride_lines } = self.pattern {
            assert!(stride_lines > 0, "stride must be non-zero");
        }
        let zipf_cdf = match self.pattern {
            AddressPattern::Zipfian { theta } => Some(zipf_cdf(self.footprint_lines, theta)),
            _ => None,
        };
        SyntheticStream {
            spec: *self,
            rng: SmallRng::seed_from_u64(self.seed),
            zipf_cdf,
            init_emitted: 0,
            demand_emitted: 0,
            cursor: 0,
        }
    }
}

/// Lazy iterator form of [`SyntheticSpec`]; see
/// [`SyntheticSpec::stream`]. Draws from the RNG in exactly the order
/// the eager generator did, so the sequence is byte-identical.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    spec: SyntheticSpec,
    rng: SmallRng,
    zipf_cdf: Option<Vec<f64>>,
    init_emitted: usize,
    demand_emitted: usize,
    cursor: usize,
}

impl Iterator for SyntheticStream {
    type Item = MemoryAccess;

    fn next(&mut self) -> Option<MemoryAccess> {
        let spec = self.spec;
        // Phase 1: initialize every word of every line with
        // density-controlled data.
        if self.init_emitted < spec.footprint_lines * 8 {
            let line = (self.init_emitted / 8) as u64;
            let word = (self.init_emitted % 8) as u64;
            self.init_emitted += 1;
            let addr = Address::new(BASE + line * 64 + word * 8);
            return Some(MemoryAccess::write(
                addr,
                8,
                word_with_density(&mut self.rng, spec.ones_density),
            ));
        }
        // Phase 2: demand accesses.
        if self.demand_emitted >= spec.accesses {
            return None;
        }
        self.demand_emitted += 1;
        let line = match spec.pattern {
            AddressPattern::Sequential => {
                let l = self.cursor % spec.footprint_lines;
                self.cursor += 1;
                l
            }
            AddressPattern::Strided { stride_lines } => {
                let l = self.cursor % spec.footprint_lines;
                self.cursor = self.cursor.wrapping_add(stride_lines as usize);
                l
            }
            AddressPattern::UniformRandom => self.rng.gen_range(0..spec.footprint_lines),
            AddressPattern::Zipfian { .. } => {
                let cdf = self.zipf_cdf.as_ref().expect("cdf precomputed");
                let u: f64 = self.rng.gen();
                cdf.partition_point(|&c| c < u)
                    .min(spec.footprint_lines - 1)
            }
        };
        let word = self.rng.gen_range(0..8u64);
        let addr = Address::new(BASE + (line as u64) * 64 + word * 8);
        Some(if self.rng.gen_bool(spec.read_fraction) {
            MemoryAccess::read(addr, 8)
        } else {
            MemoryAccess::write(addr, 8, word_with_density(&mut self.rng, spec.ones_density))
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.spec.footprint_lines * 8 - self.init_emitted)
            + (self.spec.accesses - self.demand_emitted);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for SyntheticStream {}

/// A heterogeneous-line generator: each 64-byte line holds eight words
/// with per-word one-bit densities — e.g. records interleaving sparse ids
/// with dense hashes. This is the workload class where *partitioned*
/// encoding (Fig. 2) beats full-line inversion: no single direction suits
/// the whole line.
///
/// # Example
///
/// ```
/// use cnt_workloads::synthetic::StripedSpec;
///
/// let trace = StripedSpec {
///     accesses: 500,
///     footprint_lines: 8,
///     read_fraction: 1.0,
///     densities: [0.05, 0.05, 0.05, 0.05, 0.75, 0.75, 0.75, 0.75],
///     seed: 7,
/// }
/// .generate();
/// assert_eq!(trace.footprint_blocks(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StripedSpec {
    /// Number of demand accesses (excluding init writes).
    pub accesses: usize,
    /// Working-set size in 64-byte lines.
    pub footprint_lines: usize,
    /// Fraction of demand accesses that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Per-word one-bit density within each line.
    pub densities: [f64; 8],
    /// RNG seed.
    pub seed: u64,
}

impl StripedSpec {
    /// Generates the trace: per-word-density init writes, then uniform
    /// random demand accesses whose writes respect the word's density.
    ///
    /// # Panics
    ///
    /// Panics if `footprint_lines` is zero or any fraction is outside
    /// `[0, 1]`.
    pub fn generate(&self) -> AccessBatch {
        assert!(self.footprint_lines > 0, "footprint must be non-empty");
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "read_fraction must be in [0, 1]"
        );
        for &d in &self.densities {
            assert!((0.0..=1.0).contains(&d), "density must be in [0, 1]");
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut trace = AccessBatch::new();
        for line in 0..self.footprint_lines {
            for (word, &density) in self.densities.iter().enumerate() {
                let addr = Address::new(BASE + (line as u64) * 64 + (word as u64) * 8);
                trace.push(MemoryAccess::write(
                    addr,
                    8,
                    word_with_density(&mut rng, density),
                ));
            }
        }
        for _ in 0..self.accesses {
            let line = rng.gen_range(0..self.footprint_lines);
            let word = rng.gen_range(0..8usize);
            let addr = Address::new(BASE + (line as u64) * 64 + (word as u64) * 8);
            if rng.gen_bool(self.read_fraction) {
                trace.push(MemoryAccess::read(addr, 8));
            } else {
                trace.push(MemoryAccess::write(
                    addr,
                    8,
                    word_with_density(&mut rng, self.densities[word]),
                ));
            }
        }
        trace
    }
}

/// Draws a 64-bit word whose bits are independently `1` with probability
/// `density`.
pub fn word_with_density(rng: &mut SmallRng, density: f64) -> u64 {
    if density <= 0.0 {
        return 0;
    }
    if density >= 1.0 {
        return u64::MAX;
    }
    let mut word = 0u64;
    for bit in 0..64 {
        if rng.gen_bool(density) {
            word |= 1 << bit;
        }
    }
    word
}

fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(theta)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_controls_written_bits() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &d in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let ones: u32 = (0..64)
                .map(|_| word_with_density(&mut rng, d).count_ones())
                .sum();
            let measured = f64::from(ones) / (64.0 * 64.0);
            assert!(
                (measured - d).abs() < 0.08,
                "density {d}: measured {measured}"
            );
        }
    }

    #[test]
    fn read_fraction_is_respected() {
        let spec = SyntheticSpec {
            accesses: 20_000,
            read_fraction: 0.8,
            ..SyntheticSpec::default()
        };
        let trace = spec.generate();
        let init = spec.footprint_lines * 8;
        let demand = trace.iter().skip(init);
        let writes = demand.clone().filter(|a| a.is_write()).count();
        let wf = writes as f64 / demand.len() as f64;
        assert!((wf - 0.2).abs() < 0.02, "write fraction {wf}");
    }

    #[test]
    fn footprint_is_exact() {
        for pattern in [
            AddressPattern::Sequential,
            AddressPattern::Strided { stride_lines: 3 },
            AddressPattern::UniformRandom,
            AddressPattern::Zipfian { theta: 0.9 },
        ] {
            let spec = SyntheticSpec {
                accesses: 5_000,
                footprint_lines: 32,
                pattern,
                ..SyntheticSpec::default()
            };
            assert_eq!(spec.generate().footprint_blocks(), 32, "{pattern:?}");
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let spec = SyntheticSpec {
            accesses: 20_000,
            footprint_lines: 64,
            pattern: AddressPattern::Zipfian { theta: 1.0 },
            read_fraction: 1.0,
            ..SyntheticSpec::default()
        };
        let trace = spec.generate();
        let init = spec.footprint_lines * 8;
        let mut counts = vec![0usize; 64];
        for a in &trace.addrs()[init..] {
            counts[((a - BASE) / 64) as usize] += 1;
        }
        assert!(
            counts[0] > counts[32] * 4,
            "head line must dominate: {} vs {}",
            counts[0],
            counts[32]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticSpec::default();
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn stream_is_identical_to_generate_for_every_pattern() {
        for pattern in [
            AddressPattern::Sequential,
            AddressPattern::Strided { stride_lines: 5 },
            AddressPattern::UniformRandom,
            AddressPattern::Zipfian { theta: 0.8 },
        ] {
            let spec = SyntheticSpec {
                accesses: 3_000,
                footprint_lines: 48,
                read_fraction: 0.6,
                ones_density: 0.3,
                pattern,
                seed: 0xBEEF,
            };
            let stream = spec.stream();
            assert_eq!(stream.len(), 48 * 8 + 3_000, "{pattern:?}");
            let streamed: AccessBatch = stream.collect();
            assert_eq!(streamed, spec.generate(), "{pattern:?}");
        }
    }

    #[test]
    #[should_panic(expected = "read_fraction")]
    fn bad_fraction_panics() {
        SyntheticSpec {
            read_fraction: 1.5,
            ..SyntheticSpec::default()
        }
        .generate();
    }
}
