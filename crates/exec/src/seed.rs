//! SplitMix64-style seed-stream derivation.
//!
//! Derived seeds must be (a) deterministic, (b) collision-free across the
//! stream indices a run can use, and (c) statistically independent enough
//! that per-unit `StdRng` instances don't share structure. SplitMix64
//! gives all three: its output function is a bijection of the state, and
//! distinct stream indices map to distinct states because the golden
//! gamma is odd (odd multipliers are invertible mod 2⁶⁴).

/// The SplitMix64 golden-ratio increment (odd, hence invertible mod 2⁶⁴).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance a SplitMix64 state and return the next output.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix(*state)
}

/// Map a 64-bit draw to a uniform `f64` in `[0, 1)`: the top 53 bits
/// scaled by 2⁻⁵³, so every output is an exact multiple of 2⁻⁵³.
#[inline]
pub fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Weighted pick over `(item, weight)` pairs: `draw() % total` located
/// along the cumulative weights, so item `i` wins with probability
/// `weight_i / total`.
///
/// Returns `None` when every weight is zero, **without calling `draw`**:
/// a disabled mix consumes no randomness, and each caller keeps its own
/// fallback for that case.
///
/// ```
/// use hpcfail_exec::pick_weighted;
/// let mix = [('a', 1), ('b', 0), ('c', 3)];
/// assert_eq!(pick_weighted(&mix, || 0), Some('a'));
/// assert_eq!(pick_weighted(&mix, || 1), Some('c'));
/// assert_eq!(pick_weighted(&[('a', 0)], || unreachable!()), None);
/// ```
pub fn pick_weighted<T: Copy>(weighted: &[(T, u32)], draw: impl FnOnce() -> u64) -> Option<T> {
    let total: u64 = weighted.iter().map(|&(_, w)| w as u64).sum();
    if total == 0 {
        return None;
    }
    let mut roll = draw() % total;
    weighted.iter().find_map(|&(item, weight)| {
        let weight = weight as u64;
        if roll < weight {
            Some(item)
        } else {
            roll -= weight;
            None
        }
    })
}

/// Derive the seed of stream `stream` from a `root` seed.
///
/// For a fixed root this is injective in `stream`: the state offset
/// `GOLDEN_GAMMA × (stream + 1)` is a bijection of `stream` and the
/// SplitMix64 output function is a bijection of the state, so **no two
/// stream indices ever collide** (the property the seed-stream tests
/// check on 10 000 indices is in fact exact).
#[inline]
pub fn derive_stream_seed(root: u64, stream: u64) -> u64 {
    mix(root.wrapping_add(GOLDEN_GAMMA.wrapping_mul(stream.wrapping_add(1))))
}

/// A root seed viewed as an indexed family of independent streams.
///
/// ```
/// use hpcfail_exec::SeedSequence;
/// let seq = SeedSequence::new(42);
/// assert_ne!(seq.stream(0), seq.stream(1));
/// assert_eq!(seq.stream(7), SeedSequence::new(42).stream(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    root: u64,
}

impl SeedSequence {
    /// Family rooted at `root`.
    pub fn new(root: u64) -> Self {
        SeedSequence { root }
    }

    /// The root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Seed of the `index`-th stream.
    pub fn stream(&self, index: u64) -> u64 {
        derive_stream_seed(self.root, index)
    }

    /// A child family, for hierarchical splits (site → system → node).
    pub fn child(&self, index: u64) -> SeedSequence {
        SeedSequence::new(self.stream(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_distinct() {
        let seq = SeedSequence::new(2026);
        assert_eq!(seq.stream(3), seq.stream(3));
        assert_ne!(seq.stream(3), seq.stream(4));
        assert_ne!(SeedSequence::new(1).stream(0), SeedSequence::new(2).stream(0));
    }

    #[test]
    fn no_collisions_across_contiguous_indices() {
        // Injectivity is provable, but keep an executable witness.
        let seq = SeedSequence::new(42);
        let mut seen: Vec<u64> = (0..4096).map(|i| seq.stream(i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn child_families_diverge() {
        let seq = SeedSequence::new(7);
        assert_ne!(seq.child(0).stream(0), seq.child(1).stream(0));
        assert_ne!(seq.child(0).stream(0), seq.stream(0));
    }

    #[test]
    fn weighted_pick_walks_the_cumulative_weights() {
        // Every roll in [0, total) lands on the item whose cumulative
        // band holds it; zero-weight items own no band.
        let mix = [(0u8, 2), (1, 0), (2, 3), (3, 1)];
        let picks: Vec<u8> = (0..12u64)
            .map(|roll| pick_weighted(&mix, || roll).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 0, 2, 2, 2, 3, 0, 0, 2, 2, 2, 3]);
        // An all-zero mix draws nothing.
        let mut calls = 0;
        assert_eq!(
            pick_weighted(&[(0u8, 0), (1, 0)], || {
                calls += 1;
                0
            }),
            None
        );
        assert_eq!(calls, 0);
    }

    #[test]
    fn unit_f64_spans_the_half_open_unit_interval() {
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64(u64::MAX), 1.0 - 2f64.powi(-53));
        assert_eq!(unit_f64(1 << 63), 0.5);
    }
}
