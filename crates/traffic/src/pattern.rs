//! The six synthetic traffic patterns of §7.2.
//!
//! Bit permutations are defined on `b = ⌊log₂ N⌋` address bits. For
//! non-power-of-two systems (the paper's 1296- and 3136-node systems) the
//! permutation applies to ranks below `2^b`; the remaining ranks mirror-map
//! (`N − 1 − r`), preserving the pattern's structure on the bulk of the
//! nodes (see DESIGN.md, substitutions).

use simkit::SimRng;

/// A synthetic traffic pattern mapping source ranks to destination ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniform random destinations.
    Uniform,
    /// Communication restricted to a random subset of the nodes (the paper
    /// uses 10%): sources in the subset pick uniform destinations in it.
    UniformHotspot,
    /// `d_i = s_{(i-1) mod b}` — rotate address bits left by one.
    BitShuffle,
    /// `d_i = ¬s_i` — complement every address bit.
    BitComplement,
    /// `d_i = s_{(i+b/2) mod b}` — rotate address bits by half the width.
    BitTranspose,
    /// `d_i = s_{b-i-1}` — reverse the address bits.
    BitReverse,
}

impl TrafficPattern {
    /// All six patterns in the paper's order.
    pub const ALL: [TrafficPattern; 6] = [
        TrafficPattern::Uniform,
        TrafficPattern::UniformHotspot,
        TrafficPattern::BitShuffle,
        TrafficPattern::BitComplement,
        TrafficPattern::BitTranspose,
        TrafficPattern::BitReverse,
    ];

    /// The pattern a printed name (its `Display` form) stands for;
    /// `hotspot` is accepted as an alias of `uniform-hotspot`.
    pub fn from_name(name: &str) -> Option<Self> {
        if name == "hotspot" {
            return Some(TrafficPattern::UniformHotspot);
        }
        Self::ALL.into_iter().find(|p| p.to_string() == name)
    }

    /// Whether the pattern is a deterministic permutation (no RNG needed
    /// for destinations).
    pub fn is_permutation(&self) -> bool {
        !matches!(
            self,
            TrafficPattern::Uniform | TrafficPattern::UniformHotspot
        )
    }

    /// Destination rank for a packet from `src` among `n` ranks.
    ///
    /// Returns `None` when the pattern maps `src` to itself (no packet is
    /// generated), or — for [`TrafficPattern::UniformHotspot`] — when `src`
    /// is outside the hot subset (hotspot membership is derived
    /// deterministically from the rank, so all nodes agree on the subset).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `src >= n`.
    pub fn dest(&self, src: u64, n: u64, rng: &mut SimRng) -> Option<u64> {
        assert!(n >= 2, "patterns need at least two ranks");
        assert!(src < n, "source rank out of range");
        let b = 63 - n.leading_zeros() as u64; // floor(log2 n)
        let m = 1u64 << b;
        let d = match self {
            TrafficPattern::Uniform => {
                let mut d = rng.below(n);
                // Re-draw once to reduce self-traffic; give up after that.
                if d == src {
                    d = rng.below(n);
                }
                d
            }
            TrafficPattern::UniformHotspot => {
                if !Self::in_hotspot(src, n) {
                    return None;
                }
                // Draw hot destinations by rejection (subset is 10%).
                for _ in 0..64 {
                    let d = rng.below(n);
                    if d != src && Self::in_hotspot(d, n) {
                        return Some(d);
                    }
                }
                return None;
            }
            TrafficPattern::BitShuffle => {
                Self::permute(src, m, |s| ((s << 1) | (s >> (b - 1))) & (m - 1))
            }
            TrafficPattern::BitComplement => Self::permute(src, m, |s| !s & (m - 1)),
            TrafficPattern::BitTranspose => Self::permute(src, m, |s| {
                let h = b / 2;
                ((s << h) | (s >> (b - h))) & (m - 1)
            }),
            TrafficPattern::BitReverse => Self::permute(src, m, |s| {
                let mut d = 0u64;
                for i in 0..b {
                    if s & (1 << i) != 0 {
                        d |= 1 << (b - 1 - i);
                    }
                }
                d
            }),
        };
        (d != src && d < n).then_some(d)
    }

    /// Writes the analytic (RNG-free) destination-weight row of `src`:
    /// after the call, `out[d]` is the probability that one injection
    /// opportunity at `src` produces a packet for `d`. Rows sum to at most
    /// 1; the deficit is the chance the opportunity is wasted (a uniform
    /// draw that lands on `src` twice, a cold hotspot source, a
    /// permutation fixed point). This is the steady-state demand model the
    /// estimation subsystem integrates over — it matches what
    /// [`TrafficPattern::dest`] converges to over many draws.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, `src >= n`, or `out.len() != n`.
    pub fn dest_weights(&self, src: u64, n: u64, out: &mut [f64]) {
        assert!(n >= 2, "patterns need at least two ranks");
        assert!(src < n, "source rank out of range");
        assert_eq!(out.len(), n as usize, "weight row must have n entries");
        out.fill(0.0);
        match self {
            TrafficPattern::Uniform => {
                // First draw uniform; a self-hit redraws once, so every
                // d != src ends with P = 1/n + (1/n)·(1/n).
                let w = (n as f64 + 1.0) / (n as f64 * n as f64);
                for d in 0..n {
                    if d != src {
                        out[d as usize] = w;
                    }
                }
            }
            TrafficPattern::UniformHotspot => {
                if !Self::in_hotspot(src, n) {
                    return;
                }
                let hot: Vec<u64> = (0..n)
                    .filter(|&d| d != src && Self::in_hotspot(d, n))
                    .collect();
                if hot.is_empty() {
                    return;
                }
                // Rejection sampling converges to uniform over the hot
                // peers (the 64-draw cutoff fails with negligible odds).
                let w = 1.0 / hot.len() as f64;
                for d in hot {
                    out[d as usize] = w;
                }
            }
            _ => {
                // Deterministic permutations: one destination, weight 1,
                // unless the pattern maps src to itself or out of range.
                let mut rng = SimRng::seed(0); // never consulted
                if let Some(d) = self.dest(src, n, &mut rng) {
                    out[d as usize] = 1.0;
                }
            }
        }
    }

    /// Whether `rank` belongs to the deterministic ~10 % hotspot subset of
    /// [`TrafficPattern::UniformHotspot`] (public so analytic demand
    /// models agree with the workload about the hot set).
    pub fn is_hot(rank: u64, n: u64) -> bool {
        Self::in_hotspot(rank, n)
    }

    /// Deterministic 10% hotspot membership: a rank hash spreads the hot
    /// set over the machine.
    fn in_hotspot(rank: u64, _n: u64) -> bool {
        let h = rank
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h >> 32).is_multiple_of(10)
    }

    fn permute<F: Fn(u64) -> u64>(src: u64, m: u64, f: F) -> u64 {
        if src < m {
            f(src)
        } else {
            // Mirror-map the off-power-of-two tail.
            m + (m - 1 - (src - m)).min(m - 1) // stays in [m, 2m) range cap
        }
    }
}

impl std::fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::UniformHotspot => "uniform-hotspot",
            TrafficPattern::BitShuffle => "bit-shuffle",
            TrafficPattern::BitComplement => "bit-complement",
            TrafficPattern::BitTranspose => "bit-transpose",
            TrafficPattern::BitReverse => "bit-reverse",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_name_reads_every_printed_name_and_the_hotspot_alias() {
        for p in TrafficPattern::ALL {
            assert_eq!(TrafficPattern::from_name(&p.to_string()), Some(p));
        }
        assert_eq!(
            TrafficPattern::from_name("hotspot"),
            Some(TrafficPattern::UniformHotspot)
        );
        assert_eq!(TrafficPattern::from_name("zigzag"), None);
    }

    #[test]
    fn permutations_are_bijective_on_power_of_two() {
        let n = 64u64;
        let mut rng = SimRng::seed(1);
        for p in [
            TrafficPattern::BitShuffle,
            TrafficPattern::BitComplement,
            TrafficPattern::BitTranspose,
            TrafficPattern::BitReverse,
        ] {
            let mut seen = std::collections::HashSet::new();
            for s in 0..n {
                if let Some(d) = p.dest(s, n, &mut rng) {
                    assert!(d < n);
                    assert!(seen.insert(d), "{p}: duplicate destination {d}");
                }
            }
            // Permutations minus fixed points.
            assert!(seen.len() >= (n as usize) - 8, "{p}: too many fixed points");
        }
    }

    #[test]
    fn complement_pairs_opposite() {
        let mut rng = SimRng::seed(2);
        let d = TrafficPattern::BitComplement.dest(0, 64, &mut rng).unwrap();
        assert_eq!(d, 63);
        let d = TrafficPattern::BitComplement
            .dest(21, 64, &mut rng)
            .unwrap();
        assert_eq!(d, 42);
    }

    #[test]
    fn shuffle_rotates_left() {
        let mut rng = SimRng::seed(3);
        // b = 6, src = 0b000001 → 0b000010
        assert_eq!(TrafficPattern::BitShuffle.dest(1, 64, &mut rng), Some(2));
        // msb wraps: 0b100000 → 0b000001
        assert_eq!(TrafficPattern::BitShuffle.dest(32, 64, &mut rng), Some(1));
    }

    #[test]
    fn reverse_reverses() {
        let mut rng = SimRng::seed(4);
        // b = 6: 0b000011 → 0b110000
        assert_eq!(TrafficPattern::BitReverse.dest(3, 64, &mut rng), Some(48));
    }

    #[test]
    fn uniform_avoids_self_mostly() {
        let mut rng = SimRng::seed(5);
        let mut selfs = 0;
        for _ in 0..2000 {
            if TrafficPattern::Uniform.dest(7, 64, &mut rng) == Some(7) {
                selfs += 1;
            }
        }
        assert!(selfs < 10);
    }

    #[test]
    fn hotspot_is_sparse_and_consistent() {
        let n = 1000u64;
        let hot: Vec<u64> = (0..n)
            .filter(|&r| TrafficPattern::in_hotspot(r, n))
            .collect();
        // Roughly 10% of nodes.
        assert!((50..200).contains(&(hot.len() as u64)), "{}", hot.len());
        let mut rng = SimRng::seed(6);
        // Non-hot sources produce no traffic; hot sources target hot nodes.
        for s in 0..n {
            if let Some(d) = TrafficPattern::UniformHotspot.dest(s, n, &mut rng) {
                assert!(TrafficPattern::in_hotspot(s, n));
                assert!(TrafficPattern::in_hotspot(d, n));
            }
        }
    }

    #[test]
    fn dest_weights_match_empirical_uniform() {
        let n = 16u64;
        let mut row = vec![0.0; n as usize];
        TrafficPattern::Uniform.dest_weights(3, n, &mut row);
        assert_eq!(row[3], 0.0);
        let total: f64 = row.iter().sum();
        // Row sums to 1 − P(two self draws) = 1 − 1/n².
        assert!((total - (1.0 - 1.0 / (n as f64 * n as f64))).abs() < 1e-12);
        // Empirically: many dest() draws approach the analytic row.
        let mut rng = SimRng::seed(9);
        let mut counts = vec![0u32; n as usize];
        let draws = 200_000;
        for _ in 0..draws {
            if let Some(d) = TrafficPattern::Uniform.dest(3, n, &mut rng) {
                counts[d as usize] += 1;
            }
        }
        for d in 0..n as usize {
            let emp = counts[d] as f64 / draws as f64;
            assert!((emp - row[d]).abs() < 0.01, "d={d}: {emp} vs {}", row[d]);
        }
    }

    #[test]
    fn dest_weights_match_permutations_and_hotspot() {
        let n = 64u64;
        let mut rng = SimRng::seed(10);
        let mut row = vec![0.0; n as usize];
        for p in [
            TrafficPattern::BitShuffle,
            TrafficPattern::BitComplement,
            TrafficPattern::BitTranspose,
            TrafficPattern::BitReverse,
        ] {
            for s in 0..n {
                p.dest_weights(s, n, &mut row);
                match p.dest(s, n, &mut rng) {
                    Some(d) => {
                        assert_eq!(row[d as usize], 1.0, "{p} {s}->{d}");
                        assert_eq!(row.iter().sum::<f64>(), 1.0);
                    }
                    None => assert_eq!(row.iter().sum::<f64>(), 0.0),
                }
            }
        }
        // Hotspot: cold sources have empty rows; hot sources spread
        // uniformly over the hot peers.
        for s in 0..n {
            TrafficPattern::UniformHotspot.dest_weights(s, n, &mut row);
            if !TrafficPattern::is_hot(s, n) {
                assert_eq!(row.iter().sum::<f64>(), 0.0);
            } else {
                for (d, &w) in row.iter().enumerate() {
                    if w > 0.0 {
                        assert!(TrafficPattern::is_hot(d as u64, n));
                        assert_ne!(d as u64, s);
                    }
                }
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn non_power_of_two_stays_in_range() {
        let mut rng = SimRng::seed(7);
        for p in TrafficPattern::ALL {
            for s in 0..1296u64 {
                if let Some(d) = p.dest(s, 1296, &mut rng) {
                    assert!(d < 1296, "{p}: {s} -> {d}");
                    assert_ne!(d, s);
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn src_out_of_range_panics() {
        let mut rng = SimRng::seed(8);
        TrafficPattern::Uniform.dest(64, 64, &mut rng);
    }
}
