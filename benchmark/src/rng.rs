//! SplitMix64 request streams.
//!
//! Every load-generating connection draws from its own stream, derived
//! from `(seed, connection)` only, so a run's request sequence is a
//! function of its `--seed` and nothing else.

/// A SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// The stream of connection `conn` under run seed `seed`. Distinct
    /// connections get decorrelated streams: the connection index is
    /// mixed through one SplitMix64 step before it perturbs the state.
    pub fn for_connection(seed: u64, conn: u64) -> SplitMix64 {
        let mut lane = SplitMix64 {
            state: conn.wrapping_add(1).wrapping_mul(GOLDEN),
        };
        SplitMix64 {
            state: seed ^ lane.next_u64(),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` > 0). The modulo bias is below 2⁻⁴⁰ for
    /// the small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Picks an index by integer weights (sum > 0).
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut ticket = (self.next_u64() % u64::from(total)) as u32;
        for (i, w) in weights.iter().enumerate() {
            if ticket < *w {
                return i;
            }
            ticket -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_connection_replay_the_same_stream() {
        let mut a = SplitMix64::for_connection(7, 1);
        let mut b = SplitMix64::for_connection(7, 1);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn seeds_and_connections_give_distinct_streams() {
        let first = |seed, conn| SplitMix64::for_connection(seed, conn).next_u64();
        assert_ne!(first(7, 0), first(7, 1));
        assert_ne!(first(7, 0), first(8, 0));
    }

    #[test]
    fn reference_vector_matches_splitmix64() {
        // Published SplitMix64 outputs for state 0.
        let mut g = SplitMix64 { state: 0 };
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn weighted_respects_zero_weights_and_proportions() {
        let mut g = SplitMix64::for_connection(3, 0);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[g.weighted(&[1, 0, 2])] += 1;
        }
        assert_eq!(counts[1], 0);
        let share = f64::from(counts[2]) / 30_000.0;
        assert!((share - 2.0 / 3.0).abs() < 0.02, "share {share}");
    }
}
