//! The halo exchange of a block-row SPMD SpMV.
//!
//! The resilient driver charges communication through the *logical*
//! distribution model (global vectors + a [`Partition`]). [`HaloPlan`] is
//! the exchange a distributed-memory code would perform over the same
//! partition: which remote entries of `x` each rank needs and which of
//! its own entries each peer needs from it. It is the reference the
//! driver's charged halo volume is validated against.

use std::collections::BTreeMap;

use rsls_sparse::{CsrMatrix, Partition};

/// The communication plan of a block-row SPMD SpMV.
///
/// For every rank: which remote entries of `x` it needs (its *halo*), and
/// which of its own entries each peer needs from it.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    /// `recv[rank]` — sorted global indices rank needs but does not own.
    recv: Vec<Vec<usize>>,
    /// `send[rank]` — `(peer, global indices to ship to peer)`.
    send: Vec<Vec<(usize, Vec<usize>)>>,
}

impl HaloPlan {
    /// Builds the plan from the matrix sparsity and the partition.
    pub fn build(a: &CsrMatrix, part: &Partition) -> Self {
        let p = part.num_ranks();
        let mut recv: Vec<Vec<usize>> = Vec::with_capacity(p);
        for rank in 0..p {
            let range = part.range(rank);
            let mut needed: Vec<usize> = Vec::new();
            for r in range.clone() {
                for &c in a.row_cols(r) {
                    if !range.contains(&c) {
                        needed.push(c);
                    }
                }
            }
            needed.sort_unstable();
            needed.dedup();
            recv.push(needed);
        }
        // Invert: who must send what.
        let mut send: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); p];
        for (rank, needed) in recv.iter().enumerate() {
            let mut by_owner: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &c in needed {
                by_owner.entry(part.owner(c)).or_default().push(c);
            }
            for (owner, cols) in by_owner {
                send[owner].push((rank, cols));
            }
        }
        HaloPlan { recv, send }
    }

    /// Global indices `rank` receives each exchange.
    pub fn recv_indices(&self, rank: usize) -> &[usize] {
        &self.recv[rank]
    }

    /// `(peer, indices)` pairs `rank` sends each exchange.
    pub fn send_targets(&self, rank: usize) -> &[(usize, Vec<usize>)] {
        &self.send[rank]
    }

    /// Total bytes moved per exchange (8 bytes per halo value, counting
    /// each transferred value once).
    pub fn bytes_per_exchange(&self) -> u64 {
        self.recv.iter().map(|r| r.len() as u64 * 8).sum()
    }

    /// Number of point-to-point messages per exchange.
    pub fn messages_per_exchange(&self) -> usize {
        self.send.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsls_sparse::generators::{banded_spd, BandedConfig};

    #[test]
    fn halo_plan_covers_exactly_the_off_range_columns() {
        let a = banded_spd(&BandedConfig::regular(100, 7, 0.05, 9));
        let part = Partition::balanced(100, 7);
        let plan = HaloPlan::build(&a, &part);
        for rank in 0..7 {
            let range = part.range(rank);
            // Every received index is outside the range and actually used.
            for &g in plan.recv_indices(rank) {
                assert!(!range.contains(&g));
                let used = range
                    .clone()
                    .any(|r| a.row_cols(r).binary_search(&g).is_ok());
                assert!(used, "rank {rank} receives unused column {g}");
            }
        }
        // Send lists mirror receive lists.
        let total_recv: usize = (0..7).map(|r| plan.recv_indices(r).len()).sum();
        let total_send: usize = (0..7)
            .flat_map(|r| plan.send_targets(r).iter().map(|(_, c)| c.len()))
            .sum();
        assert_eq!(total_recv, total_send);
    }
}
