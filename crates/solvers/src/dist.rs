//! Distributed-memory (SPMD) Conjugate Gradient.
//!
//! The resilient driver charges communication through the *logical*
//! distribution model (global vectors + a [`Partition`]). This module is
//! the corresponding *physical* implementation: each rank owns only its
//! block of every vector and a column-remapped row panel of the matrix;
//! SpMV requires an explicit halo exchange and inner products a reduction
//! — exactly the data movement an MPI implementation performs. It exists
//! to (a) validate that the driver's charged communication volumes match
//! what a real SPMD code moves, and (b) serve as the starting point for a
//! genuinely parallel backend.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rsls_sparse::artifacts::MatrixKey;
use rsls_sparse::{CsrMatrix, Partition};

/// Memo map type: `(matrix content, partition boundaries) → plan`.
type PlanMemo = Mutex<BTreeMap<(MatrixKey, u64), Arc<HaloPlan>>>;

/// Process-global memo of halo plans: `(matrix content, partition
/// boundaries) → plan`. Plans are pure functions of their key, so a
/// hit is bit-identical to a rebuild.
static PLAN_CACHE: OnceLock<PlanMemo> = OnceLock::new();
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the [`HaloPlan::build_cached`] memo, for the
/// `/metrics` artifact-cache families.
pub fn halo_plan_cache_stats() -> (u64, u64) {
    (
        PLAN_HITS.load(Ordering::Relaxed),
        PLAN_MISSES.load(Ordering::Relaxed),
    )
}

/// Folds the exact `(start, end)` boundaries of every rank range, so two
/// partitions share a key only when they induce the same distribution.
fn partition_hash(part: &Partition) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rank in 0..part.num_ranks() {
        let r = part.range(rank);
        h = (h ^ r.start as u64).wrapping_mul(PRIME);
        h = (h ^ r.end as u64).wrapping_mul(PRIME);
    }
    h
}

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
            let mut by_owner: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for &c in needed {
                by_owner.entry(part.owner(c)).or_default().push(c);
            }
            for (owner, cols) in by_owner {
                send[owner].push((rank, cols));
            }
        }
        HaloPlan { recv, send }
    }

    /// Memoized [`HaloPlan::build`]: scaling studies construct many
    /// [`DistCg`] instances over the same `(matrix, partition)` pair, and
    /// the plan depends on nothing else.
    pub fn build_cached(a: &CsrMatrix, part: &Partition) -> Arc<HaloPlan> {
        let key = (MatrixKey::of(a), partition_hash(part));
        let cache = PLAN_CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
        if let Some(hit) = cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
        {
            PLAN_HITS.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        PLAN_MISSES.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(HaloPlan::build(a, part));
        cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(plan)
            .clone()
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

/// Per-rank storage: the local slice of a global vector plus its halo.
#[derive(Debug, Clone)]
struct LocalVector {
    /// Owned entries (the rank's partition range).
    own: Vec<f64>,
    /// Halo entries, ordered like `HaloPlan::recv_indices`.
    halo: Vec<f64>,
}

/// A distributed CG instance: all ranks' state, advanced in lockstep.
///
/// Numerically the iteration is identical to [`Cg`](crate::Cg) up to
/// floating-point summation order (partial dot products are reduced
/// rank-by-rank, as an MPI allreduce would).
#[derive(Debug, Clone)]
pub struct DistCg {
    part: Partition,
    plan: Arc<HaloPlan>,
    /// Per-rank row panel with columns remapped to `[own | halo]` local
    /// numbering.
    local_a: Vec<CsrMatrix>,
    x: Vec<Vec<f64>>,
    r: Vec<Vec<f64>>,
    p_dir: Vec<LocalVector>,
    ap: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
    rr: f64,
    b_norm: f64,
    iteration: usize,
    bytes_moved: u64,
}

impl DistCg {
    /// Distributes `A x = b` over `part` and initializes from the zero
    /// guess.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn new(a: &CsrMatrix, b: &[f64], part: Partition) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "distributed CG requires square A");
        assert_eq!(b.len(), a.nrows(), "rhs length mismatch");
        assert_eq!(part.n(), a.nrows(), "partition does not match matrix");
        let p = part.num_ranks();
        let plan = HaloPlan::build_cached(a, &part);

        // Remap each rank's rows to local column numbering: columns inside
        // the range map to [0, len); halo columns map to len + position in
        // the sorted recv list.
        let mut local_a = Vec::with_capacity(p);
        for rank in 0..p {
            let range = part.range(rank);
            let recv = plan.recv_indices(rank);
            let local_cols = range.len() + recv.len();
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut values = Vec::new();
            for r in range.clone() {
                for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                    #[expect(
                        clippy::expect_used,
                        reason = "recv is built from exactly these off-range columns"
                    )]
                    let lc = if range.contains(&c) {
                        c - range.start
                    } else {
                        range.len()
                            + recv
                                .binary_search(&c)
                                .expect("halo plan must cover every off-range column")
                    };
                    col_idx.push(lc);
                    values.push(v);
                }
                row_ptr.push(col_idx.len());
            }
            // Columns within a row are not globally sorted after remapping
            // (own block first, halo after), so re-sort per row.
            for w in 0..range.len() {
                let (lo, hi) = (row_ptr[w], row_ptr[w + 1]);
                let mut pairs: Vec<(usize, f64)> = col_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|&(c, _)| c);
                for (k, (c, v)) in pairs.into_iter().enumerate() {
                    col_idx[lo + k] = c;
                    values[lo + k] = v;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "panel arrays are built row-by-row above, invariants hold"
            )]
            local_a.push(
                CsrMatrix::from_raw_parts(range.len(), local_cols, row_ptr, col_idx, values)
                    .expect("remapped local panel must be valid CSR"),
            );
        }

        let b_norm = rsls_sparse::vector::norm2(b).max(f64::MIN_POSITIVE);
        let mut dist = DistCg {
            x: (0..p).map(|r| vec![0.0; part.len(r)]).collect(),
            r: (0..p).map(|r| b[part.range(r)].to_vec()).collect(),
            p_dir: (0..p)
                .map(|r| LocalVector {
                    own: b[part.range(r)].to_vec(),
                    halo: vec![0.0; plan.recv_indices(r).len()],
                })
                .collect(),
            ap: (0..p).map(|r| vec![0.0; part.len(r)]).collect(),
            b: (0..p).map(|r| b[part.range(r)].to_vec()).collect(),
            rr: 0.0,
            b_norm,
            iteration: 0,
            bytes_moved: 0,
            local_a,
            plan,
            part,
        };
        dist.rr = dist.reduce_dot_rr();
        dist
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.part.num_ranks()
    }

    /// Completed iterations.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Total halo bytes moved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// `||r|| / ||b||`.
    pub fn relative_residual(&self) -> f64 {
        self.rr.sqrt() / self.b_norm
    }

    /// Reassembles the global iterate (a gather, for inspection).
    pub fn x_global(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.part.n()];
        for (rank, xr) in self.x.iter().enumerate() {
            out[self.part.range(rank)].copy_from_slice(xr);
        }
        out
    }

    /// The halo-exchange + reduction plan (for communication-volume
    /// inspection).
    pub fn plan(&self) -> &HaloPlan {
        &self.plan
    }

    fn exchange_halos(&mut self) {
        // "Messages": copy owned entries of p into peers' halo buffers.
        let p = self.num_ranks();
        for rank in 0..p {
            let recv = self.plan.recv_indices(rank).to_vec();
            for (slot, gidx) in recv.iter().enumerate() {
                let owner = self.part.owner(*gidx);
                let local = gidx - self.part.range(owner).start;
                self.p_dir[rank].halo[slot] = self.p_dir[owner].own[local];
            }
            self.bytes_moved += recv.len() as u64 * 8;
        }
    }

    /// Rank-by-rank reduction of `Σ r·r` (deterministic order, like a
    /// fixed-topology allreduce).
    fn reduce_dot_rr(&self) -> f64 {
        self.r
            .iter()
            .map(|rr| rr.iter().map(|v| v * v).sum::<f64>())
            .sum()
    }

    fn reduce_dot_p_ap(&self) -> f64 {
        self.p_dir
            .iter()
            .zip(&self.ap)
            .map(|(pd, ap)| pd.own.iter().zip(ap).map(|(a, b)| a * b).sum::<f64>())
            .sum()
    }

    /// One lockstep CG iteration across all ranks; returns the new
    /// relative residual.
    pub fn step(&mut self) -> f64 {
        self.exchange_halos();
        let p = self.num_ranks();
        // Local SpMV on [own | halo].
        for rank in 0..p {
            let pd = &self.p_dir[rank];
            let mut input = Vec::with_capacity(pd.own.len() + pd.halo.len());
            input.extend_from_slice(&pd.own);
            input.extend_from_slice(&pd.halo);
            self.local_a[rank].spmv(&input, &mut self.ap[rank]);
        }
        let pap = self.reduce_dot_p_ap();
        if pap <= 0.0 || !pap.is_finite() {
            self.iteration += 1;
            return self.relative_residual();
        }
        let alpha = self.rr / pap;
        for rank in 0..p {
            for ((xi, pi), (ri, api)) in self.x[rank]
                .iter_mut()
                .zip(&self.p_dir[rank].own)
                .zip(self.r[rank].iter_mut().zip(&self.ap[rank]))
            {
                *xi += alpha * pi;
                *ri -= alpha * api;
            }
        }
        let rr_new = self.reduce_dot_rr();
        let beta = rr_new / self.rr;
        for rank in 0..p {
            for (pi, ri) in self.p_dir[rank].own.iter_mut().zip(&self.r[rank]) {
                *pi = ri + beta * *pi;
            }
        }
        self.rr = rr_new;
        self.iteration += 1;
        self.relative_residual()
    }

    /// Runs until the relative residual reaches `tol` or `max_iters`;
    /// returns `(iterations, converged)`.
    pub fn solve(&mut self, tol: f64, max_iters: usize) -> (usize, bool) {
        while self.iteration < max_iters {
            if self.relative_residual() <= tol {
                return (self.iteration, true);
            }
            self.step();
        }
        (self.iteration, self.relative_residual() <= tol)
    }

    /// Corrupts one rank's local state (what a node failure does to the
    /// physical layout).
    pub fn corrupt_rank(&mut self, rank: usize) {
        for v in &mut self.x[rank] {
            *v = f64::NAN;
        }
    }

    /// Overwrites one rank's block of `x` (a recovery action) and repairs
    /// the CG state: every rank recomputes `r = b − A x` after a halo
    /// exchange of `x`, then resets its search direction.
    pub fn restore_rank(&mut self, rank: usize, block: &[f64]) {
        assert_eq!(block.len(), self.part.len(rank));
        self.x[rank].copy_from_slice(block);
        // Repair: exchange x-halos, recompute residuals.
        let p = self.num_ranks();
        for rk in 0..p {
            let recv = self.plan.recv_indices(rk).to_vec();
            let mut input = Vec::with_capacity(self.x[rk].len() + recv.len());
            input.extend_from_slice(&self.x[rk]);
            for gidx in &recv {
                let owner = self.part.owner(*gidx);
                let local = gidx - self.part.range(owner).start;
                input.push(self.x[owner][local]);
            }
            self.bytes_moved += recv.len() as u64 * 8;
            self.local_a[rk].spmv(&input, &mut self.ap[rk]);
        }
        for rk in 0..p {
            for ((ri, bi), api) in self.r[rk].iter_mut().zip(&self.b[rk]).zip(&self.ap[rk]) {
                *ri = bi - api;
            }
            self.p_dir[rk].own.copy_from_slice(&self.r[rk]);
        }
        self.rr = self.reduce_dot_rr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cg, CgConfig};
    use rsls_sparse::generators::{banded_spd, stencil_2d, BandedConfig};
    use rsls_sparse::vector::dist2;

    fn system(n: usize) -> (CsrMatrix, Vec<f64>) {
        let a = banded_spd(&BandedConfig::regular(n, 7, 0.05, 9));
        let ones = vec![1.0; n];
        let mut b = vec![0.0; n];
        a.spmv(&ones, &mut b);
        (a, b)
    }

    #[test]
    fn halo_plan_covers_exactly_the_off_range_columns() {
        let (a, _) = system(100);
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

    #[test]
    fn distributed_matches_sequential_cg() {
        let (a, b) = system(120);
        let part = Partition::balanced(120, 5);
        let mut dist = DistCg::new(&a, &b, part);
        let mut seq = Cg::from_zero(&a, &b);
        for _ in 0..40 {
            let rd = dist.step();
            let rs = seq.step();
            assert!(
                (rd - rs).abs() <= 1e-9 * rs.max(1e-30),
                "iter {}: dist {rd} vs seq {rs}",
                dist.iteration()
            );
        }
        assert!(dist2(&dist.x_global(), seq.x()) < 1e-9);
    }

    #[test]
    fn distributed_solves_the_stencil() {
        let a = stencil_2d(20, 20);
        let ones = vec![1.0; 400];
        let mut b = vec![0.0; 400];
        a.spmv(&ones, &mut b);
        let mut dist = DistCg::new(&a, &b, Partition::balanced(400, 8));
        let (_, ok) = dist.solve(1e-10, 2000);
        assert!(ok);
        assert!(dist2(&dist.x_global(), &ones) < 1e-6);
    }

    #[test]
    fn comm_volume_matches_the_plan() {
        let (a, b) = system(200);
        let part = Partition::balanced(200, 4);
        let mut dist = DistCg::new(&a, &b, part);
        let per_exchange = dist.plan().bytes_per_exchange();
        assert!(per_exchange > 0);
        for _ in 0..5 {
            dist.step();
        }
        assert_eq!(dist.bytes_moved(), 5 * per_exchange);
    }

    #[test]
    fn corrupt_and_restore_round_trips() {
        let (a, b) = system(90);
        let part = Partition::balanced(90, 3);
        let mut dist = DistCg::new(&a, &b, part.clone());
        for _ in 0..10 {
            dist.step();
        }
        let before = dist.x_global();
        dist.corrupt_rank(1);
        // Recover with the pre-fault block (an idealized exact recovery).
        let block = before[part.range(1)].to_vec();
        dist.restore_rank(1, &block);
        assert!(dist2(&dist.x_global(), &before) < 1e-14);
        // And the solver still converges.
        let (_, ok) = dist.solve(1e-10, 5000);
        assert!(ok);
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let (a, b) = system(60);
        let mut dist = DistCg::new(&a, &b, Partition::balanced(60, 1));
        assert_eq!(dist.plan().bytes_per_exchange(), 0);
        let (_, ok) = dist.solve(1e-10, 1000);
        assert!(ok);
        let mut seq = Cg::from_zero(&a, &b);
        let (_, ok2) = seq.solve(&CgConfig {
            tolerance: 1e-10,
            max_iterations: 1000,
        });
        assert!(ok2);
        assert!(dist2(&dist.x_global(), seq.x()) < 1e-9);
    }
}
