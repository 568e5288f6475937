#![deny(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
//! Deterministic virtual-cluster performance model.
//!
//! This crate plays the role the MPI cluster plays in the paper: it owns
//! per-rank virtual clocks and charges time for computation and
//! communication through an α–β (latency/bandwidth) model with log₂(p)
//! tree collectives. The actual numerics happen elsewhere (exactly, in
//! ordinary `f64` arithmetic); only *time* is modeled here, which makes
//! every experiment bit-reproducible while preserving the cost structure
//! the paper measures.
//!
//! The three storage tiers the paper's recovery schemes exercise are all
//! modeled: core-local computation ([`Cluster::compute`]), node-local
//! memory ([`Cluster::memory_write`], used by CR-M), and a *shared*
//! parallel file system ([`Cluster::disk_write`], used by CR-D — its cost
//! grows with the total data volume, reproducing the paper's observation
//! that CR-D checkpoint cost scales linearly with system size).

pub mod config;
pub mod ledger;
pub mod topology;
pub mod trace;

pub use config::MachineConfig;
pub use ledger::{ActivityKind, Ledger};
pub use topology::Topology;
pub use trace::{TraceEvent, TraceKind};

/// A deterministic virtual cluster of `p` ranks.
///
/// Every operation advances one or more per-rank clocks. Synchronizing
/// operations (collectives, barriers) align clocks to the slowest
/// participant and account the difference as idle time, which the power
/// model later converts to idle energy.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: MachineConfig,
    clocks: Vec<f64>,
    /// Per-rank execution speed factor (1.0 = nominal frequency). The power
    /// crate maps DVFS frequency to this factor; the cluster itself is
    /// frequency-agnostic.
    speed: Vec<f64>,
    ledger: Ledger,
    trace: trace::Trace,
}

impl Cluster {
    /// Creates a cluster of `num_ranks` ranks with the given machine model.
    ///
    /// # Panics
    /// Panics if `num_ranks == 0`.
    pub fn new(cfg: MachineConfig, num_ranks: usize) -> Self {
        assert!(num_ranks > 0, "cluster needs at least one rank");
        Cluster {
            cfg,
            clocks: vec![0.0; num_ranks],
            speed: vec![1.0; num_ranks],
            ledger: Ledger::new(num_ranks),
            trace: trace::Trace::disabled(),
        }
    }

    /// Enables event tracing with the given capacity (events beyond the
    /// capacity are dropped, counting drops).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = trace::Trace::with_capacity(capacity);
    }

    /// The machine model.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.clocks.len()
    }

    /// Current virtual time of `rank`.
    pub fn clock(&self, rank: usize) -> f64 {
        self.clocks[rank]
    }

    /// The latest clock over all ranks — the cluster-wide makespan.
    pub fn max_clock(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// Per-rank and aggregate activity times.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Recorded trace events (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.events()
    }

    /// Sets the execution-speed factor of `rank` (time dilation for DVFS:
    /// a factor of 0.5 makes compute take twice as long).
    ///
    /// # Panics
    /// Panics if `factor <= 0`.
    pub fn set_speed_factor(&mut self, rank: usize, factor: f64) {
        assert!(factor > 0.0, "speed factor must be positive");
        self.speed[rank] = factor;
    }

    /// Current speed factor of `rank`.
    pub fn speed_factor(&self, rank: usize) -> f64 {
        self.speed[rank]
    }

    /// Charges `flops` of computation to `rank`.
    pub fn compute(&mut self, rank: usize, flops: u64) {
        let dt = flops as f64 / (self.cfg.flops_per_sec * self.speed[rank]);
        self.advance(rank, dt, ActivityKind::Compute);
        self.trace
            .push(TraceKind::Compute { rank, flops }, self.clocks[rank]);
    }

    /// Charges `flops` of computation to every rank (the per-iteration SpMV
    /// and BLAS-1 work of a perfectly balanced block-row CG step).
    pub fn compute_all(&mut self, flops_per_rank: u64) {
        for rank in 0..self.num_ranks() {
            self.compute(rank, flops_per_rank);
        }
    }

    /// Point-to-point message of `bytes` from `src` to `dst`.
    ///
    /// Both endpoints advance: the transfer starts when both are ready
    /// (rendezvous) and takes `α + β·bytes`.
    pub fn send(&mut self, src: usize, dst: usize, bytes: u64) {
        assert_ne!(src, dst, "send requires distinct ranks");
        let start = self.clocks[src].max(self.clocks[dst]);
        let dt = self.cfg.net_latency_s + bytes as f64 / self.cfg.net_bw_bytes_per_sec;
        // Account the wait of the earlier party as idle.
        self.wait_until(src, start);
        self.wait_until(dst, start);
        self.advance(src, dt, ActivityKind::Communicate);
        self.advance(dst, dt, ActivityKind::Communicate);
        self.ledger.add_bytes(bytes);
        self.trace
            .push(TraceKind::Send { src, dst, bytes }, start + dt);
    }

    /// Nearest-neighbor halo exchange: every rank exchanges `bytes` with
    /// each of its `neighbors` (e.g. 2 for a banded partition). No global
    /// synchronization is implied.
    pub fn halo_exchange(&mut self, bytes: u64, neighbors: usize) {
        let dt = neighbors as f64
            * (self.cfg.net_latency_s + bytes as f64 / self.cfg.net_bw_bytes_per_sec);
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Communicate);
        }
        self.ledger
            .add_bytes(bytes * neighbors as u64 * self.num_ranks() as u64);
        self.trace.push(
            TraceKind::Collective {
                name: "halo",
                bytes,
            },
            self.max_clock(),
        );
    }

    /// Topology-aware halo exchange: with contiguous neighbor ranks, a
    /// rank's partners usually sit on the *same node*, where the exchange
    /// goes through shared memory at a fraction of the network cost. Each
    /// rank pays the intra-node price for same-node partners and the full
    /// network price for the (at most two) node-boundary partners.
    pub fn halo_exchange_on(
        &mut self,
        bytes: u64,
        neighbors: usize,
        topo: &Topology,
        intra_node_factor: f64,
    ) {
        assert!((0.0..=1.0).contains(&intra_node_factor));
        let net = self.cfg.net_latency_s + bytes as f64 / self.cfg.net_bw_bytes_per_sec;
        let intra = net * intra_node_factor;
        let p = self.num_ranks();
        let mut total_bytes = 0u64;
        for rank in 0..p {
            let mut dt = 0.0;
            for d in 1..=neighbors.div_ceil(2) {
                for peer in [rank.checked_sub(d), Some(rank + d)] {
                    let Some(peer) = peer else { continue };
                    if peer >= p || peer == rank {
                        continue;
                    }
                    dt += if rank < topo.num_ranks()
                        && peer < topo.num_ranks()
                        && topo.same_node(rank, peer)
                    {
                        intra
                    } else {
                        net
                    };
                    total_bytes += bytes;
                }
            }
            self.advance(rank, dt, ActivityKind::Communicate);
        }
        self.ledger.add_bytes(total_bytes);
        self.trace.push(
            TraceKind::Collective {
                name: "halo-topo",
                bytes,
            },
            self.max_clock(),
        );
    }

    /// Allreduce of `bytes` per rank (recursive doubling:
    /// `2·⌈log₂ p⌉` rounds of `α + β·bytes`). Synchronizes all ranks.
    pub fn allreduce(&mut self, bytes: u64) {
        let rounds = 2 * ceil_log2(self.num_ranks());
        let dt =
            rounds as f64 * (self.cfg.net_latency_s + bytes as f64 / self.cfg.net_bw_bytes_per_sec);
        self.sync_to_max();
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Communicate);
        }
        self.ledger
            .add_bytes(bytes * (rounds as u64) * self.num_ranks() as u64);
        self.trace.push(
            TraceKind::Collective {
                name: "allreduce",
                bytes,
            },
            self.max_clock(),
        );
    }

    /// Broadcast of `bytes` from `root` to all ranks (binomial tree).
    pub fn broadcast(&mut self, _root: usize, bytes: u64) {
        let rounds = ceil_log2(self.num_ranks());
        let dt =
            rounds as f64 * (self.cfg.net_latency_s + bytes as f64 / self.cfg.net_bw_bytes_per_sec);
        self.sync_to_max();
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Communicate);
        }
        self.ledger.add_bytes(bytes * self.num_ranks() as u64);
        self.trace.push(
            TraceKind::Collective {
                name: "broadcast",
                bytes,
            },
            self.max_clock(),
        );
    }

    /// Gather of `bytes_per_rank` to `root` (binomial tree, bandwidth term
    /// dominated by the root receiving all data).
    pub fn gather(&mut self, _root: usize, bytes_per_rank: u64) {
        let rounds = ceil_log2(self.num_ranks());
        let total = bytes_per_rank * (self.num_ranks() as u64 - 1);
        let dt =
            rounds as f64 * self.cfg.net_latency_s + total as f64 / self.cfg.net_bw_bytes_per_sec;
        self.sync_to_max();
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Communicate);
        }
        self.ledger.add_bytes(total);
        self.trace.push(
            TraceKind::Collective {
                name: "gather",
                bytes: bytes_per_rank,
            },
            self.max_clock(),
        );
    }

    /// Barrier: aligns all clocks to the slowest rank plus the latency of a
    /// `⌈log₂ p⌉`-round dissemination barrier.
    pub fn barrier(&mut self) {
        self.sync_to_max();
        let dt = ceil_log2(self.num_ranks()) as f64 * self.cfg.net_latency_s;
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Communicate);
        }
        self.trace.push(
            TraceKind::Collective {
                name: "barrier",
                bytes: 0,
            },
            self.max_clock(),
        );
    }

    /// Writes `bytes_per_rank` from every rank to node-local memory
    /// (the CR-M checkpoint path). Per-rank cost, independent of `p`.
    pub fn memory_write(&mut self, bytes_per_rank: u64) {
        let dt = bytes_per_rank as f64 / self.cfg.mem_bw_bytes_per_sec;
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Checkpoint);
        }
        self.trace.push(
            TraceKind::Storage {
                tier: "memory",
                bytes: bytes_per_rank,
            },
            self.max_clock(),
        );
    }

    /// Reads `bytes_per_rank` into every rank from node-local memory.
    pub fn memory_read(&mut self, bytes_per_rank: u64) {
        self.memory_write(bytes_per_rank); // symmetric cost
    }

    /// Writes `bytes_per_rank` from every rank to the *shared* parallel
    /// file system (the CR-D checkpoint path). All ranks block for
    /// `latency + total_bytes / aggregate_bw`; with weak scaling the total
    /// grows with `p`, so the per-checkpoint cost grows linearly with
    /// system size — the paper's measured behaviour for CR-D.
    pub fn disk_write(&mut self, bytes_per_rank: u64) {
        let total = bytes_per_rank * self.num_ranks() as u64;
        let dt = self.cfg.disk_latency_s + total as f64 / self.cfg.disk_bw_bytes_per_sec;
        self.sync_to_max();
        for rank in 0..self.num_ranks() {
            self.advance(rank, dt, ActivityKind::Checkpoint);
        }
        self.trace.push(
            TraceKind::Storage {
                tier: "disk",
                bytes: total,
            },
            self.max_clock(),
        );
    }

    /// Reads `bytes_per_rank` into every rank from the shared file system.
    pub fn disk_read(&mut self, bytes_per_rank: u64) {
        self.disk_write(bytes_per_rank); // symmetric cost
    }

    /// Advances `rank` by reconstruction work while the other ranks fall
    /// behind (their idle time is accounted when they resynchronize).
    pub fn exclusive_compute(&mut self, rank: usize, flops: u64) {
        let dt = flops as f64 / (self.cfg.flops_per_sec * self.speed[rank]);
        self.advance(rank, dt, ActivityKind::Reconstruct);
        self.trace
            .push(TraceKind::Compute { rank, flops }, self.clocks[rank]);
    }

    /// Aligns all clocks to the current maximum, accounting the slack of
    /// each waiting rank as idle time.
    pub fn sync_to_max(&mut self) {
        let target = self.max_clock();
        for rank in 0..self.num_ranks() {
            self.wait_until(rank, target);
        }
    }

    fn wait_until(&mut self, rank: usize, target: f64) {
        let slack = target - self.clocks[rank];
        if slack > 0.0 {
            self.advance(rank, slack, ActivityKind::Idle);
        }
    }

    fn advance(&mut self, rank: usize, dt: f64, kind: ActivityKind) {
        debug_assert!(dt >= 0.0, "time must not run backwards");
        self.clocks[rank] += dt;
        self.ledger.add(rank, kind, dt);
    }
}

/// `⌈log₂ p⌉`, with `ceil_log2(1) == 0`.
pub fn ceil_log2(p: usize) -> u32 {
    debug_assert!(p > 0);
    usize::BITS - (p - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(p: usize) -> Cluster {
        Cluster::new(MachineConfig::default(), p)
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(256), 8);
    }

    #[test]
    fn compute_advances_only_target_rank() {
        let mut c = cluster(4);
        c.compute(2, 1_000_000);
        assert!(c.clock(2) > 0.0);
        assert_eq!(c.clock(0), 0.0);
        assert_eq!(c.max_clock(), c.clock(2));
    }

    #[test]
    fn slower_rank_takes_longer() {
        let mut c = cluster(2);
        c.set_speed_factor(1, 0.5);
        c.compute(0, 1_000_000);
        c.compute(1, 1_000_000);
        assert!((c.clock(1) - 2.0 * c.clock(0)).abs() < 1e-12);
    }

    #[test]
    fn allreduce_synchronizes_clocks() {
        let mut c = cluster(8);
        c.compute(3, 10_000_000);
        c.allreduce(8);
        let t = c.clock(0);
        assert!((0..8).all(|r| (c.clock(r) - t).abs() < 1e-12));
        // Idle time was charged to the 7 ranks that waited.
        assert!(c.ledger().total(ActivityKind::Idle) > 0.0);
    }

    #[test]
    fn allreduce_cost_grows_logarithmically() {
        let dt_of = |p: usize| {
            let mut c = cluster(p);
            c.allreduce(8);
            c.max_clock()
        };
        let t4 = dt_of(4);
        let t16 = dt_of(16);
        let t256 = dt_of(256);
        assert!((t16 / t4 - 2.0).abs() < 1e-9); // log 4 = 2, log 16 = 4
        assert!((t256 / t4 - 4.0).abs() < 1e-9); // log 256 = 8
    }

    #[test]
    fn send_rendezvous_waits_for_late_party() {
        let mut c = cluster(2);
        c.compute(0, 50_000_000);
        let t0 = c.clock(0);
        c.send(0, 1, 1024);
        assert!(c.clock(1) > t0);
        assert!((c.clock(0) - c.clock(1)).abs() < 1e-12);
    }

    #[test]
    fn disk_write_scales_with_cluster_size() {
        let per_rank = 8 * 1024 * 1024u64;
        let t_of = |p: usize| {
            let mut c = cluster(p);
            c.disk_write(per_rank);
            c.max_clock()
        };
        let (t2, t8) = (t_of(2), t_of(8));
        assert!(
            t8 > 3.0 * t2,
            "shared-disk checkpoint must scale with p: {t2} vs {t8}"
        );
    }

    #[test]
    fn memory_write_is_independent_of_cluster_size() {
        let per_rank = 8 * 1024 * 1024u64;
        let t_of = |p: usize| {
            let mut c = cluster(p);
            c.memory_write(per_rank);
            c.max_clock()
        };
        assert!((t_of(2) - t_of(64)).abs() < 1e-12);
    }

    #[test]
    fn ledger_accounts_all_time() {
        let mut c = cluster(4);
        c.compute_all(1_000_000);
        c.compute(0, 5_000_000);
        c.allreduce(8);
        let total_clock: f64 = (0..4).map(|r| c.clock(r)).sum();
        let total_ledger = c.ledger().grand_total();
        assert!((total_clock - total_ledger).abs() < 1e-9);
    }

    #[test]
    fn trace_records_events_when_enabled() {
        let mut c = cluster(2);
        c.enable_trace(16);
        c.compute(0, 1);
        c.send(0, 1, 64);
        assert_eq!(c.trace().len(), 2);
    }

    #[test]
    fn trace_is_disabled_by_default() {
        let mut c = cluster(2);
        c.compute(0, 1);
        assert!(c.trace().is_empty());
    }

    #[test]
    fn topology_aware_halo_is_cheaper_when_ranks_share_nodes() {
        let bytes = 64 * 1024;
        // All 24 ranks on one node: every exchange is intra-node.
        let mut one_node = cluster(24);
        one_node.halo_exchange_on(bytes, 2, &Topology::new(24, 24), 0.1);
        // One rank per node: every exchange crosses the network.
        let mut spread = cluster(24);
        spread.halo_exchange_on(bytes, 2, &Topology::new(24, 1), 0.1);
        assert!(
            one_node.max_clock() < 0.3 * spread.max_clock(),
            "intra-node halos must be much cheaper: {} vs {}",
            one_node.max_clock(),
            spread.max_clock()
        );
        // And the plain model matches the fully-spread case.
        let mut plain = cluster(24);
        plain.halo_exchange(bytes, 2);
        // Interior ranks pay the same; boundary ranks pay less in the
        // topology-aware version (they have one neighbor, not two).
        assert!(spread.max_clock() <= plain.max_clock() + 1e-12);
    }

    #[test]
    fn exclusive_compute_leaves_other_ranks_behind() {
        let mut c = cluster(3);
        c.exclusive_compute(1, 10_000_000);
        assert_eq!(c.clock(0), 0.0);
        assert!(c.clock(1) > 0.0);
        c.sync_to_max();
        assert!((c.clock(0) - c.clock(1)).abs() < 1e-12);
        assert!(c.ledger().rank_total(0, ActivityKind::Idle) > 0.0);
        assert!(c.ledger().rank_total(1, ActivityKind::Reconstruct) > 0.0);
    }
}
