//! The resilient-CG driver: solver × faults × recovery × cluster × power.
//!
//! [`run`] executes one deterministic experiment: a step-wise CG on the
//! virtual cluster, with faults injected per the schedule and repaired per
//! the configured scheme, while the [`EnergyMeter`] integrates power over
//! every phase. The result is a [`RunReport`] carrying the paper's three
//! metrics (`T`, `P`, `E`), the phase breakdown, the residual history,
//! and the power profile.
//!
//! The scheme is resolved **once**, at the top of [`run`], into a
//! plain-data [`RecoveryPlan`](crate::scheme); nothing below looks at the
//! `Scheme` value again. Every recovery path is one of three steps on the
//! run state [`Sim`]: [`Sim::take_checkpoint`], [`Sim::rollback`] (node
//! faults and system-wide outages alike) and [`Sim::reconstruct`] (k ≥ 1
//! lost blocks: LI/LSI with k = 1, MNF with the whole batch).

use rsls_cluster::{Cluster, MachineConfig};
use rsls_faults::{inject, FaultClass, FaultEffect, FaultEvent, FaultSchedule};
use rsls_power::{CoreState, EnergyMeter, PowerModel, PowerModelConfig};
use rsls_solvers::ResidualHistory;
use rsls_sparse::artifacts::MatrixKey;
use rsls_sparse::{CsrMatrix, Partition, SpmvOperator};

use crate::checkpoint::{CheckpointStore, CompressionModel, DiskStore, MemoryStore};
use crate::construction::{self, ConstructionMethod, Workspace};
use crate::report::{PhaseBreakdown, RunReport};
use crate::scheme::{
    CheckpointPlan, CheckpointStorage, FaultResponse, Fill, Interpolant, Payload, RecoveryPlan,
    Scheme, OUTAGE_RESTORE_DECOMPRESSES,
};
use crate::trajectory::{self, Trajectory, TrajectoryMemo};
use crate::DvfsPolicy;

/// Configuration of one resilient run.
///
/// Serializes stably (see [`crate::hash`]), so a config can serve as a
/// canonical spec for content-addressed result caching.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunConfig {
    /// Recovery scheme under test.
    pub scheme: Scheme,
    /// DVFS policy during forward-recovery construction (§4.2). Ignored
    /// by non-forward schemes.
    pub dvfs: DvfsPolicy,
    /// Number of ranks (one rank per core).
    pub num_ranks: usize,
    /// CG relative-residual tolerance (the paper uses 1e-12).
    pub tolerance: f64,
    /// Iteration cap (safety net for non-converging configurations).
    pub max_iterations: usize,
    /// Fault injection plan.
    pub faults: FaultSchedule,
    /// Machine performance model.
    pub machine: MachineConfig,
    /// Power calibration.
    pub power: PowerModelConfig,
    /// MTBF in seconds, used to resolve Young/Daly checkpoint intervals.
    pub mtbf_s: Option<f64>,
    /// Record the residual history (Figure 6 runs).
    pub record_history: bool,
    /// Initial guess (`None` = zeros). FI restores this slice.
    pub initial_guess: Option<Vec<f64>>,
    /// Distinguishing tag for on-disk checkpoint files.
    pub run_tag: String,
    /// Pin every core to this frequency (GHz, quantized to the DVFS
    /// ladder). `None` runs at the nominal maximum. Used for power-capped
    /// operation: compute time dilates by the model's speed factor and
    /// the power accounting uses the pinned frequency.
    pub frequency_ghz: Option<f64>,
    /// Compress checkpoints before writing them (CPU time for storage
    /// traffic — worthwhile on the shared-disk tier).
    pub checkpoint_compression: Option<CompressionModel>,
}

impl RunConfig {
    /// A config with the paper's defaults: tolerance 1e-12, generous
    /// iteration cap, OS-default DVFS, no faults.
    pub fn new(scheme: Scheme, num_ranks: usize) -> Self {
        RunConfig {
            scheme,
            dvfs: DvfsPolicy::OsDefault,
            num_ranks,
            tolerance: 1e-12,
            max_iterations: 2_000_000,
            faults: FaultSchedule::fault_free(),
            machine: MachineConfig::default(),
            power: PowerModelConfig::default(),
            mtbf_s: None,
            record_history: false,
            initial_guess: None,
            run_tag: "run".to_string(),
            frequency_ghz: None,
            checkpoint_compression: None,
        }
    }

    /// Builder-style fault schedule.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style DVFS policy.
    pub fn with_dvfs(mut self, dvfs: DvfsPolicy) -> Self {
        self.dvfs = dvfs;
        self
    }

    /// Stable content hash of this config's canonical JSON form.
    ///
    /// Two configs hash equal iff their serialized specs are identical,
    /// so this is a valid cache key for [`run`] results *on the same
    /// system* — callers caching across systems must also key on the
    /// matrix and right-hand side (see `rsls-campaign`'s `UnitSpec`).
    pub fn spec_hash(&self) -> String {
        let json = serde_json::Writer::compact().render(self);
        crate::hash::sha256_hex(json.as_bytes())
    }
}

/// Per-iteration cost constants, precomputed once per run.
struct IterCosts {
    /// Flops charged to each rank per CG iteration.
    flops_per_rank: u64,
    /// Halo bytes exchanged with each neighbor per iteration.
    halo_bytes: u64,
    /// Checkpoint payload per rank (checkpoint schemes).
    ckpt_bytes_per_rank: u64,
}

fn iteration_costs(a: &CsrMatrix, part: &Partition) -> IterCosts {
    let p = part.num_ranks();
    let mut max_flops = 0u64;
    let mut total_off = 0u64;
    for (_, range) in part.iter() {
        let local_nnz: usize = range.clone().map(|r| a.row_cols(r).len()).sum();
        let flops = 2 * local_nnz as u64 + 10 * range.len() as u64;
        max_flops = max_flops.max(flops);
        total_off += a.off_block_nnz(range.clone(), range) as u64;
    }
    IterCosts {
        flops_per_rank: max_flops,
        halo_bytes: (total_off / p as u64 / 2).max(8) * 8,
        ckpt_bytes_per_rank: (part.max_len() * 8 + 16) as u64,
    }
}

/// Charges one CG iteration's compute + communication to the cluster.
fn charge_iteration(cluster: &mut Cluster, costs: &IterCosts) {
    cluster.compute_all(costs.flops_per_rank);
    cluster.halo_exchange(costs.halo_bytes, 2);
    cluster.allreduce(8);
    cluster.allreduce(8);
}

/// Everything one run mutates, so that each recovery step is a method
/// instead of an inline arm per scheme.
struct Sim<'a> {
    a: &'a CsrMatrix,
    b: &'a [f64],
    cfg: &'a RunConfig,
    plan: RecoveryPlan,
    part: Partition,
    costs: IterCosts,
    cluster: Cluster,
    meter: EnergyMeter,
    cg: Trajectory<'a>,
    x0: Vec<f64>,
    /// Frequency every core runs at (the pinned one under a power cap).
    f_run: f64,
    /// Frequency of the cores that wait out a reconstruction (§4.2).
    f_wait: f64,
    /// Powered cores: DMR runs a full replica (TMR two) for the entire run.
    core_count: usize,
    mem_store: MemoryStore,
    disk_store: DiskStore,
    /// Bytes per rank one checkpoint stores, after compression.
    stored_ckpt_bytes: u64,
    /// Flops per rank to compress (or decompress) one checkpoint.
    compress_flops: u64,
    breakdown: PhaseBreakdown,
    /// Virtual time up to which power has been metered.
    seg_start: f64,
    /// Reconstruction scratch, allocated lazily on the first fault so
    /// fault-free runs pay nothing.
    ws: Workspace,
    /// The matrix's content key, hashed once per run.
    matrix_key: MatrixKey,
    checkpoints_taken: usize,
    checkpoint_bytes_written: u64,
    construction_fallbacks: usize,
}

impl Sim<'_> {
    /// Meters everything since the last phase boundary with every powered
    /// core in `state`, makes the current clock the new boundary, and
    /// returns the phase's length.
    fn close_phase(&mut self, state: CoreState) -> f64 {
        let (t0, t1) = (self.seg_start, self.cluster.max_clock());
        self.meter
            .account(t0, t1, &[(state, self.f_run, self.core_count)]);
        self.seg_start = t1;
        t1 - t0
    }

    /// Post-recovery state repair — recompute `r = b − Ax`, reset `p`: one
    /// SpMV + vector work + one reduction at normal-operation power.
    /// Starts at a phase boundary.
    fn repair_and_restart(&mut self) {
        self.cluster.compute_all(self.costs.flops_per_rank);
        self.cluster.halo_exchange(self.costs.halo_bytes, 2);
        self.cluster.allreduce(8);
        self.cg.restart();
        self.breakdown.repair_s += self.close_phase(CoreState::Compute);
    }

    /// Corrupts what a node fault takes out: the rank's block of the
    /// iterate. (A system-wide outage rolls back, which overwrites all
    /// of it.)
    fn lose_data(&mut self, ev: &FaultEvent, iter: usize) {
        let lost = self.part.range(ev.rank);
        inject(
            self.cg.x_slice_mut(lost),
            FaultEffect::for_class(ev.class),
            ev.rank as u64 ^ iter as u64,
        );
    }

    /// Writes one periodic checkpoint: every level the tier calls for,
    /// carrying the plan's payload.
    ///
    /// Checkpoint-store failures are simulation-internal: the memory store
    /// is infallible and the disk store writes a process-private temp
    /// file. A panic here is the designed failure path — the campaign
    /// engine isolates it and records the unit `failed` without aborting
    /// the batch.
    fn take_checkpoint(&mut self, ckpt: &CheckpointPlan, iter: usize) {
        self.close_phase(CoreState::Compute);
        self.checkpoints_taken += 1;
        if self.compress_flops > 0 {
            self.cluster.compute_all(self.compress_flops);
        }
        // Multilevel's frequent level is memory; every `disk_every`-th
        // checkpoint additionally goes to disk.
        let to_memory = ckpt.tier != CheckpointStorage::Disk;
        let to_disk = match ckpt.tier {
            CheckpointStorage::Memory => false,
            CheckpointStorage::Disk => true,
            CheckpointStorage::Multilevel { disk_every } => {
                self.checkpoints_taken.is_multiple_of(disk_every.max(1))
            }
        };
        let level_bytes = self.stored_ckpt_bytes * self.cfg.num_ranks as u64;
        if to_memory {
            self.cluster.memory_write(self.stored_ckpt_bytes);
            self.checkpoint_bytes_written += level_bytes;
            #[expect(clippy::expect_used, reason = "in-memory store is infallible")]
            self.mem_store
                .save(iter, self.cg.x())
                .expect("in-memory checkpoint cannot fail");
        }
        if to_disk {
            self.cluster.disk_write(self.stored_ckpt_bytes);
            self.checkpoint_bytes_written += level_bytes;
            self.meter.account_storage_bytes(level_bytes);
            #[expect(
                clippy::expect_used,
                reason = "temp-dir write failure is isolated by the campaign engine"
            )]
            match ckpt.payload {
                Payload::Plain => self.disk_store.save(iter, self.cg.x()),
                Payload::Lossy(codec) => {
                    self.disk_store.save(iter, &codec.quantize_vec(self.cg.x()))
                }
                Payload::Krylov => self.disk_store.save_full(&self.cg.capture_state()),
            }
            .expect("disk checkpoint failed — temp dir unwritable?");
        }
        self.breakdown.checkpoint_s += self.close_phase(CoreState::StorageWait);
    }

    /// Rolls the solver back after a fault of `class`: reload whichever
    /// checkpoint survives it (the initial guess when none does, or none
    /// exists yet), then either continue from an exactly restored Krylov
    /// state or `set_x` + repair + restart.
    ///
    /// A system-wide outage loses *all* dynamic data, including any
    /// replica (DMR) and any in-memory checkpoint. Only a persistent
    /// (disk) checkpoint retains progress — the paper's point that CR-M
    /// "is not practical to common fault situations with lost data in
    /// memory", taken to its system-level extreme.
    fn rollback(&mut self, class: FaultClass) {
        self.close_phase(CoreState::Compute);
        let outage = class == FaultClass::Swo;
        if outage {
            // Restarting the environment reloads static data from the
            // shared file system regardless of scheme.
            self.cluster.disk_read(self.costs.ckpt_bytes_per_rank);
        }
        let mut iterate = None;
        let mut exact = false;
        if let Some(ckpt) = self
            .plan
            .checkpoint
            .filter(|_| !outage || self.plan.family.survives_outage())
        {
            // Multilevel restores node faults from its cheap memory level.
            let from_memory = !outage && ckpt.tier != CheckpointStorage::Disk;
            if from_memory {
                self.cluster.memory_read(self.stored_ckpt_bytes);
            } else {
                self.cluster.disk_read(self.stored_ckpt_bytes);
            }
            if outage || ckpt.node_restore_metered {
                self.meter
                    .account_storage_bytes(self.stored_ckpt_bytes * self.cfg.num_ranks as u64);
            }
            if (!outage || OUTAGE_RESTORE_DECOMPRESSES) && self.compress_flops > 0 {
                self.cluster.compute_all(self.compress_flops);
            }
            if !from_memory && ckpt.payload == Payload::Krylov {
                #[expect(
                    clippy::expect_used,
                    reason = "temp-file read failure is isolated by the campaign engine"
                )]
                let saved = self
                    .disk_store
                    .load_full()
                    .expect("disk checkpoint unreadable");
                if let Some(state) = saved {
                    // The whole Krylov state is back: no residual
                    // recomputation and no restart — post-restore iterates
                    // replay the fault-free sequence bit for bit.
                    self.cg.restore_state(&state);
                    exact = true;
                }
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "the memory store is infallible; temp-file read failure is isolated by the campaign engine"
                )]
                let saved = if from_memory {
                    self.mem_store.load()
                } else {
                    self.disk_store.load()
                }
                .expect("checkpoint unreadable");
                iterate = saved.map(|c| c.x);
            }
        }
        if !exact {
            self.cg.set_x(iterate.as_deref().unwrap_or(&self.x0));
        }
        self.breakdown.restore_s += self.close_phase(CoreState::StorageWait);
        if !exact {
            self.repair_and_restart();
        }
    }

    /// Reconstructs the lost blocks of `ranks` (sorted, k ≥ 1) from the
    /// surviving data and charges gather → parallel work → local solve →
    /// install, then repairs the CG state once for the whole set.
    fn reconstruct(&mut self, how: Interpolant, method: ConstructionMethod, ranks: &[usize]) {
        let (p, k) = (self.cfg.num_ranks, ranks.len());
        self.close_phase(CoreState::Compute);
        let t0 = self.seg_start;
        let key = Some(self.matrix_key);
        // The adaptive inner tolerance keys off the pre-fault progress: the
        // recurrence residual still reflects the state before corruption.
        let outer_relres = self.cg.relative_residual();
        let (ws, a, part, x, b) = (&mut self.ws, self.a, &self.part, self.cg.x(), self.b);
        let res = match how {
            Interpolant::Linear => {
                construction::multi_li_with(ws, key, a, part, ranks, x, b, method, outer_relres)
            }
            Interpolant::LeastSquares => {
                assert_eq!(k, 1, "LSI reconstructs one block at a time");
                construction::lsi_with(ws, key, a, part, ranks[0], x, b, method, outer_relres)
                    .into_multi(ranks[0])
            }
        };

        // Phase 1 — gather the survivors' data to each replacement rank +
        // any parallel work (β assembly, parallel-QR rounds). All cores
        // active: compute power.
        let per_rank_gather = (res.gather_bytes / p as u64).max(8);
        for &rank in ranks {
            self.cluster.gather(rank, per_rank_gather);
        }
        if res.parallel_flops > 0 {
            self.cluster.compute_all(res.parallel_flops / p as u64);
        }
        let max_block = ranks.iter().map(|&r| part.len(r)).max().unwrap_or(0) as u64;
        for _ in 0..res.comm_rounds {
            self.cluster.allreduce(max_block * 8);
        }
        let t1 = self.cluster.max_clock();
        self.meter
            .account(t0, t1, &[(CoreState::Compute, self.f_run, p)]);

        // Phase 2 — the local solve, split across the k replacement ranks;
        // everyone else waits (busy-wait at f_max under the OS policy,
        // throttled to f_min under the paper's DVFS optimization).
        for &rank in ranks {
            self.cluster
                .exclusive_compute(rank, res.local_flops / k as u64);
        }
        self.cluster.sync_to_max();
        let t2 = self.cluster.max_clock();
        if t2 > t1 {
            let mix = [
                (CoreState::Compute, self.f_run, k),
                (CoreState::BusyWait, self.f_wait, p.saturating_sub(k)),
            ];
            self.meter.account(t1, t2, &mix);
        }
        self.breakdown.reconstruct_s += t2 - t0;
        self.seg_start = t2;

        for (rank, block) in &res.blocks {
            self.cg
                .x_slice_mut(self.part.range(*rank))
                .copy_from_slice(block);
        }
        if res.fallback {
            self.construction_fallbacks += 1;
        }
        self.repair_and_restart();
    }
}

/// Executes one resilient run. Deterministic: identical inputs produce a
/// bit-identical [`RunReport`].
///
/// The CG trajectory goes through the process-wide
/// [`trajectory::global`] memo: stretches another run already stepped
/// are replayed, which changes how long the run takes, never its report.
pub fn run(a: &CsrMatrix, b: &[f64], cfg: &RunConfig) -> RunReport {
    run_with_memo(trajectory::global(), a, b, cfg)
}

/// [`run`] through `memo` instead of the process-wide memo.
pub fn run_with_memo(
    memo: &TrajectoryMemo,
    a: &CsrMatrix,
    b: &[f64],
    cfg: &RunConfig,
) -> RunReport {
    assert_eq!(a.nrows(), a.ncols(), "driver requires a square system");
    assert_eq!(b.len(), a.nrows(), "rhs length mismatch");
    assert!(cfg.num_ranks >= 1);
    let n = a.nrows();
    let p = cfg.num_ranks;
    let plan = cfg.scheme.plan();
    let part = Partition::balanced(n, p);
    let costs = iteration_costs(a, &part);

    let mut cluster = Cluster::new(cfg.machine.clone(), p);
    let model = PowerModel::new(cfg.power.clone());
    // Power-capped operation: pin all cores to the requested frequency.
    let f_run = cfg
        .frequency_ghz
        .map(|f| model.freq_table().quantize(f))
        .unwrap_or(model.freq_table().max());
    let run_speed = model.speed_factor(f_run);
    if run_speed != 1.0 {
        for r in 0..p {
            cluster.set_speed_factor(r, run_speed);
        }
    }

    let x0 = cfg.initial_guess.clone().unwrap_or_else(|| vec![0.0; n]);
    assert_eq!(x0.len(), n, "initial guess length mismatch");
    // One content hash per run: the SpMV binding, the reconstruction
    // artifacts and the trajectory memo all key on it.
    let matrix_key = MatrixKey::of(a);
    let cg = Trajectory::new(
        memo,
        matrix_key,
        SpmvOperator::select_keyed(a, matrix_key),
        b,
        &x0,
    );

    // Compression shrinks the stored bytes but charges per-rank CPU time.
    // CR-LC's quantizer and ABFT-CR's triple-vector state override the
    // generic compressor.
    let raw = costs.ckpt_bytes_per_rank;
    let (stored_ckpt_bytes, compress_cpu_s) = match plan.checkpoint.map(|c| c.payload) {
        Some(Payload::Lossy(codec)) => (codec.compressed_bytes(raw), codec.cpu_seconds(raw)),
        Some(Payload::Krylov) => (DiskStore::krylov_checkpoint_bytes(part.max_len()), 0.0),
        _ => match &cfg.checkpoint_compression {
            Some(c) => (c.compressed_bytes(raw), c.cpu_seconds(raw)),
            None => (raw, 0.0),
        },
    };

    let interval_iters = plan.checkpoint.map(|ckpt| {
        // Estimate per-iteration and per-checkpoint virtual cost on a
        // scratch cluster to resolve Young/Daly intervals.
        let mut scratch = Cluster::new(cfg.machine.clone(), p);
        charge_iteration(&mut scratch, &costs);
        let t_iter = scratch.max_clock();
        // Multilevel's frequent level is memory; the (amortized) disk
        // copies are charged when they happen.
        if ckpt.tier == CheckpointStorage::Disk {
            scratch.disk_write(stored_ckpt_bytes);
        } else {
            scratch.memory_write(stored_ckpt_bytes);
        }
        let t_ckpt = scratch.max_clock() - t_iter;
        // Checkpoint-phase power feeds the energy-optimal interval variant.
        let p_ckpt_frac = cfg.dvfs.phase_power(&cfg.power, f_run).checkpoint;
        ckpt.interval
            .resolve_iterations(t_iter, t_ckpt, cfg.mtbf_s, p_ckpt_frac)
    });

    let mut sim = Sim {
        a,
        b,
        cfg,
        plan,
        costs,
        cluster,
        cg,
        x0,
        f_run,
        f_wait: cfg.dvfs.waiter_frequency(model.freq_table()).min(f_run),
        meter: EnergyMeter::new(model),
        core_count: plan.core_multiplier() * p,
        mem_store: MemoryStore::new(),
        disk_store: DiskStore::in_temp_dir(&cfg.run_tag),
        stored_ckpt_bytes,
        compress_flops: (compress_cpu_s * cfg.machine.flops_per_sec) as u64,
        breakdown: PhaseBreakdown::default(),
        seg_start: 0.0,
        ws: Workspace::new(),
        matrix_key,
        checkpoints_taken: 0,
        checkpoint_bytes_written: 0,
        construction_fallbacks: 0,
        part,
    };
    let mut history = ResidualHistory::new();
    let mut fault_cursor = 0usize;
    let mut faults_injected = 0usize;

    if cfg.record_history {
        history.push(0, sim.cg.relative_residual());
    }

    while !sim.cg.converged(cfg.tolerance) && sim.cg.iteration() < cfg.max_iterations {
        let iter = sim.cg.iteration();

        // --- Periodic checkpoint (before the iteration, like the paper's
        // "checkpointed after the m-th iteration"). -----------------------
        if let (Some(interval), Some(ckpt)) = (interval_iters, &plan.checkpoint) {
            if iter > 0 && iter.is_multiple_of(interval) {
                sim.take_checkpoint(ckpt, iter);
            }
        }

        // --- Faults due at this iteration / time. -------------------------
        let due = cfg
            .faults
            .due(&mut fault_cursor, iter, sim.cluster.max_clock());
        // Ranks lost in this iteration under a batching plan, recovered
        // together after the event loop.
        let mut batch: Vec<usize> = Vec::new();
        for ev in due {
            faults_injected += 1;
            if cfg.record_history {
                history.mark_fault(iter, sim.cg.relative_residual());
            }
            match (plan.response, ev.class) {
                (FaultResponse::Ignore, _) => {}
                (FaultResponse::Rollback, _) | (_, FaultClass::Swo) => {
                    // A rollback overwrites all of x, so the data the
                    // fault destroys is never read and need not be
                    // materialized to be lost.
                    sim.rollback(ev.class);
                }
                (FaultResponse::MaskByReplica, _) => {
                    sim.close_phase(CoreState::Compute);
                    sim.cluster.memory_read((sim.part.len(ev.rank) * 8) as u64);
                    sim.breakdown.restore_s += sim.close_phase(CoreState::Compute);
                }
                (FaultResponse::Assign(fill), _) => {
                    sim.lose_data(&ev, iter);
                    sim.close_phase(CoreState::Compute);
                    let range = sim.part.range(ev.rank);
                    match fill {
                        Fill::Zero => sim.cg.x_slice_mut(range).fill(0.0),
                        Fill::InitialGuess => sim
                            .cg
                            .x_slice_mut(range.clone())
                            .copy_from_slice(&sim.x0[range]),
                    }
                    sim.repair_and_restart();
                }
                (FaultResponse::Interpolate(how, method), _) => {
                    sim.lose_data(&ev, iter);
                    sim.reconstruct(how, method, &[ev.rank]);
                }
                (FaultResponse::InterpolateBatch(_), _) => {
                    sim.lose_data(&ev, iter);
                    batch.push(ev.rank);
                    // Recovery (and its history mark) happens once for the
                    // whole batch after the event loop.
                    continue;
                }
            }
            if cfg.record_history {
                history.mark_recovery(iter, sim.cg.relative_residual());
            }
        }
        if let (FaultResponse::InterpolateBatch(method), false) = (plan.response, batch.is_empty())
        {
            batch.sort_unstable();
            batch.dedup();
            sim.reconstruct(Interpolant::Linear, method, &batch);
            if cfg.record_history {
                history.mark_recovery(iter, sim.cg.relative_residual());
            }
        }

        // --- One normal CG iteration. --------------------------------------
        charge_iteration(&mut sim.cluster, &sim.costs);
        let relres = sim.cg.step();
        if cfg.record_history {
            history.push(sim.cg.iteration(), relres);
        }
    }

    sim.close_phase(CoreState::Compute);
    let end = sim.seg_start;
    sim.breakdown.solve_s = end - sim.breakdown.resilience_s();

    RunReport {
        scheme: cfg.scheme.run_label(cfg.dvfs),
        num_ranks: p,
        iterations: sim.cg.iteration(),
        converged: sim.cg.converged(cfg.tolerance),
        final_relative_residual: sim.cg.relative_residual(),
        time_s: end,
        energy_j: sim.meter.joules(),
        avg_power_w: sim.meter.average_power(),
        faults_injected,
        construction_fallbacks: sim.construction_fallbacks,
        checkpoint_interval_iters: interval_iters,
        checkpoint_bytes_written: sim.checkpoint_bytes_written,
        breakdown: sim.breakdown,
        history,
        power_profile: sim.meter.profile().to_vec(),
    }
}
