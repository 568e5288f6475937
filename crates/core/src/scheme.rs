//! Recovery-scheme taxonomy (paper Table 2) — the one file that defines
//! a scheme.
//!
//! A scheme is three things, all here:
//!
//! * a [`Scheme`] value — the serialized configuration (its JSON shape is
//!   part of every spec hash and never changes casually);
//! * a row of [`REGISTRY`] — canonical label, accepted aliases and the
//!   registry-default constructor. [`Scheme::label`],
//!   [`Scheme::KNOWN_LABELS`] and [`Scheme::parse_label`] are all derived
//!   from that table, and so is the report label rule ([`Scheme::run_label`]
//!   and its inverse [`Scheme::parse_run_label`]: the "-DVFS" suffix);
//! * a [`RecoveryPlan`] — what the driver does with it, as plain data
//!   along a few orthogonal axes (replication factor, checkpoint tier ×
//!   payload × interval, response to a lost block). [`Scheme::plan`] is
//!   the only place a `Scheme` variant is interpreted; the driver works
//!   from the plan alone.

use serde::{Deserialize, Serialize};

use crate::checkpoint::LossyCompressionModel;
use crate::construction::ConstructionMethod;
use crate::dvfs::DvfsPolicy;
use crate::interval::CheckpointInterval;

/// Where checkpoints are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointStorage {
    /// SCR-style multilevel checkpointing (Moody et al., cited in the
    /// paper's related work): every checkpoint goes to node-local memory,
    /// and every `disk_every`-th additionally to the shared file system.
    /// Node faults restore cheaply from memory; system-wide outages fall
    /// back to the last disk copy.
    Multilevel {
        /// Cadence of disk copies, in checkpoints (≥ 1).
        disk_every: usize,
    },
    /// Node-local memory (CR-M): cheap, constant cost with system size,
    /// but not survivable for real node losses — the paper notes it "is
    /// not practical to common fault situations with lost data in memory".
    Memory,
    /// Shared parallel file system (CR-D): expensive, cost grows linearly
    /// with system size.
    Disk,
}

/// Forward-recovery variants (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ForwardKind {
    /// F0 — assign zeros to the lost block of `x`.
    Zero,
    /// FI — assign the initial guess to the lost block.
    InitialGuess,
    /// LI — linear interpolation: solve `A_{p_i,p_i} x_i = b_i − Σ A_ij x_j`
    /// (Eq. 17/19).
    Linear(ConstructionMethod),
    /// LSI — least-squares interpolation: solve
    /// `min ‖b − Σ_{j≠i} A_{:,j} x_j − A_{:,i} x_i‖` (Eq. 18/20/21).
    LeastSquares(ConstructionMethod),
}

/// A complete recovery scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Fault-free baseline (no resilience; faults in the schedule are
    /// ignored — used only as the normalization base).
    FaultFree,
    /// Dual modular redundancy: a full replica runs concurrently. No time
    /// overhead, double power (Eq. 12).
    Dmr,
    /// Triple modular redundancy (paper §7): two extra replicas with
    /// majority voting — masks any single-replica fault *including SDC
    /// without a detector*, at triple power. Included as the extension the
    /// paper's related work discusses.
    Tmr,
    /// Checkpoint/restart.
    Checkpoint {
        /// Checkpoint destination (memory vs disk).
        storage: CheckpointStorage,
        /// How the checkpoint interval is chosen.
        interval: CheckpointInterval,
    },
    /// Forward recovery.
    Forward(ForwardKind),
    /// CR-LC — lossy-compressed checkpoint/restart (Tao et al.): the
    /// checkpointed iterate is quantized by truncating low mantissa bits
    /// before it goes to disk, shrinking stored bytes at the price of a
    /// bounded relative error — and hence extra reconvergence iterations
    /// after every rollback.
    LossyCheckpoint {
        /// How the checkpoint interval is chosen.
        interval: CheckpointInterval,
        /// Mantissa bits kept per double (1–52); the relative quantization
        /// error is bounded by `2^-keep_mantissa_bits`.
        keep_mantissa_bits: u8,
    },
    /// ABFT-CR — exact-Krylov-state checkpoint/restart (Pachajoa et al.):
    /// checkpoints carry the full `(x, r, p, rᵀr)` state, so a restore
    /// replays the fault-free iteration sequence bit-for-bit instead of
    /// paying the restart reconvergence penalty. Costs 3× the stored
    /// bytes of a plain CR-D checkpoint.
    AbftCheckpoint {
        /// How the checkpoint interval is chosen.
        interval: CheckpointInterval,
    },
    /// MNF — multi-rank simultaneous-failure forward recovery (Pachajoa
    /// et al.): when several ranks fail in the same iteration, the union
    /// of their lost blocks is reconstructed in one coupled solve over
    /// the surviving data, completing the
    /// `FaultSchedule::multiple_at_iteration` injection path.
    MultiNode(ConstructionMethod),
}

/// One registry row: canonical label, accepted aliases, and the
/// constructor of the scheme with registry-default parameters.
type Row = (&'static str, &'static [&'static str], fn() -> Scheme);

/// The scheme registry, in stable presentation order: the single source
/// of [`Scheme::label`], [`Scheme::KNOWN_LABELS`] and
/// [`Scheme::parse_label`] (and, through those, of the `/metrics`
/// pre-seed and `--schemes` validation).
const REGISTRY: [Row; 16] = [
    ("FF", &[], || Scheme::FaultFree),
    ("RD", &[], || Scheme::Dmr),
    ("TMR", &[], || Scheme::Tmr),
    ("CR-M", &[], Scheme::cr_memory),
    ("CR-D", &[], Scheme::cr_disk),
    ("CR-ML", &[], Scheme::cr_multilevel),
    ("CR-LC", &[], Scheme::cr_lossy),
    ("ABFT-CR", &[], Scheme::abft_cr),
    ("F0", &[], || Scheme::Forward(ForwardKind::Zero)),
    ("FI", &[], || Scheme::Forward(ForwardKind::InitialGuess)),
    ("LI (exact)", &[], Scheme::li_exact),
    ("LI (CG)", &["LI"], Scheme::li_local_cg),
    ("LSI (exact)", &[], Scheme::lsi_exact),
    ("LSI (CG)", &["LSI"], Scheme::lsi_local_cg),
    ("MNF", &["MNF (CG)"], Scheme::mnf),
    ("MNF (exact)", &[], Scheme::mnf_exact),
];

/// Which of the paper's §3.2 analytical models describes a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// FF — the normalization base; no overhead terms.
    Baseline,
    /// RD / TMR — `copies` full replicas run concurrently: no time
    /// overhead, `copies`× power (Eq. 12).
    Replication {
        /// Powered replicas, the original included (2 for RD, 3 for TMR).
        copies: usize,
    },
    /// CR-* — periodic checkpoints to `tier` plus rollback (Eqs. 9–11).
    CheckpointRestart {
        /// Where the checkpoints go (CR-LC and ABFT-CR write to disk).
        tier: CheckpointStorage,
    },
    /// F0 / FI / LI / LSI / MNF — forward recovery.
    ForwardRecovery,
}

impl ModelFamily {
    /// The checkpoint tier of a checkpoint/restart family; `None` for
    /// every other family.
    pub fn checkpoint_tier(&self) -> Option<CheckpointStorage> {
        match *self {
            ModelFamily::CheckpointRestart { tier } => Some(tier),
            _ => None,
        }
    }

    /// Progress survives a system-wide outage, which wipes every node's
    /// memory — replicas and the surviving blocks forward recovery
    /// rebuilds from included. Only a checkpoint tier with a disk level
    /// keeps it; otherwise an outage restarts from the initial guess.
    pub fn survives_outage(&self) -> bool {
        self.checkpoint_tier()
            .is_some_and(|tier| tier != CheckpointStorage::Memory)
    }
}

/// What the driver does for a scheme, resolved once per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RecoveryPlan {
    /// Canonical registry label.
    pub label: &'static str,
    /// Model family; carries the replication factor.
    pub family: ModelFamily,
    /// Periodic checkpointing, if the scheme does any.
    pub checkpoint: Option<CheckpointPlan>,
    /// What happens when a rank's block of `x` is lost.
    pub response: FaultResponse,
}

impl RecoveryPlan {
    /// Powered cores per rank: replicas draw power for the entire run.
    pub fn core_multiplier(&self) -> usize {
        match self.family {
            ModelFamily::Replication { copies } => copies,
            _ => 1,
        }
    }

    /// Only schemes with a construction phase whose waiters can be
    /// throttled take the "-DVFS" label suffix (F0/FI have none).
    pub fn takes_dvfs_suffix(&self) -> bool {
        matches!(
            self.response,
            FaultResponse::Interpolate(..) | FaultResponse::InterpolateBatch(_)
        )
    }
}

/// What a checkpoint stores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Payload {
    /// The iterate `x` (CR-M / CR-D / CR-ML), optionally through the
    /// run's generic `checkpoint_compression`.
    Plain,
    /// CR-LC: the mantissa-truncated iterate — what lands on disk, and
    /// therefore what a rollback restores, carries the codec's bounded
    /// relative error.
    Lossy(LossyCompressionModel),
    /// ABFT-CR: the full `(x, r, p, rᵀr)` Krylov state — 3× the bytes,
    /// but a restore replays the fault-free sequence exactly.
    Krylov,
}

/// Periodic checkpointing: tier × payload × interval. `Lossy` and
/// `Krylov` payloads exist on the disk tier only (their `Scheme` variants
/// have no storage knob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CheckpointPlan {
    /// Where checkpoints go. Node faults restore from the memory level
    /// when the tier has one.
    pub tier: CheckpointStorage,
    /// What they store.
    pub payload: Payload,
    /// How often.
    pub interval: CheckpointInterval,
    /// Preserved asymmetry (DESIGN §5 ledger): the read of a node-fault
    /// restore is charged to the storage subsystem's energy for CR-LC and
    /// ABFT-CR but not for the plain payload. Outage restores always are.
    pub node_restore_metered: bool,
}

/// Preserved asymmetry (DESIGN §5 ledger): a node-fault restore charges
/// the decompression flops of a compressed checkpoint; an outage restore
/// never does.
pub(crate) const OUTAGE_RESTORE_DECOMPRESSES: bool = false;

/// What to put in a lost block without solving for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fill {
    /// F0 — zeros.
    Zero,
    /// FI — the initial guess.
    InitialGuess,
}

/// Which interpolation reconstructs lost blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interpolant {
    /// LI / MNF — the (union) diagonal-block solve, Eq. 17/19.
    Linear,
    /// LSI — the least-squares column-panel solve, Eq. 18/20/21.
    LeastSquares,
}

/// What the driver does when a fault hits a rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultResponse {
    /// FF: the baseline measures the fault-free cost; scheduled faults
    /// (outages included) are counted but not applied.
    Ignore,
    /// RD / TMR: a replica's state is intact; only a local copy (DMR) or
    /// majority vote (TMR) is charged.
    MaskByReplica,
    /// CR-*: restore the latest checkpoint, or the initial guess when
    /// none exists yet.
    Rollback,
    /// F0 / FI: overwrite the lost block.
    Assign(Fill),
    /// LI / LSI: reconstruct each lost block as its fault arrives.
    Interpolate(Interpolant, ConstructionMethod),
    /// MNF: collect every rank lost in one iteration and reconstruct the
    /// union of their blocks in one coupled LI solve.
    InterpolateBatch(ConstructionMethod),
}

impl Scheme {
    /// CR-M with the Young-formula interval.
    pub fn cr_memory() -> Self {
        Scheme::Checkpoint {
            storage: CheckpointStorage::Memory,
            interval: CheckpointInterval::Young,
        }
    }

    /// CR-D with the Young-formula interval.
    pub fn cr_disk() -> Self {
        Scheme::Checkpoint {
            storage: CheckpointStorage::Disk,
            interval: CheckpointInterval::Young,
        }
    }

    /// SCR-style multilevel checkpointing: memory every interval, disk
    /// every fourth checkpoint.
    pub fn cr_multilevel() -> Self {
        Scheme::Checkpoint {
            storage: CheckpointStorage::Multilevel { disk_every: 4 },
            interval: CheckpointInterval::Young,
        }
    }

    /// LI with the paper's optimized local-CG construction.
    pub fn li_local_cg() -> Self {
        Scheme::Forward(ForwardKind::Linear(ConstructionMethod::local_cg_default()))
    }

    /// LSI with the paper's optimized local-CGLS construction.
    pub fn lsi_local_cg() -> Self {
        Scheme::Forward(ForwardKind::LeastSquares(
            ConstructionMethod::local_cg_default(),
        ))
    }

    /// LI with the baseline exact LU construction.
    pub fn li_exact() -> Self {
        Scheme::Forward(ForwardKind::Linear(ConstructionMethod::Exact))
    }

    /// LSI with the baseline exact (parallel-QR-style) construction.
    pub fn lsi_exact() -> Self {
        Scheme::Forward(ForwardKind::LeastSquares(ConstructionMethod::Exact))
    }

    /// CR-LC with the Young-formula interval and the default quantizer
    /// (26 mantissa bits kept ≈ half the stored payload, ~1.5e-8
    /// relative error).
    pub fn cr_lossy() -> Self {
        Scheme::cr_lossy_bits(26)
    }

    /// CR-LC with an explicit mantissa-bit budget (clamped to 1–52).
    pub fn cr_lossy_bits(keep_mantissa_bits: u8) -> Self {
        Scheme::LossyCheckpoint {
            interval: CheckpointInterval::Young,
            keep_mantissa_bits: keep_mantissa_bits.clamp(1, 52),
        }
    }

    /// ABFT-CR with the Young-formula interval.
    pub fn abft_cr() -> Self {
        Scheme::AbftCheckpoint {
            interval: CheckpointInterval::Young,
        }
    }

    /// MNF with the optimized local-CG union-block construction.
    pub fn mnf() -> Self {
        Scheme::MultiNode(ConstructionMethod::local_cg_default())
    }

    /// MNF with the baseline exact LU union-block construction.
    pub fn mnf_exact() -> Self {
        Scheme::MultiNode(ConstructionMethod::Exact)
    }

    /// True when `self` and `other` differ at most in tunable knobs
    /// (interval, mantissa bits, disk cadence, inner-solve tolerances) —
    /// i.e. they belong to the same registry row.
    fn same_row(&self, other: &Scheme) -> bool {
        use std::mem::discriminant as tag;
        match (self, other) {
            (Scheme::Checkpoint { storage: a, .. }, Scheme::Checkpoint { storage: b, .. }) => {
                tag(a) == tag(b)
            }
            (Scheme::Forward(ForwardKind::Linear(a)), Scheme::Forward(ForwardKind::Linear(b)))
            | (
                Scheme::Forward(ForwardKind::LeastSquares(a)),
                Scheme::Forward(ForwardKind::LeastSquares(b)),
            )
            | (Scheme::MultiNode(a), Scheme::MultiNode(b)) => a.label() == b.label(),
            (Scheme::Forward(a), Scheme::Forward(b)) => tag(a) == tag(b),
            _ => tag(self) == tag(other),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "a scheme shape without a registry row is a bug the table-driven unit test catches"
    )]
    fn row(&self) -> &'static Row {
        REGISTRY
            .iter()
            .find(|row| self.same_row(&(row.2)()))
            .expect("every scheme shape has a registry row")
    }

    /// Short label used in tables and reports (FF, RD, CR-M, CR-D, F0,
    /// FI, LI, LSI, …): the canonical label of this scheme's registry row.
    pub fn label(&self) -> String {
        self.row().0.to_string()
    }

    /// Every canonical scheme label, in stable presentation order — the
    /// registry behind label-keyed metrics and `--schemes` validation.
    pub const KNOWN_LABELS: [&'static str; 16] = {
        let mut labels = [""; 16];
        let mut i = 0;
        while i < REGISTRY.len() {
            labels[i] = REGISTRY[i].0;
            i += 1;
        }
        labels
    };

    /// The inverse of [`Scheme::label`]: parses a canonical label (or one
    /// of its row's aliases — bare `LI`/`LSI`/`MNF` select the optimized
    /// local-CG construction) back to a scheme with registry-default
    /// parameters (checkpoint schemes get the Young interval, CR-LC its
    /// default quantizer — `label()` does not carry those knobs). Returns
    /// `None` for unknown labels.
    ///
    /// Round-trip guarantee: `parse_label(s.label())` succeeds for every
    /// scheme `s`, and the parsed scheme prints the same label.
    pub fn parse_label(label: &str) -> Option<Scheme> {
        let label = label.trim();
        REGISTRY
            .iter()
            .find(|(name, aliases, _)| *name == label || aliases.contains(&label))
            .map(|row| (row.2)())
    }

    /// The label a run of this scheme under `dvfs` reports
    /// ([`crate::RunReport::scheme`]): the registry label, plus "-DVFS"
    /// when `dvfs` throttles a scheme whose plan has a construction phase
    /// to throttle (`RecoveryPlan::takes_dvfs_suffix`).
    pub fn run_label(&self, dvfs: DvfsPolicy) -> String {
        let plan = self.plan();
        let suffix = if plan.takes_dvfs_suffix() {
            dvfs.label_suffix()
        } else {
            ""
        };
        format!("{}{suffix}", plan.label)
    }

    /// The inverse of [`Scheme::run_label`]: a registry label or alias,
    /// optionally followed by "-DVFS" where the scheme takes it, parsed to
    /// the registry-default scheme and its DVFS policy (`"LI-DVFS"` →
    /// LI (CG) with waiters throttled). Returns `None` for unknown labels
    /// and for a suffix the scheme does not take (`"RD-DVFS"`).
    pub fn parse_run_label(label: &str) -> Option<(Scheme, DvfsPolicy)> {
        if let Some(scheme) = Scheme::parse_label(label) {
            return Some((scheme, DvfsPolicy::OsDefault));
        }
        let throttled = DvfsPolicy::ThrottleWaiters;
        let scheme = Scheme::parse_label(label.trim().strip_suffix(throttled.label_suffix())?)?;
        scheme
            .plan()
            .takes_dvfs_suffix()
            .then_some((scheme, throttled))
    }

    /// This scheme with its checkpoint interval set to `interval` — the
    /// plain, lossy (CR-LC) and exact-state (ABFT-CR) checkpointing
    /// variants; every other scheme is returned as it is.
    pub fn with_interval(self, interval: CheckpointInterval) -> Self {
        match self {
            Scheme::Checkpoint { storage, .. } => Scheme::Checkpoint { storage, interval },
            Scheme::LossyCheckpoint {
                keep_mantissa_bits, ..
            } => Scheme::LossyCheckpoint {
                interval,
                keep_mantissa_bits,
            },
            Scheme::AbftCheckpoint { .. } => Scheme::AbftCheckpoint { interval },
            other => other,
        }
    }

    /// Resolves the scheme into the plain-data plan the driver executes —
    /// the only place a `Scheme` variant is interpreted.
    pub(crate) fn plan(&self) -> RecoveryPlan {
        use CheckpointStorage::Disk;
        use FaultResponse as R;
        use ModelFamily as F;
        let forward = |response| (F::ForwardRecovery, None, response);
        let checkpointing = |tier, payload, interval| {
            let ckpt = CheckpointPlan {
                tier,
                payload,
                interval,
                node_restore_metered: payload != Payload::Plain,
            };
            (F::CheckpointRestart { tier }, Some(ckpt), R::Rollback)
        };
        let (family, checkpoint, response) = match *self {
            Scheme::FaultFree => (F::Baseline, None, R::Ignore),
            Scheme::Dmr => (F::Replication { copies: 2 }, None, R::MaskByReplica),
            Scheme::Tmr => (F::Replication { copies: 3 }, None, R::MaskByReplica),
            Scheme::Checkpoint { storage, interval } => {
                checkpointing(storage, Payload::Plain, interval)
            }
            Scheme::LossyCheckpoint {
                interval,
                keep_mantissa_bits: keep,
            } => {
                let codec = LossyCompressionModel::from_keep_bits(keep);
                checkpointing(Disk, Payload::Lossy(codec), interval)
            }
            Scheme::AbftCheckpoint { interval } => checkpointing(Disk, Payload::Krylov, interval),
            Scheme::Forward(ForwardKind::Zero) => forward(R::Assign(Fill::Zero)),
            Scheme::Forward(ForwardKind::InitialGuess) => forward(R::Assign(Fill::InitialGuess)),
            Scheme::Forward(ForwardKind::Linear(m)) => {
                forward(R::Interpolate(Interpolant::Linear, m))
            }
            Scheme::Forward(ForwardKind::LeastSquares(m)) => {
                forward(R::Interpolate(Interpolant::LeastSquares, m))
            }
            Scheme::MultiNode(m) => forward(R::InterpolateBatch(m)),
        };
        RecoveryPlan {
            label: self.row().0,
            family,
            checkpoint,
            response,
        }
    }

    /// The analytical-model family (paper §3.2) this scheme belongs to.
    pub fn model_family(&self) -> ModelFamily {
        self.plan().family
    }

    /// True for schemes that take periodic checkpoints.
    pub fn is_checkpoint(&self) -> bool {
        self.plan().checkpoint.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Scheme::FaultFree.label(), "FF");
        assert_eq!(Scheme::Dmr.label(), "RD");
        assert_eq!(Scheme::cr_memory().label(), "CR-M");
        assert_eq!(Scheme::cr_disk().label(), "CR-D");
        assert_eq!(Scheme::Tmr.label(), "TMR");
        assert_eq!(Scheme::cr_multilevel().label(), "CR-ML");
        assert_eq!(Scheme::Forward(ForwardKind::Zero).label(), "F0");
        assert_eq!(Scheme::Forward(ForwardKind::InitialGuess).label(), "FI");
        assert!(Scheme::li_local_cg().label().starts_with("LI"));
        assert!(Scheme::lsi_exact().label().starts_with("LSI"));
        assert_eq!(Scheme::cr_lossy().label(), "CR-LC");
        assert_eq!(Scheme::abft_cr().label(), "ABFT-CR");
        assert_eq!(Scheme::mnf().label(), "MNF");
        assert_eq!(Scheme::mnf_exact().label(), "MNF (exact)");
    }

    #[test]
    fn class_predicates() {
        let forward = ModelFamily::ForwardRecovery;
        assert_eq!(Scheme::li_local_cg().model_family(), forward);
        assert_eq!(Scheme::mnf().model_family(), forward);
        assert_ne!(Scheme::cr_disk().model_family(), forward);
        assert!(Scheme::cr_memory().is_checkpoint());
        assert!(!Scheme::Dmr.is_checkpoint());
        assert!(Scheme::cr_lossy().is_checkpoint());
        assert!(Scheme::abft_cr().is_checkpoint());
        assert!(!Scheme::mnf().is_checkpoint());
    }

    /// Every row's default scheme, plus every tunable knob moved off its
    /// default: knobs never change the row a scheme belongs to.
    fn every_row_with_knobs_moved() -> Vec<Scheme> {
        let mut schemes: Vec<Scheme> = REGISTRY.iter().map(|row| (row.2)()).collect();
        let fixed = ConstructionMethod::local_cg_fixed(1e-8, 50);
        schemes.extend([
            Scheme::cr_lossy_bits(16),
            Scheme::Checkpoint {
                storage: CheckpointStorage::Multilevel { disk_every: 9 },
                interval: CheckpointInterval::EveryIterations(7),
            },
            Scheme::AbftCheckpoint {
                interval: CheckpointInterval::Daly,
            },
            Scheme::Forward(ForwardKind::Linear(fixed)),
            Scheme::Forward(ForwardKind::LeastSquares(fixed)),
            Scheme::MultiNode(fixed),
        ]);
        schemes
    }

    #[test]
    fn parse_label_inverts_label_for_every_scheme() {
        for s in every_row_with_knobs_moved() {
            let parsed = Scheme::parse_label(&s.label())
                .unwrap_or_else(|| panic!("label {:?} must parse", s.label()));
            assert_eq!(parsed.label(), s.label(), "label round-trip");
            assert_eq!(parsed.plan().label, s.label(), "the plan carries the label");
        }
    }

    #[test]
    fn parse_run_label_inverts_run_label_for_every_scheme_and_policy() {
        for s in every_row_with_knobs_moved() {
            for dvfs in [DvfsPolicy::OsDefault, DvfsPolicy::ThrottleWaiters] {
                let label = s.run_label(dvfs);
                let (parsed, parsed_dvfs) = Scheme::parse_run_label(&label)
                    .unwrap_or_else(|| panic!("run label {label:?} must parse"));
                assert_eq!(parsed.run_label(parsed_dvfs), label, "run-label round-trip");
                assert_eq!(parsed.label(), s.label(), "{label:?}");
                let throttled = s.plan().takes_dvfs_suffix() && dvfs == DvfsPolicy::ThrottleWaiters;
                assert_eq!(label.ends_with("-DVFS"), throttled, "{label:?}");
            }
        }
    }

    #[test]
    fn parse_run_label_reads_aliases_and_rejects_suffixes_a_scheme_does_not_take() {
        assert_eq!(
            Scheme::parse_run_label("LI-DVFS"),
            Some((Scheme::li_local_cg(), DvfsPolicy::ThrottleWaiters))
        );
        assert_eq!(
            Scheme::parse_run_label("LSI (CG)-DVFS"),
            Some((Scheme::lsi_local_cg(), DvfsPolicy::ThrottleWaiters))
        );
        assert_eq!(
            Scheme::parse_run_label("CR-D"),
            Some((Scheme::cr_disk(), DvfsPolicy::OsDefault))
        );
        for junk in [
            "RD-DVFS",
            "F0-DVFS",
            "CR-D-DVFS",
            "FF-DVFS",
            "-DVFS",
            "LI-DVFS-DVFS",
            "li-dvfs",
            "",
        ] {
            assert_eq!(Scheme::parse_run_label(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn with_interval_sets_only_checkpoint_intervals() {
        let every = CheckpointInterval::EveryIterations(7);
        for s in every_row_with_knobs_moved() {
            let moved = s.with_interval(every);
            assert_eq!(moved.label(), s.label(), "the row never changes");
            match moved.plan().checkpoint {
                Some(ckpt) => assert_eq!(ckpt.interval, every, "{}", s.label()),
                None => assert_eq!(moved, s, "{} has no interval", s.label()),
            }
        }
    }

    #[test]
    fn registry_rows_are_distinct_and_self_consistent() {
        for (i, (label, aliases, make)) in REGISTRY.iter().enumerate() {
            // A row whose constructor lands in another row (a copied line,
            // a new shape `same_row` cannot tell apart) fails here.
            assert_eq!(make().label(), *label, "row {i} constructs its own label");
            assert_eq!(Scheme::KNOWN_LABELS[i], *label);
            for name in aliases.iter().chain([label]) {
                assert_eq!(Scheme::parse_label(name), Some(make()), "{name:?}");
                let hits = REGISTRY
                    .iter()
                    .filter(|(l, a, _)| l == name || a.contains(name))
                    .count();
                assert_eq!(hits, 1, "{name:?} names exactly one row");
            }
        }
    }

    #[test]
    fn model_families_follow_table_2() {
        use CheckpointStorage::{Disk, Memory, Multilevel};
        let cr = |tier| ModelFamily::CheckpointRestart { tier };
        for label in Scheme::KNOWN_LABELS {
            let expected = match label {
                "FF" => ModelFamily::Baseline,
                "RD" => ModelFamily::Replication { copies: 2 },
                "TMR" => ModelFamily::Replication { copies: 3 },
                "CR-M" => cr(Memory),
                "CR-ML" => cr(Multilevel { disk_every: 4 }),
                l if l.contains("CR") => cr(Disk),
                _ => ModelFamily::ForwardRecovery,
            };
            let scheme = Scheme::parse_label(label).unwrap();
            assert_eq!(scheme.model_family(), expected, "{label}");
            assert_eq!(scheme.is_checkpoint(), label.contains("CR"), "{label}");
        }
    }

    #[test]
    fn only_a_disk_level_survives_an_outage() {
        for label in Scheme::KNOWN_LABELS {
            let plan = Scheme::parse_label(label).unwrap().plan();
            let survives = plan.family.survives_outage();
            let has_disk_level = plan
                .checkpoint
                .is_some_and(|c| c.tier != CheckpointStorage::Memory);
            assert_eq!(survives, has_disk_level, "{label}");
            let expected = ["CR-D", "CR-ML", "CR-LC", "ABFT-CR"].contains(&label);
            assert_eq!(survives, expected, "{label}");
        }
    }

    #[test]
    fn parse_label_accepts_every_known_label_and_rejects_junk() {
        for label in Scheme::KNOWN_LABELS {
            let s = Scheme::parse_label(label)
                .unwrap_or_else(|| panic!("known label {label:?} must parse"));
            assert_eq!(s.label(), label, "known labels are canonical");
        }
        assert_eq!(Scheme::parse_label("CR"), None);
        assert_eq!(Scheme::parse_label(""), None);
        assert_eq!(Scheme::parse_label("li"), None);
        assert_eq!(Scheme::parse_label(" FF ").unwrap().label(), "FF");
    }
}
