//! Content-addressed CG trajectories: each distinct stretch of CG
//! iterations is stepped once per process, and every later run replays
//! it.
//!
//! Every state a resilient run reaches starts from `Cg::new` or from a
//! restart (recompute `r = b − Ax`, set `p = r`). From there until the
//! next restart the Krylov state is a pure function of `(A, b, x_start)`,
//! so a run is a chain of *segments*. A segment is keyed by the run's
//! [`MatrixKey`] plus the bytes of `b` and `x_start`: a 64-bit hash
//! buckets it and the stored bytes confirm the match, so a collision can
//! never hand one run another run's numbers.
//!
//! [`TrajectoryMemo`] records per segment the relative residual after
//! every step, the state at every index some run materialized (the
//! iterate alone where only `x` was read, the whole [`KrylovState`] where
//! an exact-state checkpoint took it), and a coarse grid of full
//! snapshots taken while stepping live. [`Trajectory`] is the driver's
//! view of its CG: a step on a recorded stretch is a residual lookup, and
//! the state is materialized — restored from the nearest full snapshot at
//! or before the index, then stepped live — only when something reads
//! it. Stepping is deterministic, so a replayed residual and a
//! materialized state are the bytes live stepping produces.
//!
//! The memo holds at most [`BUDGET_BYTES`]. Over it, the least recently
//! used other system (matrix and rhs) goes first; within the system in
//! use the snapshot grid is halved, then the least recently used segment
//! dropped. The lock is taken when a run changes segment, materializes a
//! state or passes a grid point — never per replayed step.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use rsls_solvers::{Cg, KrylovState};
use rsls_sparse::artifacts::MatrixKey;
use rsls_sparse::SpmvOperator;

/// Byte budget of the process-wide memo: rhs and segment-start vectors,
/// residuals and snapshots together.
pub const BUDGET_BYTES: usize = 4 << 20;

/// Steps between grid snapshots of a fresh system (before any halving).
const GRID_SPACING: usize = 64;

/// Counter snapshot of a memo, via [`TrajectoryMemo::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrajectoryStats {
    /// CG steps stepped live, materializations included.
    pub steps_computed: u64,
    /// CG steps answered from a recorded residual.
    pub steps_replayed: u64,
    /// Segments resident.
    pub segments: usize,
    /// Bytes of resident snapshots.
    pub snapshot_bytes: usize,
    /// Segments and snapshots dropped to stay in budget.
    pub evictions: u64,
}

/// Process-wide memo of CG segments, bounded by a byte budget.
#[derive(Debug)]
pub struct TrajectoryMemo {
    budget: usize,
    inner: Mutex<Inner>,
    computed: AtomicU64,
    replayed: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    systems: Vec<System>,
    bytes: usize,
    snapshot_bytes: usize,
    evictions: u64,
    tick: u64,
    next_id: u64,
}

/// One `(A, b)`: the segments of every run on it.
#[derive(Debug)]
struct System {
    key: MatrixKey,
    b_hash: u64,
    b: Vec<f64>,
    /// Steps between this system's grid snapshots.
    grid: usize,
    used: u64,
    segments: Vec<Segment>,
}

#[derive(Debug)]
struct Segment {
    id: u64,
    x_hash: u64,
    x_start: Arc<[f64]>,
    /// `residuals[i]`: the relative residual after `i` steps.
    residuals: Arc<[f64]>,
    snapshots: BTreeMap<usize, Snapshot>,
    used: u64,
}

/// A state at one index of a segment: the iterate alone (`r`, `p` empty)
/// or the whole Krylov state.
#[derive(Debug, Clone)]
struct Snapshot {
    state: Arc<KrylovState>,
    grid: bool,
}

impl Snapshot {
    fn full(&self) -> bool {
        !self.state.r.is_empty()
    }

    fn bytes(&self) -> usize {
        8 * (self.state.x.len() + self.state.r.len() + self.state.p.len())
    }
}

/// FNV-1a over the bit patterns of `v`, one 64-bit word per entry.
fn content_hash(v: &[f64]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Bitwise equality (`NaN` payloads and the sign of zero count).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a run holds of one segment: its identity, its start, and the
/// residuals known so far (`known` as last read from the memo, `ext` as
/// computed since).
#[derive(Debug, Clone)]
struct SegView {
    id: u64,
    x_start: Arc<[f64]>,
    known: Arc<[f64]>,
    ext: Vec<f64>,
}

impl SegView {
    fn len(&self) -> usize {
        self.known.len() + self.ext.len()
    }

    fn residual(&self, i: usize) -> Option<f64> {
        match self.known.get(i) {
            Some(&r) => Some(r),
            None => self.ext.get(i - self.known.len()).copied(),
        }
    }
}

/// How a run names its system to the memo.
#[derive(Debug)]
struct SystemRef<'a> {
    key: MatrixKey,
    b: &'a [f64],
    b_hash: u64,
}

impl TrajectoryMemo {
    /// An empty memo holding at most `budget` bytes.
    pub fn new(budget: usize) -> Self {
        TrajectoryMemo {
            budget,
            inner: Mutex::new(Inner::default()),
            computed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        }
    }

    /// Drops every segment and zeroes the counters.
    pub fn clear(&self) {
        *lock(&self.inner) = Inner::default();
        self.computed.store(0, Ordering::Relaxed);
        self.replayed.store(0, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TrajectoryStats {
        let inner = lock(&self.inner);
        TrajectoryStats {
            steps_computed: self.computed.load(Ordering::Relaxed),
            steps_replayed: self.replayed.load(Ordering::Relaxed),
            segments: inner.systems.iter().map(|s| s.segments.len()).sum(),
            snapshot_bytes: inner.snapshot_bytes,
            evictions: inner.evictions,
        }
    }

    /// The segment starting at `x_start`, created (with no residual yet)
    /// if no run has started it.
    fn attach(&self, sys: &SystemRef<'_>, x_start: &[f64]) -> SegView {
        let mut inner = lock(&self.inner);
        let tick = inner.tick();
        let si = inner.intern(sys);
        let x_hash = content_hash(x_start);
        let system = &mut inner.systems[si];
        system.used = tick;
        let found = system
            .segments
            .iter_mut()
            .find(|s| s.x_hash == x_hash && same_bits(&s.x_start, x_start));
        if let Some(seg) = found {
            seg.used = tick;
            return SegView {
                id: seg.id,
                x_start: seg.x_start.clone(),
                known: seg.residuals.clone(),
                ext: Vec::new(),
            };
        }
        let id = inner.next_id();
        let x_start: Arc<[f64]> = x_start.into();
        let seg = Segment {
            id,
            x_hash,
            x_start: x_start.clone(),
            residuals: Arc::from(Vec::new()),
            snapshots: BTreeMap::new(),
            used: tick,
        };
        inner.bytes += 8 * x_start.len();
        inner.systems[si].segments.push(seg);
        inner.evict(self.budget, id);
        SegView {
            id,
            x_start,
            known: Arc::from(Vec::new()),
            ext: Vec::new(),
        }
    }

    /// Merges the residuals `view` computed into the memo and reads back
    /// any another run recorded beyond them; optionally also offers a
    /// snapshot at `at`, built only if the memo has none there.
    fn sync(&self, view: &mut SegView, offer: Option<(usize, bool, &dyn Fn() -> KrylovState)>) {
        let mut inner = lock(&self.inner);
        let tick = inner.tick();
        let Some((si, gi)) = inner.find(view.id) else {
            // Evicted: the run keeps what it holds and records nothing.
            return;
        };
        let grid = inner.systems[si].grid;
        let seg = &mut inner.systems[si].segments[gi];
        seg.used = tick;
        let mut added = 0;
        if view.len() > seg.residuals.len() {
            let merged: Vec<f64> = view.known.iter().chain(&view.ext).copied().collect();
            added += 8 * (merged.len() - seg.residuals.len());
            seg.residuals = merged.into();
        }
        view.known = seg.residuals.clone();
        view.ext.clear();
        let mut snap_added = 0;
        if let Some((at, grid_point, make)) = offer {
            let wanted = !grid_point || at.is_multiple_of(grid);
            if wanted && !seg.snapshots.contains_key(&at) {
                let snap = Snapshot {
                    state: Arc::new(make()),
                    grid: grid_point,
                };
                snap_added = snap.bytes();
                seg.snapshots.insert(at, snap);
            }
        }
        inner.bytes += added + snap_added;
        inner.snapshot_bytes += snap_added;
        inner.evict(self.budget, view.id);
    }

    /// The snapshot of segment `seg` at exactly `at` (any kind), or else
    /// the full one nearest below `at` but above `floor`.
    fn snapshot(
        &self,
        seg: u64,
        at: usize,
        floor: Option<usize>,
        full: bool,
    ) -> Option<(usize, Arc<KrylovState>)> {
        let mut inner = lock(&self.inner);
        let tick = inner.tick();
        let (si, gi) = inner.find(seg)?;
        let seg = &mut inner.systems[si].segments[gi];
        seg.used = tick;
        let range: Range<usize> = floor.map_or(0, |f| f + 1)..at + 1;
        seg.snapshots
            .range(range)
            .rev()
            .find(|(&i, s)| s.full() || (!full && i == at))
            .map(|(&i, s)| (i, s.state.clone()))
    }
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Where segment `seg` is: (system, segment) indices.
    fn find(&self, seg: u64) -> Option<(usize, usize)> {
        self.systems.iter().enumerate().find_map(|(si, s)| {
            let gi = s.segments.iter().position(|g| g.id == seg)?;
            Some((si, gi))
        })
    }

    /// The index of `sys`'s system, interning it if it is not resident.
    fn intern(&mut self, sys: &SystemRef<'_>) -> usize {
        let same =
            |s: &System| s.key == sys.key && s.b_hash == sys.b_hash && same_bits(&s.b, sys.b);
        if let Some(i) = self.systems.iter().position(same) {
            return i;
        }
        self.bytes += 8 * sys.b.len();
        self.systems.push(System {
            key: sys.key,
            b_hash: sys.b_hash,
            b: sys.b.to_vec(),
            grid: GRID_SPACING,
            used: self.tick,
            segments: Vec::new(),
        });
        // The caller adds a segment next and evicts then.
        self.systems.len() - 1
    }

    fn forget(&mut self, seg: &Segment) {
        let snaps: usize = seg.snapshots.values().map(Snapshot::bytes).sum();
        self.bytes -= 8 * (seg.x_start.len() + seg.residuals.len()) + snaps;
        self.snapshot_bytes -= snaps;
        self.evictions += 1;
    }

    /// Drops state until the memo fits `budget`, keeping segment
    /// `protect` (the one just written to) for last: other systems least
    /// recently used first; then, within `protect`'s system, every other
    /// grid snapshot (the grid halves); then its least recently used
    /// segment; last `protect`'s snapshots.
    fn evict(&mut self, budget: usize, protect: u64) {
        while self.bytes > budget {
            let Some((si, _)) = self.find(protect) else {
                return;
            };
            let other = (self.systems.iter().enumerate())
                .filter(|&(i, _)| i != si)
                .min_by_key(|(_, s)| s.used)
                .map(|(i, _)| i);
            if let Some(i) = other {
                self.drop_system(i);
                continue;
            }
            if self.halve_grid(si) {
                continue;
            }
            let lru = (self.systems[si].segments.iter().enumerate())
                .filter(|(_, s)| s.id != protect)
                .min_by_key(|(_, s)| s.used)
                .map(|(i, _)| i);
            if let Some(gi) = lru {
                let seg = self.systems[si].segments.remove(gi);
                self.forget(&seg);
                continue;
            }
            let snaps = (self.systems[si].segments.iter_mut())
                .find(|s| !s.snapshots.is_empty())
                .map(|s| std::mem::take(&mut s.snapshots));
            let Some(snaps) = snaps else {
                // What is left is the rhs and one segment's start and
                // residuals: the run in progress keeps them.
                return;
            };
            let bytes: usize = snaps.values().map(Snapshot::bytes).sum();
            self.bytes -= bytes;
            self.snapshot_bytes -= bytes;
            self.evictions += snaps.len() as u64;
        }
    }

    fn drop_system(&mut self, i: usize) {
        let system = self.systems.remove(i);
        self.bytes -= 8 * system.b.len();
        for seg in &system.segments {
            self.forget(seg);
        }
    }

    /// Drops the grid snapshots of system `si` at odd multiples of its
    /// spacing and doubles the spacing, until one is dropped; false when
    /// the system has no grid snapshot left.
    fn halve_grid(&mut self, si: usize) -> bool {
        let system = &mut self.systems[si];
        let has_grid = |s: &System| {
            s.segments
                .iter()
                .any(|seg| seg.snapshots.values().any(|snap| snap.grid))
        };
        if !has_grid(system) {
            return false;
        }
        loop {
            let spacing = system.grid;
            system.grid = spacing.saturating_mul(2);
            let mut freed = (0, 0u64);
            for seg in &mut system.segments {
                seg.snapshots.retain(|&i, snap| {
                    let keep = !snap.grid || i.is_multiple_of(spacing.saturating_mul(2));
                    if !keep {
                        freed.0 += snap.bytes();
                        freed.1 += 1;
                    }
                    keep
                });
            }
            if freed.1 > 0 {
                self.bytes -= freed.0;
                self.snapshot_bytes -= freed.0;
                self.evictions += freed.1;
                return true;
            }
        }
    }
}

/// The process-wide memo every [`crate::run`] shares.
pub fn global() -> &'static TrajectoryMemo {
    static MEMO: OnceLock<TrajectoryMemo> = OnceLock::new();
    MEMO.get_or_init(|| TrajectoryMemo::new(BUDGET_BYTES))
}

/// Counters of the process-wide memo.
pub fn stats() -> TrajectoryStats {
    global().stats()
}

/// The driver's CG: a position on a segment, stepped by lookup where the
/// memo knows the way and by a live [`Cg`] where it does not.
///
/// Mirrors the part of [`Cg`]'s interface the driver uses; reads of the
/// iterate or the whole state materialize it first.
#[derive(Debug)]
pub(crate) struct Trajectory<'a> {
    memo: &'a TrajectoryMemo,
    sys: SystemRef<'a>,
    op: SpmvOperator<'a>,
    cg: Option<Cg<'a>>,
    seg: SegView,
    /// Steps taken on `seg` since its start.
    idx: usize,
    /// The index on `seg` `cg` is at, and whether its whole state (not
    /// only `x`) is there. `None` while `cg` is stale or off the segment.
    cg_at: Option<(usize, bool)>,
    /// `cg.x` was changed off the trajectory; the next restart keys on it.
    dirty: bool,
    relres: f64,
    /// Completed iterations, replayed ones included (never rewound).
    iteration: usize,
    computed: u64,
    replayed: u64,
    /// Where the last full capture was taken: (iteration, segment, index).
    captured: Option<(usize, SegView, usize)>,
}

impl<'a> Trajectory<'a> {
    /// Starts at `x0` on `op`'s system, the run's content key `key`.
    pub(crate) fn new(
        memo: &'a TrajectoryMemo,
        key: MatrixKey,
        op: SpmvOperator<'a>,
        b: &'a [f64],
        x0: &[f64],
    ) -> Self {
        let sys = SystemRef {
            key,
            b,
            b_hash: content_hash(b),
        };
        let seg = memo.attach(&sys, x0);
        let mut t = Trajectory {
            memo,
            sys,
            op,
            cg: None,
            seg,
            idx: 0,
            cg_at: None,
            dirty: false,
            relres: 0.0,
            iteration: 0,
            computed: 0,
            replayed: 0,
            captured: None,
        };
        t.relres = t.start_residual();
        t
    }

    /// The residual at the segment start, computed (one restart) if no
    /// run recorded it.
    fn start_residual(&mut self) -> f64 {
        if let Some(r) = self.seg.residual(0) {
            return r;
        }
        self.restart_cg_at_start();
        let r = self.live().relative_residual();
        self.seg.ext.push(r);
        r
    }

    fn live(&mut self) -> &mut Cg<'a> {
        #[expect(clippy::expect_used, reason = "every caller creates the Cg first")]
        self.cg.as_mut().expect("live Cg")
    }

    /// Puts `cg` at the segment start: `x = x_start`, then a restart.
    fn restart_cg_at_start(&mut self) {
        let x_start = self.seg.x_start.clone();
        match &mut self.cg {
            Some(cg) => {
                cg.set_x(&x_start);
                cg.restart();
            }
            None => {
                let op = self.op.clone();
                self.cg = Some(Cg::with_operator(op, self.sys.b, x_start.to_vec()));
            }
        }
        self.cg_at = Some((0, true));
    }

    /// Loads a memo snapshot taken at `at` into `cg`.
    fn load(&mut self, at: usize, state: &KrylovState, full: bool) {
        match &mut self.cg {
            Some(cg) if full => cg.restore_state(state),
            Some(cg) => cg.set_x(&state.x),
            None => {
                let mut cg = Cg::with_operator(self.op.clone(), self.sys.b, state.x.clone());
                if full {
                    cg.restore_state(state);
                }
                self.cg = Some(cg);
            }
        }
        self.cg_at = Some((at, full));
    }

    /// Brings `cg` to the current index: the iterate only, or (`full`)
    /// the whole state. Starts from whichever is latest of `cg`'s own
    /// state, the memo's snapshots and the segment start, then steps.
    fn reach(&mut self, full: bool) {
        let at = self.idx;
        if let Some((i, whole)) = self.cg_at {
            if i == at && (whole || !full) {
                return;
            }
        }
        let own = self
            .cg_at
            .filter(|&(i, whole)| whole && i <= at)
            .map(|(i, _)| i);
        if let Some((i, state)) = self.memo.snapshot(self.seg.id, at, own, full) {
            let whole = !state.r.is_empty();
            self.load(i, &state, whole);
            if i == at {
                return;
            }
        } else if own.is_none() {
            self.restart_cg_at_start();
        }
        while let Some((i, _)) = self.cg_at.filter(|&(i, _)| i < at) {
            self.live_step(i);
        }
    }

    /// One live step of `cg` from index `i` (whole state there),
    /// recording the residual if it is new and a grid snapshot on the
    /// grid.
    fn live_step(&mut self, i: usize) -> f64 {
        let r = self.live().step();
        self.computed += 1;
        let j = i + 1;
        self.cg_at = Some((j, true));
        if j == self.seg.len() {
            self.seg.ext.push(r);
        }
        if j.is_multiple_of(GRID_SPACING) {
            self.offer(j, true, true);
        }
        r
    }

    /// Publishes the residuals computed so far and offers the memo `cg`'s
    /// state at segment index `at` (whole or iterate only), taken only if
    /// the memo has none there and, for a grid point, it is on the grid.
    fn offer(&mut self, at: usize, grid: bool, full: bool) {
        let Some(cg) = &self.cg else { return };
        let make = || {
            if full {
                KrylovState {
                    iteration: at,
                    ..cg.capture_state()
                }
            } else {
                KrylovState {
                    iteration: at,
                    x: cg.x().to_vec(),
                    r: Vec::new(),
                    p: Vec::new(),
                    rr: 0.0,
                }
            }
        };
        self.memo.sync(&mut self.seg, Some((at, grid, &make)));
    }

    /// [`Trajectory::reach`] for a reader, leaving the state it
    /// materialized in the memo for the next run.
    fn materialize(&mut self, full: bool) {
        if self.dirty {
            return;
        }
        self.reach(full);
        if self.idx > 0 {
            self.offer(self.idx, false, full);
        }
    }

    /// One CG iteration, returning the new relative residual.
    pub(crate) fn step(&mut self) -> f64 {
        self.iteration += 1;
        let next = self.idx + 1;
        let mut known = self.seg.residual(next);
        if known.is_none() && self.cg_at != Some((self.idx, true)) {
            // About to compute: another run may have recorded further.
            self.memo.sync(&mut self.seg, None);
            known = self.seg.residual(next);
        }
        self.relres = match known {
            Some(r) => {
                self.replayed += 1;
                r
            }
            None => {
                self.reach(true);
                self.live_step(self.idx)
            }
        };
        self.idx = next;
        self.relres
    }

    /// Recomputes `r = b − A x` and resets `p = r` after `x` was changed:
    /// the run moves to the segment that starts at the new `x`.
    pub(crate) fn restart(&mut self) {
        debug_assert!(self.dirty, "restart without a change to x");
        self.memo.sync(&mut self.seg, None);
        let x = self.live().x().to_vec();
        self.seg = self.memo.attach(&self.sys, &x);
        self.idx = 0;
        self.dirty = false;
        // `cg.x` is the new start; its r and p are stale.
        self.cg_at = Some((0, false));
        self.relres = self.start_residual();
    }

    /// The current iterate (materialized).
    pub(crate) fn x(&mut self) -> &[f64] {
        self.materialize(false);
        self.live().x()
    }

    /// Mutable access to a slice of the iterate (materialized first).
    /// Call [`Trajectory::restart`] afterwards.
    pub(crate) fn x_slice_mut(&mut self, range: Range<usize>) -> &mut [f64] {
        self.materialize(false);
        self.dirty = true;
        self.cg_at = None;
        self.live().x_slice_mut(range)
    }

    /// Replaces the whole iterate. Call [`Trajectory::restart`] afterwards.
    pub(crate) fn set_x(&mut self, x: &[f64]) {
        match &mut self.cg {
            Some(cg) => cg.set_x(x),
            None => self.cg = Some(Cg::with_operator(self.op.clone(), self.sys.b, x.to_vec())),
        }
        self.dirty = true;
        self.cg_at = None;
    }

    /// Snapshots the full Krylov state (materialized); `iteration` is the
    /// run's iteration count.
    pub(crate) fn capture_state(&mut self) -> KrylovState {
        self.materialize(true);
        let mut state = self.live().capture_state();
        state.iteration = self.iteration;
        self.captured = Some((self.iteration, self.seg.clone(), self.idx));
        state
    }

    /// Restores a state [`Trajectory::capture_state`] took: the run
    /// rejoins that segment at the captured index.
    pub(crate) fn restore_state(&mut self, state: &KrylovState) {
        #[expect(
            clippy::expect_used,
            reason = "the driver restores only what it captured"
        )]
        let (iteration, seg, at) = self.captured.clone().expect("a captured state");
        assert_eq!(
            iteration, state.iteration,
            "restored state was not the last capture"
        );
        self.memo.sync(&mut self.seg, None);
        if seg.id != self.seg.id {
            self.seg = seg;
            // Read back what this run recorded on it after the capture.
            self.memo.sync(&mut self.seg, None);
        }
        self.idx = at;
        self.dirty = false;
        self.load(at, state, true);
        self.relres = self.live().relative_residual();
    }

    /// `||r|| / ||b||` of the recurrence residual.
    pub(crate) fn relative_residual(&self) -> f64 {
        self.relres
    }

    /// True when the relative residual is at or below `tol`.
    pub(crate) fn converged(&self, tol: f64) -> bool {
        self.relres <= tol
    }

    /// Completed iterations.
    pub(crate) fn iteration(&self) -> usize {
        self.iteration
    }
}

impl Drop for Trajectory<'_> {
    fn drop(&mut self) {
        self.memo.sync(&mut self.seg, None);
        self.memo
            .computed
            .fetch_add(self.computed, Ordering::Relaxed);
        self.memo
            .replayed
            .fetch_add(self.replayed, Ordering::Relaxed);
    }
}
