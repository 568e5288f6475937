//! Warehouse ingest: object store + journal → relational views.
//!
//! Ingest enumerates `units/*.ref` in sorted spec-hash order (the
//! canonical order everything downstream inherits its determinism
//! from), resolves each pointer through the self-verifying cache, and
//! decodes the report, its provenance sidecar, and the journal
//! **tolerantly**: a field an older engine version never wrote reads
//! as [`Datum::Null`]; an object that fails to parse (or a garbage or
//! dangling ref) increments the rejected counter and is skipped —
//! ingest never panics on store contents.
//!
//! There is one ingest loop, [`Snapshot::refresh`], and it is
//! incremental: a one-shot [`Warehouse::load`] is an empty snapshot
//! refreshed once, a long-lived reader (`rsls-serve`) keeps its
//! snapshot and pays only for what the store gained.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use rsls_campaign::{JournalCursor, JournalEvent, JournalTail, ResultCache};
use serde_json::{Deserialize, Error, Parser, Value};

use crate::table::{Datum, Table};
use crate::{exec, sql, LabError, QueryResult};

/// Column names of the `runs` view, in projection order.
const RUNS_COLUMNS: &[&str] = &[
    "experiment",
    "unit",
    "matrix",
    "scale",
    "scheme",
    "ranks",
    "iterations",
    "converged",
    "residual",
    "time",
    "energy",
    "power",
    "faults",
    "fallbacks",
    "checkpoint_interval",
    "retries",
    "degraded",
    "engine_version",
    "matrix_fingerprint",
    "chaos_plan_hash",
    "spec_hash",
    "report_hash",
];

/// Column names of the `units` view (journal timelines).
const UNITS_COLUMNS: &[&str] = &[
    "unit",
    "spec_hash",
    "starts",
    "dones",
    "failed",
    "degraded",
    "retries",
    "corrupt",
    "wall_s",
];

/// Column names of the `schemes` view (per-scheme aggregates).
const SCHEMES_COLUMNS: &[&str] = &[
    "scheme",
    "runs",
    "converged_runs",
    "avg_iterations",
    "avg_time",
    "avg_energy",
    "avg_power",
    "total_faults",
    "total_retries",
];

/// Column names of the `chaos` view (injection-site summaries).
const CHAOS_COLUMNS: &[&str] = &["site", "fired"];

/// Column names of the `kernels` view (benchmark run files, long
/// format: one row per scalar leaf of each `*.json`).
const KERNELS_COLUMNS: &[&str] = &["source", "metric", "value"];

/// Per-unit activity accumulated from the journal.
#[derive(Debug, Default, Clone)]
struct UnitActivity {
    /// Unit name of the first journal record that named the hash.
    unit: String,
    starts: i64,
    dones: i64,
    failed: i64,
    degraded: i64,
    retries: i64,
    corrupt: i64,
    wall_s: f64,
}

/// The in-memory warehouse: every view, plus this load's ingest tally.
#[derive(Debug, Clone)]
pub struct Warehouse {
    /// One row per unit pointer in the store, in sorted spec-hash order.
    pub runs: Table,
    /// One row per unit hash seen in the journal, in sorted hash order.
    pub units: Table,
    /// One row per scheme, aggregated over `runs`, in scheme order.
    pub schemes: Table,
    /// One row per chaos site the journal recorded, in site order.
    pub chaos: Table,
    /// One row per scalar leaf of each benchmark run file, in
    /// (source, metric) order — empty until
    /// [`Warehouse::attach_kernels`] points at a directory of them.
    pub kernels: Table,
    /// Objects this load ingested successfully.
    pub ingested: u64,
    /// Store entries this load rejected (tolerant decode, counted).
    pub rejected: u64,
}

impl Warehouse {
    /// Loads the warehouse from a campaign cache directory and an
    /// optional journal. Missing directories and journals are empty,
    /// not errors — you can point the lab at a store that has not been
    /// created yet and get zero-row views.
    pub fn load(cache_dir: &Path, journal_path: Option<&Path>) -> io::Result<Warehouse> {
        Warehouse::load_shards(&[(cache_dir, journal_path)])
    }

    /// Loads the warehouse over a *set* of store namespaces — the
    /// sharded-engine layout, one `(cache dir, journal)` pair per
    /// shard. Unit pointers from every shard merge into one globally
    /// sorted spec-hash order (duplicates keep the lowest shard, which
    /// cannot change row bytes: the store is content-addressed, so two
    /// shards holding the same spec hold byte-identical objects), and
    /// per-unit journal activity and chaos counts sum across shards.
    /// Ingesting `N` shards therefore prints exactly the bytes a
    /// single-store campaign over the same units would have printed.
    pub fn load_shards(stores: &[(&Path, Option<&Path>)]) -> io::Result<Warehouse> {
        let mut snapshot = Snapshot::open(stores)?;
        snapshot.refresh()?;
        Ok(snapshot.warehouse())
    }

    /// Populates the `kernels` view from the benchmark run files in
    /// `dir` (`benchmark/baseline-run.json` and any `run --out` file
    /// beside it): every `*.json` directly in `dir` (sorted by file name
    /// — the canonical order, independent of directory enumeration)
    /// flattens into long-format rows `(source, metric, value)`, one per
    /// scalar leaf, with dotted paths for nesting and numeric indices
    /// for arrays (`runs.0.result.metrics.ops_per_s.value`); `source` is
    /// the file stem. The run-file schema is not known here. Decoding is
    /// tolerant in the warehouse tradition: a missing directory is an
    /// empty view and an unparsable file counts as rejected, never an
    /// error — so the perf trajectory across run files is queryable next
    /// to the run views.
    pub fn attach_kernels(&mut self, dir: &Path) {
        let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect(),
            Err(_) => Vec::new(),
        };
        files.sort();
        let mut rows: Vec<(String, String, Datum)> = Vec::new();
        let mut rejected = 0u64;
        for path in files {
            let source = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            let parsed = std::fs::read(&path)
                .ok()
                .and_then(|bytes| serde_json::from_slice::<Value>(&bytes).ok());
            let Some(report) = parsed else {
                rejected += 1;
                continue;
            };
            flatten_scalars(&report, String::new(), &mut |metric, value| {
                rows.push((source.clone(), metric, value));
            });
        }
        rows.sort_by(|(sa, ma, _), (sb, mb, _)| sa.cmp(sb).then_with(|| ma.cmp(mb)));
        self.kernels = Table::new("kernels", KERNELS_COLUMNS);
        for (source, metric, value) in rows {
            self.kernels
                .rows
                .push(vec![Datum::Str(source), Datum::Str(metric), value]);
        }
        crate::note_rejected(rejected);
        self.rejected += rejected;
    }

    /// The view named `name`, if the warehouse has it.
    pub fn view(&self, name: &str) -> Option<&Table> {
        match name {
            "runs" => Some(&self.runs),
            "units" => Some(&self.units),
            "schemes" => Some(&self.schemes),
            "chaos" => Some(&self.chaos),
            "kernels" => Some(&self.kernels),
            _ => None,
        }
    }

    /// Every view, in stable presentation order.
    pub fn views(&self) -> [&Table; 5] {
        [
            &self.runs,
            &self.units,
            &self.schemes,
            &self.chaos,
            &self.kernels,
        ]
    }

    /// Parses and executes one query against the warehouse's views,
    /// counting it in [`crate::queries_total`].
    pub fn query(&self, text: &str) -> Result<QueryResult, LabError> {
        let q = sql::parse(text)?;
        let Some(table) = self.view(&q.table) else {
            return Err(LabError::Eval(format!(
                "unknown table `{}` (views: runs, units, schemes, chaos, kernels)",
                q.table
            )));
        };
        let result = exec::execute(table, &q)?;
        crate::note_query();
        Ok(result)
    }
}

/// Report-object fields behind the `runs` columns `scheme` …
/// `checkpoint_interval`, in column order.
const REPORT_FIELDS: [&str; 11] = [
    "scheme",
    "num_ranks",
    "iterations",
    "converged",
    "final_relative_residual",
    "time_s",
    "energy_j",
    "avg_power_w",
    "faults_injected",
    "construction_fallbacks",
    "checkpoint_interval_iters",
];

/// Provenance-sidecar fields behind `runs` columns: the first
/// [`LEADING_PROVENANCE`] open the row, the rest follow the two journal
/// columns.
const PROVENANCE_FIELDS: [&str; 7] = [
    "experiment",
    "unit",
    "matrix",
    "scale",
    "engine_version",
    "matrix_fingerprint",
    "chaos_plan_hash",
];
const LEADING_PROVENANCE: usize = 4;

/// The decoded `runs` cells of one verified unit pointer — what the
/// snapshot keeps of a 24 KB report object.
#[derive(Debug, Clone)]
struct UnitRow {
    /// Index of the store whose pointer was resolved.
    store: usize,
    report_hash: String,
    /// One cell per [`REPORT_FIELDS`] entry.
    report: Vec<Datum>,
    /// One cell per [`PROVENANCE_FIELDS`] entry; `None` until a sidecar
    /// decodes (the engine writes it after the pointer).
    provenance: Option<Vec<Datum>>,
}

/// Everything ingest folds out of one journal, or out of several merged.
#[derive(Debug, Clone, Default)]
struct JournalDigest {
    /// Per-unit activity by spec hash.
    activity: BTreeMap<String, UnitActivity>,
    /// Fired count by chaos site.
    chaos: BTreeMap<String, i64>,
}

impl JournalDigest {
    /// Folds the next event of one journal in. The journal appends a
    /// chaos summary per campaign end, so the *last* record for a site
    /// wins.
    fn fold(&mut self, event: &JournalEvent) {
        let activity = &mut self.activity;
        match event {
            JournalEvent::Start { hash, unit } => unit_activity(activity, hash, unit).starts += 1,
            JournalEvent::Done { hash, unit, wall_s } => {
                let a = unit_activity(activity, hash, unit);
                a.dones += 1;
                a.wall_s += wall_s;
            }
            JournalEvent::Failed { hash, unit, .. } => {
                unit_activity(activity, hash, unit).failed += 1;
            }
            JournalEvent::Degraded { hash, unit, .. } => {
                unit_activity(activity, hash, unit).degraded += 1;
            }
            JournalEvent::Retry { hash, unit, .. } => {
                unit_activity(activity, hash, unit).retries += 1;
            }
            JournalEvent::CacheCorrupt { hash, unit, .. } => {
                unit_activity(activity, hash, unit).corrupt += 1;
            }
            JournalEvent::Chaos { site, fired } => {
                let fired = (*fired).min(i64::MAX as u64) as i64;
                self.chaos.insert(site.clone(), fired);
            }
        }
    }

    /// Adds the next store's digest: counters of a hash seen before sum
    /// (a unit retried on one shard and finished on another reports
    /// both timelines) and keep the first store's unit name; chaos
    /// counts sum per site (each shard's journal carries its own
    /// end-of-campaign summary).
    fn merge(&mut self, store: &JournalDigest) {
        for (hash, a) in &store.activity {
            match self.activity.get_mut(hash) {
                Some(m) => {
                    m.starts += a.starts;
                    m.dones += a.dones;
                    m.failed += a.failed;
                    m.degraded += a.degraded;
                    m.retries += a.retries;
                    m.corrupt += a.corrupt;
                    m.wall_s += a.wall_s;
                }
                None => {
                    self.activity.insert(hash.clone(), a.clone());
                }
            }
        }
        for (site, fired) in &store.chaos {
            let n = self.chaos.entry(site.clone()).or_insert(0);
            *n = n.saturating_add(*fired);
        }
    }
}

/// The activity slot of `hash`, created on first touch under the unit
/// name that touch carried.
fn unit_activity<'a>(
    activity: &'a mut BTreeMap<String, UnitActivity>,
    hash: &str,
    unit: &str,
) -> &'a mut UnitActivity {
    activity
        .entry(hash.to_string())
        .or_insert_with(|| UnitActivity {
            unit: unit.to_string(),
            ..UnitActivity::default()
        })
}

/// One store namespace of a [`Snapshot`]: its cache handle and how far
/// its journal has been folded.
#[derive(Debug)]
struct StoreState {
    cache: ResultCache,
    journal_path: Option<PathBuf>,
    cursor: JournalCursor,
    /// Everything up to `cursor`.
    digest: JournalDigest,
    /// The journal's unterminated last line as the latest refresh saw
    /// it: part of that refresh's views, never folded into `digest`.
    unterminated: Option<JournalEvent>,
}

/// Incremental warehouse ingest over a fixed set of store namespaces.
///
/// The store is append-only and content-addressed, so what was verified
/// once stays true: the snapshot keeps, per unit pointer it has already
/// resolved, the decoded `runs` cells (never the report bytes), and per
/// journal a digest with the byte offset it has consumed.
/// [`Snapshot::refresh`] then reads only what is new — unseen
/// `units/*.ref` → object → sidecar, sidecars that had not landed yet,
/// and the journal tails — and [`Snapshot::warehouse`] builds the views
/// in the order and with the bytes a from-scratch load of the same
/// directories gives ([`Warehouse::load_shards`] *is* a fresh snapshot
/// refreshed once; `tests/snapshot_incremental.rs` holds the two
/// equal after every kind of store change).
///
/// What is deliberately not re-checked: an object that was verified
/// once and is quarantined or rewritten later, and a pointer whose
/// target changes — neither can happen while stores are
/// content-addressed and byte-deterministic. A pointer that was
/// rejected is *not* remembered; it is tried again on every refresh.
#[derive(Debug)]
pub struct Snapshot {
    stores: Vec<StoreState>,
    /// Verified rows by spec hash — the global sorted order of `runs`.
    rows: BTreeMap<String, UnitRow>,
    /// Pointers the latest refresh rejected.
    rejected: u64,
}

impl Snapshot {
    /// An empty snapshot over one `(cache dir, journal)` pair per store
    /// namespace, in shard order. Missing directories are created empty
    /// and missing journals read as empty, as in [`Warehouse::load`].
    pub fn open(stores: &[(&Path, Option<&Path>)]) -> io::Result<Snapshot> {
        let stores = stores
            .iter()
            .map(|(cache_dir, journal_path)| {
                Ok(StoreState {
                    cache: ResultCache::open(cache_dir)?,
                    journal_path: journal_path.map(Path::to_path_buf),
                    cursor: JournalCursor::default(),
                    digest: JournalDigest::default(),
                    unterminated: None,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Snapshot {
            stores,
            rows: BTreeMap::new(),
            rejected: 0,
        })
    }

    /// Brings the snapshot up to date with the directories and returns
    /// whether anything [`Snapshot::warehouse`] shows has changed. Fails
    /// only where a from-scratch load fails (an unreadable journal), and
    /// then leaves the snapshot as it was.
    pub fn refresh(&mut self) -> io::Result<bool> {
        // Journals first, on copies of the cursors: the only step that
        // can fail must not leave some stores advanced and others not.
        let tails = self
            .stores
            .iter()
            .map(|store| {
                let mut cursor = store.cursor.clone();
                let tail = match &store.journal_path {
                    Some(path) => cursor.read_new(path)?,
                    None => JournalTail::default(),
                };
                Ok((cursor, tail))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let mut changed = false;
        for (store, (cursor, tail)) in self.stores.iter_mut().zip(tails) {
            changed |= tail.restarted
                || !tail.events.is_empty()
                || tail.unterminated != store.unterminated;
            if tail.restarted {
                store.digest = JournalDigest::default();
            }
            for event in &tail.events {
                store.digest.fold(event);
            }
            store.cursor = cursor;
            store.unterminated = tail.unterminated;
        }

        // Global sorted spec-hash order across every store; a hash seen
        // in two stores belongs to the lower one.
        let mut pointers: Vec<(String, usize)> = Vec::new();
        for (idx, store) in self.stores.iter().enumerate() {
            pointers.extend(store.cache.unit_spec_hashes().into_iter().map(|h| (h, idx)));
        }
        pointers.sort();
        pointers.dedup_by(|a, b| a.0 == b.0);

        let mut rows = BTreeMap::new();
        let (mut read, mut rejected) = (0u64, 0u64);
        for (spec_hash, idx) in pointers {
            let cache = &self.stores[idx].cache;
            let known = self.rows.remove(&spec_hash).filter(|row| row.store == idx);
            let row = match known {
                Some(mut row) => {
                    if row.provenance.is_none() {
                        row.provenance = read_sidecar(cache, &spec_hash);
                        changed |= row.provenance.is_some();
                    }
                    row
                }
                None => match ingest_unit(cache, &spec_hash, idx) {
                    Some(row) => {
                        read += 1;
                        changed = true;
                        row
                    }
                    None => {
                        rejected += 1;
                        continue;
                    }
                },
            };
            rows.insert(spec_hash, row);
        }
        // Whatever is left belonged to a pointer that is gone (or moved
        // to a store that now rejects it).
        changed |= !self.rows.is_empty() || rejected != self.rejected;
        self.rows = rows;
        self.rejected = rejected;
        crate::note_ingested(read);
        crate::note_rejected(rejected);
        Ok(changed)
    }

    /// Provenance sidecar paths of ingested rows that had no decodable
    /// sidecar at the latest refresh — what a cheap store probe has to
    /// watch besides the pointer names and the journal lengths.
    pub fn missing_sidecars(&self) -> Vec<PathBuf> {
        self.rows
            .iter()
            .filter(|(_, row)| row.provenance.is_none())
            .map(|(spec_hash, row)| self.stores[row.store].cache.provenance_path(spec_hash))
            .collect()
    }

    /// Builds the views of the latest refresh.
    pub fn warehouse(&self) -> Warehouse {
        let mut journal = JournalDigest::default();
        for store in &self.stores {
            match &store.unterminated {
                None => journal.merge(&store.digest),
                Some(event) => {
                    let mut digest = store.digest.clone();
                    digest.fold(event);
                    journal.merge(&digest);
                }
            }
        }

        let mut runs = Table::new("runs", RUNS_COLUMNS);
        let no_sidecar = vec![Datum::Null; PROVENANCE_FIELDS.len()];
        for (spec_hash, row) in &self.rows {
            let acts = journal.activity.get(spec_hash);
            let (retries, degraded) = acts.map_or((0, 0), |a| (a.retries, a.degraded));
            let provenance = row.provenance.as_ref().unwrap_or(&no_sidecar);
            let mut cells = Vec::with_capacity(RUNS_COLUMNS.len());
            cells.extend_from_slice(&provenance[..LEADING_PROVENANCE]);
            cells.extend_from_slice(&row.report);
            cells.push(Datum::Int(retries));
            cells.push(Datum::Int(degraded));
            cells.extend_from_slice(&provenance[LEADING_PROVENANCE..]);
            cells.push(Datum::Str(spec_hash.clone()));
            cells.push(Datum::Str(row.report_hash.clone()));
            runs.rows.push(cells);
        }

        let mut units = Table::new("units", UNITS_COLUMNS);
        for (hash, a) in &journal.activity {
            units.rows.push(vec![
                Datum::Str(a.unit.clone()),
                Datum::Str(hash.clone()),
                Datum::Int(a.starts),
                Datum::Int(a.dones),
                Datum::Int(a.failed),
                Datum::Int(a.degraded),
                Datum::Int(a.retries),
                Datum::Int(a.corrupt),
                Datum::Float(a.wall_s),
            ]);
        }

        let mut chaos = Table::new("chaos", CHAOS_COLUMNS);
        for (site, fired) in &journal.chaos {
            chaos
                .rows
                .push(vec![Datum::Str(site.clone()), Datum::Int(*fired)]);
        }

        Warehouse {
            schemes: derive_schemes(&runs),
            ingested: runs.rows.len() as u64,
            runs,
            units,
            chaos,
            kernels: Table::new("kernels", KERNELS_COLUMNS),
            rejected: self.rejected,
        }
    }
}

/// The cells ingest keeps of one JSON document — the value under each
/// of `fields`, first occurrence, `NULL` when absent — or `None` when the
/// document is not an object. Every other member (`breakdown`, `history`
/// and `power_profile` are 99 % of a report's bytes) goes through
/// [`Parser::skip`]: checked by the same routines that would have built
/// it, so the documents this accepts are the ones a full parse accepts,
/// and nothing is allocated for them.
fn read_cells(p: &mut Parser<'_>, fields: &[&str]) -> Result<Option<Vec<Datum>>, Error> {
    if p.peek() != Some(b'{') {
        p.skip()?;
        return Ok(None);
    }
    let mut cells: Vec<Option<Datum>> = vec![None; fields.len()];
    p.object(|p, key| match fields.iter().position(|f| *f == key) {
        Some(i) if cells[i].is_none() => {
            cells[i] = Some(Datum::deserialize(p)?);
            Ok(())
        }
        _ => p.skip(),
    })?;
    let cells = cells.into_iter().map(|c| c.unwrap_or(Datum::Null));
    Ok(Some(cells.collect()))
}

/// One cell per [`REPORT_FIELDS`] entry; all `NULL` for a report that is
/// valid JSON but not an object.
struct ReportCells(Vec<Datum>);

impl Deserialize for ReportCells {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let cells = read_cells(p, &REPORT_FIELDS)?;
        Ok(ReportCells(
            cells.unwrap_or_else(|| vec![Datum::Null; REPORT_FIELDS.len()]),
        ))
    }
}

/// One cell per [`PROVENANCE_FIELDS`] entry, if the sidecar is an object.
struct SidecarCells(Option<Vec<Datum>>);

impl Deserialize for SidecarCells {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        read_cells(p, &PROVENANCE_FIELDS).map(SidecarCells)
    }
}

/// Resolves one unit pointer through the self-verifying cache and
/// decodes its row; `None` rejects the pointer (garbage or dangling
/// ref, unparsable object).
fn ingest_unit(cache: &ResultCache, spec_hash: &str, store: usize) -> Option<UnitRow> {
    let report_hash = cache.object_hash(spec_hash)?;
    let bytes = cache.load_object(&report_hash)?;
    let ReportCells(report) = serde_json::from_slice(&bytes).ok()?;
    Some(UnitRow {
        store,
        report_hash,
        report,
        provenance: read_sidecar(cache, spec_hash),
    })
}

/// Tolerant read of a provenance sidecar: a missing file, unreadable
/// bytes or anything but a JSON object is `None` (every provenance
/// column of the row then reads `NULL`).
fn read_sidecar(cache: &ResultCache, spec_hash: &str) -> Option<Vec<Datum>> {
    let bytes = std::fs::read(cache.provenance_path(spec_hash)).ok()?;
    let SidecarCells(cells) = serde_json::from_slice(&bytes).ok()?;
    cells
}

/// Depth-first walk over a JSON tree emitting `(dotted.path, datum)`
/// for every scalar leaf. Objects keep insertion order (the vendored
/// parser preserves it), arrays contribute numeric path segments, and
/// `null` leaves are skipped — a metric that was not measured has no
/// row, which is the long-format equivalent of `NULL`.
fn flatten_scalars(v: &Value, prefix: String, emit: &mut impl FnMut(String, Datum)) {
    let join = |prefix: &str, seg: &str| {
        if prefix.is_empty() {
            seg.to_string()
        } else {
            format!("{prefix}.{seg}")
        }
    };
    match v {
        Value::Object(fields) => {
            for (key, inner) in fields {
                flatten_scalars(inner, join(&prefix, key), emit);
            }
        }
        Value::Array(items) => {
            for (idx, inner) in items.iter().enumerate() {
                flatten_scalars(inner, join(&prefix, &idx.to_string()), emit);
            }
        }
        Value::Null => {}
        leaf => emit(prefix, Datum::from_json(leaf)),
    }
}

/// Materializes the `schemes` view from `runs`: per-scheme counts,
/// means (folded in `runs` order), and totals, sorted by scheme label.
fn derive_schemes(runs: &Table) -> Table {
    let col = |name: &str| runs.column_index(name).unwrap_or(usize::MAX);
    let (ci_scheme, ci_iter, ci_time, ci_energy, ci_power, ci_conv, ci_faults, ci_retries) = (
        col("scheme"),
        col("iterations"),
        col("time"),
        col("energy"),
        col("power"),
        col("converged"),
        col("faults"),
        col("retries"),
    );
    #[derive(Default)]
    struct Acc {
        runs: i64,
        converged: i64,
        iterations: f64,
        iterations_n: i64,
        time: f64,
        time_n: i64,
        energy: f64,
        energy_n: i64,
        power: f64,
        power_n: i64,
        faults: i64,
        retries: i64,
    }
    let mut groups: Vec<(Datum, Acc)> = Vec::new();
    for row in &runs.rows {
        let scheme = row.get(ci_scheme).cloned().unwrap_or(Datum::Null);
        let i = match groups
            .iter()
            .position(|(s, _)| s.total_order(&scheme) == std::cmp::Ordering::Equal)
        {
            Some(i) => i,
            None => {
                groups.push((scheme.clone(), Acc::default()));
                groups.len() - 1
            }
        };
        let acc = &mut groups[i].1;
        acc.runs += 1;
        if row.get(ci_conv) == Some(&Datum::Bool(true)) {
            acc.converged += 1;
        }
        let fold = |ci: usize, sum: &mut f64, n: &mut i64| {
            if let Some(v) = row.get(ci).and_then(Datum::as_f64) {
                *sum += v;
                *n += 1;
            }
        };
        fold(ci_iter, &mut acc.iterations, &mut acc.iterations_n);
        fold(ci_time, &mut acc.time, &mut acc.time_n);
        fold(ci_energy, &mut acc.energy, &mut acc.energy_n);
        fold(ci_power, &mut acc.power, &mut acc.power_n);
        if let Some(f) = row.get(ci_faults).and_then(Datum::as_f64) {
            acc.faults += f as i64;
        }
        if let Some(r) = row.get(ci_retries).and_then(Datum::as_f64) {
            acc.retries += r as i64;
        }
    }
    groups.sort_by(|(a, _), (b, _)| a.total_order(b));
    let avg = |sum: f64, n: i64| {
        if n == 0 {
            Datum::Null
        } else {
            Datum::Float(sum / n as f64)
        }
    };
    let mut table = Table::new("schemes", SCHEMES_COLUMNS);
    for (scheme, acc) in groups {
        table.rows.push(vec![
            scheme,
            Datum::Int(acc.runs),
            Datum::Int(acc.converged),
            avg(acc.iterations, acc.iterations_n),
            avg(acc.time, acc.time_n),
            avg(acc.energy, acc.energy_n),
            avg(acc.power, acc.power_n),
            Datum::Int(acc.faults),
            Datum::Int(acc.retries),
        ]);
    }
    table
}
