//! Differential property test: an incrementally refreshed
//! [`Snapshot`] equals a from-scratch [`Warehouse::load_shards`] of the
//! same directories after **every** single write a store can see.
//!
//! Each case builds 1–3 store namespaces and a handful of writers, then
//! interleaves the writers' steps at random, one file operation at a
//! time:
//!
//! * the engine's order for a unit — journal `start` (and `retry`),
//!   object, pointer, sidecar, journal `done`, chaos summary lines;
//! * the benchmark writer's order — sidecar first, then object, pointer;
//! * a garbage pointer; a dangling pointer whose object lands later; a
//!   pointer at an object that fails verification (quarantined by the
//!   first reader) and is re-stored; the same spec in two namespaces;
//!   a pointer that is deleted again;
//! * a torn journal append followed by the appender's framing newline
//!   or by the resume-time repair; a complete record whose newline has
//!   not landed yet; a journal truncated at an arbitrary byte,
//!   re-created empty, and replaced in one step by a longer one.
//!
//! `load_shards` is itself a fresh snapshot refreshed once; in the
//! commit that introduced [`Snapshot`] it was still the earlier
//! from-scratch loop, and this file passed against that unchanged.
//!
//! After every step the snapshot's views, `ingested` and `rejected`
//! must print the same bytes as the fresh load, a second refresh with
//! nothing in between must report "unchanged" and read no object, and
//! "unchanged" must never be reported across a step that moved a view.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use proptest::prelude::*;
use rsls_campaign::{Journal, JournalEvent, Provenance, ResultCache};
use rsls_core::RunReport;
use rsls_lab::{ingested_objects_total, Snapshot, Warehouse};

/// The lab's ingest counter is process-wide: tests that assert on it
/// must not overlap.
static COUNTER: Mutex<()> = Mutex::new(());

const UNITS: usize = 5;
const SCHEMES: [&str; 3] = ["FF", "RD", "CR-M"];

/// One store namespace and the handles the writers use on it.
struct Store {
    cache: ResultCache,
    journal_path: PathBuf,
    journal: Journal,
}

/// A unit some writer stores: pointer name, object name, object bytes
/// and sidecar.
struct Unit {
    spec: String,
    report_hash: String,
    bytes: Vec<u8>,
    provenance: Provenance,
}

fn unit(i: usize) -> Unit {
    let report = RunReport {
        scheme: SCHEMES[i % SCHEMES.len()].to_string(),
        num_ranks: 4 + i,
        iterations: 100 + 7 * i,
        converged: i != 3,
        final_relative_residual: 1.5e-13 * (i + 1) as f64,
        time_s: 0.1 + i as f64 / 3.0,
        energy_j: 250.0 / (i + 1) as f64,
        avg_power_w: 180.0 + i as f64,
        faults_injected: i % 3,
        construction_fallbacks: 0,
        checkpoint_interval_iters: i.is_multiple_of(2).then_some(10 * i),
        checkpoint_bytes_written: 0,
        breakdown: Default::default(),
        history: Default::default(),
        power_profile: Vec::new(),
    };
    let bytes = serde_json::to_string(&report)
        .expect("report serializes")
        .into_bytes();
    let spec = rsls_core::sha256_hex(format!("spec-{i}").as_bytes());
    let report_hash = rsls_core::sha256_hex(&bytes);
    Unit {
        provenance: Provenance {
            spec_hash: spec.clone(),
            report_hash: report_hash.clone(),
            experiment: format!("exp{}", i % 2),
            unit: format!("m{i}/{}", report.scheme),
            matrix: format!("m{i}"),
            scale: "quick".to_string(),
            engine_version: 9,
            matrix_fingerprint: (i != 1).then(|| format!("{:016x}", 0xabc0 + i)),
            chaos_plan_hash: (i == 4).then(|| "c".repeat(64)),
        },
        spec,
        report_hash,
        bytes,
    }
}

/// One file operation on one store.
#[derive(Debug, Clone)]
enum Step {
    Record(JournalEvent),
    /// Raw bytes appended to the journal, no newline implied.
    Append(Vec<u8>),
    /// `Journal::repair_torn_tail`, as `--resume` runs it.
    Repair,
    /// The journal cut at this fraction of its length (0 re-creates it
    /// empty, the way a campaign without `--resume` starts).
    TruncateAt(u8),
    /// The whole journal replaced by new records in one write, longer
    /// than what was there.
    ReplaceLonger(u8),
    Object(usize),
    BadObject(usize),
    Pointer(usize),
    GarbagePointer(usize),
    RemovePointer(usize),
    Sidecar(usize),
}

/// A deterministic draw source over the generated tape.
struct Tape<'a> {
    values: &'a [u32],
    at: usize,
}

impl Tape<'_> {
    fn below(&mut self, n: usize) -> usize {
        let v = self.values[self.at % self.values.len()] as usize;
        self.at += 1;
        v % n
    }
}

fn start(u: &Unit) -> JournalEvent {
    JournalEvent::Start {
        hash: u.spec.clone(),
        unit: u.provenance.unit.clone(),
    }
}

fn done(u: &Unit, wall_s: f64) -> JournalEvent {
    JournalEvent::Done {
        hash: u.spec.clone(),
        unit: u.provenance.unit.clone(),
        wall_s,
    }
}

/// The journal line of a `done` record, without its newline.
fn done_line(u: &Unit, wall_s: f64) -> Vec<u8> {
    format!(
        "{{\"event\":\"done\",\"hash\":\"{}\",\"unit\":\"{}\",\"wall_s\":{wall_s:?}}}",
        u.spec, u.provenance.unit
    )
    .into_bytes()
}

/// One writer's steps, in the order it performs them.
fn writer(tape: &mut Tape, units: &[Unit]) -> Vec<Step> {
    let i = tape.below(UNITS);
    let u = &units[i];
    let wall_s = 0.125 * (1 + tape.below(40)) as f64;
    match tape.below(12) {
        // The engine: start, maybe a retry, object, pointer, sidecar,
        // done, and at campaign end a chaos summary.
        0 | 1 => {
            let mut steps = vec![Step::Record(start(u))];
            if tape.below(3) == 0 {
                steps.push(Step::Record(JournalEvent::Retry {
                    hash: u.spec.clone(),
                    unit: u.provenance.unit.clone(),
                    attempt: 1,
                }));
            }
            steps.extend([
                Step::Object(i),
                Step::Pointer(i),
                Step::Sidecar(i),
                Step::Record(done(u, wall_s)),
            ]);
            if tape.below(2) == 0 {
                steps.push(Step::Record(JournalEvent::Chaos {
                    site: ["cache-corrupt", "journal-torn"][tape.below(2)].to_string(),
                    fired: tape.below(9) as u64,
                }));
            }
            steps
        }
        // The benchmark's writer: sidecar first.
        2 => vec![Step::Sidecar(i), Step::Object(i), Step::Pointer(i)],
        3 => vec![Step::GarbagePointer(i)],
        // Dangling until the object lands.
        4 => vec![Step::Pointer(i), Step::Object(i), Step::Sidecar(i)],
        // An object that fails verification, re-stored later.
        5 => vec![Step::Pointer(i), Step::BadObject(i), Step::Object(i)],
        6 => vec![Step::Object(i), Step::Pointer(i), Step::RemovePointer(i)],
        // A torn append, then the appender restores line framing.
        7 => {
            let line = done_line(u, wall_s);
            vec![
                Step::Append(line[..line.len() / 2].to_vec()),
                Step::Append(b"\n".to_vec()),
                Step::Record(done(u, wall_s)),
            ]
        }
        // A torn append, then a resume repairs it.
        8 => {
            let line = done_line(u, wall_s);
            vec![
                Step::Append(line[..line.len() / 2].to_vec()),
                Step::Repair,
                Step::Record(start(u)),
            ]
        }
        // A reader arrives between a record and its newline.
        9 => vec![
            Step::Append(done_line(u, wall_s)),
            Step::Append(b"\n".to_vec()),
        ],
        10 => vec![
            Step::TruncateAt(tape.below(4) as u8 * 85),
            Step::Record(start(u)),
            Step::Record(done(u, wall_s)),
        ],
        _ => vec![
            Step::ReplaceLonger(tape.below(UNITS) as u8),
            Step::Record(done(u, wall_s)),
        ],
    }
}

fn apply(store: &Store, units: &[Unit], step: &Step) {
    let cache = &store.cache;
    match step {
        Step::Record(event) => store.journal.record(event).expect("journal append"),
        Step::Append(bytes) => OpenOptions::new()
            .create(true)
            .append(true)
            .open(&store.journal_path)
            .and_then(|mut f| f.write_all(bytes))
            .expect("raw journal append"),
        Step::Repair => {
            Journal::repair_torn_tail(&store.journal_path).expect("repair");
        }
        Step::TruncateAt(frac) => {
            let len = fs::metadata(&store.journal_path).map_or(0, |m| m.len());
            OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(&store.journal_path)
                .and_then(|f| f.set_len(len * u64::from(*frac) / 255))
                .expect("journal truncation");
        }
        Step::ReplaceLonger(first) => {
            let len = fs::metadata(&store.journal_path).map_or(0, |m| m.len()) as usize;
            let mut fresh = Vec::new();
            let mut i = *first as usize;
            while fresh.len() <= len {
                fresh.extend(done_line(&units[i % UNITS], 0.5 + i as f64));
                fresh.push(b'\n');
                i += 1;
            }
            fs::write(&store.journal_path, fresh).expect("journal replacement");
        }
        Step::Object(i) => {
            fs::write(cache.object_path(&units[*i].report_hash), &units[*i].bytes).expect("object")
        }
        // Only where no object is yet: one that was verified and is
        // damaged afterwards is outside what a snapshot re-checks.
        Step::BadObject(i) => {
            let path = cache.object_path(&units[*i].report_hash);
            if !path.exists() {
                let half = &units[*i].bytes[..units[*i].bytes.len() / 2];
                fs::write(path, half).expect("bad object");
            }
        }
        Step::Pointer(i) => {
            fs::write(cache.unit_ref_path(&units[*i].spec), &units[*i].report_hash).expect("ref")
        }
        // Likewise only where no pointer is yet: a valid pointer that
        // is re-pointed afterwards is not re-read.
        Step::GarbagePointer(i) => {
            let path = cache.unit_ref_path(&units[*i].spec);
            if !path.exists() {
                fs::write(path, "not a hash").expect("garbage ref");
            }
        }
        Step::RemovePointer(i) => {
            let _ = fs::remove_file(cache.unit_ref_path(&units[*i].spec));
        }
        Step::Sidecar(i) => cache
            .store_provenance(&units[*i].provenance)
            .expect("sidecar"),
    }
}

/// Everything the acceptance criterion compares, as bytes.
fn printed(w: &Warehouse) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\ningested {} rejected {}",
        w.runs, w.units, w.schemes, w.chaos, w.ingested, w.rejected
    )
}

fn tmp_root(case: u64) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "rsls-lab-snapshot-{case:016x}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    root
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refresh_equals_a_fresh_load_after_every_step(
        shards in 1usize..4,
        tape in proptest::collection::vec(0u32..u32::MAX, 64..65),
        case in 0u64..u64::MAX,
    ) {
        let _serial = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let root = tmp_root(case);
        let units: Vec<Unit> = (0..UNITS).map(unit).collect();
        let stores: Vec<Store> = (0..shards)
            .map(|k| {
                let journal_path = root.join(format!("shard-{k}.journal"));
                Store {
                    cache: ResultCache::open(root.join(format!("shard-{k}"))).expect("cache"),
                    journal: Journal::open(&journal_path).expect("journal"),
                    journal_path,
                }
            })
            .collect();
        let paths: Vec<(&Path, Option<&Path>)> = stores
            .iter()
            .map(|s| (s.cache.dir(), Some(s.journal_path.as_path())))
            .collect();

        let mut tape = Tape { values: &tape, at: 0 };
        let mut writers: Vec<(usize, std::collections::VecDeque<Step>)> = (0..4 + tape.below(5))
            .map(|_| (tape.below(shards), writer(&mut tape, &units).into()))
            .collect();

        let mut snapshot = Snapshot::open(&paths).expect("snapshot opens");
        snapshot.refresh().expect("first refresh");
        let mut before = printed(&snapshot.warehouse());
        prop_assert_eq!(&before, &printed(&Warehouse::load_shards(&paths).expect("loads")));

        while !writers.is_empty() {
            let w = tape.below(writers.len());
            let (shard, steps) = &mut writers[w];
            let step = steps.pop_front().expect("writers are dropped when empty");
            apply(&stores[*shard], &units, &step);
            if steps.is_empty() {
                writers.swap_remove(w);
            }

            let changed = snapshot.refresh().expect("refresh");
            let after = printed(&snapshot.warehouse());
            let fresh = printed(&Warehouse::load_shards(&paths).expect("fresh load"));
            prop_assert_eq!(&after, &fresh, "after {:?}", step);
            prop_assert!(changed || after == before, "{:?} moved a view unreported", step);

            let read_before = ingested_objects_total();
            prop_assert!(!snapshot.refresh().expect("idle refresh"), "idle refresh after {:?}", step);
            prop_assert_eq!(ingested_objects_total(), read_before, "idle refresh read an object");
            prop_assert_eq!(&printed(&snapshot.warehouse()), &after);
            before = after;
        }
        let _ = fs::remove_dir_all(&root);
    }
}
