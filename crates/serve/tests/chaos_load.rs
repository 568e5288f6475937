//! Chaos under concurrent load: injected faults never change a stored
//! byte.
//!
//! One fixed request list is sent twice from four client threads: once
//! to a fault-free single-shard server, once to a 4-shard server while
//! server, engine and client faults fire. The union of the shards'
//! `objects/` must equal the fault-free store byte for byte, and every
//! request must end with the same status and `ETag` in both runs.
//!
//! The experiment source is a *small campaign* source — each
//! experiment id drives one tiny solver unit through the campaign
//! engine — rather than the full paper registry, whose harnesses take
//! seconds-to-minutes each. The wire behavior, engine routing, and
//! store layout are identical; only the numeric workload shrinks.

#![expect(
    clippy::disallowed_methods,
    reason = "tests run servers and clients on their own threads"
)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Once};
use std::time::Duration;

use rsls_campaign::EngineOptions;
use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_experiments::artifacts::Workload;
use rsls_experiments::{campaign, Scale, Table};
use rsls_serve::client::{get_with_retry_chaotic, RetryPolicy};
use rsls_serve::server::{ExperimentInfo, ExperimentSource, ServeOptions, Server};

fn engine_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let dir = std::env::temp_dir().join(format!("rsls-chaos-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        campaign::configure(EngineOptions {
            jobs: 2,
            cache_dir: dir.join("cache"),
            use_cache: true,
            resume: false,
            journal_path: Some(dir.join("campaign.journal")),
            retries: 0,
            ..EngineOptions::default()
        })
        .expect("first configure in this process");
    });
}

/// Experiments that each run one small stencil solve through the
/// campaign engine — store objects and provenance land exactly where a
/// paper harness would put them, at a thousandth of the compute.
struct TinyCampaignSource;

const TINY_IDS: &[&str] = &[
    "unit-a", "unit-b", "unit-c", "unit-d", "unit-e", "unit-f", "unit-g", "unit-h",
];

impl ExperimentSource for TinyCampaignSource {
    fn list(&self) -> Vec<ExperimentInfo> {
        TINY_IDS
            .iter()
            .map(|id| ExperimentInfo {
                id: id.to_string(),
                description: "tiny campaign unit".to_string(),
            })
            .collect()
    }

    fn run(&self, id: &str, scale: Scale) -> Option<Vec<Table>> {
        let idx = TINY_IDS.iter().position(|&t| t == id)?;
        campaign::set_experiment(id);
        // Distinct matrix sizes per id so every experiment stores a
        // distinct object.
        let n = 10 + idx;
        let a = rsls_sparse::generators::stencil_2d(n, n);
        let ones = vec![1.0; a.nrows()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        let cfg = rsls_core::RunConfig::new(rsls_core::Scheme::FaultFree, 2);
        let system = Workload::borrowed(&a, &b);
        let spec = campaign::unit_spec_for(&system, id, scale, cfg);
        let report = campaign::execute_unit(&system, spec);
        let mut t = Table::new(format!("{id} result"), &["iterations", "converged"]);
        t.push_row(vec![
            report.iterations.to_string(),
            report.converged.to_string(),
        ]);
        Some(vec![t])
    }
}

/// Every experiment four times, a warehouse query, a report miss and a
/// health probe. The query asks for runs that cannot exist, so its
/// answer does not depend on how far the concurrent fetches have got.
fn request_list() -> Vec<String> {
    let mut list: Vec<String> = (0..4)
        .flat_map(|_| TINY_IDS.iter().map(|id| format!("/experiments/{id}")))
        .collect();
    list.push("/query?sql=SELECT%20count(*)%20FROM%20runs%20WHERE%20iterations%20%3C%200".into());
    list.push(format!("/reports/{}", "0".repeat(64)));
    list.push("/healthz".into());
    list
}

/// Per-site fault budgets. The retry headroom below exceeds them, so
/// no request and no unit can run out of attempts, however the faults
/// land on the concurrent requests.
const SERVER_FAULTS_PER_SITE: u64 = 12;
const ENGINE_FAULTS_PER_SITE: u64 = 4;
const CLIENT_FAULTS_PER_SITE: u64 = 8;

/// The client's attempts outlast every transport fault the server and
/// client plans may fire (three server sites, reset and garble).
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: (3 * SERVER_FAULTS_PER_SITE + 2 * CLIENT_FAULTS_PER_SITE + 1) as usize,
        backoff_ms: 1,
        backoff_cap_ms: 16,
        deadline: Duration::from_secs(120),
    }
}

fn capped(mut plan: ChaosPlan, faults_per_site: u64) -> Arc<ChaosInjector> {
    plan.max_faults_per_site = faults_per_site;
    Arc::new(ChaosInjector::new(plan))
}

/// The injectors of one chaotic run, one per layer, read back for
/// their fired counts.
struct Chaos {
    server: Arc<ChaosInjector>,
    engine: Arc<ChaosInjector>,
    client: Arc<ChaosInjector>,
}

impl Chaos {
    fn seeded(seed: u64) -> Chaos {
        Chaos {
            server: capped(ChaosPlan::aggressive(seed), SERVER_FAULTS_PER_SITE),
            engine: capped(ChaosPlan::aggressive(seed + 1), ENGINE_FAULTS_PER_SITE),
            client: capped(ChaosPlan::aggressive(seed + 2), CLIENT_FAULTS_PER_SITE),
        }
    }
}

/// Status and `ETag` of one request.
type Answer = (u16, Option<String>);

/// Serves `base` with `shards` engines and sends the request list from
/// four threads; returns the answers in list order.
fn run_load(base: &Path, shards: usize, chaos: Option<&Chaos>) -> Vec<Answer> {
    engine_init();
    let opts = ServeOptions {
        workers: 2,
        queue_depth: 16,
        shards,
        shard_base: Some(EngineOptions {
            jobs: 1,
            cache_dir: base.to_path_buf(),
            use_cache: true,
            resume: false,
            // A unit outlasts every panic and transient fault the
            // engine plan may fire.
            retries: if chaos.is_some() {
                2 * ENGINE_FAULTS_PER_SITE as usize
            } else {
                0
            },
            chaos: chaos.map(|c| Arc::clone(&c.engine)),
            ..EngineOptions::default()
        }),
        chaos: chaos.map(|c| Arc::clone(&c.server)),
        ..ServeOptions::default()
    };
    let server = Server::bind("127.0.0.1:0", opts, Arc::new(TinyCampaignSource))
        .expect("bind ephemeral port");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    let addr = handle.addr();

    let list = request_list();
    let policy = retry_policy();
    let client = chaos.map(|c| c.client.as_ref());
    let mut answers: Vec<(usize, Answer)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..4)
            .map(|k| {
                let (list, policy) = (&list, &policy);
                s.spawn(move || {
                    (k..list.len())
                        .step_by(4)
                        .map(|i| {
                            let resp = get_with_retry_chaotic(addr, &list[i], &[], policy, client)
                                .unwrap_or_else(|e| panic!("{}: {e}", list[i]));
                            (i, (resp.status, resp.etag().map(str::to_string)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    answers.sort_by_key(|&(i, _)| i);

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
    answers.into_iter().map(|(_, answer)| answer).collect()
}

/// Collects `objects/<sha>.json` name → bytes across the store dirs.
fn store_objects(dirs: &[PathBuf]) -> BTreeMap<String, Vec<u8>> {
    let mut objects = BTreeMap::new();
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(dir.join("objects")) else {
            continue;
        };
        for entry in entries {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("read object");
            if let Some(previous) = objects.insert(name.clone(), bytes.clone()) {
                assert_eq!(previous, bytes, "duplicate object {name} must be identical");
            }
        }
    }
    objects
}

#[test]
fn chaos_under_concurrent_load_leaves_store_byte_identical() {
    let root = std::env::temp_dir().join(format!("rsls-chaos-load-stores-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clean_base = root.join("clean");
    let chaotic_base = root.join("chaotic");

    let clean = run_load(&clean_base, 1, None);
    let chaos = Chaos::seeded(77);
    let chaotic = run_load(&chaotic_base, 4, Some(&chaos));

    let list = request_list();
    for (path, (status, etag)) in list.iter().zip(&clean) {
        let expected = if path.starts_with("/reports/") {
            404
        } else {
            200
        };
        assert_eq!(*status, expected, "{path}");
        assert_eq!(
            etag.is_some(),
            expected == 200 && path != "/healthz",
            "{path}"
        );
    }
    for ((path, fault_free), under_chaos) in list.iter().zip(&clean).zip(&chaotic) {
        assert!(under_chaos.0 < 500, "{path}: a 5xx reached the client");
        assert_eq!(under_chaos, fault_free, "{path}: status and ETag");
    }

    // Each injector arms one layer only, so its total is that layer's.
    let fired = [&chaos.server, &chaos.engine, &chaos.client].map(|c| c.total_fired());
    assert!(
        fired.iter().all(|&n| n > 0),
        "server, engine and client faults must all fire: {fired:?}"
    );

    let clean = store_objects(std::slice::from_ref(&clean_base));
    let chaotic = store_objects(
        &(0..4)
            .map(|k| chaotic_base.join(format!("shard-{k}")))
            .collect::<Vec<_>>(),
    );
    assert_eq!(clean.len(), TINY_IDS.len(), "one object per experiment");
    assert_eq!(
        clean.keys().collect::<Vec<_>>(),
        chaotic.keys().collect::<Vec<_>>(),
        "same object set regardless of shard count and faults"
    );
    for (name, bytes) in &clean {
        assert_eq!(
            Some(bytes),
            chaotic.get(name),
            "object {name} must be byte-identical"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}
