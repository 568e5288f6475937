//! End-to-end soak tests: a real event-loop server on an ephemeral
//! port, soaked by the real harness.
//!
//! The experiment source here is a *small campaign* source — each
//! experiment id drives one tiny solver unit through the campaign
//! engine — rather than the full paper registry, whose harnesses take
//! seconds-to-minutes each. The wire behavior, engine routing, and
//! store layout are identical; only the numeric workload shrinks.
//!
//! The headline property lives in the last test: a chaos-seeded soak
//! against a 4-shard engine leaves exactly the object-store bytes a
//! fault-free single-shard soak leaves — the content-addressed store
//! makes shard count and injected faults invisible in the artifacts.

#![expect(
    clippy::disallowed_methods,
    reason = "tests run servers on their own threads"
)]

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Once};

use rsls_campaign::EngineOptions;
use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_experiments::{campaign, Scale, Table};
use rsls_load::{run_soak, MixWeights, SoakOptions};
use rsls_serve::server::{ExperimentInfo, ExperimentSource, ServeOptions, Server, ServerHandle};

fn engine_init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let dir = std::env::temp_dir().join(format!("rsls-load-it-{}", std::process::id()));
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

const TINY_IDS: &[&str] = &["unit-a", "unit-b", "unit-c", "unit-d", "unit-e"];

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
        let spec = campaign::unit_spec(&a, &b, id, scale, cfg);
        let report = campaign::execute_unit(&a, &b, spec);
        let mut t = Table::new(format!("{id} result"), &["iterations", "converged"]);
        t.push_row(vec![
            report.iterations.to_string(),
            report.converged.to_string(),
        ]);
        Some(vec![t])
    }
}

fn serve(opts: ServeOptions) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    engine_init();
    let server = Server::bind("127.0.0.1:0", opts, Arc::new(TinyCampaignSource))
        .expect("bind ephemeral port");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

#[test]
fn soak_completes_cleanly_across_every_request_class() {
    let (handle, join) = serve(ServeOptions {
        workers: 2,
        queue_depth: 16,
        ..ServeOptions::default()
    });

    let opts = SoakOptions {
        addr: handle.addr(),
        requests: 1200,
        connections: 4,
        seed: 11,
        pipeline_depth: 4,
        weights: MixWeights::default(),
        ..SoakOptions::default()
    };
    let outcome = run_soak(&opts).expect("soak runs");

    assert_eq!(outcome.requests, 1200, "every request accounted for");
    assert_eq!(
        outcome.protocol_errors, 0,
        "status counts: {:?}",
        outcome.status_counts
    );
    assert_eq!(outcome.connections, 4);
    assert!(outcome.throughput_rps > 0.0);
    let hist = &outcome.histogram;
    assert_eq!(hist.count(), 1200);
    assert!(hist.quantile_us(0.50) >= 1);
    assert!(hist.quantile_us(0.99) >= hist.quantile_us(0.50));
    assert!(hist.quantile_us(0.999) >= hist.quantile_us(0.99));
    assert!(hist.max_us() >= hist.quantile_us(0.999));

    // The default mix exercises all five classes in 1200 draws.
    for class in ["experiment", "query", "revalidate", "miss-storm", "health"] {
        assert!(
            outcome.class_counts.get(class).copied().unwrap_or(0) > 0,
            "class {class} never drawn: {:?}",
            outcome.class_counts
        );
    }
    // Expected traffic statuses: 200s (experiments, queries, health),
    // 304s (revalidation fast path), 404s (miss storms). No 5xx.
    assert!(outcome.status_counts.get(&200).copied().unwrap_or(0) > 0);
    assert!(outcome.status_counts.get(&304).copied().unwrap_or(0) > 0);
    assert!(outcome.status_counts.get(&404).copied().unwrap_or(0) > 0);
    assert!(
        outcome.status_counts.keys().all(|&s| s < 500),
        "no 5xx: {:?}",
        outcome.status_counts
    );
    // Miss storms draw 4xx closes, so the soak must have reconnected.
    assert!(outcome.reconnects > 0, "4xx closes force reconnects");

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn same_seed_replays_the_same_request_stream() {
    let (handle, join) = serve(ServeOptions::default());
    let opts = SoakOptions {
        addr: handle.addr(),
        requests: 600,
        connections: 3,
        seed: 42,
        pipeline_depth: 2,
        ..SoakOptions::default()
    };

    let first = run_soak(&opts).expect("first soak");
    let second = run_soak(&opts).expect("second soak");

    // Timings differ run to run; the *traffic* must not. The second
    // soak hits warm caches, which changes latency but no status: the
    // request stream and its responses are a pure function of the seed.
    assert_eq!(first.requests, second.requests);
    assert_eq!(first.class_counts, second.class_counts);
    assert_eq!(first.status_counts, second.status_counts);
    assert_eq!(first.protocol_errors, 0);
    assert_eq!(second.protocol_errors, 0);

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

/// Collects `objects/<sha>.json` name → bytes across the store dirs.
fn store_objects(dirs: &[std::path::PathBuf]) -> BTreeMap<String, Vec<u8>> {
    let mut objects = BTreeMap::new();
    for dir in dirs {
        let obj_dir = dir.join("objects");
        let Ok(entries) = std::fs::read_dir(&obj_dir) else {
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

fn soak_against(base: &Path, shards: usize, chaos_seed: Option<u64>) {
    let server_chaos = chaos_seed.map(|seed| {
        let mut plan = ChaosPlan::aggressive(seed);
        // Bound the teardown storm: enough fired faults to prove the
        // reconnect path, few enough that the request stream's coverage
        // of the experiment corpus survives.
        plan.max_faults_per_site = 12;
        Arc::new(ChaosInjector::new(plan))
    });
    // The engine side uses the same plan + retry headroom the chaos-soak
    // CI job proves byte-identical (aggressive rates, 8 retries).
    let engine_chaos = chaos_seed.map(|seed| {
        Arc::new(ChaosInjector::new(ChaosPlan::aggressive(
            seed.wrapping_add(1),
        )))
    });
    let (handle, join) = serve(ServeOptions {
        workers: 2,
        queue_depth: 16,
        shards,
        shard_base: Some(EngineOptions {
            jobs: 1,
            cache_dir: base.to_path_buf(),
            use_cache: true,
            resume: false,
            retries: if engine_chaos.is_some() { 8 } else { 0 },
            chaos: engine_chaos,
            ..EngineOptions::default()
        }),
        chaos: server_chaos,
        ..ServeOptions::default()
    });

    let client_chaos = chaos_seed.map(|seed| {
        let mut plan = ChaosPlan::quiet(seed.wrapping_add(2));
        plan.client_reset_permille = 200;
        plan.max_faults_per_site = 8;
        Arc::new(ChaosInjector::new(plan))
    });
    let outcome = run_soak(&SoakOptions {
        addr: handle.addr(),
        requests: 500,
        connections: 4,
        seed: 2024,
        pipeline_depth: 2,
        chaos: client_chaos,
        ..SoakOptions::default()
    })
    .expect("soak runs");
    assert_eq!(outcome.requests, 500);

    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
}

#[test]
fn chaos_sharded_soak_leaves_stores_byte_identical_to_fault_free_run() {
    let root = std::env::temp_dir().join(format!("rsls-load-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let clean_base = root.join("clean");
    let chaotic_base = root.join("chaotic");

    // Fault-free single-shard reference run.
    soak_against(&clean_base, 1, None);
    // Chaos-seeded 4-shard run: server teardown faults, engine store
    // faults (absorbed by retries), and client connection resets.
    soak_against(&chaotic_base, 4, Some(77));

    let clean = store_objects(std::slice::from_ref(&clean_base));
    let chaotic = store_objects(
        &(0..4)
            .map(|k| chaotic_base.join(format!("shard-{k}")))
            .collect::<Vec<_>>(),
    );

    assert!(!clean.is_empty(), "the soak computed experiments");
    let clean_names: Vec<&String> = clean.keys().collect();
    let chaotic_names: Vec<&String> = chaotic.keys().collect();
    assert_eq!(
        clean_names, chaotic_names,
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
