//! On-disk layout pin: a server over the process-wide engine and a
//! server over one owned engine (`shards: 1`) must be indistinguishable
//! — same response bytes, same ETag, same files at the same relative
//! paths (`cache/objects`, `cache/units`, `cache/provenance`, one
//! `cache/recipes` entry per suite operator computed on, an un-prefixed
//! `campaign.journal`, nothing named `shard-*`). That
//! layout is what `rsls-run`, `rsls-lab` and every CI script read.
//!
//! Its own test binary: the process-wide engine is configured once.

#![expect(
    clippy::disallowed_methods,
    reason = "tests run servers on their own threads"
)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rsls_campaign::EngineOptions;
use rsls_experiments::campaign;
use rsls_serve::client::{get, ClientResponse};
use rsls_serve::server::{RegistrySource, ServeOptions, Server};

fn engine_options(dir: &Path) -> EngineOptions {
    EngineOptions {
        jobs: 2,
        cache_dir: dir.join("cache"),
        use_cache: true,
        resume: false,
        journal_path: Some(dir.join("campaign.journal")),
        retries: 0,
        ..EngineOptions::default()
    }
}

/// Boots a server, fetches `path` once, drains it.
fn fetch_from(opts: ServeOptions, path: &str) -> ClientResponse {
    let server = Server::bind("127.0.0.1:0", opts, Arc::new(RegistrySource)).expect("bind");
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    let resp = get(handle.addr(), path, &[]).expect("response");
    handle.shutdown();
    join.join().expect("no panic").expect("clean shutdown");
    resp
}

/// Every file under `root`, as `/`-joined paths relative to it.
fn relative_files(root: &Path) -> BTreeSet<String> {
    fn walk(dir: &Path, root: &Path, out: &mut BTreeSet<String>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, root, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root");
                let parts: Vec<_> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.insert(parts.join("/"));
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn global_engine_and_single_owned_shard_write_the_same_layout() {
    let base: PathBuf = std::env::temp_dir().join(format!("rsls-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (global_dir, owned_dir) = (base.join("global"), base.join("owned"));

    campaign::configure(engine_options(&global_dir)).expect("first configure in this process");
    let global = fetch_from(ServeOptions::default(), "/experiments/fig3");
    let owned = fetch_from(
        ServeOptions {
            shards: 1,
            shard_base: Some(engine_options(&owned_dir)),
            ..ServeOptions::default()
        },
        "/experiments/fig3",
    );

    assert_eq!(global.status, 200);
    assert_eq!(owned.status, 200);
    assert_eq!(global.body, owned.body, "same experiment, same bytes");
    assert_eq!(global.etag(), owned.etag());
    assert_eq!(
        global.etag(),
        Some(rsls_core::sha256_hex(&global.body).as_str())
    );

    let global_files = relative_files(&global_dir);
    assert_eq!(global_files, relative_files(&owned_dir));
    for prefix in [
        "cache/objects/",
        "cache/units/",
        "cache/provenance/",
        "cache/recipes/",
    ] {
        assert!(
            global_files.iter().any(|f| f.starts_with(prefix)),
            "no file under {prefix}: {global_files:?}"
        );
    }
    // fig3 runs on one suite operator (Andrews): one recipe entry, the
    // same bytes whichever engine computed it.
    let recipes: Vec<&String> = global_files
        .iter()
        .filter(|f| f.starts_with("cache/recipes/"))
        .collect();
    assert_eq!(recipes.len(), 1, "{global_files:?}");
    assert_eq!(
        std::fs::read(global_dir.join(recipes[0])).expect("recipe entry"),
        std::fs::read(owned_dir.join(recipes[0])).expect("recipe entry")
    );
    assert!(global_files.contains("campaign.journal"));
    assert!(
        !global_files.iter().any(|f| f.contains("shard-")),
        "a single shard must not namespace its store: {global_files:?}"
    );

    let _ = std::fs::remove_dir_all(&base);
}
