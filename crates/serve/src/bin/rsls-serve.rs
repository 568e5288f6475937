//! The `rsls-serve` binary: serve experiment results over HTTP.
//!
//! ```text
//! rsls-serve --addr 127.0.0.1:8080 --jobs 4
//! rsls-serve --addr 127.0.0.1:8080 --cache-dir results/cache --queue-depth 32
//! rsls-serve --addr 127.0.0.1:8080 --shards 4 --cache-dir results/cache
//! ```
//!
//! The service fronts the campaign engine: experiment requests run (or
//! cache-load) harnesses through the same content-addressed store that
//! `rsls-run` populates, so a campaign you ran yesterday serves today
//! without recomputing. The server owns `--shards N` engines (default
//! 1, which reads and writes exactly `rsls-run`'s layout); with more,
//! each (experiment, scale) family routes to one shard's store
//! namespace (`<cache>/shard-<k>`) through a consistent-hash ring.
//! `--chaos-seed S` arms the aggressive fault plan against the server's
//! own I/O sites (accept/read/write teardown) and the store paths, with
//! engine retries absorbing the faults. SIGTERM/ctrl-c drains
//! gracefully: in-flight requests finish, the journals are already
//! flushed (append-on-write), and the process exits 0.

use std::path::PathBuf;
use std::sync::Arc;

use rsls_campaign::EngineOptions;
use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_serve::server::{RegistrySource, ServeOptions, Server};
use rsls_serve::signal;

fn usage() -> ! {
    eprintln!(
        "usage: rsls-serve [--addr <host:port>] [--jobs <n>] [--queue-depth <n>]\n\
         \x20                 [--cache-dir <dir>] [--no-cache] [--shards <n>] [--chaos-seed <u64>]\n\
         defaults: --addr 127.0.0.1:8080 --jobs 2 --queue-depth 16 --cache-dir results/cache --shards 1"
    );
    std::process::exit(2);
}

fn parse_arg<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    *i += 1;
    let Some(raw) = args.get(*i) else { usage() };
    match raw.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("invalid value for {what}: {raw}");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:8080".to_string();
    let mut jobs = 2usize;
    let mut queue_depth = 16usize;
    let mut cache_dir = PathBuf::from("results/cache");
    let mut use_cache = true;
    let mut shards = 1usize;
    let mut chaos_seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" | "-a" => addr = parse_arg(&args, &mut i, "--addr"),
            "--jobs" | "-j" => jobs = parse_arg::<usize>(&args, &mut i, "--jobs").max(1),
            "--queue-depth" => {
                queue_depth = parse_arg::<usize>(&args, &mut i, "--queue-depth").max(1)
            }
            "--cache-dir" => cache_dir = parse_arg(&args, &mut i, "--cache-dir"),
            "--no-cache" => use_cache = false,
            "--shards" => shards = parse_arg::<usize>(&args, &mut i, "--shards").max(1),
            "--chaos-seed" => chaos_seed = Some(parse_arg(&args, &mut i, "--chaos-seed")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }

    // The service appends to the campaign journal across restarts
    // (resume semantics): a service restart is an operational event,
    // not a new campaign. Sharded journals derive from this base path
    // (shard-<k>.campaign.journal).
    let journal_path = cache_dir
        .parent()
        .map(|p| p.join("campaign.journal"))
        .unwrap_or_else(|| PathBuf::from("campaign.journal"));
    let chaos = chaos_seed.map(|seed| Arc::new(ChaosInjector::new(ChaosPlan::aggressive(seed))));
    let engine_opts = EngineOptions {
        jobs,
        cache_dir: cache_dir.clone(),
        use_cache,
        resume: use_cache,
        journal_path: Some(journal_path),
        // Under an armed chaos plan the engine retries through injected
        // store faults; fault-free serving keeps the fail-fast default.
        retries: if chaos.is_some() { 3 } else { 0 },
        chaos: chaos.clone(),
        ..EngineOptions::default()
    };

    // The server derives its engines from this template. One shard
    // keeps the paths as given — the layout every other tool reads:
    // <cache>/objects, sibling campaign.journal.
    signal::install();
    let opts = ServeOptions {
        workers: jobs,
        queue_depth,
        scale: rsls_experiments::Scale::from_env(),
        honor_signals: true,
        shards,
        shard_base: Some(engine_opts),
        chaos,
    };
    let bound = Server::bind(&addr, opts, Arc::new(RegistrySource))
        .and_then(|server| Ok((server.handle()?, server)));
    let (handle, server) = match bound {
        Ok(bound) => bound,
        Err(e) => {
            eprintln!("failed to start on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "rsls-serve listening on http://{} ({jobs} worker{} x {shards} shard{}, queue {queue_depth}, cache {}{})",
        handle.addr(),
        if jobs == 1 { "" } else { "s" },
        if shards == 1 { "" } else { "s" },
        if use_cache {
            cache_dir.display().to_string()
        } else {
            "disabled".to_string()
        },
        if chaos_seed.is_some() {
            ", chaos armed"
        } else {
            ""
        },
    );

    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    eprint!(
        "rsls-serve: drained and shut down\n{}",
        handle.summary_table()
    );
}
