//! The `rsls-load` binary: soak a running `rsls-serve` instance.
//!
//! ```text
//! rsls-load soak --addr 127.0.0.1:8080 --requests 100000 --connections 8 --seed 1
//! rsls-load soak --addr 127.0.0.1:8080 --requests 10000 --rps 5000
//! rsls-load soak --addr 127.0.0.1:8080 --chaos-seed 7 --print-metrics
//! ```
//!
//! The soak replays a seed-deterministic client mix (experiment
//! fetches, warehouse queries, report revalidations, miss storms,
//! health probes) over persistent keep-alive connections, prints a
//! summary on stderr and exits nonzero on any protocol error.
//! `--chaos-seed` arms client-side connection resets so the reconnect
//! path is exercised on a reproducible schedule; `--print-metrics`
//! dumps the latency histogram and per-class counts in Prometheus text
//! format on stdout.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use rsls_chaos::{ChaosInjector, ChaosPlan};
use rsls_load::{run_soak, MixWeights, SoakOptions};

fn usage() -> ! {
    eprintln!(
        "usage: rsls-load soak [--addr <host:port>] [--requests <n>] [--connections <n>]\n\
         \x20                     [--seed <u64>] [--rps <n>] [--pipeline <depth>]\n\
         \x20                     [--chaos-seed <u64>] [--print-metrics]\n\
         defaults: --addr 127.0.0.1:8080 --requests 100000 --connections 8 --seed 1 --pipeline 4"
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

fn resolve(addr: &str) -> SocketAddr {
    match addr.to_socket_addrs().ok().and_then(|mut it| it.next()) {
        Some(resolved) => resolved,
        None => {
            eprintln!("cannot resolve address: {addr}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("soak") {
        usage();
    }
    let mut addr = "127.0.0.1:8080".to_string();
    let mut opts = SoakOptions {
        pipeline_depth: 4,
        ..SoakOptions::default()
    };
    let mut chaos_seed: Option<u64> = None;
    let mut print_metrics = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" | "-a" => addr = parse_arg(&args, &mut i, "--addr"),
            "--requests" | "-n" => {
                opts.requests = parse_arg::<u64>(&args, &mut i, "--requests").max(1)
            }
            "--connections" | "-c" => {
                opts.connections = parse_arg::<usize>(&args, &mut i, "--connections").max(1)
            }
            "--seed" | "-s" => opts.seed = parse_arg(&args, &mut i, "--seed"),
            "--rps" => opts.open_loop_rps = Some(parse_arg::<u64>(&args, &mut i, "--rps").max(1)),
            "--pipeline" => {
                opts.pipeline_depth = parse_arg::<usize>(&args, &mut i, "--pipeline").max(1)
            }
            "--chaos-seed" => chaos_seed = Some(parse_arg(&args, &mut i, "--chaos-seed")),
            "--print-metrics" => print_metrics = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
        i += 1;
    }
    opts.addr = resolve(&addr);
    opts.weights = MixWeights::default();
    opts.chaos = chaos_seed.map(|seed| {
        // Arm only the client-reset site: the soak's job is to prove the
        // reconnect path, not to garble its own request stream.
        let mut plan = ChaosPlan::quiet(seed);
        plan.client_reset_permille = 200;
        plan.max_faults_per_site = 64;
        Arc::new(ChaosInjector::new(plan))
    });

    eprintln!(
        "rsls-load: soaking {} with {} requests over {} connections (seed {}{}{})",
        opts.addr,
        opts.requests,
        opts.connections,
        opts.seed,
        opts.open_loop_rps
            .map_or(String::new(), |r| format!(", {r} rps")),
        if opts.chaos.is_some() {
            ", chaos armed"
        } else {
            ""
        },
    );

    let outcome = match run_soak(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("rsls-load: soak failed: {e}");
            std::process::exit(1);
        }
    };

    let hist = &outcome.histogram;
    eprintln!(
        "rsls-load: {} requests, {:.0} rps, p50 {}µs p99 {}µs p999 {}µs max {}µs, \
         {} reconnects, {} retried 503s, {} protocol errors",
        outcome.requests,
        outcome.throughput_rps,
        hist.quantile_us(0.50),
        hist.quantile_us(0.99),
        hist.quantile_us(0.999),
        hist.max_us(),
        outcome.reconnects,
        outcome.retried_503,
        outcome.protocol_errors,
    );
    for (status, count) in &outcome.status_counts {
        eprintln!("rsls-load:   status {status}: {count}");
    }
    for (class, count) in &outcome.class_counts {
        eprintln!("rsls-load:   class {class}: {count}");
    }

    if print_metrics {
        print!("{}", hist.render_prometheus("rsls_load_request_latency_us"));
        for (class, count) in &outcome.class_counts {
            println!("rsls_load_requests_total{{class=\"{class}\"}} {count}");
        }
        println!("rsls_load_reconnects_total {}", outcome.reconnects);
        println!(
            "rsls_load_protocol_errors_total {}",
            outcome.protocol_errors
        );
    }

    if outcome.protocol_errors > 0 {
        std::process::exit(1);
    }
}
