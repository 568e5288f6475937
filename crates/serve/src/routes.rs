//! The route table: what each path answers, inline or through a queue.
//!
//! [`route`] runs on the event loop ([`crate::server`]) for every parsed
//! request and returns either a finished [`Response`] (cheap routes,
//! cache hits, rejections) or a job submitted to a shard's work queue
//! ([`crate::queue`]); [`finish_job`] turns that job's result into the
//! response once its latch completes. Nothing here touches a socket.

use std::path::Path;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use rsls_campaign::is_sha256_hex;
use rsls_experiments::campaign;

use crate::compute;
use crate::http::{Request, Response};
use crate::metrics::{ArtifactCounters, LabCounters};
use crate::queue::{Job, JobOutput, JobResult, SubmitError};
use crate::server::Shared;
use crate::shard::ReportLookup;

/// `Retry-After` seconds sent with queue-overload `503`s.
const RETRY_AFTER_S: u32 = 2;

/// Routing outcome: an immediate response, or a queued computation.
pub(crate) enum Routed {
    /// Responded inline (cheap route, cache hit, or rejection).
    Done(&'static str, Response),
    /// Submitted to a work queue; the response materializes when the
    /// latch completes.
    Queued {
        /// Metrics route label.
        label: &'static str,
        /// Completion latch.
        job: Arc<Job>,
        /// Result post-processing.
        kind: JobKind,
    },
}

/// What a completed job's result turns into.
pub(crate) enum JobKind {
    /// `/experiments/{id}`: cache the output under its result key.
    Experiment {
        /// Experiment id, for error bodies.
        id: String,
        /// Result key in the process-wide result map.
        key: String,
    },
    /// `/query` and `/compare`: map `sql:` errors to `400`.
    Warehouse,
}

/// Turns a completed job result into its response.
pub(crate) fn finish_job(
    shared: &Shared,
    kind: &JobKind,
    req: &Request,
    started: Instant,
    result: JobResult,
) -> Response {
    match kind {
        JobKind::Experiment { id, key } => match result {
            Ok(out) => {
                let out = Arc::new(out);
                shared
                    .results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key.clone(), Arc::clone(&out));
                conditional(req, &out)
            }
            Err(msg) => Response::text(500, format!("experiment '{id}' failed: {msg}\n")),
        },
        JobKind::Warehouse => match result {
            Ok(out) => {
                shared.metrics.observe_lab_query(started.elapsed());
                conditional(req, &out)
            }
            Err(msg) => match msg.strip_prefix("sql: ") {
                Some(sql_error) => Response::text(400, format!("{sql_error}\n")),
                None => Response::text(500, format!("warehouse failure: {msg}\n")),
            },
        },
    }
}

/// Routes one request, returning an inline response or a queued job.
pub(crate) fn route(shared: &Shared, req: &Request) -> Routed {
    let path = req.path.trim_end_matches('/');
    match path {
        "" | "/index.html" => Routed::Done("root", root_response()),
        "/healthz" => Routed::Done(
            "healthz",
            Response::json(200, &b"{\"status\":\"ok\"}\n"[..]),
        ),
        "/metrics" => Routed::Done("metrics", metrics_response(shared)),
        "/experiments" => Routed::Done("experiments", listing_response(shared)),
        "/query" => query_route(shared, req),
        "/compare" => compare_route(shared, req),
        _ => {
            if let Some(id) = path.strip_prefix("/experiments/") {
                experiment_route(shared, req, id)
            } else if let Some(hash) = path.strip_prefix("/reports/") {
                Routed::Done("report", report_response(shared, req, hash))
            } else {
                Routed::Done("other", Response::text(404, "not found\n"))
            }
        }
    }
}

/// Snapshots every process-wide artifact cache for one `/metrics` scrape.
fn gather_artifact_counters() -> ArtifactCounters {
    let sparse = rsls_sparse::artifacts::global().stats();
    let workload = rsls_experiments::artifacts::stats();
    let (halo_hits, halo_misses) = rsls_solvers::halo_plan_cache_stats();
    ArtifactCounters {
        sparse_hits: sparse.hits,
        sparse_misses: sparse.misses,
        sparse_entries: sparse.entries as u64,
        workload_hits: workload.hits,
        workload_misses: workload.misses,
        fingerprint_hits: workload.fingerprint_hits,
        fingerprint_misses: workload.fingerprint_misses,
        halo_hits,
        halo_misses,
    }
}

fn root_response() -> Response {
    Response::text(
        200,
        "rsls-serve: GET /experiments, /experiments/{id}, /reports/{sha256}, \
         /query?sql=…, /compare?a=…&b=…, /healthz, /metrics\n",
    )
}

fn metrics_response(shared: &Shared) -> Response {
    let text = shared.metrics.render(
        &shared.shards.summary(),
        shared.shards.coalesce_waiters(),
        &gather_artifact_counters(),
        &LabCounters::gather(),
    );
    Response::new(200)
        .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        .with_body(text.into_bytes())
}

fn listing_response(shared: &Shared) -> Response {
    match serde_json::to_string(&shared.source.list()) {
        Ok(json) => Response::json(200, json.into_bytes()),
        Err(e) => Response::text(500, format!("serializing listing: {e}\n")),
    }
}

/// `200` with body + `ETag`, or `304` when `If-None-Match` matches.
fn conditional(req: &Request, out: &JobOutput) -> Response {
    let etag = format!("\"{}\"", out.etag);
    if req.if_none_match(&out.etag) {
        Response::new(304).header("ETag", etag)
    } else {
        Response::json(200, out.body.clone()).header("ETag", etag)
    }
}

/// The `503` for a submission the queue would not take.
fn overload_response(err: SubmitError) -> Response {
    match err {
        SubmitError::Full => Response::text(503, "compute queue is full; retry later\n")
            .header("Retry-After", RETRY_AFTER_S.to_string()),
        SubmitError::ShuttingDown => Response::text(503, "service is shutting down\n")
            .header("Retry-After", RETRY_AFTER_S.to_string()),
    }
}

fn experiment_route(shared: &Shared, req: &Request, id: &str) -> Routed {
    if !shared.source.list().iter().any(|e| e.id == id) {
        return Routed::Done(
            "experiment",
            Response::text(404, format!("unknown experiment '{id}'\n")),
        );
    }
    let key = compute::result_key(id, shared.opts.scale);
    let cached = shared
        .results
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
        .cloned();
    if let Some(out) = cached {
        shared.metrics.result_cache_hit();
        return Routed::Done("experiment", conditional(req, &out));
    }
    shared.metrics.result_cache_miss();

    let shard = shared.shards.route(&key);
    let submit = {
        let source = Arc::clone(&shared.source);
        let metrics = Arc::clone(&shared.metrics);
        let engine = shared.shards.engine_arc(shard);
        let id = id.to_string();
        let scale = shared.opts.scale;
        shared.queues[shard].submit(&key, move || {
            metrics.job_computed_on(shard);
            // The shard's engine scopes the harness's campaign units to
            // this shard's store namespace.
            campaign::with_engine(engine, || -> JobResult {
                let tables = source
                    .run(&id, scale)
                    .ok_or_else(|| format!("experiment '{id}' disappeared from the source"))?;
                let body = compute::tables_to_json(&id, scale, tables)?;
                let etag = compute::etag_for(&body);
                Ok(JobOutput { body, etag })
            })
        })
    };
    match submit {
        Ok(submitted) => Routed::Queued {
            label: "experiment",
            job: Arc::clone(submitted.job()),
            kind: JobKind::Experiment {
                id: id.to_string(),
                key,
            },
        },
        Err(err) => Routed::Done("experiment", overload_response(err)),
    }
}

fn report_response(shared: &Shared, req: &Request, hash: &str) -> Response {
    if !is_sha256_hex(hash) {
        return Response::text(400, "report id must be 64 lowercase hex digits\n");
    }
    // Content addressing makes the conditional check free: the path IS
    // the hash of the bytes, so a matching If-None-Match needs no disk.
    if req.if_none_match(hash) {
        shared.metrics.report_cache_hit();
        return Response::new(304).header("ETag", format!("\"{hash}\""));
    }
    match shared.shards.load_report(hash) {
        ReportLookup::Disabled => {
            shared.metrics.report_cache_miss();
            Response::text(404, "result caching is disabled on this server\n")
        }
        ReportLookup::Found(bytes) => {
            shared.metrics.report_cache_hit();
            Response::json(200, bytes).header("ETag", format!("\"{hash}\""))
        }
        ReportLookup::Missing => {
            shared.metrics.report_cache_miss();
            Response::text(404, format!("no report object {hash}\n"))
        }
    }
}

/// Submits a warehouse job (coalescing on `key` like experiment runs)
/// to `key`'s shard queue. Successful bodies are canonical JSON with
/// self-certifying `ETag`s; they are *not* inserted into the permanent
/// result map — the store grows as campaigns run, so query results may
/// legitimately change between requests.
fn warehouse_route(
    shared: &Shared,
    label: &'static str,
    key: &str,
    job: impl FnOnce() -> JobResult + Send + 'static,
) -> Routed {
    let shard = shared.shards.route(key);
    match shared.queues[shard].submit(key, job) {
        Ok(submitted) => Routed::Queued {
            label,
            job: Arc::clone(submitted.job()),
            kind: JobKind::Warehouse,
        },
        Err(err) => Routed::Done(label, overload_response(err)),
    }
}

/// Borrowed view of the shard store list, as
/// [`rsls_lab::Warehouse::load_shards`] wants it.
fn store_refs(
    stores: &[(std::path::PathBuf, Option<std::path::PathBuf>)],
) -> Vec<(&Path, Option<&Path>)> {
    stores
        .iter()
        .map(|(cache, journal)| (cache.as_path(), journal.as_deref()))
        .collect()
}

fn query_route(shared: &Shared, req: &Request) -> Routed {
    let Some(sql) = req.query_param("sql").map(str::to_string) else {
        return Routed::Done(
            "query",
            Response::text(400, "missing query parameter: sql\n"),
        );
    };
    // Parse before submitting: a malformed query fails fast with its
    // byte offset instead of occupying a worker.
    if let Err(e) = rsls_lab::parse(&sql) {
        return Routed::Done("query", Response::text(400, format!("{e}\n")));
    }
    let Some(stores) = shared.shards.warehouse_stores() else {
        return Routed::Done(
            "query",
            Response::text(404, "result caching is disabled on this server\n"),
        );
    };
    let key = format!("query:{sql}");
    warehouse_route(shared, "query", &key, move || {
        let warehouse = rsls_lab::Warehouse::load_shards(&store_refs(&stores))
            .map_err(|e| format!("loading warehouse: {e}"))?;
        let result = warehouse.query(&sql).map_err(|e| format!("sql: {e}"))?;
        let body = result.to_canonical_json().into_bytes();
        let etag = compute::etag_for(&body);
        Ok(JobOutput { body, etag })
    })
}

fn compare_route(shared: &Shared, req: &Request) -> Routed {
    let (Some(a), Some(b)) = (
        req.query_param("a").map(str::to_string),
        req.query_param("b").map(str::to_string),
    ) else {
        return Routed::Done(
            "compare",
            Response::text(400, "missing query parameters: a and b (WHERE filters)\n"),
        );
    };
    let (expr_a, expr_b) = match (rsls_lab::parse_filter(&a), rsls_lab::parse_filter(&b)) {
        (Ok(ea), Ok(eb)) => (ea, eb),
        (Err(e), _) | (_, Err(e)) => {
            return Routed::Done("compare", Response::text(400, format!("{e}\n")))
        }
    };
    let Some(stores) = shared.shards.warehouse_stores() else {
        return Routed::Done(
            "compare",
            Response::text(404, "result caching is disabled on this server\n"),
        );
    };
    let key = format!("compare:{a}\u{1}{b}");
    warehouse_route(shared, "compare", &key, move || {
        let warehouse = rsls_lab::Warehouse::load_shards(&store_refs(&stores))
            .map_err(|e| format!("loading warehouse: {e}"))?;
        let report = rsls_lab::compare_filtered(&warehouse, &expr_a, &a, &expr_b, &b)
            .map_err(|e| format!("sql: {e}"))?;
        let body = rsls_lab::canonical_json(&report).into_bytes();
        let etag = compute::etag_for(&body);
        Ok(JobOutput { body, etag })
    })
}
