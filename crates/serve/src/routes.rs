//! The route table: what each path answers, inline or through a queue.
//!
//! [`route`] runs on the event loop ([`crate::server`]) for every parsed
//! request and returns either a finished [`Response`] (cheap routes,
//! cache hits, rejections) or a job submitted to a shard's work queue
//! ([`crate::queue`]); [`finish_job`] turns that job's result into the
//! response once its latch completes. Nothing here touches a socket.
//!
//! Two layers turn repeats into lookups: `Shared::results` holds every
//! finished experiment body for good (an `(experiment, scale)` never
//! changes), and the [`AnswerMemo`] holds `/query` and `/compare`
//! answers for as long as the shard stores stay at the generation they
//! were computed for ([`crate::shard::ShardSet::probe`], on the
//! request's start instant). A memo hit costs the probe — in steady
//! state a few `stat`s — and one map lookup; the SQL is parsed only on
//! a miss.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use rsls_lab::Warehouse;

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
    /// `/query` and `/compare`: memoize the answer for its generation,
    /// map `sql:` errors to `400`.
    Warehouse {
        /// Store generation the event loop probed when it routed the
        /// request.
        generation: u64,
        /// Canonical request key in the answer memo.
        key: String,
    },
}

/// Entries the answer memo holds before it is cleared whole.
const ANSWER_MEMO_ENTRIES: usize = 4096;
/// Key and body bytes the answer memo holds before it is cleared whole.
const ANSWER_MEMO_BYTES: usize = 16 << 20;

/// Finished `/query` and `/compare` answers of one store generation, by
/// canonical request key.
///
/// The keys are client-chosen SQL, so the memo is bounded twice over:
/// it is dropped whole when the generation moves, and cleared whole —
/// a deterministic, content-independent policy — when an insert would
/// take it past [`ANSWER_MEMO_ENTRIES`] or [`ANSWER_MEMO_BYTES`].
#[derive(Default)]
pub(crate) struct AnswerMemo {
    generation: u64,
    entries: BTreeMap<String, Arc<JobOutput>>,
    bytes: usize,
}

impl AnswerMemo {
    /// The answer to `key` at `generation`, if it was computed already.
    /// A new generation empties the memo.
    fn get(&mut self, generation: u64, key: &str) -> Option<Arc<JobOutput>> {
        if generation != self.generation {
            *self = AnswerMemo {
                generation,
                ..AnswerMemo::default()
            };
        }
        self.entries.get(key).cloned()
    }

    /// Keeps `out` as the answer to `key` at `generation` — unless the
    /// event loop has moved on to another generation since, the key is
    /// answered already (every waiter of a coalesced job comes here), or
    /// the answer alone is over the byte cap.
    fn insert(&mut self, generation: u64, key: &str, out: &Arc<JobOutput>) {
        let size = key.len() + out.body.len();
        if generation != self.generation
            || size > ANSWER_MEMO_BYTES
            || self.entries.contains_key(key)
        {
            return;
        }
        if self.entries.len() >= ANSWER_MEMO_ENTRIES || self.bytes + size > ANSWER_MEMO_BYTES {
            self.entries.clear();
            self.bytes = 0;
        }
        self.entries.insert(key.to_string(), Arc::clone(out));
        self.bytes += size;
    }
}

/// Turns a completed job result into its response.
#[expect(
    clippy::disallowed_methods,
    reason = "times the warehouse query for rsls_lab_query_seconds"
)]
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
        JobKind::Warehouse { generation, key } => match result {
            Ok(out) => {
                shared.metrics.observe_lab_query(started.elapsed());
                let out = Arc::new(out);
                shared
                    .answers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(*generation, key, &out);
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
/// `now` is the request's start, the clock the generation probe runs on.
pub(crate) fn route(shared: &Shared, req: &Request, now: Instant) -> Routed {
    let path = req.path.trim_end_matches('/');
    match path {
        "" | "/index.html" => Routed::Done("root", root_response()),
        "/healthz" => Routed::Done(
            "healthz",
            Response::json(200, &b"{\"status\":\"ok\"}\n"[..]),
        ),
        "/metrics" => Routed::Done("metrics", metrics_response(shared)),
        "/experiments" => Routed::Done("experiments", listing_response(shared)),
        "/query" => query_route(shared, req, now),
        "/compare" => compare_route(shared, req, now),
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
    ArtifactCounters {
        sparse_hits: sparse.hits,
        sparse_misses: sparse.misses,
        sparse_entries: sparse.entries as u64,
        workload_hits: workload.hits,
        workload_misses: workload.misses,
        fingerprint_hits: workload.fingerprint_hits,
        fingerprint_misses: workload.fingerprint_misses,
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
    let json = serde_json::Writer::compact().render(&shared.source.list());
    Response::json(200, json.into_bytes())
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

/// The memoized answer to `key`, when one was computed at the
/// generation the stores are at as of `now`: a `200` or a `304`, inline,
/// without touching the warehouse. Otherwise the probed generation
/// (`None` when caching is disabled), for [`warehouse_job`].
fn memo_lookup(
    shared: &Shared,
    req: &Request,
    now: Instant,
    label: &'static str,
    key: &str,
) -> ControlFlow<Routed, Option<u64>> {
    let Some(probed) = shared.shards.probe(now) else {
        return ControlFlow::Continue(None);
    };
    shared.metrics.probe_listed(probed.listings);
    let memoized = shared
        .answers
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(probed.generation, key);
    match memoized {
        Some(out) => {
            shared.metrics.query_cache_hit();
            ControlFlow::Break(Routed::Done(label, conditional(req, &out)))
        }
        None => ControlFlow::Continue(Some(probed.generation)),
    }
}

/// Sends a warehouse request the memo could not answer through `key`'s
/// shard queue, where a worker refreshes the snapshot and runs `answer`
/// on its views. The job coalesces on `(generation, key)`, never on
/// `key` alone: a request must not be handed an answer computed for an
/// older generation than the one it was routed at.
fn warehouse_job(
    shared: &Shared,
    label: &'static str,
    generation: Option<u64>,
    key: String,
    answer: impl FnOnce(&Warehouse) -> Result<Vec<u8>, String> + Send + 'static,
) -> Routed {
    let Some(generation) = generation else {
        return Routed::Done(
            label,
            Response::text(404, "result caching is disabled on this server\n"),
        );
    };
    shared.metrics.query_cache_miss();

    let shards = Arc::clone(&shared.shards);
    let job = move || -> JobResult {
        let warehouse = shards
            .warehouse()
            .map_err(|e| format!("loading warehouse: {e}"))?;
        let body = answer(&warehouse)?;
        let etag = compute::etag_for(&body);
        Ok(JobOutput { body, etag })
    };
    let shard = shared.shards.route(&key);
    match shared.queues[shard].submit(&format!("{generation}:{key}"), job) {
        Ok(submitted) => Routed::Queued {
            label,
            job: Arc::clone(submitted.job()),
            kind: JobKind::Warehouse { generation, key },
        },
        Err(err) => Routed::Done(label, overload_response(err)),
    }
}

fn query_route(shared: &Shared, req: &Request, now: Instant) -> Routed {
    let Some(sql) = req.query_param("sql").map(str::to_string) else {
        return Routed::Done(
            "query",
            Response::text(400, "missing query parameter: sql\n"),
        );
    };
    let key = format!("query:{sql}");
    let generation = match memo_lookup(shared, req, now, "query", &key) {
        ControlFlow::Continue(generation) => generation,
        ControlFlow::Break(hit) => return hit,
    };
    // Parse on a miss only (the memo holds nothing but `Ok` answers), and
    // before a worker is involved: a malformed query fails fast with its
    // byte offset.
    if let Err(e) = rsls_lab::parse(&sql) {
        return Routed::Done("query", Response::text(400, format!("{e}\n")));
    }
    warehouse_job(shared, "query", generation, key, move |w| {
        let result = w.query(&sql).map_err(|e| format!("sql: {e}"))?;
        Ok(result.to_canonical_json().into_bytes())
    })
}

fn compare_route(shared: &Shared, req: &Request, now: Instant) -> Routed {
    let (Some(a), Some(b)) = (
        req.query_param("a").map(str::to_string),
        req.query_param("b").map(str::to_string),
    ) else {
        return Routed::Done(
            "compare",
            Response::text(400, "missing query parameters: a and b (WHERE filters)\n"),
        );
    };
    let key = format!("compare:{a}\u{1}{b}");
    let generation = match memo_lookup(shared, req, now, "compare", &key) {
        ControlFlow::Continue(generation) => generation,
        ControlFlow::Break(hit) => return hit,
    };
    let (expr_a, expr_b) = match (rsls_lab::parse_filter(&a), rsls_lab::parse_filter(&b)) {
        (Ok(ea), Ok(eb)) => (ea, eb),
        (Err(e), _) | (_, Err(e)) => {
            return Routed::Done("compare", Response::text(400, format!("{e}\n")))
        }
    };
    warehouse_job(shared, "compare", generation, key, move |w| {
        let report = rsls_lab::compare_filtered(w, &expr_a, &a, &expr_b, &b)
            .map_err(|e| format!("sql: {e}"))?;
        Ok(rsls_lab::canonical_json(&report).into_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RegistrySource, ServeOptions, Server};
    use rsls_campaign::{EngineOptions, ResultCache};

    fn output(body: &str) -> Arc<JobOutput> {
        Arc::new(JobOutput {
            body: body.as_bytes().to_vec(),
            etag: compute::etag_for(body.as_bytes()),
        })
    }

    #[test]
    fn memo_drops_on_a_new_generation_and_clears_at_its_caps() {
        let mut memo = AnswerMemo::default();
        assert!(memo.get(1, "a").is_none());
        memo.insert(1, "a", &output("A"));
        assert_eq!(memo.get(1, "a").unwrap().body, b"A");

        // An answer that arrives for a generation the loop has left, or
        // has not reached, is not kept.
        memo.insert(0, "late", &output("L"));
        memo.insert(2, "early", &output("E"));
        assert_eq!(memo.entries.len(), 1);

        // A second waiter of the same job changes nothing.
        memo.insert(1, "a", &output("AA"));
        assert_eq!((memo.entries.len(), memo.bytes), (1, 2));

        // The next generation starts empty.
        assert!(memo.get(2, "a").is_none());
        assert_eq!((memo.entries.len(), memo.bytes), (0, 0));

        // Entry cap: the insert that would exceed it clears first.
        for i in 0..ANSWER_MEMO_ENTRIES {
            memo.insert(2, &format!("k{i}"), &output("x"));
        }
        assert_eq!(memo.entries.len(), ANSWER_MEMO_ENTRIES);
        memo.insert(2, "one more", &output("x"));
        assert_eq!(memo.entries.len(), 1);

        // Byte cap: the same, and a body over the cap alone is skipped.
        let big = "b".repeat(ANSWER_MEMO_BYTES / 2);
        memo.insert(2, "big-1", &output(&big));
        assert_eq!(memo.entries.len(), 2);
        memo.insert(2, "big-2", &output(&big));
        assert_eq!(memo.entries.len(), 1);
        assert!(memo.bytes <= ANSWER_MEMO_BYTES);
        memo.insert(2, "huge", &output(&"h".repeat(ANSWER_MEMO_BYTES + 1)));
        assert!(memo.get(2, "huge").is_none());
        assert_eq!(memo.entries.len(), 1);
    }

    /// Routes `req` as the event loop does, on a request that starts now.
    #[expect(clippy::disallowed_methods, reason = "the request's start instant")]
    fn route(shared: &Shared, req: &Request) -> Routed {
        super::route(shared, req, Instant::now())
    }

    fn query_request(sql: &str, if_none_match: Option<&str>) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/query".to_string(),
            query: vec![("sql".to_string(), sql.to_string())],
            headers: if_none_match
                .map(|etag| ("if-none-match".to_string(), format!("\"{etag}\"")))
                .into_iter()
                .collect(),
            version_11: true,
        }
    }

    /// A bound (never run) one-shard server over its own store under
    /// `dir`, and a second cache handle on that store.
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: removes the test store left by an earlier run"
    )]
    fn server_over(dir: &std::path::Path, workers: usize) -> (Server, ResultCache) {
        let _ = std::fs::remove_dir_all(dir);
        let opts = ServeOptions {
            workers,
            shard_base: Some(EngineOptions {
                cache_dir: dir.join("cache"),
                use_cache: true,
                journal_path: Some(dir.join("campaign.journal")),
                ..EngineOptions::default()
            }),
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts, Arc::new(RegistrySource)).unwrap();
        (server, ResultCache::open(dir.join("cache")).unwrap())
    }

    fn store_unit(writer: &ResultCache, iterations: usize) {
        let spec = rsls_core::sha256_hex(format!("unit-{iterations}").as_bytes());
        writer
            .store(&spec, &crate::shard::test_report(iterations))
            .unwrap();
    }

    /// SQL strings are client-chosen: 10 000 distinct valid queries on
    /// one store generation must neither grow the memo past its cap nor
    /// get a wrong answer on either side of a clear.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: temp store cleanup, and a job start stamp for finish_job"
    )]
    fn ten_thousand_distinct_queries_on_one_generation_stay_bounded_and_right() {
        let dir = std::env::temp_dir().join(format!("rsls-serve-memo-{}", std::process::id()));
        let (server, writer) = server_over(&dir, 2);
        let shared = server.shared();
        for iterations in [2_500, 5_000, 7_500] {
            store_unit(&writer, iterations);
        }
        let (cache_dir, journal) = (dir.join("cache"), dir.join("campaign.journal"));
        let reference = Warehouse::load(&cache_dir, Some(&journal)).unwrap();
        let expected = |sql: &str| reference.query(sql).unwrap().to_canonical_json();
        let entries = || shared.answers.lock().unwrap().entries.len();

        let sql_of = |i: usize| format!("SELECT count(*) FROM runs WHERE iterations > {i}");
        for i in 0..10_000 {
            let sql = sql_of(i);
            let req = query_request(&sql, None);
            let Routed::Queued { job, kind, .. } = route(shared, &req) else {
                panic!("query {i} was never asked before: it cannot be answered inline");
            };
            let resp = finish_job(shared, &kind, &req, Instant::now(), job.wait());
            assert_eq!(resp.status, 200);
            assert_eq!(
                String::from_utf8_lossy(&resp.body),
                expected(&sql),
                "query {i}"
            );
            assert!(entries() <= ANSWER_MEMO_ENTRIES);
        }
        // Two clears on the way; what is left is what came after the
        // second.
        assert_eq!(entries(), 10_000 % ANSWER_MEMO_ENTRIES);

        // The newest answers are hits — a 200 and a 304 — and one from
        // before the last clear is computed again, to the same bytes.
        let sql = sql_of(9_999);
        let Routed::Done("query", hit) = route(shared, &query_request(&sql, None)) else {
            panic!("the last answer is memoized");
        };
        assert_eq!(String::from_utf8_lossy(&hit.body), expected(&sql));
        let etag = compute::etag_for(&hit.body);
        let Routed::Done("query", not_modified) = route(shared, &query_request(&sql, Some(&etag)))
        else {
            panic!("a revalidation of a memoized answer is inline");
        };
        assert_eq!((not_modified.status, not_modified.body.len()), (304, 0));
        assert!(matches!(
            route(shared, &query_request(&sql_of(0), None)),
            Routed::Queued { .. }
        ));

        for queue in &shared.queues {
            queue.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn compare_request(a: &str, b: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/compare".to_string(),
            query: vec![
                ("a".to_string(), a.to_string()),
                ("b".to_string(), b.to_string()),
            ],
            headers: BTreeMap::new(),
            version_11: true,
        }
    }

    /// The memo is looked up before the SQL is parsed, and it holds only
    /// `Ok` answers: on a generation with memoized answers, malformed
    /// SQL still gets its `400` with the byte offset, and the memoized
    /// answers stay hits with the same bytes.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: temp store cleanup, and a job start stamp for finish_job"
    )]
    fn malformed_sql_on_a_memoized_generation_is_still_a_400() {
        let dir = std::env::temp_dir().join(format!("rsls-serve-parse-{}", std::process::id()));
        let (server, writer) = server_over(&dir, 1);
        let shared = server.shared();
        store_unit(&writer, 10);
        let answer = |req: &Request| {
            let Routed::Queued { job, kind, .. } = route(shared, req) else {
                panic!("never asked before: it cannot be answered inline");
            };
            let resp = finish_job(shared, &kind, req, Instant::now(), job.wait());
            assert_eq!(resp.status, 200);
            resp.body
        };
        let inline = |req: &Request| match route(shared, req) {
            Routed::Done(_, resp) => (resp.status, resp.body),
            Routed::Queued { .. } => panic!("answered inline"),
        };
        let error = |msg: String| (400, format!("{msg}\n").into_bytes());

        let query = query_request("SELECT count(*) FROM runs", None);
        let compare = compare_request("converged = true", "iterations > 5");
        let (query_body, compare_body) = (answer(&query), answer(&compare));

        let bad_sql = "SELECT count(*) FROM";
        let parse_error = rsls_lab::parse(bad_sql).unwrap_err().to_string();
        assert_eq!(inline(&query_request(bad_sql, None)), error(parse_error));
        let bad_filter = "iterations >";
        let filter_error = rsls_lab::parse_filter(bad_filter).unwrap_err().to_string();
        assert_eq!(
            inline(&compare_request("converged = true", bad_filter)),
            error(filter_error)
        );

        assert_eq!(inline(&query), (200, query_body));
        assert_eq!(inline(&compare), (200, compare_body));
        assert_eq!(shared.answers.lock().unwrap().entries.len(), 2);

        for queue in &shared.queues {
            queue.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The job key carries the generation the event loop probed: a
    /// request routed after the store grew starts a job of its own
    /// instead of sharing the latch of one queued before the growth.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unguarded: temp store cleanup, and a job start stamp for finish_job"
    )]
    fn coalescing_never_crosses_a_generation() {
        let dir = std::env::temp_dir().join(format!("rsls-serve-coalesce-{}", std::process::id()));
        let (server, writer) = server_over(&dir, 1);
        let shared = server.shared();
        store_unit(&writer, 10);

        // Hold the only worker so that the jobs below stay in flight.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let blocker = shared.queues[0]
            .submit("blocker", move || {
                let _ = gate.recv_timeout(std::time::Duration::from_secs(30));
                Err("released".to_string())
            })
            .unwrap();

        let req = query_request("SELECT count(*) FROM runs", None);
        let queued = |routed: Routed| match routed {
            Routed::Queued { job, kind, .. } => (job, kind),
            Routed::Done(..) => panic!("nothing is memoized while the worker is held"),
        };
        let (before, before_kind) = queued(route(shared, &req));
        store_unit(&writer, 20);
        let (after, after_kind) = queued(route(shared, &req));
        let (shared_latch, _) = queued(route(shared, &req));
        assert!(!Arc::ptr_eq(&before, &after), "the store grew in between");
        assert!(
            Arc::ptr_eq(&after, &shared_latch),
            "same generation, same key"
        );
        assert_eq!(shared.metrics.coalesced_total(), 1);

        release.send(()).unwrap();
        assert!(blocker.job().wait().is_err());
        // Both ran after the growth, so both count two units; only the
        // one routed at the current generation is kept for later hits.
        let two = br#"{"columns":["count(*)"],"rows":[[2]]}"#;
        for (job, kind) in [(before, before_kind), (after, after_kind)] {
            let resp = finish_job(shared, &kind, &req, Instant::now(), job.wait());
            assert_eq!((resp.status, &resp.body[..]), (200, &two[..]));
        }
        assert_eq!(shared.answers.lock().unwrap().entries.len(), 1);
        assert!(matches!(route(shared, &req), Routed::Done("query", _)));

        for queue in &shared.queues {
            queue.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
