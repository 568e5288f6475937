//! The campaign engine: parallel, cached, resumable unit execution.

use std::collections::BTreeMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rsls_chaos::{ChaosInjector, ChaosSite};
use rsls_core::RunReport;

use crate::cache::{Lookup, ResultCache};
use crate::journal::{Journal, JournalEvent};
use crate::provenance::Provenance;
use crate::spec::UnitSpec;

/// How the engine executes a batch of units.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads (1 = run inline on the calling thread). Results
    /// are bit-identical for any job count: units are independent and
    /// outcomes are collected in spec order.
    pub jobs: usize,
    /// Cache directory. Ignored when `use_cache` is false.
    pub cache_dir: std::path::PathBuf,
    /// Consult and populate the content-addressed result cache.
    pub use_cache: bool,
    /// Continue the previous campaign: append to its journal instead of
    /// starting a fresh one. Units the previous campaign completed are
    /// served from the cache (they were stored under their content
    /// address when they finished); units that were in flight — a
    /// `start` record with no `done` — re-run. Requires `use_cache` for
    /// completed units to be skipped; without the cache there is
    /// nothing to resume *from*.
    pub resume: bool,
    /// Journal file (JSONL). `None` disables journaling.
    pub journal_path: Option<std::path::PathBuf>,
    /// Re-execution attempts for a unit that panics (0 = fail fast on
    /// the first panic). Retries target transient environmental
    /// failures; a deterministically panicking unit fails all attempts.
    pub retries: usize,
    /// Base delay before the first re-attempt. Subsequent re-attempts
    /// double it (deterministic capped exponential backoff, no jitter):
    /// attempt `k` waits `min(base << (k-1), cap)`.
    pub retry_backoff_ms: u64,
    /// Ceiling on the per-attempt backoff delay.
    pub retry_backoff_cap_ms: u64,
    /// Consecutive hard unit failures (all attempts exhausted) within
    /// one experiment that open its circuit breaker; once open, that
    /// experiment's remaining units are marked [`UnitStatus::Degraded`]
    /// without running, so one broken experiment cannot burn the whole
    /// campaign's retry budget or poison the worker pool. 0 disables
    /// the breaker. A success resets the failure streak.
    pub circuit_threshold: usize,
    /// Infrastructure fault injector threaded through the cache,
    /// journal, and unit execution. `None` (the default) injects
    /// nothing.
    pub chaos: Option<Arc<ChaosInjector>>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: 1,
            cache_dir: std::path::PathBuf::from("results/cache"),
            use_cache: false,
            resume: false,
            journal_path: None,
            retries: 0,
            retry_backoff_ms: 25,
            retry_backoff_cap_ms: 1000,
            circuit_threshold: 5,
            chaos: None,
        }
    }
}

/// Terminal state of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStatus {
    /// Executed in this campaign.
    Executed,
    /// Served from the result cache (or journal resume).
    Cached,
    /// Panicked or did not produce a report.
    Failed,
    /// Skipped behind an open circuit breaker: not run, not failed on
    /// its own merits. Degraded units re-run on `--resume`.
    Degraded,
}

/// Result of one unit, in the order the specs were submitted.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Qualified unit name (`experiment/unit`).
    pub name: String,
    /// Content address of the spec.
    pub hash: String,
    /// The run's report; `None` iff the unit failed or was degraded.
    pub report: Option<RunReport>,
    /// How the outcome was obtained.
    pub status: UnitStatus,
    /// Wall-clock seconds spent on this unit in this campaign (cache
    /// hits report the lookup time, i.e. ~0).
    pub wall_s: f64,
    /// Panic payload of the last attempt (failed units) or the skip
    /// reason (degraded units).
    pub error: Option<String>,
}

/// Running totals across every batch an [`Engine`] has executed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignSummary {
    /// Units submitted.
    pub total: usize,
    /// Units actually executed (solver ran).
    pub executed: usize,
    /// Units served from the cache or journal.
    pub cache_hits: usize,
    /// Units that failed every attempt.
    pub failed: usize,
    /// Units skipped behind an open circuit breaker.
    pub degraded: usize,
    /// Cache hits that were *coalesced*: the unit arrived while an
    /// identical unit (same content address) was already executing, so
    /// it waited for that computation instead of starting its own.
    pub coalesced: usize,
    /// Unit re-attempts after a panic (each retry counts once).
    pub retries: usize,
    /// Cache entries that failed verification during lookup and were
    /// detected (journaled, quarantined) instead of silently missing.
    pub corrupt_detected: usize,
    /// Cache objects moved to `quarantine/` after failing verification.
    pub quarantined: u64,
    /// Experiments whose circuit breaker is currently open.
    pub circuits_open: usize,
    /// Wall-clock seconds summed over units (not elapsed time; with
    /// `jobs > 1` units overlap).
    pub unit_wall_s: f64,
    /// Units submitted per scheme label (e.g. `"CR-LC"` → 3), counted
    /// regardless of outcome — the campaign's scheme mix. `rsls-serve`
    /// exports this as the `rsls_campaign_scheme_units_total` family.
    pub scheme_units: BTreeMap<String, u64>,
}

impl CampaignSummary {
    /// Cache hits as a fraction of submitted units (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.total as f64
        }
    }
}

/// Executes batches of [`UnitSpec`]s.
///
/// The engine owns the cache, the journal, and a thread pool; the
/// *caller* owns the science — `run_units` takes a closure that maps a
/// spec to a [`RunReport`], so the engine never needs to know how to
/// find matrices or drive solvers (and `rsls-campaign` stays below
/// `rsls-experiments` in the crate graph).
#[derive(Debug)]
pub struct Engine {
    opts: EngineOptions,
    cache: Option<ResultCache>,
    journal: Option<Journal>,
    pool: rayon::ThreadPool,
    stats: Stats,
    records: Mutex<Vec<UnitRecord>>,
    /// Content addresses currently executing, for in-flight request
    /// coalescing: a second submission of the same address waits for
    /// the first instead of recomputing (see [`Engine::run_units`]).
    in_flight: Mutex<BTreeMap<String, Arc<Flight>>>,
    /// Threads currently parked on an in-flight computation — a live
    /// gauge (`rsls-serve` exports it; tests use it to observe that a
    /// duplicate submission really did coalesce).
    waiters: AtomicUsize,
    /// Per-experiment circuit breakers (consecutive-hard-failure
    /// streaks), keyed by experiment name.
    circuits: Mutex<BTreeMap<String, Circuit>>,
    /// Units submitted per scheme label, across every batch.
    scheme_units: Mutex<BTreeMap<String, u64>>,
}

/// Completion latch for one in-flight content address.
#[derive(Debug, Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Consecutive-hard-failure state for one experiment.
#[derive(Debug, Default, Clone, Copy)]
struct Circuit {
    consecutive_failures: usize,
    open: bool,
}

#[derive(Debug, Default)]
struct Stats {
    total: AtomicUsize,
    executed: AtomicUsize,
    cache_hits: AtomicUsize,
    failed: AtomicUsize,
    degraded: AtomicUsize,
    coalesced: AtomicUsize,
    retries: AtomicUsize,
    corrupt_detected: AtomicUsize,
    unit_wall_us: AtomicUsize,
}

#[derive(Debug, Clone)]
struct UnitRecord {
    name: String,
    status: UnitStatus,
    wall_s: f64,
}

impl Engine {
    /// Builds an engine, opening the cache and journal as configured.
    ///
    /// An armed chaos injector is also installed as the process-wide
    /// checkpoint-chaos hook, so the driver's `DiskStore` I/O
    /// (checkpoint save/restore for CR-D, CR-LC, and ABFT-CR) draws
    /// torn-write and read-error decisions from the same deterministic
    /// plan as the engine's own sites. First install wins per process.
    pub fn new(opts: EngineOptions) -> io::Result<Self> {
        if let Some(chaos) = &opts.chaos {
            rsls_core::install_chaos(Arc::new(CkptChaosAdapter(Arc::clone(chaos))));
        }
        let cache = if opts.use_cache {
            Some(ResultCache::open_chaotic(
                &opts.cache_dir,
                opts.chaos.clone(),
            )?)
        } else {
            None
        };
        let journal = match &opts.journal_path {
            Some(path) => Some(Journal::open_chaotic(
                path,
                !opts.resume,
                opts.chaos.clone(),
            )?),
            None => None,
        };
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(opts.jobs.max(1))
            .build()
            .map_err(|e| io::Error::other(format!("thread pool: {e}")))?;
        Ok(Engine {
            opts,
            cache,
            journal,
            pool,
            stats: Stats::default(),
            records: Mutex::new(Vec::new()),
            in_flight: Mutex::new(BTreeMap::new()),
            waiters: AtomicUsize::new(0),
            circuits: Mutex::new(BTreeMap::new()),
            scheme_units: Mutex::new(BTreeMap::new()),
        })
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The content-addressed result cache, when caching is enabled.
    ///
    /// This is the public handle service layers build on: `rsls-serve`
    /// resolves `/reports/{sha256}` straight off the object store via
    /// [`ResultCache::load_object`] without going through a spec.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// Number of threads currently parked waiting for an in-flight
    /// computation of the same content address (a live gauge, not a
    /// running total — see [`CampaignSummary::coalesced`] for that).
    pub fn coalesce_waiters(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Executes `units`, returning outcomes in submission order.
    ///
    /// Per unit: consult the cache (hit → done; a corrupt entry is
    /// quarantined, journaled, and recomputed), coalesce onto an
    /// already-executing unit with the same content address (its report
    /// is served from the cache when the leader finishes), else run
    /// `runner` under `catch_unwind` with up to `retries` re-attempts
    /// under deterministic capped exponential backoff, store the
    /// report, and journal the transition. A failed unit is isolated:
    /// it is recorded and the rest of the campaign completes normally —
    /// unless its experiment accumulates `circuit_threshold`
    /// consecutive hard failures, at which point the experiment's
    /// breaker opens and its remaining units are marked
    /// [`UnitStatus::Degraded`] without running.
    pub fn run_units<F>(&self, units: &[UnitSpec], runner: F) -> Vec<UnitOutcome>
    where
        F: Fn(&UnitSpec) -> RunReport + Sync,
    {
        let hashes: Vec<String> = units.iter().map(UnitSpec::content_hash).collect();
        let outcomes = self.pool.install(|| {
            rayon::run_indexed(units.len(), |i| {
                self.run_one(&units[i], &hashes[i], &runner)
            })
        });

        // Recover from poisoning instead of panicking: the records list
        // is append-only, so a worker that panicked mid-push left it in
        // a usable (at worst one-entry-short) state.
        let mut records = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        {
            // Outcomes come back in submission order, so zipping with the
            // specs attributes each one to its scheme label.
            let mut schemes = self
                .scheme_units
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for unit in units {
                *schemes.entry(unit.config.scheme.label()).or_insert(0) += 1;
            }
        }
        for o in &outcomes {
            self.stats.total.fetch_add(1, Ordering::Relaxed);
            let counter = match o.status {
                UnitStatus::Executed => &self.stats.executed,
                UnitStatus::Cached => &self.stats.cache_hits,
                UnitStatus::Failed => &self.stats.failed,
                UnitStatus::Degraded => &self.stats.degraded,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            self.stats
                .unit_wall_us
                .fetch_add((o.wall_s * 1e6) as usize, Ordering::Relaxed);
            records.push(UnitRecord {
                name: o.name.clone(),
                status: o.status,
                wall_s: o.wall_s,
            });
        }
        outcomes
    }

    fn run_one<F>(&self, spec: &UnitSpec, hash: &str, runner: &F) -> UnitOutcome
    where
        F: Fn(&UnitSpec) -> RunReport + Sync,
    {
        let name = spec.qualified_name();
        let start = Instant::now();

        // Cache consultation covers both plain re-runs and --resume: a
        // completed unit's report loads from its content address. A
        // corrupt entry is *detected* — quarantined by the cache,
        // journaled and counted here — and the unit re-runs.
        if let Some(outcome) = self.cached_outcome(hash, &name, &start) {
            return outcome;
        }

        // Circuit check after the cache: cached results stay servable
        // even for an experiment whose breaker is open.
        if let Some(outcome) = self.degraded_outcome(spec, hash, &name, &start) {
            return outcome;
        }

        // In-flight coalescing: if this content address is already
        // executing (another batch, another service request), park on
        // its latch instead of recomputing, then serve the leader's
        // report from the cache. If the leader failed — or there is no
        // cache to hand the result over — take the lead ourselves.
        loop {
            let existing = {
                let mut map = self
                    .in_flight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                match map.get(hash) {
                    Some(flight) => Some(Arc::clone(flight)),
                    None => {
                        map.insert(hash.to_string(), Arc::new(Flight::default()));
                        None
                    }
                }
            };
            let Some(flight) = existing else { break };
            self.waiters.fetch_add(1, Ordering::Relaxed);
            let mut done = flight.done.lock().unwrap_or_else(PoisonError::into_inner);
            while !*done {
                done = flight.cv.wait(done).unwrap_or_else(PoisonError::into_inner);
            }
            drop(done);
            self.waiters.fetch_sub(1, Ordering::Relaxed);
            if let Some(outcome) = self.cached_outcome(hash, &name, &start) {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                return outcome;
            }
        }
        // From here on this thread is the leader; the guard releases the
        // latch (and wakes every waiter) on every exit path, including a
        // panic escaping the attempts below.
        let _lead = FlightGuard { engine: self, hash };

        // The breaker may have opened while this thread queued for
        // leadership; re-check so a tripped experiment stops promptly.
        if let Some(outcome) = self.degraded_outcome(spec, hash, &name, &start) {
            return outcome;
        }

        self.journal_record(&JournalEvent::Start {
            hash: hash.to_string(),
            unit: name.clone(),
        });

        let chaos = self.opts.chaos.as_deref();
        let mut last_error = String::new();
        for attempt in 0..=self.opts.retries {
            if attempt > 0 {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                self.journal_record(&JournalEvent::Retry {
                    hash: hash.to_string(),
                    unit: name.clone(),
                    attempt: attempt as u64,
                });
                std::thread::sleep(self.backoff_delay(attempt));
            }
            let attempt_key = format!("{hash}:{attempt}");
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                if let Some(chaos) = chaos {
                    #[expect(
                        clippy::panic,
                        reason = "an injected crash must be a real panic; the catch_unwind above is the isolation layer under test"
                    )]
                    if chaos.fire(ChaosSite::UnitPanic, &attempt_key) {
                        panic!("chaos: injected unit panic");
                    }
                    #[expect(
                        clippy::panic,
                        reason = "an injected crash must be a real panic; the catch_unwind above is the isolation layer under test"
                    )]
                    if chaos.fire(ChaosSite::UnitTransient, &attempt_key) {
                        panic!("chaos: injected transient unit failure");
                    }
                }
                runner(spec)
            }));
            match result {
                Ok(report) => {
                    if let Some(cache) = &self.cache {
                        match cache.store(hash, &report) {
                            Ok(report_hash) => {
                                // Provenance sidecar: trace the object
                                // back to its exact inputs. Best-effort,
                                // like the journal — analysis metadata
                                // must never fail a unit.
                                let chaos_plan_hash =
                                    self.opts.chaos.as_ref().map(|c| c.plan().content_hash());
                                let prov =
                                    Provenance::for_unit(spec, &report_hash, chaos_plan_hash);
                                if let Err(e) = cache.store_provenance(&prov) {
                                    eprintln!(
                                        "warning: failed to record provenance for {name}: {e}"
                                    );
                                }
                            }
                            Err(e) => eprintln!("warning: failed to cache {name}: {e}"),
                        }
                    }
                    self.record_unit_success(&spec.experiment);
                    let wall_s = start.elapsed().as_secs_f64();
                    self.journal_record(&JournalEvent::Done {
                        hash: hash.to_string(),
                        unit: name.clone(),
                        wall_s,
                    });
                    return UnitOutcome {
                        name,
                        hash: hash.to_string(),
                        report: Some(report),
                        status: UnitStatus::Executed,
                        wall_s,
                        error: None,
                    };
                }
                Err(payload) => {
                    // `&*payload`, not `&payload`: coercing the Box itself
                    // to `&dyn Any` would make every downcast miss.
                    last_error = panic_message(&*payload);
                }
            }
        }

        self.record_unit_failure(&spec.experiment);
        self.journal_record(&JournalEvent::Failed {
            hash: hash.to_string(),
            unit: name.clone(),
            error: last_error.clone(),
        });
        UnitOutcome {
            name,
            hash: hash.to_string(),
            report: None,
            status: UnitStatus::Failed,
            wall_s: start.elapsed().as_secs_f64(),
            error: Some(last_error),
        }
    }

    /// Deterministic capped exponential backoff before re-attempt
    /// `attempt` (1-based): `min(base << (attempt-1), cap)`. No jitter —
    /// reproducibility beats thundering-herd avoidance in a
    /// single-process campaign.
    fn backoff_delay(&self, attempt: usize) -> Duration {
        let base = self.opts.retry_backoff_ms;
        let shifted = base
            .checked_shl((attempt - 1).min(63) as u32)
            .unwrap_or(u64::MAX);
        Duration::from_millis(shifted.min(self.opts.retry_backoff_cap_ms))
    }

    /// A [`UnitStatus::Cached`] outcome for `hash`, if the cache holds a
    /// valid report for it. Detected corruption is journaled and
    /// counted — never a silent miss.
    fn cached_outcome(&self, hash: &str, name: &str, start: &Instant) -> Option<UnitOutcome> {
        match self.cache.as_ref()?.lookup(hash) {
            Lookup::Hit(report) => Some(UnitOutcome {
                name: name.to_string(),
                hash: hash.to_string(),
                report: Some(report),
                status: UnitStatus::Cached,
                wall_s: start.elapsed().as_secs_f64(),
                error: None,
            }),
            Lookup::Miss => None,
            Lookup::Corrupt { report_hash } => {
                self.stats.corrupt_detected.fetch_add(1, Ordering::Relaxed);
                self.journal_record(&JournalEvent::CacheCorrupt {
                    hash: hash.to_string(),
                    unit: name.to_string(),
                    object: report_hash,
                });
                None
            }
        }
    }

    /// A [`UnitStatus::Degraded`] outcome if this unit's experiment has
    /// an open circuit breaker; `None` otherwise.
    fn degraded_outcome(
        &self,
        spec: &UnitSpec,
        hash: &str,
        name: &str,
        start: &Instant,
    ) -> Option<UnitOutcome> {
        if self.opts.circuit_threshold == 0 {
            return None;
        }
        let open = self
            .circuits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&spec.experiment)
            .is_some_and(|c| c.open);
        if !open {
            return None;
        }
        let reason = format!(
            "circuit open for experiment `{}` after {} consecutive hard failures",
            spec.experiment, self.opts.circuit_threshold
        );
        self.journal_record(&JournalEvent::Degraded {
            hash: hash.to_string(),
            unit: name.to_string(),
            reason: reason.clone(),
        });
        Some(UnitOutcome {
            name: name.to_string(),
            hash: hash.to_string(),
            report: None,
            status: UnitStatus::Degraded,
            wall_s: start.elapsed().as_secs_f64(),
            error: Some(reason),
        })
    }

    /// Resets the experiment's consecutive-failure streak (the breaker
    /// only opens on an *unbroken* run of hard failures).
    fn record_unit_success(&self, experiment: &str) {
        if self.opts.circuit_threshold == 0 {
            return;
        }
        let mut circuits = self.circuits.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = circuits.get_mut(experiment) {
            if !c.open {
                c.consecutive_failures = 0;
            }
        }
    }

    /// Counts one hard failure against the experiment's breaker, opening
    /// it at the configured threshold.
    fn record_unit_failure(&self, experiment: &str) {
        if self.opts.circuit_threshold == 0 {
            return;
        }
        let mut circuits = self.circuits.lock().unwrap_or_else(PoisonError::into_inner);
        let c = circuits.entry(experiment.to_string()).or_default();
        c.consecutive_failures += 1;
        if c.consecutive_failures >= self.opts.circuit_threshold && !c.open {
            c.open = true;
            eprintln!(
                "warning: circuit opened for experiment `{experiment}` after {} consecutive hard failures; remaining units will be degraded",
                c.consecutive_failures
            );
        }
    }

    fn journal_record(&self, event: &JournalEvent) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.record(event) {
                eprintln!("warning: journal write failed: {e}");
            }
        }
    }

    /// Journals one `chaos` record per injection site that fired,
    /// attributing resilience activity (retries, quarantines,
    /// degradations) to its causes. Call once at campaign end; a run
    /// without an injector (or whose injector never fired) writes
    /// nothing.
    pub fn journal_chaos_summary(&self) {
        let Some(chaos) = &self.opts.chaos else {
            return;
        };
        for site in rsls_chaos::ChaosSite::ALL {
            let fired = chaos.fired(site);
            if fired > 0 {
                self.journal_record(&JournalEvent::Chaos {
                    site: site.label().to_string(),
                    fired,
                });
            }
        }
    }

    /// Totals accumulated across every `run_units` call so far.
    pub fn summary(&self) -> CampaignSummary {
        let circuits_open = self
            .circuits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|c| c.open)
            .count();
        CampaignSummary {
            total: self.stats.total.load(Ordering::Relaxed),
            executed: self.stats.executed.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            degraded: self.stats.degraded.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            corrupt_detected: self.stats.corrupt_detected.load(Ordering::Relaxed),
            quarantined: self
                .cache
                .as_ref()
                .map_or(0, ResultCache::quarantined_total),
            circuits_open,
            unit_wall_s: self.stats.unit_wall_us.load(Ordering::Relaxed) as f64 / 1e6,
            scheme_units: self
                .scheme_units
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    /// Renders the campaign summary table: one row per unit (slowest
    /// first), then the totals line (and a resilience line when any
    /// retry/quarantine/degradation happened).
    pub fn summary_table(&self) -> String {
        let mut records = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        records.sort_by(|a, b| b.wall_s.total_cmp(&a.wall_s));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>9} {:>10}\n",
            "unit", "status", "wall [s]"
        ));
        for r in &records {
            let status = match r.status {
                UnitStatus::Executed => "ran",
                UnitStatus::Cached => "cached",
                UnitStatus::Failed => "FAILED",
                UnitStatus::Degraded => "DEGRADED",
            };
            out.push_str(&format!(
                "{:<44} {:>9} {:>10.3}\n",
                r.name, status, r.wall_s
            ));
        }
        let s = self.summary();
        out.push_str(&format!(
            "campaign: {} units — {} ran, {} cached ({:.0}% hit rate, {} coalesced), {} failed, {:.2}s unit wall time\n",
            s.total,
            s.executed,
            s.cache_hits,
            s.hit_rate() * 100.0,
            s.coalesced,
            s.failed,
            s.unit_wall_s,
        ));
        if s.retries + s.corrupt_detected + s.degraded + s.circuits_open > 0 || s.quarantined > 0 {
            out.push_str(&format!(
                "resilience: {} retries, {} corrupt cache entries detected, {} quarantined, {} degraded units, {} circuits open\n",
                s.retries, s.corrupt_detected, s.quarantined, s.degraded, s.circuits_open,
            ));
        }
        out
    }
}

/// Removes the in-flight latch for a leader's content address and wakes
/// every coalesced waiter, on every exit path (drop-based so a panic
/// escaping the leader cannot strand waiters).
struct FlightGuard<'a> {
    engine: &'a Engine,
    hash: &'a str,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let flight = self
            .engine
            .in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(self.hash);
        if let Some(flight) = flight {
            *flight.done.lock().unwrap_or_else(PoisonError::into_inner) = true;
            flight.cv.notify_all();
        }
    }
}

/// Adapts the campaign's [`ChaosInjector`] to core's checkpoint-chaos
/// hook, so `DiskStore` torn-write/read-error decisions come from the
/// same deterministic plan (and count toward the same per-site totals)
/// as every other injection site.
#[derive(Debug)]
struct CkptChaosAdapter(Arc<ChaosInjector>);

impl rsls_core::CheckpointChaos for CkptChaosAdapter {
    fn torn_write(&self, key: &str) -> bool {
        self.0.fire(ChaosSite::CkptWriteTorn, key)
    }

    fn read_error(&self, key: &str) -> bool {
        self.0.fire(ChaosSite::CkptReadError, key)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
