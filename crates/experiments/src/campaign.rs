//! Process-wide campaign engine and execution context.
//!
//! All experiment solver work funnels through one [`Engine`]
//! (`rsls-campaign`): the `rsls-run` binary configures it from the
//! command line ([`configure`]) before the first run; library users and
//! tests that never call [`configure`] get a default engine — one
//! worker, no cache, no journal — so direct harness calls stay hermetic
//! and write nothing to disk.
//!
//! The engine itself is experiment-agnostic; this module supplies the
//! experiment-side context a [`UnitSpec`] needs: which experiment is
//! currently running ([`set_experiment`]) and at which scale, plus the
//! matrix fingerprinting that makes cache addresses collision-safe
//! across reused tags.

use std::cell::RefCell;
use std::io;
use std::sync::{Arc, OnceLock};

use rsls_campaign::{matrix_fingerprint, Engine, EngineOptions, UnitSpec, ENGINE_VERSION};
use rsls_core::driver::run;
use rsls_core::{RunConfig, RunReport};
use rsls_sparse::CsrMatrix;

use crate::Scale;

static ENGINE: OnceLock<Arc<Engine>> = OnceLock::new();

thread_local! {
    // Thread-local, not process-global: a unit spec is always built on
    // the thread driving its harness, and concurrent harness drivers
    // (rsls-serve workers computing different figures at once) must not
    // relabel each other's units.
    static EXPERIMENT: RefCell<Option<String>> = const { RefCell::new(None) };
    // A caller that owns engines (rsls-serve's shard set, the
    // benchmark) routes each harness invocation at one of them. The
    // override is a stack so nested harness calls compose; the top
    // engine, when present, replaces the process-wide one for
    // `execute_units` on this thread.
    static ENGINE_OVERRIDE: RefCell<Vec<Arc<Engine>>> = const { RefCell::new(Vec::new()) };
}

/// Installs the process-wide engine. Call once, before any experiment
/// runs; later calls (or a call after the default engine materialized)
/// fail.
pub fn configure(opts: EngineOptions) -> io::Result<()> {
    ENGINE
        .set(Arc::new(Engine::new(opts)?))
        .map_err(|_| io::Error::other("campaign engine already configured"))
}

fn global() -> &'static Arc<Engine> {
    ENGINE.get_or_init(|| {
        Arc::new(
            Engine::new(EngineOptions::default())
                .expect("default campaign engine cannot fail to build"),
        )
    })
}

/// The process-wide engine (default: serial, uncached, unjournaled).
pub fn engine() -> &'static Engine {
    global()
}

/// The process-wide engine as a shareable handle — what a server that
/// serves it as shard 0 of its engine set holds.
pub fn engine_arc() -> Arc<Engine> {
    Arc::clone(global())
}

/// Runs `f` with `engine` replacing the process-wide engine for
/// [`execute_units`] calls made *on this thread* — the hook a sharded
/// service uses to route a harness at one shard's store namespace.
/// Restores the previous engine on exit, panics included.
pub fn with_engine<R>(engine: Arc<Engine>, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            ENGINE_OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    ENGINE_OVERRIDE.with(|o| o.borrow_mut().push(engine));
    let _pop = Pop;
    f()
}

/// The engine [`execute_units`] uses on this thread right now: the
/// innermost [`with_engine`] override, or the process-wide engine.
fn active_engine() -> Arc<Engine> {
    ENGINE_OVERRIDE
        .with(|o| o.borrow().last().cloned())
        .unwrap_or_else(engine_arc)
}

/// Names the experiment that unit specs subsequently built *on this
/// thread* belong to. [`crate::registry::ExperimentRegistry::run`] sets
/// this before invoking each harness.
pub fn set_experiment(name: &str) {
    EXPERIMENT.with(|e| *e.borrow_mut() = Some(name.to_string()));
}

/// The current thread's experiment name (`"adhoc"` when none was set —
/// direct library/test calls).
pub fn current_experiment() -> String {
    EXPERIMENT.with(|e| e.borrow().clone().unwrap_or_else(|| "adhoc".to_string()))
}

/// Builds the canonical spec for one `run(a, b, cfg)` invocation.
///
/// `matrix` should name the system (`workload` names, or an experiment
/// tag for synthesized ones); the fingerprint of `(A, b)` is folded in
/// regardless, so reused names cannot alias distinct data.
pub fn unit_spec(a: &CsrMatrix, b: &[f64], matrix: &str, scale: Scale, cfg: RunConfig) -> UnitSpec {
    let unit = format!("{matrix}/{}", cfg.scheme.run_label(cfg.dvfs));
    // Interned suite workloads hit the memoized fingerprint; foreign
    // (synthesized) systems are hashed directly.
    let fingerprint = crate::artifacts::fingerprint_of(a, b).unwrap_or_else(|| {
        matrix_fingerprint(
            a.nrows(),
            a.ncols(),
            a.row_ptr(),
            a.col_idx(),
            a.values(),
            b,
        )
    });
    UnitSpec {
        experiment: current_experiment(),
        unit,
        matrix: matrix.to_string(),
        matrix_fingerprint: fingerprint,
        scale: scale.label().to_string(),
        engine_version: ENGINE_VERSION,
        config: cfg,
    }
}

/// Executes one batch of units against `(a, b)` on this thread's active
/// engine, returning reports in submission order.
///
/// A failed (panicking) unit is journaled and isolated by the engine;
/// here — where an experiment needs every report to build its table —
/// the failure is re-raised after the whole batch has finished, so
/// sibling units still complete and cache.
pub fn execute_units(a: &CsrMatrix, b: &[f64], specs: &[UnitSpec]) -> Vec<RunReport> {
    active_engine()
        .run_units(specs, |spec| run(a, b, &spec.config))
        .into_iter()
        .map(|o| match o.report {
            Some(report) => report,
            None => panic!(
                "campaign unit {} failed: {}",
                o.name,
                o.error.as_deref().unwrap_or("unknown error")
            ),
        })
        .collect()
}

/// Executes a single unit (see [`execute_units`]).
pub fn execute_unit(a: &CsrMatrix, b: &[f64], spec: UnitSpec) -> RunReport {
    execute_units(a, b, std::slice::from_ref(&spec))
        .pop()
        .expect("one spec yields one report")
}
