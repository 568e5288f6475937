//! `compare`: judges two sets of `run --out` files against each other.
//!
//! For every (workload, end-to-end metric) it prints each set's median
//! and quartiles and a verdict under the metric's bound from
//! `BENCHMARK.json`: `ok`, `worse` (B's median is worse than A's by
//! more than the bound) or `unresolved` (a set's own spread is wider
//! than the bound, and B does not beat A on every run). Exact metrics
//! and facts must be identical in every file of both sets.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::hist::quartiles;
use crate::report::{unit_of, END_TO_END, PER_LAYER};

/// Bound used for a metric `BENCHMARK.json` does not list.
const DEFAULT_BOUND: f64 = 0.10;

/// Per-layer metrics that are counts of simulated work: identical on
/// every run of the same code, whatever the machine does.
pub const EXACT_METRICS: [&str; 10] = [
    "sparse.spmv_calls",
    "solvers.cg_iters",
    "solvers.cg_step_allocs",
    "core.virtual_s",
    "core.energy_j",
    "core.faults_injected",
    "core.ckpt_bytes",
    "campaign.units",
    "lab.ingest_objects",
    "lab.ingest_rejected",
];

/// Facts that must be identical on every run.
pub const EXACT_FACTS: [&str; 10] = [
    "store_digest",
    "units",
    "objects",
    "cg_iters",
    "virtual_s",
    "energy_j",
    "faults_injected",
    "ckpt_bytes",
    "units_at_boot",
    "units_in_fixture",
];

/// A verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread inside a set exceeds the bound.
    Unresolved,
}

/// Judges set `b` against set `a` for a metric where lower (or higher)
/// is better, under `bound` (a share of A's median).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = if lower_is_better {
        (bm - am) / am.abs()
    } else {
        (am - bm) / am.abs()
    };
    let b_always_better = if lower_is_better {
        b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
    } else {
        b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
    };
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `(workload, traced, name) → values`, and the same for facts.
#[derive(Debug, Default)]
struct Set {
    metrics: BTreeMap<(String, String), Vec<f64>>,
    facts: BTreeMap<(String, String), Vec<String>>,
    incorrect: u64,
}

fn load_set(files: &[String]) -> Result<Set, String> {
    let mut set = Set::default();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let doc = serde_json::parse_value(&text).map_err(|e| format!("{file}: {e}"))?;
        let Some(Value::Array(runs)) = doc.get("runs") else {
            return Err(format!("{file}: no runs"));
        };
        for run in runs {
            let Some(Value::Str(workload)) = run.get("workload") else {
                continue;
            };
            let result = run.get("result");
            if result.and_then(|r| r.get("correct")) != Some(&Value::Bool(true)) {
                set.incorrect += 1;
            }
            if let Some(Value::Object(metrics)) = result.and_then(|r| r.get("metrics")) {
                for (name, entry) in metrics {
                    let value = match entry.get("value") {
                        Some(Value::Float(v)) => *v,
                        Some(Value::UInt(v)) => *v as f64,
                        Some(Value::Int(v)) => *v as f64,
                        _ => continue,
                    };
                    set.metrics
                        .entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(value);
                }
            }
            if let Some(Value::Object(facts)) = run.get("facts") {
                for (name, value) in facts {
                    if let Value::Str(v) = value {
                        set.facts
                            .entry((workload.clone(), name.clone()))
                            .or_default()
                            .push(v.clone());
                    }
                }
            }
        }
    }
    Ok(set)
}

/// `name → (lower is better, bound)` from `BENCHMARK.json` in the
/// current directory (empty when there is none).
fn bounds() -> BTreeMap<String, (bool, f64)> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return out;
    };
    let Ok(doc) = serde_json::parse_value(&text) else {
        return out;
    };
    if let Some(Value::Array(metrics)) = doc.get("end_to_end") {
        for metric in metrics {
            let (Some(Value::Str(name)), Some(Value::Str(better))) =
                (metric.get("name"), metric.get("better"))
            else {
                continue;
            };
            let bound = match metric.get("bound") {
                Some(Value::Float(b)) => *b,
                Some(Value::UInt(b)) => *b as f64,
                _ => DEFAULT_BOUND,
            };
            out.insert(name.clone(), (better == "lower", bound));
        }
    }
    out
}

/// Entry point of the `compare` subcommand. Returns whether nothing is
/// worse and every exact value agrees.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare: separate the two sets with --")?;
    let (a, b) = (load_set(&args[..split])?, load_set(&args[split + 1..])?);
    if a.metrics.is_empty() || b.metrics.is_empty() {
        return Err("compare: each side needs at least one result file".to_string());
    }
    let bounds = bounds();
    let mut clean = a.incorrect + b.incorrect == 0;
    if !clean {
        println!("INCORRECT RUNS: {} in A, {} in B", a.incorrect, b.incorrect);
    }

    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "B vs A",
        "bound"
    );
    for ((workload, name), values_a) in &a.metrics {
        let Some(values_b) = b.metrics.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        if !END_TO_END.iter().any(|(n, _)| n == name) {
            continue;
        }
        let (lower, bound) = bounds
            .get(name)
            .copied()
            .unwrap_or((name != "ops_per_s", DEFAULT_BOUND));
        let verdict = judge(values_a, values_b, lower, bound);
        clean &= verdict != Verdict::Worse;
        let (qa, qb) = (quartiles(values_a), quartiles(values_b));
        let cell = |q: Option<(f64, f64, f64)>, pick: fn((f64, f64, f64)) -> f64| {
            q.map_or("-".to_string(), |q| format!("{:.4}", pick(q)))
        };
        let change = match (qa, qb) {
            (Some((_, am, _)), Some((_, bm, _))) => format!("{:+.1}%", (bm / am - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        println!(
            "{workload:<20} {name:<16} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {change:>7} {:>5.0}%  {}",
            cell(qa, |q| q.0),
            cell(qa, |q| q.1),
            cell(qa, |q| q.2),
            cell(qb, |q| q.0),
            cell(qb, |q| q.1),
            cell(qb, |q| q.2),
            bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        );
    }

    println!("\nper-layer medians (no bound; exact metrics must agree on every run):");
    for ((workload, name), values_a) in &a.metrics {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            continue;
        }
        let values_b = b.metrics.get(&(workload.clone(), name.clone()));
        let all: Vec<f64> = values_a
            .iter()
            .chain(values_b.into_iter().flatten())
            .copied()
            .collect();
        if all.iter().all(|v| *v == 0.0) {
            continue;
        }
        let exact = EXACT_METRICS.contains(&name.as_str());
        let note = if !exact {
            ""
        } else if all.iter().all(|v| *v == all[0]) {
            "exact: same"
        } else {
            clean = false;
            "exact: DIFFERS"
        };
        println!(
            "{workload:<20} {name:<40} {:>16.6} {:>16.6} {:<8} {note}",
            crate::hist::median(values_a),
            values_b.map_or(0.0, |v| crate::hist::median(v)),
            unit_of(name).unwrap_or("")
        );
    }

    println!("\nfacts that must be identical on every run:");
    for ((workload, name), values_a) in &a.facts {
        if !EXACT_FACTS.contains(&name.as_str()) {
            continue;
        }
        let values_b = b.facts.get(&(workload.clone(), name.clone()));
        let mut all: Vec<&String> = values_a
            .iter()
            .chain(values_b.into_iter().flatten())
            .collect();
        let runs = all.len();
        all.dedup();
        let same = all.len() == 1;
        clean &= same;
        println!(
            "{workload:<20} {name:<18} {} ({runs} runs) {}",
            if same { "same" } else { "DIFFERS" },
            all.first().map_or("", |v| v.as_str())
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shift_beyond_the_bound_is_worse_and_within_it_is_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 100.2];
        let slower = [115.0, 116.0, 114.0, 115.5, 115.2];
        let same = [103.0, 104.0, 102.0, 103.5, 103.2];
        assert_eq!(judge(&a, &slower, true, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &same, true, 0.10), Verdict::Ok);
        // The same numbers as a throughput: lower is now the worse side.
        assert_eq!(judge(&slower, &a, false, 0.10), Verdict::Worse);
        assert_eq!(judge(&a, &slower, false, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let also = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(judge(&noisy, &also, true, 0.10), Verdict::Unresolved);
        let far_better = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(judge(&noisy, &far_better, true, 0.10), Verdict::Ok);
        assert_eq!(judge(&[1.0], &[1.0], true, 0.10), Verdict::Unresolved);
    }
}
