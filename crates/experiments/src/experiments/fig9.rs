//! Figure 9 — projected resilience overhead under weak scaling.

use rsls_models::{project_scheme, ProjectionConfig};

use crate::output::{f2, sci, Table};
use crate::Scale;

/// System sizes projected (processes).
const SIZES: [usize; 7] = [192, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000];

/// The projected schemes, in the paper's Figure 9 order; forward recovery
/// is its best case, optimized LI with DVFS.
const LABELS: [&str; 4] = ["RD", "CR-D", "CR-M", "LI-DVFS"];

/// Reproduces Figure 9: normalized `T_res`, `E_res` and power for RD,
/// CR-D, CR-M and FW under weak scaling (50K nnz/process, per-process
/// MTBF 6K hours ⇒ linearly decreasing system MTBF).
pub fn run(_scale: Scale) -> Vec<Table> {
    let cfg = ProjectionConfig::default();
    let mut tables = Vec::new();
    for metric in ["T_res", "E_res", "P"] {
        let mut t = Table::new(
            format!("Figure 9 — projected {metric} (normalized to fault-free)"),
            &[&["#processes", "MTBF (h)"][..], &LABELS].concat(),
        );
        for &n in &SIZES {
            let mtbf_h = cfg.per_process_mtbf_h / n as f64;
            let mut row = vec![n.to_string(), sci(mtbf_h)];
            for label in LABELS {
                let p = project_scheme(label, &cfg, n)
                    .unwrap_or_else(|| panic!("{label:?} is not a report label"));
                let v = match metric {
                    "T_res" => p.t_res,
                    "E_res" => p.e_res,
                    _ => p.p,
                };
                row.push(if v.abs() < 0.01 && v != 0.0 {
                    sci(v)
                } else {
                    f2(v)
                });
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_tables_cover_all_sizes() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows.len(), SIZES.len());
        }
    }
}
