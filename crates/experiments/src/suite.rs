//! The 14-matrix evaluation suite (Table 3 analogs).
//!
//! Each [`MatrixSpec`] mirrors one SuiteSparse matrix from the paper's
//! Table 3: its row count and nnz/row are matched (exactly at
//! [`Scale::Full`], proportionally at [`Scale::Quick`]), its *structure*
//! (regular band vs irregular long-range coupling) is chosen to reproduce
//! the paper's qualitative recovery behaviour, and its conditioning
//! (diagonal-dominance margin) is tuned so relative iteration counts
//! follow the Table 3 ordering. `wathen100` and the 5-point stencil are
//! procedural and generated exactly.

use rsls_sparse::generators::{banded_spd, irregular_spd, stencil_2d, wathen, BandedConfig};
use rsls_sparse::CsrMatrix;

use crate::Scale;

/// Sparsity structure class of an analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Regular banded structure — LI/LSI reconstruct accurately.
    Banded,
    /// Irregular long-range coupling — LI/LSI reconstruct poorly
    /// (paper §5.2: "LI and LSI construct less accurate solutions for the
    /// matrices with an irregular structure").
    Irregular,
    /// Exact procedural generation (wathen, stencil).
    Procedural,
}

/// One matrix of the evaluation suite.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// SuiteSparse name from Table 3.
    pub name: &'static str,
    /// Paper's row count.
    pub paper_rows: usize,
    /// Paper's average nnz per row.
    pub paper_nnz_per_row: usize,
    /// Paper's problem kind.
    pub problem_kind: &'static str,
    /// Paper's fault-free iteration count (tolerance 1e-12).
    pub paper_iters: usize,
    /// Structure class of the analog.
    pub structure: Structure,
    /// Diagonal-dominance margin controlling the analog's conditioning
    /// (ignored by procedural generators).
    dominance: f64,
    /// Geometric scaling decades inflating the analog's condition number
    /// toward the Table 3 iteration counts (see `BandedConfig`).
    scaling: f64,
    /// Band-weight decay lengthening the analog's effective 1D diameter
    /// (see `BandedConfig::band_decay`). 1.0 disables it.
    decay: f64,
    /// Row count at quick scale.
    quick_rows: usize,
}

impl MatrixSpec {
    /// Row count at the given scale.
    pub fn rows(&self, scale: Scale) -> usize {
        match scale {
            Scale::Quick => self.quick_rows,
            Scale::Full => self.paper_rows,
        }
    }

    /// Generates the analog at the given scale (deterministic).
    ///
    /// When `RSLS_MATRIX_DIR` is set and contains `<name>.mtx`, the real
    /// SuiteSparse matrix is loaded instead of the analog — so anyone with
    /// the paper's matrices on disk reproduces against the originals.
    pub fn generate(&self, scale: Scale) -> CsrMatrix {
        if let Some(real) = self.load_real() {
            return real;
        }
        let n = self.rows(scale);
        let seed = fxhash(self.name);
        match self.name {
            "wathen100" => {
                // dim = 3·nx·ny + 2(nx+ny) + 1; invert for nx = ny.
                let nx = 100;
                let _ = scale;
                wathen(nx, nx, seed)
            }
            "5-point stencil" => {
                let side = (n as f64).sqrt().round() as usize;
                stencil_2d(side, side)
            }
            _ => match self.structure {
                Structure::Banded | Structure::Procedural => banded_spd(
                    &BandedConfig::regular(n, self.paper_nnz_per_row, self.dominance, seed)
                        .with_scaling_decades(self.scaling)
                        .with_band_decay(self.decay),
                ),
                Structure::Irregular => irregular_spd(
                    &BandedConfig::irregular(n, self.paper_nnz_per_row, self.dominance, 0.35, seed)
                        .with_scaling_decades(self.scaling)
                        .with_band_decay(self.decay),
                ),
            },
        }
    }

    /// Attempts to load the real SuiteSparse matrix from `RSLS_MATRIX_DIR`.
    fn load_real(&self) -> Option<CsrMatrix> {
        let dir = std::env::var("RSLS_MATRIX_DIR").ok()?;
        let path = std::path::Path::new(&dir).join(format!("{}.mtx", self.name));
        let file = std::fs::File::open(&path).ok()?;
        match rsls_sparse::io::read_matrix_market(std::io::BufReader::new(file)) {
            Ok(m) => {
                eprintln!("suite: using real matrix {}", path.display());
                Some(m)
            }
            Err(e) => {
                eprintln!(
                    "suite: failed to parse {}: {e}; using analog",
                    path.display()
                );
                None
            }
        }
    }

    /// A right-hand side with a known smooth solution structure (all-ones
    /// through the matrix), keeping `‖b‖` well scaled for any analog.
    pub fn rhs(&self, a: &CsrMatrix) -> Vec<f64> {
        let ones = vec![1.0; a.nrows()];
        let mut b = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut b);
        b
    }
}

/// Deterministic tiny string hash for per-matrix seeds.
fn fxhash(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The evaluation suite, in Table 3 order.
///
/// Dominance margins are tuned so the *ordering* of iteration counts
/// matches Table 3 (δ ≈ 392/iters² from the CG/condition-number
/// relation); measured values are recorded in EXPERIMENTS.md.
pub static SUITE: &[MatrixSpec] = &[
    MatrixSpec {
        name: "bcsstk06",
        paper_rows: 420,
        paper_nnz_per_row: 19,
        problem_kind: "structural",
        paper_iters: 4476,
        structure: Structure::Irregular,
        dominance: 2.0e-5,
        scaling: 2.5,
        decay: 1.0,
        quick_rows: 420,
    },
    MatrixSpec {
        name: "msc01050",
        paper_rows: 1050,
        paper_nnz_per_row: 25,
        problem_kind: "structural",
        paper_iters: 35765,
        structure: Structure::Irregular,
        dominance: 3.1e-7,
        scaling: 2.9,
        decay: 1.0,
        quick_rows: 1050,
    },
    MatrixSpec {
        name: "ex10hs",
        paper_rows: 2548,
        paper_nnz_per_row: 22,
        problem_kind: "CFD",
        paper_iters: 3217,
        structure: Structure::Irregular,
        dominance: 3.8e-5,
        scaling: 1.7,
        decay: 1.0,
        quick_rows: 2548,
    },
    MatrixSpec {
        name: "bcsstk16",
        paper_rows: 4884,
        paper_nnz_per_row: 59,
        problem_kind: "structural",
        paper_iters: 553,
        structure: Structure::Banded,
        dominance: 1.3e-3,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 4884,
    },
    MatrixSpec {
        name: "ex15",
        paper_rows: 6867,
        paper_nnz_per_row: 17,
        problem_kind: "CFD",
        paper_iters: 1074,
        structure: Structure::Banded,
        dominance: 3.4e-4,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 6867,
    },
    MatrixSpec {
        name: "Kuu",
        paper_rows: 7102,
        paper_nnz_per_row: 24,
        problem_kind: "structural",
        paper_iters: 849,
        structure: Structure::Banded,
        dominance: 5.4e-4,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 7102,
    },
    MatrixSpec {
        name: "t2dahe",
        paper_rows: 11445,
        paper_nnz_per_row: 15,
        problem_kind: "model reduction",
        paper_iters: 82098,
        structure: Structure::Banded,
        dominance: 5.0e-5,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 5723,
    },
    MatrixSpec {
        name: "crystm02",
        paper_rows: 13965,
        paper_nnz_per_row: 23,
        problem_kind: "materials",
        paper_iters: 1154,
        structure: Structure::Banded,
        dominance: 2.9e-4,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 13965,
    },
    MatrixSpec {
        name: "wathen100",
        paper_rows: 30401,
        paper_nnz_per_row: 16,
        problem_kind: "random 2D/3D",
        paper_iters: 355,
        structure: Structure::Procedural,
        dominance: 0.0,
        scaling: 0.0,
        decay: 1.0,
        quick_rows: 30401,
    },
    MatrixSpec {
        name: "cvxbqp1",
        paper_rows: 50000,
        paper_nnz_per_row: 7,
        problem_kind: "optimization",
        paper_iters: 11863,
        structure: Structure::Banded,
        dominance: 2.4e-5,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 12500,
    },
    MatrixSpec {
        name: "Andrews",
        paper_rows: 60000,
        paper_nnz_per_row: 13,
        problem_kind: "graphics",
        paper_iters: 216,
        structure: Structure::Banded,
        dominance: 8.4e-3,
        scaling: 0.0,
        decay: 0.3,
        quick_rows: 60000,
    },
    MatrixSpec {
        name: "nd24k",
        paper_rows: 72000,
        paper_nnz_per_row: 399,
        problem_kind: "2D/3D",
        paper_iters: 10019,
        structure: Structure::Banded,
        dominance: 3.9e-6,
        scaling: 2.0,
        decay: 1.0,
        quick_rows: 2400,
    },
    MatrixSpec {
        name: "x104",
        paper_rows: 108384,
        paper_nnz_per_row: 80,
        problem_kind: "structure",
        paper_iters: 96704,
        structure: Structure::Irregular,
        dominance: 4.2e-8,
        scaling: 1.8,
        decay: 1.0,
        quick_rows: 6000,
    },
    MatrixSpec {
        name: "5-point stencil",
        paper_rows: 640000,
        paper_nnz_per_row: 5,
        problem_kind: "structure",
        paper_iters: 3162,
        structure: Structure::Procedural,
        dominance: 0.0,
        scaling: 0.0,
        decay: 1.0,
        quick_rows: 40000,
    },
];

/// Finds a suite entry by name.
pub fn by_name(name: &str) -> Option<&'static MatrixSpec> {
    SUITE.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_fourteen_matrices() {
        assert_eq!(SUITE.len(), 14);
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in SUITE {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
    }

    #[test]
    fn quick_analogs_are_spd_shaped() {
        for m in SUITE {
            let a = m.generate(Scale::Quick);
            assert_eq!(a.nrows(), a.ncols(), "{}", m.name);
            assert!(a.is_symmetric(1e-10), "{} not symmetric", m.name);
            assert!(a.nrows() <= 60000, "{} too large for quick", m.name);
        }
    }

    #[test]
    fn nnz_per_row_is_in_the_right_ballpark() {
        for m in SUITE {
            if m.structure == Structure::Procedural {
                continue;
            }
            let a = m.generate(Scale::Quick);
            let got = a.nnz_per_row();
            let want = m.paper_nnz_per_row as f64;
            assert!(
                got > 0.4 * want && got < 1.6 * want,
                "{}: nnz/row {got} vs paper {want}",
                m.name
            );
        }
    }

    #[test]
    fn wathen_dimension_matches_formula() {
        let m = by_name("wathen100").unwrap();
        let a = m.generate(Scale::Quick);
        assert_eq!(a.nrows(), 3 * 100 * 100 + 2 * 100 + 2 * 100 + 1);
    }

    #[test]
    fn full_scale_rows_match_table_3() {
        for m in SUITE {
            assert!(m.paper_rows >= m.quick_rows, "{}", m.name);
        }
        assert_eq!(by_name("x104").unwrap().paper_rows, 108_384);
        assert_eq!(by_name("5-point stencil").unwrap().paper_rows, 640_000);
    }

    #[test]
    fn rhs_is_consistent_with_all_ones_solution() {
        let m = by_name("Kuu").unwrap();
        let a = m.generate(Scale::Quick);
        let b = m.rhs(&a);
        // A · 1 = b by construction.
        let ones = vec![1.0; a.nrows()];
        let mut ax = vec![0.0; a.nrows()];
        a.spmv(&ones, &mut ax);
        assert_eq!(ax, b);
    }

    #[test]
    fn real_matrix_override_is_honored() {
        // Write a Matrix Market file with the crate's own writer and point
        // the loader at it. (Serial: uses a process-wide env var; restore
        // it afterwards.)
        let dir = std::env::temp_dir().join("rsls-suite-real");
        std::fs::create_dir_all(&dir).unwrap();
        // bcsstk06 is not generated by any other test in this binary, so
        // the process-wide env var cannot race a concurrent workload().
        let real = stencil_2d(4, 4);
        let file = std::fs::File::create(dir.join("bcsstk06.mtx")).unwrap();
        rsls_sparse::io::write_matrix_market(&real, file).unwrap();
        std::env::set_var("RSLS_MATRIX_DIR", &dir);
        let a = by_name("bcsstk06").unwrap().generate(Scale::Quick);
        std::env::remove_var("RSLS_MATRIX_DIR");
        let _ = std::fs::remove_dir_all(&dir);
        // `{:.17e}` round-trips every value exactly.
        assert_eq!(a, real);
    }

    #[test]
    fn generation_is_deterministic() {
        let m = by_name("crystm02").unwrap();
        assert_eq!(m.generate(Scale::Quick), m.generate(Scale::Quick));
    }
}
