//! Property-based tests for the sparse substrate.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;
use rsls_sparse::generators::{banded_spd, BandedConfig};
use rsls_sparse::vector::{axpy, dot, norm2};
use rsls_sparse::{CooMatrix, CsrMatrix, Partition, SellMatrix};

/// Strategy: a random small COO matrix with possibly duplicate entries.
fn coo_strategy() -> impl Strategy<Value = CooMatrix> {
    (1usize..12, 1usize..12).prop_flat_map(|(nr, nc)| {
        let entry = (0..nr, 0..nc, -10.0f64..10.0);
        proptest::collection::vec(entry, 0..40).prop_map(move |entries| {
            let mut coo = CooMatrix::new(nr, nc);
            for (r, c, v) in entries {
                coo.push(r, c, v).unwrap();
            }
            coo
        })
    })
}

/// Held by each property that runs a parallel kernel, so every such
/// call finds the kernel pool free and borrows a helper when the machine
/// has a spare core: the properties then cover the pooled path, not
/// only the inline one.
static POOL: Mutex<()> = Mutex::new(());

fn pool_to_myself() -> MutexGuard<'static, ()> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Whether a kernel over `chunks` chunks borrowed a helper since the
/// pool had lent `before`, or could not have (one chunk, one core).
fn pooled_if_possible(before: u64, chunks: usize) -> bool {
    let spare = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    rayon::pool_stats().lent > before || chunks < 2 || !spare
}

fn dense_matvec(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let d = a.to_dense();
    let mut y = vec![0.0; a.nrows()];
    d.matvec(x, &mut y);
    y
}

proptest! {
    #[test]
    fn csr_matches_dense_reference(coo in coo_strategy(), seed in 0u64..1000) {
        let a = coo.to_csr();
        let mut rng_state = seed;
        let x: Vec<f64> = (0..a.ncols()).map(|_| {
            // Tiny deterministic LCG so the test has no rand dependency on values.
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }).collect();
        let mut y = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y);
        let yref = dense_matvec(&a, &x);
        for (l, r) in y.iter().zip(&yref) {
            prop_assert!((l - r).abs() < 1e-9);
        }
    }

    #[test]
    fn spmv_is_linear(coo in coo_strategy()) {
        let a = coo.to_csr();
        let n = a.ncols();
        let x1: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let x2: Vec<f64> = (0..n).map(|i| ((i * i) % 7) as f64).collect();
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        let mut ysum = vec![0.0; a.nrows()];
        a.spmv(&x1, &mut y1);
        a.spmv(&x2, &mut y2);
        a.spmv(&sum, &mut ysum);
        for i in 0..a.nrows() {
            prop_assert!((ysum[i] - y1[i] - y2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_is_involutive(coo in coo_strategy()) {
        let a = coo.to_csr();
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn partition_covers_rows_exactly_once(n in 1usize..2000, p in 1usize..64) {
        let part = Partition::balanced(n, p);
        let mut covered = vec![0u32; n];
        for (_, range) in part.iter() {
            for r in range {
                covered[r] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
        // Balance: lengths differ by at most one.
        let lens: Vec<usize> = (0..p).map(|r| part.len(r)).collect();
        let (mn, mx) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    #[test]
    fn partition_owner_matches_range(n in 1usize..500, p in 1usize..32) {
        let part = Partition::balanced(n, p);
        for row in 0..n {
            let o = part.owner(row);
            prop_assert!(part.range(o).contains(&row));
        }
    }

    #[test]
    fn generated_spd_matrices_are_symmetric(n in 4usize..120, nnzr in 3usize..12, seed in 0u64..100) {
        let cfg = BandedConfig::regular(n, nnzr, 0.1, seed);
        let a = banded_spd(&cfg);
        prop_assert!(a.is_symmetric(1e-12));
        // xᵀ A x > 0 for a couple of deterministic x.
        for k in 1..4u64 {
            let x: Vec<f64> = (0..n).map(|i| (((i as u64 + k) * 2654435761) % 17) as f64 - 8.0).collect();
            if norm2(&x) == 0.0 { continue; }
            let mut ax = vec![0.0; n];
            a.spmv(&x, &mut ax);
            prop_assert!(dot(&x, &ax) > 0.0);
        }
    }

    #[test]
    fn par_spmv_is_bit_identical_to_serial(coo in coo_strategy(), seed in 0u64..1000, chunk in 1usize..9) {
        let a = coo.to_csr();
        let mut rng_state = seed.wrapping_add(17);
        let x: Vec<f64> = (0..a.ncols()).map(|_| {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }).collect();
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&x, &mut serial);
        let _pool = pool_to_myself();
        // Bit-identical, not approximately equal: each row is a serial
        // reduction regardless of which worker computes it, so `==` holds.
        let mut par = vec![f64::NAN; a.nrows()];
        let lent = rayon::pool_stats().lent;
        a.par_spmv(&x, &mut par);
        prop_assert_eq!(&par, &serial);
        prop_assert!(pooled_if_possible(lent, a.nrows()));
        let mut chunked = vec![f64::NAN; a.nrows()];
        let lent = rayon::pool_stats().lent;
        a.par_spmv_chunked(&x, &mut chunked, chunk);
        prop_assert_eq!(&chunked, &serial);
        prop_assert!(pooled_if_possible(lent, a.nrows().div_ceil(chunk)));
    }

    #[test]
    fn sell_spmv_is_bit_identical_to_csr(
        coo in coo_strategy(),
        seed in 0u64..1000,
        c_pick in 0usize..2,
        sigma in 1usize..24,
    ) {
        let a = coo.to_csr();
        let c = [4usize, 8][c_pick];
        let mut rng_state = seed.wrapping_add(41);
        let x: Vec<f64> = (0..a.ncols()).map(|_| {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }).collect();
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&x, &mut serial);
        let sell = SellMatrix::from_csr_with(&a, c, sigma);
        // Byte-identical across format, thread budget, and kernel: each
        // row is the same left-to-right reduction everywhere, padding is
        // never folded in, and the σ-window permutation is window-local.
        let mut sell_serial = vec![f64::NAN; a.nrows()];
        sell.spmv(&x, &mut sell_serial);
        prop_assert_eq!(&sell_serial, &serial);
        let _pool = pool_to_myself();
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut par = vec![f64::NAN; a.nrows()];
            pool.install(|| sell.par_spmv(&x, &mut par));
            prop_assert_eq!(&par, &serial);
        }
    }

    #[test]
    fn dot_is_symmetric_and_axpy_linear(v in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
        let w: Vec<f64> = v.iter().map(|x| x * 0.5 + 1.0).collect();
        prop_assert!((dot(&v, &w) - dot(&w, &v)).abs() < 1e-9);
        let mut y = w.clone();
        axpy(0.0, &v, &mut y);
        prop_assert_eq!(y, w);
    }
}
