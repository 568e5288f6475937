//! The steady state of `Cg` is allocation-free on both storage formats:
//! all buffers are sized by `new` and the first steps, so 100 warm
//! `step` calls must perform exactly zero heap allocations. Counted by this
//! test binary's own global allocator; the counter is per thread, so the
//! harness's other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rsls_solvers::Cg;
use rsls_sparse::generators::{banded_spd, stencil_2d, BandedConfig};
use rsls_sparse::{CsrMatrix, Format};

struct CountingAlloc;

thread_local! {
    // Const-initialised and destructor-free, so touching it from inside
    // the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the count beside it touches only a
// `Cell<u64>` and cannot allocate, unwind or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread performs while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations of 100 `step` calls after a 2-step warm-up.
fn warm_step_allocs(mut step: impl FnMut() -> f64) -> u64 {
    step();
    step();
    allocations(|| {
        for _ in 0..100 {
            step();
        }
    })
}

/// Right-hand side with the all-ones solution.
fn rhs(a: &CsrMatrix) -> Vec<f64> {
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&vec![1.0; a.nrows()], &mut b);
    b
}

#[test]
fn warm_solver_steps_are_allocation_free() {
    // A dead counter would make every zero below vacuous.
    let counted = allocations(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(counted, 1, "the counter sees this thread");

    // Thin-band SPD system in the differentiating recovery regime.
    let a = banded_spd(&BandedConfig::regular(1200, 7, 5e-4, 99).with_band_decay(0.3));
    let b = rhs(&a);
    let mut cg = Cg::new(&a, &b, vec![0.0; a.nrows()]);
    assert_eq!(warm_step_allocs(|| cg.step()), 0, "Cg::step");

    // The banded system is under SELL_MIN_NNZ, so it runs on CSR.
    // stencil_2d(64, 64) clears it, so the format heuristic binds `Cg`
    // to the SELL kernel, while staying under the parallel-SpMV
    // threshold: the counted section never leaves this thread.
    assert_eq!(cg.format(), Format::Csr, "banded system must stay on CSR");
    let sp = stencil_2d(64, 64);
    let sb = rhs(&sp);
    let mut cg = Cg::new(&sp, &sb, vec![0.0; sp.nrows()]);
    assert_eq!(cg.format(), Format::Sell, "stencil must select SELL");
    assert_eq!(warm_step_allocs(|| cg.step()), 0, "Cg::step on SELL");
}
