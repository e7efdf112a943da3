//! Allocation budget of the packed GEMM core.
//!
//! The packed operands live in buffers taken from a per-thread pool and
//! handed back on drop, so once a thread has run a kernel, further
//! same-sized calls allocate nothing. A counting global allocator
//! measures heap allocations on the calling thread (these kernels run
//! entirely on it), so the counts are exact and repeat run for run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use versa_kernels::exec::SerialExec;
use versa_kernels::gemm::{dgemm_packed, dgemm_parallel_on, sgemm_nt_sub};
use versa_kernels::verify::{random_matrix_f32, random_matrix_f64};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator may run during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn counted(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The native workloads' tile size.
const BS: usize = 256;

#[test]
fn packed_kernels_allocate_nothing_after_the_first_call() {
    let (a, b) = (random_matrix_f64(BS, 1), random_matrix_f64(BS, 2));
    let (mut c, mut c_par) = (random_matrix_f64(BS, 3), random_matrix_f64(BS, 3));
    let (af, bf) = (random_matrix_f32(BS, 4), random_matrix_f32(BS, 5));
    let mut cf = random_matrix_f32(BS, 6);
    let calls: [(&str, &mut dyn FnMut()); 3] = [
        ("dgemm_packed", &mut || dgemm_packed(&a, &b, &mut c, BS)),
        ("sgemm_nt_sub", &mut || sgemm_nt_sub(&af, &bf, &mut cf, BS)),
        ("dgemm_parallel_on(SerialExec)", &mut || {
            dgemm_parallel_on(&SerialExec, &a, &b, &mut c_par, BS)
        }),
    ];
    for (name, call) in calls {
        call();
        let n = counted(&mut *call);
        assert_eq!(n, 0, "{name} made {n} allocations after its first call");
    }
}
