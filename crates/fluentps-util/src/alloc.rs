//! A counting global allocator: per-thread allocation accounting on top of
//! [`std::alloc::System`].
//!
//! Its readers are the allocation-exactness tests — in `fluentps-core`'s
//! `server.rs` and `worker.rs`, in `fluentps-transport`'s `frame.rs`,
//! `tcp.rs` and codec property tests, and the check of which thread decodes
//! a reply in `serve_contract.rs`: each samples [`thread_counters`] before and after a region of code, and
//! the deltas are that region's allocation count and byte volume on this
//! thread. That only works if the program's allocator actually counts, so
//! this crate installs [`CountingAlloc`] as the workspace-wide
//! `#[global_allocator]`.
//!
//! Cost: two thread-local `Cell` increments per allocation (no locks, no
//! atomics — the counters are per thread and only ever read from the same
//! thread). Deallocations are not counted: the tests' question is "what
//! does this region allocate", not live-heap size. `realloc` counts as
//! one allocation of the new size (it is a fresh placement as far as the
//! hot path is concerned). Counters saturate rather than wrap, and the
//! increments use `try_with` so allocations during thread teardown (after
//! the thread-local is destroyed) are simply not counted instead of
//! panicking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's cumulative `(allocation count, allocated bytes)` since the
/// thread started. Monotone; sample twice and subtract to meter a region.
pub fn thread_counters() -> (u64, u64) {
    let allocs = ALLOCS.try_with(Cell::get).unwrap_or(0);
    let bytes = BYTES.try_with(Cell::get).unwrap_or(0);
    (allocs, bytes)
}

#[inline]
fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get().saturating_add(1)));
    let _ = BYTES.try_with(|c| c.set(c.get().saturating_add(bytes as u64)));
}

/// [`System`] plus per-thread allocation counters (see the module docs).
pub struct CountingAlloc;

// SAFETY: defers every allocation to `System`; the added bookkeeping is
// alloc-free (const-initialized thread-local `Cell`s) and touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// The workspace-wide allocator. Living in `fluentps-util` (the root of
/// the dependency graph) makes every binary, test and bench in the
/// workspace count allocations without opting in.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_meter_allocations_on_this_thread() {
        let (a0, b0) = thread_counters();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (a1, b1) = thread_counters();
        assert!(a1 > a0, "allocation not counted: {a0} -> {a1}");
        assert!(b1 - b0 >= 4096, "bytes undercounted: {b0} -> {b1}");
        drop(v);
        // Deallocation does not move the counters.
        let (a2, b2) = thread_counters();
        assert_eq!((a1, b1), (a2, b2));
    }

    #[test]
    fn counters_are_per_thread() {
        let (a0, _) = thread_counters();
        std::thread::spawn(|| {
            let _v: Vec<u8> = Vec::with_capacity(1 << 16);
        })
        .join()
        .unwrap();
        // The spawned thread's traffic lands on its own counters. (The
        // spawn itself may allocate on this thread, so only assert the
        // other thread's big block is not attributed here byte-for-byte.)
        let (a1, b1) = thread_counters();
        assert!(a1 >= a0);
        let grown: Vec<u8> = Vec::with_capacity(64);
        drop(grown);
        let (_, b2) = thread_counters();
        assert!(b2 >= b1 + 64);
    }

    #[test]
    fn realloc_counts_the_new_size() {
        let mut v: Vec<u8> = Vec::with_capacity(8);
        let (_, b0) = thread_counters();
        v.reserve_exact(1 << 14); // realloc to at least 16 KiB
        let (_, b1) = thread_counters();
        assert!(b1 - b0 >= 1 << 14, "realloc bytes: {b0} -> {b1}");
    }
}
