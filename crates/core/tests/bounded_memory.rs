//! Memory stays bounded on the guarded streaming path: after the first
//! vector, running more vectors through a [`GuardedSimulator`] must not
//! grow the live heap. A counting global allocator measures live bytes
//! exactly (allocations minus frees), so the check is deterministic —
//! unlike resident-set size, which the allocator and OS blur.
//!
//! This binary holds a single test so no other test's allocations land
//! in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use uds_core::vectors::RandomVectors;
use uds_core::GuardedSimulator;
use uds_netlist::generators::iscas::Iscas85;
use uds_netlist::ResourceLimits;

/// Live heap bytes: every allocation adds its size, every free
/// subtracts it.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

struct CountingAllocator;

// SAFETY: every method forwards to `System` unchanged and only adds
// bookkeeping on an atomic counter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const VECTORS: usize = 100_000;

/// Allowed live-heap growth between the first and the last vector.
const GROWTH_LIMIT_BYTES: isize = 64 * 1024;

#[test]
fn guarded_stream_heap_does_not_grow_with_vector_count() {
    let nl = Iscas85::C432.build();
    let mut guarded = GuardedSimulator::new(&nl, ResourceLimits::production()).unwrap();
    let mut vectors = RandomVectors::new(nl.primary_inputs().len(), 0x432);
    guarded.simulate_vector(&vectors.next().unwrap()).unwrap();
    let after_first = LIVE_BYTES.load(Ordering::Relaxed);
    for vector in vectors.take(VECTORS - 1) {
        guarded.simulate_vector(&vector).unwrap();
    }
    assert_eq!(guarded.vectors_run(), VECTORS);
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - after_first;
    assert!(
        growth < GROWTH_LIMIT_BYTES,
        "live heap grew by {growth} B over {} vectors ({:.1} B/vector)",
        VECTORS - 1,
        growth as f64 / (VECTORS - 1) as f64
    );
}
