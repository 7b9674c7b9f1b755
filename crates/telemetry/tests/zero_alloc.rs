//! Pins the "telemetry is free when off" contract: with the global
//! subscriber disabled, spans, events, and counter bumps must perform zero
//! heap allocations. This test gets its own binary (see Cargo.toml) so the
//! counting allocator sees no interference from other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_telemetry_adds_zero_allocations() {
    snr_telemetry::disable();
    assert!(!snr_telemetry::enabled());

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let _span = snr_telemetry::span!("phase", iter = i, bucket = i % 7);
        let _inner = snr_telemetry::span!("score");
        snr_telemetry::Counter::ScoredPairs.add(i);
        snr_telemetry::Counter::LinksInserted.add(1);
        snr_telemetry::event!("lsh_gate", verdict = "sketch", mass = i);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled telemetry must not allocate (got {} allocations)",
        after - before
    );
}
