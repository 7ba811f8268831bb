//! Looking up a name the registry already holds must not allocate: call
//! sites that resolve a handle per batch or per connection pay the lock and
//! the map walk, never a key `String`.

use rtr_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// The system allocator, counting the allocations of each thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn finding_a_registered_name_allocates_nothing() {
    let r = Registry::new();
    let touch = || {
        r.counter("demo.counter").add(1);
        r.gauge("demo.gauge").set(2);
        r.histogram("demo.histogram").observe(Duration::from_micros(3));
    };
    let first = allocations_during(touch);
    assert!(first >= 3, "registering three names stores three keys, saw {first} allocations");
    assert_eq!(allocations_during(touch), 0);
    assert_eq!(r.counter_value("demo.counter"), 2);
    assert_eq!(r.gauge_value("demo.gauge"), (2, 2));
}
