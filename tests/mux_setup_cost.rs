//! What setting up a cluster allocates is pinned: the 1 024-endpoint
//! workloads' `setup_s` follows the allocator state that set-up leaves
//! behind (DESIGN.md §5.3 (b)), so a change to set-up allocation fails here
//! before it moves the benchmark. Binding a one-worker cluster and adding
//! 1 024 self-routed endpoints may allocate no more bytes, in no more calls,
//! than the counts pinned below.
//!
//! One test, so nothing else in this process allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adamant_proto::{Env, Input, NodeId, ProtocolCore};
use adamant_rt::{MuxCluster, MuxConfig};

/// Counts every byte requested from the system allocator and every call
/// that requested some.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are relaxed atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Never stepped: set-up only.
#[derive(Debug)]
struct Idle;

impl ProtocolCore for Idle {
    fn step(&mut self, _input: Input<'_>, _env: &mut Env<'_>) {}
}

#[test]
fn setting_up_1024_endpoints_allocates_no_more_than_it_did() {
    let (bytes, calls) = (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed));
    let mut cluster = MuxCluster::bind("127.0.0.1:0", MuxConfig::new(1)).unwrap();
    for node in 0..1024 {
        let id = cluster.add_endpoint(NodeId(node), Idle).unwrap();
        cluster.add_peer(id, id).unwrap();
    }
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    drop(cluster);
    // Measured on Linux x86-64 (std's own allocations in `bind` included).
    assert!(
        bytes <= 806_072 && calls <= 1_042,
        "set-up allocated {bytes} B in {calls} calls"
    );
}
