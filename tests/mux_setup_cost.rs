//! What setting up a cluster allocates is pinned. Binding a one-worker
//! cluster and adding 1 024 self-routed endpoints may allocate no more
//! bytes, in no more calls, than the counts pinned below, and no single
//! allocation may reach glibc's 128 KiB mmap threshold: a mapped block that
//! one set-up frees raises that threshold for every later one, which is how
//! the 1 024-endpoint workloads' `setup_s` came to follow the allocator's
//! history instead of the code (DESIGN.md §5.3 (b)). Entries live in fixed
//! segments and routes are a peer list per entry, so neither grows a block
//! that large.
//!
//! One test, so nothing else in this process allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use adamant_proto::{Env, Input, NodeId, ProtocolCore};
use adamant_rt::{MuxCluster, MuxConfig};

/// Counts every byte requested from the system allocator and every call
/// that requested some, and keeps the largest single request.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counters are relaxed atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(new_size as u64, Ordering::Relaxed);
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
    LARGEST.store(0, Ordering::Relaxed);
    let mut cluster = MuxCluster::bind("127.0.0.1:0", MuxConfig::new(1)).unwrap();
    for node in 0..1024 {
        let id = cluster.add_endpoint(NodeId(node), Idle).unwrap();
        cluster.add_peer(id, id).unwrap();
    }
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let calls = CALLS.load(Ordering::Relaxed) - calls;
    let largest = LARGEST.load(Ordering::Relaxed);
    drop(cluster);
    // Measured on Linux x86-64 (std's own allocations in `bind` included).
    assert!(
        bytes <= 295_912 && calls <= 37 && largest < 128 << 10,
        "set-up allocated {bytes} B in {calls} calls, the largest {largest} B"
    );
}
