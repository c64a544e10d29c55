//! A `run_for` window's fixed cost must not scale with the fleet: the mux
//! cluster lends each worker its shard in place, so a window on an idle
//! cluster allocates what spawning, polling and joining allocate —
//! whatever the endpoint count. (A hand-off that moves the entries into
//! per-window shards and back allocates ≈ 304 B per endpoint per window,
//! which is what this would catch.)
//!
//! One test, so nothing else in this process allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use adamant_proto::{Env, Input, NodeId, ProtocolCore};
use adamant_rt::{MuxCluster, MuxConfig};

/// Counts every byte requested from the system allocator, by any thread
/// (the workers' allocations belong to the window too).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Arms nothing and sends nothing: the cluster is idle once started.
#[derive(Debug)]
struct Idle;

impl ProtocolCore for Idle {
    fn step(&mut self, _input: Input<'_>, _env: &mut Env<'_>) {}
}

/// Bytes allocated by one zero-length window on a warmed, idle cluster of
/// `endpoints` self-routed endpoints over two workers.
fn window_bytes(endpoints: u32) -> u64 {
    let mut cluster = MuxCluster::bind("127.0.0.1:0", MuxConfig::new(2)).unwrap();
    for node in 0..endpoints {
        let id = cluster.add_endpoint(NodeId(node), Idle).unwrap();
        cluster.add_peer(id, id).unwrap();
    }
    cluster.run_for(Duration::ZERO).unwrap(); // starts every core
    let before = BYTES.load(Ordering::Relaxed);
    cluster.run_for(Duration::ZERO).unwrap();
    BYTES.load(Ordering::Relaxed) - before
}

#[test]
fn a_windows_allocation_does_not_depend_on_fleet_size() {
    let small = window_bytes(256);
    let large = window_bytes(16_384);
    assert!(
        small.abs_diff(large) <= 4096,
        "an idle window allocated {small} B at 256 endpoints, {large} B at 16 384"
    );
}
