//! Nothing outlives a deployment: after set-up, a crash, a reboot and the
//! drop of the simulation, the process holds exactly the heap it held
//! before. Kernel handlers make this easy to get wrong — their state
//! holds the machine's protocol stack, which reaches the network, the
//! kernel and (were they bound into the network's endpoint table instead
//! of being owned by the kernel) themselves.
//!
//! One test in this file, alone in its process: it counts every byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

use amoeba_dirsvc::dir::cluster::{Cluster, ClusterParams, Variant};
use amoeba_dirsvc::sim::Simulation;

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is passed to `System` unchanged; the counter is the
// only addition and does not touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn deployment_with_a_crash_and_a_reboot() {
    let mut sim = Simulation::new(7);
    let mut cluster = Cluster::start(&sim, ClusterParams::paper(Variant::Group));
    sim.run_for(Duration::from_secs(2));
    cluster.crash_server(&sim, 1);
    sim.run_for(Duration::from_secs(1));
    cluster.restart_server(&sim, 1);
    sim.run_for(Duration::from_secs(2));
}

#[test]
fn a_dropped_deployment_leaves_no_heap_behind() {
    // Once for whatever is allocated once per process (thread-locals,
    // the panic hook, the test harness's own buffers).
    deployment_with_a_crash_and_a_reboot();
    let before = LIVE.load(Ordering::Relaxed);
    for _ in 0..5 {
        deployment_with_a_crash_and_a_reboot();
    }
    assert_eq!(LIVE.load(Ordering::Relaxed), before);
}
