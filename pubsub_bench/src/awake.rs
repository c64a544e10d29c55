//! Quiets the machine for a measurement: the process is pinned to one CPU,
//! and that CPU is kept from going idle.
//!
//! On a virtual machine an idle vCPU is halted and handed back to the host;
//! getting it back costs anything from 35 µs to several milliseconds
//! depending on what the host is doing, and the work that follows runs
//! 30–45 % slower for a while (another core, cold caches). A runtime worker
//! that parks between messages pays that on every wake-up, so every
//! wall-clock and CPU figure of the paced workloads measured the host, in
//! two or three regimes that switch from minute to minute. One spinning
//! thread under `SCHED_IDLE` — it gets the CPU only when nothing else wants
//! it, and a worker that wakes preempts it at once — stops the CPU from ever
//! halting: the userspace equivalent of booting with `idle=poll`, which is
//! how latency is benchmarked on bare metal. Pinning keeps the worker beside
//! the spinner (a CPU running only `SCHED_IDLE` work looks idle to the
//! scheduler, which would otherwise move the worker about) and leaves the
//! other CPUs to the kernel's own threads and the neighbours.
//!
//! Every workload uses one worker thread, so one CPU is all it needs. Where
//! either call is refused the run goes on unquieted and says so.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    /// `sched_setscheduler(2)`.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    /// `sched_setaffinity(2)`.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const SCHED_IDLE: i32 = 5;
/// CPUs an affinity mask of this program can name.
const MASK_WORDS: usize = 16;

/// Thread id of the spinner (0: none), for CPU accounting to leave out.
static SPINNER_TID: AtomicU32 = AtomicU32::new(0);

pub fn spinner_tid() -> Option<u32> {
    Some(SPINNER_TID.load(Ordering::Relaxed)).filter(|&tid| tid != 0)
}

fn own_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// The highest-numbered CPU this process may run on (CPU 0 takes most of a
/// machine's interrupts).
fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Pins the calling thread, and every thread it spawns from now on.
fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of the size passed, which the call only
    // reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The quieted state; the spinner stops when this is dropped.
pub struct Quiet {
    pub pinned_cpu: Option<usize>,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl Quiet {
    /// Call from the main thread before any other thread exists.
    pub fn start() -> Quiet {
        let pinned_cpu = last_allowed_cpu().filter(|&cpu| pin_to(cpu));
        let stop = Arc::new(AtomicBool::new(false));
        let spinner = pinned_cpu.map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let param = SchedParam { sched_priority: 0 };
                // SAFETY: `param` is a live, correctly laid out `sched_param`
                // the call only reads; pid 0 names the calling thread.
                let idle_class = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                // At normal priority it would take half the CPU: don't spin.
                let Some(tid) = own_tid().filter(|_| idle_class) else {
                    return;
                };
                SPINNER_TID.store(tid, Ordering::Relaxed);
                // Relaxed: the flag publishes nothing but itself.
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        });
        Quiet {
            pinned_cpu,
            stop,
            spinner,
        }
    }
}

impl Drop for Quiet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            // The spinner cannot panic; a destructor has nobody to tell.
            let _ = spinner.join();
        }
    }
}
