//! What the benchmark reads from `/proc`: the process's CPU time and memory
//! high-water mark, and the machine facts a result depends on.

use adamant_json::Json;
use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/self/stat`. Fixed at 100
/// on every Linux ABI, whatever the kernel's internal tick.
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds in a `stat` line (of a process or a thread).
fn stat_cpu_seconds(path: &str) -> (f64, f64) {
    let stat = fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the ")".
    let after = stat.rsplit(')').next().unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let user = ticks();
    let system = ticks();
    (user / TICKS_PER_SEC, system / TICKS_PER_SEC)
}

/// User and system CPU seconds of the whole process (every thread, ended
/// ones included) so far, the keep-awake spinner left out.
pub fn cpu_seconds() -> (f64, f64) {
    let mut total = stat_cpu_seconds("/proc/self/stat");
    if let Some(tid) = crate::awake::spinner_tid() {
        let spinner = stat_cpu_seconds(&format!("/proc/self/task/{tid}/stat"));
        total = (total.0 - spinner.0, total.1 - spinner.1);
    }
    total
}

/// Nanoseconds every live thread of the process has spent on a CPU, the
/// keep-awake spinner left out, from the scheduler's own accounting
/// (`/proc/self/stat` only counts 10 ms ticks, too coarse for sub-second
/// windows).
pub fn task_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let spinner = crate::awake::spinner_tid().map(|tid| tid.to_string());
    tasks
        .flatten()
        .filter(|task| task.file_name().to_str() != spinner.as_deref())
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

fn status_mb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// repository (the driver's checkouts are not).
fn git_commit() -> String {
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(&format!(".git/{reference}")),
        None => head,
    }
}

/// The environment record printed with every result.
pub fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = |s: String| Json::Str(s);
    Json::Obj(vec![
        ("nproc".to_owned(), Json::Num(nproc as f64)),
        (
            "kernel".to_owned(),
            text(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        (
            "net.core.rmem_max".to_owned(),
            text(read_trimmed("/proc/sys/net/core/rmem_max")),
        ),
        (
            "net.core.wmem_max".to_owned(),
            text(read_trimmed("/proc/sys/net/core/wmem_max")),
        ),
        ("link".to_owned(), text("loopback, no real link".to_owned())),
        ("git_commit".to_owned(), text(git_commit())),
        (
            "build_profile".to_owned(),
            text(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_owned(),
            ),
        ),
    ])
}
