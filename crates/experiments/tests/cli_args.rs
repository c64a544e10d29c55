//! A malformed seed is refused before anything runs: the binaries print the
//! bad value with their usage and exit 1, instead of silently running the
//! default seed.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bin args..` and returns its stderr, asserting that it exits
/// non-zero within a second.
fn refused_quickly(bin: &str, args: &[&str]) -> String {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(1);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("`{bin} {}` still running after a second", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let stderr = child.wait_with_output().expect("collect stderr").stderr;
    assert!(!status.success(), "`{bin} {}` succeeded", args.join(" "));
    String::from_utf8(stderr).expect("utf-8 stderr")
}

#[test]
fn chaos_refuses_a_seed_that_does_not_parse() {
    let stderr = refused_quickly(env!("CARGO_BIN_EXE_chaos"), &["all", "7x"]);
    assert!(
        stderr.lines().any(|l| l.contains("`7x`")),
        "stderr: {stderr}"
    );
}

#[test]
fn udp_session_refuses_a_seed_that_does_not_parse() {
    let stderr = refused_quickly(env!("CARGO_BIN_EXE_adamant_cli"), &["udp", "--seed", "x"]);
    assert!(
        stderr.lines().any(|l| l.contains("`x`")),
        "stderr: {stderr}"
    );
}
