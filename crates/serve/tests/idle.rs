//! An idle service sleeps until work arrives: its thread does not wake
//! on a timer to look for shutdown. Linux-only, since it reads the
//! thread's context-switch count under `/proc/self/task`. It is its own
//! test binary, so the only `versa-serve` thread in the process is this
//! test's.

#![cfg(target_os = "linux")]

use std::time::Duration;
use versa_runtime::{Runtime, RuntimeConfig};
use versa_serve::{ServeConfig, Service};
use versa_sim::PlatformConfig;

/// Voluntary context switches of the thread named `versa-serve`.
fn serve_thread_switches() -> u64 {
    let dir = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|entry| entry.expect("task entry").path())
        .find(|d| std::fs::read_to_string(d.join("comm")).is_ok_and(|c| c == "versa-serve\n"))
        .expect("a versa-serve thread");
    let status = std::fs::read_to_string(dir.join("status")).expect("task status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("status lists voluntary_ctxt_switches")
}

#[test]
fn an_idle_service_does_not_wake() {
    let rt = Runtime::simulated(RuntimeConfig::default(), PlatformConfig::minotauro(2, 0));
    let service = Service::start(rt, ServeConfig::default());
    // Give the thread time to start and find its queue empty.
    std::thread::sleep(Duration::from_millis(50));
    let before = serve_thread_switches();
    std::thread::sleep(Duration::from_millis(200));
    let woke = serve_thread_switches() - before;
    assert!(woke <= 5, "the idle service thread woke {woke} times in 200 ms");
    service.shutdown();
}
