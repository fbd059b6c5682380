//! Process memory: peak RSS for the `peak_rss_mb` metric, and a watchdog
//! that aborts the workload before it can push a shared host into OOM.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Exit code of a run the watchdog stopped.
pub const RSS_EXIT_CODE: i32 = 3;

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb / 1024.0)
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb / 1024.0)
}

/// Polls RSS every 20 ms and exits the process with [`RSS_EXIT_CODE`]
/// once it crosses the ceiling.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    /// Starts watching against `ceiling_mb`.
    pub fn start(ceiling_mb: f64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                if let Some(rss) = rss_mb() {
                    if rss > ceiling_mb {
                        eprintln!(
                            "perfbench: RSS {rss:.0} MiB crossed the {ceiling_mb:.0} MiB ceiling; aborting the workload"
                        );
                        std::process::exit(RSS_EXIT_CODE);
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        Watchdog { stop, thread }
    }

    /// Stops the watchdog and waits for its thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("RSS watchdog panicked");
    }
}
