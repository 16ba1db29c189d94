//! Monte-Carlo batch progress reporting.
//!
//! A 10k-trial full-scale batch runs for minutes with no output; this
//! reporter writes a rate-limited single-line status to stderr (trials
//! done, trials/sec, ETA, losses so far). Workers call
//! [`Progress::trial_done`] once per *trial* — an atomic increment,
//! nowhere near the event loop — and at most one worker per interval
//! wins the right to print. Disabled (the default when stderr is not a
//! terminal), every call is one load-and-branch.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Minimum milliseconds between status lines.
const PRINT_INTERVAL_MS: u64 = 250;
/// Don't print anything for batches that finish quickly.
const WARMUP_MS: u64 = 1000;

pub struct Progress {
    enabled: bool,
    total: u64,
    done: AtomicU64,
    losses: AtomicU64,
    start: Instant,
    /// Milliseconds since `start` of the last status line (0 = none).
    last_print_ms: AtomicU64,
}

impl Progress {
    pub fn new(total: u64, enabled: bool) -> Self {
        Progress {
            enabled,
            total,
            done: AtomicU64::new(0),
            losses: AtomicU64::new(0),
            start: Instant::now(),
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// Record one finished trial; occasionally prints a status line.
    pub fn trial_done(&self, lost_data: bool) {
        if !self.enabled {
            return;
        }
        let elapsed_ms = self.start.elapsed().as_millis() as u64;
        if let Some(done) = self.trial_done_at(lost_data, elapsed_ms) {
            self.print_line(done, elapsed_ms);
        }
    }

    /// Accounting and the rate-limit gate, separated from the wall
    /// clock and stderr so the gating rules are unit-testable without
    /// real time passing. Returns `Some(done)` exactly when this call
    /// wins the right to print: never inside the warm-up window, at
    /// most one winner per [`PRINT_INTERVAL_MS`], losers of the
    /// compare-exchange skip the syscall entirely.
    fn trial_done_at(&self, lost_data: bool, elapsed_ms: u64) -> Option<u64> {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if lost_data {
            self.losses.fetch_add(1, Ordering::Relaxed);
        }
        if elapsed_ms < WARMUP_MS {
            return None;
        }
        let last = self.last_print_ms.load(Ordering::Relaxed);
        if elapsed_ms.saturating_sub(last) < PRINT_INTERVAL_MS {
            return None;
        }
        self.last_print_ms
            .compare_exchange(last, elapsed_ms, Ordering::Relaxed, Ordering::Relaxed)
            .ok()
            .map(|_| done)
    }

    fn print_line(&self, done: u64, elapsed_ms: u64) {
        let secs = (elapsed_ms as f64 / 1e3).max(1e-9);
        let rate = done as f64 / secs;
        let eta = if rate > 0.0 && done < self.total {
            (self.total - done) as f64 / rate
        } else {
            0.0
        };
        let losses = self.losses.load(Ordering::Relaxed);
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[farm] {done}/{} trials ({:.1}%)  {rate:.1} trials/s  ETA {}  losses {losses}   ",
            self.total,
            100.0 * done as f64 / self.total.max(1) as f64,
            fmt_eta(eta),
        );
        let _ = err.flush();
    }

    /// Clear the status line once the batch completes.
    pub fn finish(&self) {
        if !self.enabled || self.last_print_ms.load(Ordering::Relaxed) == 0 {
            return;
        }
        let done = self.done.load(Ordering::Relaxed);
        let elapsed_ms = (self.start.elapsed().as_millis() as u64).max(1);
        self.print_line(done, elapsed_ms);
        eprintln!();
    }

    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    pub fn losses(&self) -> u64 {
        self.losses.load(Ordering::Relaxed)
    }
}

/// Compact ETA: `42s`, `3m10s`, `2h05m`; `?` when unknown (non-finite).
/// Shared by the progress line and the fleet dashboard.
pub(crate) fn fmt_eta(secs: f64) -> String {
    if !secs.is_finite() {
        return "?".to_string();
    }
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_progress_is_silent_and_counts_nothing_visible() {
        let p = Progress::new(100, false);
        for i in 0..100 {
            p.trial_done(i % 10 == 0);
        }
        // Disabled short-circuits before any accounting.
        assert_eq!(p.done(), 0);
        p.finish(); // must not print or panic
    }

    #[test]
    fn enabled_progress_counts_trials_and_losses() {
        let p = Progress::new(50, true);
        for i in 0..50 {
            p.trial_done(i < 3);
        }
        assert_eq!(p.done(), 50);
        assert_eq!(p.losses(), 3);
        // Within the warm-up window nothing was printed.
        assert_eq!(p.last_print_ms.load(Ordering::Relaxed), 0);
        p.finish();
    }

    #[test]
    fn warmup_window_suppresses_printing() {
        let p = Progress::new(1000, true);
        for ms in [0, 100, 500, WARMUP_MS - 1] {
            assert_eq!(p.trial_done_at(false, ms), None, "at {ms}ms");
        }
        // Trials are still accounted while suppressed.
        assert_eq!(p.done(), 4);
        // First call past the warm-up wins.
        assert_eq!(p.trial_done_at(false, WARMUP_MS), Some(5));
    }

    #[test]
    fn at_most_one_print_per_interval() {
        let p = Progress::new(1000, true);
        assert_eq!(p.trial_done_at(false, 2000), Some(1));
        // Everything inside the interval after a win is rate-limited.
        for ms in 2000..2000 + PRINT_INTERVAL_MS {
            assert_eq!(p.trial_done_at(false, ms), None, "at {ms}ms");
        }
        // The first call at the interval boundary wins again.
        let at = 2000 + PRINT_INTERVAL_MS;
        let done = p.trial_done_at(false, at);
        assert_eq!(done, Some(p.done()));
        assert_eq!(p.trial_done_at(false, at), None);
    }

    #[test]
    fn concurrent_callers_elect_exactly_one_winner_per_interval() {
        let p = Progress::new(10_000, true);
        let winners: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let p = &p;
                    s.spawn(move || {
                        let mut won = 0u64;
                        for _ in 0..100 {
                            // Every call sees the same elapsed time, as
                            // racing workers would.
                            if p.trial_done_at(false, 5000).is_some() {
                                won += 1;
                            }
                        }
                        won
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 1);
        assert_eq!(p.done(), 800);
    }

    #[test]
    fn losses_are_counted_even_when_rate_limited() {
        let p = Progress::new(100, true);
        for _ in 0..10 {
            p.trial_done_at(true, 0);
        }
        assert_eq!(p.losses(), 10);
    }

    #[test]
    fn eta_formatting() {
        assert_eq!(fmt_eta(5.4), "5s");
        assert_eq!(fmt_eta(65.0), "1m05s");
        assert_eq!(fmt_eta(3725.0), "1h02m");
        assert_eq!(fmt_eta(f64::NAN), "?");
        assert_eq!(fmt_eta(f64::INFINITY), "?");
    }
}
