//! Periodic campaign status snapshots (`FARM_STATUS=path[@secs]`,
//! `--status [SPEC]`).
//!
//! A multi-hour Monte-Carlo campaign gets a small JSON file, rewritten
//! every few seconds via write-temp-then-atomic-rename, so any reader —
//! `watch cat`, a dashboard, the CI smoke — always sees one complete,
//! parse-able document and never a torn write. Schema
//! (`farm-status-v1`, validated by `scripts/check_telemetry.py status`):
//!
//! ```json
//! {
//!   "schema": "farm-status-v1",
//!   "pid": 4242, "seq": 17, "elapsed_secs": 12.8,
//!   "http_addr": "127.0.0.1:9919",        // null without FARM_HTTP
//!   "peak_rss_bytes": 73400320,           // null where unavailable
//!   "trials_done": 130, "trials_total": 400, "losses": 3,
//!   "events": 48211375, "events_per_sec": 3766513.7,
//!   "batches": [
//!     { "batch": 0, "config": "mirror2 256GiB", "done": false,
//!       "trials_done": 130, "trials_total": 400, "losses": 3,
//!       "events": 48211375, "trials_per_sec": 10.2, "eta_secs": 26.5,
//!       "p_loss": 0.023076923076923078,
//!       "wilson95_lo": 0.0079, "wilson95_hi": 0.0655,
//!       "ci_half_width": 0.0288, "rel_half_width": 1.2486,
//!       "anchor_p_loss": 0.0197, "anchor_drift": 0.1689,
//!       "trial_secs_p50": 0.09, "trial_secs_p99": 0.12 }
//!   ]
//! }
//! ```
//!
//! The per-batch `p_loss` is the *online* estimate from the shard
//! counters; once a batch is finished it equals the batch summary's
//! `p_loss.value()` exactly (same integer division), and the Wilson
//! 95 % interval ([`farm_des::stats::Proportion::wilson95`]) shows how
//! converged the campaign is mid-run.

use crate::registry::MonitorCore;
use crate::rss;
use std::fmt::Write as _;
use std::io;

/// Default output path for a bare `--status` / `FARM_STATUS=1`.
pub const DEFAULT_STATUS_PATH: &str = "farm-status.json";

/// Default snapshot interval, seconds.
pub const DEFAULT_STATUS_INTERVAL_SECS: f64 = 1.0;

/// Where the status snapshot goes and how often it is rewritten.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatusSpec {
    pub path: String,
    /// Snapshot interval in wall seconds; `None` = 1 s.
    pub interval_secs: Option<f64>,
}

impl StatusSpec {
    /// Parse a `FARM_STATUS` / `--status` spec:
    ///
    /// * `""` or `"1"` — `farm-status.json`, rewritten every second,
    /// * `"run.json"` — a specific path,
    /// * `"run.json@5"` — rewritten every 5 s,
    /// * `"@0.2"` — default path, 5 snapshots per second.
    pub fn parse(s: &str) -> Result<StatusSpec, String> {
        let (path, interval) = crate::sink::split_spec(s);
        let interval_secs = match interval {
            Some(i) => {
                let secs = i
                    .parse::<f64>()
                    .map_err(|e| format!("interval {i:?}: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("interval must be positive, got {i:?}"));
                }
                Some(secs)
            }
            None => None,
        };
        Ok(StatusSpec {
            path: path.unwrap_or(DEFAULT_STATUS_PATH).to_string(),
            interval_secs,
        })
    }

    /// The effective snapshot interval.
    pub fn resolve_interval(&self) -> f64 {
        self.interval_secs.unwrap_or(DEFAULT_STATUS_INTERVAL_SECS)
    }
}

/// A finite f64 as JSON, `null` otherwise (rates can be 0/0 early on).
/// Shared with the convergence stream, which has the same contract.
pub(crate) fn jnum(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

pub(crate) fn jstr(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render the status document for the current instant.
pub(crate) fn render_status(core: &MonitorCore, seq: u64) -> String {
    let elapsed = core.elapsed_secs();
    let batches = core.batches();
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"schema\":\"farm-status-v1\",\"pid\":{},\"seq\":{seq},\"elapsed_secs\":{:.3},",
        std::process::id(),
        elapsed
    );
    out.push_str("\"http_addr\":");
    match core.http_addr.get() {
        Some(addr) => jstr(&mut out, &addr.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"peak_rss_bytes\":");
    match rss::peak_rss_bytes() {
        Some(b) => {
            let _ = write!(out, "{b}");
        }
        None => out.push_str("null"),
    }

    let (mut done, mut total, mut losses, mut events) = (0u64, 0u64, 0u64, 0u64);
    let mut rendered = Vec::with_capacity(batches.len());
    for b in &batches {
        let t = b.totals();
        done += t.trials;
        total += b.total;
        losses += t.losses;
        events += t.events;

        let finished = b.finished_secs();
        let span = finished.unwrap_or(elapsed) - b.started_secs;
        let rate = if span > 0.0 {
            t.trials as f64 / span
        } else {
            f64::NAN
        };
        let eta = match finished {
            Some(_) => 0.0,
            None if rate.is_finite() && rate > 0.0 => {
                b.total.saturating_sub(t.trials) as f64 / rate
            }
            None => f64::NAN,
        };
        let p = t.p_loss();
        let (lo, hi) = p.wilson95();

        let mut e = String::with_capacity(256);
        let _ = write!(e, "{{\"batch\":{},\"config\":", b.index);
        jstr(&mut e, &b.label);
        let _ = write!(
            e,
            ",\"done\":{},\"trials_done\":{},\"trials_total\":{},\"losses\":{},\"events\":{}",
            finished.is_some(),
            t.trials,
            b.total,
            t.losses,
            t.events
        );
        e.push_str(",\"trials_per_sec\":");
        jnum(&mut e, (rate * 1e3).round() / 1e3);
        e.push_str(",\"eta_secs\":");
        jnum(&mut e, (eta * 1e1).round() / 1e1);
        // Exact, not rounded: the final snapshot must equal the batch
        // summary's estimate bit for bit.
        e.push_str(",\"p_loss\":");
        jnum(&mut e, p.value());
        e.push_str(",\"wilson95_lo\":");
        jnum(&mut e, lo);
        e.push_str(",\"wilson95_hi\":");
        jnum(&mut e, hi);
        // Convergence diagnostics (PR 7): the interval's absolute and
        // relative half-width — what `--target-rel-ci` watches — plus
        // the analytic Markov anchor and the estimate's signed relative
        // drift from it when the config admits an exact chain.
        e.push_str(",\"ci_half_width\":");
        jnum(&mut e, p.wilson95_half_width());
        e.push_str(",\"rel_half_width\":");
        match p.rel_half_width() {
            Some(rel) => jnum(&mut e, rel),
            None => e.push_str("null"),
        }
        e.push_str(",\"anchor_p_loss\":");
        match b.anchor_p_loss {
            Some(a) => jnum(&mut e, a),
            None => e.push_str("null"),
        }
        e.push_str(",\"anchor_drift\":");
        match b.anchor_p_loss {
            Some(a) if a > 0.0 => jnum(&mut e, (p.value() - a) / a),
            _ => e.push_str("null"),
        }
        e.push_str(",\"trial_secs_p50\":");
        jnum(&mut e, t.trial_secs.p50());
        e.push_str(",\"trial_secs_p99\":");
        jnum(&mut e, t.trial_secs.p99());
        // Recovery-span phase percentiles (simulated seconds), published
        // by the driver when the batch summary is final; absent mid-run.
        if let Some(ph) = b.span_phases() {
            e.push_str(",\"span_phases\":{");
            let mut first = true;
            for (name, h) in ph.named() {
                if h.is_empty() {
                    continue;
                }
                if !first {
                    e.push(',');
                }
                first = false;
                let _ = write!(e, "\"{name}\":{{\"count\":{},\"mean\":", h.count());
                jnum(&mut e, h.mean());
                e.push_str(",\"p50\":");
                jnum(&mut e, h.p50());
                e.push_str(",\"p99\":");
                jnum(&mut e, h.p99());
                e.push('}');
            }
            e.push('}');
        }
        e.push('}');
        rendered.push(e);
    }

    let _ = write!(
        out,
        ",\"trials_done\":{done},\"trials_total\":{total},\"losses\":{losses},\"events\":{events}"
    );
    out.push_str(",\"events_per_sec\":");
    jnum(
        &mut out,
        if elapsed > 0.0 {
            ((events as f64 / elapsed) * 1e1).round() / 1e1
        } else {
            f64::NAN
        },
    );
    out.push_str(",\"batches\":[");
    out.push_str(&rendered.join(","));
    out.push_str("]}\n");
    out
}

/// Write one snapshot: temp file in the same directory, then an atomic
/// rename over the real path, so readers never observe a partial JSON.
pub(crate) fn write_snapshot(core: &MonitorCore, spec: &StatusSpec, seq: u64) -> io::Result<()> {
    let body = render_status(core, seq);
    let tmp = format!("{}.tmp.{}", spec.path, std::process::id());
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, &spec.path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_forms() {
        let s = StatusSpec::parse("").unwrap();
        assert_eq!(s.path, DEFAULT_STATUS_PATH);
        assert_eq!(s.interval_secs, None);
        assert_eq!(s.resolve_interval(), DEFAULT_STATUS_INTERVAL_SECS);

        let s = StatusSpec::parse("1").unwrap();
        assert_eq!(s.path, DEFAULT_STATUS_PATH);

        let s = StatusSpec::parse("run.json@5").unwrap();
        assert_eq!(s.path, "run.json");
        assert_eq!(s.interval_secs, Some(5.0));

        let s = StatusSpec::parse("@0.2").unwrap();
        assert_eq!(s.path, DEFAULT_STATUS_PATH);
        assert_eq!(s.resolve_interval(), 0.2);

        assert!(StatusSpec::parse("x@nope").is_err());
        assert!(StatusSpec::parse("x@0").is_err());
        assert!(StatusSpec::parse("x@-1").is_err());
    }

    #[test]
    fn json_string_escaping() {
        let mut out = String::new();
        jstr(&mut out, "a\"b\\c\nd");
        assert_eq!(out, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn nonfinite_numbers_render_null() {
        let mut out = String::new();
        jnum(&mut out, f64::NAN);
        out.push(',');
        jnum(&mut out, f64::INFINITY);
        out.push(',');
        jnum(&mut out, 2.5);
        assert_eq!(out, "null,null,2.5");
    }
}
