//! Fleet-scale campaign observability: the coordinator-side merge of
//! many worker processes' telemetry into one `fleet-status-v1` snapshot,
//! an aggregated Prometheus `/metrics` + JSON `/status` exporter with
//! per-worker labels and fleet rollups, and a rate-limited live stderr
//! dashboard.
//!
//! This module is deliberately generic: it knows about *workers* (a
//! pid, a trial range, live counters read from their `farm-status-v1`
//! status files) but nothing about how trials are run or how summaries
//! fold — that orchestration lives in `farm-experiments::fleet`. It
//! mirrors the single-process monitor one layer up and shares its
//! plumbing: `http::serve` runs the listener and
//! [`crate::sink::write_atomic`] publishes the snapshot.
//!
//! * [`Json`] — a dependency-free JSON reader for worker status
//!   documents (the repo has no serde_json; this is the read-side
//!   counterpart of the hand-rendered writers in `status.rs`).
//! * [`FleetMonitor`] — merged live state; renders `fleet-status-v1`,
//!   serves `/metrics` and `/status`, and prints the dashboard line.
//!
//! Schema (`fleet-status-v1`, validated by
//! `scripts/check_telemetry.py fleet`):
//!
//! ```json
//! {
//!   "schema": "fleet-status-v1",
//!   "pid": 4242, "seq": 9, "elapsed_secs": 12.8,
//!   "http_addr": "127.0.0.1:9920",          // null without --http
//!   "trials_total": 400, "trials_done": 130, "losses": 3,
//!   "events": 48211375,
//!   "workers_total": 4, "workers_up": 3,
//!   "trials_per_sec": 10.2, "eta_secs": 26.5,
//!   "pooled": { "p_loss": 0.023, "wilson95_lo": 0.0079,
//!               "wilson95_hi": 0.0655 },
//!   "workers": [
//!     { "worker": 0, "pid": 4311, "range_lo": 0, "range_hi": 100,
//!       "alive": true, "done": false, "attempts": 1,
//!       "trials_done": 42, "losses": 1, "events": 1521234,
//!       "trials_per_sec": 3.4 }
//!   ]
//! }
//! ```

use crate::http::{self, Page};
use crate::progress::fmt_eta;
use crate::status::{jnum, jstr};
use crate::{diag, sink};
use farm_des::stats::Proportion;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// A minimal JSON reader.
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`Json::parse`] accepts. The documents
/// this reads nest a few levels; the cap keeps a corrupt status file
/// from overflowing the reader's stack.
const JSON_MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers are kept as f64 (every counter this
/// repo emits fits in the 2^53 exact-integer range).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed). Nesting
    /// deeper than 128 arrays/objects is an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == JSON_MAX_DEPTH => Err(format!(
            "nesting deeper than {JSON_MAX_DEPTH} at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                // Exactly four hex digits: `from_str_radix`
                                // alone would also take a leading sign.
                                if !hex.iter().all(u8::is_ascii_hexdigit) {
                                    return Err(format!("bad \\u escape at byte {pos}"));
                                }
                                let hex = std::str::from_utf8(hex).expect("ascii hex digits");
                                let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                                // Surrogate pairs never appear in the
                                // documents this reads (all writers
                                // escape only control chars); map
                                // lone surrogates to the replacement
                                // character rather than failing.
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Collect the longest run of plain bytes at once.
                        let start = *pos;
                        let mut end = *pos;
                        let mut cur = c;
                        loop {
                            if cur == b'"' || cur == b'\\' {
                                break;
                            }
                            end += 1;
                            match b.get(end) {
                                Some(&n) => cur = n,
                                None => break,
                            }
                        }
                        s.push_str(
                            std::str::from_utf8(&b[start..end])
                                .map_err(|e| format!("invalid utf-8 in string: {e}"))?,
                        );
                        *pos = end;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number bytes");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
        }
    }
}

// ---------------------------------------------------------------------
// Merged fleet state.
// ---------------------------------------------------------------------

/// The coordinator's live view of one worker process.
#[derive(Clone, Debug, Default)]
pub struct WorkerView {
    /// Stable worker index (label on `/metrics` series).
    pub worker: usize,
    /// Child pid; `None` before the first spawn.
    pub pid: Option<u32>,
    /// Trial range `[lo, hi)` this worker owns.
    pub range_lo: u64,
    pub range_hi: u64,
    /// Spawn attempts so far (1 on the first launch; grows on respawn).
    pub attempts: u32,
    /// Is the child process currently running?
    pub alive: bool,
    /// Has the worker's result checkpoint been validated?
    pub done: bool,
    /// Live counters from the worker's status file at the last poll.
    /// For a finished worker these are the range's exact totals.
    pub trials_done: u64,
    pub losses: u64,
    pub events: u64,
    pub trials_per_sec: Option<f64>,
}

/// Merged live state of a fleet run: what the snapshot file, the
/// aggregated exporter and the dashboard all render from.
pub struct FleetMonitor {
    start: Instant,
    trials_total: u64,
    workers: Mutex<Vec<WorkerView>>,
    seq: AtomicU64,
    /// Millisecond timestamp (vs `start`) of the last dashboard line.
    last_dash_ms: AtomicU64,
    dashboard: bool,
    http_addr: OnceLock<SocketAddr>,
}

/// Dashboard line rate limit.
const DASH_INTERVAL_MS: u64 = 500;

impl FleetMonitor {
    /// Build the merged state. With `http` set, also serve the
    /// aggregated `/metrics` + `/status` there (port 0 picks a free
    /// port; the bound address lands in the snapshot's `http_addr`). A
    /// bind failure warns once and the fleet runs without the exporter.
    pub fn new(
        trials_total: u64,
        workers: Vec<WorkerView>,
        dashboard: bool,
        http: Option<&str>,
    ) -> Arc<FleetMonitor> {
        let mon = Arc::new(FleetMonitor {
            start: Instant::now(),
            trials_total,
            workers: Mutex::new(workers),
            seq: AtomicU64::new(0),
            last_dash_ms: AtomicU64::new(0),
            dashboard,
            http_addr: OnceLock::new(),
        });
        if let Some(addr) = http {
            let reader = Arc::clone(&mon);
            let route = move |page| match page {
                Page::Metrics => reader.render_metrics(),
                Page::Status => reader.render_status(),
            };
            if let Some(bound) = http::serve(addr, route) {
                let _ = mon.http_addr.set(bound);
            }
        }
        mon
    }

    /// Where the aggregated exporter bound, if it is up.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr.get().copied()
    }

    /// Replace the fleet's worker views (one coordinator poll round).
    pub fn update_workers(&self, views: Vec<WorkerView>) {
        *self.workers.lock().expect("fleet workers lock") = views;
    }

    fn rollup(&self) -> (Vec<WorkerView>, u64, u64, u64, usize) {
        let workers = self.workers.lock().expect("fleet workers lock").clone();
        let done: u64 = workers.iter().map(|w| w.trials_done).sum();
        let losses: u64 = workers.iter().map(|w| w.losses).sum();
        let events: u64 = workers.iter().map(|w| w.events).sum();
        let up = workers.iter().filter(|w| w.alive).count();
        (workers, done, losses, events, up)
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Render the `fleet-status-v1` document for the current instant.
    pub fn render_status(&self) -> String {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let elapsed = self.elapsed_secs();
        let (workers, done, losses, events, up) = self.rollup();
        // The pooled online estimate: losses are clamped per-worker by
        // construction (losses <= trials_done), so the sum is a valid
        // proportion.
        let pooled = Proportion::new(losses.min(done), done);
        let (lo, hi) = pooled.wilson95();
        let rate = if elapsed > 0.0 && done > 0 {
            done as f64 / elapsed
        } else {
            f64::NAN
        };
        let eta = if rate.is_finite() && rate > 0.0 {
            self.trials_total.saturating_sub(done) as f64 / rate
        } else {
            f64::NAN
        };

        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\":\"fleet-status-v1\",\"pid\":{},\"seq\":{seq},\"elapsed_secs\":{:.3},",
            std::process::id(),
            elapsed
        );
        out.push_str("\"http_addr\":");
        match self.http_addr.get() {
            Some(addr) => jstr(&mut out, &addr.to_string()),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"trials_total\":{},\"trials_done\":{done},\"losses\":{losses},\"events\":{events}",
            self.trials_total
        );
        let _ = write!(
            out,
            ",\"workers_total\":{},\"workers_up\":{up}",
            workers.len()
        );
        out.push_str(",\"trials_per_sec\":");
        jnum(&mut out, (rate * 1e3).round() / 1e3);
        out.push_str(",\"eta_secs\":");
        jnum(&mut out, (eta * 1e1).round() / 1e1);
        // Exact, not rounded: the final snapshot's pooled estimate must
        // equal the merged summary's p_loss bit for bit.
        out.push_str(",\"pooled\":{\"p_loss\":");
        jnum(&mut out, pooled.value());
        out.push_str(",\"wilson95_lo\":");
        jnum(&mut out, lo);
        out.push_str(",\"wilson95_hi\":");
        jnum(&mut out, hi);
        out.push_str("},\"workers\":[");
        for (i, w) in workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"worker\":{},\"pid\":", w.worker);
            match w.pid {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"range_lo\":{},\"range_hi\":{},\"alive\":{},\"done\":{},\"attempts\":{}",
                w.range_lo, w.range_hi, w.alive, w.done, w.attempts
            );
            let _ = write!(
                out,
                ",\"trials_done\":{},\"losses\":{},\"events\":{}",
                w.trials_done, w.losses, w.events
            );
            out.push_str(",\"trials_per_sec\":");
            match w.trials_per_sec {
                Some(r) => jnum(&mut out, r),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Render the aggregated `/metrics` exposition: fleet rollups plus
    /// per-worker series labelled `worker="N"`.
    pub fn render_metrics(&self) -> String {
        let elapsed = self.elapsed_secs();
        let (workers, done, losses, events, up) = self.rollup();
        let pooled = Proportion::new(losses.min(done), done);
        let (plo, phi) = pooled.wilson95();
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "# HELP farm_fleet_elapsed_seconds Wall seconds since the fleet coordinator started.\n\
             # TYPE farm_fleet_elapsed_seconds gauge\n\
             farm_fleet_elapsed_seconds {elapsed:.3}"
        );
        let _ = writeln!(
            out,
            "# HELP farm_fleet_workers Worker processes in the fleet plan.\n\
             # TYPE farm_fleet_workers gauge\n\
             farm_fleet_workers {}",
            workers.len()
        );
        let _ = writeln!(
            out,
            "# HELP farm_fleet_workers_up Worker processes currently running.\n\
             # TYPE farm_fleet_workers_up gauge\n\
             farm_fleet_workers_up {up}"
        );
        let _ = writeln!(
            out,
            "# HELP farm_fleet_trials_expected Trials in the whole campaign.\n\
             # TYPE farm_fleet_trials_expected gauge\n\
             farm_fleet_trials_expected {}",
            self.trials_total
        );
        for (name, help, v) in [
            (
                "farm_fleet_trials_total",
                "Trials completed across the fleet.",
                done,
            ),
            (
                "farm_fleet_losses_total",
                "Trials that lost data, across the fleet.",
                losses,
            ),
            (
                "farm_fleet_events_total",
                "Discrete events processed across the fleet.",
                events,
            ),
        ] {
            let _ = writeln!(
                out,
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}"
            );
        }
        for (name, help, v) in [
            (
                "farm_fleet_p_loss",
                "Pooled online data-loss probability estimate.",
                pooled.value(),
            ),
            (
                "farm_fleet_p_loss_wilson95_lo",
                "Pooled Wilson score 95% interval, lower bound.",
                plo,
            ),
            (
                "farm_fleet_p_loss_wilson95_hi",
                "Pooled Wilson score 95% interval, upper bound.",
                phi,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}");
        }

        let labels: Vec<String> = workers
            .iter()
            .map(|w| format!("worker=\"{}\"", w.worker))
            .collect();
        let mut per_worker_counter = |name: &str, help: &str, values: &dyn Fn(usize) -> u64| {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter");
            for (i, l) in labels.iter().enumerate() {
                let _ = writeln!(out, "{name}{{{l}}} {}", values(i));
            }
        };
        per_worker_counter(
            "farm_fleet_worker_trials_total",
            "Trials completed per worker.",
            &|i| workers[i].trials_done,
        );
        per_worker_counter(
            "farm_fleet_worker_losses_total",
            "Trials that lost data, per worker.",
            &|i| workers[i].losses,
        );
        per_worker_counter(
            "farm_fleet_worker_events_total",
            "Discrete events processed per worker.",
            &|i| workers[i].events,
        );
        let _ = writeln!(
            out,
            "# HELP farm_fleet_worker_up 1 while the worker process is running.\n\
             # TYPE farm_fleet_worker_up gauge"
        );
        for (w, l) in workers.iter().zip(&labels) {
            let _ = writeln!(out, "farm_fleet_worker_up{{{l}}} {}", w.alive as u32);
        }
        let _ = writeln!(
            out,
            "# HELP farm_fleet_worker_done 1 once the worker's range checkpoint is complete.\n\
             # TYPE farm_fleet_worker_done gauge"
        );
        for (w, l) in workers.iter().zip(&labels) {
            let _ = writeln!(out, "farm_fleet_worker_done{{{l}}} {}", w.done as u32);
        }
        let _ = writeln!(
            out,
            "# HELP farm_fleet_worker_attempts Spawn attempts per worker (grows on respawn).\n\
             # TYPE farm_fleet_worker_attempts gauge"
        );
        for (w, l) in workers.iter().zip(&labels) {
            let _ = writeln!(out, "farm_fleet_worker_attempts{{{l}}} {}", w.attempts);
        }
        out
    }

    /// Publish one `fleet-status-v1` snapshot at `path`. A failed write
    /// warns once and the fleet carries on: a broken observer must not
    /// stop the campaign.
    pub fn write_snapshot(&self, path: &Path) {
        if let Err(e) = sink::write_atomic(path, self.render_status()) {
            diag::warn_once(
                "fleet-status-write",
                &format!("cannot write fleet snapshot {}: {e}", path.display()),
            );
        }
    }

    /// Print the live dashboard line if at least [`DASH_INTERVAL_MS`]
    /// has passed since the last one (first caller after the window
    /// wins, like the progress line's election).
    pub fn dashboard_tick(&self) {
        if !self.dashboard {
            return;
        }
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_dash_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < DASH_INTERVAL_MS {
            return;
        }
        if self
            .last_dash_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.print_dashboard_line(false);
    }

    /// Print the final dashboard line (with a trailing newline).
    pub fn dashboard_finish(&self) {
        if self.dashboard {
            self.print_dashboard_line(true);
        }
    }

    fn print_dashboard_line(&self, done_line: bool) {
        let elapsed = self.elapsed_secs();
        let (workers, done, losses, _events, up) = self.rollup();
        let pooled = Proportion::new(losses.min(done), done);
        let (lo, hi) = pooled.wilson95();
        let pct = if self.trials_total > 0 {
            100.0 * done as f64 / self.trials_total as f64
        } else {
            100.0
        };
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        // Zero rate gives a non-finite ETA, which prints as `?`.
        let eta = fmt_eta(self.trials_total.saturating_sub(done) as f64 / rate);
        let mut line = format!(
            "\r[fleet] workers {up}/{} | trials {done}/{} ({pct:.1}%) | {rate:.1} trials/s | ETA {eta} | p_loss {:.4} [{lo:.4}, {hi:.4}]",
            workers.len(),
            self.trials_total,
            pooled.value()
        );
        if done_line {
            line.push('\n');
        }
        let mut err = io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::scrape;

    #[test]
    fn json_parses_scalars_arrays_and_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndA""#).unwrap(),
            Json::Str("a\"b\\c\ndA".into())
        );
        let doc = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":false},"e":[]}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("c").unwrap().get("d"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("e").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn json_u64_accessor_rejects_non_integers() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("42.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("\"42\"").unwrap().as_u64(), None);
    }

    #[test]
    fn json_rejects_malformed() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse(r#""\u+041""#).is_err());
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        // Nesting is capped rather than recursing until the stack
        // overflows; documents up to the cap still parse.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(JSON_MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(JSON_MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&format!("{}1{}", "{\"a\":".repeat(200), "}".repeat(200))).is_err());
    }

    #[test]
    fn json_round_trips_a_real_status_document() {
        // A real farm-status-v1 document (as rendered by status.rs)
        // must parse and yield the fields the coordinator reads.
        let mon = crate::registry::CampaignMonitor::new(None, None);
        let b = mon.begin_batch("fleet test cfg".into(), 16);
        b.shard().record_trial(true, 1000, 0.01);
        b.shard().record_trial(false, 1000, 0.01);
        let doc = Json::parse(&mon.render_status()).expect("status parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("farm-status-v1"));
        assert_eq!(doc.get("trials_done").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("losses").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("http_addr"), Some(&Json::Null));
        let batches = doc.get("batches").unwrap().as_array().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].get("trials_total").unwrap().as_u64(), Some(16));
    }

    fn two_worker_monitor(http: Option<&str>) -> Arc<FleetMonitor> {
        FleetMonitor::new(
            32,
            vec![
                WorkerView {
                    worker: 0,
                    pid: Some(101),
                    range_lo: 0,
                    range_hi: 16,
                    attempts: 1,
                    alive: true,
                    trials_done: 10,
                    losses: 1,
                    events: 5000,
                    trials_per_sec: Some(3.5),
                    ..WorkerView::default()
                },
                WorkerView {
                    worker: 1,
                    pid: Some(102),
                    range_lo: 16,
                    range_hi: 32,
                    attempts: 2,
                    alive: false,
                    done: true,
                    trials_done: 16,
                    losses: 2,
                    events: 8000,
                    ..WorkerView::default()
                },
            ],
            false,
            http,
        )
    }

    #[test]
    fn fleet_status_merges_workers_and_brackets_p_loss() {
        let mon = two_worker_monitor(None);
        let body = mon.render_status();
        let doc = Json::parse(&body).expect("fleet status parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("fleet-status-v1"));
        assert_eq!(doc.get("trials_total").unwrap().as_u64(), Some(32));
        assert_eq!(doc.get("trials_done").unwrap().as_u64(), Some(26));
        assert_eq!(doc.get("losses").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("events").unwrap().as_u64(), Some(13000));
        assert_eq!(doc.get("workers_total").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("workers_up").unwrap().as_u64(), Some(1));
        let pooled = doc.get("pooled").unwrap();
        let p = pooled.get("p_loss").unwrap().as_f64().unwrap();
        let lo = pooled.get("wilson95_lo").unwrap().as_f64().unwrap();
        let hi = pooled.get("wilson95_hi").unwrap().as_f64().unwrap();
        assert_eq!(p, 3.0 / 26.0);
        assert!(lo <= p && p <= hi, "{lo} <= {p} <= {hi}");
        let workers = doc.get("workers").unwrap().as_array().unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("attempts").unwrap().as_u64(), Some(2));
        assert_eq!(workers[1].get("done"), Some(&Json::Bool(true)));
        // seq increments per render.
        let again = Json::parse(&mon.render_status()).unwrap();
        assert!(
            again.get("seq").unwrap().as_u64() > doc.get("seq").unwrap().as_u64(),
            "seq must grow"
        );
    }

    #[test]
    fn fleet_metrics_roll_up_and_label_workers() {
        let mon = two_worker_monitor(None);
        let body = mon.render_metrics();
        assert!(
            body.contains("# TYPE farm_fleet_trials_total counter"),
            "{body}"
        );
        assert!(body.contains("farm_fleet_trials_total 26"), "{body}");
        assert!(body.contains("farm_fleet_losses_total 3"), "{body}");
        assert!(body.contains("farm_fleet_workers 2"), "{body}");
        assert!(body.contains("farm_fleet_workers_up 1"), "{body}");
        assert!(
            body.contains("farm_fleet_worker_trials_total{worker=\"0\"} 10"),
            "{body}"
        );
        assert!(
            body.contains("farm_fleet_worker_trials_total{worker=\"1\"} 16"),
            "{body}"
        );
        assert!(
            body.contains("farm_fleet_worker_up{worker=\"1\"} 0"),
            "{body}"
        );
        assert!(
            body.contains("farm_fleet_worker_attempts{worker=\"1\"} 2"),
            "{body}"
        );
        assert!(body.contains("farm_fleet_p_loss_wilson95_hi "), "{body}");
    }

    #[test]
    fn fleet_exporter_serves_status_and_metrics() {
        let mon = two_worker_monitor(Some("127.0.0.1:0"));
        let addr = mon.http_addr().expect("bound");
        let (head, body) = scrape(addr, "/status");
        assert!(head.contains("application/json"), "{head}");
        let doc = Json::parse(&body).expect("served status parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("fleet-status-v1"));
        assert_eq!(
            doc.get("http_addr").unwrap().as_str(),
            Some(addr.to_string().as_str())
        );
        let (_, metrics) = scrape(addr, "/metrics");
        assert!(metrics.contains("farm_fleet_workers 2"), "{metrics}");
        let (head, _) = scrape(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn fleet_snapshot_is_atomic_and_parseable() {
        let mon = two_worker_monitor(None);
        let dir = std::env::temp_dir().join(format!("farm-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet-status.json");
        mon.write_snapshot(&path);
        let body = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&body).expect("snapshot parses");
        assert_eq!(doc.get("trials_done").unwrap().as_u64(), Some(26));
        // No leftover temp file.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
