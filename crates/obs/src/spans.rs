//! Recovery-lifecycle span tracing (`FARM_SPANS=path[@fmt]`,
//! `--spans [SPEC]`).
//!
//! The paper's argument is about the *shape* of recovery — detection
//! latency, queueing behind busy pipes, bandwidth-limited transfer —
//! but the batch summaries pool those phases into histograms and lose
//! the per-repair narrative. This module makes every block repair a
//! **span**: opened when a failure makes the block vulnerable, advanced
//! through phase transitions (detected, scheduled, redirected), and
//! closed by exactly one terminal outcome (`rebuilt`, `loss_disk`,
//! `loss_latent`, or `truncated` at end of trial).
//!
//! Every instant of a span's life is attributed to exactly one phase:
//!
//! * **detect** — from the failure (or a redirecting re-failure) until
//!   the scrubbing Detect event schedules a rebuild,
//! * **queue** — from scheduling until the rebuild's pipes free up,
//! * **transfer** — the bandwidth-limited rebuild itself.
//!
//! so `detect_secs + queue_secs + transfer_secs` telescopes to the
//! span's end-to-end duration — the invariant the critical-path
//! extraction in data-loss post-mortems relies on (the breakdown of a
//! fatal vulnerability window sums to the window).
//!
//! Two export formats, chosen by the spec's `@fmt` suffix:
//!
//! * `jsonl` (default) — one `farm-spans-v1` object per span, plus
//!   sparse `farm-spans-bw-v1` per-disk/per-group bandwidth-attribution
//!   rows per trial (validated by `scripts/check_telemetry.py spans`),
//! * `chrome` — a Chrome trace-event JSON file loadable in Perfetto /
//!   `chrome://tracing` (`pid` = trial, `tid` = group, one complete
//!   event per span plus nested phase events).
//!
//! Recording happens per trial into a [`SpanRecorder`] owned by the
//! simulation (zero cost when absent: every hook is a null test), and
//! the harvested [`TrialSpans`] ride the ordered-artifact path, so the
//! exported files are byte-identical across `FARM_THREADS`.

use crate::status::{jnum, jstr};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Default output path for a bare `--spans` / `FARM_SPANS=1`.
pub const DEFAULT_SPANS_PATH: &str = "farm-spans.jsonl";
/// Default output path when the chrome format is selected bare.
pub const DEFAULT_CHROME_PATH: &str = "farm-spans.json";

/// "No disk": a span that never got a rebuild target.
pub const NO_DISK: u32 = u32::MAX;

/// Export format of the spans artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanFormat {
    /// `farm-spans-v1` JSONL (one object per span / bandwidth row).
    #[default]
    Jsonl,
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
}

/// Where the spans artifact goes and in which format.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpansSpec {
    pub path: String,
    pub format: SpanFormat,
}

impl SpansSpec {
    /// Parse a `FARM_SPANS` / `--spans` spec:
    ///
    /// * `""` or `"1"` — `farm-spans.jsonl`,
    /// * `"run.jsonl"` — a specific path,
    /// * `"run.jsonl@jsonl"` — explicit format,
    /// * `"trace.json@chrome"` — Chrome trace-event export,
    /// * `"@chrome"` — default chrome path (`farm-spans.json`).
    pub fn parse(s: &str) -> Result<SpansSpec, String> {
        let (path, format) = crate::sink::split_spec(s);
        let format = match format {
            None | Some("jsonl") => SpanFormat::Jsonl,
            Some("chrome") => SpanFormat::Chrome,
            Some(other) => {
                return Err(format!(
                    "span format {other:?} (want \"jsonl\" or \"chrome\")"
                ))
            }
        };
        let path = path.unwrap_or(match format {
            SpanFormat::Jsonl => DEFAULT_SPANS_PATH,
            SpanFormat::Chrome => DEFAULT_CHROME_PATH,
        });
        Ok(SpansSpec {
            path: path.to_string(),
            format,
        })
    }
}

/// Terminal outcomes a span can close with.
pub const OUTCOMES: [&str; 4] = ["rebuilt", "loss_disk", "loss_latent", "truncated"];

/// Which phase a live span is currently accruing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Waiting to be (re-)detected and scheduled.
    Detect,
    /// A rebuild is scheduled: queued until `planned_start`, then in
    /// transfer.
    Scheduled,
}

/// One block repair, open or closed. Fields mirror the `farm-spans-v1`
/// row; `t_detect`/`t_start` are `NaN` until the span reaches that
/// phase (rendered as JSON `null`).
#[derive(Clone, Debug)]
pub struct SpanRow {
    /// Per-trial ordinal, in span-open order.
    pub span: u32,
    pub group: u32,
    pub block: u32,
    /// The disk whose failure opened the span.
    pub fail_disk: u32,
    /// Rebuild target of the last scheduled attempt ([`NO_DISK`] if
    /// never scheduled).
    pub target: u32,
    /// Bytes moved by completed transfers.
    pub bytes: u64,
    pub t_fail: f64,
    /// First detection instant (`NaN` = never detected).
    pub t_detect: f64,
    /// First scheduled rebuild-start instant (`NaN` = never scheduled).
    /// This is the *planned* start: a span that closes while still
    /// queued (group death, horizon) has `t_end < t_start` and zero
    /// transfer time.
    pub t_start: f64,
    pub t_end: f64,
    pub detect_secs: f64,
    pub queue_secs: f64,
    pub transfer_secs: f64,
    /// Scheduled rebuild attempts (redirections re-schedule).
    pub attempts: u32,
    /// Epoch bumps that invalidated an in-flight rebuild.
    pub redirects: u32,
    /// Detect rounds that found no spare capacity for this block.
    pub no_target: u32,
    pub outcome: &'static str,
    phase: Phase,
    last_t: f64,
    planned_start: f64,
    open: bool,
}

impl SpanRow {
    /// Advance the phase accumulators to instant `t`, attributing the
    /// elapsed interval to the current phase (a `Scheduled` interval is
    /// split at `planned_start` between queue and transfer).
    fn advance(&mut self, t: f64) {
        debug_assert!(t >= self.last_t, "span advanced backwards");
        match self.phase {
            Phase::Detect => self.detect_secs += t - self.last_t,
            Phase::Scheduled => {
                if t <= self.planned_start {
                    self.queue_secs += t - self.last_t;
                } else {
                    let boundary = self.planned_start.max(self.last_t);
                    self.queue_secs += (boundary - self.last_t).max(0.0);
                    self.transfer_secs += t - boundary;
                }
            }
        }
        self.last_t = t;
    }

    fn close(&mut self, t: f64, outcome: &'static str) {
        self.advance(t);
        self.t_end = t;
        self.outcome = outcome;
        self.open = false;
    }

    /// The phase decomposition of this span's whole window, for the
    /// post-mortem critical path.
    fn critical_path(&self) -> CriticalPath {
        CriticalPath {
            window_secs: self.t_end - self.t_fail,
            detect_secs: self.detect_secs,
            queue_secs: self.queue_secs,
            transfer_secs: self.transfer_secs,
        }
    }

    /// Render the `farm-spans-v1` JSONL row.
    fn render(&self, out: &mut String, batch: u64, label: &str, trial: u64) {
        let _ = write!(
            out,
            "{{\"schema\":\"farm-spans-v1\",\"batch\":{batch},\"config\":"
        );
        jstr(out, label);
        let _ = write!(
            out,
            ",\"trial\":{trial},\"span\":{},\"group\":{},\"block\":{},\"fail_disk\":{}",
            self.span, self.group, self.block, self.fail_disk
        );
        out.push_str(",\"target\":");
        if self.target == NO_DISK {
            out.push_str("null");
        } else {
            let _ = write!(out, "{}", self.target);
        }
        let _ = write!(out, ",\"bytes\":{}", self.bytes);
        for (key, v) in [
            ("t_fail", self.t_fail),
            ("t_detect", self.t_detect),
            ("t_start", self.t_start),
            ("t_end", self.t_end),
            ("detect_secs", self.detect_secs),
            ("queue_secs", self.queue_secs),
            ("transfer_secs", self.transfer_secs),
        ] {
            let _ = write!(out, ",\"{key}\":");
            if v.is_nan() {
                out.push_str("null");
            } else {
                jnum(out, v);
            }
        }
        let _ = write!(
            out,
            ",\"attempts\":{},\"redirects\":{},\"no_target\":{},\"outcome\":\"{}\"}}",
            self.attempts, self.redirects, self.no_target, self.outcome
        );
        out.push('\n');
    }
}

/// Phase breakdown of a fatal vulnerability window, attached to the
/// flight-recorder post-mortem of the data-loss event. By construction
/// `detect + queue + transfer` telescopes to `window_secs`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CriticalPath {
    /// End-to-end fatal window: first failure to the loss instant.
    pub window_secs: f64,
    pub detect_secs: f64,
    pub queue_secs: f64,
    pub transfer_secs: f64,
}

impl CriticalPath {
    /// The phase that contributed the most wall-time.
    pub fn dominant(&self) -> &'static str {
        let mut best = ("detect", self.detect_secs);
        for cand in [("queue", self.queue_secs), ("transfer", self.transfer_secs)] {
            if cand.1 > best.1 {
                best = cand;
            }
        }
        best.0
    }

    /// Render as a JSON object fragment (no surrounding comma).
    pub fn render(&self, out: &mut String) {
        out.push_str("{\"window_secs\":");
        jnum(out, self.window_secs);
        for (key, v) in [
            ("detect_secs", self.detect_secs),
            ("queue_secs", self.queue_secs),
            ("transfer_secs", self.transfer_secs),
        ] {
            let _ = write!(out, ",\"{key}\":");
            jnum(out, v);
        }
        let _ = write!(out, ",\"dominant\":\"{}\"}}", self.dominant());
    }
}

/// Per-resource recovery-traffic totals for one trial: bytes the model
/// scheduled against each disk pipe and each group, with pipe-busy
/// seconds. Sparse — only resources recovery actually touched.
#[derive(Clone, Debug, Default)]
pub struct BwRow {
    pub id: u32,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub busy_secs: f64,
    /// Scheduled rebuild attempts this resource took part in.
    pub spans: u32,
}

impl BwRow {
    fn render(&self, out: &mut String, batch: u64, label: &str, trial: u64, resource: &str) {
        let _ = write!(
            out,
            "{{\"schema\":\"farm-spans-bw-v1\",\"batch\":{batch},\"config\":"
        );
        jstr(out, label);
        let _ = write!(
            out,
            ",\"trial\":{trial},\"resource\":\"{resource}\",\"id\":{},\"bytes_read\":{},\"bytes_written\":{},\"busy_secs\":",
            self.id, self.bytes_read, self.bytes_written
        );
        jnum(out, self.busy_secs);
        let _ = write!(out, ",\"spans\":{}}}", self.spans);
        out.push('\n');
    }
}

/// The harvested spans of one finished trial, ready for ordered
/// emission.
#[derive(Clone, Debug, Default)]
pub struct TrialSpans {
    pub spans: Vec<SpanRow>,
    pub disks: Vec<BwRow>,
    pub groups: Vec<BwRow>,
}

impl TrialSpans {
    /// Append this trial's `farm-spans-v1` + `farm-spans-bw-v1` lines.
    pub fn render_jsonl(&self, out: &mut String, batch: u64, label: &str, trial: u64) {
        for span in &self.spans {
            span.render(out, batch, label, trial);
        }
        for row in &self.disks {
            row.render(out, batch, label, trial, "disk");
        }
        for row in &self.groups {
            row.render(out, batch, label, trial, "group");
        }
    }

    /// Append this trial's Chrome trace events (one line per event,
    /// comma-terminated; the caller frames the surrounding array).
    /// `ts` is microseconds of simulated time; `pid` = trial, `tid` =
    /// group, so concurrent repairs of one group share a lane.
    pub fn render_chrome(&self, out: &mut Vec<String>, trial: u64) {
        for s in &self.spans {
            let mut ev = String::with_capacity(192);
            let dur_us = (s.t_end - s.t_fail) * 1e6;
            let _ = write!(
                ev,
                "{{\"name\":\"repair:{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":",
                s.outcome
            );
            jnum(&mut ev, s.t_fail * 1e6);
            ev.push_str(",\"dur\":");
            jnum(&mut ev, dur_us.max(0.0));
            let _ = write!(
                ev,
                ",\"pid\":{trial},\"tid\":{},\"args\":{{\"span\":{},\"block\":{},\"fail_disk\":{},\"bytes\":{},\"attempts\":{},\"redirects\":{}}}}}",
                s.group, s.span, s.block, s.fail_disk, s.bytes, s.attempts, s.redirects
            );
            out.push(ev);
            // Nested phase events, laid out sequentially from t_fail.
            // Redirected spans interleave phases in reality; the
            // aggregate layout keeps the total width exact and the
            // visualization simple.
            let mut t = s.t_fail;
            for (name, secs) in [
                ("detect", s.detect_secs),
                ("queue", s.queue_secs),
                ("transfer", s.transfer_secs),
            ] {
                if secs <= 0.0 {
                    continue;
                }
                let mut ev = String::with_capacity(96);
                let _ = write!(
                    ev,
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":"
                );
                jnum(&mut ev, t * 1e6);
                ev.push_str(",\"dur\":");
                jnum(&mut ev, secs * 1e6);
                let _ = write!(ev, ",\"pid\":{trial},\"tid\":{}}}", s.group);
                out.push(ev);
                t += secs;
            }
        }
    }
}

/// The per-trial span recorder owned by one simulation. All hooks take
/// plain seconds and ids, so `farm-core` stays format-agnostic.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    /// Every span of the trial in open order (open and closed); the
    /// emission order, hence deterministic.
    spans: Vec<SpanRow>,
    /// Block → index of its currently-open span in `spans`.
    open: HashMap<u32, u32>,
    disks: HashMap<u32, BwRow>,
    groups: HashMap<u32, BwRow>,
}

impl SpanRecorder {
    pub fn new() -> Self {
        SpanRecorder::default()
    }

    /// A disk failure made `block` (of `group`) vulnerable: open a span.
    pub fn on_fail(&mut self, group: u32, block: u32, disk: u32, t: f64) {
        debug_assert!(
            !self.open.contains_key(&block),
            "span re-opened for an already-vulnerable block"
        );
        let idx = self.spans.len() as u32;
        self.spans.push(SpanRow {
            span: idx,
            group,
            block,
            fail_disk: disk,
            target: NO_DISK,
            bytes: 0,
            t_fail: t,
            t_detect: f64::NAN,
            t_start: f64::NAN,
            t_end: f64::NAN,
            detect_secs: 0.0,
            queue_secs: 0.0,
            transfer_secs: 0.0,
            attempts: 0,
            redirects: 0,
            no_target: 0,
            outcome: "truncated",
            phase: Phase::Detect,
            last_t: t,
            planned_start: f64::NAN,
            open: true,
        });
        self.open.insert(block, idx);
    }

    /// A Detect event scheduled a rebuild for `block`: transfer starts
    /// at `start` (>= `t`, the detection instant) on `target`, reading
    /// from `sources`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_schedule(
        &mut self,
        block: u32,
        t: f64,
        start: f64,
        duration: f64,
        target: u32,
        sources: &[u32],
        block_bytes: u64,
    ) {
        let Some(&idx) = self.open.get(&block) else {
            return;
        };
        let span = &mut self.spans[idx as usize];
        span.advance(t);
        if span.t_detect.is_nan() {
            span.t_detect = t;
        }
        if span.t_start.is_nan() {
            span.t_start = start;
        }
        span.phase = Phase::Scheduled;
        span.planned_start = start;
        span.attempts += 1;
        span.target = target;
        let group = span.group;
        // Bandwidth attribution: the model charges each source pipe a
        // full block read and the target a full block write, busy for
        // the whole transfer.
        let w = self.disks.entry(target).or_insert_with(|| BwRow {
            id: target,
            ..BwRow::default()
        });
        w.bytes_written += block_bytes;
        w.busy_secs += duration;
        w.spans += 1;
        for &src in sources {
            let r = self.disks.entry(src).or_insert_with(|| BwRow {
                id: src,
                ..BwRow::default()
            });
            r.bytes_read += block_bytes;
            r.busy_secs += duration;
            r.spans += 1;
        }
        let g = self.groups.entry(group).or_insert_with(|| BwRow {
            id: group,
            ..BwRow::default()
        });
        g.bytes_read += block_bytes * sources.len() as u64;
        g.bytes_written += block_bytes;
        g.busy_secs += duration;
        g.spans += 1;
    }

    /// A Detect round found no spare capacity for `block`.
    pub fn on_no_target(&mut self, block: u32, t: f64) {
        let Some(&idx) = self.open.get(&block) else {
            return;
        };
        let span = &mut self.spans[idx as usize];
        span.advance(t);
        span.no_target += 1;
        span.phase = Phase::Detect;
    }

    /// A further failure bumped the block's epoch, invalidating its
    /// in-flight rebuild; the span waits to be re-detected.
    pub fn on_redirect(&mut self, block: u32, t: f64) {
        let Some(&idx) = self.open.get(&block) else {
            return;
        };
        let span = &mut self.spans[idx as usize];
        span.advance(t);
        span.redirects += 1;
        span.phase = Phase::Detect;
    }

    /// The block's rebuild completed: close the span.
    pub fn on_done(&mut self, block: u32, t: f64, bytes: u64) {
        let Some(idx) = self.open.remove(&block) else {
            return;
        };
        let span = &mut self.spans[idx as usize];
        span.bytes += bytes;
        span.close(t, "rebuilt");
    }

    /// The group lost data at `t`: close all its open spans with the
    /// loss outcome and return the critical path of the *oldest* one —
    /// the span whose window is the fatal vulnerability window.
    pub fn on_group_loss(&mut self, group: u32, t: f64, latent: bool) -> Option<CriticalPath> {
        let outcome = if latent { "loss_latent" } else { "loss_disk" };
        let mut fatal: Option<CriticalPath> = None;
        // `spans` is in open order, so the first match is the oldest.
        for idx in 0..self.spans.len() {
            let span = &mut self.spans[idx];
            if !span.open || span.group != group {
                continue;
            }
            span.close(t, outcome);
            self.open.remove(&span.block);
            if fatal.is_none() {
                fatal = Some(span.critical_path());
            }
        }
        fatal
    }

    /// End of trial: close every span still open as `truncated`.
    pub fn finalize(&mut self, t: f64) {
        for idx in 0..self.spans.len() {
            let span = &mut self.spans[idx];
            if span.open {
                span.close(t, "truncated");
            }
        }
        self.open.clear();
    }

    /// Harvest the trial's spans and bandwidth rows (resource rows in
    /// ascending id order, so the artifact is deterministic).
    pub fn take(&mut self) -> TrialSpans {
        debug_assert!(self.open.is_empty(), "take() before finalize()");
        let mut disks: Vec<BwRow> = self.disks.drain().map(|(_, r)| r).collect();
        disks.sort_by_key(|r| r.id);
        let mut groups: Vec<BwRow> = self.groups.drain().map(|(_, r)| r).collect();
        groups.sort_by_key(|r| r.id);
        TrialSpans {
            spans: std::mem::take(&mut self.spans),
            disks,
            groups,
        }
    }
}

/// Per-path accumulated Chrome trace events across batches. A Chrome
/// trace must be one JSON document, but multi-config campaigns emit
/// once per batch — so each flush rewrites the whole file from the
/// accumulated rows (small for the debugging workloads this targets),
/// via write-temp-then-rename like the status snapshots.
static CHROME_RUNS: OnceLock<Mutex<HashMap<String, Vec<String>>>> = OnceLock::new();

/// Append `events` for `path` and rewrite the file as a complete
/// `{"traceEvents":[...]}` document.
pub fn chrome_flush(path: &str, events: Vec<String>) -> std::io::Result<()> {
    let runs = CHROME_RUNS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut runs = runs.lock().expect("chrome trace registry poisoned");
    let all = runs.entry(path.to_string()).or_default();
    all.extend(events);
    let mut body = String::with_capacity(32 + all.iter().map(|e| e.len() + 2).sum::<usize>());
    body.push_str("{\"traceEvents\":[");
    for (i, ev) in all.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('\n');
        body.push_str(ev);
    }
    body.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body.as_bytes())?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_forms() {
        let s = SpansSpec::parse("").unwrap();
        assert_eq!(s.path, DEFAULT_SPANS_PATH);
        assert_eq!(s.format, SpanFormat::Jsonl);

        let s = SpansSpec::parse("1").unwrap();
        assert_eq!(s.path, DEFAULT_SPANS_PATH);

        let s = SpansSpec::parse("run.jsonl").unwrap();
        assert_eq!(s.path, "run.jsonl");
        assert_eq!(s.format, SpanFormat::Jsonl);

        let s = SpansSpec::parse("trace.json@chrome").unwrap();
        assert_eq!(s.path, "trace.json");
        assert_eq!(s.format, SpanFormat::Chrome);

        let s = SpansSpec::parse("@chrome").unwrap();
        assert_eq!(s.path, DEFAULT_CHROME_PATH);
        assert_eq!(s.format, SpanFormat::Chrome);

        assert!(SpansSpec::parse("x@perfetto").is_err());
    }

    /// The uncontended happy path: fail → detect+schedule → done.
    #[test]
    fn phases_sum_to_the_window() {
        let mut rec = SpanRecorder::new();
        rec.on_fail(3, 40, 7, 100.0);
        rec.on_schedule(40, 130.0, 150.0, 600.0, 9, &[1, 2], 1 << 30);
        rec.on_done(40, 750.0, 1 << 30);
        rec.finalize(751.0);
        let t = rec.take();
        assert_eq!(t.spans.len(), 1);
        let s = &t.spans[0];
        assert_eq!(s.outcome, "rebuilt");
        assert_eq!(s.detect_secs, 30.0);
        assert_eq!(s.queue_secs, 20.0);
        assert_eq!(s.transfer_secs, 600.0);
        assert_eq!(s.t_end - s.t_fail, 650.0);
        assert_eq!(s.bytes, 1 << 30);
        assert_eq!(s.attempts, 1);
        // Bandwidth attribution: target wrote, sources read, all three
        // pipes busy for the transfer.
        assert_eq!(t.disks.len(), 3);
        assert_eq!(t.disks.iter().map(|d| d.id).collect::<Vec<_>>(), [1, 2, 9]);
        let target = t.disks.iter().find(|d| d.id == 9).unwrap();
        assert_eq!(target.bytes_written, 1 << 30);
        assert_eq!(target.bytes_read, 0);
        assert_eq!(target.busy_secs, 600.0);
        let src = t.disks.iter().find(|d| d.id == 1).unwrap();
        assert_eq!(src.bytes_read, 1 << 30);
        assert_eq!(t.groups.len(), 1);
        assert_eq!(t.groups[0].bytes_read, 2 << 30);
    }

    /// A redirect mid-transfer re-enters the detect phase; the phase
    /// sums still telescope to the window.
    #[test]
    fn redirected_span_keeps_the_telescoping_invariant() {
        let mut rec = SpanRecorder::new();
        rec.on_fail(0, 5, 2, 0.0);
        rec.on_schedule(5, 30.0, 30.0, 1000.0, 8, &[1], 4096);
        // Second failure at t=200: 170 s of transfer happened, then the
        // epoch bump sends the block back to detection.
        rec.on_redirect(5, 200.0);
        rec.on_schedule(5, 230.0, 400.0, 1000.0, 8, &[1], 4096);
        rec.on_done(5, 1400.0, 4096);
        rec.finalize(1500.0);
        let s = &rec.take().spans[0];
        assert_eq!(s.redirects, 1);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.detect_secs, 30.0 + 30.0);
        assert_eq!(s.queue_secs, 0.0 + 170.0);
        assert_eq!(s.transfer_secs, 170.0 + 1000.0);
        let total = s.detect_secs + s.queue_secs + s.transfer_secs;
        assert!((total - (s.t_end - s.t_fail)).abs() < 1e-9);
        // First-transition timestamps are of the *first* attempt.
        assert_eq!(s.t_detect, 30.0);
        assert_eq!(s.t_start, 30.0);
    }

    #[test]
    fn group_loss_closes_spans_and_reports_the_oldest_window() {
        let mut rec = SpanRecorder::new();
        rec.on_fail(1, 10, 2, 50.0);
        rec.on_schedule(10, 80.0, 90.0, 500.0, 7, &[3], 4096);
        rec.on_fail(1, 11, 4, 300.0); // second failure, same group
        rec.on_fail(2, 20, 4, 300.0); // unrelated group stays open
        let cp = rec.on_group_loss(1, 300.0, false).expect("critical path");
        assert_eq!(cp.window_secs, 250.0);
        assert_eq!(cp.detect_secs, 30.0);
        assert_eq!(cp.queue_secs, 10.0);
        assert_eq!(cp.transfer_secs, 210.0);
        let sum = cp.detect_secs + cp.queue_secs + cp.transfer_secs;
        assert!((sum - cp.window_secs).abs() < 1e-9);
        assert_eq!(cp.dominant(), "transfer");
        rec.finalize(400.0);
        let t = rec.take();
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].outcome, "loss_disk");
        assert_eq!(t.spans[1].outcome, "loss_disk");
        assert_eq!(t.spans[1].t_end - t.spans[1].t_fail, 0.0);
        assert_eq!(t.spans[2].outcome, "truncated");
        // No second critical path for an already-closed group.
        assert!(rec.on_group_loss(1, 500.0, true).is_none());
    }

    #[test]
    fn jsonl_rows_follow_the_schema() {
        let mut rec = SpanRecorder::new();
        rec.on_fail(3, 40, 7, 100.0);
        rec.on_schedule(40, 130.0, 150.0, 600.0, 9, &[1], 1 << 20);
        rec.on_done(40, 750.0, 1 << 20);
        rec.on_fail(3, 41, 8, 900.0);
        rec.finalize(1000.0);
        let t = rec.take();
        let mut out = String::new();
        t.render_jsonl(&mut out, 2, "mirror(2) Farm", 17);
        let lines: Vec<&str> = out.lines().collect();
        // 2 spans + 2 disk rows + 1 group row.
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with(
            "{\"schema\":\"farm-spans-v1\",\"batch\":2,\"config\":\"mirror(2) Farm\",\"trial\":17,\"span\":0,"
        ));
        assert!(lines[0].contains("\"outcome\":\"rebuilt\""));
        // A never-scheduled span renders nulls, not NaNs.
        assert!(lines[1].contains("\"target\":null"));
        assert!(lines[1].contains("\"t_detect\":null"));
        assert!(lines[1].contains("\"outcome\":\"truncated\""));
        assert!(!out.contains("NaN"));
        assert!(lines[2].starts_with("{\"schema\":\"farm-spans-bw-v1\""));
        assert!(lines[2].contains("\"resource\":\"disk\""));
        assert!(lines[4].contains("\"resource\":\"group\""));
    }

    #[test]
    fn chrome_events_cover_the_span() {
        let mut rec = SpanRecorder::new();
        rec.on_fail(3, 40, 7, 100.0);
        rec.on_schedule(40, 130.0, 150.0, 600.0, 9, &[1], 1 << 20);
        rec.on_done(40, 750.0, 1 << 20);
        rec.finalize(800.0);
        let t = rec.take();
        let mut evs = Vec::new();
        t.render_chrome(&mut evs, 4);
        // One repair envelope + three phase events.
        assert_eq!(evs.len(), 4);
        assert!(evs[0].contains("\"name\":\"repair:rebuilt\""));
        assert!(evs[0].contains("\"pid\":4,\"tid\":3"));
        assert!(evs[1].contains("\"name\":\"detect\""));
        assert!(evs[3].contains("\"name\":\"transfer\""));
    }

    #[test]
    fn chrome_flush_rewrites_a_complete_document() {
        let path = std::env::temp_dir().join(format!(
            "farm-spans-chrome-test-{}.json",
            std::process::id()
        ));
        let p = path.to_str().unwrap();
        chrome_flush(
            p,
            vec!["{\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\"name\":\"a\"}".into()],
        )
        .unwrap();
        chrome_flush(
            p,
            vec!["{\"ph\":\"X\",\"ts\":2,\"dur\":1,\"pid\":0,\"tid\":0,\"name\":\"b\"}".into()],
        )
        .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert_eq!(body.matches("\"name\"").count(), 2);
    }
}
