//! Estimator-convergence observability (`FARM_CONVERGENCE=path[@trials]`,
//! `--convergence [SPEC]`, `--target-rel-ci <eps>`).
//!
//! A Monte-Carlo campaign's data-loss estimate is only as good as its
//! confidence interval, and ROADMAP item 1's variance-reduction work
//! will be judged by how fast that interval narrows. This module makes
//! the narrowing *observable*: a [`ConvergenceTracker`] consumes the
//! loss/no-loss outcome of every trial **in trial order** and maintains
//!
//! * the running [`Proportion`] with its Wilson-95 half-width and
//!   relative half-width trajectory,
//! * time-to-first-loss and inter-loss-trial-gap distributions (the
//!   mergeable log-bucketed [`Histogram`]),
//! * a batched-means variance ratio (sample variance of fixed-size
//!   batch means over the binomial expectation `p(1-p)/B`) that flags
//!   between-batch drift a pooled estimate would hide, and
//! * a signed drift gauge against the analytic Markov/MTTDL anchor
//!   when the configuration admits one
//!   ([`farm_core::markov::anchor_loss_probability`] upstream).
//!
//! Checkpoints follow a geometric decimation schedule (first at
//! `base_trials`, then ×1.5), so the JSONL stream stays O(log trials)
//! regardless of campaign length. One record per checkpoint, schema
//! `farm-convergence-v1` (validated by
//! `scripts/check_telemetry.py convergence`):
//!
//! ```json
//! {"schema":"farm-convergence-v1","batch":0,"config":"mirror(2) Farm 2TiB",
//!  "checkpoint":3,"trials":54,"losses":9,"p_loss":0.1666...,
//!  "wilson95_lo":0.0901,"wilson95_hi":0.2885,"ci_half_width":0.0992,
//!  "rel_half_width":0.5951,"anchor_p_loss":0.151,"anchor_drift":0.103,
//!  "batch_var_ratio":null,"first_loss_p50_secs":86400.0,
//!  "first_loss_p99_secs":2592000.0,"loss_gap_p50_trials":4.0,
//!  "final":false}
//! ```
//!
//! Every field is a pure function of the trial-ordered outcome prefix —
//! no wall-clock rates, no thread counts — so the stream is
//! byte-identical across `FARM_THREADS` values. Out-of-order worker
//! submissions are held in a reorder buffer and released to the tracker
//! only along the contiguous frontier.
//!
//! # Sequential stopping (`--target-rel-ci`)
//!
//! [`ConvergenceCore`] doubles as the deterministic stopping rule: at
//! fixed trial boundaries (every [`STOP_CHECK_EVERY`] trials of the
//! *ordered* prefix) it compares the relative Wilson half-width against
//! the target and, once met at boundary `B`, pins the run to exactly
//! trials `0..B`. Because boundaries are arithmetic in the trial index
//! and the tracker is fed in trial order, the stopping trial count
//! depends only on `(config, master_seed, target)` — never on thread
//! scheduling — and the stopped run is the literal prefix of the
//! unstopped run. A config that has seen zero losses is never stopped
//! ([`Proportion::rel_half_width`] is `None` there).

use crate::diag;
use crate::sink::open_batch_file;
use crate::status::{jnum, jstr};
use farm_des::stats::{Histogram, Proportion, Running};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default output path for a bare `--convergence` / `FARM_CONVERGENCE=1`.
pub const DEFAULT_CONVERGENCE_PATH: &str = "farm-convergence.jsonl";

/// Default first-checkpoint trial count (then ×1.5 per checkpoint).
pub const DEFAULT_BASE_TRIALS: u64 = 16;

/// Trial-boundary spacing of the `--target-rel-ci` stopping rule. The
/// rule is evaluated only when the ordered frontier crosses a multiple
/// of this, which is what makes the stopping trial count independent of
/// thread scheduling (and bounds worker-side buffering while a
/// boundary's verdict is pending).
pub const STOP_CHECK_EVERY: u64 = 64;

/// Trials per batch for the batched-means drift diagnostic.
const MEANS_BATCH: u64 = 64;

/// Where the convergence stream goes and how the checkpoint schedule
/// starts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceSpec {
    pub path: String,
    /// First checkpoint, in trials; `None` = [`DEFAULT_BASE_TRIALS`].
    pub base_trials: Option<u64>,
}

impl ConvergenceSpec {
    /// Parse a `FARM_CONVERGENCE` / `--convergence` spec:
    ///
    /// * `""` or `"1"` — `farm-convergence.jsonl`, first checkpoint at
    ///   16 trials,
    /// * `"run.jsonl"` — a specific path,
    /// * `"run.jsonl@100"` — first checkpoint at 100 trials,
    /// * `"@8"` — default path, denser early checkpoints.
    pub fn parse(s: &str) -> Result<ConvergenceSpec, String> {
        let (path, base) = crate::sink::split_spec(s);
        let base_trials = match base {
            Some(b) => {
                let trials = b
                    .parse::<u64>()
                    .map_err(|e| format!("base trials {b:?}: {e}"))?;
                if trials == 0 {
                    return Err(format!("base trials must be >= 1, got {b:?}"));
                }
                Some(trials)
            }
            None => None,
        };
        Ok(ConvergenceSpec {
            path: path.unwrap_or(DEFAULT_CONVERGENCE_PATH).to_string(),
            base_trials,
        })
    }

    /// The effective first-checkpoint trial count.
    pub fn resolve_base(&self) -> u64 {
        self.base_trials.unwrap_or(DEFAULT_BASE_TRIALS)
    }
}

/// Streaming convergence statistics over the ordered trial prefix.
///
/// Pure state machine: no clocks, no I/O. Feeding the same outcome
/// sequence always yields the same state, which is what the golden
/// byte-identity tests pin.
#[derive(Clone, Debug)]
pub struct ConvergenceTracker {
    p: Proportion,
    /// Simulated seconds to the first loss of each losing trial.
    first_loss_secs: Histogram,
    /// Trial-index gaps between consecutive losing trials.
    loss_gap_trials: Histogram,
    last_loss_trial: Option<u64>,
    /// Analytic anchor probability, when the config admits one.
    anchor: Option<f64>,
    /// Batched means: losses inside the current (incomplete) batch and
    /// the completed batch means.
    batch_losses: u64,
    batch_means: Running,
}

impl ConvergenceTracker {
    pub fn new(anchor: Option<f64>) -> Self {
        ConvergenceTracker {
            p: Proportion::new(0, 0),
            first_loss_secs: Histogram::new(),
            loss_gap_trials: Histogram::new(),
            last_loss_trial: None,
            anchor,
            batch_losses: 0,
            batch_means: Running::new(),
        }
    }

    /// Record the outcome of the next trial in order. `trial` is the
    /// zero-based index (must equal the number of trials already fed).
    pub fn push(&mut self, trial: u64, lost: bool, first_loss_secs: Option<f64>) {
        debug_assert_eq!(trial, self.p.trials, "tracker fed out of order");
        self.p.trials += 1;
        if lost {
            self.p.successes += 1;
            self.batch_losses += 1;
            if let Some(secs) = first_loss_secs {
                self.first_loss_secs.record(secs);
            }
            if let Some(last) = self.last_loss_trial {
                self.loss_gap_trials.record((trial - last) as f64);
            }
            self.last_loss_trial = Some(trial);
        }
        if self.p.trials.is_multiple_of(MEANS_BATCH) {
            self.batch_means
                .push(self.batch_losses as f64 / MEANS_BATCH as f64);
            self.batch_losses = 0;
        }
    }

    pub fn proportion(&self) -> Proportion {
        self.p
    }

    pub fn anchor(&self) -> Option<f64> {
        self.anchor
    }

    /// Signed relative drift of the estimate from the analytic anchor,
    /// `(p̂ - a) / a`. `None` without an anchor.
    pub fn anchor_drift(&self) -> Option<f64> {
        let a = self.anchor?;
        if !(a.is_finite() && a > 0.0) {
            return None;
        }
        Some((self.p.value() - a) / a)
    }

    /// Batched-means drift diagnostic: sample variance of the completed
    /// batch means over the binomial expectation `p̂(1-p̂)/B`. Near 1
    /// for a stationary estimator; well above 1 flags between-batch
    /// drift. `None` until two batches complete or while `p̂(1-p̂)` is
    /// zero (no losses, or all losses).
    pub fn batch_var_ratio(&self) -> Option<f64> {
        if self.batch_means.count() < 2 {
            return None;
        }
        let p = self.p.value();
        let binom = p * (1.0 - p) / MEANS_BATCH as f64;
        if binom <= 0.0 {
            return None;
        }
        Some(self.batch_means.variance() / binom)
    }

    fn row(&self, checkpoint: u64, is_final: bool) -> Row {
        let (lo, hi) = self.p.wilson95();
        Row {
            checkpoint,
            trials: self.p.trials,
            losses: self.p.successes,
            p_loss: self.p.value(),
            wilson95_lo: lo,
            wilson95_hi: hi,
            ci_half_width: self.p.wilson95_half_width(),
            rel_half_width: self.p.rel_half_width(),
            anchor_p_loss: self.anchor,
            anchor_drift: self.anchor_drift(),
            batch_var_ratio: self.batch_var_ratio(),
            first_loss_p50_secs: percentile(&self.first_loss_secs, 50.0),
            first_loss_p99_secs: percentile(&self.first_loss_secs, 99.0),
            loss_gap_p50_trials: percentile(&self.loss_gap_trials, 50.0),
            is_final,
        }
    }
}

fn percentile(h: &Histogram, q: f64) -> Option<f64> {
    (!h.is_empty()).then(|| h.percentile(q))
}

/// One checkpoint, held structured until flush time (the JSONL line
/// needs the process-stable batch id, which `open_batch_file` only
/// assigns when the stream file is opened).
#[derive(Clone, Debug)]
struct Row {
    checkpoint: u64,
    trials: u64,
    losses: u64,
    p_loss: f64,
    wilson95_lo: f64,
    wilson95_hi: f64,
    ci_half_width: f64,
    rel_half_width: Option<f64>,
    anchor_p_loss: Option<f64>,
    anchor_drift: Option<f64>,
    batch_var_ratio: Option<f64>,
    first_loss_p50_secs: Option<f64>,
    first_loss_p99_secs: Option<f64>,
    loss_gap_p50_trials: Option<f64>,
    is_final: bool,
}

impl Row {
    fn render(&self, out: &mut String, batch: u64, label: &str) {
        let _ = write!(
            out,
            "{{\"schema\":\"farm-convergence-v1\",\"batch\":{batch},\"config\":"
        );
        jstr(out, label);
        let _ = write!(
            out,
            ",\"checkpoint\":{},\"trials\":{},\"losses\":{}",
            self.checkpoint, self.trials, self.losses
        );
        let nums = [
            ("p_loss", Some(self.p_loss)),
            ("wilson95_lo", Some(self.wilson95_lo)),
            ("wilson95_hi", Some(self.wilson95_hi)),
            ("ci_half_width", Some(self.ci_half_width)),
            ("rel_half_width", self.rel_half_width),
            ("anchor_p_loss", self.anchor_p_loss),
            ("anchor_drift", self.anchor_drift),
            ("batch_var_ratio", self.batch_var_ratio),
            ("first_loss_p50_secs", self.first_loss_p50_secs),
            ("first_loss_p99_secs", self.first_loss_p99_secs),
            ("loss_gap_p50_trials", self.loss_gap_p50_trials),
        ];
        for (key, v) in nums {
            let _ = write!(out, ",\"{key}\":");
            match v {
                Some(v) => jnum(out, v),
                None => out.push_str("null"),
            }
        }
        let _ = write!(out, ",\"final\":{}}}", self.is_final);
        out.push('\n');
    }
}

/// Frontier state behind the mutex: the tracker plus the reorder buffer
/// that turns concurrent worker submissions back into trial order.
struct Inner {
    tracker: ConvergenceTracker,
    /// Out-of-order submissions, keyed by trial index.
    pending: HashMap<u64, (bool, Option<f64>)>,
    /// Next trial index the tracker expects.
    frontier: u64,
    /// Next checkpoint boundary (trials), geometric schedule.
    next_checkpoint: u64,
    checkpoints_emitted: u64,
    rows: Vec<Row>,
}

/// Shared per-batch convergence state: the ordered tracker, the
/// decimated checkpoint rows, and the sequential stopping rule.
///
/// Thread protocol (see `run_trials_observed`):
/// * every worker calls [`submit`](Self::submit) once per finished
///   trial, any order;
/// * when stopping is armed, workers consult
///   [`stop_limit`](Self::stop_limit) before dispatching and
///   [`decided_through`](Self::decided_through) before committing
///   results, so the committed set is exactly trials `0..stop_limit`;
/// * the driver calls [`finish`](Self::finish) once, after all workers
///   joined, to flush the JSONL stream.
pub struct ConvergenceCore {
    label: String,
    total: u64,
    target_rel_ci: Option<f64>,
    inner: Mutex<Inner>,
    /// First trial index excluded by the stopping rule; `u64::MAX`
    /// while no stop has triggered.
    stop_limit: AtomicU64,
    /// Trials below this index can no longer be excluded by a future
    /// stop decision (every boundary at or below them said "continue").
    decided_through: AtomicU64,
}

impl ConvergenceCore {
    pub fn new(
        label: String,
        total: u64,
        anchor: Option<f64>,
        base_trials: u64,
        target_rel_ci: Option<f64>,
    ) -> Self {
        ConvergenceCore {
            label,
            total,
            target_rel_ci,
            inner: Mutex::new(Inner {
                tracker: ConvergenceTracker::new(anchor),
                pending: HashMap::new(),
                frontier: 0,
                next_checkpoint: base_trials.max(1),
                checkpoints_emitted: 0,
                rows: Vec::new(),
            }),
            stop_limit: AtomicU64::new(u64::MAX),
            // Trials 0..E can never be cut: the earliest stop boundary
            // is E itself.
            decided_through: AtomicU64::new(STOP_CHECK_EVERY),
        }
    }

    /// Whether the sequential stopping rule is armed.
    pub fn stopping(&self) -> bool {
        self.target_rel_ci.is_some()
    }

    /// First trial index excluded by a triggered stop (`u64::MAX` if
    /// none): workers must not dispatch indices at or above this.
    pub fn stop_limit(&self) -> u64 {
        self.stop_limit.load(Ordering::Relaxed)
    }

    /// Trials with index below this are certain to be part of the final
    /// run and may be committed to summaries.
    pub fn decided_through(&self) -> u64 {
        self.decided_through.load(Ordering::Relaxed)
    }

    /// The stopping trial count, if the rule triggered.
    pub fn stopped_at(&self) -> Option<u64> {
        let limit = self.stop_limit();
        (limit != u64::MAX).then_some(limit)
    }

    /// Record the outcome of trial `trial`. Safe to call from any
    /// worker in any order; outcomes at or beyond a triggered stop
    /// limit are ignored.
    pub fn submit(&self, trial: u64, lost: bool, first_loss_secs: Option<f64>) {
        let mut inner = self.inner.lock().expect("convergence state poisoned");
        if trial >= self.stop_limit() || trial < inner.frontier {
            return;
        }
        inner.pending.insert(trial, (lost, first_loss_secs));
        loop {
            let t = inner.frontier;
            if t >= self.stop_limit() {
                inner.pending.clear();
                break;
            }
            let Some((lost, secs)) = inner.pending.remove(&t) else {
                break;
            };
            inner.tracker.push(t, lost, secs);
            inner.frontier = t + 1;
            let done = inner.frontier;
            if done == inner.next_checkpoint && done < self.total {
                let idx = inner.checkpoints_emitted;
                let row = inner.tracker.row(idx, false);
                inner.rows.push(row);
                inner.checkpoints_emitted += 1;
                // Geometric (×1.5) growth keeps the stream O(log trials).
                inner.next_checkpoint = (done + 1).max(done.saturating_mul(3) / 2);
            }
            if done.is_multiple_of(STOP_CHECK_EVERY) && done < self.total {
                self.decide(&inner, done);
            }
        }
    }

    /// Evaluate the stopping rule at an ordered-prefix boundary.
    fn decide(&self, inner: &Inner, boundary: u64) {
        let Some(target) = self.target_rel_ci else {
            return;
        };
        if self.stop_limit() != u64::MAX {
            return;
        }
        let met = inner
            .tracker
            .proportion()
            .rel_half_width()
            .is_some_and(|rel| rel <= target);
        if met {
            self.stop_limit.store(boundary, Ordering::Relaxed);
        } else {
            self.decided_through
                .store(boundary + STOP_CHECK_EVERY, Ordering::Relaxed);
        }
    }

    /// Flush the checkpoint rows (plus a final exact-totals record) to
    /// the JSONL stream. Call once, after every trial has been
    /// submitted. Returns the final tracker proportion so callers can
    /// cross-check it against the batch summary.
    pub fn finish(&self, spec: Option<&ConvergenceSpec>) -> Proportion {
        let mut inner = self.inner.lock().expect("convergence state poisoned");
        debug_assert!(
            inner.pending.is_empty(),
            "convergence finish with {} trials still out of order",
            inner.pending.len()
        );
        // The final record always carries the exact totals; if the last
        // scheduled checkpoint already landed there it is promoted
        // rather than duplicated.
        let final_trials = inner.tracker.p.trials;
        match inner.rows.last_mut() {
            Some(last) if last.trials == final_trials => last.is_final = true,
            _ => {
                let idx = inner.checkpoints_emitted;
                let row = inner.tracker.row(idx, true);
                inner.rows.push(row);
                inner.checkpoints_emitted += 1;
            }
        }
        if let Some(spec) = spec {
            match open_batch_file(&spec.path) {
                Ok((mut file, _fresh, batch)) => {
                    let mut out = String::with_capacity(inner.rows.len() * 256);
                    for row in &inner.rows {
                        row.render(&mut out, batch, &self.label);
                    }
                    if let Err(e) = file.write_all(out.as_bytes()) {
                        diag::warn_once(
                            "convergence-write",
                            &format!("convergence stream write to {} failed: {e}", spec.path),
                        );
                    }
                }
                Err(e) => {
                    diag::warn_once(
                        "convergence-open",
                        &format!("convergence stream open {} failed: {e}", spec.path),
                    );
                }
            }
        }
        inner.tracker.proportion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_forms() {
        let s = ConvergenceSpec::parse("").unwrap();
        assert_eq!(s.path, DEFAULT_CONVERGENCE_PATH);
        assert_eq!(s.resolve_base(), DEFAULT_BASE_TRIALS);

        let s = ConvergenceSpec::parse("1").unwrap();
        assert_eq!(s.path, DEFAULT_CONVERGENCE_PATH);

        let s = ConvergenceSpec::parse("run.jsonl@100").unwrap();
        assert_eq!(s.path, "run.jsonl");
        assert_eq!(s.resolve_base(), 100);

        let s = ConvergenceSpec::parse("@8").unwrap();
        assert_eq!(s.path, DEFAULT_CONVERGENCE_PATH);
        assert_eq!(s.resolve_base(), 8);

        assert!(ConvergenceSpec::parse("x@nope").is_err());
        assert!(ConvergenceSpec::parse("x@0").is_err());
        assert!(ConvergenceSpec::parse("x@-3").is_err());
    }

    /// Deterministic synthetic outcome stream for the tests.
    fn outcome(t: u64) -> bool {
        t % 7 == 3
    }

    #[test]
    fn tracker_matches_direct_counts() {
        let mut tr = ConvergenceTracker::new(None);
        let n = 1000u64;
        for t in 0..n {
            tr.push(t, outcome(t), outcome(t).then_some(100.0 * t as f64));
        }
        let p = tr.proportion();
        assert_eq!(p.trials, n);
        assert_eq!(p.successes, (0..n).filter(|&t| outcome(t)).count() as u64);
        // Every gap between t%7==3 hits is exactly 7 trials.
        assert_eq!(tr.loss_gap_trials.count(), p.successes - 1);
        assert!((tr.loss_gap_trials.mean() - 7.0).abs() < 0.5);
        // Perfectly periodic losses are *under*-dispersed vs binomial.
        let ratio = tr.batch_var_ratio().expect("enough batches");
        assert!(ratio < 1.0, "periodic stream ratio = {ratio}");
    }

    #[test]
    fn anchor_drift_is_signed_and_relative() {
        let mut tr = ConvergenceTracker::new(Some(0.2));
        for t in 0..100 {
            tr.push(t, t % 10 == 0, None); // p̂ = 0.1, anchor 0.2
        }
        let drift = tr.anchor_drift().unwrap();
        assert!((drift - (0.1 - 0.2) / 0.2).abs() < 1e-12, "drift = {drift}");
        assert!(ConvergenceTracker::new(None).anchor_drift().is_none());
    }

    #[test]
    fn batch_var_ratio_not_informative_without_losses_or_batches() {
        let mut tr = ConvergenceTracker::new(None);
        for t in 0..(MEANS_BATCH * 3) {
            tr.push(t, false, None);
        }
        assert_eq!(tr.batch_var_ratio(), None, "p(1-p) = 0");
        let mut tr = ConvergenceTracker::new(None);
        for t in 0..(MEANS_BATCH - 1) {
            tr.push(t, t % 3 == 0, None);
        }
        assert_eq!(tr.batch_var_ratio(), None, "< 2 complete batches");
    }

    /// Submitting in any order must produce the identical row stream.
    #[test]
    fn reorder_buffer_restores_trial_order() {
        let run = |order: &[u64]| {
            let core = ConvergenceCore::new("cfg".into(), 200, Some(0.1), 4, None);
            for &t in order {
                core.submit(t, outcome(t), outcome(t).then_some(1e5));
            }
            let inner = core.inner.lock().unwrap();
            assert_eq!(inner.frontier, 200);
            let mut out = String::new();
            for row in &inner.rows {
                row.render(&mut out, 0, "cfg");
            }
            out
        };
        let forward: Vec<u64> = (0..200).collect();
        let mut scrambled: Vec<u64> = Vec::new();
        // Interleave four simulated workers' dispatch orders.
        for lane in 0..4u64 {
            scrambled.extend((0..50).map(|i| i * 4 + lane));
        }
        assert_eq!(run(&forward), run(&scrambled));
    }

    #[test]
    fn checkpoints_are_geometric_and_final_is_exact() {
        let core = ConvergenceCore::new("cfg".into(), 500, None, 16, None);
        for t in 0..500 {
            core.submit(t, outcome(t), None);
        }
        core.finish(None);
        let inner = core.inner.lock().unwrap();
        let trials: Vec<u64> = inner.rows.iter().map(|r| r.trials).collect();
        // Strictly increasing with non-decreasing gaps (the decimation
        // only thins), except possibly the tail-truncated final record.
        for w in trials.windows(2) {
            assert!(w[1] > w[0], "{trials:?}");
        }
        let gaps: Vec<u64> = trials.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps[..gaps.len().saturating_sub(1)].windows(2) {
            assert!(w[1] >= w[0], "widening decimation: {trials:?}");
        }
        assert_eq!(trials.first(), Some(&16));
        assert_eq!(trials.last(), Some(&500));
        let last = inner.rows.last().unwrap();
        assert!(last.is_final);
        assert!(inner.rows.iter().filter(|r| r.is_final).count() == 1);
        // O(log trials): 500 trials, base 16, ratio 1.5 → ~10 records.
        assert!(inner.rows.len() < 15, "{} rows", inner.rows.len());
    }

    #[test]
    fn stopping_rule_is_boundary_aligned_and_order_independent() {
        let run = |order: &[u64]| {
            let core = ConvergenceCore::new("cfg".into(), 10_000, None, 16, Some(0.5));
            for &t in order {
                if t >= core.stop_limit() {
                    continue;
                }
                core.submit(t, outcome(t), None);
            }
            core.stopped_at()
        };
        let forward: Vec<u64> = (0..10_000).collect();
        let stop = run(&forward).expect("1-in-7 losses reach rel CI 0.5 quickly");
        assert_eq!(stop % STOP_CHECK_EVERY, 0, "stop {stop} off-boundary");
        let mut scrambled: Vec<u64> = Vec::new();
        for lane in 0..8u64 {
            scrambled.extend((0..1250).map(|i| i * 8 + lane));
        }
        assert_eq!(run(&scrambled), Some(stop));
    }

    #[test]
    fn zero_loss_runs_never_stop() {
        let core = ConvergenceCore::new("cfg".into(), 100_000, None, 16, Some(0.5));
        for t in 0..100_000 {
            core.submit(t, false, None);
        }
        assert_eq!(core.stopped_at(), None);
        // But commit certainty still advances behind the frontier.
        assert!(core.decided_through() >= 100_000);
    }

    #[test]
    fn decided_through_lags_only_one_boundary() {
        let core = ConvergenceCore::new("cfg".into(), 10_000, None, 16, Some(1e-9));
        for t in 0..130 {
            core.submit(t, outcome(t), None);
        }
        // Boundaries 64 and 128 evaluated "continue" (target unreachable):
        // everything below 128 + E is certain.
        assert_eq!(core.decided_through(), 128 + STOP_CHECK_EVERY);
        assert_eq!(core.stopped_at(), None);
    }
}
