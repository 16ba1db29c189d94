//! # farm-obs — observability for the FARM simulator
//!
//! The simulator's results are distributions and its workloads are
//! long-running Monte-Carlo batches, so this crate provides the layer a
//! serving system would have:
//!
//! * [`profile::EventProfile`] — per-event-type counts and wall time in
//!   the discrete-event loop, plus queue-depth sampling,
//! * [`recorder::TrialRecorder`] — the trial event stream: the simulator
//!   reports each state transition once, as a typed
//!   [`recorder::TrialEvent`], and the recorder hands it to whichever of
//!   the tracer, the flight recorder and the span recorder are on,
//! * [`trace::TrialTracer`] — a structured JSONL trace of one sampled
//!   trial, or of every data-losing trial (failures, detections,
//!   redirections, rebuilds, losses),
//! * [`progress::Progress`] — rate-limited stderr progress for
//!   Monte-Carlo batches (trials done, trials/sec, ETA, losses),
//! * [`diag`] — a process-wide diagnostics sink with once-per-process
//!   warning dedup (replaces ad-hoc `eprintln!`s),
//! * [`timeline::TimelineRecorder`] / [`timeline::TimelineBands`] —
//!   fixed-interval cluster-state gauges per trial, merged across the
//!   batch into mean/p10/p90 bands (`FARM_TIMELINE` / `--timeline`),
//! * [`flight::FlightRecorder`] — a bounded per-group ring of recent
//!   failure/rebuild events that emits a JSON post-mortem of the causal
//!   chain whenever a group loses data (`FARM_POSTMORTEM`),
//! * [`registry::CampaignMonitor`] — the live campaign monitor: a
//!   sharded per-worker metrics registry aggregated on demand, periodic
//!   atomic-rename status snapshots with an online Wilson-interval loss
//!   estimate (`FARM_STATUS=path[@secs]` / `--status`), and a std-only
//!   HTTP listener serving `/metrics` + `/status` (`FARM_HTTP=addr`),
//! * [`http`] and [`sink::write_atomic`] — the monitoring plane both
//!   monitors share: one listener ([`http`]'s `serve`, each monitor
//!   passing a route for its own pages) and one temp-then-rename writer
//!   for every whole-document output,
//! * [`convergence::ConvergenceTracker`] / [`convergence::ConvergenceCore`]
//!   — estimator-convergence observability: a decimated JSONL stream of
//!   Wilson-interval trajectories, analytic-anchor drift, and
//!   batched-means drift diagnostics (`FARM_CONVERGENCE=path[@trials]`
//!   / `--convergence`), plus the deterministic `--target-rel-ci`
//!   sequential stopping rule,
//! * [`spans::SpanRecorder`] — recovery-lifecycle span tracing: every
//!   block repair as a span with phase attribution (detect / queue /
//!   transfer), per-disk/per-group bandwidth accounting, exported as
//!   `farm-spans-v1` JSONL or a Chrome trace-event file
//!   (`FARM_SPANS=path[@fmt]` / `--spans`), and critical-path
//!   breakdowns in data-loss post-mortems,
//! * [`fleet::FleetMonitor`] — fleet-scale campaign observability: the
//!   coordinator-side merge of the worker processes' status files into
//!   `fleet-status-v1` snapshots, an aggregated `/metrics` + `/status`
//!   exporter with per-worker labels and fleet rollups, and a
//!   rate-limited stderr dashboard (`fleet --http` / `--dashboard`),
//! * [`ObsOptions`] — the switchboard, populated from `FARM_TRACE` /
//!   `FARM_PROFILE` / `FARM_PROGRESS` / `FARM_TIMELINE` /
//!   `FARM_POSTMORTEM` / `FARM_STATUS` / `FARM_HTTP` /
//!   `FARM_CONVERGENCE` / `FARM_TARGET_REL_CI` / `FARM_SPANS` or from
//!   CLI flags.
//!
//! **Overhead contract:** everything here is *off by default*, and the
//! disabled path inside the trial event loop is a branch on an
//! `Option`/`bool` — one per state transition for the whole event
//! stream — with no allocation, no atomics, no syscalls. Whether
//! observability is on or off never changes simulation results (pinned
//! by the golden-metrics determinism test in `tests/observability.rs`).

pub mod convergence;
pub mod diag;
pub mod fleet;
pub mod flight;
pub mod http;
pub mod profile;
pub mod progress;
pub mod recorder;
pub mod registry;
pub mod rss;
pub mod sink;
pub mod spans;
pub mod status;
pub mod timeline;
pub mod trace;

pub use convergence::{ConvergenceCore, ConvergenceSpec, ConvergenceTracker, STOP_CHECK_EVERY};
pub use fleet::{FleetMonitor, Json, WorkerView};
pub use flight::FlightRecorder;
pub use profile::EventProfile;
pub use progress::Progress;
pub use recorder::{LossCause, TrialBlock, TrialEvent, TrialRecorder};
pub use registry::{BatchHandle, BatchTotals, CampaignMonitor, SpanPhases, WorkerShard};
pub use sink::{open_batch_file, write_atomic};
pub use spans::{CriticalPath, SpanFormat, SpanRecorder, SpansSpec, TrialSpans};
pub use status::StatusSpec;
pub use timeline::{TimelineBands, TimelineRecorder, TimelineSpec, GAUGES, N_GAUGES};
pub use trace::{TraceSel, TraceSpec, TrialTracer};

use std::sync::OnceLock;

/// What to observe during a Monte-Carlo run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsOptions {
    /// Batch progress reporting on stderr. `None` = auto: on only when
    /// stderr is a terminal (so CI logs and piped output stay clean).
    pub progress: Option<bool>,
    /// Profile the event loop (per-event-type counts/time, queue depth).
    pub profile: bool,
    /// Trace one sampled trial (or all data-losing trials) as JSONL.
    pub trace: Option<TraceSpec>,
    /// Sample cluster-state gauges at a fixed simulated-time interval
    /// and export cross-trial bands.
    pub timeline: Option<TimelineSpec>,
    /// JSONL path for data-loss post-mortems (enables the per-group
    /// flight recorder).
    pub postmortem: Option<String>,
    /// Periodic campaign status snapshots (`FARM_STATUS=path[@secs]`).
    pub status: Option<StatusSpec>,
    /// Listen address for the `/metrics` + `/status` HTTP exporter
    /// (`FARM_HTTP=addr`, e.g. `127.0.0.1:9919`; port 0 picks one).
    pub http: Option<String>,
    /// Streaming estimator-convergence checkpoints as JSONL
    /// (`FARM_CONVERGENCE=path[@trials]` / `--convergence`).
    pub convergence: Option<ConvergenceSpec>,
    /// Sequential stopping: halt a batch once the relative Wilson-95
    /// half-width of its loss estimate reaches this target
    /// (`FARM_TARGET_REL_CI=eps` / `--target-rel-ci`). The one
    /// observability knob that intentionally changes how many trials
    /// run — but deterministically: same config + master seed + target
    /// ⇒ the same stopping trial count, and the stopped run is a
    /// bit-identical prefix of the unstopped one.
    pub target_rel_ci: Option<f64>,
    /// Recovery-lifecycle span tracing: one span per block repair with
    /// phase attribution and bandwidth accounting, exported as
    /// `farm-spans-v1` JSONL or a Chrome trace-event file
    /// (`FARM_SPANS=path[@fmt]` / `--spans`).
    pub spans: Option<SpansSpec>,
}

impl ObsOptions {
    /// Everything off — the zero-overhead default.
    pub fn off() -> Self {
        ObsOptions {
            progress: Some(false),
            profile: false,
            trace: None,
            timeline: None,
            postmortem: None,
            status: None,
            http: None,
            convergence: None,
            target_rel_ci: None,
            spans: None,
        }
    }

    /// Does this configuration ask for the live campaign monitor?
    pub fn monitor_requested(&self) -> bool {
        self.status.is_some() || self.http.is_some()
    }

    /// Read the `FARM_*` observability variables listed on
    /// [`ObsOptions`]. Unset variables leave the default (progress
    /// auto-detects a terminal; everything else off).
    pub fn from_env() -> Self {
        let mut o = ObsOptions::default();
        if let Ok(v) = std::env::var("FARM_PROGRESS") {
            o.progress = Some(env_truthy(&v));
        }
        if let Ok(v) = std::env::var("FARM_PROFILE") {
            o.profile = env_truthy(&v);
        }
        // `FARM_TRACE=0` names trial 0, so only the other specs treat a
        // falsy value as "off".
        o.trace = env_spec("FARM_TRACE", false, TraceSpec::parse);
        o.timeline = env_spec("FARM_TIMELINE", true, TimelineSpec::parse);
        o.postmortem = env_spec("FARM_POSTMORTEM", true, |v| Ok(v.to_string()));
        o.status = env_spec("FARM_STATUS", true, StatusSpec::parse);
        o.http = env_spec("FARM_HTTP", true, |v| Ok(v.trim().to_string()));
        o.convergence = env_spec("FARM_CONVERGENCE", true, ConvergenceSpec::parse);
        o.spans = env_spec("FARM_SPANS", true, SpansSpec::parse);
        o.target_rel_ci = env_spec("FARM_TARGET_REL_CI", false, |v| {
            match v.trim().parse::<f64>() {
                Ok(eps) if eps > 0.0 && eps.is_finite() => Ok(eps),
                _ => Err("expected a positive finite number".into()),
            }
        });
        o
    }

    /// Resolve the progress switch (auto = stderr is a terminal).
    pub fn progress_enabled(&self) -> bool {
        use std::io::IsTerminal;
        self.progress
            .unwrap_or_else(|| std::io::stderr().is_terminal())
    }
}

fn env_truthy(v: &str) -> bool {
    !matches!(v.trim(), "" | "0" | "false" | "off" | "no")
}

/// Parse environment variable `name` with `parse`. Unset — or falsy,
/// when `falsy_is_off` — leaves the option off; a value that does not
/// parse is ignored with a once-per-process warning.
fn env_spec<T>(
    name: &str,
    falsy_is_off: bool,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let v = std::env::var(name).ok()?;
    if falsy_is_off && !env_truthy(&v) {
        return None;
    }
    match parse(&v) {
        Ok(spec) => Some(spec),
        Err(e) => {
            diag::warn_once(name, &format!("ignoring {name}={v:?}: {e}"));
            None
        }
    }
}

static GLOBAL: OnceLock<ObsOptions> = OnceLock::new();

/// Install process-wide observability options (e.g. from CLI flags).
/// First caller wins; returns false if options were already installed.
pub fn set_global(opts: ObsOptions) -> bool {
    GLOBAL.set(opts).is_ok()
}

/// The process-wide options: what [`set_global`] installed, else the
/// environment. Read once and cached — consulting this per batch (not
/// per trial or per event) keeps the off path free of env syscalls.
pub fn global() -> &'static ObsOptions {
    GLOBAL.get_or_init(ObsOptions::from_env)
}

static MONITOR: OnceLock<CampaignMonitor> = OnceLock::new();

/// The live campaign monitor for a batch with the given options:
/// `None` unless the options ask for one ([`ObsOptions::monitor_requested`]),
/// else the process-wide monitor — created on first use from *this*
/// batch's status/http specs (a campaign has one status file and one
/// listener; later batches attach to the same monitor). Consulted once
/// per batch, never per trial.
pub fn campaign_monitor(obs: &ObsOptions) -> Option<&'static CampaignMonitor> {
    if !obs.monitor_requested() {
        return None;
    }
    Some(MONITOR.get_or_init(|| CampaignMonitor::new(obs.status.clone(), obs.http.as_deref())))
}

/// The already-installed campaign monitor, if any batch has created one
/// (test and debugging hook — e.g. to discover the bound `/metrics`
/// port after `FARM_HTTP=127.0.0.1:0`).
pub fn installed_monitor() -> Option<&'static CampaignMonitor> {
    MONITOR.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_really_off() {
        let o = ObsOptions::off();
        assert!(!o.progress_enabled());
        assert!(!o.profile);
        assert!(o.trace.is_none());
        assert!(o.timeline.is_none());
        assert!(o.postmortem.is_none());
        assert!(o.status.is_none());
        assert!(o.http.is_none());
        assert!(o.convergence.is_none());
        assert!(o.target_rel_ci.is_none());
        assert!(o.spans.is_none());
        assert!(!o.monitor_requested());
        // Off options never install a campaign monitor.
        assert!(campaign_monitor(&o).is_none());
    }

    #[test]
    fn monitor_requested_by_status_or_http() {
        let mut o = ObsOptions::off();
        o.status = Some(StatusSpec::parse("s.json@5").unwrap());
        assert!(o.monitor_requested());
        let mut o = ObsOptions::off();
        o.http = Some("127.0.0.1:0".into());
        assert!(o.monitor_requested());
    }

    #[test]
    fn env_truthiness() {
        for v in ["0", "false", "off", "no", "", "  "] {
            assert!(!env_truthy(v), "{v:?} should be falsy");
        }
        for v in ["1", "true", "yes", "on", "2"] {
            assert!(env_truthy(v), "{v:?} should be truthy");
        }
    }
}
