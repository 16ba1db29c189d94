//! Per-trial and aggregated metrics.

use farm_des::stats::{Histogram, Proportion, Running};
use farm_des::time::SimTime;
use serde::{Deserialize, Serialize};

/// What one six-year simulated trial produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrialMetrics {
    /// Groups that lost data (availability dropped below m).
    pub lost_groups: u64,
    /// User bytes in those groups.
    pub lost_user_bytes: u64,
    /// First instant data was lost, if any.
    pub first_loss: Option<SimTime>,
    /// Disk failures observed.
    pub disk_failures: u64,
    /// Rebuilds completed.
    pub rebuilds_completed: u64,
    /// Recovery redirections: in-flight rebuild whose target died (§2.3).
    pub redirections: u64,
    /// Rebuild reads that tripped a latent sector error (extension).
    pub latent_read_errors: u64,
    /// Blocks moved onto new batches by replacement migration (§3.5).
    pub migrated_blocks: u64,
    /// Replacement batches added.
    pub batches_added: u64,
    /// Longest observed window of vulnerability (detection + rebuild) for
    /// any block, seconds.
    pub max_vulnerability_secs: f64,
    /// Sum of vulnerability windows, for averaging.
    pub total_vulnerability_secs: f64,
    /// Discrete events the trial's main loop processed — the unit of
    /// event-loop cost (farmbench's `core.loop.ns_per_event`).
    pub events_processed: u64,
    /// Rebuilds that found no eligible target anywhere (must stay zero
    /// at the paper's 40% utilization; asserted by the invariants).
    pub no_targets: u64,
    /// Distribution of per-rebuild vulnerability windows, seconds.
    pub vulnerability: Histogram,
    /// Distribution of rebuild queueing delays (how long each rebuild
    /// waited for busy recovery pipes before starting), seconds.
    pub queue_delay: Histogram,
    /// Distribution of detection lag per scheduled rebuild: how long the
    /// block had been vulnerable when the Detect event launched its
    /// attempt, seconds (the "detect" span phase).
    #[serde(default)]
    pub detect_lag: Histogram,
    /// Distribution of bandwidth-limited transfer times per scheduled
    /// rebuild, seconds (the "transfer" span phase).
    #[serde(default)]
    pub transfer: Histogram,
    /// Distribution of recovery fan-out: rebuilds launched per detected
    /// disk failure (FARM spreads these across disks; single-spare RAID
    /// funnels the same count into one drive).
    pub fanout: Histogram,
}

impl TrialMetrics {
    pub fn new() -> Self {
        TrialMetrics {
            lost_groups: 0,
            lost_user_bytes: 0,
            first_loss: None,
            disk_failures: 0,
            rebuilds_completed: 0,
            redirections: 0,
            latent_read_errors: 0,
            migrated_blocks: 0,
            batches_added: 0,
            max_vulnerability_secs: 0.0,
            total_vulnerability_secs: 0.0,
            events_processed: 0,
            no_targets: 0,
            vulnerability: Histogram::new(),
            queue_delay: Histogram::new(),
            detect_lag: Histogram::new(),
            transfer: Histogram::new(),
            fanout: Histogram::new(),
        }
    }

    /// Reset all counters and distributions to the state of a fresh
    /// [`TrialMetrics::new`], keeping the histograms' bucket
    /// allocations. Part of the workspace-recycling determinism
    /// contract: a recycled trial must start from metrics that compare
    /// equal to new ones in every observable way.
    pub fn reset(&mut self) {
        self.lost_groups = 0;
        self.lost_user_bytes = 0;
        self.first_loss = None;
        self.disk_failures = 0;
        self.rebuilds_completed = 0;
        self.redirections = 0;
        self.latent_read_errors = 0;
        self.migrated_blocks = 0;
        self.batches_added = 0;
        self.max_vulnerability_secs = 0.0;
        self.total_vulnerability_secs = 0.0;
        self.events_processed = 0;
        self.no_targets = 0;
        self.vulnerability.reset();
        self.queue_delay.reset();
        self.detect_lag.reset();
        self.transfer.reset();
        self.fanout.reset();
    }

    /// Did this trial lose any data?
    pub fn lost_data(&self) -> bool {
        self.lost_groups > 0
    }

    pub fn record_loss(&mut self, user_bytes: u64, now: SimTime) {
        self.lost_groups += 1;
        self.lost_user_bytes += user_bytes;
        if self.first_loss.is_none() {
            self.first_loss = Some(now);
        }
    }

    pub fn record_vulnerability(&mut self, secs: f64) {
        self.max_vulnerability_secs = self.max_vulnerability_secs.max(secs);
        self.total_vulnerability_secs += secs;
        self.vulnerability.record(secs);
    }

    pub fn mean_vulnerability_secs(&self) -> f64 {
        if self.rebuilds_completed == 0 {
            0.0
        } else {
            self.total_vulnerability_secs / self.rebuilds_completed as f64
        }
    }
}

impl Default for TrialMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate over a batch of Monte-Carlo trials.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct McSummary {
    /// P(data loss): trials that lost any data.
    pub p_loss: Proportion,
    /// Trials in which at least one recovery redirection happened —
    /// the paper reports this stayed under 8% of systems (§2.3).
    pub p_redirection: Proportion,
    pub failures: Running,
    pub rebuilds: Running,
    pub redirections: Running,
    pub lost_groups: Running,
    pub mean_vulnerability: Running,
    /// Events processed per trial (throughput accounting).
    pub events: Running,
    /// No-eligible-target rebuilds per trial (should stay at zero).
    pub no_targets: Running,
    /// Pooled distribution of per-rebuild vulnerability windows, secs.
    pub vulnerability: Histogram,
    /// Pooled distribution of rebuild queueing delays, secs.
    pub queue_delay: Histogram,
    /// Pooled distribution of detection lag per scheduled rebuild, secs.
    #[serde(default)]
    pub detect_lag: Histogram,
    /// Pooled distribution of rebuild transfer times, secs.
    #[serde(default)]
    pub transfer: Histogram,
    /// Pooled distribution of rebuild fan-out per detected failure.
    pub fanout: Histogram,
}

impl McSummary {
    pub fn new() -> Self {
        McSummary {
            p_loss: Proportion::new(0, 0),
            p_redirection: Proportion::new(0, 0),
            failures: Running::new(),
            rebuilds: Running::new(),
            redirections: Running::new(),
            lost_groups: Running::new(),
            mean_vulnerability: Running::new(),
            events: Running::new(),
            no_targets: Running::new(),
            vulnerability: Histogram::new(),
            queue_delay: Histogram::new(),
            detect_lag: Histogram::new(),
            transfer: Histogram::new(),
            fanout: Histogram::new(),
        }
    }

    pub fn push(&mut self, t: &TrialMetrics) {
        self.p_loss.merge(Proportion::new(t.lost_data() as u64, 1));
        self.p_redirection
            .merge(Proportion::new((t.redirections > 0) as u64, 1));
        self.failures.push(t.disk_failures as f64);
        self.rebuilds.push(t.rebuilds_completed as f64);
        self.redirections.push(t.redirections as f64);
        self.lost_groups.push(t.lost_groups as f64);
        self.mean_vulnerability.push(t.mean_vulnerability_secs());
        self.events.push(t.events_processed as f64);
        self.no_targets.push(t.no_targets as f64);
        self.vulnerability.merge(&t.vulnerability);
        self.queue_delay.merge(&t.queue_delay);
        self.detect_lag.merge(&t.detect_lag);
        self.transfer.merge(&t.transfer);
        self.fanout.merge(&t.fanout);
    }

    pub fn merge(&mut self, other: &McSummary) {
        self.p_loss.merge(other.p_loss);
        self.p_redirection.merge(other.p_redirection);
        self.failures.merge(&other.failures);
        self.rebuilds.merge(&other.rebuilds);
        self.redirections.merge(&other.redirections);
        self.lost_groups.merge(&other.lost_groups);
        self.mean_vulnerability.merge(&other.mean_vulnerability);
        self.events.merge(&other.events);
        self.no_targets.merge(&other.no_targets);
        self.vulnerability.merge(&other.vulnerability);
        self.queue_delay.merge(&other.queue_delay);
        self.detect_lag.merge(&other.detect_lag);
        self.transfer.merge(&other.transfer);
        self.fanout.merge(&other.fanout);
    }

    pub fn trials(&self) -> u64 {
        self.p_loss.trials
    }

    /// Exact single-line form: `mc1|<field>=<compact>|...` with every
    /// component serialized through its own bit-exact compact codec
    /// (`p1;...`, `r1;...`, `h1;...`). `|` is safe as the outer
    /// delimiter because none of the component codecs ever emit it.
    /// This is the unit of the fleet checkpoint format: workers write
    /// one line per chunk, and the coordinator must reconstruct a
    /// summary whose fold is bit-identical to the in-process one.
    pub fn to_compact(&self) -> String {
        format!(
            "mc1|p_loss={}|p_redirection={}|failures={}|rebuilds={}|redirections={}\
             |lost_groups={}|mean_vulnerability={}|events={}|no_targets={}\
             |vulnerability={}|queue_delay={}|detect_lag={}|transfer={}|fanout={}",
            self.p_loss.to_compact(),
            self.p_redirection.to_compact(),
            self.failures.to_compact(),
            self.rebuilds.to_compact(),
            self.redirections.to_compact(),
            self.lost_groups.to_compact(),
            self.mean_vulnerability.to_compact(),
            self.events.to_compact(),
            self.no_targets.to_compact(),
            self.vulnerability.to_compact(),
            self.queue_delay.to_compact(),
            self.detect_lag.to_compact(),
            self.transfer.to_compact(),
            self.fanout.to_compact(),
        )
    }

    /// Parse the [`McSummary::to_compact`] form.
    pub fn from_compact(s: &str) -> Result<McSummary, String> {
        let mut parts = s.split('|');
        if parts.next() != Some("mc1") {
            return Err(format!("not a mc1 record: {:?}", s.get(..16).unwrap_or(s)));
        }
        let mut out = McSummary::new();
        let mut seen = 0u32;
        for part in parts {
            let (key, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad field {part:?}"))?;
            match key {
                "p_loss" => out.p_loss = Proportion::from_compact(v)?,
                "p_redirection" => out.p_redirection = Proportion::from_compact(v)?,
                "failures" => out.failures = Running::from_compact(v)?,
                "rebuilds" => out.rebuilds = Running::from_compact(v)?,
                "redirections" => out.redirections = Running::from_compact(v)?,
                "lost_groups" => out.lost_groups = Running::from_compact(v)?,
                "mean_vulnerability" => out.mean_vulnerability = Running::from_compact(v)?,
                "events" => out.events = Running::from_compact(v)?,
                "no_targets" => out.no_targets = Running::from_compact(v)?,
                "vulnerability" => out.vulnerability = Histogram::from_compact(v)?,
                "queue_delay" => out.queue_delay = Histogram::from_compact(v)?,
                "detect_lag" => out.detect_lag = Histogram::from_compact(v)?,
                "transfer" => out.transfer = Histogram::from_compact(v)?,
                "fanout" => out.fanout = Histogram::from_compact(v)?,
                _ => return Err(format!("unknown field {key:?}")),
            }
            seen += 1;
        }
        if seen != 14 {
            return Err(format!("expected 14 fields, got {seen}"));
        }
        Ok(out)
    }
}

impl Default for McSummary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_loss_accounting() {
        let mut t = TrialMetrics::new();
        assert!(!t.lost_data());
        t.record_loss(100, SimTime::from_hours(5.0));
        t.record_loss(100, SimTime::from_hours(9.0));
        assert!(t.lost_data());
        assert_eq!(t.lost_groups, 2);
        assert_eq!(t.lost_user_bytes, 200);
        assert_eq!(t.first_loss.unwrap(), SimTime::from_hours(5.0));
    }

    #[test]
    fn vulnerability_stats() {
        let mut t = TrialMetrics::new();
        t.record_vulnerability(10.0);
        t.record_vulnerability(30.0);
        t.rebuilds_completed = 2;
        assert_eq!(t.max_vulnerability_secs, 30.0);
        assert_eq!(t.mean_vulnerability_secs(), 20.0);
    }

    #[test]
    fn summary_aggregates_trials() {
        let mut s = McSummary::new();
        let mut lossy = TrialMetrics::new();
        lossy.record_loss(1, SimTime::ZERO);
        lossy.disk_failures = 10;
        let clean = TrialMetrics {
            disk_failures: 20,
            redirections: 1,
            ..TrialMetrics::new()
        };
        s.push(&lossy);
        s.push(&clean);
        assert_eq!(s.trials(), 2);
        assert_eq!(s.p_loss.successes, 1);
        assert_eq!(s.p_redirection.successes, 1);
        assert!((s.failures.mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn summary_pools_distributions_and_no_targets() {
        let mut s = McSummary::new();
        let mut t1 = TrialMetrics::new();
        t1.record_vulnerability(10.0);
        t1.record_vulnerability(100.0);
        t1.queue_delay.record(0.0);
        t1.fanout.record(25.0);
        t1.no_targets = 1;
        let mut t2 = TrialMetrics::new();
        t2.record_vulnerability(50.0);
        s.push(&t1);
        s.push(&t2);
        assert_eq!(s.vulnerability.count(), 3);
        assert_eq!(s.vulnerability.max(), 100.0);
        assert_eq!(s.queue_delay.count(), 1);
        assert_eq!(s.fanout.count(), 1);
        assert_eq!(s.no_targets.count(), 2);
        assert!((s.no_targets.mean() - 0.5).abs() < 1e-12);

        // Merging summaries pools the histograms too.
        let mut other = McSummary::new();
        let mut t3 = TrialMetrics::new();
        t3.record_vulnerability(20.0);
        other.push(&t3);
        s.merge(&other);
        assert_eq!(s.vulnerability.count(), 4);
        assert_eq!(s.trials(), 3);
    }

    #[test]
    fn summary_compact_round_trip_is_bit_exact() {
        let mut s = McSummary::new();
        let mut lossy = TrialMetrics::new();
        lossy.record_loss(1, SimTime::from_hours(3.5));
        lossy.disk_failures = 11;
        lossy.rebuilds_completed = 2;
        lossy.record_vulnerability(12.75);
        lossy.record_vulnerability(0.003);
        lossy.queue_delay.record(1.5e-7);
        lossy.fanout.record(25.0);
        s.push(&lossy);
        s.push(&TrialMetrics::new());
        let back = McSummary::from_compact(&s.to_compact()).unwrap();
        // Bit-exact: the compact re-rendering must match character for
        // character, which covers every float bit pattern at once.
        assert_eq!(back.to_compact(), s.to_compact());
        assert_eq!(back.trials(), 2);
        assert_eq!(back.p_loss.successes, 1);
        assert_eq!(back.vulnerability.count(), 2);
    }

    #[test]
    fn summary_compact_round_trip_when_empty() {
        let s = McSummary::new();
        let back = McSummary::from_compact(&s.to_compact()).unwrap();
        assert_eq!(back.to_compact(), s.to_compact());
        assert_eq!(back.trials(), 0);
    }

    #[test]
    fn summary_compact_rejects_malformed() {
        assert!(McSummary::from_compact("nope").is_err());
        assert!(McSummary::from_compact("mc1|p_loss=p1;s=0;t=0").is_err());
        let mut tampered = McSummary::new().to_compact();
        tampered.push_str("|bogus=r1;n=0;mean=0;m2=0;min=0;max=0");
        assert!(McSummary::from_compact(&tampered).is_err());
    }

    #[test]
    fn summaries_merge() {
        let mut a = McSummary::new();
        let mut b = McSummary::new();
        let mut lossy = TrialMetrics::new();
        lossy.record_loss(1, SimTime::ZERO);
        a.push(&lossy);
        b.push(&TrialMetrics::new());
        b.push(&TrialMetrics::new());
        a.merge(&b);
        assert_eq!(a.trials(), 3);
        assert!((a.p_loss.value() - 1.0 / 3.0).abs() < 1e-12);
    }
}
