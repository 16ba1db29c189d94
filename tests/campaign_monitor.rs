//! The live campaign monitor, end to end: a mid-run scrape of
//! `/metrics` and `/status` over a plain `TcpStream`, the final status
//! snapshot agreeing with the batch summary *exactly*, and the golden
//! contract that turning the monitor on never changes simulation
//! results or telemetry artifacts by a single byte.
//!
//! The monitor is process-global (one status file, one listener per
//! campaign), so every test here goes through [`monitor_obs`] /
//! [`monitor`] and identifies its own batch by a distinctive
//! `trials_total` rather than by batch index.

use farm_core::prelude::*;
use farm_des::stats::Running;
use farm_obs::fleet::Json;
use farm_obs::{CampaignMonitor, ObsOptions, StatusSpec, TimelineSpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;

fn tiny() -> SystemConfig {
    SystemConfig {
        total_user_bytes: 2 * TIB,
        group_user_bytes: 4 * GIB,
        disk_capacity: 64 * GIB,
        recovery_bandwidth: 16 * MIB,
        detection_latency: Duration::from_secs(30.0),
        ..SystemConfig::default()
    }
}

/// The one status-file path this test process uses.
fn status_path() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        std::env::temp_dir()
            .join(format!("farm-campaign-monitor-{}.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    })
}

/// Monitor-on observability options shared by every test in this file,
/// so whichever test runs first installs the process-global monitor
/// with the same spec the others expect.
fn monitor_obs() -> ObsOptions {
    ObsOptions {
        status: Some(StatusSpec {
            path: status_path().to_string(),
            interval_secs: Some(0.05),
        }),
        http: Some("127.0.0.1:0".to_string()),
        ..ObsOptions::off()
    }
}

fn monitor() -> &'static CampaignMonitor {
    farm_obs::campaign_monitor(&monitor_obs()).expect("monitor requested")
}

/// Scrape one path from the exporter with a plain TcpStream (no HTTP
/// client involved — the CI smoke uses curl, this uses the raw socket).
fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect to exporter");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: farm\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// Parse the status document (over HTTP or from the file) and return
/// the entry of the batch with the given expected trial count — the
/// stable way to find "our" batch in a shared-process monitor.
fn batch_entry(doc: &str, trials_total: u64) -> Option<Json> {
    let json = Json::parse(doc).expect("status JSON parses");
    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some("farm-status-v1")
    );
    json.get("batches")?
        .as_array()?
        .iter()
        .find(|b| b.get("trials_total").and_then(|t| t.as_f64()) == Some(trials_total as f64))
        .cloned()
}

/// The value of `farm_trials_total{batch="<idx>",...}` in an exposition.
fn trials_counter(metrics: &str, batch_idx: u64) -> Option<u64> {
    let prefix = format!("farm_trials_total{{batch=\"{batch_idx}\",");
    metrics
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn scrapes_observe_a_batch_in_flight() {
    let mon = monitor();
    let addr = mon.http_addr().expect("exporter bound");

    // Drive a batch by hand so the mid-run states are deterministic.
    let b = mon.begin_batch("hand-driven probe".into(), 7);
    let idx = b.state().index;
    let shard = b.shard();
    shard.record_trial(false, 1000, 0.002);
    shard.record_trial(true, 1000, 0.002);
    shard.record_trial(false, 1000, 0.002);

    let (head, metrics) = scrape(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert_eq!(trials_counter(&metrics, idx), Some(3));
    assert!(metrics.contains("# TYPE farm_trials_total counter"));
    assert!(metrics.contains("# TYPE farm_p_loss gauge"));

    let (head, status) = scrape(addr, "/status");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let entry = batch_entry(&status, 7).expect("our batch is in /status");
    assert_eq!(entry.get("done"), Some(&Json::Bool(false)));
    assert_eq!(entry.get("trials_done").and_then(|v| v.as_f64()), Some(3.0));
    assert_eq!(entry.get("losses").and_then(|v| v.as_f64()), Some(1.0));
    let p = entry.get("p_loss").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(p, 1.0 / 3.0);
    let lo = entry.get("wilson95_lo").and_then(|v| v.as_f64()).unwrap();
    let hi = entry.get("wilson95_hi").and_then(|v| v.as_f64()).unwrap();
    assert!(lo < p && p < hi, "wilson interval brackets the estimate");

    // Counters are monotone across scrapes.
    shard.record_trial(false, 1000, 0.002);
    let (_, metrics2) = scrape(addr, "/metrics");
    assert_eq!(trials_counter(&metrics2, idx), Some(4));

    // Finishing pins done=true, eta=0 and writes a snapshot file.
    for _ in 0..3 {
        shard.record_trial(false, 1000, 0.002);
    }
    b.finish();
    let (_, status) = scrape(addr, "/status");
    let entry = batch_entry(&status, 7).expect("finished batch still listed");
    assert_eq!(entry.get("done"), Some(&Json::Bool(true)));
    assert_eq!(entry.get("trials_done").and_then(|v| v.as_f64()), Some(7.0));
    assert_eq!(entry.get("eta_secs").and_then(|v| v.as_f64()), Some(0.0));
}

#[test]
fn driver_batch_is_scrapable_and_final_snapshot_is_exact() {
    let trials = 93u64;
    let obs = monitor_obs();
    let mon = monitor();
    let addr = mon.http_addr().expect("exporter bound");

    let cfg = tiny();
    let driver = std::thread::spawn({
        let cfg = cfg.clone();
        let obs = obs.clone();
        move || run_trials_observed(&cfg, 77, trials, TrialMode::Full, 2, &obs).0
    });

    // Scrape while the driver runs. The batch may appear and finish at
    // any point; what must hold is that every observed count for it is
    // monotone non-decreasing and the scrapes themselves always work.
    let mut seen = Vec::new();
    while !driver.is_finished() {
        let (head, status) = scrape(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        if let Some(entry) = batch_entry(&status, trials) {
            let idx = entry.get("batch").and_then(|v| v.as_f64()).unwrap() as u64;
            let (_, metrics) = scrape(addr, "/metrics");
            if let Some(n) = trials_counter(&metrics, idx) {
                seen.push(n);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let summary = driver.join().expect("driver thread");
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "trial counter went backwards: {seen:?}"
    );

    // `BatchHandle::finish` wrote the final snapshot synchronously, so
    // the file on disk already reflects the completed batch — and its
    // online estimate must equal the batch summary bit for bit.
    let body = std::fs::read_to_string(status_path()).expect("status file written");
    let entry = batch_entry(&body, trials).expect("our batch is in the file");
    assert_eq!(entry.get("done"), Some(&Json::Bool(true)));
    assert_eq!(
        entry.get("trials_done").and_then(|v| v.as_f64()),
        Some(trials as f64)
    );
    assert_eq!(
        entry.get("losses").and_then(|v| v.as_f64()),
        Some(summary.p_loss.successes as f64)
    );
    let p = entry.get("p_loss").and_then(|v| v.as_f64()).unwrap();
    assert_eq!(
        p.to_bits(),
        summary.p_loss.value().to_bits(),
        "online p_loss must equal the batch summary exactly"
    );
    let events = entry.get("events").and_then(|v| v.as_f64()).unwrap();
    let expected = (summary.events.mean() * summary.trials() as f64).round();
    assert_eq!(events, expected, "event counter matches the summary");
}

fn assert_running_identical(a: &Running, b: &Running, what: &str) {
    assert_eq!(a.count(), b.count(), "{what}: count");
    assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "{what}: mean");
    assert_eq!(a.min().to_bits(), b.min().to_bits(), "{what}: min");
    assert_eq!(a.max().to_bits(), b.max().to_bits(), "{what}: max");
}

fn assert_summaries_identical(a: &McSummary, b: &McSummary) {
    assert_eq!(a.trials(), b.trials());
    assert_eq!(a.p_loss.successes, b.p_loss.successes);
    assert_eq!(a.p_redirection.successes, b.p_redirection.successes);
    assert_running_identical(&a.failures, &b.failures, "failures");
    assert_running_identical(&a.rebuilds, &b.rebuilds, "rebuilds");
    assert_running_identical(&a.redirections, &b.redirections, "redirections");
    assert_running_identical(&a.lost_groups, &b.lost_groups, "lost_groups");
    assert_running_identical(&a.events, &b.events, "events");
    assert_eq!(a.vulnerability.to_compact(), b.vulnerability.to_compact());
    assert_eq!(a.queue_delay.to_compact(), b.queue_delay.to_compact());
    assert_eq!(a.fanout.to_compact(), b.fanout.to_compact());
}

#[test]
fn golden_results_and_artifacts_identical_with_monitor_on() {
    let cfg = tiny();
    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let tl_off = tmp.join(format!("farm-cm-golden-tl-off-{pid}.csv"));
    let tl_on = tmp.join(format!("farm-cm-golden-tl-on-{pid}.csv"));

    // Same batch, same timeline telemetry; the only difference is the
    // campaign monitor. Single-threaded so the comparison is exact.
    let timeline = |path: &std::path::Path| {
        Some(TimelineSpec {
            path: path.to_str().unwrap().to_string(),
            interval_secs: None,
        })
    };
    let off = ObsOptions {
        timeline: timeline(&tl_off),
        ..ObsOptions::off()
    };
    let on = ObsOptions {
        timeline: timeline(&tl_on),
        ..monitor_obs()
    };

    let (base, _) = run_trials_observed(&cfg, 2004, 6, TrialMode::Full, 1, &off);
    let (monitored, _) = run_trials_observed(&cfg, 2004, 6, TrialMode::Full, 1, &on);
    assert_summaries_identical(&base, &monitored);

    // The timeline artifact is byte-identical, monitor or not.
    let a = std::fs::read(&tl_off).expect("timeline (monitor off)");
    let b = std::fs::read(&tl_on).expect("timeline (monitor on)");
    std::fs::remove_file(&tl_off).ok();
    std::fs::remove_file(&tl_on).ok();
    assert!(a == b, "timeline artifact changed with the monitor on");
}
