//! Recovery-span tracing contracts: spans never change results, the
//! `farm-spans-v1` artifact is deterministic across thread counts and
//! internally consistent (monotone phase timestamps, telescoping phase
//! durations), the Chrome trace export is well-formed JSON, and every
//! data-loss post-mortem carries a critical path whose phase durations
//! sum to the fatal vulnerability window.

use farm_core::prelude::*;
use farm_disk::latent::LatentConfig;
use farm_obs::fleet::Json;
use farm_obs::{ObsOptions, SpanFormat, SpansSpec};

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

/// Two-way mirroring with unscrubbed latent sector errors loses data
/// reliably — exercises every span outcome including the loss paths.
fn lossy() -> SystemConfig {
    SystemConfig {
        scheme: Scheme::two_way_mirroring(),
        group_user_bytes: 10 * GIB,
        latent: Some(LatentConfig {
            defects_per_drive_year: 1.0,
            scrub_interval: None,
        }),
        ..tiny()
    }
}

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("farm-spans-{tag}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

fn spans_obs(path: &str, format: SpanFormat) -> ObsOptions {
    ObsOptions {
        spans: Some(SpansSpec {
            path: path.to_string(),
            format,
        }),
        ..ObsOptions::off()
    }
}

fn read_and_remove(p: &str) -> String {
    let s = std::fs::read_to_string(p).expect("artifact written");
    std::fs::remove_file(p).ok();
    s
}

#[test]
fn span_recording_never_changes_the_lossy_summary() {
    let cfg = lossy();
    let path = tmp_path("golden.jsonl");
    let (base, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &ObsOptions::off());
    let (on, _) = run_trials_observed(
        &cfg,
        7,
        6,
        TrialMode::Full,
        1,
        &spans_obs(&path, SpanFormat::Jsonl),
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(base.trials(), on.trials());
    assert_eq!(base.p_loss.successes, on.p_loss.successes);
    assert_eq!(base.failures.mean().to_bits(), on.failures.mean().to_bits());
    assert_eq!(base.events.mean().to_bits(), on.events.mean().to_bits());
    // Compact histogram forms are lossless: string equality is bit
    // equality of the whole distribution, including the new phase
    // histograms (recorded unconditionally, spans on or off).
    assert_eq!(
        base.vulnerability.to_compact(),
        on.vulnerability.to_compact()
    );
    assert_eq!(base.queue_delay.to_compact(), on.queue_delay.to_compact());
    assert_eq!(base.detect_lag.to_compact(), on.detect_lag.to_compact());
    assert_eq!(base.transfer.to_compact(), on.transfer.to_compact());
}

#[test]
fn spans_artifact_is_byte_identical_across_thread_counts() {
    let cfg = lossy();
    let (p_seq, p_par) = (tmp_path("seq.jsonl"), tmp_path("par.jsonl"));
    let (a, _) = run_trials_observed(
        &cfg,
        42,
        8,
        TrialMode::Full,
        1,
        &spans_obs(&p_seq, SpanFormat::Jsonl),
    );
    let (b, _) = run_trials_observed(
        &cfg,
        42,
        8,
        TrialMode::Full,
        4,
        &spans_obs(&p_par, SpanFormat::Jsonl),
    );
    assert_eq!(a.p_loss.successes, b.p_loss.successes);
    let (seq, par) = (read_and_remove(&p_seq), read_and_remove(&p_par));
    assert!(!seq.is_empty(), "lossy config produces spans");
    assert_eq!(seq, par, "spans artifact differs by thread count");

    // Every row is schema-conformant and internally consistent.
    let outcomes = ["rebuilt", "loss_disk", "loss_latent", "truncated"];
    let (mut spans, mut bw) = (0u64, 0u64);
    for line in seq.lines() {
        let row = Json::parse(line).expect("span row parses");
        let num = |k: &str| row.get(k).and_then(Json::as_f64);
        match row.get("schema").and_then(Json::as_str) {
            Some("farm-spans-v1") => {
                spans += 1;
                let outcome = row.get("outcome").and_then(Json::as_str).unwrap();
                assert!(outcomes.contains(&outcome), "{line}");
                // Phase timestamps are monotone where present (a null
                // means the span never reached that phase). `t_start`
                // is the *planned* transfer start, so a span that dies
                // while queued legitimately has t_end < t_start; t_end
                // must only follow t_start once a transfer actually ran.
                let t_fail = num("t_fail").expect("t_fail");
                let t_end = num("t_end").expect("t_end");
                let mut last = t_fail;
                for k in ["t_detect", "t_start"] {
                    if let Some(t) = num(k) {
                        assert!(t >= last, "{k} not monotone: {line}");
                        last = t;
                    }
                }
                assert!(t_end >= t_fail, "t_end precedes t_fail: {line}");
                if let Some(td) = num("t_detect") {
                    assert!(t_end >= td, "t_end precedes t_detect: {line}");
                }
                if num("transfer_secs").unwrap() > 0.0 {
                    if let Some(ts) = num("t_start") {
                        assert!(t_end >= ts, "transfer ran before t_start: {line}");
                    }
                }
                // Phase durations telescope to the whole window.
                let sum = num("detect_secs").unwrap()
                    + num("queue_secs").unwrap()
                    + num("transfer_secs").unwrap();
                let window = t_end - t_fail;
                assert!(
                    (sum - window).abs() <= 1e-6 * window.max(1.0),
                    "phases don't telescope: {line}"
                );
                assert!(num("bytes").unwrap() >= 0.0, "{line}");
            }
            Some("farm-spans-bw-v1") => {
                bw += 1;
                let res = row.get("resource").and_then(Json::as_str).unwrap();
                assert!(res == "disk" || res == "group", "{line}");
                assert!(num("busy_secs").unwrap() >= 0.0, "{line}");
                assert!(num("bytes_read").unwrap() >= 0.0, "{line}");
                assert!(num("bytes_written").unwrap() >= 0.0, "{line}");
            }
            other => panic!("unknown schema {other:?}: {line}"),
        }
    }
    assert!(spans > 0, "span rows present");
    assert!(bw > 0, "bandwidth-attribution rows present");
}

#[test]
fn chrome_trace_export_is_well_formed_json() {
    let cfg = tiny();
    let path = tmp_path("trace.json");
    run_trials_observed(
        &cfg,
        2004,
        3,
        TrialMode::Full,
        1,
        &spans_obs(&path, SpanFormat::Chrome),
    );
    let body = read_and_remove(&path);
    let doc = Json::parse(&body).expect("chrome trace parses as one JSON document");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        assert!(ev.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        assert!(ev.get("pid").and_then(Json::as_f64).is_some());
        assert!(ev.get("tid").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn critical_path_sums_to_the_fatal_window() {
    // Every data-loss post-mortem gains a critical-path breakdown when
    // spans are on, and its phase durations sum exactly to the fatal
    // vulnerability window (first failure -> loss instant).
    let cfg = lossy();
    let pm = tmp_path("cp-pm.jsonl");
    let sp = tmp_path("cp-spans.jsonl");
    let obs = ObsOptions {
        postmortem: Some(pm.clone()),
        ..spans_obs(&sp, SpanFormat::Jsonl)
    };
    let (summary, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 2, &obs);
    std::fs::remove_file(&sp).ok();
    let body = read_and_remove(&pm);
    assert!(summary.p_loss.successes > 0, "lossy config must lose data");
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "losses must produce post-mortems");
    for line in &lines {
        let doc = Json::parse(line).expect("post-mortem parses");
        let cp = doc
            .get("critical_path")
            .unwrap_or_else(|| panic!("post-mortem lacks critical path: {line}"));
        let num = |k: &str| cp.get(k).and_then(Json::as_f64).expect(k);
        let window = num("window_secs");
        let (d, q, t) = (num("detect_secs"), num("queue_secs"), num("transfer_secs"));
        assert!(window > 0.0, "{line}");
        assert!(d >= 0.0 && q >= 0.0 && t >= 0.0, "{line}");
        assert!(
            (d + q + t - window).abs() <= 1e-6 * window.max(1.0),
            "critical path doesn't telescope: {line}"
        );
        let dominant = cp.get("dominant").and_then(Json::as_str).expect("dominant");
        assert!(
            ["detect", "queue", "transfer"].contains(&dominant),
            "{line}"
        );
        // `dominant` really is the largest contributor.
        let max = d.max(q).max(t);
        let named = match dominant {
            "detect" => d,
            "queue" => q,
            _ => t,
        };
        assert_eq!(named.to_bits(), max.to_bits(), "{line}");
    }
}
