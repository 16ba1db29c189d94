//! Cluster-state telemetry contracts: timeline shape and determinism,
//! post-mortem causal chains, and trial tracing (sampled and loss-only).
//!
//! Everything here rides on the observability invariant pinned by
//! `tests/observability.rs` — telemetry never changes results — and
//! checks the artifacts themselves: row counts, cross-thread file
//! identity, and that a post-mortem's chain ends in the exact event
//! that dropped the group below `m`.

use farm_core::prelude::*;
use farm_disk::latent::LatentConfig;
use farm_obs::{
    Json, ObsOptions, SpanFormat, SpansSpec, TimelineSpec, TraceSel, TraceSpec, GAUGES, N_GAUGES,
};
use std::collections::{BTreeMap, BTreeSet};

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
/// reliably — the source of guaranteed post-mortems.
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
        .join(format!("farm-telemetry-{tag}-{}", std::process::id()))
        .to_str()
        .unwrap()
        .to_string()
}

fn obs_with_timeline(path: &str, interval_secs: Option<f64>) -> ObsOptions {
    ObsOptions {
        timeline: Some(TimelineSpec {
            path: path.to_string(),
            interval_secs,
        }),
        ..ObsOptions::off()
    }
}

#[test]
fn timeline_rows_follow_the_documented_schema() {
    let cfg = tiny();
    let path = tmp_path("schema.csv");
    // One sample per simulated month over the 6-year horizon.
    let month = farm_des::time::SECONDS_PER_MONTH;
    let obs = obs_with_timeline(&path, Some(month));
    let n_samples = (cfg.sim_duration().as_secs() / month).floor() as usize;
    assert_eq!(n_samples, 72, "6 years of monthly samples");

    run_trials_observed(&cfg, 2004, 3, TrialMode::Full, 1, &obs);
    let body = std::fs::read_to_string(&path).expect("timeline written");
    std::fs::remove_file(&path).ok();

    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(
        lines[0],
        "batch,sample,t_secs,gauge,trials,mean,p10,p90,min,max"
    );
    // Row count: one line per (sample instant, gauge), every trial
    // contributing duration/interval rows.
    assert_eq!(lines.len(), 1 + n_samples * N_GAUGES);
    for (i, line) in lines[1..].iter().enumerate() {
        let f: Vec<&str> = line.split(',').collect();
        assert_eq!(f.len(), 10, "field count: {line}");
        assert_eq!(f[0], "0", "single batch: {line}");
        // Samples are contiguous, 1-based, with all gauges per sample.
        assert_eq!(f[1].parse::<usize>().unwrap(), i / N_GAUGES + 1, "{line}");
        assert_eq!(f[3], GAUGES[i % N_GAUGES], "{line}");
        assert_eq!(f[4], "3", "every trial pooled: {line}");
        let t: f64 = f[2].parse().unwrap();
        assert!(
            (t - (i / N_GAUGES + 1) as f64 * month).abs() < 1e-6,
            "{line}"
        );
        let (mean, p10, p90) = (
            f[5].parse::<f64>().unwrap(),
            f[6].parse::<f64>().unwrap(),
            f[7].parse::<f64>().unwrap(),
        );
        let (min, max) = (f[8].parse::<f64>().unwrap(), f[9].parse::<f64>().unwrap());
        assert!(min <= p10 && p10 <= p90 && p90 <= max, "band order: {line}");
        assert!((0.0..=max).contains(&mean), "mean in range: {line}");
    }
}

#[test]
fn telemetry_files_are_identical_across_thread_counts() {
    // Artifacts are merged in trial order, so the exported files are
    // bit-identical no matter how trials were scheduled over workers.
    let cfg = lossy();
    let (tl_seq, tl_par) = (tmp_path("seq.csv"), tmp_path("par.csv"));
    let (pm_seq, pm_par) = (tmp_path("seq.jsonl"), tmp_path("par.jsonl"));
    let mk = |tl: &str, pm: &str| ObsOptions {
        postmortem: Some(pm.to_string()),
        ..obs_with_timeline(tl, None)
    };
    let (a, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 1, &mk(&tl_seq, &pm_seq));
    let (b, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 4, &mk(&tl_par, &pm_par));
    assert_eq!(a.p_loss.successes, b.p_loss.successes);

    let read = |p: &str| {
        let s = std::fs::read_to_string(p).expect("artifact written");
        std::fs::remove_file(p).ok();
        s
    };
    assert_eq!(
        read(&tl_seq),
        read(&tl_par),
        "timeline differs by thread count"
    );
    assert_eq!(
        read(&pm_seq),
        read(&pm_par),
        "post-mortems differ by thread count"
    );
}

#[test]
fn timeline_artifact_is_byte_identical_for_recycled_workspaces() {
    // Workspace recycling must not disturb telemetry: the rendered
    // timeline body built from recycled simulations equals, byte for
    // byte, the one built from freshly constructed simulations.
    use farm_core::PreparedConfig;
    use farm_obs::{TimelineBands, TimelineRecorder};
    use std::sync::Arc;

    let cfg = lossy();
    let duration = cfg.sim_duration().as_secs();
    let month = farm_des::time::SECONDS_PER_MONTH;

    let prepared = Arc::new(PreparedConfig::new(cfg.clone()));
    let mut ws = farm_core::TrialWorkspace::with_reuse(true);
    let mut recycled_bands = TimelineBands::new();
    let mut fresh_bands = TimelineBands::new();
    for t in 0..4u64 {
        let seed = farm_des::rng::derive_seed(42, t);
        let sim = ws.obtain(&prepared, seed);
        sim.set_timeline(TimelineRecorder::new(month, duration));
        let _ = sim.run();
        recycled_bands.add_trial(&sim.take_timeline().expect("timeline"));

        let mut fresh = Simulation::new(cfg.clone(), seed);
        fresh.set_timeline(TimelineRecorder::new(month, duration));
        let _ = fresh.run();
        fresh_bands.add_trial(&fresh.take_timeline().expect("timeline"));
    }
    assert_eq!(
        recycled_bands.render(0, false, true),
        fresh_bands.render(0, false, true),
        "recycled timeline artifact diverges from fresh"
    );
}

#[test]
fn postmortem_chain_ends_in_the_fatal_event() {
    let cfg = lossy();
    let path = tmp_path("pm.jsonl");
    let obs = ObsOptions {
        postmortem: Some(path.clone()),
        ..ObsOptions::off()
    };
    let (summary, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 2, &obs);
    let body = std::fs::read_to_string(&path).expect("post-mortems written");
    std::fs::remove_file(&path).ok();

    assert!(summary.p_loss.successes > 0, "lossy config must lose data");
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "losses must produce post-mortems");
    for line in &lines {
        assert!(
            line.starts_with("{\"trial\":") && line.ends_with("]}"),
            "{line}"
        );
        // The chain's last event must be the one that dropped the
        // group below m: a `failure` for cause disk_failure, a
        // `latent` read trip for cause latent_read_error.
        let cause = line
            .split("\"cause\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("cause field");
        let last_ev = line
            .rsplit("\"ev\":\"")
            .next()
            .and_then(|s| s.split('"').next())
            .expect("chain events");
        match cause {
            "disk_failure" => assert_eq!(last_ev, "failure", "{line}"),
            "latent_read_error" => assert_eq!(last_ev, "latent", "{line}"),
            other => panic!("unknown cause {other:?}: {line}"),
        }
        assert!(line.contains("\"chain\":[{"), "chain is non-empty: {line}");
    }
}

#[test]
fn loss_trace_mode_keeps_exactly_the_losing_trials() {
    let cfg = lossy();
    let path = tmp_path("loss-trace.jsonl");
    let obs = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(path.clone()),
        }),
        ..ObsOptions::off()
    };
    let trials = 8;
    let (summary, _) = run_trials_observed(&cfg, 42, trials, TrialMode::Full, 2, &obs);
    let body = std::fs::read_to_string(&path).expect("loss traces written");
    std::fs::remove_file(&path).ok();

    // Every trace ends in a trial_end record reporting lost groups, and
    // the set of traced trials is exactly the set of losing trials.
    let mut traced = std::collections::BTreeSet::new();
    let mut ends = 0u64;
    for line in body.lines() {
        let trial: u64 = line
            .strip_prefix("{\"trial\":")
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("trial field");
        traced.insert(trial);
        if line.contains("\"ev\":\"trial_end\"") {
            ends += 1;
            assert!(
                !line.contains("\"lost_groups\":0"),
                "non-losing trial kept: {line}"
            );
        }
    }
    assert!(summary.p_loss.successes > 0, "lossy config must lose data");
    assert_eq!(traced.len() as u64, summary.p_loss.successes);
    assert_eq!(
        ends, summary.p_loss.successes,
        "one trial_end per losing trial"
    );
}

#[test]
fn full_telemetry_never_changes_the_lossy_summary() {
    // The golden bit-identity test for the loss-heavy path: timeline +
    // flight recorder + post-mortems + loss tracing all on.
    let cfg = lossy();
    let tl = tmp_path("golden.csv");
    let pm = tmp_path("golden-pm.jsonl");
    let tr = tmp_path("golden-tr.jsonl");
    let on = ObsOptions {
        profile: true,
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(tr.clone()),
        }),
        postmortem: Some(pm.clone()),
        ..obs_with_timeline(&tl, None)
    };
    let (base, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &ObsOptions::off());
    let (full, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &on);
    for p in [&tl, &pm, &tr] {
        std::fs::remove_file(p).ok();
    }
    assert_eq!(base.trials(), full.trials());
    assert_eq!(base.p_loss.successes, full.p_loss.successes);
    assert_eq!(
        base.failures.mean().to_bits(),
        full.failures.mean().to_bits()
    );
    assert_eq!(base.events.mean().to_bits(), full.events.mean().to_bits());
    // Compact histogram forms are lossless: string equality is bit
    // equality of the whole distribution.
    assert_eq!(
        base.vulnerability.to_compact(),
        full.vulnerability.to_compact()
    );
    assert_eq!(base.queue_delay.to_compact(), full.queue_delay.to_compact());
    assert_eq!(base.fanout.to_compact(), full.fanout.to_compact());
}

#[test]
fn sampled_trial_trace_appends_every_batch_in_order() {
    // A process runs many batches against one trace path: like every
    // other artifact, the first batch truncates and later ones append,
    // so the file holds each batch's sampled trial in batch order.
    let cfg = tiny();
    let path = tmp_path("sampled.jsonl");
    let obs = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Trial(0),
            path: Some(path.clone()),
        }),
        ..ObsOptions::off()
    };
    let horizon = cfg.sim_duration().as_secs();
    let mut expected = Vec::new();
    for seed in [3, 4] {
        run_trials_observed(&cfg, seed, 2, TrialMode::Full, 1, &obs);
        let m = run_trial(&cfg, seed, 0, TrialMode::Full);
        expected.push(format!(
            "{{\"trial\":0,\"t\":{horizon:.3},\"ev\":\"trial_end\",\"failures\":{},\
             \"rebuilds\":{},\"redirections\":{},\"lost_groups\":{}}}",
            m.disk_failures, m.rebuilds_completed, m.redirections, m.lost_groups
        ));
    }
    let body = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    assert_ne!(expected[0], expected[1], "the batches must be told apart");
    let ends: Vec<&str> = body
        .lines()
        .filter(|l| l.contains("\"ev\":\"trial_end\""))
        .collect();
    assert_eq!(ends, expected);
}

#[test]
fn every_loss_is_traced_post_mortemed_and_span_closed() {
    // Both loss causes — disk failure and latent read error — emit one
    // `loss` trace record, one post-mortem and loss-outcome spans for
    // the dying group, so per trial the three counts agree.
    let cfg = lossy();
    let (tr, pm, sp) = (
        tmp_path("all-loss-tr.jsonl"),
        tmp_path("all-loss-pm.jsonl"),
        tmp_path("all-loss-sp.jsonl"),
    );
    let obs = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(tr.clone()),
        }),
        postmortem: Some(pm.clone()),
        spans: Some(SpansSpec {
            path: sp.clone(),
            format: SpanFormat::Jsonl,
        }),
        ..ObsOptions::off()
    };
    let (summary, _) = run_trials_observed(&cfg, 42, 8, TrialMode::Full, 2, &obs);
    let read = |p: &str| {
        let s = std::fs::read_to_string(p).expect("artifact written");
        std::fs::remove_file(p).ok();
        s
    };
    let (tr, pm, sp) = (read(&tr), read(&pm), read(&sp));
    assert!(summary.p_loss.successes > 0, "lossy config must lose data");
    assert!(
        pm.contains("\"cause\":\"latent_read_error\""),
        "the latent loss path must be exercised"
    );

    let num = |row: &Json, k: &str| row.get(k).and_then(Json::as_f64).expect(k) as u64;
    let mut traced: BTreeMap<u64, u64> = BTreeMap::new();
    for line in tr.lines().filter(|l| l.contains("\"ev\":\"loss\"")) {
        let row = Json::parse(line).expect("trace record parses");
        *traced.entry(num(&row, "trial")).or_default() += 1;
    }
    let mut post_mortems: BTreeMap<u64, u64> = BTreeMap::new();
    for line in pm.lines() {
        let row = Json::parse(line).expect("post-mortem parses");
        *post_mortems.entry(num(&row, "trial")).or_default() += 1;
    }
    let mut lost_groups: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for line in sp.lines() {
        let row = Json::parse(line).expect("span row parses");
        let outcome = row.get("outcome").and_then(Json::as_str).unwrap_or("");
        if outcome.starts_with("loss_") {
            lost_groups
                .entry(num(&row, "trial"))
                .or_default()
                .insert(num(&row, "group"));
        }
    }
    let span_losses: BTreeMap<u64, u64> = lost_groups
        .into_iter()
        .map(|(t, g)| (t, g.len() as u64))
        .collect();
    assert!(!traced.is_empty());
    assert_eq!(traced, post_mortems, "loss trace records vs post-mortems");
    assert_eq!(
        traced, span_losses,
        "loss trace records vs lost span groups"
    );
}

#[test]
fn too_fine_a_timeline_is_dropped_for_the_batch() {
    // An interval asking for more rows than a trial may hold must not
    // abort on allocation: the batch runs without a timeline, with
    // results identical to the telemetry-off run.
    let cfg = tiny();
    let path = tmp_path("too-fine.csv");
    let obs = obs_with_timeline(&path, Some(1e-9));
    let (base, _) = run_trials_observed(&cfg, 9, 4, TrialMode::Full, 1, &ObsOptions::off());
    let (fine, _) = run_trials_observed(&cfg, 9, 4, TrialMode::Full, 1, &obs);
    assert_eq!(base.to_compact(), fine.to_compact());
    assert!(
        !std::path::Path::new(&path).exists(),
        "no timeline is written"
    );
}

#[test]
fn full_disk_artifact_writes_warn_once_and_keep_the_summary() {
    // A sink whose writes fail (here: every write to /dev/full) must
    // warn once and leave the batch's results alone — never drop the
    // artifact silently.
    let full = "/dev/full";
    if !std::path::Path::new(full).exists() {
        eprintln!("skipped: {full} is absent on this host");
        return;
    }
    let cfg = lossy();
    let on = ObsOptions {
        trace: Some(TraceSpec {
            sel: TraceSel::Loss,
            path: Some(full.to_string()),
        }),
        postmortem: Some(full.to_string()),
        spans: Some(SpansSpec {
            path: full.to_string(),
            format: SpanFormat::Jsonl,
        }),
        ..obs_with_timeline(full, None)
    };
    let (base, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &ObsOptions::off());
    let (got, _) = run_trials_observed(&cfg, 7, 6, TrialMode::Full, 1, &on);
    assert!(base.p_loss.successes > 0, "the batch must lose data");
    assert_eq!(base.to_compact(), got.to_compact());
    for sink in ["timeline", "post-mortem", "spans", "trace"] {
        assert!(
            farm_obs::diag::warned(&format!("{sink}-write")),
            "no warning for the failed {sink} write"
        );
    }
}
