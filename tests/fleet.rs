//! Fleet orchestration, end to end: the golden contract that a
//! fleet-merged campaign is **bit-identical** to a single-process run
//! over the same seed set — for any worker count, through the real
//! coordinator/worker processes, and across a killed-and-respawned
//! worker — plus exact-coverage accounting on resume (no seed gaps, no
//! double counting).

use farm_core::montecarlo::{n_chunks, run_trial_chunks_observed, run_trials_observed};
use farm_core::prelude::*;
use farm_experiments::cli::Options;
use farm_experiments::fleet::{self, campaign_fingerprint, fleet_config, load_result, plan_ranges};
use farm_obs::{Json, ObsOptions};
use std::path::{Path, PathBuf};
use std::process::Command;

const TRIALS: u64 = 16;
const SEED: u64 = 7;
const SCALE: f64 = 1.0 / 64.0;

fn opts() -> Options {
    let mut o = Options::quick_default();
    o.trials = TRIALS;
    o.seed = SEED;
    o.scale = SCALE;
    o.threads = 1;
    o
}

fn fleet_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("farm-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The single-process summary of a `trials`-trial campaign run on
/// `threads` threads, compact form.
fn single_process_compact(trials: u64, threads: usize) -> String {
    let o = opts();
    let (summary, _) = run_trials_observed(
        &fleet_config(&o),
        SEED,
        trials,
        TrialMode::UntilLoss,
        threads,
        &ObsOptions::off(),
    );
    summary.to_compact()
}

/// Golden merge test: partition the campaign as 2-, 3- and 4-worker
/// fleets would, run every range through the worker entry point (with
/// different thread counts, even), fold, and demand the exact bytes of
/// the single-process summary. The campaign sizes include one that is
/// not a multiple of `CHUNK_TRIALS`, so the ragged final chunk goes
/// through both entry points too.
#[test]
fn fleet_merge_matches_single_process_bit_for_bit() {
    let o = opts();
    let cfg = fleet_config(&o);
    for trials in [TRIALS, 19] {
        let reference = single_process_compact(trials, 1);
        assert_eq!(
            single_process_compact(trials, 3),
            reference,
            "{trials} trials: 3 threads diverged from 1"
        );
        for (workers, threads) in [(2usize, 2usize), (4, 1), (2, 3), (3, 1)] {
            let mut chunks = Vec::new();
            for (lo, hi) in plan_ranges(trials, workers) {
                chunks.extend(run_trial_chunks_observed(
                    &cfg,
                    SEED,
                    trials,
                    lo,
                    hi,
                    TrialMode::UntilLoss,
                    threads,
                    &ObsOptions::off(),
                ));
            }
            let merged = farm_core::montecarlo::fold_chunk_summaries(chunks, n_chunks(trials))
                .expect("exact coverage");
            assert_eq!(
                merged.to_compact(),
                reference,
                "{trials} trials: {workers}-worker fleet merge on {threads} threads diverged \
                 from the single-process run"
            );
        }
    }
}

fn fleet_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
}

/// A `workers`-worker coordinator for the test campaign in `dir`.
fn coordinator(dir: &Path, workers: usize) -> Command {
    let mut cmd = fleet_bin();
    cmd.args(["--workers", &workers.to_string(), "--no-dashboard"])
        .args(["--trials", &TRIALS.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--scale", &SCALE.to_string()])
        .args(["--threads", "1"])
        .arg("--fleet")
        .arg(dir)
        .env_remove("FARM_FLEET_CRASH_RANGE");
    cmd
}

fn run_coordinator(dir: &Path, workers: usize) -> std::process::Output {
    coordinator(dir, workers)
        .output()
        .expect("spawn fleet coordinator")
}

/// The merged `fleet-status.json` snapshot in `dir`.
fn snapshot(dir: &Path) -> Json {
    let snap = std::fs::read_to_string(dir.join("fleet-status.json")).unwrap();
    Json::parse(&snap).unwrap()
}

/// The merged `fleet-summary.txt` in `dir` holds the single-process bytes.
fn assert_single_process_summary(dir: &Path) {
    let merged = std::fs::read_to_string(dir.join("fleet-summary.txt")).unwrap();
    assert_eq!(merged.trim(), single_process_compact(TRIALS, 1));
}

/// The real processes: `--single` and a 2-worker coordinator produce
/// byte-identical summary files. `--single` gets `--quick` last: a mode
/// flag must not reset the trials, seed, scale or threads before it.
#[test]
fn fleet_binary_matches_single_binary() {
    let dir = fleet_dir("bin");
    let single = fleet_bin()
        .args(["--single", "--trials", &TRIALS.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--scale", &SCALE.to_string()])
        .args(["--threads", "1"])
        .arg("--fleet")
        .arg(&dir)
        .arg("--quick")
        .output()
        .expect("spawn fleet --single");
    assert!(single.status.success(), "--single failed: {single:?}");
    let out = run_coordinator(&dir, 2);
    assert!(out.status.success(), "coordinator failed: {out:?}");
    let single_sum = std::fs::read_to_string(dir.join("fleet-summary-single.txt")).unwrap();
    assert_eq!(single_sum.trim(), single_process_compact(TRIALS, 1));
    assert_single_process_summary(&dir);

    // The merged snapshot is valid fleet-status-v1 with consistent
    // totals: merged trials == sum over workers.
    let doc = snapshot(&dir);
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("fleet-status-v1")
    );
    let merged = doc.get("trials_done").and_then(Json::as_u64).unwrap();
    let by_worker: u64 = doc
        .get("workers")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("trials_done").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(merged, TRIALS);
    assert_eq!(merged, by_worker);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-one-worker resume: the crash hook aborts worker 0 mid-range on
/// its first attempt (no checkpoint — a SIGKILL stand-in). The
/// coordinator must respawn it and the final summary must still be the
/// single-process bytes, with checkpoints covering every chunk exactly
/// once.
#[test]
fn killed_worker_resumes_without_gaps_or_double_counts() {
    let dir = fleet_dir("crash");
    let out = coordinator(&dir, 2)
        .env("FARM_FLEET_CRASH_RANGE", "0:1")
        .output()
        .expect("spawn fleet coordinator");
    assert!(out.status.success(), "coordinator failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("died without a checkpoint; respawning"),
        "expected a respawn in:\n{stderr}"
    );

    assert_single_process_summary(&dir);

    // Exact coverage straight from the checkpoints: every chunk of the
    // campaign present exactly once across the range files.
    let o = opts();
    let fp = campaign_fingerprint(&fleet_config(&o), SEED, TRIALS, TrialMode::UntilLoss);
    let mut seen = Vec::new();
    for (lo, hi) in plan_ranges(TRIALS, 2) {
        let chunks = load_result(&dir, fp, lo, hi).expect("checkpoint valid after resume");
        seen.extend(chunks.iter().map(|&(c, _)| c));
    }
    seen.sort_unstable();
    let want: Vec<u64> = (0..n_chunks(TRIALS)).collect();
    assert_eq!(seen, want, "seed-range coverage broken after resume");

    // The snapshot records the respawn: worker 0 took two attempts.
    let doc = snapshot(&dir);
    let workers = doc.get("workers").and_then(Json::as_array).unwrap();
    assert_eq!(
        workers[0].get("attempts").and_then(Json::as_u64),
        Some(2),
        "crashed worker should have respawned once"
    );
    assert_eq!(workers[1].get("attempts").and_then(Json::as_u64), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A first coordinator "incarnation" that got as far as finishing
/// worker 0's range: run that range directly in worker mode. Returns the
/// range's checkpoint path.
fn finish_first_range(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let (lo, hi) = plan_ranges(TRIALS, 2)[0];
    let out = fleet_bin()
        .args(["--worker", "--range", &format!("{lo}:{hi}")])
        .args(["--trials", &TRIALS.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--scale", &SCALE.to_string()])
        .args(["--threads", "1"])
        .arg("--fleet")
        .arg(dir)
        .output()
        .expect("spawn fleet worker");
    assert!(out.status.success(), "worker failed: {out:?}");
    fleet::result_path(dir, lo, hi)
}

/// Restart a 2-worker coordinator on `dir` and check the merged bytes
/// and totals; returns the per-worker `attempts` and its stderr.
fn restart_coordinator(dir: &Path) -> (Vec<Option<u64>>, String) {
    let out = run_coordinator(dir, 2);
    assert!(out.status.success(), "coordinator failed: {out:?}");
    assert_single_process_summary(dir);
    let doc = snapshot(dir);
    // The totals still add up: nothing ran twice.
    assert_eq!(doc.get("trials_done").and_then(Json::as_u64), Some(TRIALS));
    let workers = doc.get("workers").and_then(Json::as_array).unwrap();
    assert!(workers
        .iter()
        .all(|w| w.get("done").and_then(Json::as_bool) == Some(true)));
    let attempts = workers
        .iter()
        .map(|w| w.get("attempts").and_then(Json::as_u64))
        .collect();
    (attempts, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Coordinator restart: ranges that already have a valid checkpoint
/// are not re-dispatched (attempts stays 0), in-flight ranges run, and
/// the merged bytes are unchanged — no double counting.
#[test]
fn coordinator_restart_skips_checkpointed_ranges() {
    let dir = fleet_dir("resume");
    finish_first_range(&dir);
    let (attempts, _) = restart_coordinator(&dir);
    // Checkpointed range: never spawned by the restarted coordinator.
    assert_eq!(attempts, [Some(0), Some(1)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Coordinator restart over a checkpoint cut short before its `done`
/// line (a partial write): the checkpoint is ignored with one warning,
/// the range runs again, and the merged bytes are unchanged.
#[test]
fn coordinator_restart_reruns_a_truncated_checkpoint() {
    let dir = fleet_dir("truncated");
    let path = finish_first_range(&dir);
    let body = std::fs::read_to_string(&path).unwrap();
    let cut = body.strip_suffix("done\n").expect("a complete checkpoint");
    std::fs::write(&path, cut).unwrap();
    let (attempts, stderr) = restart_coordinator(&dir);
    assert_eq!(attempts, [Some(1), Some(1)]);
    assert_eq!(
        stderr.matches("ignoring checkpoint").count(),
        1,
        "want one warning in:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing observer never stops the campaign: with the `--http` port
/// already held and `fleet-status.json` blocked by a directory, the
/// coordinator warns once for each, leaves no temp file behind, and
/// still writes the single-process summary.
#[test]
fn observer_failures_warn_once_and_the_campaign_finishes() {
    let dir = fleet_dir("observers");
    std::fs::create_dir_all(dir.join("fleet-status.json")).unwrap();
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    let out = coordinator(&dir, 2)
        .args(["--http", &addr])
        .output()
        .expect("spawn fleet coordinator");
    assert!(out.status.success(), "coordinator failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for warning in ["cannot serve HTTP on", "cannot write fleet snapshot"] {
        assert_eq!(
            stderr.matches(warning).count(),
            1,
            "want one {warning:?} in:\n{stderr}"
        );
    }
    assert_single_process_summary(&dir);
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    drop(held);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stale checkpoint from a *different* campaign (wrong fingerprint)
/// must be ignored, not merged.
#[test]
fn stale_checkpoint_from_other_campaign_is_ignored() {
    let o = opts();
    let cfg = fleet_config(&o);
    let fp = campaign_fingerprint(&cfg, SEED, TRIALS, TrialMode::UntilLoss);
    let other = campaign_fingerprint(&cfg, SEED + 1, TRIALS, TrialMode::UntilLoss);
    let dir = fleet_dir("stale");
    std::fs::create_dir_all(&dir).unwrap();
    let chunks = vec![(0u64, McSummary::new())];
    fleet::write_result(&dir, other, 0, 1, &chunks).unwrap();
    assert!(load_result(&dir, other, 0, 1).is_some());
    assert!(load_result(&dir, fp, 0, 1).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
