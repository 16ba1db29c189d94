//! Fleet-scale campaign orchestration: one binary becomes a fleet.
//!
//! The coordinator shards a campaign's reduction chunks across N worker
//! *processes* (the same binary re-executed in `--worker` mode), reads
//! each worker's `farm-status-v1` status file (`FARM_STATUS`, rewritten
//! every 0.2 s) on every poll, and merges the per-worker telemetry into
//! a `fleet-status-v1` snapshot, an aggregated `/metrics` + `/status`
//! exporter and a rate-limited stderr dashboard (see
//! [`farm_obs::fleet`]). Observer failures — a port already taken, an
//! unwritable snapshot path — warn once and never stop the campaign.
//!
//! Correctness contract — the headline invariant of the fleet path:
//!
//! * Work is partitioned on *reduction-chunk* boundaries
//!   ([`farm_core::montecarlo::CHUNK_TRIALS`] trials per chunk), and
//!   workers report per-chunk summaries **unfolded**. The coordinator
//!   folds every chunk of the whole campaign in ascending order with
//!   [`fold_chunk_summaries`], so the fleet-merged [`McSummary`] is
//!   **bit-identical** to a single-process
//!   [`run_trials_observed`](farm_core::montecarlo::run_trials_observed)
//!   over the same seed set — `Running::merge` is not associative, so
//!   no other grouping would be.
//! * Each completed chunk range is checkpointed atomically
//!   (`range-<LO>-<HI>.result`, temp + rename) in the
//!   `farm-worker-result-v1` format below. On coordinator restart,
//!   ranges with a valid checkpoint are skipped and in-flight ranges
//!   are re-dispatched; [`fold_chunk_summaries`] rejects both gaps and
//!   duplicates, so a crashed or double-spawned worker can never skew
//!   the merged estimate silently.
//!
//! Checkpoint format (`farm-worker-result-v1`):
//!
//! ```text
//! farm-worker-result-v1
//! fingerprint=8a1f0c…        # FNV-1a 64 of config+seed+trials+chunking+mode
//! range=12:24                # chunk indices [lo, hi)
//! chunk=12 mc1|p_loss=p1;s=0;t=8|…
//! …
//! done                       # terminator: absent => partial write, invalid
//! ```
//!
//! The fingerprint pins the checkpoint to one exact campaign: a stale
//! file from a different config, seed, trial count or chunking scheme
//! is ignored and the range re-runs.

use crate::base_config;
use crate::cli::Options;
use farm_core::montecarlo::{
    chunk_bounds, fold_chunk_summaries, n_chunks, run_trial_chunks_observed, run_trials_observed,
    CHUNK_TRIALS,
};
use farm_core::prelude::*;
use farm_obs::{write_atomic, FleetMonitor, Json, WorkerView};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration as StdDuration;

/// Respawn budget per range: the first launch plus two retries.
pub const MAX_ATTEMPTS: u32 = 3;

/// Coordinator poll cadence.
const POLL_INTERVAL: StdDuration = StdDuration::from_millis(150);

/// The fleet campaign's configuration: the Figure 3 slice (first
/// figure-3 scheme, 100 GiB groups, zero detection latency, FARM
/// recovery) at the run's scale. One fixed config keeps the fleet
/// protocol simple — sharding happens over seeds, not configs.
pub fn fleet_config(opts: &Options) -> SystemConfig {
    SystemConfig {
        scheme: Scheme::figure3_schemes()[0],
        group_user_bytes: 100 * GIB,
        detection_latency: Duration::ZERO,
        recovery: RecoveryPolicy::Farm,
        ..base_config(opts)
    }
}

/// FNV-1a 64 over everything that determines a chunk's summary: the
/// full config (via `Debug`, which covers every field), the master
/// seed, the campaign size, the chunking constant and the trial mode.
/// Any drift re-keys the checkpoint namespace.
pub fn campaign_fingerprint(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
) -> u64 {
    let text =
        format!("{cfg:?}|seed={master_seed}|trials={trials}|chunk={CHUNK_TRIALS}|mode={mode:?}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Partition the campaign's `n_chunks(trials)` reduction chunks into
/// (at most) `workers` contiguous chunk ranges `[lo, hi)`, as evenly
/// as an integer split allows. Never returns an empty range; with more
/// workers than chunks the surplus workers simply aren't spawned.
pub fn plan_ranges(trials: u64, workers: usize) -> Vec<(u64, u64)> {
    let total = n_chunks(trials);
    if total == 0 {
        return Vec::new();
    }
    let w = (workers.max(1) as u64).min(total);
    let base = total / w;
    let rem = total % w;
    let mut ranges = Vec::with_capacity(w as usize);
    let mut lo = 0u64;
    for i in 0..w {
        let len = base + u64::from(i < rem);
        ranges.push((lo, lo + len));
        lo += len;
    }
    debug_assert_eq!(lo, total);
    ranges
}

// ---------------------------------------------------------------------
// Checkpoint files (farm-worker-result-v1).
// ---------------------------------------------------------------------

/// Checkpoint path for chunk range `[lo, hi)` under the fleet dir.
pub fn result_path(dir: &Path, lo: u64, hi: u64) -> PathBuf {
    dir.join(format!("range-{lo}-{hi}.result"))
}

/// Serialise a completed range: version line, fingerprint, range, one
/// `chunk=` line per chunk summary, `done` terminator.
pub fn render_result(fingerprint: u64, lo: u64, hi: u64, chunks: &[(u64, McSummary)]) -> String {
    let mut out = String::with_capacity(256 + chunks.len() * 600);
    out.push_str("farm-worker-result-v1\n");
    let _ = writeln!(out, "fingerprint={fingerprint:016x}");
    let _ = writeln!(out, "range={lo}:{hi}");
    for (c, s) in chunks {
        let _ = writeln!(out, "chunk={c} {}", s.to_compact());
    }
    out.push_str("done\n");
    out
}

/// Atomically write the checkpoint for range `[lo, hi)`, so a reader
/// (the coordinator, or a future resume) never observes a partial
/// checkpoint.
pub fn write_result(
    dir: &Path,
    fingerprint: u64,
    lo: u64,
    hi: u64,
    chunks: &[(u64, McSummary)],
) -> io::Result<()> {
    write_atomic(
        result_path(dir, lo, hi),
        render_result(fingerprint, lo, hi, chunks),
    )
}

/// Parse and validate a checkpoint body against the expected
/// fingerprint and range. Valid means: right version, right
/// fingerprint, right range, `done` terminator present, and the chunk
/// indices are exactly `lo..hi`, each exactly once. Anything else is an
/// error and the range re-runs.
pub fn parse_result(
    body: &str,
    fingerprint: u64,
    lo: u64,
    hi: u64,
) -> Result<Vec<(u64, McSummary)>, String> {
    let mut lines = body.lines();
    if lines.next() != Some("farm-worker-result-v1") {
        return Err("missing farm-worker-result-v1 header".into());
    }
    let fp_line = lines.next().unwrap_or_default();
    let fp = fp_line
        .strip_prefix("fingerprint=")
        .ok_or("missing fingerprint line")?;
    if fp != format!("{fingerprint:016x}") {
        return Err(format!(
            "fingerprint mismatch: campaign {fingerprint:016x}, checkpoint {fp}"
        ));
    }
    let range_line = lines.next().unwrap_or_default();
    if range_line != format!("range={lo}:{hi}") {
        return Err(format!(
            "range mismatch: want range={lo}:{hi}, got {range_line}"
        ));
    }
    let mut chunks: Vec<(u64, McSummary)> = Vec::with_capacity((hi - lo) as usize);
    let mut terminated = false;
    for line in lines {
        if line == "done" {
            terminated = true;
            break;
        }
        let rest = line
            .strip_prefix("chunk=")
            .ok_or("unexpected line in checkpoint")?;
        let (idx, compact) = rest.split_once(' ').ok_or("malformed chunk line")?;
        let idx: u64 = idx.parse().map_err(|_| "bad chunk index".to_string())?;
        let summary = McSummary::from_compact(compact)?;
        chunks.push((idx, summary));
    }
    if !terminated {
        return Err("missing done terminator (partial checkpoint)".into());
    }
    if chunks.len() as u64 != hi - lo {
        return Err(format!("expected {} chunks, got {}", hi - lo, chunks.len()));
    }
    let mut sorted: Vec<u64> = chunks.iter().map(|&(c, _)| c).collect();
    sorted.sort_unstable();
    for (i, c) in sorted.iter().enumerate() {
        if *c != lo + i as u64 {
            return Err(format!("chunk coverage broken at index {c}"));
        }
    }
    Ok(chunks)
}

/// Read + validate the checkpoint for range `[lo, hi)`; `None` when
/// absent or invalid (the range then (re-)runs).
pub fn load_result(
    dir: &Path,
    fingerprint: u64,
    lo: u64,
    hi: u64,
) -> Option<Vec<(u64, McSummary)>> {
    let body = std::fs::read_to_string(result_path(dir, lo, hi)).ok()?;
    match parse_result(&body, fingerprint, lo, hi) {
        Ok(chunks) => Some(chunks),
        Err(why) => {
            farm_obs::diag::warn_once(
                &format!("fleet-checkpoint-{lo}-{hi}"),
                &format!("fleet: ignoring checkpoint range-{lo}-{hi}.result: {why}"),
            );
            None
        }
    }
}

// ---------------------------------------------------------------------
// Worker mode.
// ---------------------------------------------------------------------

/// Deterministic crash hook for the resume tests and the CI fleet-smoke
/// job: when `FARM_FLEET_CRASH_RANGE=LO:HI` names this worker's range
/// and this is the range's first attempt, the worker runs exactly one
/// chunk and aborts *without* writing its checkpoint — simulating a
/// SIGKILL mid-range. The respawned attempt runs the whole range.
fn crash_requested(lo: u64, hi: u64) -> bool {
    let Ok(spec) = std::env::var("FARM_FLEET_CRASH_RANGE") else {
        return false;
    };
    if spec != format!("{lo}:{hi}") {
        return false;
    }
    std::env::var("FARM_FLEET_ATTEMPT").as_deref() == Ok("1")
}

/// Worker-mode entry point: run chunk range `[lo, hi)` of the fleet
/// campaign and atomically checkpoint the per-chunk summaries.
/// Its status file comes from the `FARM_STATUS` environment the
/// coordinator set up.
pub fn run_worker(opts: &Options, dir: &Path, lo: u64, hi: u64) -> io::Result<()> {
    let cfg = fleet_config(opts);
    let fingerprint = campaign_fingerprint(&cfg, opts.seed, opts.trials, TrialMode::UntilLoss);
    let obs = farm_obs::ObsOptions::from_env();
    if crash_requested(lo, hi) {
        let first = (lo + 1).min(hi);
        let _ = run_trial_chunks_observed(
            &cfg,
            opts.seed,
            opts.trials,
            lo,
            first,
            TrialMode::UntilLoss,
            opts.threads,
            &obs,
        );
        // No checkpoint: the coordinator must observe a died-mid-range
        // worker and re-dispatch the whole range.
        std::process::abort();
    }
    let chunks = run_trial_chunks_observed(
        &cfg,
        opts.seed,
        opts.trials,
        lo,
        hi,
        TrialMode::UntilLoss,
        opts.threads,
        &obs,
    );
    write_result(dir, fingerprint, lo, hi, &chunks)
}

// ---------------------------------------------------------------------
// Coordinator mode.
// ---------------------------------------------------------------------

/// One worker slot the coordinator tracks. `view.range_lo/hi` are in
/// trials (what the dashboard and snapshot show); `chunk_lo/hi` is the
/// same range in reduction-chunk units (what the worker is told).
struct Slot {
    view: WorkerView,
    chunk_lo: u64,
    chunk_hi: u64,
    child: Option<Child>,
    status_path: PathBuf,
}

/// Exact counters for a validated range: trials, losses, and total
/// simulated events, recomputed from the checkpoint's own summaries so
/// a finished worker's row never depends on poll timing.
fn exact_counters(chunks: &[(u64, McSummary)]) -> (u64, u64, u64) {
    let (mut trials, mut losses, mut events) = (0u64, 0u64, 0.0f64);
    for (_, s) in chunks {
        trials += s.p_loss.trials;
        losses += s.p_loss.successes;
        events += s.events.mean() * s.events.count() as f64;
    }
    (trials, losses, events.round() as u64)
}

fn spawn_worker(bin: &Path, opts: &Options, dir: &Path, slot: &mut Slot) -> io::Result<()> {
    slot.view.attempts += 1;
    let attempt = slot.view.attempts;
    slot.status_path = dir.join(format!(
        "worker-{}.attempt{attempt}.status.json",
        slot.view.worker
    ));
    let mut cmd = Command::new(bin);
    cmd.arg("--worker")
        .arg("--range")
        .arg(format!("{}:{}", slot.chunk_lo, slot.chunk_hi))
        .arg("--trials")
        .arg(opts.trials.to_string())
        .arg("--seed")
        .arg(opts.seed.to_string())
        .arg("--threads")
        .arg(opts.threads.to_string())
        .arg("--scale")
        .arg(opts.scale.to_string())
        .arg("--fleet")
        .arg(dir)
        .env("FARM_STATUS", format!("{}@0.2", slot.status_path.display()))
        .env("FARM_FLEET_ATTEMPT", attempt.to_string())
        // No progress bars from children: the coordinator's dashboard
        // owns stderr.
        .env("FARM_PROGRESS", "0")
        // Workers report through their status file only; an inherited
        // FARM_HTTP would have every worker bind the same port.
        .env_remove("FARM_HTTP")
        .stdout(Stdio::null());
    let child = cmd.spawn()?;
    slot.view.pid = Some(child.id());
    slot.view.alive = true;
    slot.child = Some(child);
    Ok(())
}

/// Read one worker's live counters from its status file. Quietly keeps
/// the previous counters when there is no parseable document yet (the
/// worker may not have written one).
fn read_worker_status(slot: &mut Slot) {
    let Ok(body) = std::fs::read_to_string(&slot.status_path) else {
        return;
    };
    let Ok(doc) = Json::parse(&body) else { return };
    if let Some(v) = doc.get("trials_done").and_then(Json::as_u64) {
        slot.view.trials_done = v;
    }
    if let Some(v) = doc.get("losses").and_then(Json::as_u64) {
        slot.view.losses = v;
    }
    if let Some(v) = doc.get("events").and_then(Json::as_u64) {
        slot.view.events = v;
    }
    slot.view.trials_per_sec = doc
        .get("batches")
        .and_then(Json::as_array)
        .and_then(|b| b.first())
        .and_then(|b| b.get("trials_per_sec"))
        .and_then(Json::as_f64);
}

/// Options for a coordinator run, beyond the shared campaign
/// [`Options`].
pub struct CoordinatorOptions {
    /// Worker process count (before capping at the chunk count).
    pub workers: usize,
    /// Fleet directory: checkpoints, worker status files, the merged
    /// `fleet-status.json`, and the final `fleet-summary.txt`.
    pub dir: PathBuf,
    /// Bind the aggregated `/metrics` + `/status` exporter here
    /// (`"127.0.0.1:0"` picks a free port, recorded in the snapshot; a
    /// bind failure warns once and the fleet runs without it).
    pub http: Option<String>,
    /// Live stderr dashboard (`None` = only when stderr is a tty).
    pub dashboard: Option<bool>,
}

/// Coordinator-mode entry point: shard, spawn, poll, merge.
///
/// Returns the fleet-merged campaign summary — bit-identical to a
/// single-process run over the same seeds — after writing it in
/// compact form to `<dir>/fleet-summary.txt`.
pub fn run_coordinator(opts: &Options, fleet: &CoordinatorOptions) -> io::Result<McSummary> {
    let cfg = fleet_config(opts);
    let fingerprint = campaign_fingerprint(&cfg, opts.seed, opts.trials, TrialMode::UntilLoss);
    let total_chunks = n_chunks(opts.trials);
    let ranges = plan_ranges(opts.trials, fleet.workers);
    let dir = fleet.dir.as_path();
    std::fs::create_dir_all(dir)?;
    // Workers are this same binary, re-executed in `--worker` mode.
    let bin = std::env::current_exe()?;
    let dashboard = fleet
        .dashboard
        .unwrap_or_else(|| io::IsTerminal::is_terminal(&io::stderr()));

    // Resume: ranges with a valid checkpoint are done before any spawn.
    let mut slots: Vec<Slot> = Vec::with_capacity(ranges.len());
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        let mut view = WorkerView {
            worker: i,
            range_lo: chunk_bounds(lo, opts.trials).0,
            range_hi: if hi > lo {
                chunk_bounds(hi - 1, opts.trials).1
            } else {
                chunk_bounds(lo, opts.trials).0
            },
            ..WorkerView::default()
        };
        if let Some(chunks) = load_result(dir, fingerprint, lo, hi) {
            let (trials, losses, events) = exact_counters(&chunks);
            view.done = true;
            view.trials_done = trials;
            view.losses = losses;
            view.events = events;
        }
        slots.push(Slot {
            view,
            chunk_lo: lo,
            chunk_hi: hi,
            child: None,
            status_path: dir.join(format!("worker-{i}.attempt0.status.json")),
        });
    }

    let monitor = FleetMonitor::new(
        opts.trials,
        slots.iter().map(|s| s.view.clone()).collect(),
        dashboard,
        fleet.http.as_deref(),
    );
    if let Some(bound) = monitor.http_addr() {
        eprintln!("[fleet] aggregated exporter on http://{bound}/metrics");
    }

    for slot in slots.iter_mut().filter(|s| !s.view.done) {
        spawn_worker(&bin, opts, dir, slot)?;
    }

    let snapshot_path = dir.join("fleet-status.json");
    loop {
        let mut all_done = true;
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            let slot = &mut slots[i];
            if slot.view.done {
                continue;
            }
            read_worker_status(slot);
            let exited = match slot.child.as_mut() {
                Some(child) => child.try_wait()?.is_some(),
                None => true,
            };
            if exited {
                slot.view.alive = false;
                slot.child = None;
                if let Some(chunks) = load_result(dir, fingerprint, lo, hi) {
                    let (trials, losses, events) = exact_counters(&chunks);
                    slot.view.done = true;
                    slot.view.trials_done = trials;
                    slot.view.losses = losses;
                    slot.view.events = events;
                    slot.view.trials_per_sec = None;
                    continue;
                }
                if slot.view.attempts >= MAX_ATTEMPTS {
                    return Err(io::Error::other(format!(
                        "fleet: worker {i} (chunks {lo}:{hi}) died {} times without a valid checkpoint",
                        slot.view.attempts
                    )));
                }
                eprintln!(
                    "\n[fleet] worker {i} (chunks {lo}:{hi}) died without a checkpoint; respawning (attempt {})",
                    slot.view.attempts + 1
                );
                spawn_worker(&bin, opts, dir, slot)?;
            }
            all_done = false;
        }
        monitor.update_workers(slots.iter().map(|s| s.view.clone()).collect());
        monitor.write_snapshot(&snapshot_path);
        monitor.dashboard_tick();
        if all_done {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    monitor.dashboard_finish();

    // Merge: collect every chunk of the campaign from the validated
    // checkpoints and fold ascending. Gaps and duplicates are hard
    // errors, never silently wrong numbers.
    let mut all_chunks: Vec<(u64, McSummary)> = Vec::with_capacity(total_chunks as usize);
    for &(lo, hi) in &ranges {
        let chunks = load_result(dir, fingerprint, lo, hi).ok_or_else(|| {
            io::Error::other(format!("fleet: checkpoint for chunks {lo}:{hi} vanished"))
        })?;
        all_chunks.extend(chunks);
    }
    let summary = fold_chunk_summaries(all_chunks, total_chunks).map_err(io::Error::other)?;
    write_summary(&dir.join("fleet-summary.txt"), &summary)?;
    Ok(summary)
}

/// Single-process reference mode: the same campaign through
/// [`run_trials_observed`], summary written to
/// `<dir>/fleet-summary-single.txt` so CI can `diff` it against the
/// fleet-merged one.
pub fn run_single(opts: &Options, dir: &Path) -> io::Result<McSummary> {
    let cfg = fleet_config(opts);
    std::fs::create_dir_all(dir)?;
    let obs = farm_obs::ObsOptions::from_env();
    let (summary, _) = run_trials_observed(
        &cfg,
        opts.seed,
        opts.trials,
        TrialMode::UntilLoss,
        opts.threads,
        &obs,
    );
    write_summary(&dir.join("fleet-summary-single.txt"), &summary)?;
    Ok(summary)
}

/// Atomically write a summary's compact form (one line).
fn write_summary(path: &Path, summary: &McSummary) -> io::Result<()> {
    write_atomic(path, format!("{}\n", summary.to_compact()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_options;

    #[test]
    fn plan_covers_every_chunk_exactly_once() {
        for trials in [1u64, 7, 8, 9, 25, 64, 100] {
            for workers in [1usize, 2, 3, 4, 64] {
                let ranges = plan_ranges(trials, workers);
                assert!(!ranges.is_empty());
                assert!(
                    ranges.iter().all(|&(lo, hi)| lo < hi),
                    "empty range in {ranges:?}"
                );
                assert_eq!(ranges[0].0, 0);
                assert_eq!(ranges.last().unwrap().1, n_chunks(trials));
                for w in ranges.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "gap or overlap in {ranges:?}");
                }
                assert!(ranges.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn fingerprint_tracks_campaign_identity() {
        let opts = test_options();
        let cfg = fleet_config(&opts);
        let a = campaign_fingerprint(&cfg, 7, 16, TrialMode::UntilLoss);
        assert_eq!(a, campaign_fingerprint(&cfg, 7, 16, TrialMode::UntilLoss));
        assert_ne!(a, campaign_fingerprint(&cfg, 8, 16, TrialMode::UntilLoss));
        assert_ne!(a, campaign_fingerprint(&cfg, 7, 24, TrialMode::UntilLoss));
        let mut other = cfg.clone();
        other.group_user_bytes *= 2;
        assert_ne!(a, campaign_fingerprint(&other, 7, 16, TrialMode::UntilLoss));
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        let opts = test_options();
        let cfg = fleet_config(&opts);
        let chunks = run_trial_chunks_observed(
            &cfg,
            opts.seed,
            opts.trials,
            0,
            n_chunks(opts.trials),
            TrialMode::UntilLoss,
            1,
            &farm_obs::ObsOptions::off(),
        );
        let fp = campaign_fingerprint(&cfg, opts.seed, opts.trials, TrialMode::UntilLoss);
        let body = render_result(fp, 0, n_chunks(opts.trials), &chunks);
        let back = parse_result(&body, fp, 0, n_chunks(opts.trials)).unwrap();
        assert_eq!(back.len(), chunks.len());
        for ((ca, sa), (cb, sb)) in chunks.iter().zip(&back) {
            assert_eq!(ca, cb);
            assert_eq!(sa.to_compact(), sb.to_compact());
        }
    }

    #[test]
    fn checkpoint_rejects_tampering() {
        let opts = test_options();
        let cfg = fleet_config(&opts);
        let fp = campaign_fingerprint(&cfg, opts.seed, opts.trials, TrialMode::UntilLoss);
        let chunks = vec![(0u64, McSummary::new()), (1, McSummary::new())];
        let body = render_result(fp, 0, 2, &chunks);
        assert!(parse_result(&body, fp, 0, 2).is_ok());
        // Wrong fingerprint (stale config / seed / chunking).
        assert!(parse_result(&body, fp ^ 1, 0, 2).is_err());
        // Wrong range.
        assert!(parse_result(&body, fp, 0, 3).is_err());
        // Truncated: no terminator => partial write.
        let cut = body.rsplit_once("done").unwrap().0;
        assert!(parse_result(cut, fp, 0, 2).is_err());
        // Duplicated chunk line.
        let dup = body.replace("chunk=1", "chunk=0");
        assert!(parse_result(&dup, fp, 0, 2).is_err());
    }
}
