//! Parallel Monte-Carlo driver: many independent trials, aggregated.
//!
//! The paper runs 100 trials per configuration (Figure 3). Each trial is
//! a pure function of `(config, master_seed, trial_index)`, so trials
//! fan out across scoped threads — or across worker *processes* in a
//! fleet — and the aggregate is identical regardless of how they were
//! scheduled.
//!
//! That identity is not automatic: `Running::merge` (Chan's parallel
//! Welford update) and the pooled histograms' f64 sums are neither
//! associative nor commutative at the bit level, so "merge whatever
//! each worker accumulated" produces answers that drift in the last
//! ulps with the thread count. Instead every execution path reduces
//! through the same *canonical chunked fold*: trials are grouped into
//! fixed [`CHUNK_TRIALS`]-sized chunks, each chunk's summary is built
//! by pushing its trials in ascending order, and the final summary is
//! a left fold of the chunk summaries in ascending chunk order. Workers
//! (threads or processes) race to *claim* chunks but never change what
//! a chunk contains or where it lands in the fold, so `threads=1`,
//! `threads=N` and any fleet partition of the chunk space produce
//! bit-identical summaries.

use crate::config::{PreparedConfig, SystemConfig};
use crate::metrics::{McSummary, TrialMetrics};
use crate::sim::Simulation;
use farm_des::rng::derive_seed;
use farm_obs::{
    diag, BatchHandle, ConvergenceCore, EventProfile, FlightRecorder, ObsOptions, Progress,
    SpanFormat, SpanRecorder, TimelineBands, TimelineRecorder, TraceSel, TrialRecorder, TrialSpans,
    TrialTracer, WorkerShard,
};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Trials per reduction chunk — the canonical unit of summary folding.
///
/// Chunk `c` covers trials `[c*CHUNK_TRIALS, min((c+1)*CHUNK_TRIALS,
/// trials))`. Must divide [`farm_obs::convergence::STOP_CHECK_EVERY`]
/// so `--target-rel-ci` stop boundaries (multiples of it) always land
/// on chunk edges and a kept prefix is a whole number of chunks.
pub const CHUNK_TRIALS: u64 = 8;

const _: () = assert!(
    farm_obs::convergence::STOP_CHECK_EVERY.is_multiple_of(CHUNK_TRIALS),
    "stop boundaries must land on chunk edges"
);

/// Number of reduction chunks in a campaign of `trials` trials.
pub fn n_chunks(trials: u64) -> u64 {
    trials.div_ceil(CHUNK_TRIALS)
}

/// Trial bounds `[lo, hi)` of chunk `chunk` in a campaign of
/// `trials_total` trials (the final chunk may be partial).
pub fn chunk_bounds(chunk: u64, trials_total: u64) -> (u64, u64) {
    let lo = chunk * CHUNK_TRIALS;
    let hi = ((chunk + 1) * CHUNK_TRIALS).min(trials_total);
    (lo, hi)
}

/// How a trial is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrialMode {
    /// Run the full horizon (needed for utilization/redirection stats).
    Full,
    /// Stop at the first data loss (sufficient for P(data loss)).
    UntilLoss,
}

/// Run one trial.
pub fn run_trial(
    cfg: &SystemConfig,
    master_seed: u64,
    trial: u64,
    mode: TrialMode,
) -> TrialMetrics {
    let seed = derive_seed(master_seed, trial);
    let mut sim = Simulation::new(cfg.clone(), seed);
    match mode {
        TrialMode::Full => sim.run(),
        TrialMode::UntilLoss => sim.run_until_loss(),
    }
}

/// A worker thread's reusable simulation slot. The first trial on a
/// worker constructs a [`Simulation`]; every later trial
/// [`Simulation::recycle`]s it, reusing the layout arrays, the
/// reverse-index arena, the per-disk vectors, the event-queue storage
/// and the metrics histograms instead of reallocating them. Recycled
/// trials are bit-identical to fresh ones (see
/// `tests/workspace_identity.rs`), so this is purely a throughput
/// optimization.
pub struct TrialWorkspace {
    sim: Option<Simulation>,
    reuse: bool,
}

impl TrialWorkspace {
    /// A workspace that recycles its simulation between trials.
    pub fn new() -> Self {
        Self::with_reuse(true)
    }

    /// A workspace with reuse explicitly on or off. Off rebuilds the
    /// simulation per trial: the reference the identity tests compare
    /// recycling against.
    pub fn with_reuse(reuse: bool) -> Self {
        TrialWorkspace { sim: None, reuse }
    }

    /// Hand out a simulation initialized exactly as
    /// `Simulation::from_shared(cfg, seed)` would be, recycling the
    /// previous trial's allocations when reuse is on.
    pub fn obtain(&mut self, cfg: &Arc<PreparedConfig>, seed: u64) -> &mut Simulation {
        match &mut self.sim {
            Some(sim) if self.reuse => sim.recycle(cfg, seed),
            slot => *slot = Some(Simulation::from_shared(Arc::clone(cfg), seed)),
        }
        self.sim.as_mut().expect("workspace holds a simulation")
    }
}

impl Default for TrialWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-trial telemetry a worker carries back to the batch driver: the
/// trial's timeline rows, any post-mortems its flight recorder emitted,
/// its spans, and its trace when the trace selection keeps it (the
/// sampled trial, or a losing trial in `FARM_TRACE=loss` mode). Empty —
/// and never allocated — when telemetry is off.
#[derive(Default)]
struct TrialArtifacts {
    timeline: Option<TimelineRecorder>,
    postmortems: Vec<String>,
    trace: Option<Vec<u8>>,
    spans: Option<TrialSpans>,
}

/// What a held chunk keeps per trial so the live monitor's shard can be
/// updated when (and only when) the chunk commits.
struct TrialSideband {
    lost: bool,
    events: u64,
    wall_secs: f64,
}

/// A finished chunk a worker cannot commit yet: under the sequential
/// stopping rule, a chunk may only enter the batch aggregate once every
/// stop boundary at or below its upper bound has been decided —
/// otherwise a later "stop at B" verdict would leave trials `>= B`
/// already baked into the summary. Stop boundaries are chunk-aligned,
/// so whole chunks are the natural holding unit; each held entry
/// carries everything commit needs, including the per-trial wall times
/// measured when the trials actually ran.
struct HeldChunk {
    chunk: u64,
    lo: u64,
    hi: u64,
    summary: McSummary,
    trials: Vec<TrialSideband>,
    profile: Option<EventProfile>,
    artifacts: Vec<(u64, TrialArtifacts)>,
}

/// A worker thread's partial batch result: the chunk summaries it
/// committed, its merged profile, the artifacts of the trials it ran,
/// and (stopping runs only) chunks still awaiting a stop-boundary
/// verdict when the worker exited — the driver settles those once the
/// final stop limit is known.
type WorkerPartial = (
    Vec<(u64, McSummary)>,
    Option<EventProfile>,
    Vec<(u64, TrialArtifacts)>,
    Vec<HeldChunk>,
);

/// What the chunk pool hands back: the committed chunk summaries
/// (unfolded, ascending), the merged profile and the committed trials'
/// artifacts.
type PoolOutput = (
    Vec<(u64, McSummary)>,
    Option<EventProfile>,
    Vec<(u64, TrialArtifacts)>,
);

/// Settle a worker's held chunks against the stopping frontier: commit
/// every chunk wholly below `min(decided, limit)` (no future boundary
/// can exclude it), discard every chunk at or beyond a triggered stop
/// `limit`, keep the rest buffered.
#[allow(clippy::too_many_arguments)]
fn settle_held(
    held: &mut Vec<HeldChunk>,
    decided: u64,
    limit: u64,
    chunks: &mut Vec<(u64, McSummary)>,
    profile: &mut Option<EventProfile>,
    artifacts: &mut Vec<(u64, TrialArtifacts)>,
    shard: &Option<Arc<WorkerShard>>,
    want_artifacts: bool,
) {
    let commit_below = decided.min(limit);
    let mut i = 0;
    while i < held.len() {
        if held[i].hi <= commit_below {
            let h = held.swap_remove(i);
            commit_chunk(h, chunks, profile, artifacts, shard, want_artifacts);
        } else if held[i].lo >= limit {
            held.swap_remove(i);
        } else {
            i += 1;
        }
    }
}

/// Commit one chunk to a worker's (or the driver's) partial aggregate.
fn commit_chunk(
    h: HeldChunk,
    chunks: &mut Vec<(u64, McSummary)>,
    profile: &mut Option<EventProfile>,
    artifacts: &mut Vec<(u64, TrialArtifacts)>,
    shard: &Option<Arc<WorkerShard>>,
    want_artifacts: bool,
) {
    if let Some(shard) = shard {
        for t in &h.trials {
            shard.record_trial(t.lost, t.events, t.wall_secs);
        }
    }
    chunks.push((h.chunk, h.summary));
    merge_profile(profile, h.profile.map(Box::new));
    if want_artifacts {
        artifacts.extend(h.artifacts);
    }
}

/// Fold chunk summaries into the campaign aggregate after validating
/// exact coverage: the indices must be exactly `0..total_chunks`, each
/// exactly once. A missing chunk (a seed-range gap after a lost worker)
/// or a duplicate (double-counted work after a respawn) is an error,
/// never a silently wrong number. The fold itself is the canonical
/// ascending left fold, so the result is bit-identical to a
/// single-process run over the same seed set.
pub fn fold_chunk_summaries(
    mut chunks: Vec<(u64, McSummary)>,
    total_chunks: u64,
) -> Result<McSummary, String> {
    chunks.sort_by_key(|&(c, _)| c);
    for (i, win) in chunks.windows(2).enumerate() {
        if win[0].0 == win[1].0 {
            return Err(format!(
                "duplicate chunk {} (positions {i} and {})",
                win[0].0,
                i + 1
            ));
        }
    }
    if chunks.len() as u64 != total_chunks {
        return Err(format!(
            "expected {total_chunks} chunks, got {}",
            chunks.len()
        ));
    }
    for (i, &(c, _)) in chunks.iter().enumerate() {
        if c != i as u64 {
            return Err(format!("missing chunk {i} (found {c} in its place)"));
        }
    }
    let mut summary = McSummary::new();
    for (_, cs) in &chunks {
        summary.merge(cs);
    }
    Ok(summary)
}

/// A short human label for a batch's configuration, shown in the live
/// monitor's status file and as the `config` label on `/metrics`
/// series (e.g. `mirror(2) Farm 256GiB`).
fn config_label(cfg: &SystemConfig) -> String {
    use farm_disk::model::{GIB, PIB, TIB};
    let b = cfg.total_user_bytes;
    let size = if b >= PIB {
        format!("{}PiB", b / PIB)
    } else if b >= TIB {
        format!("{}TiB", b / TIB)
    } else {
        format!("{}GiB", b / GIB)
    };
    format!("{} {:?} {size}", cfg.scheme, cfg.recovery)
}

/// Record one finished trial into this worker's registry shard (noop
/// without a live monitor; the `Instant` is only taken when one is
/// attached, so the off path stays free of clock syscalls).
#[inline]
fn record_monitored(shard: &Option<Arc<WorkerShard>>, started: Option<Instant>, m: &TrialMetrics) {
    if let Some(shard) = shard {
        let wall = started.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
        shard.record_trial(m.lost_data(), m.events_processed, wall);
    }
}

/// Does `obs` ask for anything that produces per-trial artifacts?
fn artifacts_requested(obs: &ObsOptions) -> bool {
    obs.timeline.is_some() || obs.postmortem.is_some() || obs.spans.is_some() || obs.trace.is_some()
}

/// Run one trial with the requested observability attached: profiling,
/// and — when the batch collects per-trial artifacts — the
/// cluster-state timeline and the event recorder (tracer, flight
/// recorder, span recorder). Results are bit-identical to
/// [`run_trial`] — observability never feeds back into the model.
fn run_trial_observed(
    ws: &mut TrialWorkspace,
    cfg: &Arc<PreparedConfig>,
    master_seed: u64,
    trial: u64,
    mode: TrialMode,
    obs: &ObsOptions,
    want_artifacts: bool,
) -> (TrialMetrics, Option<Box<EventProfile>>, TrialArtifacts) {
    let seed = derive_seed(master_seed, trial);
    let sim = ws.obtain(cfg, seed);
    if obs.profile {
        sim.enable_profiling();
    }
    if want_artifacts {
        if let Some(spec) = &obs.timeline {
            let duration = cfg.sim_duration.as_secs();
            sim.set_timeline(TimelineRecorder::new(
                spec.resolve_interval(duration),
                duration,
            ));
        }
        let tracer = obs
            .trace
            .as_ref()
            .filter(|spec| spec.sel.selects(trial))
            .map(|_| TrialTracer::new(trial));
        let flight = obs
            .postmortem
            .as_ref()
            .map(|_| FlightRecorder::new(trial, cfg.n_groups as usize));
        let spans = obs.spans.as_ref().map(|_| SpanRecorder::new());
        if let Some(rec) = TrialRecorder::new(cfg.block_bytes, tracer, flight, spans) {
            sim.set_recorder(rec);
        }
    }
    let metrics = match mode {
        TrialMode::Full => sim.run(),
        TrialMode::UntilLoss => sim.run_until_loss(),
    };
    let mut artifacts = TrialArtifacts {
        timeline: sim.take_timeline(),
        ..TrialArtifacts::default()
    };
    if let Some(rec) = sim.take_recorder() {
        let rec = *rec;
        if let Some(mut t) = rec.trace {
            // Loss mode traced every trial; keep only the losing ones.
            let loss_mode = obs.trace.as_ref().is_some_and(|s| s.sel == TraceSel::Loss);
            if !loss_mode || metrics.lost_data() {
                t.emit(
                    sim.now().as_secs(),
                    "trial_end",
                    format_args!(
                        ",\"failures\":{},\"rebuilds\":{},\"redirections\":{},\"lost_groups\":{}",
                        metrics.disk_failures,
                        metrics.rebuilds_completed,
                        metrics.redirections,
                        metrics.lost_groups
                    ),
                );
                artifacts.trace = Some(t.take_buffer());
            }
        }
        artifacts.postmortems = rec
            .flight
            .map_or_else(Vec::new, FlightRecorder::take_postmortems);
        artifacts.spans = rec.spans.map(|mut s| s.take());
    }
    (metrics, sim.take_profile(), artifacts)
}

fn merge_profile(acc: &mut Option<EventProfile>, p: Option<Box<EventProfile>>) {
    if let Some(p) = p {
        match acc {
            Some(a) => a.merge(&p),
            None => *acc = Some(*p),
        }
    }
}

/// Run `trials` independent trials in parallel and aggregate.
pub fn run_trials(cfg: &SystemConfig, master_seed: u64, trials: u64, mode: TrialMode) -> McSummary {
    run_trials_with_threads(cfg, master_seed, trials, mode, default_threads())
}

/// Degree of parallelism: physical parallelism, bounded so that large
/// per-trial state (a 2 PiB system with 1 GiB groups holds a few
/// million block records) does not exhaust memory. A `FARM_THREADS`
/// environment variable overrides the default (`FARM_THREADS=1` runs
/// every batch on the calling thread).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("FARM_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                diag::warn_once(
                    "FARM_THREADS",
                    &format!("ignoring invalid FARM_THREADS={v:?} (want an integer >= 1)"),
                );
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// As [`run_trials`], with an explicit thread count (1 = sequential).
///
/// Observability comes from the process-wide [`farm_obs::global`]
/// options (CLI flags or `FARM_*` environment variables); a profile
/// requested that way is rendered to stderr when the batch completes.
pub fn run_trials_with_threads(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
    threads: usize,
) -> McSummary {
    let (summary, profile) =
        run_trials_observed(cfg, master_seed, trials, mode, threads, farm_obs::global());
    if let Some(p) = profile {
        eprint!("{}", p.render());
    }
    summary
}

/// The full-control entry point: run `trials` trials with explicit
/// observability options, returning the aggregate and (when profiling
/// was on) the merged event-loop profile.
pub fn run_trials_observed(
    cfg: &SystemConfig,
    master_seed: u64,
    trials: u64,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
) -> (McSummary, Option<EventProfile>) {
    assert!(threads >= 1);
    // A timeline too fine to hold in memory is dropped for the whole
    // batch, before any trial runs.
    let duration = cfg.sim_duration().as_secs();
    let without_timeline;
    let obs = match &obs.timeline {
        Some(spec) if spec.rows(duration) > farm_obs::timeline::MAX_ROWS => {
            diag::warn_once(
                "timeline-rows",
                &format!(
                    "timeline interval {}s is too fine: more than {} rows per trial; \
                     running without a timeline",
                    spec.resolve_interval(duration),
                    farm_obs::timeline::MAX_ROWS
                ),
            );
            without_timeline = ObsOptions {
                timeline: None,
                ..obs.clone()
            };
            &without_timeline
        }
        _ => obs,
    };
    let progress = Progress::new(trials, obs.progress_enabled());
    let want_artifacts = artifacts_requested(obs);
    // Live campaign monitor (status snapshots / the /metrics exporter):
    // consulted once per batch; `None` — and zero per-trial work — when
    // neither FARM_STATUS nor FARM_HTTP asked for it.
    let monitor = farm_obs::campaign_monitor(obs);
    let convergence_requested = obs.convergence.is_some() || obs.target_rel_ci.is_some();
    // The analytic Markov anchor, solved once per batch (a tiny linear
    // system) and only when something will display it.
    let anchor = if monitor.is_some() || convergence_requested {
        crate::markov::anchor_loss_probability(cfg)
    } else {
        None
    };
    let batch: Option<BatchHandle> =
        monitor.map(|mon| mon.begin_batch_anchored(config_label(cfg), trials, anchor));
    // Convergence layer: the trial-ordered tracker behind the JSONL
    // stream and the `--target-rel-ci` stopping rule. One mutex lock
    // per *trial* when on; `None` — and zero per-trial work — when off.
    let conv: Option<ConvergenceCore> = convergence_requested.then(|| {
        let base = obs
            .convergence
            .as_ref()
            .map_or(farm_obs::convergence::DEFAULT_BASE_TRIALS, |s| {
                s.resolve_base()
            });
        ConvergenceCore::new(config_label(cfg), trials, anchor, base, obs.target_rel_ci)
    });
    let conv = conv.as_ref();
    let pool = ChunkPool {
        prepared: Arc::new(PreparedConfig::new(cfg.clone())),
        master_seed,
        trials_total: trials,
        mode,
        obs,
        conv,
        want_artifacts,
        batch: &batch,
        progress: &progress,
    };
    let (chunks, profile, artifacts) = pool.run(0, n_chunks(trials), threads);
    progress.finish();
    // A triggered stop keeps exactly the chunks below its (chunk-aligned)
    // limit; the pool committed each of them once.
    let kept = conv.map_or(trials, |c| c.stop_limit().min(trials));
    let summary = fold_chunk_summaries(chunks, n_chunks(kept))
        .expect("the pool commits every kept chunk exactly once");
    // Flush the convergence stream (final record carries the exact
    // totals) and cross-check it against the aggregate: the tracker was
    // fed exactly the committed trials, in trial order.
    if let Some(c) = conv {
        let final_p = c.finish(obs.convergence.as_ref());
        debug_assert_eq!(final_p.trials, summary.trials());
        debug_assert_eq!(final_p.successes, summary.p_loss.successes);
    }
    // Every trial is recorded by now: publish the batch's pooled
    // span-phase histograms (detect / queue / transfer / end-to-end
    // repair) to the live monitor, then mark the batch done and publish
    // the exact final snapshot synchronously.
    if let Some(b) = &batch {
        b.record_phases(
            &summary.detect_lag,
            &summary.queue_delay,
            &summary.transfer,
            &summary.vulnerability,
        );
        b.finish();
    }
    if want_artifacts {
        emit_artifacts(obs, &config_label(cfg), artifacts);
    }
    (summary, profile)
}

/// Run reduction chunks `[chunk_lo, chunk_hi)` of a campaign of
/// `trials_total` trials — the fleet worker entry point.
///
/// The per-chunk summaries are returned *unfolded*: `Running::merge` is
/// not associative, so a worker that pre-folded its contiguous range
/// could not be re-grouped into the campaign-wide ascending fold. The
/// coordinator collects every chunk from every worker and folds them
/// with [`fold_chunk_summaries`], which is bit-identical to
/// [`run_trials_observed`] over the full seed set.
///
/// The live monitor (`FARM_STATUS` / `FARM_HTTP`) and progress line
/// attach as usual, scoped to this worker's share of the campaign;
/// convergence stopping, per-trial artifacts and profiling do not apply
/// to fleet workers.
#[allow(clippy::too_many_arguments)]
pub fn run_trial_chunks_observed(
    cfg: &SystemConfig,
    master_seed: u64,
    trials_total: u64,
    chunk_lo: u64,
    chunk_hi: u64,
    mode: TrialMode,
    threads: usize,
    obs: &ObsOptions,
) -> Vec<(u64, McSummary)> {
    assert!(threads >= 1);
    assert!(
        chunk_lo <= chunk_hi && chunk_hi <= n_chunks(trials_total),
        "chunk range {chunk_lo}:{chunk_hi} outside campaign of {} chunks",
        n_chunks(trials_total)
    );
    let range_trials = if chunk_lo == chunk_hi {
        0
    } else {
        chunk_bounds(chunk_hi - 1, trials_total).1 - chunk_bounds(chunk_lo, trials_total).0
    };
    let progress = Progress::new(range_trials, obs.progress_enabled());
    let monitor = farm_obs::campaign_monitor(obs);
    let anchor = if monitor.is_some() {
        crate::markov::anchor_loss_probability(cfg)
    } else {
        None
    };
    let batch: Option<BatchHandle> =
        monitor.map(|mon| mon.begin_batch_anchored(config_label(cfg), range_trials, anchor));
    let pool = ChunkPool {
        prepared: Arc::new(PreparedConfig::new(cfg.clone())),
        master_seed,
        trials_total,
        mode,
        obs,
        conv: None,
        want_artifacts: false,
        batch: &batch,
        progress: &progress,
    };
    let (chunks, _profile, _artifacts) = pool.run(chunk_lo, chunk_hi, threads);
    progress.finish();
    if let Some(b) = &batch {
        // Pool this worker's distributions (ascending fold, as
        // everywhere) for the monitor's span-phase summaries, then
        // publish the exact final snapshot.
        let mut pooled = McSummary::new();
        for (_, cs) in &chunks {
            pooled.merge(cs);
        }
        b.record_phases(
            &pooled.detect_lag,
            &pooled.queue_delay,
            &pooled.transfer,
            &pooled.vulnerability,
        );
        b.finish();
    }
    chunks
}

/// The single chunk driver behind both entry points. Workers (threads,
/// or the caller's own thread) claim chunks in ascending order from a
/// shared counter; each chunk's summary is built by pushing its trials
/// in ascending order, the only way a chunk summary is ever built.
struct ChunkPool<'a> {
    /// One validated config per batch: every trial on every worker
    /// shares it instead of cloning the `SystemConfig`.
    prepared: Arc<PreparedConfig>,
    master_seed: u64,
    trials_total: u64,
    mode: TrialMode,
    obs: &'a ObsOptions,
    conv: Option<&'a ConvergenceCore>,
    want_artifacts: bool,
    batch: &'a Option<BatchHandle>,
    progress: &'a Progress,
}

impl ChunkPool<'_> {
    /// Run chunks `[chunk_lo, chunk_hi)` on `threads` workers (inline
    /// when there is one thread or at most one chunk).
    fn run(&self, chunk_lo: u64, chunk_hi: u64, threads: usize) -> PoolOutput {
        let next = AtomicU64::new(chunk_lo);
        let mut partials: Vec<WorkerPartial> =
            if threads == 1 || chunk_hi.saturating_sub(chunk_lo) <= 1 {
                vec![self.worker(&next, chunk_hi)]
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|_| scope.spawn(|| self.worker(&next, chunk_hi)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("trial thread panicked"))
                        .collect()
                })
            };
        let mut chunks: Vec<(u64, McSummary)> = Vec::new();
        let mut profile: Option<EventProfile> = None;
        let mut artifacts: Vec<(u64, TrialArtifacts)> = Vec::new();
        // Settle chunks still undecided when the workers exited: every
        // trial has been submitted by now, so the stop limit is final —
        // commit below it, discard at or above it. Committed through one
        // extra shard so the monitor's totals match the summary exactly.
        let leftover: Vec<HeldChunk> = partials
            .iter_mut()
            .flat_map(|(_, _, _, held)| held.drain(..))
            .collect();
        if !leftover.is_empty() {
            let limit = self.conv.map_or(u64::MAX, |c| c.stop_limit());
            let shard = self.batch.as_ref().map(|b| b.shard());
            for h in leftover {
                if h.lo < limit {
                    commit_chunk(
                        h,
                        &mut chunks,
                        &mut profile,
                        &mut artifacts,
                        &shard,
                        self.want_artifacts,
                    );
                }
            }
        }
        for (cs, p, a, _) in partials {
            chunks.extend(cs);
            merge_profile(&mut profile, p.map(Box::new));
            artifacts.extend(a);
        }
        chunks.sort_by_key(|&(c, _)| c);
        (chunks, profile, artifacts)
    }

    /// One worker: claim chunks until the range (or a triggered stop)
    /// is exhausted. Under the stopping rule a worker may not commit a
    /// chunk until every stop boundary at or below its upper bound has
    /// been decided — it buffers finished chunks and settles them
    /// against the core's `decided_through` / `stop_limit` frontier
    /// (bounded by one boundary interval plus scheduling skew). Without
    /// stopping, chunks commit as they finish.
    fn worker(&self, next: &AtomicU64, chunk_hi: u64) -> WorkerPartial {
        let stopping = self.conv.is_some_and(|c| c.stopping());
        let mut chunks: Vec<(u64, McSummary)> = Vec::new();
        let mut local_profile: Option<EventProfile> = None;
        let mut local_artifacts: Vec<(u64, TrialArtifacts)> = Vec::new();
        let mut held: Vec<HeldChunk> = Vec::new();
        let mut ws = TrialWorkspace::new();
        let shard = self.batch.as_ref().map(|b| b.shard());
        loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= chunk_hi {
                break;
            }
            let (lo, hi) = chunk_bounds(chunk, self.trials_total);
            if let Some(c) = self.conv {
                // Stop limits are chunk-aligned, so a chunk is entirely
                // inside or entirely outside the kept prefix — never
                // straddling it.
                if lo >= c.stop_limit() {
                    break;
                }
            }
            let mut cs = McSummary::new();
            let mut sideband: Vec<TrialSideband> = Vec::new();
            let mut chunk_profile: Option<EventProfile> = None;
            let mut chunk_artifacts: Vec<(u64, TrialArtifacts)> = Vec::new();
            for t in lo..hi {
                let started = shard.as_ref().map(|_| Instant::now());
                let (m, p, a) = run_trial_observed(
                    &mut ws,
                    &self.prepared,
                    self.master_seed,
                    t,
                    self.mode,
                    self.obs,
                    self.want_artifacts,
                );
                self.progress.trial_done(m.lost_data());
                if let Some(c) = self.conv {
                    c.submit(t, m.lost_data(), m.first_loss.map(|ft| ft.as_secs()));
                }
                cs.push(&m);
                if stopping {
                    sideband.push(TrialSideband {
                        lost: m.lost_data(),
                        events: m.events_processed,
                        wall_secs: started.map_or(0.0, |t0| t0.elapsed().as_secs_f64()),
                    });
                    merge_profile(&mut chunk_profile, p);
                    if self.want_artifacts {
                        chunk_artifacts.push((t, a));
                    }
                } else {
                    record_monitored(&shard, started, &m);
                    merge_profile(&mut local_profile, p);
                    if self.want_artifacts {
                        local_artifacts.push((t, a));
                    }
                }
            }
            if stopping {
                held.push(HeldChunk {
                    chunk,
                    lo,
                    hi,
                    summary: cs,
                    trials: sideband,
                    profile: chunk_profile,
                    artifacts: chunk_artifacts,
                });
                let c = self.conv.expect("stopping implies a convergence core");
                settle_held(
                    &mut held,
                    c.decided_through(),
                    c.stop_limit(),
                    &mut chunks,
                    &mut local_profile,
                    &mut local_artifacts,
                    &shard,
                    self.want_artifacts,
                );
            } else {
                chunks.push((chunk, cs));
            }
        }
        (chunks, local_profile, local_artifacts, held)
    }
}

/// Write the batch's telemetry artifacts: timeline bands, post-mortem
/// JSONL, recovery spans, the selected trials' traces. Artifacts
/// are sorted by trial index first, so the files are bit-identical
/// regardless of how the trials were scheduled across worker threads.
fn emit_artifacts(obs: &ObsOptions, label: &str, mut artifacts: Vec<(u64, TrialArtifacts)>) {
    artifacts.sort_by_key(|&(t, _)| t);
    if let Some(spec) = &obs.timeline {
        let mut bands = TimelineBands::new();
        for (_, a) in &artifacts {
            if let Some(tl) = &a.timeline {
                bands.add_trial(tl);
            }
        }
        match farm_obs::open_batch_file(&spec.path) {
            Ok((mut f, fresh, batch)) => {
                let body = bands.render(batch, spec.json(), fresh);
                warn_write("timeline", &spec.path, f.write_all(body.as_bytes()));
            }
            Err(e) => {
                diag::warn_once(
                    "timeline-open",
                    &format!("cannot open timeline output {:?}: {e}", spec.path),
                );
            }
        }
    }
    if let Some(path) = &obs.postmortem {
        // Open even when this batch had no losses: the first batch of
        // the process truncates stale output, and an existing-but-empty
        // file distinguishes "no losses" from "post-mortems not on".
        match farm_obs::open_batch_file(path) {
            Ok((mut f, _, _)) => {
                let res = artifacts
                    .iter()
                    .flat_map(|(_, a)| &a.postmortems)
                    .try_for_each(|line| writeln!(f, "{line}"));
                warn_write("post-mortem", path, res);
            }
            Err(e) => {
                diag::warn_once(
                    "postmortem-open",
                    &format!("cannot open post-mortem output {path:?}: {e}"),
                );
            }
        }
    }
    if let Some(spec) = &obs.spans {
        match spec.format {
            SpanFormat::Jsonl => match farm_obs::open_batch_file(&spec.path) {
                Ok((mut f, _, batch)) => {
                    let mut body = String::new();
                    for (t, a) in &artifacts {
                        if let Some(s) = &a.spans {
                            s.render_jsonl(&mut body, batch, label, *t);
                        }
                    }
                    warn_write("spans", &spec.path, f.write_all(body.as_bytes()));
                }
                Err(e) => {
                    diag::warn_once(
                        "spans-open",
                        &format!("cannot open spans output {:?}: {e}", spec.path),
                    );
                }
            },
            SpanFormat::Chrome => {
                let mut events = Vec::new();
                for (t, a) in &artifacts {
                    if let Some(s) = &a.spans {
                        s.render_chrome(&mut events, *t);
                    }
                }
                if let Err(e) = farm_obs::spans::chrome_flush(&spec.path, events) {
                    diag::warn_once(
                        "spans-open",
                        &format!("cannot write chrome trace {:?}: {e}", spec.path),
                    );
                }
            }
        }
    }
    if let Some(spec) = &obs.trace {
        let mut traces = artifacts.iter().filter_map(|(_, a)| a.trace.as_deref());
        match &spec.path {
            Some(p) => match farm_obs::open_batch_file(p) {
                Ok((mut f, _, _)) => {
                    let res = traces.try_for_each(|tr| f.write_all(tr));
                    warn_write("trace", p, res);
                }
                Err(e) => {
                    diag::warn_once("trace-open", &format!("cannot open trace sink {p:?}: {e}"));
                }
            },
            None => {
                let mut err = std::io::stderr().lock();
                for tr in traces {
                    let _ = err.write_all(tr);
                }
            }
        }
    }
}

/// Warn once per sink when writing a batch artifact fails (a full disk,
/// say). The batch's results are already folded, so they are unchanged.
fn warn_write(sink: &str, path: &str, res: std::io::Result<()>) {
    if let Err(e) = res {
        diag::warn_once(
            &format!("{sink}-write"),
            &format!("cannot write {sink} output {path:?}: {e}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_des::time::Duration;
    use farm_disk::model::{GIB, MIB, TIB};

    /// A tiny configuration that runs in milliseconds.
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

    #[test]
    fn trials_are_reproducible() {
        let cfg = tiny();
        let a = run_trial(&cfg, 7, 3, TrialMode::Full);
        let b = run_trial(&cfg, 7, 3, TrialMode::Full);
        assert_eq!(a.disk_failures, b.disk_failures);
        assert_eq!(a.rebuilds_completed, b.rebuilds_completed);
        assert_eq!(a.lost_groups, b.lost_groups);
    }

    #[test]
    fn different_trials_differ() {
        let cfg = tiny();
        let a = run_trial(&cfg, 7, 0, TrialMode::Full);
        let b = run_trial(&cfg, 7, 1, TrialMode::Full);
        // Failure counts are Poisson-ish; identical streams would be a
        // seeding bug. (They could coincide by chance; compare a richer
        // signature.)
        let sig_a = (
            a.disk_failures,
            a.rebuilds_completed,
            a.total_vulnerability_secs.to_bits(),
        );
        let sig_b = (
            b.disk_failures,
            b.rebuilds_completed,
            b.total_vulnerability_secs.to_bits(),
        );
        assert_ne!(sig_a, sig_b);
    }

    #[test]
    fn parallel_equals_sequential_bit_for_bit() {
        // The canonical chunked reduction makes the thread count
        // invisible in the result *bits*, not just within an epsilon:
        // compare the full compact encodings (26 trials = 4 chunks,
        // the last partial).
        let cfg = tiny();
        let seq = run_trials_with_threads(&cfg, 11, 26, TrialMode::Full, 1);
        let par = run_trials_with_threads(&cfg, 11, 26, TrialMode::Full, 4);
        assert_eq!(seq.trials(), 26);
        assert_eq!(seq.to_compact(), par.to_compact());
    }

    #[test]
    fn chunk_bounds_cover_the_campaign() {
        assert_eq!(n_chunks(0), 0);
        assert_eq!(n_chunks(1), 1);
        assert_eq!(n_chunks(CHUNK_TRIALS), 1);
        assert_eq!(n_chunks(CHUNK_TRIALS + 1), 2);
        // Chunks tile [0, trials) exactly, final chunk partial.
        let trials = 3 * CHUNK_TRIALS + 5;
        let mut next = 0;
        for c in 0..n_chunks(trials) {
            let (lo, hi) = chunk_bounds(c, trials);
            assert_eq!(lo, next);
            assert!(hi > lo && hi <= trials);
            next = hi;
        }
        assert_eq!(next, trials);
    }

    #[test]
    fn chunked_worker_fold_matches_single_process() {
        // The fleet invariant, in-process: run the campaign as two
        // unequal worker shares plus the full driver, fold, and require
        // bit-identity. 26 trials = 4 chunks split 1 + 3.
        let cfg = tiny();
        let obs = ObsOptions::off();
        let (whole, _) = run_trials_observed(&cfg, 11, 26, TrialMode::Full, 2, &obs);
        let mut chunks = run_trial_chunks_observed(&cfg, 11, 26, 0, 1, TrialMode::Full, 1, &obs);
        chunks.extend(run_trial_chunks_observed(
            &cfg,
            11,
            26,
            1,
            4,
            TrialMode::Full,
            2,
            &obs,
        ));
        let folded = fold_chunk_summaries(chunks, n_chunks(26)).unwrap();
        assert_eq!(folded.to_compact(), whole.to_compact());
    }

    #[test]
    fn fold_rejects_gaps_and_duplicates() {
        let cfg = tiny();
        let obs = ObsOptions::off();
        let chunks = run_trial_chunks_observed(&cfg, 11, 16, 0, 2, TrialMode::Full, 1, &obs);
        assert_eq!(chunks.len(), 2);
        // Exact coverage passes.
        assert!(fold_chunk_summaries(chunks.clone(), 2).is_ok());
        // A gap (missing chunk) fails.
        let err = fold_chunk_summaries(vec![chunks[1].clone()], 2).unwrap_err();
        assert!(err.contains("expected 2 chunks"), "{err}");
        // A double-counted chunk fails.
        let mut dup = chunks.clone();
        dup.push(chunks[0].clone());
        let err = fold_chunk_summaries(dup, 2).unwrap_err();
        assert!(err.contains("duplicate chunk 0"), "{err}");
        // The right count but wrong indices fails.
        let wrong = vec![chunks[1].clone(), (2, McSummary::new())];
        let err = fold_chunk_summaries(wrong, 2).unwrap_err();
        assert!(err.contains("missing chunk 0"), "{err}");
    }

    #[test]
    fn observed_run_returns_a_profile_that_accounts_for_every_event() {
        let cfg = tiny();
        let off = ObsOptions::off();
        let (base, none) = run_trials_observed(&cfg, 5, 4, TrialMode::Full, 2, &off);
        assert!(none.is_none(), "no profile requested");
        let on = ObsOptions {
            profile: true,
            ..ObsOptions::off()
        };
        let (summary, profile) = run_trials_observed(&cfg, 5, 4, TrialMode::Full, 2, &on);
        let p = profile.expect("profiling was requested");
        // The profiler saw exactly the events the metrics counted, and
        // profiling did not change the simulation.
        let events = (summary.events.mean() * summary.events.count() as f64).round() as u64;
        assert_eq!(p.total_events(), events);
        assert_eq!(p.queue_depth().count(), events);
        assert_eq!(base.p_loss.successes, summary.p_loss.successes);
        assert!((base.failures.mean() - summary.failures.mean()).abs() < 1e-12);
    }

    #[test]
    fn config_labels_identify_scheme_policy_and_size() {
        let label = config_label(&tiny());
        assert!(label.contains("Farm"), "{label}");
        assert!(label.ends_with("2TiB"), "{label}");
        let mut raid = tiny();
        raid.recovery = crate::config::RecoveryPolicy::SingleSpare;
        assert!(config_label(&raid).contains("SingleSpare"));
    }

    #[test]
    fn until_loss_agrees_on_the_loss_verdict() {
        let cfg = tiny();
        for t in 0..6 {
            let full = run_trial(&cfg, 3, t, TrialMode::Full);
            let fast = run_trial(&cfg, 3, t, TrialMode::UntilLoss);
            assert_eq!(full.lost_data(), fast.lost_data(), "trial {t}");
        }
    }
}
