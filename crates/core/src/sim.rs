//! The discrete-event storage-system simulator: one Monte-Carlo trial.
//!
//! Lifecycle of a disk failure (§2.3, Figure 2):
//!
//! 1. `Failure(d)` — the drive dies; every block on it becomes
//!    unavailable. If any redundancy group now has fewer than `m`
//!    available blocks, that group has **lost data**. In-flight rebuilds
//!    that targeted `d` are flagged for **recovery redirection**.
//! 2. `Detect(d)` — after the failure-detection latency Δ, rebuilds start
//!    for every unavailable block homed on `d`:
//!    * **FARM** walks the group's RUSH candidate list for a target that
//!      is alive, holds no buddy, has space (and, preferably, idle
//!      recovery bandwidth, §2.3's soft constraint).
//!    * **Single-spare RAID** sends every block to one fresh spare drive,
//!      where the rebuilds queue.
//! 3. `RebuildDone` — the block is available again; the window of
//!    vulnerability (detection latency + queueing + rebuild) closes.

use crate::config::{PreparedConfig, RecoveryPolicy, SystemConfig};
use crate::layout::{BlockRef, GroupLayout};
use crate::metrics::TrialMetrics;
use crate::workload;
use farm_des::rng::SeedFactory;
use farm_des::time::{Duration, SimTime};
use farm_des::EventQueue;
use farm_disk::health::SmartVerdict;
use farm_disk::model::Disk;
use farm_obs::{
    EventProfile, LossCause, TimelineRecorder, TrialBlock, TrialEvent, TrialRecorder, N_GAUGES,
};
use farm_placement::{kernel, ClusterMap, DiskId, PreDraws, Rush, RushScratch};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Simulation events.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A drive fails, losing its contents.
    Failure(DiskId),
    /// The failure of this drive is detected; recovery starts.
    Detect(DiskId),
    /// A block rebuild finishes (valid only if the epoch still matches).
    RebuildDone { block: BlockRef, epoch: u32 },
}

impl Event {
    /// Profiler labels, indexed by [`Event::kind_index`].
    pub const KIND_LABELS: &'static [&'static str] = &["failure", "detect", "rebuild_done"];

    /// Discriminant index into [`Event::KIND_LABELS`].
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Failure(_) => 0,
            Event::Detect(_) => 1,
            Event::RebuildDone { .. } => 2,
        }
    }
}

impl From<BlockRef> for TrialBlock {
    fn from(b: BlockRef) -> TrialBlock {
        TrialBlock {
            group: b.group(),
            idx: b.idx(),
            id: b.raw(),
        }
    }
}

/// Seed-stream labels (one namespace per concern keeps streams
/// independent of construction order).
mod streams {
    pub const DISK_LIFETIME: u64 = 1;
    pub const SMART: u64 = 2;
    pub const ABLATION: u64 = 3;
    pub const LATENT: u64 = 4;
}

/// An attached cluster-state timeline: the recorder and the running
/// aggregates its gauges are read from.
struct TimelineSlot {
    recorder: TimelineRecorder,
    gauges: LiveGauges,
}

/// Incrementally-maintained cluster-state aggregates behind the
/// timeline gauges. They live in the timeline slot, so with the
/// timeline off they do not exist; with it on, the event handlers pay a
/// few adds per state change instead of `timeline_gauges`'s full disk +
/// group scan per sample (the dominant telemetry-on cost at paper
/// scale).
struct LiveGauges {
    /// Active (not failed) disks.
    active: u64,
    /// Sum of `free_bytes()` over active disks.
    free: u64,
    /// Sum of `capacity` over active disks.
    capacity: u64,
    /// Unavailable blocks of live (not dead) groups.
    rebuilds_in_flight: u64,
    /// Live groups with at least one unavailable block.
    vulnerable_groups: u64,
    /// Active disks whose recovery pipe is busy past the last drained
    /// sample instant (see `pipe_busy`).
    busy_pipes: u64,
    /// pipe_busy[d]: disk d is currently counted in `busy_pipes`.
    pipe_busy: Vec<bool>,
    /// Min-heap of `(busy-until, disk)` snapshots, pushed on every
    /// `recovery_busy` write and drained lazily at each (monotone)
    /// sample instant. Entries are validated against the authoritative
    /// `recovery_busy` value when they surface, so stale snapshots from
    /// re-extended pipes are skipped rather than miscounted.
    expiries: BinaryHeap<Reverse<(SimTime, u32)>>,
}

/// One trial of the storage system.
pub struct Simulation {
    cfg: Arc<PreparedConfig>,
    rush: Rush,
    /// Reusable dedup state for RUSH candidate walks (placement and
    /// recovery-target selection run one walk at a time, so a single
    /// scratch serves every hot path without allocating).
    pub(crate) rush_scratch: RushScratch,
    map: ClusterMap,
    disks: Vec<Disk>,
    smart: Vec<SmartVerdict>,
    /// When each disk will fail (if within the horizon).
    fail_time: Vec<Option<SimTime>>,
    /// Per-disk recovery pipe: busy until this instant.
    recovery_busy: Vec<SimTime>,
    layout: GroupLayout,
    queue: EventQueue<Event>,
    now: SimTime,
    horizon: SimTime,
    seeds: SeedFactory,
    metrics: TrialMetrics,
    /// Reusable buffer for the blocks of a failed drive (`on_failure` /
    /// `on_detect` snapshot the reverse index before mutating it).
    blocks_scratch: Vec<BlockRef>,
    /// Reusable buffer for rebuild-source selection (raw disk ids, so
    /// the rebuild-start event can lend it to the recorder as is).
    pub(crate) sources_scratch: Vec<u32>,
    /// Reusable buffer for the batched placement engine's prehashed
    /// attempt-0 draws (index-major, [`kernel::LANES`] lanes per row).
    place_hashes: Vec<u64>,
    /// Failed drives in the placement population since the last batch.
    pub(crate) failed_since_batch: u32,
    /// Event-loop profiler (observability; `None` = off, the zero-cost
    /// default — the event loop only ever branches on the `Option`).
    profiler: Option<Box<EventProfile>>,
    /// Fixed-interval cluster-state gauge sampler and its running
    /// aggregates (observability; `None` = off — the plain event loop
    /// never even checks it).
    timeline: Option<Box<TimelineSlot>>,
    /// Consumers of the trial event stream: tracer, flight recorder,
    /// span recorder (observability; `None` = off — every transition's
    /// [`Simulation::record`] is one null test on this box).
    recorder: Option<Box<TrialRecorder>>,
    /// RNG used only by ablation policies (random target choice).
    ablation_rng: farm_des::rng::RngStream,
    /// RNG for latent-sector-error sampling.
    latent_rng: farm_des::rng::RngStream,
}

impl Simulation {
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        Self::from_shared(Arc::new(PreparedConfig::new(cfg)), seed)
    }

    /// Construct a trial from a batch-shared [`PreparedConfig`]. The
    /// Monte-Carlo drivers build the `Arc` once and every trial on
    /// every worker clones the pointer instead of the config.
    pub fn from_shared(cfg: Arc<PreparedConfig>, seed: u64) -> Self {
        let seeds = SeedFactory::new(seed);
        let n = cfg.scheme.n as u8;
        let mut sim = Simulation {
            layout: GroupLayout::new(0, n, 0),
            rush: Rush::new(0),
            rush_scratch: RushScratch::new(),
            map: ClusterMap::new(),
            disks: Vec::new(),
            smart: Vec::new(),
            fail_time: Vec::new(),
            recovery_busy: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimTime::ZERO,
            seeds,
            metrics: TrialMetrics::new(),
            blocks_scratch: Vec::new(),
            sources_scratch: Vec::new(),
            place_hashes: Vec::new(),
            failed_since_batch: 0,
            profiler: None,
            timeline: None,
            recorder: None,
            ablation_rng: seeds.stream(streams::ABLATION),
            latent_rng: seeds.stream(streams::LATENT),
            cfg: Arc::clone(&cfg),
        };
        sim.recycle(&cfg, seed);
        sim
    }

    /// Reset this simulation to the exact state `from_shared(cfg, seed)`
    /// would construct, reusing every large allocation: the layout
    /// arrays and reverse-index arena, the per-disk vectors, the event
    /// queue's storage, the cluster map, the metrics histograms, and
    /// both scratch buffers. The determinism contract — a trial is a
    /// pure function of `(config, master_seed, trial_index)` — is pinned
    /// by the fresh-vs-recycled golden tests in
    /// `tests/workspace_identity.rs`.
    ///
    /// Observability must be detached (taken) before recycling; the
    /// recorders carry per-trial state that must not leak across trials.
    pub fn recycle(&mut self, cfg: &Arc<PreparedConfig>, seed: u64) {
        self.reset_core(cfg, seed);
        self.populate_disks();
        self.place_all_groups();
    }

    /// Labels for the setup phases timed by [`Simulation::recycle_profiled`]:
    /// state reset (seeds, layout, map, queue, metrics), disk
    /// installation (lifetime sampling + failure scheduling), and the
    /// initial RUSH placement of every group.
    pub const SETUP_PHASE_LABELS: &'static [&'static str] = &["reset", "disks", "placement"];

    /// [`Simulation::recycle`], with each setup phase timed into `prof`
    /// (one slot per [`Simulation::SETUP_PHASE_LABELS`] entry) — the
    /// same farm-obs profile the event loop uses, so reports can show
    /// where the setup half of trial wall time goes.
    pub fn recycle_profiled(
        &mut self,
        cfg: &Arc<PreparedConfig>,
        seed: u64,
        prof: &mut EventProfile,
    ) {
        let t0 = std::time::Instant::now();
        self.reset_core(cfg, seed);
        prof.record(0, t0.elapsed().as_nanos() as u64);
        let t0 = std::time::Instant::now();
        self.populate_disks();
        prof.record(1, t0.elapsed().as_nanos() as u64);
        let t0 = std::time::Instant::now();
        self.place_all_groups();
        prof.record(2, t0.elapsed().as_nanos() as u64);
    }

    /// Reset seeds, layout, map, queue, metrics and scratch state.
    fn reset_core(&mut self, cfg: &Arc<PreparedConfig>, seed: u64) {
        assert!(
            cfg.replacement.threshold.is_none() || cfg.recovery == RecoveryPolicy::Farm,
            "batch replacement is modeled for FARM only (spares and \
             batches use disjoint id spaces)"
        );
        debug_assert!(
            self.profiler.is_none() && self.timeline.is_none() && self.recorder.is_none(),
            "detach observability before recycling"
        );
        if !Arc::ptr_eq(&self.cfg, cfg) {
            self.cfg = Arc::clone(cfg);
        }
        let seeds = SeedFactory::new(seed);
        self.seeds = seeds;
        self.rush = Rush::new(seeds.child(0xFA).master());
        self.ablation_rng = seeds.stream(streams::ABLATION);
        self.latent_rng = seeds.stream(streams::LATENT);
        let n_disks = self.cfg.n_disks;
        let n_groups = u32::try_from(self.cfg.n_groups).expect("group count fits u32");
        self.map.reset_uniform(n_disks);
        self.layout
            .reset(n_groups, self.cfg.scheme.n as u8, n_disks);
        self.queue.reset();
        self.metrics.reset();
        self.disks.clear();
        self.smart.clear();
        self.fail_time.clear();
        self.recovery_busy.clear();
        self.blocks_scratch.clear();
        self.sources_scratch.clear();
        // `rush_scratch` is kept as-is: its generation-stamped reset is
        // O(1) and walk output is independent of retained state (pinned
        // by farm-placement's golden-sequence test).
        self.failed_since_batch = 0;
        self.now = SimTime::ZERO;
        self.horizon = SimTime::ZERO + self.cfg.sim_duration;
    }

    /// Install the initial disk population.
    fn populate_disks(&mut self) {
        for _ in 0..self.cfg.n_disks {
            self.add_disk(SimTime::ZERO);
        }
    }

    /// Install a new drive (initial population, spare, or batch member),
    /// sample its lifetime and schedule its failure.
    pub(crate) fn add_disk(&mut self, birth: SimTime) -> DiskId {
        let id = DiskId(self.disks.len() as u32);
        let disk = Disk::new(birth)
            .with_capacity(self.cfg.disk_capacity)
            .with_vintage(self.cfg.hazard.multiplier());
        let mut life_rng = self.seeds.stream2(streams::DISK_LIFETIME, id.0 as u64);
        let ttf = self.cfg.hazard.sample_ttf(Duration::ZERO, &mut life_rng);
        let fail_at = birth + ttf;
        let fail_time = if fail_at <= self.horizon {
            self.queue.schedule(fail_at, Event::Failure(id));
            Some(fail_at)
        } else {
            None
        };
        let verdict = match &self.cfg.smart {
            Some(smart_cfg) => {
                let mut rng = self.seeds.stream2(streams::SMART, id.0 as u64);
                SmartVerdict::roll(smart_cfg, birth, fail_time, &mut rng)
            }
            None => SmartVerdict::disabled(),
        };
        if let Some(tl) = self.timeline.as_deref_mut() {
            let g = &mut tl.gauges;
            g.active += 1;
            g.free += disk.free_bytes();
            g.capacity += disk.capacity;
            g.pipe_busy.push(false);
        }
        self.disks.push(disk);
        self.smart.push(verdict);
        self.fail_time.push(fail_time);
        self.recovery_busy.push(SimTime::ZERO);
        if (self.layout.n_disks() as usize) < self.disks.len() {
            self.layout.grow_disks(self.disks.len() as u32);
        }
        id
    }

    /// Initial data placement (§2.2, §3.1): every group's n blocks go to
    /// the first n RUSH candidates with room, in group order — capacity
    /// is a hard constraint.
    ///
    /// One pass keeps per-disk block counts and the fullest disk's count.
    /// Every disk starts empty, active and equally sized, so a disk has
    /// room for a block exactly when its count is below
    /// `slots = capacity / block_bytes`:
    ///
    /// * **Unfiltered prefix.** While the fullest disk has a free slot,
    ///   every candidate has room, so a group takes its walk's first n
    ///   emissions with no per-candidate check.
    /// * **Filtered tail.** The fullest count never decreases, so from
    ///   the first group that finds a full disk on, every group walks
    ///   with the space filter `count < slots`. Large blocks leave few
    ///   slots per disk, so RUSH's uneven load reaches this tail: 16 of
    ///   farmbench's 24 Figure 3 points do in some or all trials, while
    ///   the paper's 1 GiB groups never do.
    ///
    /// Batched engine: with [`kernel::engine_enabled`] and a uniform
    /// (single-cluster) map, rounds of [`kernel::LANES`] groups prehash
    /// their attempt-0 within-draws through the dispatched multi-lane
    /// kernel; each group's walk then consumes its lane. Duplicate
    /// candidates, attempts ≥ 1 and the fallback probe stay on the
    /// sequential fold, so the emitted candidate sequence — and hence
    /// every trial artifact — is byte-identical to the engine-off walk
    /// by construction (pinned by `tests/placement_kernel_identity.rs`).
    /// The unfiltered prefix's homes are its walks' first n emissions,
    /// so the engine memoizes them as walk prefixes: recovery-target
    /// walks resume from the cached frontier instead of rehashing it.
    /// The counts become the layout's deferred load histogram, and each
    /// disk is charged once.
    fn place_all_groups(&mut self) {
        let n = self.cfg.scheme.n as usize;
        let block_bytes = self.cfg.block_bytes;
        let slots = (self.cfg.disk_capacity / block_bytes).min(u32::MAX as u64) as u32;
        let n_groups = self.layout.n_groups();
        let engine = kernel::engine_enabled() && self.map.n_clusters() == 1;
        let mut hashes = std::mem::take(&mut self.place_hashes);
        // Homes are written straight into the layout's bulk slots; the
        // reverse index is built from them when first needed.
        self.layout.begin_bulk_placement();
        let mut max_load = 0u32;
        // The first group of the filtered tail (n_groups: none).
        let mut tail_start = n_groups;
        let lanes = kernel::LANES as u32;
        // Strips of STRIP_ROUNDS lane-rounds per kernel call amortize
        // dispatch, constant broadcasts and in-kernel key folding; the
        // tail (< LANES groups) walks sequentially.
        const STRIP_ROUNDS: u32 = 16;
        let prefix = self.rush.key_prefix();
        let row = n * kernel::LANES;
        let mut g = 0u32;
        while g < n_groups {
            let rounds = ((n_groups - g) / lanes).min(STRIP_ROUNDS);
            // One emission consumes exactly one candidate index, so `n`
            // prehashed indices per lane cover every collision-free
            // walk; a lane only outruns its prehash when attempt-0 draws
            // collide, and then only past the prehashed range.
            let prehashed = engine && rounds > 0;
            let strip_groups = if prehashed {
                hashes.resize(rounds as usize * row, 0);
                kernel::draw_hashes_strip(prefix, g as u64, rounds as usize, n, &mut hashes);
                rounds * lanes
            } else {
                n_groups - g
            };
            for s in 0..strip_groups {
                let gi = g + s;
                let pre = if prehashed {
                    let r = (s / lanes) as usize;
                    PreDraws::new(&hashes[r * row..(r + 1) * row], (s % lanes) as usize)
                } else {
                    PreDraws::empty()
                };
                let filtered = max_load >= slots;
                if filtered {
                    tail_start = tail_start.min(gi);
                }
                let (slot, counts) = self.layout.bulk_group_mut(gi);
                let filled = !filtered
                    && prehashed
                    && self
                        .rush
                        .fill_prehashed(&self.map, &mut self.rush_scratch, pre, slot);
                if !filled {
                    // Engine off, an attempt-0 collision, or the filtered
                    // tail: the generic walk re-begins the scratch and
                    // emits the identical sequence.
                    let walk =
                        self.rush
                            .walk_prehashed(&self.map, gi as u64, &mut self.rush_scratch, pre);
                    let mut got = 0;
                    for d in walk {
                        if !filtered || counts[d.0 as usize] < slots {
                            slot[got] = d;
                            got += 1;
                            if got == n {
                                break;
                            }
                        }
                    }
                    assert_eq!(got, n, "system too full to place group {gi}");
                }
                for &d in slot.iter() {
                    let c = &mut counts[d.0 as usize];
                    *c += 1;
                    max_load = max_load.max(*c);
                }
            }
            g += strip_groups;
        }
        self.place_hashes = hashes;
        self.layout.finish_bulk_placement();
        if engine {
            self.layout.memoize_walk_prefixes(tail_start);
        }
        for (di, disk) in self.disks.iter_mut().enumerate() {
            let load = self.layout.disk_load(DiskId(di as u32)) as u64;
            if load > 0 {
                disk.allocate(load * block_bytes);
            }
        }
    }

    // ----- accessors -----------------------------------------------------

    pub fn config(&self) -> &SystemConfig {
        self.cfg.config()
    }

    /// The batch-shared validated config with precomputed derived values.
    pub fn prepared(&self) -> &Arc<PreparedConfig> {
        &self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn metrics(&self) -> &TrialMetrics {
        &self.metrics
    }

    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    pub(crate) fn layout_mut(&mut self) -> &mut GroupLayout {
        &mut self.layout
    }

    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        self.queue.schedule(at, ev);
    }

    pub fn cluster_map(&self) -> &ClusterMap {
        &self.map
    }

    pub(crate) fn map_mut(&mut self) -> &mut ClusterMap {
        &mut self.map
    }

    pub(crate) fn metrics_mut(&mut self) -> &mut TrialMetrics {
        &mut self.metrics
    }

    pub(crate) fn rush(&self) -> Rush {
        self.rush
    }

    pub fn disk(&self, d: DiskId) -> &Disk {
        &self.disks[d.0 as usize]
    }

    pub fn n_disks(&self) -> u32 {
        self.disks.len() as u32
    }

    pub(crate) fn disk_mut(&mut self, d: DiskId) -> &mut Disk {
        &mut self.disks[d.0 as usize]
    }

    pub(crate) fn is_suspect(&self, d: DiskId) -> bool {
        self.smart[d.0 as usize].health_at(self.now) == farm_disk::health::Health::Suspect
    }

    pub(crate) fn ablation_rng_below(&mut self, n: u64) -> u64 {
        self.ablation_rng.below(n)
    }

    /// Sample whether reading `bytes` from source `d` right now trips a
    /// latent sector error (extension model; false when disabled).
    pub(crate) fn latent_read_trips(&mut self, d: DiskId, bytes: u64) -> bool {
        let Some(latent) = self.cfg.latent else {
            return false;
        };
        let disk = &self.disks[d.0 as usize];
        latent.read_trips(
            disk.birth,
            self.now,
            bytes,
            disk.capacity,
            &mut self.latent_rng,
        )
    }

    // ----- observability --------------------------------------------------

    /// Profile the event loop (per-event-type counts/time, queue depth).
    /// Never changes results; costs ~two `Instant` reads per event.
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(Box::new(EventProfile::new(Event::KIND_LABELS)));
    }

    /// Take the accumulated profile (if profiling was enabled).
    pub fn take_profile(&mut self) -> Option<Box<EventProfile>> {
        self.profiler.take()
    }

    /// Attach the consumers of the trial event stream (tracer, flight
    /// recorder, span recorder): every state transition of the trial is
    /// handed to it once, as a [`TrialEvent`]. Never changes results.
    pub fn set_recorder(&mut self, rec: TrialRecorder) {
        self.recorder = Some(Box::new(rec));
    }

    /// Detach the recorder, closing any still-open spans as `truncated`
    /// at the current instant (after a run, the horizon).
    pub fn take_recorder(&mut self) -> Option<Box<TrialRecorder>> {
        let now = self.now.as_secs();
        let mut rec = self.recorder.take();
        if let Some(r) = rec.as_deref_mut() {
            r.finish(now);
        }
        rec
    }

    /// Report one state transition to the attached recorder. The hook
    /// every handler calls; with no recorder (the default) it is a
    /// single null test.
    #[inline]
    pub(crate) fn record(&mut self, ev: TrialEvent<'_>) {
        if self.recorder.is_some() {
            self.record_slow(ev);
        }
    }

    /// Cold half of [`Simulation::record`], kept out of line so the
    /// handlers' hot code stays compact.
    #[cold]
    #[inline(never)]
    fn record_slow(&mut self, ev: TrialEvent<'_>) {
        let t = self.now.as_secs();
        if let Some(r) = self.recorder.as_deref_mut() {
            r.record(t, &ev);
        }
    }

    /// Attach a cluster-state timeline: gauges of failed disks,
    /// in-flight rebuilds, vulnerable groups, recovery utilization and
    /// spare capacity are sampled at the recorder's fixed interval.
    /// Never changes results — samples are taken between events, not
    /// through the event queue.
    pub fn set_timeline(&mut self, recorder: TimelineRecorder) {
        let gauges = self.scan_gauges();
        self.timeline = Some(Box::new(TimelineSlot { recorder, gauges }));
    }

    /// Take the recorded timeline (complete after a run), dropping the
    /// live gauge aggregates that served it.
    pub fn take_timeline(&mut self) -> Option<TimelineRecorder> {
        self.timeline.take().map(|tl| tl.recorder)
    }

    /// Build the running gauge aggregates from one full scan of the
    /// current state — the last full scan; every later sample reads the
    /// incrementally-maintained counters instead.
    fn scan_gauges(&self) -> LiveGauges {
        let mut g = LiveGauges {
            active: 0,
            free: 0,
            capacity: 0,
            rebuilds_in_flight: 0,
            vulnerable_groups: 0,
            busy_pipes: 0,
            pipe_busy: vec![false; self.disks.len()],
            expiries: BinaryHeap::new(),
        };
        for (i, d) in self.disks.iter().enumerate() {
            if d.is_active() {
                g.active += 1;
                g.free += d.free_bytes();
                g.capacity += d.capacity;
                if self.recovery_busy[i] > self.now {
                    g.pipe_busy[i] = true;
                    g.busy_pipes += 1;
                    g.expiries.push(Reverse((self.recovery_busy[i], i as u32)));
                }
            }
        }
        for grp in 0..self.layout.n_groups() {
            if self.layout.is_dead(grp) {
                continue;
            }
            let missing = self.layout.missing_count(grp) as u64;
            if missing > 0 {
                g.rebuilds_in_flight += missing;
                g.vulnerable_groups += 1;
            }
        }
        g
    }

    /// The live gauge aggregates, when a timeline is attached.
    #[inline]
    fn gauges(&mut self) -> Option<&mut LiveGauges> {
        self.timeline.as_deref_mut().map(|tl| &mut tl.gauges)
    }

    // ----- live-gauge hooks (no-ops unless a timeline is attached) -------

    /// An active disk allocated `bytes` (rebuild target reservation,
    /// migration destination).
    #[inline]
    pub(crate) fn gauge_alloc(&mut self, bytes: u64) {
        if let Some(g) = self.gauges() {
            g.free -= bytes;
        }
    }

    /// An active disk released `bytes` (dead-group reservation freed,
    /// migration source).
    #[inline]
    pub(crate) fn gauge_release(&mut self, bytes: u64) {
        if let Some(g) = self.gauges() {
            g.free += bytes;
        }
    }

    /// Disk `d` is about to fail (still active, `used` not yet zeroed).
    #[inline]
    fn gauge_disk_failed(&mut self, d: DiskId) {
        let di = d.0 as usize;
        if let Some(tl) = self.timeline.as_deref_mut() {
            let g = &mut tl.gauges;
            let disk = &self.disks[di];
            g.active -= 1;
            g.free -= disk.free_bytes();
            g.capacity -= disk.capacity;
            // Branchless: an idle pipe subtracts 0 and rewrites false.
            let was_busy = g.pipe_busy[di];
            g.pipe_busy[di] = false;
            g.busy_pipes -= was_busy as u64;
        }
    }

    /// A block of a live group was marked missing; `new_group_count` is
    /// the group's missing count after the mark.
    #[inline]
    fn gauge_block_missing(&mut self, new_group_count: u8) {
        if let Some(g) = self.gauges() {
            g.rebuilds_in_flight += 1;
            // Branchless: the 0→1 missing transition is data-dependent
            // (unpredictable under load), so fold it into the add.
            g.vulnerable_groups += (new_group_count == 1) as u64;
        }
    }

    /// A block was marked available again; `remaining` is the group's
    /// missing count after the mark.
    #[inline]
    fn gauge_block_available(&mut self, remaining: u8) {
        if let Some(g) = self.gauges() {
            g.rebuilds_in_flight -= 1;
            // Branchless mirror of `gauge_block_missing`.
            g.vulnerable_groups -= (remaining == 0) as u64;
        }
    }

    /// A group was just marked dead: its missing blocks leave the
    /// in-flight gauge and it stops counting as vulnerable (dead groups
    /// are excluded from both, matching the scan).
    #[inline]
    pub(crate) fn gauge_group_died(&mut self, group: u32) {
        if let Some(tl) = self.timeline.as_deref_mut() {
            let g = &mut tl.gauges;
            g.rebuilds_in_flight -= self.layout.missing_count(group) as u64;
            // A group only dies on a missing-block transition, so it
            // necessarily counted as vulnerable.
            g.vulnerable_groups -= 1;
        }
    }

    pub(crate) fn recovery_busy_until(&self, d: DiskId) -> SimTime {
        self.recovery_busy[d.0 as usize]
    }

    pub(crate) fn set_recovery_busy(&mut self, d: DiskId, until: SimTime) {
        let di = d.0 as usize;
        self.recovery_busy[di] = until;
        if let Some(tl) = self.timeline.as_deref_mut() {
            let g = &mut tl.gauges;
            // One heap entry per busy pipe: push only on the idle→busy
            // transition. A surfacing entry is checked against the
            // authoritative `recovery_busy` value and re-armed if the
            // pipe was extended meanwhile, so extensions — the common
            // case, every rebuild re-busies m+1 pipes — cost no heap
            // traffic at all.
            // The counter update is branchless (+1 on idle→busy, −1 on
            // busy→idle, 0 on the no-transition cases via wrapping
            // arithmetic); only the heap push — a real side effect —
            // keeps its idle→busy condition.
            let was = g.pipe_busy[di] as u64;
            let busy = (until > self.now) as u64;
            g.pipe_busy[di] = busy != 0;
            g.busy_pipes = g.busy_pipes.wrapping_add(busy).wrapping_sub(was);
            if busy > was {
                g.expiries.push(Reverse((until, d.0)));
            }
        }
    }

    /// Used bytes of every drive in the *placement population* (the disks
    /// the utilization experiments of §3.4 look at), with liveness.
    /// Returns a lazy iterator — callers that need a snapshot collect it
    /// themselves; per-call allocation here was pure waste.
    pub fn population_utilization(&self) -> impl Iterator<Item = (DiskId, u64, bool)> + '_ {
        (0..self.map.n_disks()).map(|i| {
            let d = DiskId(i);
            let disk = &self.disks[i as usize];
            (d, disk.used, disk.is_active())
        })
    }

    // ----- main loop ------------------------------------------------------

    /// Run the whole horizon and return the trial metrics.
    pub fn run(&mut self) -> TrialMetrics {
        self.run_inner(false)
    }

    /// Run until the first data loss (cheaper when only P(loss) matters).
    pub fn run_until_loss(&mut self) -> TrialMetrics {
        self.run_inner(true)
    }

    fn run_inner(&mut self, stop_on_loss: bool) -> TrialMetrics {
        // The loop is monomorphized twice so that with profiling and the
        // timeline off (the default) the hot path carries no clock
        // reads, no `Option` plumbing — nothing beyond the dispatch
        // itself. (The event recorder hooks handlers, not the loop, so
        // it needs no loop variant of its own.)
        if self.profiler.is_some() || self.timeline.is_some() {
            self.run_loop_instrumented(stop_on_loss);
        } else {
            self.run_loop(stop_on_loss);
        }
        self.now = self.horizon;
        self.metrics.clone()
    }

    #[inline(always)]
    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Failure(d) => self.on_failure(d),
            Event::Detect(d) => self.on_detect(d),
            Event::RebuildDone { block, epoch } => self.on_rebuild_done(block, epoch),
        }
    }

    fn run_loop(&mut self, stop_on_loss: bool) {
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.horizon {
                break;
            }
            self.now = t;
            self.metrics.events_processed += 1;
            self.dispatch(ev);
            if stop_on_loss && self.metrics.lost_data() {
                break;
            }
        }
    }

    /// Event loop with profiling and/or timeline sampling attached.
    /// Timeline samples are drawn *between* events — every due sample
    /// instant `s <= t` is recorded (from the state the previous event
    /// left) before the event at `t` dispatches — never through the
    /// event queue, so `events_processed` and queue tie-breaking are
    /// untouched and results stay bit-identical.
    fn run_loop_instrumented(&mut self, stop_on_loss: bool) {
        // Batch timeline sampling: cache the next due sample instant so
        // each event pays one float compare, entering the cold sampling
        // path only when a sample interval actually elapsed — not once
        // per event touch. Rows are unchanged: `timeline_sample_to`
        // still records every due instant `s <= t` in order, and only
        // this loop advances the recorder, so the cache cannot go stale.
        let mut next_due: Option<f64> = self.timeline.as_deref().and_then(|tl| tl.recorder.due());
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.horizon {
                break;
            }
            if let Some(due) = next_due {
                if due <= t.as_secs() {
                    self.timeline_sample_to(t.as_secs());
                    next_due = self.timeline.as_deref().and_then(|tl| tl.recorder.due());
                }
            }
            self.now = t;
            self.metrics.events_processed += 1;
            if self.profiler.is_some() {
                let t0 = std::time::Instant::now();
                self.dispatch(ev);
                let nanos = t0.elapsed().as_nanos() as u64;
                let depth = self.queue.len() as u64;
                if let Some(p) = self.profiler.as_deref_mut() {
                    p.record(ev.kind_index(), nanos);
                    p.sample_queue_depth(depth);
                }
            } else {
                self.dispatch(ev);
            }
            if stop_on_loss && self.metrics.lost_data() {
                break;
            }
        }
        // Sample instants past the last event (or past an early loss
        // stop) record the final state, so every trial yields the same
        // row count — duration / interval — whatever its event history.
        if self.timeline.is_some() {
            self.timeline_sample_to(f64::INFINITY);
        }
    }

    /// Record every due timeline sample at or before `upto` (simulated
    /// seconds; infinity records all remaining instants with the
    /// current state).
    #[cold]
    #[inline(never)]
    fn timeline_sample_to(&mut self, upto: f64) {
        // Lift the slot out so the gauge reads can borrow `self`.
        let mut tl = self.timeline.take().expect("caller checked is_some");
        while let Some(s) = tl.recorder.due().filter(|&s| s <= upto) {
            let row = self.timeline_row(&mut tl.gauges, SimTime::from_secs(s));
            tl.recorder.push(row);
        }
        self.timeline = Some(tl);
    }

    /// The gauge row at sample instant `at`, read from the O(1) live
    /// aggregates. The only per-sample work proportional to anything is
    /// draining recovery-pipe expiries that elapsed since the previous
    /// sample — each busy pipe holds exactly one heap entry (re-armed
    /// in place when the pipe was extended), so the heap stays at most
    /// busy-pipes deep and the drain is O(pipes that went idle).
    ///
    /// Debug builds cross-check every row against the full scan
    /// ([`Simulation::timeline_gauges`]), which is what keeps the
    /// incremental bookkeeping honest across the whole test suite.
    fn timeline_row(&self, g: &mut LiveGauges, at: SimTime) -> [f64; N_GAUGES] {
        while let Some(&Reverse((until, d))) = g.expiries.peek() {
            if until > at {
                break;
            }
            g.expiries.pop();
            let di = d as usize;
            if g.pipe_busy[di] {
                let live = self.recovery_busy[di];
                if live > at {
                    // Extended since the entry was pushed: re-arm with
                    // the authoritative expiry (strictly later, so the
                    // drain advances).
                    g.expiries.push(Reverse((live, d)));
                } else {
                    g.pipe_busy[di] = false;
                    g.busy_pipes -= 1;
                }
            }
        }
        let row = [
            self.failed_since_batch as f64,
            g.rebuilds_in_flight as f64,
            g.vulnerable_groups as f64,
            if g.active == 0 {
                0.0
            } else {
                g.busy_pipes as f64 / g.active as f64
            },
            if g.capacity == 0 {
                0.0
            } else {
                g.free as f64 / g.capacity as f64
            },
        ];
        debug_assert_eq!(
            row,
            self.timeline_gauges(at),
            "live gauges diverged from the reference scan at t={}",
            at.as_secs()
        );
        row
    }

    /// Reference implementation of the gauge row: a full scan of all
    /// disks and all groups. Not used on the sampling path (the live
    /// aggregates are); retained as the debug-build cross-check.
    fn timeline_gauges(&self, at: SimTime) -> [f64; N_GAUGES] {
        let mut active = 0u64;
        let mut busy_pipes = 0u64;
        let mut free = 0u64;
        let mut capacity = 0u64;
        for (i, d) in self.disks.iter().enumerate() {
            if d.is_active() {
                active += 1;
                if self.recovery_busy[i] > at {
                    busy_pipes += 1;
                }
                free += d.free_bytes();
                capacity += d.capacity;
            }
        }
        let mut rebuilds_in_flight = 0u64;
        let mut vulnerable_groups = 0u64;
        for g in 0..self.layout.n_groups() {
            if self.layout.is_dead(g) {
                continue;
            }
            let missing = self.layout.missing_count(g) as u64;
            if missing > 0 {
                rebuilds_in_flight += missing;
                vulnerable_groups += 1;
            }
        }
        [
            self.failed_since_batch as f64,
            rebuilds_in_flight as f64,
            vulnerable_groups as f64,
            if active == 0 {
                0.0
            } else {
                busy_pipes as f64 / active as f64
            },
            if capacity == 0 {
                0.0
            } else {
                free as f64 / capacity as f64
            },
        ]
    }

    // ----- event handlers -------------------------------------------------

    fn on_failure(&mut self, d: DiskId) {
        debug_assert!(self.disks[d.0 as usize].is_active(), "disk fails once");
        self.metrics.disk_failures += 1;
        self.gauge_disk_failed(d);
        self.disks[d.0 as usize].fail();
        self.record(TrialEvent::DiskFailed { disk: d.0 });

        // Classify every block homed here. The first failure of the
        // trial materializes the reverse index the bulk placement
        // deferred (see `GroupLayout::build_reverse_index`); then
        // snapshot it into the reusable scratch (the loop body mutates
        // the layout).
        self.layout.build_reverse_index();
        let mut blocks = std::mem::take(&mut self.blocks_scratch);
        blocks.clear();
        blocks.extend_from_slice(self.layout.blocks_on(d));
        for &b in &blocks {
            if self.layout.is_dead(b.group()) {
                continue;
            }
            if self.layout.is_missing(b) {
                // An in-flight rebuild was targeting this drive: recovery
                // redirection (§2.3). Invalidate the pending completion;
                // Detect(d) will pick a fresh target.
                self.metrics.redirections += 1;
                self.layout.bump_epoch(b);
                self.record(TrialEvent::Redirect {
                    b: b.into(),
                    disk: d.0,
                });
            } else {
                let missing = self.layout.mark_missing(b);
                self.layout.set_vulnerable(b, self.now);
                self.gauge_block_missing(missing);
                self.record(TrialEvent::BlockFailed {
                    b: b.into(),
                    disk: d.0,
                });
                let available = self.cfg.scheme.n - missing as u32;
                if available < self.cfg.scheme.m {
                    self.layout.mark_dead(b.group());
                    self.gauge_group_died(b.group());
                    self.metrics
                        .record_loss(self.cfg.group_user_bytes, self.now);
                    self.record(TrialEvent::Loss {
                        group: b.group(),
                        cause: LossCause::DiskFailure,
                    });
                }
            }
        }
        self.blocks_scratch = blocks;

        // Batch replacement bookkeeping (only the placement population).
        if d.0 < self.map.n_disks() {
            self.failed_since_batch += 1;
            self.maybe_replace_batch();
        }

        self.queue
            .schedule(self.now + self.cfg.detection_latency, Event::Detect(d));
    }

    fn on_detect(&mut self, d: DiskId) {
        // Start (or restart, after redirection) a rebuild for every
        // unavailable block still homed on the dead drive. (The index
        // is already live — `on_failure` ran first — but a detect-only
        // entry path would materialize it here; O(1) when built.)
        self.layout.build_reverse_index();
        let mut blocks = std::mem::take(&mut self.blocks_scratch);
        blocks.clear();
        blocks.extend(
            self.layout
                .blocks_on(d)
                .iter()
                .copied()
                .filter(|&b| self.layout.is_missing(b) && !self.layout.is_dead(b.group())),
        );
        if !blocks.is_empty() {
            // Recovery fan-out: how many rebuilds this one detected
            // failure launches (FARM declusters them; single-spare RAID
            // funnels the same count into one fresh drive).
            self.metrics.fanout.record(blocks.len() as f64);
            self.record(TrialEvent::Detect {
                disk: d.0,
                rebuilds: blocks.len(),
            });
            let forced_target = match self.cfg.recovery {
                RecoveryPolicy::Farm => None,
                RecoveryPolicy::SingleSpare => {
                    // One dedicated replacement drive per failed disk
                    // (Figure 2(c)): all rebuilds converge on it.
                    Some(self.add_disk(self.now))
                }
            };
            for &b in &blocks {
                self.schedule_rebuild(b, forced_target);
            }
        }
        self.blocks_scratch = blocks;
    }

    fn on_rebuild_done(&mut self, b: BlockRef, epoch: u32) {
        if self.layout.epoch(b) != epoch {
            return; // redirected or otherwise superseded
        }
        if self.layout.is_dead(b.group()) {
            // The group lost data while this rebuild was in flight; the
            // reconstructed block is useless. Release the reservation.
            let home = self.layout.home(b);
            if self.disks[home.0 as usize].is_active() {
                let bytes = self.cfg.block_bytes;
                self.disks[home.0 as usize].release(bytes);
                self.gauge_release(bytes);
            }
            self.layout.take_vulnerable(b);
            return;
        }
        self.layout.mark_available(b);
        self.gauge_block_available(self.layout.missing_count(b.group()));
        self.metrics.rebuilds_completed += 1;
        let window = self.layout.take_vulnerable(b).map(|since| {
            let window = (self.now - since).as_secs();
            self.metrics.record_vulnerability(window);
            window
        });
        self.record(TrialEvent::RebuildDone {
            b: b.into(),
            home: self.layout.home(b).0,
            window,
        });
    }

    /// Effective recovery bandwidth at an instant (constant unless the
    /// adaptive-workload extension is enabled).
    pub(crate) fn recovery_bandwidth_at(&self, t: SimTime) -> u64 {
        match &self.cfg.workload {
            Some(w) => workload::effective_bandwidth(self.cfg.recovery_bandwidth, w, t),
            None => self.cfg.recovery_bandwidth,
        }
    }
}
