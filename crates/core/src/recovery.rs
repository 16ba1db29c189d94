//! Recovery-target selection and rebuild scheduling (§2.3).
//!
//! FARM's target rules: the recovery target chosen from the candidate
//! list "(a) must be alive, (b) should not contain already a buddy from
//! the same group, and (c) must have sufficient space. Additionally, it
//! should currently have sufficient bandwidth, though if there is no
//! better alternative, we will stick to it." With S.M.A.R.T. health
//! monitoring enabled, suspect drives are avoided too.

use crate::layout::BlockRef;
use crate::sim::{Event, Simulation};
use farm_des::time::{Duration, SimTime};
use farm_obs::{LossCause, TrialEvent};
use farm_placement::DiskId;

/// How many hard-eligible candidates to scan while looking for one with
/// an idle recovery pipe before settling for the first eligible one.
const BANDWIDTH_SCAN: usize = 8;

impl Simulation {
    /// Pick a FARM recovery target for a block of `group` according to
    /// the configured policy.
    pub(crate) fn choose_target(&mut self, group: u32, block_bytes: u64) -> Option<DiskId> {
        match self.config().target_policy {
            crate::config::TargetPolicy::CandidateWalk => {
                self.choose_target_candidate_walk(group, block_bytes)
            }
            crate::config::TargetPolicy::RandomEligible => {
                self.choose_target_random(group, block_bytes)
            }
        }
    }

    /// §2.3's policy: walk the group's placement candidate list.
    fn choose_target_candidate_walk(&mut self, group: u32, block_bytes: u64) -> Option<DiskId> {
        let rush = self.rush();
        let now = self.now();
        // The walk holds the scratch mutably while the loop body consults
        // `&self` accessors, so lift it out of the struct for the
        // duration. It must be put back on every path — no early returns.
        let mut scratch = std::mem::take(&mut self.rush_scratch);
        let mut chosen: Option<DiskId> = None;
        let mut fallback: Option<DiskId> = None;
        let mut fallback_suspect: Option<DiskId> = None;
        let mut scanned = 0usize;
        // Resume from the memoized placement prefix when one is cached
        // (engine on, group placed on the fast path, memo still valid
        // for this map): the first `n` candidates are replayed from the
        // layout instead of rehashed. An empty prefix degrades to the
        // plain walk, so the emitted sequence is identical either way.
        let prefix = self.layout().walk_prefix(group);
        for cand in rush.walk_resumed(self.cluster_map(), group as u64, &mut scratch, prefix) {
            let disk = self.disk(cand);
            // Hard constraints (a)–(c).
            if !disk.is_active()
                || self.layout().group_uses_disk(group, cand)
                || !disk.has_space_for(block_bytes)
            {
                continue;
            }
            if self.is_suspect(cand) {
                // Soft constraint: avoid unreliable drives, but remember
                // one in case nothing healthy qualifies.
                fallback_suspect.get_or_insert(cand);
                continue;
            }
            // Soft constraint: prefer an idle recovery pipe.
            if self.recovery_busy_until(cand) <= now {
                chosen = Some(cand);
                break;
            }
            fallback.get_or_insert(cand);
            scanned += 1;
            if scanned >= BANDWIDTH_SCAN {
                break;
            }
        }
        self.rush_scratch = scratch;
        chosen.or(fallback).or(fallback_suspect)
    }

    /// Ablation baseline: a uniformly random active disk meeting only the
    /// hard constraints (alive, no buddy, space).
    fn choose_target_random(&mut self, group: u32, block_bytes: u64) -> Option<DiskId> {
        let n = self.n_disks() as u64;
        for _ in 0..256 {
            let d = DiskId(self.ablation_rng_below(n) as u32);
            let disk = self.disk(d);
            if disk.is_active()
                && !self.layout().group_uses_disk(group, d)
                && disk.has_space_for(block_bytes)
            {
                return Some(d);
            }
        }
        // Dense fallback scan for pathological fill levels.
        (0..self.n_disks()).map(DiskId).find(|&d| {
            self.disk(d).is_active()
                && !self.layout().group_uses_disk(group, d)
                && self.disk(d).has_space_for(block_bytes)
        })
    }

    /// The rebuild sources: the `rebuild_sources()` least-busy available
    /// buddies of the group (one replica for mirroring, `m` blocks for
    /// erasure-coded schemes). Fills the caller-provided buffer so the
    /// rebuild hot path can reuse one allocation across a whole trial.
    pub(crate) fn choose_sources_into(&self, b: BlockRef, sources: &mut Vec<u32>) {
        sources.clear();
        let wanted = self.config().scheme.rebuild_sources() as usize;
        let layout = self.layout();
        let n = layout.blocks_per_group();
        for idx in 0..n {
            let other = BlockRef::new(b.group(), idx);
            if other == b || layout.is_missing(other) {
                continue;
            }
            let home = layout.home(other);
            if self.disk(home).is_active() {
                sources.push(home.0);
            }
        }
        debug_assert!(
            sources.len() >= wanted,
            "live group must have at least m available blocks"
        );
        sources.sort_by(|&a, &z| {
            self.recovery_busy_until(DiskId(a))
                .cmp(&self.recovery_busy_until(DiskId(z)))
                .then(a.cmp(&z))
        });
        sources.truncate(wanted);
    }

    /// Start a rebuild for an unavailable block. `forced_target` is set
    /// by the single-spare RAID policy; FARM chooses from the candidate
    /// list.
    pub(crate) fn schedule_rebuild(&mut self, b: BlockRef, forced_target: Option<DiskId>) {
        debug_assert!(self.layout().is_missing(b));
        debug_assert!(!self.layout().is_dead(b.group()));
        let block_bytes = self.prepared().block_bytes;
        let target = match forced_target {
            Some(t) => t,
            None => match self.choose_target(b.group(), block_bytes) {
                Some(t) => t,
                None => {
                    // No eligible target anywhere: the block cannot be
                    // re-protected. Treat as unrecoverable (never happens
                    // at the paper's 40% utilization; counted so tests
                    // can assert that).
                    self.metrics_mut().no_targets += 1;
                    self.record(TrialEvent::NoTarget { b: b.into() });
                    return;
                }
            },
        };

        // Latent-sector-error extension: each source read may trip an
        // undiscovered defect. A tripped source is unusable for this
        // reconstruction; if the group has no spare redundancy beyond
        // the m blocks the rebuild needs, the block is unrecoverable.
        // The source list lives in a reusable scratch; it must be put
        // back on every return path below.
        let mut sources = std::mem::take(&mut self.sources_scratch);
        self.choose_sources_into(b, &mut sources);
        if self.config().latent.is_some() {
            let n = self.config().scheme.n;
            let m = self.config().scheme.m;
            let available = n - self.layout().missing_count(b.group()) as u32;
            let mut trips = 0u32;
            for &s in &sources {
                if self.latent_read_trips(DiskId(s), block_bytes) {
                    trips += 1;
                    self.record(TrialEvent::LatentTrip {
                        b: b.into(),
                        source: s,
                    });
                }
            }
            if trips > 0 {
                self.metrics_mut().latent_read_errors += trips as u64;
                if available < m + trips {
                    // Not enough clean redundancy left to reconstruct.
                    let now = self.now();
                    let bytes = self.config().group_user_bytes;
                    self.layout_mut().mark_dead(b.group());
                    self.gauge_group_died(b.group());
                    self.metrics_mut().record_loss(bytes, now);
                    self.record(TrialEvent::Loss {
                        group: b.group(),
                        cause: LossCause::LatentReadError,
                    });
                    self.sources_scratch = sources;
                    return;
                }
                // Otherwise alternates exist; re-sourcing is free in this
                // model (the re-read costs are dwarfed by the rebuild).
            }
        }

        // Reserve space and re-home the block onto its target.
        self.disk_mut(target).allocate(block_bytes);
        self.gauge_alloc(block_bytes);
        self.layout_mut().move_block(b, target);
        let epoch = self.layout_mut().bump_epoch(b);

        // The rebuild occupies the target's and the sources' recovery
        // pipes; it starts when all of them are free. With contention
        // modeling disabled (ablation), every rebuild starts immediately.
        let now = self.now();
        let mut start: SimTime = now;
        if self.config().model_contention {
            start = std::cmp::max(start, self.recovery_busy_until(target));
            for &s in &sources {
                start = std::cmp::max(start, self.recovery_busy_until(DiskId(s)));
            }
        }
        let wait_secs = (start - now).as_secs();
        self.metrics_mut().queue_delay.record(wait_secs);
        // Per-phase repair histograms (§ spans): how stale the Detect
        // that launched this attempt was, relative to the block's first
        // vulnerable instant. Recorded unconditionally — cheap, and it
        // keeps summaries identical whether span export is on or off.
        let lag = self
            .layout()
            .vulnerable_since(b)
            .map_or(0.0, |since| (now - since).as_secs());
        self.metrics_mut().detect_lag.record(lag);
        let bw = self.recovery_bandwidth_at(start);
        let duration = Duration::from_secs(block_bytes as f64 / bw as f64);
        let done = start + duration;
        self.metrics_mut().transfer.record(duration.as_secs());
        self.record(TrialEvent::RebuildStart {
            b: b.into(),
            target: target.0,
            wait: wait_secs,
            start: start.as_secs(),
            duration: duration.as_secs(),
            sources: &sources,
        });
        if self.config().model_contention {
            self.set_recovery_busy(target, done);
            for &s in &sources {
                self.set_recovery_busy(DiskId(s), done);
            }
        }
        self.schedule(done, Event::RebuildDone { block: b, epoch });
        self.sources_scratch = sources;
    }
}
