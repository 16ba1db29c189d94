//! Batch disk replacement and data migration (§3.5).
//!
//! "It is typically infeasible to add disk drives one by one into large
//! storage systems ... Instead, a cluster of disk drives, called a batch,
//! is added." Once the system has lost the configured fraction of its
//! drives, a batch of new (age-0, hence infant-mortality-prone — the
//! *cohort effect*) drives joins as a new placement sub-cluster, and the
//! placement function migrates the batch's fair share of data onto it.

use crate::sim::Simulation;

impl Simulation {
    /// Check the replacement threshold and add a batch if crossed.
    pub(crate) fn maybe_replace_batch(&mut self) {
        let Some(threshold) = self.config().replacement.threshold else {
            return;
        };
        let population = self.cluster_map().n_disks();
        if (self.failed_since_batch_count() as f64) < threshold * population as f64 {
            return;
        }
        self.replace_batch();
    }

    pub(crate) fn failed_since_batch_count(&self) -> u32 {
        self.failed_since_batch
    }

    /// Add a batch of new drives equal to the failed count and migrate
    /// each group's fair share of blocks onto them.
    pub(crate) fn replace_batch(&mut self) {
        let batch_size = self.failed_since_batch;
        if batch_size == 0 {
            return;
        }
        let now = self.now();
        // New drives carry the weight of the existing ones ("currently,
        // the weight of each disk is set to that of the existing drives
        // for simplicity", §3.5).
        let cluster_idx = self.map_mut().add_cluster(batch_size, 1.0);
        // The grown map changes every group's candidate walk, so the
        // memoized placement prefixes no longer describe it — drop them
        // all before any recovery walk can resume from a stale frontier.
        self.layout_mut().invalidate_walk_prefixes();
        let first_new = self.cluster_map().cluster(cluster_idx).first;
        for _ in 0..batch_size {
            let id = self.add_disk(now);
            debug_assert!(id.0 >= first_new);
        }
        self.failed_since_batch = 0;
        self.metrics_mut().batches_added += 1;

        // Migration: re-place every group under the grown map; blocks
        // whose new home falls in the new sub-cluster move there (RUSH's
        // minimal-migration property means nothing else moves).
        let n = self.layout().blocks_per_group() as usize;
        let block_bytes = self.prepared().block_bytes;
        let rush = self.rush();
        let mut moved = 0u64;
        // The walk holds the scratch mutably while the loop body consults
        // `&self` accessors, so lift it out of the struct for the
        // duration; it is put back after the loop (no early returns).
        let mut scratch = std::mem::take(&mut self.rush_scratch);
        let mut new_homes = Vec::with_capacity(n);
        for g in 0..self.layout().n_groups() {
            if self.layout().is_dead(g) {
                continue;
            }
            new_homes.clear();
            new_homes.extend(
                rush.walk(self.cluster_map(), g as u64, &mut scratch)
                    .take(n),
            );
            for (idx, &new_home) in new_homes.iter().enumerate() {
                if new_home.0 < first_new {
                    continue; // not remapped into the batch
                }
                let b = crate::layout::BlockRef::new(g, idx as u8);
                let cur = self.layout().home(b);
                if cur == new_home
                    || self.layout().is_missing(b)
                    || !self.disk(cur).is_active()
                    || self.layout().group_uses_disk(g, new_home)
                    || !self.disk(new_home).has_space_for(block_bytes)
                {
                    continue;
                }
                self.disk_mut(cur).release(block_bytes);
                self.gauge_release(block_bytes);
                self.disk_mut(new_home).allocate(block_bytes);
                self.gauge_alloc(block_bytes);
                self.layout_mut().move_block(b, new_home);
                moved += 1;
            }
        }
        self.rush_scratch = scratch;
        self.metrics_mut().migrated_blocks += moved;
    }
}
