//! Weighted Highest-Random-Weight (rendezvous) placement — an O(N)
//! baseline used to sanity-check the RUSH implementation. It has perfect minimal migration and balance but
//! scans every disk per lookup, which is exactly why RUSH-family
//! algorithms exist for systems with thousands of drives.

use crate::cluster::{ClusterMap, DiskId};
use crate::hash;

#[derive(Clone, Copy, Debug)]
pub struct Hrw {
    seed: u64,
}

impl Hrw {
    pub fn new(seed: u64) -> Self {
        Hrw { seed }
    }

    /// Weighted rendezvous score: smaller is better. Using
    /// `-ln(u)/weight` makes the winner distribution proportional to
    /// weights (exponential-races argument).
    fn score(&self, group: u64, d: DiskId, weight: f64) -> f64 {
        let u = hash::to_unit_open(hash::hash_words(self.seed, &[group, d.0 as u64]));
        -u.ln() / weight
    }

    /// The `n` best-ranked disks for a group, ascending by score.
    pub fn place(&self, map: &ClusterMap, group: u64, n: usize) -> Vec<DiskId> {
        assert!(n as u64 <= map.n_disks() as u64);
        let mut scored: Vec<(f64, DiskId)> = map
            .iter_disks()
            .map(|d| (self.score(group, d, map.disk_weight(d)), d))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.into_iter().take(n).map(|(_, d)| d).collect()
    }

    /// Full candidate ordering (every disk, ranked).
    pub fn candidates(&self, map: &ClusterMap, group: u64) -> Vec<DiskId> {
        self.place(map, group, map.n_disks() as usize)
    }

    /// The `n` best-ranked disks written into `out`, reusing `scratch`'s
    /// score buffer — allocation-free once the buffers are warm, and
    /// O(N + n log n) via a top-n partition instead of `place`'s full
    /// O(N log N) sort. Produces exactly `place`'s ordering.
    pub fn place_into(
        &self,
        map: &ClusterMap,
        group: u64,
        n: usize,
        scratch: &mut HrwScratch,
        out: &mut Vec<DiskId>,
    ) {
        assert!(n as u64 <= map.n_disks() as u64);
        out.clear();
        if n == 0 {
            return;
        }
        let scored = &mut scratch.scored;
        scored.clear();
        scored.extend(
            map.iter_disks()
                .map(|d| (self.score(group, d, map.disk_weight(d)), d)),
        );
        if n < scored.len() {
            scored.select_nth_unstable_by(n - 1, |a, b| a.0.total_cmp(&b.0));
            scored.truncate(n);
        }
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.extend(scored.iter().map(|&(_, d)| d));
    }

    /// Full candidate ordering into a reusable buffer (see
    /// [`Hrw::place_into`]).
    pub fn candidates_into(
        &self,
        map: &ClusterMap,
        group: u64,
        scratch: &mut HrwScratch,
        out: &mut Vec<DiskId>,
    ) {
        self.place_into(map, group, map.n_disks() as usize, scratch, out);
    }
}

/// Reusable score buffer for [`Hrw::place_into`].
#[derive(Clone, Debug, Default)]
pub struct HrwScratch {
    scored: Vec<(f64, DiskId)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_des::stats::coefficient_of_variation;

    #[test]
    fn deterministic_and_distinct() {
        let map = ClusterMap::uniform(30);
        let hrw = Hrw::new(4);
        let a = hrw.place(&map, 9, 5);
        let b = hrw.place(&map, 9, 5);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn prefix_stability() {
        let map = ClusterMap::uniform(30);
        let hrw = Hrw::new(4);
        let three = hrw.place(&map, 9, 3);
        let six = hrw.place(&map, 9, 6);
        assert_eq!(&six[..3], &three[..]);
    }

    #[test]
    fn balance_uniform() {
        let map = ClusterMap::uniform(50);
        let hrw = Hrw::new(12);
        let mut counts = vec![0u64; 50];
        for g in 0..10_000u64 {
            for d in hrw.place(&map, g, 2) {
                counts[d.0 as usize] += 1;
            }
        }
        let cv = coefficient_of_variation(&counts);
        assert!(cv < 0.10, "cv {cv}");
    }

    #[test]
    fn weighted_balance() {
        let mut map = ClusterMap::uniform(20);
        map.add_cluster(20, 3.0);
        let hrw = Hrw::new(2);
        let (mut light, mut heavy) = (0u64, 0u64);
        for g in 0..30_000u64 {
            let d = hrw.place(&map, g, 1)[0];
            if d.0 < 20 {
                light += 1;
            } else {
                heavy += 1;
            }
        }
        let ratio = heavy as f64 / light as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}, expected ~3");
    }

    #[test]
    fn place_into_matches_place_exactly() {
        let mut weighted = ClusterMap::uniform(25);
        weighted.add_cluster(15, 2.5);
        let maps = [ClusterMap::uniform(40), weighted];
        let hrw = Hrw::new(11);
        let mut scratch = HrwScratch::default();
        let mut out = Vec::new();
        for map in &maps {
            let total = map.n_disks() as usize;
            for g in 0..200u64 {
                for n in [0, 1, 2, 5, total / 2, total] {
                    hrw.place_into(map, g, n, &mut scratch, &mut out);
                    assert_eq!(
                        out,
                        hrw.place(map, g, n),
                        "group {g}, n {n} diverged from the full-sort path"
                    );
                }
                // Full ranking via the reusable-buffer entry point.
                hrw.candidates_into(map, g, &mut scratch, &mut out);
                assert_eq!(out, hrw.candidates(map, g));
            }
        }
    }

    #[test]
    fn minimal_migration_is_exact_for_hrw() {
        // Rendezvous hashing only ever moves placements *onto* new disks.
        let before = ClusterMap::uniform(40);
        let mut after = before.clone();
        after.add_cluster(10, 1.0);
        let hrw = Hrw::new(6);
        for g in 0..2_000u64 {
            let old = hrw.place(&before, g, 2);
            let new = hrw.place(&after, g, 2);
            for n in &new {
                assert!(
                    old.contains(n) || n.0 >= 40,
                    "group {g}: candidate moved between old disks"
                );
            }
        }
    }
}
