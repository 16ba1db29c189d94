//! Where every block of every redundancy group lives, with a reverse
//! index from disks to blocks — the bookkeeping behind Figures 1 and 2.
//!
//! Blocks are identified by `(group, idx)` where `idx < n` (the scheme's
//! total block count); `idx < m` are data blocks, the rest are
//! parity/replicas. The paper's `<grp_id, rep_id>` labels map directly.

use farm_des::time::SimTime;
use farm_placement::DiskId;
use serde::{Deserialize, Serialize};

/// A reference to one block of one redundancy group, packed as
/// `group << 8 | idx`. The packing matters: the reverse index stores one
/// `BlockRef` per placed block (millions at paper scale), and the
/// failure path snapshots and scans those lists — 4 bytes per entry
/// means half the cache lines of the naive `(u32, u8)` pair.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockRef(u32);

impl BlockRef {
    pub const MAX_GROUPS: u32 = 1 << 24;

    #[inline]
    pub fn new(group: u32, idx: u8) -> Self {
        debug_assert!(group < Self::MAX_GROUPS, "group {group} overflows BlockRef");
        BlockRef(group << 8 | idx as u32)
    }

    #[inline]
    pub fn group(self) -> u32 {
        self.0 >> 8
    }

    #[inline]
    pub fn idx(self) -> u8 {
        self.0 as u8
    }

    /// The packed `group << 8 | idx` key — a stable per-block id for
    /// observability layers that need a plain integer.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for BlockRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockRef")
            .field("group", &self.group())
            .field("idx", &self.idx())
            .finish()
    }
}

/// One disk's slice of the reverse-index arena: `arena[start..start+len]`
/// holds its blocks, with room to grow until `len == cap`. A span that
/// outgrows its capacity is relocated to the end of the arena (the old
/// slot becomes a hole — rare enough that the waste is irrelevant).
#[derive(Clone, Copy, Debug)]
struct DiskSpan {
    start: u32,
    len: u32,
    cap: u32,
}

/// Placement state of all groups.
#[derive(Clone, Debug)]
pub struct GroupLayout {
    n_groups: u32,
    /// Groups recorded so far via [`GroupLayout::push_group`].
    pushed_groups: u32,
    /// Blocks per group (the scheme's n).
    blocks_per_group: u8,
    /// homes[group * n + idx] = disk currently hosting (or being rebuilt
    /// into) that block.
    homes: Vec<DiskId>,
    /// Reverse index: blocks hosted on each disk, as spans into one
    /// shared arena (see [`DiskSpan`]). One allocation instead of one
    /// `Vec` per disk: initial placement scatters ~`blocks` pushes across
    /// every disk, and a contiguous arena keeps that traffic inside a
    /// couple hundred KiB instead of a thousand separate heap buffers.
    arena: Vec<BlockRef>,
    spans: Vec<DiskSpan>,
    /// Per-block `epoch << 1 | missing`. The epoch is bumped whenever a
    /// rebuild is started or redirected so stale completion events can
    /// be recognized; the low bit is the "unavailable" flag. Dense slot
    /// addressing: at most a few blocks are unavailable at once, but a
    /// slot array beats a heap-allocated map on the failure hot path.
    /// Kept apart from `vulnerable` below: epoch/missing checks run on
    /// every event, so the hot array is 4 bytes per block (and its
    /// all-zero initial state comes straight from the zeroed allocator).
    flags: Vec<u32>,
    /// Seconds at which each block became unavailable — the open end of
    /// its window of vulnerability; `f64::INFINITY` when available.
    /// Touched only when a window actually opens or closes.
    vulnerable: Vec<f64>,
    /// Per-group count of unavailable blocks.
    missing_count: Vec<u8>,
    /// Per-group data-lost flag: more blocks unavailable than the scheme
    /// tolerates at some instant.
    dead: Vec<bool>,
    /// Slots whose `flags`/`vulnerable` entry (or whose group's
    /// `missing_count`/`dead` entry) may have left its initial state
    /// since the last reset. Failures touch a few hundred slots per
    /// trial out of tens of thousands of blocks, so a same-shape reset
    /// re-zeroes just these instead of memsetting every array —
    /// recycled workspaces skip work proportional to cluster size.
    dirty: Vec<u32>,
    /// Memoized walk prefixes: `walk_memo[group * n .. (group+1) * n]`
    /// holds the first `n` candidates the group's placement walk
    /// emitted this trial, so recovery-target walks resume from the
    /// cached frontier instead of rehashing it (see
    /// `Rush::walk_resumed`). Valid only while `walk_gen[group]`
    /// matches `memo_gen`.
    walk_memo: Vec<DiskId>,
    /// Per-group memo validity stamp (matches `memo_gen` when valid).
    walk_gen: Vec<u32>,
    /// Deferred-index state: `false` between `finish_bulk_placement`
    /// and `build_reverse_index`, when per-disk loads live in
    /// `bulk_counts` and the spans are stale. The incremental
    /// `push_group` path keeps the index live throughout.
    index_built: bool,
    /// Per-disk block counts kept by the bulk placement loop (valid
    /// while the index is deferred) and the scatter cursors that
    /// consume them.
    /// Kept on the struct so the per-trial rebuild reuses allocations.
    bulk_counts: Vec<u32>,
    bulk_cursors: Vec<u32>,
    /// Current memo generation. The prefixes are scoped to one (seed,
    /// cluster map): bumping the generation — O(1), no clearing —
    /// drops every row at once. 0 is never a valid generation, so
    /// freshly zeroed stamps can never match.
    memo_gen: u32,
}

impl GroupLayout {
    pub fn new(n_groups: u32, blocks_per_group: u8, n_disks: u32) -> Self {
        let mut l = GroupLayout {
            n_groups: 0,
            pushed_groups: 0,
            blocks_per_group: 0,
            homes: Vec::new(),
            arena: Vec::new(),
            spans: Vec::new(),
            flags: Vec::new(),
            vulnerable: Vec::new(),
            missing_count: Vec::new(),
            dead: Vec::new(),
            dirty: Vec::new(),
            walk_memo: Vec::new(),
            walk_gen: Vec::new(),
            memo_gen: 0,
            index_built: true,
            bulk_counts: Vec::new(),
            bulk_cursors: Vec::new(),
        };
        l.reset(n_groups, blocks_per_group, n_disks);
        l
    }

    /// Reset to the just-constructed state of `GroupLayout::new(n_groups,
    /// blocks_per_group, n_disks)` while keeping every allocation whose
    /// capacity already suffices. Equality with a fresh layout is exact:
    /// all arrays end up holding their initial values, and span
    /// relocation holes from the previous trial disappear because the
    /// arena is cut back to its strided initial length.
    ///
    /// When the group shape is unchanged (the recycle-same-config path),
    /// the per-block and per-group arrays are restored *incrementally*:
    /// only the slots on the dirty list — those a failure, rebuild or
    /// death actually touched — are re-zeroed, so the reset costs
    /// O(touched + n_disks) instead of O(blocks).
    pub fn reset(&mut self, n_groups: u32, blocks_per_group: u8, n_disks: u32) {
        assert!(
            n_groups < BlockRef::MAX_GROUPS,
            "group count overflows BlockRef"
        );
        let blocks = n_groups as usize * blocks_per_group as usize;
        let per_disk = blocks / (n_disks.max(1) as usize) + 8;
        // The walk-prefix memo is scoped to one (seed, map): a new trial
        // means a new Rush seed, so every row is dropped here — an O(1)
        // generation bump, NOT the dirty-slot list: dirtiness tracks
        // availability state, but a reseed stales even untouched groups'
        // prefixes. The initial placement repopulates every row anyway.
        self.invalidate_walk_prefixes();
        if self.walk_memo.len() != blocks || self.walk_gen.len() != n_groups as usize {
            self.walk_memo.clear();
            self.walk_memo.resize(blocks, DiskId(0));
            self.walk_gen.clear();
            self.walk_gen.resize(n_groups as usize, 0);
        }
        if n_groups == self.n_groups && blocks_per_group == self.blocks_per_group {
            // Same shape: every non-initial entry is on the dirty list.
            for &s in &self.dirty {
                let s = s as usize;
                self.flags[s] = 0;
                self.vulnerable[s] = f64::INFINITY;
                let g = s / blocks_per_group as usize;
                self.missing_count[g] = 0;
                self.dead[g] = false;
            }
            self.dirty.clear();
        } else {
            self.dirty.clear();
            self.flags.clear();
            self.flags.resize(blocks, 0);
            self.vulnerable.clear();
            self.vulnerable.resize(blocks, f64::INFINITY);
            self.missing_count.clear();
            self.missing_count.resize(n_groups as usize, 0);
            self.dead.clear();
            self.dead.resize(n_groups as usize, false);
        }
        self.n_groups = n_groups;
        self.pushed_groups = 0;
        self.blocks_per_group = blocks_per_group;
        self.homes.clear();
        self.homes.reserve(blocks);
        // Pre-size every span for the balanced load RUSH delivers
        // (~blocks/disks each, CV a few percent); the slack means
        // span relocation is a cold path even under heavy rebuilds.
        // Arena contents are only ever read inside a span's `len`, and
        // every such position is written by `push_block` first, so the
        // cut-back needs no re-zeroing.
        let needed = per_disk * n_disks as usize;
        if self.arena.len() < needed {
            self.arena.resize(needed, BlockRef(0));
        } else {
            self.arena.truncate(needed);
        }
        self.spans.clear();
        self.spans.extend((0..n_disks as usize).map(|i| DiskSpan {
            start: (i * per_disk) as u32,
            len: 0,
            cap: per_disk as u32,
        }));
        // Empty spans ARE a live (empty) index; the incremental path
        // keeps it live, the bulk path defers it again.
        self.index_built = true;
    }

    #[inline]
    fn slot(&self, b: BlockRef) -> usize {
        b.group() as usize * self.blocks_per_group as usize + b.idx() as usize
    }

    pub fn n_groups(&self) -> u32 {
        self.n_groups
    }

    pub fn blocks_per_group(&self) -> u8 {
        self.blocks_per_group
    }

    /// Record the initial placement of the next group; must be called in
    /// group order with exactly `blocks_per_group` homes.
    pub fn push_group(&mut self, homes: &[DiskId]) {
        assert_eq!(homes.len(), self.blocks_per_group as usize);
        // Counter, not `homes.len() / blocks_per_group`: this runs once
        // per group during construction and a division by a runtime value
        // is ~20 cycles the placement loop would pay 26k times.
        let group = self.pushed_groups;
        assert!(group < self.n_groups, "too many groups pushed");
        self.pushed_groups += 1;
        for (idx, &d) in homes.iter().enumerate() {
            self.homes.push(d);
            self.push_block(d.0 as usize, BlockRef::new(group, idx as u8));
        }
    }

    /// Append `b` to a disk's span, relocating the span when it is full.
    #[inline]
    fn push_block(&mut self, di: usize, b: BlockRef) {
        if self.spans[di].len == self.spans[di].cap {
            self.grow_span(di);
        }
        let s = self.spans[di];
        self.arena[(s.start + s.len) as usize] = b;
        self.spans[di].len += 1;
    }

    /// Move a full span to the end of the arena with doubled capacity.
    /// The vacated range becomes a hole; relocations are rare enough
    /// (slack of 8 over RUSH's near-uniform load) that the waste stays
    /// negligible.
    #[cold]
    fn grow_span(&mut self, di: usize) {
        let s = self.spans[di];
        let new_cap = (s.cap * 2).max(8);
        let new_start = self.arena.len() as u32;
        self.arena
            .extend_from_within(s.start as usize..(s.start + s.len) as usize);
        self.arena
            .resize(new_start as usize + new_cap as usize, BlockRef(0));
        self.spans[di] = DiskSpan {
            start: new_start,
            len: s.len,
            cap: new_cap,
        };
    }

    // ----- bulk initial placement --------------------------------------

    /// Switch initial placement to bulk mode: size `homes` and zero the
    /// per-disk block counts, so the placement loop writes each group's
    /// homes in place via [`GroupLayout::bulk_group_mut`] — no
    /// intermediate buffer, no per-block `Vec` pushes. The reverse index
    /// is not touched until [`GroupLayout::build_reverse_index`]; nothing
    /// reads it during initial placement.
    pub fn begin_bulk_placement(&mut self) {
        debug_assert_eq!(
            self.pushed_groups, 0,
            "bulk placement starts from a reset layout"
        );
        let blocks = self.n_groups as usize * self.blocks_per_group as usize;
        self.homes.clear();
        self.homes.resize(blocks, DiskId(0));
        self.bulk_counts.clear();
        self.bulk_counts.resize(self.spans.len(), 0);
    }

    /// The writable homes slot of `group` during bulk placement, and the
    /// per-disk block counts. The caller adds each home it writes to the
    /// counts: they become the deferred load histogram.
    #[inline]
    pub fn bulk_group_mut(&mut self, group: u32) -> (&mut [DiskId], &mut [u32]) {
        let n = self.blocks_per_group as usize;
        let g = group as usize;
        (&mut self.homes[g * n..(g + 1) * n], &mut self.bulk_counts)
    }

    /// Finish bulk placement: mark every group pushed and serve per-disk
    /// loads from the counts the placement loop kept. The reverse index
    /// itself is NOT built here — setup only needs per-disk *counts*
    /// (the byte commit), so the arena scatter is deferred to
    /// [`GroupLayout::build_reverse_index`], which the first failure of
    /// the trial triggers from inside the event loop. Trials that never
    /// lose a disk skip the scatter entirely.
    pub fn finish_bulk_placement(&mut self) {
        debug_assert_eq!(
            self.bulk_counts.iter().map(|&c| c as usize).sum::<usize>(),
            self.homes.len(),
            "every bulk-placed home is counted once"
        );
        self.pushed_groups = self.n_groups;
        self.index_built = false;
    }

    /// Memoize the walk prefixes of groups `0..groups` as their current
    /// homes, in one copy. Valid only for bulk-placed groups whose homes
    /// are exactly the first `blocks_per_group` emissions of their walk
    /// — the unfiltered prefix of initial placement.
    pub fn memoize_walk_prefixes(&mut self, groups: u32) {
        let end = groups as usize * self.blocks_per_group as usize;
        self.walk_memo[..end].copy_from_slice(&self.homes[..end]);
        self.walk_gen[..groups as usize].fill(self.memo_gen);
    }

    /// Blocks currently homed on `disk`, as a count. Valid in both
    /// index states: served from the deferred histogram until
    /// [`GroupLayout::build_reverse_index`] runs, from the span after.
    #[inline]
    pub fn disk_load(&self, disk: DiskId) -> u32 {
        if self.index_built {
            self.spans[disk.0 as usize].len
        } else {
            self.bulk_counts[disk.0 as usize]
        }
    }

    /// Materialize the deferred reverse index: scatter `homes` into the
    /// per-disk spans. Spans fill in `(group, idx)` visit order —
    /// exactly the per-disk block order the incremental
    /// [`GroupLayout::push_group`] path produces, so every `blocks_on`
    /// sequence is identical between the two paths. Idempotent; O(1)
    /// when the index is already live.
    pub fn build_reverse_index(&mut self) {
        if self.index_built {
            return;
        }
        self.index_built = true;
        let n = self.blocks_per_group as usize;
        let homes = std::mem::take(&mut self.homes);
        // The histogram tells us up front whether every span fits its
        // reset-time slack; when it does (RUSH's near-uniform load makes
        // the alternative a cold event) the scatter is a bare
        // cursor-bump per block with no capacity checks or
        // span-struct round trips.
        let fits = self
            .spans
            .iter()
            .zip(&self.bulk_counts)
            .all(|(s, &c)| c <= s.cap);
        if fits {
            self.bulk_cursors.clear();
            self.bulk_cursors.extend(self.spans.iter().map(|s| s.start));
            for (group, hs) in homes.chunks_exact(n).enumerate() {
                for (idx, &d) in hs.iter().enumerate() {
                    let di = d.0 as usize;
                    let c = self.bulk_cursors[di];
                    self.arena[c as usize] = BlockRef::new(group as u32, idx as u8);
                    self.bulk_cursors[di] = c + 1;
                }
            }
            for (s, &c) in self.spans.iter_mut().zip(&self.bulk_cursors) {
                s.len = c - s.start;
            }
        } else {
            for (group, hs) in homes.chunks_exact(n).enumerate() {
                for (idx, &d) in hs.iter().enumerate() {
                    self.push_block(d.0 as usize, BlockRef::new(group as u32, idx as u8));
                }
            }
        }
        self.homes = homes;
    }

    /// All block homes of a group.
    pub fn homes_of(&self, group: u32) -> &[DiskId] {
        let n = self.blocks_per_group as usize;
        &self.homes[group as usize * n..(group as usize + 1) * n]
    }

    pub fn home(&self, b: BlockRef) -> DiskId {
        self.homes[self.slot(b)]
    }

    /// Blocks currently homed on a disk (live or rebuilding into it).
    /// Callers must have materialized the deferred index (see
    /// [`GroupLayout::build_reverse_index`]); the failure path does so
    /// before its first span read.
    pub fn blocks_on(&self, disk: DiskId) -> &[BlockRef] {
        debug_assert!(self.index_built, "reverse index read while deferred");
        let s = self.spans[disk.0 as usize];
        &self.arena[s.start as usize..(s.start + s.len) as usize]
    }

    /// Extend the reverse index when new drives (spares, batches) join.
    /// New spans start empty; their first block relocates them to the
    /// end of the arena.
    pub fn grow_disks(&mut self, new_total: u32) {
        self.build_reverse_index();
        assert!(new_total as usize >= self.spans.len());
        self.spans.resize(
            new_total as usize,
            DiskSpan {
                start: 0,
                len: 0,
                cap: 0,
            },
        );
    }

    pub fn n_disks(&self) -> u32 {
        self.spans.len() as u32
    }

    // ----- memoized walk prefixes --------------------------------------

    /// Cache a group's walk prefix: the first `blocks_per_group`
    /// candidates its placement walk emitted this trial, in emission
    /// order. Recovery-target walks for the group replay this frontier
    /// instead of rehashing it.
    pub fn record_walk_prefix(&mut self, group: u32, prefix: &[DiskId]) {
        debug_assert_eq!(prefix.len(), self.blocks_per_group as usize);
        let stride = self.blocks_per_group as usize;
        let start = group as usize * stride;
        self.walk_memo[start..start + stride].copy_from_slice(prefix);
        self.walk_gen[group as usize] = self.memo_gen;
    }

    /// The memoized walk prefix for `group` — empty when no valid memo
    /// exists (never recorded this trial, or invalidated since).
    #[inline]
    pub fn walk_prefix(&self, group: u32) -> &[DiskId] {
        let g = group as usize;
        if self.walk_gen.get(g) == Some(&self.memo_gen) {
            let stride = self.blocks_per_group as usize;
            &self.walk_memo[g * stride..(g + 1) * stride]
        } else {
            &[]
        }
    }

    /// Drop every memoized walk prefix in O(1) (generation bump). The
    /// trial reset calls this (prefixes are seed-scoped), and so does
    /// batch replacement after growing the cluster map — a new
    /// sub-cluster changes every group's walk, so resuming from a
    /// pre-growth frontier would emit the wrong sequence.
    pub fn invalidate_walk_prefixes(&mut self) {
        self.memo_gen = self.memo_gen.wrapping_add(1);
        if self.memo_gen == 0 {
            self.walk_gen.fill(0);
            self.memo_gen = 1;
        }
    }

    /// Re-home a block (rebuild target chosen, redirection, migration).
    pub fn move_block(&mut self, b: BlockRef, to: DiskId) {
        debug_assert!(self.index_built, "reverse index moved while deferred");
        let slot = self.slot(b);
        let from = self.homes[slot];
        if from == to {
            return;
        }
        let s = self.spans[from.0 as usize];
        let list = &mut self.arena[s.start as usize..(s.start + s.len) as usize];
        let pos = list
            .iter()
            .position(|&x| x == b)
            .expect("block present in reverse index");
        // swap_remove within the span.
        list[pos] = list[s.len as usize - 1];
        self.spans[from.0 as usize].len -= 1;
        self.push_block(to.0 as usize, b);
        self.homes[slot] = to;
    }

    /// Does this group already keep a block on `disk`? (Constraint (b) of
    /// §2.3's recovery-target rules: no two buddies share a disk.)
    pub fn group_uses_disk(&self, group: u32, disk: DiskId) -> bool {
        self.homes_of(group).contains(&disk)
    }

    // ----- availability state ------------------------------------------

    pub fn is_missing(&self, b: BlockRef) -> bool {
        self.flags[self.slot(b)] & 1 != 0
    }

    /// Record that `slot`'s entries are leaving their initial state, so
    /// a same-shape reset knows to restore them. Call *before* the
    /// write: a zero flags word means the slot is still pristine (its
    /// epoch bits double as the "already listed" marker for every path
    /// that dirties a slot).
    #[inline]
    fn note_dirty(&mut self, slot: usize) {
        if self.flags[slot] == 0 {
            self.dirty.push(slot as u32);
        }
    }

    /// Mark a block unavailable. Returns the group's new missing count.
    pub fn mark_missing(&mut self, b: BlockRef) -> u8 {
        let slot = self.slot(b);
        assert!(self.flags[slot] & 1 == 0, "block {b:?} already missing");
        self.note_dirty(slot);
        self.flags[slot] |= 1;
        self.missing_count[b.group() as usize] += 1;
        self.missing_count[b.group() as usize]
    }

    /// Mark a block available again (rebuild completed).
    pub fn mark_available(&mut self, b: BlockRef) {
        let slot = self.slot(b);
        assert!(self.flags[slot] & 1 != 0, "block {b:?} was not missing");
        self.flags[slot] &= !1;
        self.missing_count[b.group() as usize] -= 1;
    }

    pub fn missing_count(&self, group: u32) -> u8 {
        self.missing_count[group as usize]
    }

    pub fn is_dead(&self, group: u32) -> bool {
        self.dead[group as usize]
    }

    pub fn mark_dead(&mut self, group: u32) {
        if !self.dead[group as usize] {
            // Any slot of the group reaches its `dead`/`missing_count`
            // entries on reset; use the first.
            let slot = group as usize * self.blocks_per_group as usize;
            self.note_dirty(slot);
            self.dead[group as usize] = true;
        }
    }

    pub fn dead_groups(&self) -> u64 {
        self.dead.iter().filter(|&&d| d).count() as u64
    }

    // ----- windows of vulnerability -------------------------------------

    /// Open a block's window of vulnerability at instant `t`.
    pub fn set_vulnerable(&mut self, b: BlockRef, t: SimTime) {
        let slot = self.slot(b);
        debug_assert!(
            self.vulnerable[slot].is_infinite(),
            "block {b:?} already vulnerable"
        );
        self.note_dirty(slot);
        self.vulnerable[slot] = t.as_secs();
    }

    /// Close a block's window, returning when it opened (if it was open).
    pub fn take_vulnerable(&mut self, b: BlockRef) -> Option<SimTime> {
        let slot = self.slot(b);
        let since = self.vulnerable[slot];
        self.vulnerable[slot] = f64::INFINITY;
        since.is_finite().then(|| SimTime::from_secs(since))
    }

    /// When the block became unavailable, if it currently is.
    pub fn vulnerable_since(&self, b: BlockRef) -> Option<SimTime> {
        let since = self.vulnerable[self.slot(b)];
        since.is_finite().then(|| SimTime::from_secs(since))
    }

    // ----- rebuild epochs -----------------------------------------------

    pub fn epoch(&self, b: BlockRef) -> u32 {
        self.flags[self.slot(b)] >> 1
    }

    pub fn bump_epoch(&mut self, b: BlockRef) -> u32 {
        let slot = self.slot(b);
        self.note_dirty(slot);
        self.flags[slot] += 2;
        self.flags[slot] >> 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DiskId {
        DiskId(i)
    }

    fn layout_3_groups() -> GroupLayout {
        let mut l = GroupLayout::new(3, 2, 5);
        l.push_group(&[d(0), d(1)]);
        l.push_group(&[d(1), d(2)]);
        l.push_group(&[d(3), d(4)]);
        l
    }

    /// Bulk-place `homes` as `group`, counting each home as the
    /// placement loop does.
    fn bulk_place(l: &mut GroupLayout, group: u32, homes: &[DiskId]) {
        let (slot, counts) = l.bulk_group_mut(group);
        slot.copy_from_slice(homes);
        for h in homes {
            counts[h.0 as usize] += 1;
        }
    }

    #[test]
    fn bulk_placement_matches_push_group() {
        let n_disks = 7u32;
        let mut inc = GroupLayout::new(16, 3, n_disks);
        let mut bulk = GroupLayout::new(16, 3, n_disks);
        bulk.begin_bulk_placement();
        for g in 0..16u32 {
            let homes = [d(g % 7), d((g + 2) % 7), d((g + 5) % 7)];
            inc.push_group(&homes);
            bulk_place(&mut bulk, g, &homes);
        }
        bulk.finish_bulk_placement();
        bulk.memoize_walk_prefixes(10);
        for g in 0..16u32 {
            assert_eq!(inc.homes_of(g), bulk.homes_of(g));
            if g < 10 {
                assert_eq!(bulk.walk_prefix(g), bulk.homes_of(g));
            } else {
                assert!(bulk.walk_prefix(g).is_empty());
            }
        }
        for disk in 0..n_disks {
            // Histogram loads agree before the index materializes...
            assert_eq!(
                inc.disk_load(d(disk)) as usize,
                bulk.disk_load(d(disk)) as usize
            );
        }
        bulk.build_reverse_index();
        bulk.build_reverse_index(); // idempotent
        for disk in 0..n_disks {
            // ...and the scattered spans hold the same blocks in the
            // same per-disk order after.
            assert_eq!(inc.disk_load(d(disk)), bulk.disk_load(d(disk)));
            assert_eq!(inc.blocks_on(d(disk)), bulk.blocks_on(d(disk)));
        }
    }

    #[test]
    fn bulk_placement_overflow_falls_back_to_push_block() {
        // Pile every block onto one disk so its span outgrows the
        // reset-time slack and the scatter must take the grow path.
        let mut l = GroupLayout::new(40, 2, 16);
        l.begin_bulk_placement();
        for g in 0..40u32 {
            bulk_place(&mut l, g, &[d(3), d(3)]);
        }
        l.finish_bulk_placement();
        assert_eq!(l.disk_load(d(3)), 80);
        l.build_reverse_index();
        assert_eq!(l.disk_load(d(3)), 80);
        assert_eq!(l.blocks_on(d(3)).len(), 80);
        assert_eq!(l.blocks_on(d(3))[0], BlockRef::new(0, 0));
        assert_eq!(l.blocks_on(d(3))[79], BlockRef::new(39, 1));
        assert!(l.blocks_on(d(0)).is_empty());
    }

    #[test]
    fn push_and_lookup() {
        let l = layout_3_groups();
        assert_eq!(l.homes_of(0), &[d(0), d(1)]);
        assert_eq!(l.homes_of(1), &[d(1), d(2)]);
        assert_eq!(l.home(BlockRef::new(2, 1)), d(4));
    }

    #[test]
    fn reverse_index_matches_homes() {
        let l = layout_3_groups();
        assert_eq!(l.blocks_on(d(1)).len(), 2); // group 0 idx 1, group 1 idx 0
        assert!(l.blocks_on(d(1)).contains(&BlockRef::new(0, 1)));
        assert!(l.blocks_on(d(1)).contains(&BlockRef::new(1, 0)));
        assert!(l.blocks_on(d(0)).len() == 1);
    }

    #[test]
    fn move_block_updates_both_directions() {
        let mut l = layout_3_groups();
        let b = BlockRef::new(0, 1);
        l.move_block(b, d(4));
        assert_eq!(l.home(b), d(4));
        assert!(!l.blocks_on(d(1)).contains(&b));
        assert!(l.blocks_on(d(4)).contains(&b));
    }

    #[test]
    fn move_block_to_same_disk_is_noop() {
        let mut l = layout_3_groups();
        let b = BlockRef::new(0, 0);
        l.move_block(b, d(0));
        assert_eq!(l.home(b), d(0));
        assert_eq!(l.blocks_on(d(0)).len(), 1);
    }

    #[test]
    fn group_uses_disk() {
        let l = layout_3_groups();
        assert!(l.group_uses_disk(0, d(0)));
        assert!(l.group_uses_disk(0, d(1)));
        assert!(!l.group_uses_disk(0, d(2)));
    }

    #[test]
    fn missing_accounting() {
        let mut l = layout_3_groups();
        let b0 = BlockRef::new(0, 0);
        let b1 = BlockRef::new(0, 1);
        assert_eq!(l.mark_missing(b0), 1);
        assert!(l.is_missing(b0));
        assert_eq!(l.mark_missing(b1), 2);
        assert_eq!(l.missing_count(0), 2);
        l.mark_available(b0);
        assert_eq!(l.missing_count(0), 1);
        assert!(!l.is_missing(b0));
    }

    #[test]
    #[should_panic]
    fn double_mark_missing_panics() {
        let mut l = layout_3_groups();
        let b = BlockRef::new(0, 0);
        l.mark_missing(b);
        l.mark_missing(b);
    }

    #[test]
    fn dead_flag() {
        let mut l = layout_3_groups();
        assert!(!l.is_dead(1));
        l.mark_dead(1);
        assert!(l.is_dead(1));
        assert_eq!(l.dead_groups(), 1);
    }

    #[test]
    fn vulnerability_windows_open_and_close() {
        let mut l = layout_3_groups();
        let b = BlockRef::new(1, 1);
        let t = SimTime::ZERO + farm_des::time::Duration::from_secs(42.0);
        assert_eq!(l.vulnerable_since(b), None);
        l.set_vulnerable(b, t);
        assert_eq!(l.vulnerable_since(b), Some(t));
        assert_eq!(l.take_vulnerable(b), Some(t));
        // Closing is idempotent and fully clears the slot.
        assert_eq!(l.take_vulnerable(b), None);
        assert_eq!(l.vulnerable_since(b), None);
    }

    #[test]
    fn epochs_invalidate_stale_events() {
        let mut l = layout_3_groups();
        let b = BlockRef::new(2, 0);
        assert_eq!(l.epoch(b), 0);
        assert_eq!(l.bump_epoch(b), 1);
        assert_eq!(l.bump_epoch(b), 2);
        assert_eq!(l.epoch(b), 2);
    }

    #[test]
    fn walk_prefix_memo_records_and_invalidates() {
        let mut l = layout_3_groups();
        assert!(l.walk_prefix(0).is_empty());
        l.record_walk_prefix(0, &[d(0), d(1)]);
        l.record_walk_prefix(2, &[d(3), d(4)]);
        assert_eq!(l.walk_prefix(0), &[d(0), d(1)]);
        assert!(l.walk_prefix(1).is_empty());
        assert_eq!(l.walk_prefix(2), &[d(3), d(4)]);

        // Explicit invalidation drops every prefix at once.
        l.invalidate_walk_prefixes();
        assert!(l.walk_prefix(0).is_empty());
        assert!(l.walk_prefix(2).is_empty());

        // Re-recording after invalidation works, and a trial reset
        // (same or different shape) also drops the memo.
        l.record_walk_prefix(1, &[d(2), d(0)]);
        assert_eq!(l.walk_prefix(1), &[d(2), d(0)]);
        l.reset(3, 2, 5);
        assert!(l.walk_prefix(1).is_empty());
        l.reset(4, 3, 6);
        for g in 0..4 {
            assert!(l.walk_prefix(g).is_empty());
        }
        l.record_walk_prefix(3, &[d(0), d(2), d(4)]);
        assert_eq!(l.walk_prefix(3), &[d(0), d(2), d(4)]);
    }

    #[test]
    fn grow_disks_for_spares() {
        let mut l = layout_3_groups();
        l.grow_disks(8);
        assert_eq!(l.n_disks(), 8);
        let b = BlockRef::new(0, 0);
        l.move_block(b, d(7));
        assert!(l.blocks_on(d(7)).contains(&b));
    }

    #[test]
    fn reset_matches_fresh_layout() {
        // Dirty a layout thoroughly (moves, growth, missing marks,
        // vulnerability windows, death), then reset to several shapes and
        // compare observable state against a fresh construction.
        for (groups, bpg, disks) in [(3u32, 2u8, 5u32), (8, 3, 4), (1, 2, 16)] {
            let mut l = layout_3_groups();
            l.grow_disks(9);
            l.move_block(BlockRef::new(0, 0), d(8));
            l.mark_missing(BlockRef::new(1, 0));
            l.set_vulnerable(BlockRef::new(1, 0), SimTime::from_secs(7.0));
            l.bump_epoch(BlockRef::new(2, 1));
            l.mark_dead(2);
            l.reset(groups, bpg, disks);
            let fresh = GroupLayout::new(groups, bpg, disks);
            assert_eq!(l.n_groups(), fresh.n_groups());
            assert_eq!(l.blocks_per_group(), fresh.blocks_per_group());
            assert_eq!(l.n_disks(), fresh.n_disks());
            assert_eq!(l.dead_groups(), 0);
            for i in 0..disks {
                assert!(l.blocks_on(d(i)).is_empty());
            }
            // Re-populate identically and confirm identical reads.
            let homes: Vec<DiskId> = (0..bpg as u32).map(d).collect();
            let mut l2 = fresh;
            for _ in 0..groups {
                l.push_group(&homes);
                l2.push_group(&homes);
            }
            for g in 0..groups {
                assert_eq!(l.homes_of(g), l2.homes_of(g));
                assert_eq!(l.missing_count(g), l2.missing_count(g));
                assert!(!l.is_dead(g));
            }
            for i in 0..disks {
                assert_eq!(l.blocks_on(d(i)), l2.blocks_on(d(i)));
            }
            assert_eq!(l.epoch(BlockRef::new(0, 0)), 0);
            assert_eq!(l.vulnerable_since(BlockRef::new(0, 0)), None);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_groups_panics() {
        let mut l = GroupLayout::new(1, 2, 3);
        l.push_group(&[d(0), d(1)]);
        l.push_group(&[d(1), d(2)]);
    }
}
