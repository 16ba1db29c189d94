//! # farm-placement — RUSH-style decentralized data placement
//!
//! The paper places redundancy groups on disks with RUSH (Honicky &
//! Miller, IPDPS 2004): a decentralized function that gives every disk
//! "statistically its fair share of user data and parity data" (§2.2) and
//! hands FARM an ordered list of candidate locations for new replicas
//! after a failure (§2.3).
//!
//! This crate provides:
//!
//! * [`ClusterMap`] — the system topology as an ordered list of weighted
//!   sub-clusters (how large systems actually grow, one batch at a time),
//! * [`Rush`] — the placement function: deterministic, balanced,
//!   minimally-migrating on growth, with distinct candidates per group,
//! * [`Walk`] — the one candidate iterator, deduplicating through a
//!   caller-held [`RushScratch`] so a loop of walks never allocates.
//!
//! ```
//! use farm_placement::{ClusterMap, Rush, RushScratch};
//!
//! let mut map = ClusterMap::uniform(1000);
//! let rush = Rush::new(0xFA12);
//! // Two-way mirroring: the first two candidates hold the replicas.
//! let homes = rush.place(&map, 42, 2);
//! assert_ne!(homes[0], homes[1]);
//!
//! // After a failure, FARM keeps walking the same candidate list to find
//! // a recovery target.
//! let mut scratch = RushScratch::new();
//! let next = rush.walk(&map, 42, &mut scratch).nth(2).unwrap();
//! assert!(!homes.contains(&next));
//!
//! // Growing the system by a batch of 100 drives leaves most placements
//! // untouched (minimal migration).
//! map.add_cluster(100, 1.0);
//! let _new_homes = rush.place(&map, 42, 2);
//! ```

pub mod cluster;
pub mod hash;
pub mod kernel;
pub mod rush;

pub use cluster::{ClusterMap, DiskId, SubCluster};
pub use rush::{PreDraws, Rush, RushScratch, Walk};
