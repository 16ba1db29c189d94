//! # farm-erasure — redundancy codecs for FARM
//!
//! The paper's redundancy groups (§2.1–2.2) protect user data with one of
//! three families of schemes, all implemented here with a real data path
//! (not just reliability bookkeeping):
//!
//! * **n-way mirroring** (`1/n`) — [`mirror`],
//! * **RAID-5-style single parity** (`m/(m+1)`) — [`xor`], including the
//!   incremental parity-update rule for small writes,
//! * **general m/n erasure codes** — systematic Reed–Solomon over
//!   GF(2^8) ([`reed_solomon`]), reconstructing any block from any `m`
//!   surviving blocks, as the paper requires of a good ECC.
//!
//! [`Scheme`] is the shared descriptor (storage efficiency, fault
//! tolerance, block sizing) used throughout the simulator; [`Codec`]
//! dispatches to the right implementation.
//!
//! ```
//! use farm_erasure::Scheme;
//!
//! let scheme = Scheme::new(4, 6); // 4 data + 2 parity
//! assert_eq!(scheme.fault_tolerance(), 2);
//! let codec = scheme.codec();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 16]).collect();
//! let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
//! let parity = codec.encode(&refs);
//! assert_eq!(parity.len(), 2);
//!
//! // Lose two blocks, reconstruct both.
//! let mut blocks: Vec<Option<Vec<u8>>> =
//!     data.into_iter().chain(parity).map(Some).collect();
//! blocks[1] = None;
//! blocks[5] = None;
//! assert!(codec.reconstruct(&mut blocks));
//! ```

pub mod gf256;
pub mod matrix;
pub mod mirror;
pub mod reed_solomon;
pub mod scheme;
pub mod xor;

pub use reed_solomon::{CodeError, ReedSolomon};
pub use scheme::{Codec, Scheme};
