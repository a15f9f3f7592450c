//! # waymem-cache — set-associative cache simulator with energy accounting
//!
//! This crate is the cache *substrate* for the way-memoization reproduction
//! (Ishihara & Fallah, DATE 2005). It models a write-back, LRU,
//! set-associative cache at the granularity the paper's evaluation needs:
//! every access reports **how many tag arrays** and **how many data ways**
//! were activated, because the paper's power equation (Eq. 1) is
//!
//! ```text
//! P_cache = E_way · N_way + E_tag · N_tag + P_MAB
//! ```
//!
//! The crate deliberately separates two concerns:
//!
//! * **State** — [`SetAssocCache`] holds tags, valid and dirty bits and
//!   per-set LRU order. Each access reports an [`AccessOutcome`]: hit or
//!   miss, the way holding the line, whether that way was the set's most
//!   recently used, and the line a fill displaced. Trace events carry
//!   addresses, not data, so the model carries no line bytes either.
//! * **Accounting** — the *schemes* (in `waymem-sim`) read each outcome
//!   and decide how many tag and way arrays the access activates
//!   (conventional, set-buffer, intra-line memoization, MAB, ...), recording
//!   it in [`AccessStats`]. The outcome does not depend on the lookup
//!   scheme, so `waymem-sim` simulates the cache once per access stream and
//!   runs every scheme's accounting over the same outcomes. Whether a
//!   memoized way is sound is counted there: a memoized way that differs
//!   from the outcome's way increments [`AccessStats::wrong_way`]. The
//!   cache itself never guesses energy.
//!
//! Auxiliary hardware structures used by the baselines and by the paper's
//! "future work" hybrid also live here: [`LineBuffer`] (Su & Despain /
//! filter-style single-line L0) and [`SetBuffer`] (Yang et al., approach
//! \[14\], an LRU list of set indices: its buffered tags always equal the
//! cache's). The flat byte memory the frv-lite interpreter executes
//! against lives beside the interpreter, in `waymem-isa`.
//!
//! ## Quick example
//!
//! ```
//! use waymem_cache::{AccessKind, Geometry, SetAssocCache};
//!
//! # fn main() -> Result<(), waymem_cache::GeometryError> {
//! let geom = Geometry::new(512, 2, 32)?; // 32 kB, 2-way, 32-B lines (FR-V)
//! let mut cache = SetAssocCache::new(geom);
//!
//! let outcome = cache.access(0x1000, AccessKind::Load);
//! assert!(!outcome.hit);                       // cold miss
//! assert_eq!(cache.probe(0x1000), Some(outcome.way));
//! let outcome = cache.access(0x1004, AccessKind::Load);
//! assert!(outcome.hit);                        // same 32-B line
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cache;
mod error;
mod geometry;
mod line_buffer;
mod lru;
mod set_buffer;
mod stats;

pub use cache::{AccessKind, AccessOutcome, EvictedLine, SetAssocCache};
pub use error::GeometryError;
pub use geometry::Geometry;
pub use line_buffer::LineBuffer;
pub use lru::LruOrder;
pub use set_buffer::SetBuffer;
pub use stats::AccessStats;
