//! Cache front-ends: one per lookup scheme, in two halves.
//!
//! A *group* (`Group`) owns the one [`SetAssocCache`] a set of schemes shares and
//! the per-access state they all read: the hit, miss, fill and
//! write-back counts, and on the I side the repeated-packet filter, the
//! previous packet and the way register. It calls
//! [`SetAssocCache::access`] once per event. Each scheme's accounting
//! then reads the event with that access's [`AccessOutcome`] and counts
//! the scheme's own tag and way activations; it holds no cache. An
//! access's outcome does not depend on the lookup scheme, so one cache
//! simulation serves every scheme. [`DFront`] and [`IFront`] are groups of
//! one.

use std::time::Instant;

use waymem_cache::{AccessKind, AccessOutcome, AccessStats, Geometry, SetAssocCache};
use waymem_core::{Mab, MabConfig};
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{FetchKind, TraceEvent, TraceSink};

mod dcache;
mod icache;
mod links;

pub(crate) use dcache::DSide;
pub use dcache::{DFront, DScheme};
pub(crate) use icache::ISide;
pub use icache::{IFront, IScheme};

/// Events a group resolves through its cache before running each
/// scheme's accounting over them.
const BATCH: usize = 1024;

/// One scheme's accounting over a stream of resolved accesses.
pub(crate) trait Account: std::fmt::Debug {
    /// What an access hands the scheme besides its outcome.
    type Access: Copy + std::fmt::Debug;

    /// Counts one access, given the outcome the shared cache gave it.
    fn account(&mut self, access: &Self::Access, out: &AccessOutcome);

    /// The scheme's display name.
    fn name(&self) -> String;

    /// The scheme's own counters: all but the shared accesses, hits,
    /// misses, write-backs and fill writes, and the MAB's.
    fn stats(&self) -> AccessStats;

    /// The scheme's MAB, if it has one.
    fn mab(&self) -> Option<&Mab>;

    /// Cycles added by lookup penalties.
    fn extra_cycles(&self) -> u64;

    /// The hwmodel inputs, from the scheme's full `stats`.
    fn energy_counts(&self, stats: &AccessStats, cycles: u64) -> EnergyCounts;
}

/// The shared per-access state of one cache side.
pub(crate) trait Side: std::fmt::Debug {
    /// The accounting of this side's schemes.
    type Account: Account;

    /// A fresh state for caches shaped by `geom`.
    fn new(geom: Geometry) -> Self;

    /// The access an event makes, and the address and kind the cache sees;
    /// `None` for an event this side does not access the cache for.
    fn admit(
        &mut self,
        event: TraceEvent,
    ) -> Option<(<Self::Account as Account>::Access, u32, AccessKind)>;

    /// Takes in the outcome of the access just admitted.
    fn settle(&mut self, _out: &AccessOutcome) {}
}

/// The hardware shape of the MAB `cfg` builds, for the area and power
/// models.
pub(crate) fn mab_shape(cfg: MabConfig) -> MabShape {
    MabShape {
        tag_entries: cfg.tag_entries() as u32,
        set_entries: cfg.set_entries() as u32,
        tag_entry_bits: cfg.tag_entry_bits(),
        set_entry_bits: cfg.set_entry_bits(),
        pair_bits: cfg.pair_bits(),
        adder_bits: cfg.geometry().low_bits(),
    }
}

/// A set of schemes over one cache: the cache is simulated once per event
/// and every scheme's accounting runs over the outcome.
#[derive(Debug)]
pub(crate) struct Group<S: Side> {
    side: S,
    cache: SetAssocCache,
    /// The counts every scheme shares: accesses, hits, misses and
    /// write-backs.
    shared: AccessStats,
    accounts: Vec<S::Account>,
    /// Each account's accounting time, summed over batches, in ns.
    account_ns: Vec<u64>,
    /// The resolved accesses of the current batch, kept for its capacity.
    batch: Vec<(<S::Account as Account>::Access, AccessOutcome)>,
}

impl<S: Side> Group<S> {
    /// A group running `accounts` over a cache shaped by `geom`.
    pub(crate) fn new(geom: Geometry, accounts: Vec<S::Account>) -> Self {
        Self {
            side: S::new(geom),
            cache: SetAssocCache::new(geom),
            shared: AccessStats::new(),
            account_ns: vec![0; accounts.len()],
            accounts,
            batch: Vec::new(),
        }
    }

    /// Admits `event` and, if it accesses the cache, performs the access.
    fn resolve(
        &mut self,
        event: TraceEvent,
    ) -> Option<(<S::Account as Account>::Access, AccessOutcome)> {
        let (access, addr, kind) = self.side.admit(event)?;
        let out = self.cache.access(addr, kind);
        self.side.settle(&out);
        let shared = &mut self.shared;
        shared.accesses += 1;
        shared.hits += u64::from(out.hit);
        shared.misses += u64::from(!out.hit);
        shared.write_backs += u64::from(out.evicted.is_some_and(|e| e.dirty));
        Some((access, out))
    }

    /// Feeds one event to every scheme.
    pub(crate) fn event(&mut self, event: TraceEvent) {
        if let Some((access, out)) = self.resolve(event) {
            for account in &mut self.accounts {
                account.account(&access, &out);
            }
        }
    }

    /// Feeds a slice of events in batches of [`BATCH`]: each batch goes
    /// through the cache once, then each scheme's accounting runs over the
    /// whole batch, timed into [`account_ns`](Self::account_ns).
    pub(crate) fn events(&mut self, events: &[TraceEvent]) {
        let mut batch = std::mem::take(&mut self.batch);
        for chunk in events.chunks(BATCH) {
            batch.clear();
            batch.extend(chunk.iter().filter_map(|&e| self.resolve(e)));
            for (account, ns) in self.accounts.iter_mut().zip(&mut self.account_ns) {
                let started = Instant::now();
                for (access, out) in &batch {
                    account.account(access, out);
                }
                *ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        }
        self.batch = batch;
    }

    /// The schemes' accounting, in order.
    pub(crate) fn accounts(&self) -> &[S::Account] {
        &self.accounts
    }

    /// Each scheme's accounting time over [`events`](Self::events) calls.
    pub(crate) fn account_ns(&self) -> &[u64] {
        &self.account_ns
    }

    /// Scheme `i`'s full counters: its own, the shared ones (each miss
    /// also writes the filled way) and its MAB's.
    pub(crate) fn stats(&self, i: usize) -> AccessStats {
        let account = &self.accounts[i];
        let own = account.stats();
        let mut s = AccessStats {
            accesses: self.shared.accesses,
            hits: self.shared.hits,
            misses: self.shared.misses,
            write_backs: self.shared.write_backs,
            way_reads: own.way_reads + self.shared.misses,
            ..own
        };
        if let Some(mab) = account.mab().map(Mab::stats) {
            s.mab_lookups = mab.lookups + mab.wide_bypasses;
            s.mab_hits = mab.hits;
        }
        s
    }
}

impl<S: Side> TraceSink for Group<S> {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.event(TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.event(TraceEvent::Load {
            base,
            disp,
            addr,
            size,
        });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.event(TraceEvent::Store {
            base,
            disp,
            addr,
            size,
        });
    }

    fn events(&mut self, batch: &[TraceEvent]) {
        Group::events(self, batch);
    }
}

/// The accessors a group-of-one front-end shares, D or I.
macro_rules! group_of_one {
    ($front:ident, $scheme:ident) => {
        impl $front {
            /// The scheme this front-end models.
            #[must_use]
            pub fn scheme(&self) -> $scheme {
                self.0.accounts()[0].scheme
            }

            /// Replays a recorded trace slice into the model in program
            /// order, skipping the other cache's events — the batched
            /// path of the record/replay engine behind
            /// [`crate::Experiment`].
            pub fn replay(&mut self, events: &[TraceEvent]) {
                self.0.events(events);
            }

            /// Accounting so far; the `mab_*` counters are the MAB's own.
            #[must_use]
            pub fn stats(&self) -> AccessStats {
                self.0.stats(0)
            }

            /// Raw MAB statistics (MAB schemes only).
            #[must_use]
            pub fn mab_stats(&self) -> Option<MabStats> {
                self.0.accounts()[0].mab().map(Mab::stats)
            }

            /// The MAB's hardware shape for area/power models (MAB
            /// schemes only).
            #[must_use]
            pub fn mab_shape(&self) -> Option<MabShape> {
                self.0.accounts()[0]
                    .mab()
                    .map(|m| super::mab_shape(m.config()))
            }

            /// Converts the counters into hwmodel inputs. `cycles` is the
            /// run's instruction count (CPI 1).
            #[must_use]
            pub fn energy_counts(&self, cycles: u64) -> EnergyCounts {
                self.0.accounts()[0].energy_counts(&self.stats(), cycles)
            }
        }
    };
}
use group_of_one;

// The record/replay engine hands each group to its own worker thread, so
// groups (and the fronts wrapping them) must stay `Send`: each owns its
// cache and buffer state outright, with no shared interior mutability.
// This assertion turns an accidental `Rc`/`RefCell` regression into a
// compile error here instead of a confusing one in `run.rs`.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Group<DSide>>();
    assert_send::<Group<ISide>>();
    assert_send::<DFront>();
    assert_send::<IFront>();
};
