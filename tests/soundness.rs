//! Cross-crate soundness tests: the MAB never lies about the cache, cache
//! front-ends never change program semantics, and all schemes observe the
//! same trace.

use waymem::isa::{Cpu, FetchKind, NullSink, TraceSink};
use waymem::prelude::*;
use waymem::sim::{DFront, IFront};

/// A sink that feeds front-ends *and* checks after every event that
/// neither has made a wrong-way access (a known-way hit naming a way
/// that does not hold the line). Comparing each MAB claim with the
/// cache needs the cache, which the front-ends keep private; that
/// per-event check is a unit test of the D group in `waymem-sim`.
struct AuditSink {
    d: DFront,
    i: IFront,
    audits: u64,
}

impl AuditSink {
    fn audit(&mut self) {
        assert_eq!(self.d.stats().wrong_way, 0, "D wrong-way at event {}", self.audits);
        assert_eq!(self.i.stats().wrong_way, 0, "I wrong-way at event {}", self.audits);
        self.audits += 1;
    }
}

impl TraceSink for AuditSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.i.fetch(pc, kind);
        self.audit();
    }
    fn load(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        self.d.access(false, base, disp, addr);
        self.audit();
    }
    fn store(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        self.d.access(true, base, disp, addr);
        self.audit();
    }
}

#[test]
fn benchmark_results_are_independent_of_attached_frontends() {
    // Functional equivalence: cache modelling is observation-only, so the
    // architectural result (checksum in a0, instret) must not change.
    for &bench in &[Benchmark::Dct, Benchmark::Compress, Benchmark::Dhrystone] {
        let wl = bench.workload(1).expect("assembles");

        let mut bare = Cpu::new(&wl.program);
        bare.run(wl.max_steps, &mut NullSink).expect("runs");

        let geometry = Geometry::frv();
        let mut sink = AuditSink {
            d: DScheme::paper_way_memo().build(geometry),
            i: IScheme::paper_way_memo().build(geometry),
            audits: 0,
        };
        let mut traced = Cpu::new(&wl.program);
        traced.run(wl.max_steps, &mut sink).expect("runs");

        assert_eq!(bare.reg(10), traced.reg(10), "{bench}: checksum differs");
        assert_eq!(bare.instret(), traced.instret(), "{bench}");
        assert!(sink.audits > 100_000, "{bench}: trace actually flowed");
    }
}

#[test]
fn dmab_claims_match_cache_residency_after_full_runs() {
    // Over an entire benchmark no MAB hit may have named a way that did
    // not hold the line, and the MAB must have been exercised. The
    // per-event check that every valid MAB pair names a resident line
    // runs these kernels through the D group in `waymem-sim`'s front
    // unit tests, where the group's cache is reachable.
    for &bench in &[Benchmark::Fft, Benchmark::Mpeg2Enc] {
        let wl = bench.workload(1).expect("assembles");
        let geometry = Geometry::frv();

        struct S {
            d: DFront,
        }
        impl TraceSink for S {
            fn load(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
                self.d.access(false, base, disp, addr);
            }
            fn store(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
                self.d.access(true, base, disp, addr);
            }
        }
        let mut sink = S {
            d: DScheme::paper_way_memo().build(geometry),
        };
        let mut cpu = Cpu::new(&wl.program);
        cpu.run(wl.max_steps, &mut sink).expect("runs");

        assert_eq!(sink.d.stats().wrong_way, 0, "{bench}");
        let stats = sink.d.mab_stats().expect("MAB scheme");
        assert!(stats.lookups > 0, "{bench}");
        assert!(stats.hits > 0, "{bench}: MAB should hit on real code");
    }
}

#[test]
fn smaller_caches_stress_invalidation_without_unsoundness() {
    // A 1 kB cache under a real benchmark forces constant evictions; the
    // front-ends count any stale-way use in wrong_way.
    let geometry = Geometry::new(16, 2, 32).expect("valid");
    let r = Experiment::kernel(Benchmark::JpegEnc)
        .geometry(geometry)
        .dschemes([DScheme::paper_way_memo()])
        .ischemes([IScheme::paper_way_memo()])
        .run()
        .expect("runs");
    let d = &r.dcache[0].stats;
    assert!(d.misses > 100, "tiny cache must actually miss a lot");
    assert_eq!(d.wrong_way, 0);
    assert!(d.is_consistent());
    // MAB still achieves hits despite the churn.
    assert!(d.mab_hits > 0);
}

#[test]
fn all_schemes_observe_identical_access_streams() {
    let r = Experiment::kernel(Benchmark::Whetstone)
        .dschemes([
            DScheme::Original,
            DScheme::SetBuffer { entries: 1 },
            DScheme::paper_way_memo(),
            DScheme::WayPredict,
            DScheme::TwoPhase,
        ])
        .ischemes([
            IScheme::Original,
            IScheme::IntraLine,
            IScheme::paper_way_memo(),
        ])
        .run()
        .expect("runs");
    let d_accesses: Vec<u64> = r.dcache.iter().map(|s| s.stats.accesses).collect();
    assert!(d_accesses.windows(2).all(|w| w[0] == w[1]), "{d_accesses:?}");
    let i_accesses: Vec<u64> = r.icache.iter().map(|s| s.stats.accesses).collect();
    assert!(i_accesses.windows(2).all(|w| w[0] == w[1]), "{i_accesses:?}");
    // Identical hits/misses too: lookup scheme must not change residency.
    let d_hits: Vec<u64> = r.dcache.iter().map(|s| s.stats.hits).collect();
    assert!(d_hits.windows(2).all(|w| w[0] == w[1]), "{d_hits:?}");
}

#[test]
fn no_known_way_access_targets_the_wrong_way() {
    // The paper's safety property, counted in every build: for every
    // kernel (and the miss-heavy synthetic patterns) and every D- and
    // I-scheme, at the FR-V geometry and at a 1 kB geometry that evicts
    // constantly, no MAB, buffer, link or intra-line hit may name a way
    // that does not hold the line.
    for geometry in [Geometry::frv(), Geometry::new(16, 2, 32).expect("valid")] {
        let results = Suite::kernels()
            .workloads(waymem::ingest::synth::standard_suite(20_000))
            .geometry(geometry)
            .dschemes(waymem::sim::full_dschemes())
            .ischemes(waymem::sim::full_ischemes())
            .run()
            .expect("runs");
        assert_eq!(results.len(), Benchmark::ALL.len() + 7);
        let mut memo_hits = 0;
        for r in results.iter() {
            for s in r.dcache.iter().chain(&r.icache) {
                let what = format!("{:?} {} at {geometry:?}", r.workload, s.name);
                assert_eq!(s.stats.wrong_way, 0, "{what}");
                assert!(s.stats.is_consistent(), "{what}");
                memo_hits += s.stats.mab_hits;
            }
        }
        assert!(memo_hits > 0, "known-way paths exercised at {geometry:?}");
    }
}
