//! Criterion micro-benchmarks of the tag-only cache substrate: hit-path
//! and miss-path access throughput, and the D side of the replay engine:
//! the three Figure 4 schemes replayed together over one recorded
//! synthetic trace, one cache simulation serving all three.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use waymem_bench::fig4_dschemes;
use waymem_cache::{AccessKind, Geometry, SetAssocCache};
use waymem_ingest::synth;
use waymem_sim::{ExecPolicy, Experiment, SynthPattern, SynthSpec, WorkloadId};

fn bench_cache_hit_path(c: &mut Criterion) {
    let geom = Geometry::frv();
    let mut cache = SetAssocCache::new(geom);
    for i in 0..64u32 {
        cache.access(i * 32, AccessKind::Load);
    }
    c.bench_function("cache_hit_access", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(cache.access(black_box(i * 32), AccessKind::Load))
        })
    });
}

/// Every access misses: a store stream striding one cache capacity, so
/// each fill evicts the dirty line the previous pass left in that way.
fn bench_cache_miss_path(c: &mut Criterion) {
    let geom = Geometry::frv();
    let mut cache = SetAssocCache::new(geom);
    let stride = geom.sets() * geom.line_bytes();
    c.bench_function("cache_miss_access", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let addr = (i % 4) * stride + (i / 4 % geom.sets()) * geom.line_bytes();
            black_box(cache.access(black_box(addr), AccessKind::Store))
        })
    });
}

/// The Figure 4 D schemes as the engine runs them: one group over one
/// cache, fed a recorded zipf hot-set trace (the serial policy keeps the
/// timing on one thread).
fn bench_fig4_dgroup(c: &mut Criterion) {
    let spec = SynthSpec {
        pattern: SynthPattern::ZipfHotSet { hot_lines: 64, alpha_centi: 100 },
        accesses: 20_000,
        seed: 1,
    };
    let trace = Arc::new(synth::generate(spec));
    c.bench_function("dgroup/fig4_zipf_20k", |b| {
        b.iter(|| {
            let r = Experiment::recorded(WorkloadId::Synthetic(spec), trace.clone())
                .dschemes(fig4_dschemes())
                .policy(ExecPolicy::Serial)
                .run()
                .expect("replays");
            black_box(r.dcache.len())
        })
    });
}

criterion_group!(
    benches,
    bench_cache_hit_path,
    bench_cache_miss_path,
    bench_fig4_dgroup
);
criterion_main!(benches);
