//! Criterion micro-benchmarks of the tag-only cache substrate: hit-path
//! and miss-path access throughput, and the full D-cache front-end under
//! the three Figure 4 schemes on a synthetic strided address stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use waymem_cache::{AccessKind, Geometry, SetAssocCache};
use waymem_sim::DScheme;

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

fn bench_dfront_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfront");
    for scheme in [
        DScheme::Original,
        DScheme::SetBuffer { entries: 1 },
        DScheme::paper_way_memo(),
    ] {
        let mut front = scheme.build(Geometry::frv());
        group.bench_function(scheme.name(), |b| {
            let mut x = 0x4000_0000u32;
            b.iter(|| {
                x = x.wrapping_mul(0x9e37_79b9).wrapping_add(0x7f4a_7c15);
                let base = 0x0001_0000 + ((x >> 20) & 0x1fe0);
                let disp = ((x >> 8) & 0x7c) as i32;
                front.access(x & 7 == 0, base, disp, base.wrapping_add(disp as u32));
                black_box(&front);
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_hit_path,
    bench_cache_miss_path,
    bench_dfront_schemes
);
criterion_main!(benches);
