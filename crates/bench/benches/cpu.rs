//! Criterion benchmark of the frv-lite interpreter: the DCT kernel
//! executed end-to-end with a null sink, recorded into split fetch/data
//! streams by `record_trace` (the layer a cold run pays for), and with
//! the full Figure 4/6 front-end fan-out attached — the cost of a whole
//! simulated experiment.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use waymem_isa::{Cpu, NullSink};
use waymem_sim::{record_trace, DScheme, Experiment, IScheme, SimConfig};
use waymem_workloads::Benchmark;

fn bench_interpreter(c: &mut Criterion) {
    let wl = Benchmark::Dct.workload(1).expect("assembles");
    let mut group = c.benchmark_group("cpu");
    group.sample_size(10);
    group.bench_function("dct_null_sink", |b| {
        b.iter(|| {
            let mut cpu = Cpu::new(&wl.program);
            cpu.run(wl.max_steps, &mut NullSink).expect("runs");
            black_box(cpu.instret())
        })
    });
    let cfg = SimConfig::default();
    group.bench_function("dct_recording", |b| {
        b.iter(|| black_box(record_trace(Benchmark::Dct, &cfg).expect("records").len()))
    });
    group.finish();
}

fn bench_full_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiment");
    group.sample_size(10);
    group.bench_function("dct_three_d_three_i_schemes", |b| {
        b.iter(|| {
            let r = Experiment::kernel(Benchmark::Dct)
                .dschemes([
                    DScheme::Original,
                    DScheme::SetBuffer { entries: 1 },
                    DScheme::paper_way_memo(),
                ])
                .ischemes([
                    IScheme::Original,
                    IScheme::IntraLine,
                    IScheme::paper_way_memo(),
                ])
                .run()
                .expect("runs");
            black_box(r.cycles)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_interpreter, bench_full_experiment);
criterion_main!(benches);
