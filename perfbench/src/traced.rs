//! The traced run. Each layer is timed around the calls the benchmark
//! itself makes into that layer's public functions — nothing inside the
//! crates is instrumented — so a traced pass runs the workload's
//! pipeline step by step on one thread:
//!
//! - `isa`: [`record_trace`] (the interpreter), called through the
//!   store's [`TraceStore::get_or_record`];
//! - `ingest`: [`synth::generate`];
//! - `trace`: [`encode_with_hash`], [`StreamingTrace::decode`], the
//!   store's `get_or_record` / `open_stream` and the store's atomic
//!   write ([`StoreIo::write_atomic`]);
//! - `sim` fronts: [`DScheme::build`] + `replay`, and likewise for I;
//! - `core`: the MAB's counts via `mab_stats`;
//! - `hwmodel`: [`PowerBreakdown::from_counts`];
//! - `serve`: `client::Client` calls, `proto::{write,read}_*`.
//!
//! Layers the workload's own pipeline does not reach are measured by a
//! probe (see [`probe`]) so that every per-layer metric is reported on
//! every workload; README.md says which figures come from where.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use perfbench::report::Report;
use perfbench::stats;
use waymem_hwmodel::{cache_energies, mab_power_mw, CacheShape, PowerBreakdown};
use waymem_ingest::synth;
use waymem_serve::proto::{self, Request, Response};
use waymem_sim::{
    full_dschemes, full_ischemes, kernel_source_hash, record_trace, DScheme, IScheme,
    RecordedTrace, SchemeResult, SimConfig, SimResult, StoreStats, StreamError, SynthSpec,
    TraceStore, WorkloadId,
};
use waymem_trace::{encode_with_hash, StoreIo};
use waymem_workloads::Benchmark;

use crate::workloads::{
    check, empty_dir, paper_d, paper_i, run_direct, ServeMixed, WorkDir, Workload,
};
use crate::Args;

/// Fewest traced passes per run.
const MIN_TRACED: usize = 5;
/// Data accesses per pattern in the probe's stream cycle.
const PROBE_ACCESSES: u32 = 20_000;
/// Closed-loop rounds the probe's serve part runs.
const PROBE_ROUNDS: usize = 20;
/// Pings timed per serve measurement.
const PINGS: usize = 200;
/// Request/reply round trips timed through the in-memory codec.
const FRAMES: u64 = 2_000;

/// Busy time and work per layer, counts and samples, accumulated over
/// traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    busy: BTreeMap<String, (f64, u64)>,
    counts: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attributed: f64,
}

impl Layers {
    /// Adds `secs` of busy time doing `work` units to `layer`.
    fn add(&mut self, layer: impl Into<String>, secs: f64, work: u64) {
        let entry = self.busy.entry(layer.into()).or_default();
        entry.0 += secs;
        entry.1 += work;
        self.attributed += secs;
    }

    /// Adds busy time to `layer` that falls outside any pass's
    /// wall-clock, so it is not attributed to one.
    fn add_outside(&mut self, layer: &str, secs: f64, work: u64) {
        self.add(layer, secs, work);
        self.attributed -= secs;
    }

    /// Times `f` as `work` units of `layer`.
    fn time<T>(&mut self, layer: impl Into<String>, work: u64, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(layer, started.elapsed().as_secs_f64(), work);
        out
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn store(&mut self, s: &StoreStats) {
        self.count("store.lookups", s.lookups);
        self.count("store.hits", s.hits + s.disk_hits);
        self.count("store.records", s.records);
    }
}

/// A scheme's display name as a metric-name component: every character
/// outside `[A-Za-z0-9_.-]` becomes `_`.
pub fn metric_name(scheme: &str) -> String {
    scheme
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || "_.-".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("isa.interpret.events_per_s", "1/s"),
        ("isa.interpret.busy_s", "s"),
        ("ingest.synth.events_per_s", "1/s"),
        ("trace.encode.events_per_s", "1/s"),
        ("trace.decode.events_per_s", "1/s"),
        ("trace.compression_ratio", "ratio"),
        ("store.write_s", "s"),
        ("store.open_s", "s"),
        ("store.hit_ratio", "ratio"),
        ("store.records", "count"),
        ("store.teardown_s", "s"),
    ]
    .map(|(n, u)| (n.to_owned(), u))
    .into();
    for s in full_dschemes() {
        names.push((
            format!("dfront.{}.ns_per_event", metric_name(&s.name())),
            "ns",
        ));
    }
    for s in full_ischemes() {
        names.push((
            format!("ifront.{}.ns_per_event", metric_name(&s.name())),
            "ns",
        ));
    }
    names.extend(
        [
            ("mab.d_hit_ratio", "ratio"),
            ("mab.i_hit_ratio", "ratio"),
            ("mab.wide_bypass_ratio", "ratio"),
            ("hwmodel.power.busy_s", "s"),
            ("serve.codec_ns_per_frame", "ns"),
            ("serve.ping_rtt_us.p50", "us"),
            ("serve.run_direct_us.p50", "us"),
            ("serve.overhead_us.p50", "us"),
            ("serve.dedup_shared_ratio", "ratio"),
            ("pass.unattributed_s", "s"),
            ("trace.overhead_ratio", "ratio"),
        ]
        .map(|(n, u)| (n.to_owned(), u)),
    );
    names
}

/// The metrics `layers` supports, per pass where the figure is a time
/// per pass.
fn layer_metrics(layers: &Layers, passes: usize) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let per_pass = passes as f64;
    let busy = |k: &str| layers.busy.get(k).copied();
    let count = |k: &str| layers.counts.get(k).copied();
    let ratio = |num: Option<u64>, den: Option<u64>| match (num, den) {
        (Some(n), Some(d)) if d > 0 => Some(n as f64 / d as f64),
        _ => None,
    };
    let mut put = |name: &str, value: Option<f64>| {
        if let Some(v) = value {
            m.insert(name.to_owned(), v);
        }
    };
    for layer in [
        "isa.interpret",
        "ingest.synth",
        "trace.encode",
        "trace.decode",
    ] {
        put(
            &format!("{layer}.events_per_s"),
            busy(layer).map(|(s, w)| w as f64 / s),
        );
    }
    put(
        "isa.interpret.busy_s",
        busy("isa.interpret").map(|(s, _)| s / per_pass),
    );
    put(
        "trace.compression_ratio",
        ratio(count("trace.raw_bytes"), count("trace.encoded_bytes")),
    );
    for (layer, name) in [
        ("store.write", "store.write_s"),
        ("store.open", "store.open_s"),
        ("store.teardown", "store.teardown_s"),
        ("hwmodel.power", "hwmodel.power.busy_s"),
    ] {
        put(name, busy(layer).map(|(s, _)| s / per_pass));
    }
    put(
        "store.hit_ratio",
        ratio(count("store.hits"), count("store.lookups")),
    );
    put(
        "store.records",
        count("store.lookups").map(|_| count("store.records").unwrap_or(0) as f64 / per_pass),
    );
    for (layer, (secs, events)) in &layers.busy {
        if layer.starts_with("dfront.") || layer.starts_with("ifront.") {
            put(
                &format!("{layer}.ns_per_event"),
                Some(secs * 1e9 / *events as f64),
            );
        }
    }
    put(
        "mab.d_hit_ratio",
        ratio(count("mab.d.hits"), count("mab.d.lookups")),
    );
    put(
        "mab.i_hit_ratio",
        ratio(count("mab.i.hits"), count("mab.i.lookups")),
    );
    put(
        "mab.wide_bypass_ratio",
        ratio(count("mab.d.wide"), count("mab.d.probes")),
    );
    put(
        "serve.codec_ns_per_frame",
        busy("serve.codec").map(|(s, w)| s * 1e9 / w as f64),
    );
    let p50 = |k: &str| layers.samples.get(k).map(|v| stats::median(v));
    put("serve.ping_rtt_us.p50", p50("serve.ping_rtt_us"));
    put("serve.run_direct_us.p50", p50("serve.run_direct_us"));
    if let (Some(req), Some(direct)) = (p50("serve.request_us"), p50("serve.run_direct_us")) {
        put("serve.overhead_us.p50", Some(req - direct));
    }
    put(
        "serve.dedup_shared_ratio",
        ratio(count("serve.shared"), count("serve.ok")),
    );
    m
}

/// The traced run: untraced passes for half the time (the baseline of
/// `trace.overhead_ratio`), traced passes for the other half, then the
/// probe for the layers the workload does not reach.
pub fn run(mut w: Workload, args: &Args, dir: &WorkDir, report: &mut Report) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let untraced = crate::measure(half, report, |r| w.pass(r)).secs;
    let mut layers = Layers::default();
    let (mut walls, mut unattributed) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_TRACED || started.elapsed().as_secs_f64() < half {
        let before = layers.attributed;
        let wall = traced_pass(&mut w, &mut layers, report)?;
        walls.push(wall);
        unattributed.push(wall - (layers.attributed - before));
    }
    if let Workload::ServeMixed(s) = &mut w {
        serve_extras(s, &mut layers, report)?;
    }
    // The probe's daemon and clients replace the workload's, so load
    // never comes from more clients than the workload uses.
    drop(w);
    let mut own = layer_metrics(&layers, walls.len());
    own.insert(
        "pass.unattributed_s".to_owned(),
        stats::median(&unattributed),
    );
    own.insert(
        "trace.overhead_ratio".to_owned(),
        stats::median(&walls) / stats::median(&untraced),
    );

    let mut probe_layers = Layers::default();
    probe(args.seed, dir, &mut probe_layers, report)?;
    let probed = layer_metrics(&probe_layers, 1);
    let mut from_probe = Vec::new();
    for (name, unit) in per_layer_names() {
        match own.get(&name) {
            Some(&v) => report.metric(name, v, unit),
            None => match probed.get(&name) {
                Some(&v) => {
                    report.metric(name.clone(), v, unit);
                    from_probe.push(name);
                }
                None => report.fail(format!("no figure for {name}")),
            },
        }
    }
    report.note(format!(
        "{} traced passes; from the probe: {}",
        walls.len(),
        from_probe.join(", ")
    ));
    Ok(())
}

/// One traced pass of the workload; returns its wall-clock.
fn traced_pass(w: &mut Workload, layers: &mut Layers, report: &mut Report) -> Result<f64, String> {
    let started = Instant::now();
    match w {
        Workload::PaperCold(x) => {
            let store = TraceStore::new();
            for want in &x.reference {
                let WorkloadId::Kernel { benchmark, scale } = want.workload else {
                    return Err("paper-cold reference is not a kernel".to_owned());
                };
                let trace = record_traced(benchmark, scale, &store, layers)?;
                let result = replay_traced(want.workload, &trace, &paper_d(), &paper_i(), layers);
                tally(check(&result, want), report);
            }
            let wall = started.elapsed().as_secs_f64();
            let s = store.stats();
            layers.store(&s);
            layers.count("trace.raw_bytes", s.raw_bytes);
            layers.count("trace.encoded_bytes", s.encoded_bytes);
            Ok(wall)
        }
        Workload::FullReplay(x) => {
            let before = x.store.stats();
            for want in &x.reference {
                let trace = layers
                    .time("store.lookup", 1, || {
                        x.store
                            .get_or_record(want.workload, 0, || Err("not recorded in set-up"))
                    })
                    .map_err(|e| format!("{}: {e}", want.workload.name()))?;
                let result = replay_traced(
                    want.workload,
                    &trace,
                    &full_dschemes(),
                    &full_ischemes(),
                    layers,
                );
                tally(check(&result, want), report);
            }
            let wall = started.elapsed().as_secs_f64();
            let after = x.store.stats();
            layers.store(&StoreStats {
                lookups: after.lookups - before.lookups,
                hits: after.hits - before.hits,
                disk_hits: after.disk_hits - before.disk_hits,
                records: after.records - before.records,
                ..StoreStats::default()
            });
            Ok(wall)
        }
        Workload::StreamStore(x) => {
            stream_traced(&x.specs, &x.dir, Some(&x.reference), layers, report)?;
            let wall = started.elapsed().as_secs_f64();
            // As in the untraced pass, emptying the cache dir falls
            // outside the pass.
            teardown(&x.dir, layers);
            Ok(wall)
        }
        Workload::ServeMixed(x) => {
            let (wall, busy) = x.round(report);
            // Each client's requests are its timed calls into the serve
            // layer; attribute the clients' mean.
            layers.attributed += busy.iter().sum::<f64>() / busy.len() as f64;
            Ok(wall)
        }
    }
}

fn tally(outcome: Result<(), String>, report: &mut Report) {
    match outcome {
        Ok(()) => report.tally(1, 0),
        Err(why) => report.fail(why),
    }
}

/// Records a kernel through `store`: the interpreter's time inside the
/// recorder closure is `isa.interpret`; the rest of a cold
/// `get_or_record` is the store's stats-only encode, `trace.encode`.
fn record_traced(
    bench: Benchmark,
    scale: u32,
    store: &TraceStore,
    layers: &mut Layers,
) -> Result<Arc<RecordedTrace>, String> {
    let cfg = SimConfig {
        scale,
        ..SimConfig::default()
    };
    let mut isa_s = 0.0;
    let started = Instant::now();
    let trace = store
        .get_or_record(
            WorkloadId::kernel(bench, scale),
            kernel_source_hash(bench, scale),
            || {
                let t = Instant::now();
                let trace = record_trace(bench, &cfg);
                isa_s = t.elapsed().as_secs_f64();
                trace
            },
        )
        .map_err(|e| format!("{}: {e}", bench.name()))?;
    let total = started.elapsed().as_secs_f64();
    let events = trace.len() as u64;
    layers.add("isa.interpret", isa_s, events);
    layers.add("trace.encode", total - isa_s, events);
    Ok(trace)
}

/// Replays `trace` through each scheme's front-end on this thread, then
/// runs the power model per scheme; returns the result the engine
/// would, so it can be checked against the same reference.
fn replay_traced(
    workload: WorkloadId,
    trace: &RecordedTrace,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    layers: &mut Layers,
) -> SimResult {
    let cfg = SimConfig::default();
    let (geom, tech) = (cfg.geometry, cfg.technology);
    let energies = cache_energies(
        CacheShape {
            sets: geom.sets(),
            ways: geom.ways(),
            line_bytes: geom.line_bytes(),
            tag_bits: geom.tag_bits(),
        },
        tech,
    );
    let (data, fetch) = (&trace.data_events, &trace.fetch_events);
    let mut dcache = Vec::with_capacity(dschemes.len());
    for &s in dschemes {
        let layer = format!("dfront.{}", metric_name(&s.name()));
        let f = layers.time(layer, data.len() as u64, || {
            let mut f = s.build(geom);
            f.replay(data);
            f
        });
        if s == DScheme::paper_way_memo() {
            if let Some(m) = f.mab_stats() {
                layers.count("mab.d.hits", m.hits);
                layers.count("mab.d.lookups", m.lookups);
                layers.count("mab.d.wide", m.wide_bypasses);
                layers.count("mab.d.probes", m.lookups + m.wide_bypasses);
            }
        }
        let (energy, power) = layers.time("hwmodel.power", 1, || {
            let energy = f.energy_counts(trace.cycles);
            let mab = f.mab_shape().map(|shape| mab_power_mw(shape, tech));
            (
                energy,
                PowerBreakdown::from_counts(energy, energies, mab, tech),
            )
        });
        dcache.push(SchemeResult {
            name: s.name(),
            stats: f.stats(),
            energy,
            power,
            extra_cycles: f.extra_cycles(),
        });
    }
    let mut icache = Vec::with_capacity(ischemes.len());
    for &s in ischemes {
        let layer = format!("ifront.{}", metric_name(&s.name()));
        let f = layers.time(layer, fetch.len() as u64, || {
            let mut f = s.build(geom);
            f.replay(fetch);
            f
        });
        if s == IScheme::paper_way_memo() {
            if let Some(m) = f.mab_stats() {
                layers.count("mab.i.hits", m.hits);
                layers.count("mab.i.lookups", m.lookups);
            }
        }
        let (energy, power) = layers.time("hwmodel.power", 1, || {
            let energy = f.energy_counts(trace.cycles);
            let mab = f.mab_shape().map(|shape| mab_power_mw(shape, tech));
            (
                energy,
                PowerBreakdown::from_counts(energy, energies, mab, tech),
            )
        });
        icache.push(SchemeResult {
            name: s.name(),
            stats: f.stats(),
            energy,
            power,
            extra_cycles: 0,
        });
    }
    SimResult {
        workload,
        cycles: trace.cycles,
        dcache,
        icache,
    }
}

/// One stream-store cycle, step by step: per pattern, generate, encode,
/// write through a durable store and decode (the cold half); then
/// reopen every file through a fresh store and decode again (the warm
/// half). With a reference to check against, each decoded trace is also
/// replayed through the paper pair.
fn stream_traced(
    specs: &[SynthSpec],
    dir: &Path,
    reference: Option<&[SimResult]>,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    let io = StoreIo::passthrough();
    for warm in [false, true] {
        let store = TraceStore::with_cache_dir(dir);
        for (i, &spec) in specs.iter().enumerate() {
            let id = WorkloadId::Synthetic(spec);
            let hash = synth::source_hash(spec);
            let bytes = if warm {
                None
            } else {
                let started = Instant::now();
                let trace = synth::generate(spec);
                layers.add(
                    "ingest.synth",
                    started.elapsed().as_secs_f64(),
                    trace.len() as u64,
                );
                let bytes = layers.time("trace.encode", trace.len() as u64, || {
                    encode_with_hash(&trace, hash)
                });
                layers.count("trace.raw_bytes", trace.raw_size_bytes());
                layers.count("trace.encoded_bytes", bytes.len() as u64);
                Some(bytes)
            };
            let mut write_s = 0.0;
            let started = Instant::now();
            let opened = store.open_stream(id, hash, |path: &Path| -> Result<(), StreamError> {
                let bytes = bytes.as_ref().ok_or_else(|| {
                    StreamError::Io(std::io::Error::other("a warm open re-produced its trace"))
                })?;
                let t = Instant::now();
                io.write_atomic(path, bytes)?;
                write_s = t.elapsed().as_secs_f64();
                Ok(())
            });
            let open_s = started.elapsed().as_secs_f64() - write_s;
            let st = opened.map_err(|e| format!("{}: {e}", id.name()))?;
            if !warm {
                layers.add("store.write", write_s, 1);
            }
            layers.add("store.open", open_s, 1);
            let decoded = layers
                .time("trace.decode", st.len(), || st.decode())
                .map_err(|e| format!("{}: {e}", id.name()))?;
            if let Some(want) = reference.and_then(|r| r.get(i)) {
                let result = replay_traced(id, &decoded, &paper_d(), &paper_i(), layers);
                tally(check(&result, want), report);
            }
        }
        layers.store(&store.stats());
    }
    Ok(())
}

/// Unlinks a stream cycle's files: `store.teardown`.
fn teardown(dir: &Path, layers: &mut Layers) {
    let started = Instant::now();
    empty_dir(dir);
    layers.add_outside("store.teardown", started.elapsed().as_secs_f64(), 1);
}

/// The serve figures outside the closed loop: ping round trips, the
/// pool's requests run in-process on a warm store (the run time a
/// reply carries), and the protocol codec on an in-memory buffer.
fn serve_extras(
    s: &mut ServeMixed,
    layers: &mut Layers,
    report: &mut Report,
) -> Result<(), String> {
    for _ in 0..PINGS {
        let started = Instant::now();
        s.client().ping().map_err(|e| format!("ping: {e}"))?;
        layers.sample("serve.ping_rtt_us", started.elapsed().as_secs_f64() * 1e6);
    }
    let local = TraceStore::new();
    for req in &s.pool {
        run_direct(req, &local)?;
    }
    for req in s.pool.iter().chain(&s.pool) {
        let started = Instant::now();
        run_direct(req, &local)?;
        layers.sample("serve.run_direct_us", started.elapsed().as_secs_f64() * 1e6);
    }
    for &latency in &s.latencies {
        layers.sample("serve.request_us", latency * 1e6);
    }
    layers.count("serve.shared", s.shared);
    layers.count("serve.ok", s.ok);
    // The codec: one run request and its reply, written and read back.
    let request = Request::Run(s.pool[0].clone());
    let reply = Response::RunOk {
        shared: false,
        result_json: s.expected[0].clone(),
    };
    let mut buf = Vec::new();
    let codec = layers.time(
        "serve.codec",
        FRAMES,
        || -> Result<bool, proto::ProtoError> {
            let mut same = true;
            for _ in 0..FRAMES {
                buf.clear();
                proto::write_request(&mut buf, &request)?;
                same &= proto::read_request(&mut buf.as_slice())? == request;
                buf.clear();
                proto::write_response(&mut buf, &reply)?;
                same &= proto::read_response(&mut buf.as_slice(), &request)? == reply;
            }
            Ok(same)
        },
    );
    match codec {
        Ok(true) => report.tally(FRAMES, 0),
        Ok(false) => report.fail("a codec round trip changed the frame"),
        Err(e) => report.fail(format!("codec: {e}")),
    }
    Ok(())
}

/// Measures every layer once on small inputs derived from the seed: the
/// seven kernels at scale 1 recorded through a fresh store and replayed
/// through all fourteen schemes; a stream-store cycle over the seven
/// standard patterns at a reduced size; and a short serve-mixed session.
/// Its figures fill the metrics of layers the workload's own pipeline
/// does not reach.
fn probe(seed: u64, dir: &WorkDir, layers: &mut Layers, report: &mut Report) -> Result<(), String> {
    let store = TraceStore::new();
    for bench in Benchmark::ALL {
        let trace = record_traced(bench, 1, &store, layers)?;
        replay_traced(
            WorkloadId::kernel(bench, 1),
            &trace,
            &full_dschemes(),
            &full_ischemes(),
            layers,
        );
    }
    let probe_dir = dir.sub("probe");
    std::fs::create_dir_all(&probe_dir)
        .map_err(|e| format!("create {}: {e}", probe_dir.display()))?;
    stream_traced(
        &synth::standard_suite(PROBE_ACCESSES),
        &probe_dir,
        None,
        layers,
        report,
    )?;
    teardown(&probe_dir, layers);
    let mut serve = ServeMixed::setup(seed, report)?;
    for _ in 0..PROBE_ROUNDS {
        serve.round(report);
    }
    serve_extras(&mut serve, layers, report)
}
