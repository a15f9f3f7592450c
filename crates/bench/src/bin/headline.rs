//! Checks the abstract's headline claims in one run:
//! * I-cache power reduced by ~40 % (vs conventional),
//! * D-cache power reduced by ~50 % (vs conventional, best case),
//! * total cache power reduced ~30 % on average / 40 % max (the paper's
//!   total is against original D + the \[4\] intra-line I-cache; this
//!   bin's total is against original D + original I, and `fig8` gives the
//!   paper's baseline),
//! * no performance penalty (zero extra cycles for the MAB schemes).
//!
//! It exits non-zero if any scheme reports a wrong-way access
//! ([`waymem_cache::AccessStats::wrong_way`]): a MAB hit naming a way
//! that does not hold the line.
//!
//! It also times the 7-benchmark suite under four engines — the serial
//! per-event fanout ([`ExecPolicy::Serial`]), a cold pass through the
//! shared [`waymem_sim::TraceStore`] (records or disk-loads each trace),
//! a warm pass (pure in-memory store hits), and a bounded-memory
//! streaming pass replaying each trace from its on-disk `.wmtr` file in
//! batches — and writes the wall-clocks, the streaming events/sec, and
//! the store's hit/miss/compression accounting to `BENCH_headline.json`,
//! the report `bench_diff --baseline` compares against a committed copy.
//!
//! Set `WAYMEM_TRACE_CACHE=<dir>` to persist recorded traces across
//! invocations; a second run then reports `"records": 0` — the CI
//! cold-vs-warm smoke checks exactly that.

use std::process::Command;
use std::time::Instant;

use waymem_bench::json::{metrics_json, phases_json, store_stats_json};
use waymem_bench::{geometric_mean, store_from_env};
use waymem_obs::json::Json;
use waymem_sim::{DScheme, ExecPolicy, Experiment, IScheme, Suite};
use waymem_workloads::Benchmark;

/// The checkout's short git revision, or `"unknown"` outside a git
/// checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    // Arm span capture (WAYMEM_SPANS=<path>) and resolve the log level
    // (WAYMEM_LOG) before any instrumented work runs.
    waymem_obs::init_from_env();
    let dschemes = [DScheme::Original, DScheme::paper_way_memo()];
    let ischemes = [IScheme::Original, IScheme::paper_way_memo()];
    let store = store_from_env();
    let suite = || Suite::kernels().dschemes(dschemes).ischemes(ischemes);

    let serial_start = Instant::now();
    let serial = suite()
        .policy(ExecPolicy::Serial)
        .run()
        .expect("serial suite runs");
    let serial_s = serial_start.elapsed().as_secs_f64();

    // Cold pass: every lookup misses in memory (records, or loads from a
    // warm cache dir); warm pass: every lookup is an in-memory hit.
    let cold_start = Instant::now();
    let results = suite().store(&store).run().expect("suite runs");
    let cold_s = cold_start.elapsed().as_secs_f64();
    let warm_start = Instant::now();
    let warm = suite().store(&store).run().expect("suite runs");
    let warm_s = warm_start.elapsed().as_secs_f64();

    // Streaming pass: each kernel's trace replays from its on-disk
    // `.wmtr` file in bounded batches — O(batch) resident memory, the
    // pipeline that keeps multi-GB captures feasible. Timed per whole
    // pass; the events/sec figure is the headline streaming number.
    let stream_start = Instant::now();
    let mut stream_events: u64 = 0;
    let mut streamed = Vec::with_capacity(Benchmark::ALL.len());
    for &bench in &Benchmark::ALL {
        let prepared = Experiment::kernel(bench)
            .dschemes(dschemes)
            .ischemes(ischemes)
            .store(&store)
            .streaming(true)
            .prepare()
            .expect("streaming prepare");
        stream_events += prepared.source().len();
        streamed.push(prepared.run().expect("streaming replay"));
    }
    let stream_s = stream_start.elapsed().as_secs_f64();
    let stream_eps = if stream_s > 0.0 { stream_events as f64 / stream_s } else { 0.0 };

    // The engines must agree exactly (tests pin this; cheap re-check).
    for (a, rest) in serial.iter().zip(results.iter().zip(warm.iter().zip(&streamed))) {
        let (b, (c, s)) = rest;
        assert_eq!(a.cycles, b.cycles, "{}: engines disagree", a.workload);
        assert_eq!(a.cycles, c.cycles, "{}: warm replay disagrees", a.workload);
        assert_eq!(a.cycles, s.cycles, "{}: streaming replay disagrees", a.workload);
        for (x, y) in a.dcache.iter().zip(&b.dcache).chain(a.icache.iter().zip(&b.icache)) {
            assert_eq!(x.stats, y.stats, "{}/{}: engines disagree", a.workload, x.name);
        }
        for (x, y) in a.dcache.iter().zip(&s.dcache).chain(a.icache.iter().zip(&s.icache)) {
            assert_eq!(x.stats, y.stats, "{}/{}: streaming disagrees", a.workload, x.name);
        }
    }

    println!("Headline claims (abstract): ours vs conventional caches");
    println!(
        "{:<12}  {:>10}  {:>10}  {:>10}  {:>12}",
        "benchmark", "D saving", "I saving", "total", "extra cycles"
    );
    let mut d_ratios = Vec::new();
    let mut i_ratios = Vec::new();
    let mut t_ratios = Vec::new();
    for r in &results {
        let d = r.dcache[1].power.total_mw() / r.dcache[0].power.total_mw();
        let i = r.icache[1].power.total_mw() / r.icache[0].power.total_mw();
        let t = (r.dcache[1].power.total_mw() + r.icache[1].power.total_mw())
            / (r.dcache[0].power.total_mw() + r.icache[0].power.total_mw());
        d_ratios.push(d);
        i_ratios.push(i);
        t_ratios.push(t);
        println!(
            "{:<12}  {:>9.1}%  {:>9.1}%  {:>9.1}%  {:>12}",
            r.workload.name(),
            (1.0 - d) * 100.0,
            (1.0 - i) * 100.0,
            (1.0 - t) * 100.0,
            r.dcache[1].extra_cycles
        );
    }
    let d_avg = (1.0 - geometric_mean(&d_ratios)) * 100.0;
    let i_avg = (1.0 - geometric_mean(&i_ratios)) * 100.0;
    let t_avg = (1.0 - geometric_mean(&t_ratios)) * 100.0;
    println!(
        "averages: D {d_avg:.1}% | I {i_avg:.1}% | total {t_avg:.1}% vs original D + original I   \
         (paper: D up to 50%, I up to 40%; its 30% avg total is vs original D + [4] intra-line I: see fig8)"
    );
    let max_saving = t_ratios
        .iter()
        .fold(f64::INFINITY, |acc, &r| acc.min(r));
    println!(
        "maximum total saving: {:.1}% vs original D + original I",
        (1.0 - max_saving) * 100.0
    );

    let stats = store.stats();
    println!(
        "\nsuite wall-clock: serial fanout {:.1} ms, store cold {:.1} ms ({:.2}x), store warm {:.1} ms ({:.2}x)",
        serial_s * 1e3,
        cold_s * 1e3,
        serial_s / cold_s,
        warm_s * 1e3,
        serial_s / warm_s
    );
    println!(
        "streaming replay: {:.1} ms for {} events ({:.0} events/s, O(batch) resident)",
        stream_s * 1e3,
        stream_events,
        stream_eps
    );
    println!(
        "trace store: {} lookups, {} hits, {} disk hits, {} records ({:.0}% hit rate), {:.2}x codec compression",
        stats.lookups,
        stats.hits,
        stats.disk_hits,
        stats.records,
        stats.hit_rate() * 100.0,
        stats.compression_ratio()
    );

    let phases = waymem_obs::phase::snapshot();
    println!(
        "engine phases (exclusive wall-clock): {}",
        phases
            .iter()
            .map(|(name, s)| format!("{name} {:.1} ms", s * 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Json::object(vec![
        ("schema", Json::from("waymem/headline/v5")),
        ("git_rev", Json::from(git_rev())),
        ("host_threads", Json::from(host_threads as u64)),
        ("benchmarks", Json::from(results.len() as u64)),
        ("dschemes", Json::from(dschemes.len() as u64)),
        ("ischemes", Json::from(ischemes.len() as u64)),
        ("serial_fanout_seconds", Json::from(serial_s)),
        ("store_cold_seconds", Json::from(cold_s)),
        ("store_warm_seconds", Json::from(warm_s)),
        ("cold_speedup", Json::from(serial_s / cold_s)),
        ("warm_speedup", Json::from(serial_s / warm_s)),
        ("streaming_seconds", Json::from(stream_s)),
        ("streaming_events", Json::from(stream_events)),
        ("streaming_events_per_sec", Json::from(stream_eps)),
        ("trace_store", store_stats_json(&stats)),
        ("phases", phases_json()),
        ("d_saving_avg_pct", Json::from(d_avg)),
        ("i_saving_avg_pct", Json::from(i_avg)),
        ("total_saving_avg_pct", Json::from(t_avg)),
        ("total_saving_max_pct", Json::from((1.0 - max_saving) * 100.0)),
        ("metrics", metrics_json()),
    ]);
    std::fs::write("BENCH_headline.json", format!("{report}\n"))
        .expect("write BENCH_headline.json");
    eprintln!("wrote BENCH_headline.json");

    // With WAYMEM_SPANS set, drain every thread's span buffer into the
    // Chrome trace-event file (open it at ui.perfetto.dev).
    match waymem_obs::span::flush() {
        Ok(Some((path, events))) => eprintln!("wrote {events} span events to {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("headline: failed to write span trace: {e}"),
    }

    // The paper's safety property, checked in this release binary: no
    // known-way access of any pass may have named the wrong way.
    let mut wrong_way = 0;
    for r in serial
        .iter()
        .chain(results.iter())
        .chain(warm.iter())
        .chain(&streamed)
    {
        for s in r.dcache.iter().chain(&r.icache) {
            if s.stats.wrong_way > 0 {
                eprintln!(
                    "headline: {}/{}: {} wrong-way accesses",
                    r.workload, s.name, s.stats.wrong_way
                );
                wrong_way += s.stats.wrong_way;
            }
        }
    }
    if wrong_way > 0 {
        std::process::exit(1);
    }
}
