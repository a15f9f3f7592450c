//! The four workloads: set-up (inputs from the seed, a reference to
//! check against), one timed pass, and the figures the end-to-end
//! metrics are computed from.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use perfbench::report::Report;
use perfbench::stats;
use waymem_ingest::synth;
use waymem_serve::client::{Client, ClientError};
use waymem_serve::proto::RunRequest;
use waymem_serve::server::{self, ServeConfig, ServerHandle};
use waymem_sim::{
    full_dschemes, full_ischemes, DScheme, ExecPolicy, Experiment, IScheme, RecordedTrace,
    SchemeResult, SimResult, Suite, SynthPattern, SynthSpec, TraceStore, WorkloadId, WorkloadSpec,
};
use waymem_workloads::Benchmark;

use crate::Args;

/// Kernel scale of `paper-cold`: above 1, so the interpreter dominates.
const COLD_SCALE: u32 = 4;
/// Data accesses per synthetic pattern in `full-replay`.
const REPLAY_ACCESSES: u32 = 100_000;
/// Data accesses per synthetic pattern in `stream-store`.
const STREAM_ACCESSES: u32 = 100_000;
/// Data accesses per synthetic request in `serve-mixed`'s pool.
const SERVE_ACCESSES: u32 = 10_000;
/// Requests each client sends per `serve-mixed` pass.
const SERVE_ROUND: usize = 32;

/// The workloads by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 7 paper kernels at scale 4, cold store every pass.
    PaperCold,
    /// Kernels + synthetics replayed warm through all 14 schemes.
    FullReplay,
    /// Synthetic patterns through the durable streaming store.
    StreamStore,
    /// Closed-loop clients against an in-process daemon.
    ServeMixed,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-cold" => Some(Kind::PaperCold),
            "full-replay" => Some(Kind::FullReplay),
            "stream-store" => Some(Kind::StreamStore),
            "serve-mixed" => Some(Kind::ServeMixed),
            _ => None,
        }
    }
}

/// The paper's D-cache pair: conventional and way memoization (2×8).
pub fn paper_d() -> Vec<DScheme> {
    vec![DScheme::Original, DScheme::paper_way_memo()]
}

/// The paper's I-cache pair: conventional and way memoization (2×16).
pub fn paper_i() -> Vec<IScheme> {
    vec![IScheme::Original, IScheme::paper_way_memo()]
}

/// SplitMix64: the generator every seeded input derives from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of the run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seven standard synthetic patterns with spec seeds drawn from
/// the run's seed.
fn seeded_patterns(accesses: u32, rng: &mut Rng) -> Vec<SynthSpec> {
    synth::standard_suite(accesses)
        .into_iter()
        .map(|spec| SynthSpec {
            seed: rng.next_u64() as u32,
            ..spec
        })
        .collect()
}

/// The benchmark's scratch directory under the working directory,
/// removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench-work/<pid>` under the current directory.
    pub fn create() -> Result<Self, String> {
        let dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A subdirectory path (not created).
    pub fn sub(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Removes every file in `dir`.
pub fn empty_dir(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Checks one result against its reference: the cycle count, and per
/// scheme the access statistics and extra cycles; the paper pair must
/// also add no cycles.
pub fn check(result: &SimResult, reference: &SimResult) -> Result<(), String> {
    let who = result.workload.name();
    if result.workload != reference.workload {
        return Err(format!("{who}: expected {}", reference.workload.name()));
    }
    if result.cycles != reference.cycles {
        return Err(format!(
            "{who}: cycles {} != {}",
            result.cycles, reference.cycles
        ));
    }
    let sides = [
        (&result.dcache, &reference.dcache),
        (&result.icache, &reference.icache),
    ];
    for (got, want) in sides {
        if got.len() != want.len() {
            return Err(format!(
                "{who}: {} schemes, expected {}",
                got.len(),
                want.len()
            ));
        }
        for (g, w) in got.iter().zip(want) {
            if g.name != w.name || g.stats != w.stats || g.extra_cycles != w.extra_cycles {
                return Err(format!(
                    "{who}/{}: output differs from the reference",
                    g.name
                ));
            }
        }
    }
    no_extra_cycles(result)
}

/// The paper's claim of no performance penalty: the way-memoization
/// pair adds no cycles.
fn no_extra_cycles(result: &SimResult) -> Result<(), String> {
    let memo_d = DScheme::paper_way_memo().name();
    let memo_i = IScheme::paper_way_memo().name();
    let extra = result.dcache_by_name(&memo_d).map_or(0, |s| s.extra_cycles)
        + result.icache_by_name(&memo_i).map_or(0, |s| s.extra_cycles);
    if extra != 0 {
        return Err(format!(
            "{}: the paper pair added {extra} cycles",
            result.workload.name()
        ));
    }
    Ok(())
}

/// Checks a pass's results against the references, tallying one
/// operation per result.
fn check_all(results: &[SimResult], reference: &[SimResult], report: &mut Report) {
    if results.len() != reference.len() {
        report.fail(format!(
            "{} results, expected {}",
            results.len(),
            reference.len()
        ));
        return;
    }
    for (r, want) in results.iter().zip(reference) {
        match check(r, want) {
            Ok(()) => report.tally(1, 0),
            Err(why) => report.fail(why),
        }
    }
}

/// Geometric-mean power saving (percent) of the paper's way memoization
/// over the conventional cache, D side and I side, across `results`.
pub fn savings_pct<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> (f64, f64) {
    let (memo_d, memo_i) = (
        DScheme::paper_way_memo().name(),
        IScheme::paper_way_memo().name(),
    );
    let log_ratio = |side: &[SchemeResult], memo: &str| {
        let power = |name: &str| {
            side.iter()
                .find(|s| s.name == name)
                .map_or(f64::NAN, |s| s.power.total_mw())
        };
        (power(memo) / power("original")).ln()
    };
    let (mut d, mut i, mut n) = (0.0, 0.0, 0.0);
    for r in results {
        d += log_ratio(&r.dcache, &memo_d);
        i += log_ratio(&r.icache, &memo_i);
        n += 1.0;
    }
    let saving = |log_sum: f64| (1.0 - (log_sum / n).exp()) * 100.0;
    (saving(d), saving(i))
}

/// Trace events × the front-ends that consume them: data events feed
/// every D-front, fetch events every I-front.
pub fn front_events(trace: &RecordedTrace, d_fronts: usize, i_fronts: usize) -> u64 {
    (trace.data_events.len() * d_fronts + trace.fetch_events.len() * i_fronts) as u64
}

/// Perturbs a reference so that every check against it fails.
fn corrupt(reference: &mut [SimResult]) {
    for r in reference {
        r.dcache[0].stats.tag_reads += 1;
    }
}

/// A set-up workload, ready to run passes.
pub enum Workload {
    /// See [`Kind::PaperCold`].
    PaperCold(PaperCold),
    /// See [`Kind::FullReplay`].
    FullReplay(FullReplay),
    /// See [`Kind::StreamStore`].
    StreamStore(StreamStore),
    /// See [`Kind::ServeMixed`].
    ServeMixed(ServeMixed),
}

impl Workload {
    /// Builds the workload's inputs and reference. Checks made during
    /// set-up are tallied into `report`.
    pub fn setup(args: &Args, dir: &WorkDir, report: &mut Report) -> Result<Self, String> {
        let mut w = match args.kind {
            Kind::PaperCold => Workload::PaperCold(PaperCold::setup()?),
            Kind::FullReplay => Workload::FullReplay(FullReplay::setup(args.seed)?),
            Kind::StreamStore => Workload::StreamStore(StreamStore::setup(dir)?),
            Kind::ServeMixed => Workload::ServeMixed(ServeMixed::setup(args.seed, report)?),
        };
        if args.corrupt_reference {
            match &mut w {
                Workload::PaperCold(x) => corrupt(&mut x.reference),
                Workload::FullReplay(x) => corrupt(&mut x.reference),
                Workload::StreamStore(x) => corrupt(&mut x.reference),
                Workload::ServeMixed(x) => x.expected.iter_mut().for_each(|j| j.push(' ')),
            }
        }
        Ok(w)
    }

    /// Runs one untraced pass, checking its output; returns the timed
    /// seconds.
    pub fn pass(&mut self, report: &mut Report) -> f64 {
        match self {
            Workload::PaperCold(x) => x.pass(report),
            Workload::FullReplay(x) => x.pass(report),
            Workload::StreamStore(x) => x.pass(report),
            Workload::ServeMixed(x) => x.pass(report),
        }
    }

    /// Front-events per second: per pass over the median pass for the
    /// batch workloads, completed requests' front-events over the
    /// measured time for `serve-mixed`.
    pub fn front_events_per_s(&self, passes: &[f64]) -> f64 {
        let per_pass = match self {
            Workload::PaperCold(x) => x.front_events,
            Workload::FullReplay(x) => x.front_events,
            Workload::StreamStore(x) => x.front_events,
            Workload::ServeMixed(x) => {
                return x.front_events_done as f64 / passes.iter().sum::<f64>()
            }
        };
        per_pass as f64 / stats::median(passes)
    }

    /// The model metrics: the paper pair's saving over the workload's
    /// seed-independent inputs.
    pub fn savings_pct(&self) -> (f64, f64) {
        match self {
            Workload::PaperCold(x) => savings_pct(&x.reference),
            Workload::FullReplay(x) => savings_pct(&x.reference[..Benchmark::ALL.len()]),
            Workload::StreamStore(x) => savings_pct(&x.reference),
            Workload::ServeMixed(x) => savings_pct(&x.kernel_results),
        }
    }

    /// Request latencies (seconds) and the time they were measured
    /// over. On the batch workloads a request is one pass.
    pub fn requests(&self, passes: &[f64]) -> (Vec<f64>, f64) {
        match self {
            Workload::ServeMixed(x) => (x.latencies.clone(), passes.iter().sum()),
            _ => (passes.to_vec(), passes.iter().sum()),
        }
    }
}

/// `paper-cold`: the seven kernels at [`COLD_SCALE`], the paper pair,
/// and a fresh in-memory store each pass — every trace is interpreted.
/// The kernels are fixed programs, so the seed does not change them.
pub struct PaperCold {
    /// Serial-policy results, in [`Benchmark::ALL`] order.
    pub reference: Vec<SimResult>,
    front_events: u64,
}

impl PaperCold {
    fn setup() -> Result<Self, String> {
        let reference = PaperCold::suite()
            .policy(ExecPolicy::Serial)
            .run()
            .map_err(|e| format!("paper-cold reference: {e}"))?
            .into_results();
        Ok(PaperCold {
            reference,
            front_events: 0,
        })
    }

    fn suite<'s>() -> Suite<'s> {
        Suite::kernels()
            .scale(COLD_SCALE)
            .dschemes(paper_d())
            .ischemes(paper_i())
    }

    fn pass(&mut self, report: &mut Report) -> f64 {
        let store = TraceStore::new();
        let started = Instant::now();
        let outcome = PaperCold::suite().store(&store).run();
        let secs = started.elapsed().as_secs_f64();
        match outcome {
            Ok(results) => check_all(&results, &self.reference, report),
            Err(e) => report.fail(format!("paper-cold pass: {e}")),
        }
        if self.front_events == 0 {
            self.front_events = Benchmark::ALL
                .iter()
                .filter_map(|&b| store.get(WorkloadId::kernel(b, COLD_SCALE)))
                .map(|t| front_events(&t, 2, 2))
                .sum();
        }
        secs
    }
}

/// `full-replay`: the seven kernels plus the seven synthetic patterns
/// (spec seeds from the run's seed), recorded once in set-up, replayed
/// warm through all seven D- and seven I-schemes every pass.
pub struct FullReplay {
    /// The workloads, kernels first.
    pub workloads: Vec<WorkloadSpec>,
    /// The warm store holding every trace.
    pub store: TraceStore,
    /// Serial-policy results, in workload order.
    pub reference: Vec<SimResult>,
    front_events: u64,
}

impl FullReplay {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 1);
        let mut workloads: Vec<WorkloadSpec> = Benchmark::ALL
            .iter()
            .map(|&b| WorkloadSpec::Id(WorkloadId::kernel(b, 1)))
            .collect();
        workloads.extend(
            seeded_patterns(REPLAY_ACCESSES, &mut rng)
                .into_iter()
                .map(WorkloadSpec::from),
        );
        let store = TraceStore::new();
        let reference = FullReplay::suite(&workloads, &store)
            .policy(ExecPolicy::Serial)
            .run()
            .map_err(|e| format!("full-replay reference: {e}"))?
            .into_results();
        let (d, i) = (full_dschemes().len(), full_ischemes().len());
        let front_events = reference
            .iter()
            .filter_map(|r| store.get(r.workload))
            .map(|t| front_events(&t, d, i))
            .sum();
        Ok(FullReplay {
            workloads,
            store,
            reference,
            front_events,
        })
    }

    fn suite<'s>(workloads: &[WorkloadSpec], store: &'s TraceStore) -> Suite<'s> {
        Suite::new()
            .workloads(workloads.iter().cloned())
            .dschemes(full_dschemes())
            .ischemes(full_ischemes())
            .store(store)
    }

    fn pass(&mut self, report: &mut Report) -> f64 {
        let started = Instant::now();
        let outcome = FullReplay::suite(&self.workloads, &self.store).run();
        let secs = started.elapsed().as_secs_f64();
        match outcome {
            Ok(results) => check_all(&results, &self.reference, report),
            Err(e) => report.fail(format!("full-replay pass: {e}")),
        }
        secs
    }
}

/// `stream-store`: the seven standard synthetic patterns streamed
/// through a durable cache dir — a cold half (generate, encode, write,
/// fsync, rename, decode-replay) then a warm half (validate,
/// decode-replay). The specs are the fixed standard suite, so the
/// model metrics repeat exactly across seeds.
pub struct StreamStore {
    /// The patterns.
    pub specs: Vec<SynthSpec>,
    /// In-memory, serial-policy results, in spec order.
    pub reference: Vec<SimResult>,
    /// The cache dir, emptied after every pass.
    pub dir: PathBuf,
    front_events: u64,
}

impl StreamStore {
    fn setup(dir: &WorkDir) -> Result<Self, String> {
        let specs = synth::standard_suite(STREAM_ACCESSES);
        let reference = Suite::new()
            .workloads(specs.iter().copied())
            .dschemes(paper_d())
            .ischemes(paper_i())
            .policy(ExecPolicy::Serial)
            .run()
            .map_err(|e| format!("stream-store reference: {e}"))?
            .into_results();
        let front_events: u64 = specs
            .iter()
            .map(|&s| front_events(&synth::generate(s), 2, 2))
            .sum();
        let dir = dir.sub("stream-store");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // Both halves replay every trace.
        Ok(StreamStore {
            specs,
            reference,
            dir,
            front_events: 2 * front_events,
        })
    }

    fn half(&self) -> Result<Vec<SimResult>, String> {
        let store = TraceStore::with_cache_dir(&self.dir);
        Suite::new()
            .workloads(self.specs.iter().copied())
            .dschemes(paper_d())
            .ischemes(paper_i())
            .store(&store)
            .streaming(true)
            .run()
            .map(waymem_sim::SuiteResult::into_results)
            .map_err(|e| format!("stream-store pass: {e}"))
    }

    fn pass(&mut self, report: &mut Report) -> f64 {
        let started = Instant::now();
        let cold = self.half();
        let warm = self.half();
        let secs = started.elapsed().as_secs_f64();
        for half in [cold, warm] {
            match half {
                Ok(results) => check_all(&results, &self.reference, report),
                Err(e) => report.fail(e),
            }
        }
        empty_dir(&self.dir);
        secs
    }
}

/// `serve-mixed`: a daemon started in-process and warmed in set-up;
/// closed-loop clients (at most one per hardware thread, at most two)
/// each send [`SERVE_ROUND`] requests per pass, drawn from a shared
/// pool by the run's seed — the seven kernels and twelve synthetic
/// requests whose spec seeds also come from the seed. Equal concurrent
/// draws meet in the daemon's single-flight dedup.
pub struct ServeMixed {
    server: Option<ServerHandle>,
    clients: Vec<(Client, Rng)>,
    /// The request pool.
    pub pool: Vec<RunRequest>,
    /// The expected reply JSON per pool entry.
    pub expected: Vec<String>,
    /// In-process results for the pool's kernel requests.
    pub kernel_results: Vec<SimResult>,
    pool_front_events: Vec<u64>,
    /// Every measured request's latency, seconds.
    pub latencies: Vec<f64>,
    /// Replies served by dedup onto another request's execution.
    pub shared: u64,
    /// Replies received.
    pub ok: u64,
    front_events_done: u64,
}

impl ServeMixed {
    /// Starts the daemon, renders every pool request in-process, and
    /// warms the daemon with each request once — the first reply must
    /// equal the in-process rendering byte for byte.
    pub fn setup(seed: u64, report: &mut Report) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 2);
        let mut pool: Vec<RunRequest> = Benchmark::ALL
            .iter()
            .map(|&b| RunRequest::new(WorkloadId::kernel(b, 1)))
            .collect();
        let patterns = [
            SynthPattern::Stream,
            SynthPattern::Strided { stride: 64 },
            SynthPattern::PointerChase { nodes: 1024 },
            SynthPattern::RwChase { nodes: 1024 },
            SynthPattern::MultiLoop {
                loops: 16,
                period: 8,
            },
            SynthPattern::ZipfHotSet {
                hot_lines: 64,
                alpha_centi: 100,
            },
        ];
        for pattern in patterns {
            for _ in 0..2 {
                let spec = SynthSpec {
                    pattern,
                    accesses: SERVE_ACCESSES,
                    seed: rng.next_u64() as u32,
                };
                pool.push(RunRequest::new(WorkloadId::Synthetic(spec)));
            }
        }
        let local = TraceStore::new();
        let mut expected = Vec::with_capacity(pool.len());
        let mut pool_front_events = Vec::with_capacity(pool.len());
        let mut kernel_results = Vec::new();
        for req in &pool {
            let (result, trace) = run_direct(req, &local)?;
            if let Err(why) = no_extra_cycles(&result) {
                report.fail(why);
            }
            expected.push(server::result_json(&result).to_string());
            pool_front_events.push(front_events(&trace, 2, 2));
            if matches!(req.workload, WorkloadId::Kernel { .. }) {
                kernel_results.push(result);
            }
        }
        let server = server::start(ServeConfig::default(), TraceStore::new())
            .map_err(|e| format!("start daemon: {e}"))?;
        let clients_n = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        // Built before the clients connect, so a failed connect still
        // drains the daemon on drop.
        let mut w = ServeMixed {
            server: Some(server),
            clients: Vec::new(),
            pool,
            expected,
            kernel_results,
            pool_front_events,
            latencies: Vec::new(),
            shared: 0,
            ok: 0,
            front_events_done: 0,
        };
        let addr = w.server.as_ref().expect("just started").local_addr();
        for c in 0..clients_n {
            let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            w.clients.push((client, Rng::new(seed, 100 + c as u64)));
        }
        let (warm, _) = w.clients.first_mut().expect("at least one client");
        for (req, want) in w.pool.iter().zip(&w.expected) {
            match warm.run(req.clone()) {
                Ok(reply) if reply.result_json == *want => report.tally(1, 0),
                Ok(_) => report.fail(format!("{}: warm-up reply differs", req.workload.name())),
                Err(e) => report.fail(format!("{}: warm-up: {e}", req.workload.name())),
            }
        }
        Ok(w)
    }

    /// One closed-loop round: every client sends [`SERVE_ROUND`]
    /// requests, each after the previous reply. Returns the round's
    /// wall-clock and, per client, the seconds its requests took.
    pub fn round(&mut self, report: &mut Report) -> (f64, Vec<f64>) {
        let (pool, expected) = (&self.pool, &self.expected);
        let started = Instant::now();
        let outcomes: Vec<Vec<Sent>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|(client, rng)| {
                    scope.spawn(move || {
                        (0..SERVE_ROUND)
                            .map(|_| {
                                let idx = rng.below(pool.len());
                                let sent = Instant::now();
                                let reply = client.run(pool[idx].clone());
                                let secs = sent.elapsed().as_secs_f64();
                                let verdict = match reply {
                                    Ok(r) if r.result_json == expected[idx] => Ok(r.shared),
                                    Ok(_) => Err("reply differs from the first reply".to_owned()),
                                    Err(ClientError::Refused { status, message }) => {
                                        Err(format!("refused ({status:?}): {message}"))
                                    }
                                    Err(e) => Err(e.to_string()),
                                };
                                (idx, secs, verdict)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let mut busy = Vec::with_capacity(outcomes.len());
        for client in outcomes {
            busy.push(client.iter().map(|(_, s, _)| s).sum());
            for (idx, secs, verdict) in client {
                match verdict {
                    Ok(shared) => {
                        report.tally(1, 0);
                        self.ok += 1;
                        self.shared += u64::from(shared);
                        self.latencies.push(secs);
                        self.front_events_done += self.pool_front_events[idx];
                    }
                    Err(why) => {
                        // A failed or refused request misses any latency
                        // limit.
                        report.fail(format!("{}: {why}", self.pool[idx].workload.name()));
                        self.latencies.push(f64::INFINITY);
                    }
                }
            }
        }
        (wall, busy)
    }

    fn pass(&mut self, report: &mut Report) -> f64 {
        self.round(report).0
    }

    /// A client connection for probes outside the closed loop.
    pub fn client(&mut self) -> &mut Client {
        &mut self.clients.first_mut().expect("at least one client").0
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.begin_drain();
            server.join();
        }
    }
}

/// One request a client sent: its pool index, latency in seconds, and
/// whether the reply was shared (or why it failed).
type Sent = (usize, f64, Result<bool, String>);

/// Runs a pool request in-process, as the daemon would, through
/// `store`; returns the result and the trace it replayed.
pub fn run_direct(
    req: &RunRequest,
    store: &TraceStore,
) -> Result<(SimResult, Arc<RecordedTrace>), String> {
    let prepared = Experiment::workload(req.workload)
        .geometry(req.geometry)
        .technology(req.technology)
        .dschemes(paper_d())
        .ischemes(paper_i())
        .store(store)
        .prepare()
        .map_err(|e| format!("{}: {e}", req.workload.name()))?;
    let trace = Arc::clone(
        prepared
            .trace()
            .ok_or("an in-memory run materializes its trace")?,
    );
    let result = prepared
        .run()
        .map_err(|e| format!("{}: {e}", req.workload.name()))?;
    Ok((result, trace))
}
