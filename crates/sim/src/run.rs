//! The experiment engine: a record-once / replay-in-parallel pipeline.
//!
//! The engine executes the CPU interpreter (or a parser / generator)
//! exactly once, capturing the full fetch/load/store stream into a
//! [`RecordedTrace`] — two flat `Vec<TraceEvent>` streams split at
//! capture time, fetches apart from loads/stores — then replays that
//! recorded trace through every requested scheme's front-end, under an
//! [`ExecPolicy`]: concurrently on
//! [`std::thread::scope`] workers, or inline on the calling thread. Each
//! front-end consumes its stream as a slice through the batched
//! [`TraceSink::events`] entry point, which dispatches to a monomorphic
//! loop ([`DFront::replay`] / [`IFront::replay`]), so no per-event
//! virtual dispatch survives on the hot path; power is composed via
//! Eq. (1) once every worker joins. Every front-end sees the identical
//! recorded stream, so all policies are bit-identical — including the
//! per-event serial fanout that serial kernel runs use to skip the trace
//! materialization entirely.
//!
//! The composable front door to all of this is
//! [`Experiment`](crate::Experiment) / [`Suite`]
//! (`experiment` module); this module keeps the engine itself — the
//! result types, [`record_trace`], and the deprecated free-function
//! shims the builder replaced.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use waymem_obs::phase::Phase;

use waymem_cache::{AccessStats, Geometry};
use waymem_hwmodel::{
    cache_energies, mab_power_mw, CacheShape, EnergyCounts, PowerBreakdown, Technology,
};
use waymem_isa::{AsmError, Cpu, CpuError, FetchKind, TraceEvent, TraceSink};
use waymem_trace::{
    fnv1a64, Section, StreamError, StreamStats, StreamingEncoder, StreamingTrace, TraceStore,
    WorkloadId,
};
use waymem_workloads::Benchmark;

use crate::{DFront, DScheme, ExecPolicy, IFront, IScheme, Suite, SuiteResult};

/// Simulation configuration shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Cache geometry for both I- and D-caches (paper: 32 kB 2-way).
    pub geometry: Geometry,
    /// Workload scale factor (1 = default kernel sizes).
    pub scale: u32,
    /// Technology / operating point for the power models.
    pub technology: Technology,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::frv(),
            scale: 1,
            technology: Technology::frv_0130(),
        }
    }
}

/// Why a simulation run failed. Every way an
/// [`Experiment`](crate::Experiment) can go wrong is one of these — a
/// bad builder combination is a structured error, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The benchmark's generated assembly failed to assemble.
    Assemble(AsmError),
    /// The CPU faulted while executing the benchmark.
    Cpu(CpuError),
    /// The benchmark did not halt within its step budget.
    StepLimit {
        /// The budget that was exhausted.
        max_steps: u64,
    },
    /// An external log could not be read, parsed, or contained no
    /// accesses (the I/O or parse failure stringified, so the error
    /// stays `Clone` + `Eq`).
    Ingest {
        /// The log that failed.
        path: PathBuf,
        /// What went wrong with it.
        message: String,
    },
    /// The workload names a trace nothing can produce: an external
    /// [`WorkloadId`] with no attached store holding it.
    MissingTrace {
        /// The unresolvable workload.
        id: WorkloadId,
    },
    /// A streaming trace file could not be written, opened, or replayed
    /// (the I/O or codec failure stringified, so the error stays
    /// `Clone` + `Eq`).
    Stream {
        /// What went wrong with the stream.
        message: String,
    },
    /// A worker thread panicked mid-run. The panic is caught at the
    /// suite boundary and converted into this structured error so one
    /// bad workload cannot take down its siblings.
    Worker {
        /// The panic payload, stringified.
        message: String,
    },
}

impl RunError {
    /// Whether retrying the same run could plausibly succeed. Transient
    /// environment failures — I/O during ingest, a streaming trace file
    /// torn by a racing process — are retryable; deterministic failures
    /// (bad assembly, a CPU fault, an exhausted step budget, a missing
    /// trace, a worker panic) would only repeat themselves.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, RunError::Ingest { .. } | RunError::Stream { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Assemble(e) => write!(f, "benchmark failed to assemble: {e}"),
            RunError::Cpu(e) => write!(f, "benchmark faulted: {e}"),
            RunError::StepLimit { max_steps } => {
                write!(f, "benchmark did not halt within {max_steps} steps")
            }
            RunError::Ingest { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            RunError::MissingTrace { id } => {
                write!(f, "workload {id} has no trace: not held by any attached store")
            }
            RunError::Stream { message } => {
                write!(f, "streaming trace failed: {message}")
            }
            RunError::Worker { message } => {
                write!(f, "worker thread panicked: {message}")
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Assemble(e) => Some(e),
            RunError::Cpu(e) => Some(e),
            RunError::StepLimit { .. }
            | RunError::Ingest { .. }
            | RunError::MissingTrace { .. }
            | RunError::Stream { .. }
            | RunError::Worker { .. } => None,
        }
    }
}

impl From<StreamError> for RunError {
    fn from(e: StreamError) -> Self {
        RunError::Stream { message: e.to_string() }
    }
}

impl From<AsmError> for RunError {
    fn from(e: AsmError) -> Self {
        RunError::Assemble(e)
    }
}

impl From<CpuError> for RunError {
    fn from(e: CpuError) -> Self {
        RunError::Cpu(e)
    }
}

/// Per-scheme outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme display name.
    pub name: String,
    /// Tag/way/hit accounting.
    pub stats: AccessStats,
    /// Raw counts handed to the power model.
    pub energy: EnergyCounts,
    /// Eq. (1) power decomposition.
    pub power: PowerBreakdown,
    /// Cycles added by lookup penalties (zero for way memoization).
    pub extra_cycles: u64,
}

/// Outcome of one workload under several schemes.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The workload that ran: a built-in kernel, an ingested external
    /// trace, or a synthetic pattern.
    pub workload: WorkloadId,
    /// Instructions retired (= cycles at CPI 1).
    pub cycles: u64,
    /// D-cache results, in the order the schemes were given.
    pub dcache: Vec<SchemeResult>,
    /// I-cache results, in the order the schemes were given.
    pub icache: Vec<SchemeResult>,
}

impl SimResult {
    /// Finds a D-cache result by scheme name.
    #[must_use]
    pub fn dcache_by_name(&self, name: &str) -> Option<&SchemeResult> {
        self.dcache.iter().find(|r| r.name == name)
    }

    /// Finds an I-cache result by scheme name.
    #[must_use]
    pub fn icache_by_name(&self, name: &str) -> Option<&SchemeResult> {
        self.icache.iter().find(|r| r.name == name)
    }
}

/// Legacy serial fanout: forwards each CPU event to every front-end as it
/// happens. Kept (behind [`run_kernel_fanout`], the serial-policy kernel
/// path) as the reference the record/replay engine is benchmarked and
/// cross-validated against.
struct FanoutSink {
    dfronts: Vec<DFront>,
    ifronts: Vec<IFront>,
}

impl TraceSink for FanoutSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        for f in &mut self.ifronts {
            f.fetch(pc, kind);
        }
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        for f in &mut self.dfronts {
            f.access(false, base, disp, addr);
        }
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, _size: u8) {
        for f in &mut self.dfronts {
            f.access(true, base, disp, addr);
        }
    }
}

pub use waymem_isa::RecordedTrace;

/// Where a replay's event stream comes from: a fully materialized
/// in-memory trace, or an on-disk `.wmtr` file replayed in bounded
/// batches. Every front-end sees the identical event sequence either
/// way — `tests/determinism.rs` pins the two sources bit-identical for
/// every scheme — only the resident-memory cost differs: O(events)
/// materialized, O(batch) streaming.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// The whole event stream resident in memory, shared across replay
    /// workers.
    Materialized(Arc<RecordedTrace>),
    /// Replayed from an on-disk `.wmtr` file through a bounded window;
    /// each front-end replays its section from its own file cursor.
    Streaming(Arc<StreamingTrace>),
}

impl TraceSource {
    /// The trace's cycle count.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        match self {
            TraceSource::Materialized(t) => t.cycles,
            TraceSource::Streaming(t) => t.cycles(),
        }
    }

    /// Total event count (fetch + data).
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            TraceSource::Materialized(t) => t.len() as u64,
            TraceSource::Streaming(t) => t.len(),
        }
    }

    /// Whether the trace holds no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The in-memory trace, when this source is materialized.
    #[must_use]
    pub fn materialized(&self) -> Option<&Arc<RecordedTrace>> {
        match self {
            TraceSource::Materialized(t) => Some(t),
            TraceSource::Streaming(_) => None,
        }
    }

    /// The on-disk streaming handle, when this source streams.
    #[must_use]
    pub fn streaming(&self) -> Option<&Arc<StreamingTrace>> {
        match self {
            TraceSource::Materialized(_) => None,
            TraceSource::Streaming(t) => Some(t),
        }
    }
}

impl From<Arc<RecordedTrace>> for TraceSource {
    fn from(trace: Arc<RecordedTrace>) -> Self {
        TraceSource::Materialized(trace)
    }
}

impl From<RecordedTrace> for TraceSource {
    fn from(trace: RecordedTrace) -> Self {
        TraceSource::Materialized(Arc::new(trace))
    }
}

impl From<Arc<StreamingTrace>> for TraceSource {
    fn from(trace: Arc<StreamingTrace>) -> Self {
        TraceSource::Streaming(trace)
    }
}

impl From<StreamingTrace> for TraceSource {
    fn from(trace: StreamingTrace) -> Self {
        TraceSource::Streaming(Arc::new(trace))
    }
}

/// Events each of [`record_trace`]'s two streams reserves up front:
/// 40 MB of `TraceEvent`s.
const RECORD_RESERVE_EVENTS: usize = 1 << 21;

/// The recording sink behind [`record_trace`]: like
/// [`waymem_isa::RecordingSink`] but splitting the stream at capture time
/// so replay never re-partitions it.
#[derive(Debug, Default)]
struct SplitRecordingSink {
    fetches: Vec<TraceEvent>,
    data: Vec<TraceEvent>,
}

impl TraceSink for SplitRecordingSink {
    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.fetches.push(TraceEvent::Fetch { pc, kind });
    }

    fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data.push(TraceEvent::Load {
            base,
            disp,
            addr,
            size,
        });
    }

    fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
        self.data.push(TraceEvent::Store {
            base,
            disp,
            addr,
            size,
        });
    }
}

/// Executes `bench` once and records its full event stream.
///
/// This is the "record" half of the engine; [`replay_trace`] is the other.
/// Splitting them lets callers amortize one CPU run over many replays
/// (geometry sweeps, scheme sweeps) instead of re-interpreting the kernel.
///
/// # Errors
///
/// Returns [`RunError`] if the kernel fails to assemble, faults, or does
/// not halt within its step budget.
pub fn record_trace(bench: Benchmark, cfg: &SimConfig) -> Result<RecordedTrace, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Record);
    let _span = waymem_obs::span!("record", workload = bench.name());
    let wl = bench.workload(cfg.scale)?;
    // Reserve far more than a kernel usually touches: unused capacity
    // costs address space, not memory. A reservation above 32 MB (the
    // largest block glibc's malloc ever serves from its arenas) is mapped
    // straight from the OS, so growing it remaps instead of copying, and
    // dropping the trace returns its memory at once; a smaller one can
    // leave tens of MB resident in a worker thread's arena after a cold
    // run drops its traces. `shrink_to_fit` hands the unused tail back.
    let mut sink = SplitRecordingSink {
        fetches: Vec::with_capacity(RECORD_RESERVE_EVENTS),
        data: Vec::with_capacity(RECORD_RESERVE_EVENTS),
    };
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, &mut sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    sink.fetches.shrink_to_fit();
    sink.data.shrink_to_fit();
    Ok(RecordedTrace {
        fetch_events: sink.fetches,
        data_events: sink.data,
        cycles: cpu.instret(),
    })
}

/// Executes `bench` once, encoding its full event stream straight to a
/// `.wmtr` file at `path` — the bounded-memory counterpart of
/// [`record_trace`]: the event vector is never materialized, so a
/// long-running kernel costs O(1) resident memory to capture. The file's
/// header carries [`kernel_source_hash`] as its staleness fingerprint,
/// so a store treats it exactly like a trace it recorded itself.
///
/// # Errors
///
/// [`RunError`] if the kernel fails to assemble, faults, does not halt
/// within its step budget, or the file cannot be written.
pub fn record_trace_streaming(
    bench: Benchmark,
    cfg: &SimConfig,
    path: &Path,
) -> Result<StreamStats, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Record);
    let _span = waymem_obs::span!("record", workload = bench.name());
    let wl = bench.workload(cfg.scale)?;
    let mut sink = StreamingEncoder::create(path).map_err(StreamError::from)?;
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, &mut sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    let cycles = cpu.instret();
    Ok(sink.finish(cycles, kernel_source_hash(bench, cfg.scale))?)
}

/// The per-run Eq. (1) ingredients shared by every scheme: the cache's
/// per-access energies depend only on geometry and technology, so they
/// are computed once per run, not once per scheme.
fn run_energies(cfg: &SimConfig) -> waymem_hwmodel::CacheEnergies {
    let shape = CacheShape {
        sets: cfg.geometry.sets(),
        ways: cfg.geometry.ways(),
        line_bytes: cfg.geometry.line_bytes(),
        tag_bits: cfg.geometry.tag_bits(),
    };
    cache_energies(shape, cfg.technology)
}

/// Composes the Eq. (1) result for one joined D-front.
fn dscheme_result(
    f: &DFront,
    cycles: u64,
    cfg: &SimConfig,
    energies: waymem_hwmodel::CacheEnergies,
) -> SchemeResult {
    let energy = f.energy_counts(cycles);
    let mab = f.mab_shape().map(|s| mab_power_mw(s, cfg.technology));
    SchemeResult {
        name: f.scheme().name(),
        stats: f.stats(),
        energy,
        power: PowerBreakdown::from_counts(energy, energies, mab, cfg.technology),
        extra_cycles: f.extra_cycles(),
    }
}

/// Composes the Eq. (1) result for one joined I-front.
fn ischeme_result(
    f: &IFront,
    cycles: u64,
    cfg: &SimConfig,
    energies: waymem_hwmodel::CacheEnergies,
) -> SchemeResult {
    let energy = f.energy_counts(cycles);
    let mab = f.mab_shape().map(|s| mab_power_mw(s, cfg.technology));
    SchemeResult {
        name: f.scheme().name(),
        stats: f.stats(),
        energy,
        power: PowerBreakdown::from_counts(energy, energies, mab, cfg.technology),
        extra_cycles: 0,
    }
}

/// Whether fanning replays out across threads can pay for itself: more
/// than one front-end to run, and more than one hardware thread to run
/// them on. On a single-core host the scoped workers would only
/// interleave, so the engine replays inline instead — the numbers are
/// identical either way (each front-end consumes the same slice in
/// isolation); only wall-clock differs.
pub(crate) fn replay_in_parallel(front_count: usize) -> bool {
    front_count > 1
        && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// Elapsed nanoseconds since `started`, saturated to `u64::MAX`.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds one D-front and replays the recorded data stream through it,
/// publishing the per-front instruments: `replay.data_events` (events
/// delivered), `replay.front_ns` (wall-clock per front), and a
/// `replay.front` span. Shared by the parallel workers and the serial
/// path so both report identically.
fn replay_d_front(s: DScheme, geometry: Geometry, events: &[TraceEvent]) -> DFront {
    let _span = waymem_obs::span!("replay.front", scheme = s.name());
    let started = Instant::now();
    let mut f = s.build(geometry);
    f.events(events);
    waymem_obs::counter!("replay.data_events").add(events.len() as u64);
    waymem_obs::histogram!("replay.front_ns").record(elapsed_ns(started));
    f
}

/// The I-front counterpart of [`replay_d_front`]: counts into
/// `replay.fetch_events`.
fn replay_i_front(s: IScheme, geometry: Geometry, events: &[TraceEvent]) -> IFront {
    let _span = waymem_obs::span!("replay.front", scheme = s.name());
    let started = Instant::now();
    let mut f = s.build(geometry);
    f.events(events);
    waymem_obs::counter!("replay.fetch_events").add(events.len() as u64);
    waymem_obs::histogram!("replay.front_ns").record(elapsed_ns(started));
    f
}

/// Streaming counterpart of [`replay_d_front`]: replays the data section
/// straight from the `.wmtr` cursor, counting the delivered events that
/// [`StreamingTrace::replay_section`] reports.
fn stream_d_front(
    s: DScheme,
    geometry: Geometry,
    trace: &StreamingTrace,
) -> Result<DFront, StreamError> {
    let _span = waymem_obs::span!("replay.front", scheme = s.name());
    let started = Instant::now();
    let mut f = s.build(geometry);
    let delivered = trace.replay_section(Section::Data, &mut f)?;
    waymem_obs::counter!("replay.data_events").add(delivered);
    waymem_obs::histogram!("replay.front_ns").record(elapsed_ns(started));
    Ok(f)
}

/// Streaming counterpart of [`replay_i_front`].
fn stream_i_front(
    s: IScheme,
    geometry: Geometry,
    trace: &StreamingTrace,
) -> Result<IFront, StreamError> {
    let _span = waymem_obs::span!("replay.front", scheme = s.name());
    let started = Instant::now();
    let mut f = s.build(geometry);
    let delivered = trace.replay_section(Section::Fetch, &mut f)?;
    waymem_obs::counter!("replay.fetch_events").add(delivered);
    waymem_obs::histogram!("replay.front_ns").record(elapsed_ns(started));
    Ok(f)
}

/// Replays an already-recorded trace of the kernel `bench` through every
/// requested scheme's front-end.
#[deprecated(
    since = "0.1.0",
    note = "use Experiment::recorded(WorkloadId::kernel(bench, cfg.scale), trace).run()"
)]
#[must_use]
pub fn replay_trace(
    bench: Benchmark,
    trace: &RecordedTrace,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> SimResult {
    replay_with_policy(
        WorkloadId::kernel(bench, cfg.scale),
        trace,
        cfg,
        dschemes,
        ischemes,
        ExecPolicy::Auto,
    )
}

/// Evaluates **any** recorded trace across every requested scheme's
/// front-end.
#[deprecated(since = "0.1.0", note = "use Experiment::recorded(workload, trace).run()")]
#[must_use]
pub fn run_trace(
    workload: WorkloadId,
    trace: &RecordedTrace,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> SimResult {
    replay_with_policy(workload, trace, cfg, dschemes, ischemes, ExecPolicy::Auto)
}

/// The replay half of the engine: evaluates a recorded trace — a
/// built-in kernel's, an ingested external log's, a synthetic
/// generator's — across every requested scheme's front-end, under the
/// given [`ExecPolicy`].
///
/// The parallel fan-out is bounded: schemes are chunked across at most
/// [`std::thread::available_parallelism`] workers, each replaying its
/// chunk sequentially, so a long scheme list never spawns more compute
/// threads than the host has cores. Chunks are joined in scheme order,
/// so the result vectors keep the order the schemes were given and the
/// outcome is deterministic: every front-end consumes the identical
/// event slice independently, so the numbers are bit-identical to a
/// serial replay (pinned by `tests/experiment.rs`).
pub(crate) fn replay_with_policy(
    workload: WorkloadId,
    trace: &RecordedTrace,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    policy: ExecPolicy,
) -> SimResult {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = workload.name());
    let parallel = match policy {
        ExecPolicy::Auto => replay_in_parallel(dschemes.len() + ischemes.len()),
        ExecPolicy::Parallel => true,
        ExecPolicy::Serial => false,
    };
    let data_events = trace.data_events.as_slice();
    let fetch_events = trace.fetch_events.as_slice();
    let (dfronts, ifronts) = if parallel {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = (dschemes.len() + ischemes.len()).div_ceil(workers).max(1);
        std::thread::scope(|scope| {
            let dhandles: Vec<_> = dschemes
                .chunks(chunk)
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .iter()
                            .map(|&s| replay_d_front(s, cfg.geometry, data_events))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let ihandles: Vec<_> = ischemes
                .chunks(chunk)
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .iter()
                            .map(|&s| replay_i_front(s, cfg.geometry, fetch_events))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let dfronts: Vec<DFront> = dhandles
                .into_iter()
                .flat_map(|h| h.join().expect("D-front replay worker panicked"))
                .collect();
            let ifronts: Vec<IFront> = ihandles
                .into_iter()
                .flat_map(|h| h.join().expect("I-front replay worker panicked"))
                .collect();
            (dfronts, ifronts)
        })
    } else {
        (
            dschemes
                .iter()
                .map(|&s| replay_d_front(s, cfg.geometry, data_events))
                .collect(),
            ischemes
                .iter()
                .map(|&s| replay_i_front(s, cfg.geometry, fetch_events))
                .collect(),
        )
    };
    let energies = run_energies(cfg);
    SimResult {
        workload,
        cycles: trace.cycles,
        dcache: dfronts
            .iter()
            .map(|f| dscheme_result(f, trace.cycles, cfg, energies))
            .collect(),
        icache: ifronts
            .iter()
            .map(|f| ischeme_result(f, trace.cycles, cfg, energies))
            .collect(),
    }
}

/// Replays either trace source across every requested scheme's
/// front-end: materialized sources go through [`replay_with_policy`]
/// unchanged; streaming sources fan each front-end out over its own
/// file cursor, consuming the section in bounded batches.
///
/// # Errors
///
/// [`RunError::Stream`] when a streaming source's file fails to read or
/// decode mid-replay. Materialized replay is infallible.
pub(crate) fn replay_source_with_policy(
    workload: WorkloadId,
    source: &TraceSource,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    policy: ExecPolicy,
) -> Result<SimResult, RunError> {
    match source {
        TraceSource::Materialized(trace) => {
            Ok(replay_with_policy(workload, trace, cfg, dschemes, ischemes, policy))
        }
        TraceSource::Streaming(trace) => {
            replay_streaming(workload, trace, cfg, dschemes, ischemes, policy)
        }
    }
}

/// The streaming replay engine: every front-end replays its section
/// (fetches for I-fronts, loads/stores for D-fronts) straight from the
/// `.wmtr` file through its own independent cursor —
/// [`StreamingTrace::replay_section`] opens a fresh file handle per
/// call, so the parallel fan-out needs no coordination and the numbers
/// are bit-identical to the materialized engine (each front-end consumes
/// the identical event sequence in isolation, in the same batched
/// `events()` entry point).
fn replay_streaming(
    workload: WorkloadId,
    trace: &StreamingTrace,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    policy: ExecPolicy,
) -> Result<SimResult, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = workload.name());
    let parallel = match policy {
        ExecPolicy::Auto => replay_in_parallel(dschemes.len() + ischemes.len()),
        ExecPolicy::Parallel => true,
        ExecPolicy::Serial => false,
    };
    let (dfronts, ifronts) = if parallel {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = (dschemes.len() + ischemes.len()).div_ceil(workers).max(1);
        std::thread::scope(|scope| -> Result<_, StreamError> {
            let dhandles: Vec<_> = dschemes
                .chunks(chunk)
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .iter()
                            .map(|&s| stream_d_front(s, cfg.geometry, trace))
                            .collect::<Result<Vec<_>, StreamError>>()
                    })
                })
                .collect();
            let ihandles: Vec<_> = ischemes
                .chunks(chunk)
                .map(|group| {
                    scope.spawn(move || {
                        group
                            .iter()
                            .map(|&s| stream_i_front(s, cfg.geometry, trace))
                            .collect::<Result<Vec<_>, StreamError>>()
                    })
                })
                .collect();
            let mut dfronts: Vec<DFront> = Vec::with_capacity(dschemes.len());
            for h in dhandles {
                dfronts.extend(h.join().expect("D-front streaming replay worker panicked")?);
            }
            let mut ifronts: Vec<IFront> = Vec::with_capacity(ischemes.len());
            for h in ihandles {
                ifronts.extend(h.join().expect("I-front streaming replay worker panicked")?);
            }
            Ok((dfronts, ifronts))
        })?
    } else {
        let mut dfronts = Vec::with_capacity(dschemes.len());
        for &s in dschemes {
            dfronts.push(stream_d_front(s, cfg.geometry, trace).map_err(RunError::from)?);
        }
        let mut ifronts = Vec::with_capacity(ischemes.len());
        for &s in ischemes {
            ifronts.push(stream_i_front(s, cfg.geometry, trace).map_err(RunError::from)?);
        }
        (dfronts, ifronts)
    };
    let cycles = trace.cycles();
    let energies = run_energies(cfg);
    Ok(SimResult {
        workload,
        cycles,
        dcache: dfronts
            .iter()
            .map(|f| dscheme_result(f, cycles, cfg, energies))
            .collect(),
        icache: ifronts
            .iter()
            .map(|f| ischeme_result(f, cycles, cfg, energies))
            .collect(),
    })
}

/// Runs `bench` once and returns per-scheme statistics and Eq. (1) power
/// for every requested D- and I-cache scheme.
#[deprecated(since = "0.1.0", note = "use Experiment::kernel(bench).run()")]
pub fn run_benchmark(
    bench: Benchmark,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<SimResult, RunError> {
    crate::Experiment::kernel(bench)
        .config(*cfg)
        .dschemes(dschemes.iter().copied())
        .ischemes(ischemes.iter().copied())
        .run()
}

/// The FNV-1a64 of the kernel's generated assembly source at `scale` —
/// the staleness fingerprint stored traces of built-in kernels carry.
/// A workload-generator change alters the source text, so warm cache
/// files from before the change stop matching and are re-recorded
/// instead of silently replayed.
///
/// Memoized per `(benchmark, scale)` for the process lifetime: sweeps
/// call the store-backed runners hundreds of times per configuration,
/// and regenerating a kernel's full source (synthetic input frames
/// included) per call just to re-derive a constant would dwarf the
/// lookup it guards. Kernel generators are pure, so the hash cannot go
/// stale within a process.
#[must_use]
pub fn kernel_source_hash(bench: Benchmark, scale: u32) -> u64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static CACHE: OnceLock<Mutex<HashMap<(Benchmark, u32), u64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(&hash) = cache.lock().expect("hash cache poisoned").get(&(bench, scale)) {
        return hash;
    }
    // Generate outside the lock: source generation is the expensive
    // part, and a racing thread at worst recomputes the same value.
    let hash = fnv1a64(bench.source(scale).as_bytes());
    cache.lock().expect("hash cache poisoned").insert((bench, scale), hash);
    hash
}

/// Like `run_benchmark`, but sourcing the recorded trace from a shared
/// [`TraceStore`].
#[deprecated(since = "0.1.0", note = "use Experiment::kernel(bench).store(&store).run()")]
pub fn run_benchmark_with_store(
    bench: Benchmark,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    store: &TraceStore,
) -> Result<SimResult, RunError> {
    crate::Experiment::kernel(bench)
        .config(*cfg)
        .dschemes(dschemes.iter().copied())
        .ischemes(ischemes.iter().copied())
        .store(store)
        .run()
}

/// The custom-producer store-backed runner: evaluates the workload `id`
/// across all requested schemes, producing its trace at most once per
/// store lifetime via `record`.
#[deprecated(
    since = "0.1.0",
    note = "use Experiment (kernel/synthetic/ingest resolve their own producer), or \
            TraceStore::get_or_record + Experiment::recorded for a custom producer"
)]
#[allow(clippy::too_many_arguments)]
pub fn run_trace_with_store<E>(
    id: WorkloadId,
    source_hash: u64,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    store: &TraceStore,
    record: impl FnOnce() -> Result<RecordedTrace, E>,
) -> Result<SimResult, E> {
    let trace = store.get_or_record(id, source_hash, record)?;
    Ok(replay_with_policy(id, &trace, cfg, dschemes, ischemes, ExecPolicy::Auto))
}

/// The pre-record/replay serial engine: one CPU run with every front-end
/// fed per event through the serial [`FanoutSink`], skipping trace
/// materialization entirely. This is what [`ExecPolicy::Serial`] (and
/// `Auto`, when parallel replay cannot pay) resolves to for kernel
/// workloads without a store; kept private as the reference engine the
/// parallel replay is cross-validated against.
///
/// # Errors
///
/// Returns [`RunError`] if the kernel fails to assemble, faults, or does
/// not halt.
pub(crate) fn run_kernel_fanout(
    bench: Benchmark,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<SimResult, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = bench.name());
    let wl = bench.workload(cfg.scale)?;
    let mut sink = FanoutSink {
        dfronts: dschemes.iter().map(|s| s.build(cfg.geometry)).collect(),
        ifronts: ischemes.iter().map(|s| s.build(cfg.geometry)).collect(),
    };
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, &mut sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    let cycles = cpu.instret();
    let energies = run_energies(cfg);
    Ok(SimResult {
        workload: WorkloadId::kernel(bench, cfg.scale),
        cycles,
        dcache: sink
            .dfronts
            .iter()
            .map(|f| dscheme_result(f, cycles, cfg, energies))
            .collect(),
        icache: sink
            .ifronts
            .iter()
            .map(|f| ischeme_result(f, cycles, cfg, energies))
            .collect(),
    })
}

/// Runs all seven benchmarks under the given schemes, fanning the
/// benchmarks out across worker threads.
#[deprecated(
    since = "0.1.0",
    note = "use Suite::kernels().dschemes(..).ischemes(..).run()"
)]
pub fn run_suite(
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<Vec<SimResult>, RunError> {
    Suite::kernels()
        .config(*cfg)
        .dschemes(dschemes.iter().copied())
        .ischemes(ischemes.iter().copied())
        .run()
        .map(SuiteResult::into_results)
}

/// `run_suite` with a shared [`TraceStore`].
#[deprecated(
    since = "0.1.0",
    note = "use Suite::kernels().dschemes(..).ischemes(..).store(&store).run()"
)]
pub fn run_suite_with_store(
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    store: &TraceStore,
) -> Result<Vec<SimResult>, RunError> {
    Suite::kernels()
        .config(*cfg)
        .dschemes(dschemes.iter().copied())
        .ischemes(ischemes.iter().copied())
        .store(store)
        .run()
        .map(SuiteResult::into_results)
}

/// The fully serial suite driver: benchmarks one after another, each
/// feeding every front-end per event through the serial fanout sink.
#[deprecated(
    since = "0.1.0",
    note = "use Suite::kernels().policy(ExecPolicy::Serial)…run()"
)]
pub fn run_suite_serial(
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
) -> Result<Vec<SimResult>, RunError> {
    Suite::kernels()
        .config(*cfg)
        .dschemes(dschemes.iter().copied())
        .ischemes(ischemes.iter().copied())
        .policy(ExecPolicy::Serial)
        .run()
        .map(SuiteResult::into_results)
}

#[cfg(test)]
mod tests {
    // These unit tests deliberately keep exercising the deprecated shims:
    // they are the in-crate proof that every shim stays bit-identical to
    // the `Experiment` pipeline it forwards to. Workspace-level code is
    // held to the builder API by `tests/deprecation_tripwire.rs`.
    #![allow(deprecated)]

    use super::*;
    use crate::Experiment;

    fn paper_schemes() -> (Vec<DScheme>, Vec<IScheme>) {
        (
            vec![
                DScheme::Original,
                DScheme::SetBuffer { entries: 1 },
                DScheme::paper_way_memo(),
            ],
            vec![
                IScheme::Original,
                IScheme::IntraLine,
                IScheme::paper_way_memo(),
            ],
        )
    }

    #[test]
    fn dct_run_produces_paper_shape() {
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let r = run_benchmark(Benchmark::Dct, &cfg, &d, &i).expect("runs");
        assert!(r.cycles > 50_000);

        // All D schemes saw the same accesses.
        let accesses: Vec<u64> = r.dcache.iter().map(|s| s.stats.accesses).collect();
        assert!(accesses.windows(2).all(|w| w[0] == w[1]));

        let orig = &r.dcache[0];
        let ours = &r.dcache[2];
        // Figure 4 shape: original ~2 tags/access; ours ~90% fewer.
        assert!(orig.stats.tags_per_access() > 1.9);
        assert!(
            ours.stats.tag_reads * 3 < orig.stats.tag_reads,
            "ours {} vs orig {}",
            ours.stats.tag_reads,
            orig.stats.tag_reads
        );
        // Ways: ours stays above 1 (at least one way per access).
        assert!(ours.stats.ways_per_access() >= 1.0);
        assert!(ours.stats.ways_per_access() < orig.stats.ways_per_access());
        // Figure 5 shape: total power drops.
        assert!(ours.power.total_mw() < orig.power.total_mw());
        // No performance penalty for way memoization.
        assert_eq!(ours.extra_cycles, 0);

        // I-cache, Figure 6 shape: [4] removes most tags; ours removes more.
        let iorig = &r.icache[0];
        let i4 = &r.icache[1];
        let iours = &r.icache[2];
        assert!(i4.stats.tag_reads < iorig.stats.tag_reads / 2);
        assert!(iours.stats.tag_reads < i4.stats.tag_reads);
        assert!(iours.power.total_mw() < i4.power.total_mw());
    }

    #[test]
    fn stats_are_internally_consistent() {
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let r = run_benchmark(Benchmark::Compress, &cfg, &d, &i).expect("runs");
        for s in r.dcache.iter().chain(r.icache.iter()) {
            assert!(s.stats.is_consistent(), "{}", s.name);
            assert_eq!(s.energy.cycles, r.cycles);
        }
    }

    /// Structural equality of two results down to f64 bits.
    fn assert_results_identical(a: &SimResult, b: &SimResult) {
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.cycles, b.cycles);
        let pairs = a.dcache.iter().zip(&b.dcache).chain(a.icache.iter().zip(&b.icache));
        for (x, y) in pairs {
            assert_eq!(x.name, y.name);
            assert_eq!(x.stats, y.stats, "{}: stats differ", x.name);
            assert_eq!(x.energy, y.energy, "{}: energy differs", x.name);
            assert_eq!(x.extra_cycles, y.extra_cycles);
            assert_eq!(
                x.power.total_mw().to_bits(),
                y.power.total_mw().to_bits(),
                "{}: power differs",
                x.name
            );
        }
    }

    #[test]
    fn parallel_replay_matches_legacy_fanout() {
        // Exercise the record/replay engine explicitly (not through
        // `run_benchmark`, which may pick the fanout path on single-core
        // hosts) and pin it bit-identical to the serial fanout.
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let trace = record_trace(Benchmark::Dct, &cfg).expect("records");
        let replayed = replay_trace(Benchmark::Dct, &trace, &cfg, &d, &i);
        let fanout = run_kernel_fanout(Benchmark::Dct, &cfg, &d, &i).expect("fanout runs");
        assert_results_identical(&replayed, &fanout);
    }

    #[test]
    fn experiment_builder_matches_every_legacy_shim() {
        // The shims must be pure plumbing: each one bit-identical to the
        // builder chain its deprecation note names.
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();

        let legacy = run_benchmark(Benchmark::Dct, &cfg, &d, &i).expect("legacy runs");
        let built = Experiment::kernel(Benchmark::Dct)
            .dschemes(d.iter().copied())
            .ischemes(i.iter().copied())
            .run()
            .expect("builder runs");
        assert_results_identical(&legacy, &built);

        let trace = record_trace(Benchmark::Dct, &cfg).expect("records");
        let legacy = run_trace(
            WorkloadId::kernel(Benchmark::Dct, 1),
            &trace,
            &cfg,
            &d,
            &i,
        );
        let built = Experiment::recorded(
            WorkloadId::kernel(Benchmark::Dct, 1),
            trace.clone(),
        )
        .dschemes(d.iter().copied())
        .ischemes(i.iter().copied())
        .run()
        .expect("builder replays");
        assert_results_identical(&legacy, &built);

        let legacy_store = TraceStore::new();
        let built_store = TraceStore::new();
        let legacy = run_benchmark_with_store(Benchmark::Dct, &cfg, &d, &i, &legacy_store)
            .expect("legacy store run");
        let built = Experiment::kernel(Benchmark::Dct)
            .dschemes(d.iter().copied())
            .ischemes(i.iter().copied())
            .store(&built_store)
            .run()
            .expect("builder store run");
        assert_results_identical(&legacy, &built);
        assert_eq!(legacy_store.stats().records, built_store.stats().records);

        let legacy = run_suite(&cfg, &d, &i).expect("legacy suite");
        let built = crate::Suite::kernels()
            .dschemes(d.iter().copied())
            .ischemes(i.iter().copied())
            .run()
            .expect("builder suite");
        assert_eq!(legacy.len(), built.len());
        for (a, b) in legacy.iter().zip(built.iter()) {
            assert_results_identical(a, b);
        }

        let serial = run_suite_serial(&cfg, &d, &i).expect("legacy serial suite");
        for (a, b) in serial.iter().zip(legacy.iter()) {
            assert_results_identical(a, b);
        }
    }

    #[test]
    fn replaying_a_recorded_trace_twice_is_identical() {
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let trace = record_trace(Benchmark::Fft, &cfg).expect("records");
        assert!(!trace.is_empty());
        let first = replay_trace(Benchmark::Fft, &trace, &cfg, &d, &i);
        let second = replay_trace(Benchmark::Fft, &trace, &cfg, &d, &i);
        assert_results_identical(&first, &second);
        for (x, y) in first.dcache.iter().zip(&second.dcache) {
            assert_eq!(x.stats, y.stats);
        }
    }

    #[test]
    fn recorded_trace_event_counts_match_counting_sink() {
        // The recorded stream must be exactly what a CountingSink observes
        // live: same number of fetches, loads and stores.
        use waymem_isa::CountingSink;
        let cfg = SimConfig::default();
        let bench = Benchmark::Dct;
        let trace = record_trace(bench, &cfg).expect("records");
        let wl = bench.workload(cfg.scale).expect("assembles");
        let mut counter = CountingSink::default();
        let mut cpu = Cpu::new(&wl.program);
        cpu.run(wl.max_steps, &mut counter).expect("runs");
        // The fetch stream must be pure fetches and the data stream pure
        // loads/stores, both matching what a CountingSink observes live.
        assert!(trace
            .fetch_events
            .iter()
            .all(|e| matches!(e, waymem_isa::TraceEvent::Fetch { .. })));
        let loads = trace
            .data_events
            .iter()
            .filter(|e| matches!(e, waymem_isa::TraceEvent::Load { .. }))
            .count() as u64;
        let stores = trace
            .data_events
            .iter()
            .filter(|e| matches!(e, waymem_isa::TraceEvent::Store { .. }))
            .count() as u64;
        assert_eq!(trace.fetch_events.len() as u64, counter.fetches);
        assert_eq!(loads, counter.loads);
        assert_eq!(stores, counter.stores);
        // One fetch per retired instruction, plus the final `halt`, which
        // is fetched but does not retire.
        assert_eq!(trace.fetch_events.len() as u64, trace.cycles + 1);
    }

    #[test]
    fn store_backed_run_matches_plain_run_and_records_once() {
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let store = TraceStore::new();
        let trace = record_trace(Benchmark::Dct, &cfg).expect("records");
        let plain = replay_trace(Benchmark::Dct, &trace, &cfg, &d, &i);
        let first =
            run_benchmark_with_store(Benchmark::Dct, &cfg, &d, &i, &store).expect("runs");
        // A different geometry replays the *same* stored trace.
        let wide = SimConfig {
            geometry: waymem_cache::Geometry::new(128, 8, 32).expect("valid"),
            ..cfg
        };
        let second =
            run_benchmark_with_store(Benchmark::Dct, &wide, &d, &i, &store).expect("runs");
        assert_results_identical(&plain, &first);
        assert_eq!(second.cycles, first.cycles, "same trace, same cycles");
        let s = store.stats();
        assert_eq!((s.lookups, s.records, s.hits), (2, 1, 1));
    }

    #[test]
    fn run_trace_evaluates_foreign_workloads() {
        // A hand-built trace with no kernel behind it — the ingest
        // subsystem's shape — must flow through the same engine and
        // produce consistent per-scheme accounting.
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let trace = RecordedTrace {
            fetch_events: (0..2000)
                .map(|k| TraceEvent::Fetch { pc: 0x1000 + 4 * k, kind: FetchKind::Sequential })
                .collect(),
            data_events: (0..500)
                .map(|k| TraceEvent::Load {
                    base: 0x8000 + 8 * k,
                    disp: 0,
                    addr: 0x8000 + 8 * k,
                    size: 4,
                })
                .collect(),
            cycles: 2000,
        };
        let id = WorkloadId::External { hash: 0xabcd };
        let r = run_trace(id, &trace, &cfg, &d, &i);
        assert_eq!(r.workload, id);
        assert_eq!(r.cycles, 2000);
        for s in r.dcache.iter().chain(r.icache.iter()) {
            assert!(s.stats.is_consistent(), "{}", s.name);
            assert!(s.stats.accesses > 0, "{}", s.name);
            assert!(s.power.total_mw() > 0.0, "{}", s.name);
        }
    }

    #[test]
    fn run_trace_with_store_produces_once_and_verifies_hash() {
        let cfg = SimConfig::default();
        let (d, i) = paper_schemes();
        let id = WorkloadId::External { hash: 77 };
        let store = TraceStore::new();
        let mut productions = 0;
        let trace = RecordedTrace {
            fetch_events: vec![TraceEvent::Fetch { pc: 0, kind: FetchKind::Sequential }],
            data_events: vec![TraceEvent::Load { base: 0, disp: 0, addr: 0, size: 4 }],
            cycles: 1,
        };
        for _ in 0..2 {
            let r = run_trace_with_store(id, 77, &cfg, &d, &i, &store, || {
                productions += 1;
                Ok::<_, ()>(trace.clone())
            })
            .expect("runs");
            assert_eq!(r.workload, id);
        }
        assert_eq!(productions, 1, "second run must hit the store");
    }

    #[test]
    fn kernel_source_hash_is_stable_and_scale_sensitive() {
        let h1 = kernel_source_hash(Benchmark::Dct, 1);
        assert_eq!(h1, kernel_source_hash(Benchmark::Dct, 1));
        assert_ne!(h1, kernel_source_hash(Benchmark::Dct, 2));
        assert_ne!(h1, kernel_source_hash(Benchmark::Fft, 1));
        assert_ne!(h1, 0, "hash 0 means 'unverified' and must not collide");
    }

    #[test]
    fn lookup_by_name_works() {
        let cfg = SimConfig::default();
        let r = run_benchmark(
            Benchmark::Dct,
            &cfg,
            &[DScheme::Original],
            &[IScheme::Original],
        )
        .expect("runs");
        assert!(r.dcache_by_name("original").is_some());
        assert!(r.dcache_by_name("nope").is_none());
        assert!(r.icache_by_name("original").is_some());
    }
}
