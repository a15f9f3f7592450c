//! The experiment engine: produce a workload's events once, then replay
//! them through every requested scheme.
//!
//! A workload's events come from one producer — the CPU interpreter, a
//! synthetic generator or a log parser — generic over the [`TraceSink`]
//! it feeds, so the same producer fills either [`TraceSource`]: an
//! in-memory [`RecordedTrace`] (two flat `Vec<TraceEvent>` streams,
//! fetches split from loads/stores at capture time) or an on-disk
//! `.wmtr` file replayed in bounded batches. One replay function then
//! feeds each section ([`TraceSource::feed`]) through a fresh front-end
//! per scheme under an [`ExecPolicy`]: concurrently on
//! [`std::thread::scope`] workers, or inline on the calling thread. Each
//! front-end consumes its section through the batched
//! [`TraceSink::events`] entry point, which dispatches to a monomorphic
//! loop ([`DFront::replay`] / [`IFront::replay`]), so no per-event
//! virtual dispatch survives on the hot path; power is composed via
//! Eq. (1) once every worker joins. Every front-end sees the identical
//! event stream, so every source and policy is bit-identical — including
//! the per-event serial fanout that store-less serial kernel runs use to
//! skip the trace entirely.
//!
//! The composable front door to all of this is
//! [`Experiment`](crate::Experiment) / [`Suite`](crate::Suite)
//! (`experiment` module); this module keeps the engine itself: the
//! result types, the producers, [`record_trace`] and replay.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use waymem_obs::phase::{Phase, PhaseGuard};
use waymem_obs::span::SpanGuard;

use waymem_cache::{AccessStats, Geometry};
use waymem_hwmodel::{
    cache_energies, mab_power_mw, CacheShape, EnergyCounts, MabShape, PowerBreakdown,
    Technology,
};
use waymem_ingest::{parse_into, synth, LogFormat};
use waymem_isa::{AsmError, Cpu, CpuError, FetchKind, TraceEvent, TraceSink};
use waymem_trace::{
    fnv1a64, Section, StreamError, StreamingEncoder, StreamingTrace, SynthSpec, WorkloadId,
};
use waymem_workloads::Benchmark;

use crate::{DFront, DScheme, ExecPolicy, IFront, IScheme, IngestMeta};

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

/// The store-less serial kernel engine's sink: forwards each CPU event to
/// every front-end as it happens (see [`run_kernel_fanout`]).
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

    /// Feeds one section into `sink` — fetches for I-fronts, loads and
    /// stores for D-fronts — and returns how many events it delivered. A
    /// materialized source hands its slice over in one
    /// [`TraceSink::events`] call; a streaming one decodes the section
    /// through its own file cursor in bounded batches
    /// ([`StreamingTrace::replay_section`]), so concurrent feeds need no
    /// coordination.
    ///
    /// # Errors
    ///
    /// [`StreamError`] when a streaming source's file fails to read or
    /// decode mid-section (events delivered before the error stand); a
    /// materialized source never fails.
    pub fn feed<S: TraceSink + ?Sized>(
        &self,
        section: Section,
        sink: &mut S,
    ) -> Result<u64, StreamError> {
        match self {
            TraceSource::Materialized(t) => {
                let events = match section {
                    Section::Fetch => t.fetch_events.as_slice(),
                    Section::Data => t.data_events.as_slice(),
                };
                sink.events(events);
                Ok(events.len() as u64)
            }
            TraceSource::Streaming(t) => t.replay_section(section, sink),
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

/// Events each of an interpreted trace's two streams reserves up front:
/// 40 MB of `TraceEvent`s.
const RECORD_RESERVE_EVENTS: usize = 1 << 21;

/// The sink a trace is recorded into: like
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

/// What produces a workload's events when no store holds them: the
/// frv-lite interpreter, a synthetic generator or a log parser. Each
/// feeds any [`TraceSink`], so one producer fills both terminals: an
/// in-memory trace ([`record`](Self::record)) or a `.wmtr` file
/// ([`encode`](Self::encode)).
#[derive(Debug)]
pub(crate) enum Producer {
    /// A built-in kernel at an explicit scale.
    Kernel { bench: Benchmark, scale: u32 },
    /// A deterministic synthetic access pattern.
    Synthetic(SynthSpec),
    /// An external log whose raw bytes hashed to `hash` before the parse.
    Log {
        path: PathBuf,
        format: Option<LogFormat>,
        hash: u64,
    },
}

impl Producer {
    /// Enters the Record phase and the `record` span a production runs
    /// under, so every producer shows up in the phase breakdown and the
    /// span stream alike.
    fn enter(&self) -> (SpanGuard, PhaseGuard) {
        let phase = waymem_obs::phase::enter(Phase::Record);
        let span = match self {
            Producer::Kernel { bench, .. } => waymem_obs::span!("record", workload = bench.name()),
            Producer::Synthetic(spec) => {
                waymem_obs::span!("record", workload = WorkloadId::Synthetic(*spec).name())
            }
            Producer::Log { path, .. } => waymem_obs::span!("record", source = path.display()),
        };
        (span, phase)
    }

    /// Runs the producer into `sink`; returns the trace's cycle count and,
    /// for a log, what the parse observed. Every way a log can fail —
    /// unreadable, malformed, empty, changed since it was hashed — is a
    /// structured [`RunError::Ingest`].
    fn produce<S: TraceSink>(&self, sink: &mut S) -> Result<(u64, Option<IngestMeta>), RunError> {
        match self {
            Producer::Kernel { bench, scale } => Ok((interpret(*bench, *scale, sink)?, None)),
            Producer::Synthetic(spec) => Ok((synth::generate_into(*spec, sink).0.cycles, None)),
            Producer::Log { path, format, hash } => {
                let format = format.unwrap_or_else(|| LogFormat::for_path(path));
                let ingest_err = |message: String| RunError::Ingest { path: path.clone(), message };
                let file = std::fs::File::open(path)
                    .map_err(|e| ingest_err(format!("cannot open: {e}")))?;
                let (stats, _) = parse_into(format, std::io::BufReader::new(file), sink)
                    .map_err(|e| ingest_err(e.to_string()))?;
                if stats.events() == 0 {
                    return Err(ingest_err("log contains no accesses".to_owned()));
                }
                // The parser folds the identical byte stream into
                // FNV-1a64; divergence means the file changed between the
                // hash and the parse (or a parser regression) — either way
                // the cache key would lie about the trace it maps to.
                if stats.source_hash != *hash {
                    return Err(ingest_err(format!(
                        "file changed while being ingested \
                         (hashed {hash:016x}, parsed {:016x})",
                        stats.source_hash
                    )));
                }
                let meta = IngestMeta { format, lines: stats.lines, skipped: stats.skipped };
                Ok((stats.cycles, Some(meta)))
            }
        }
    }

    /// Produces the trace into memory.
    pub(crate) fn record(&self) -> Result<(RecordedTrace, Option<IngestMeta>), RunError> {
        let _guards = self.enter();
        // Only the interpreter reserves up front; generated and parsed
        // traces grow as they fill. The reservation is far more than a
        // kernel usually touches: unused capacity costs address space, not
        // memory. A reservation above 32 MB (the largest block glibc's
        // malloc ever serves from its arenas) is mapped straight from the
        // OS, so growing it remaps instead of copying, and dropping the
        // trace returns its memory at once; a smaller one can leave tens
        // of MB resident in a worker thread's arena after a cold run drops
        // its traces. `shrink_to_fit` hands the unused tail back.
        let reserve = match self {
            Producer::Kernel { .. } => RECORD_RESERVE_EVENTS,
            Producer::Synthetic(_) | Producer::Log { .. } => 0,
        };
        let mut sink = SplitRecordingSink {
            fetches: Vec::with_capacity(reserve),
            data: Vec::with_capacity(reserve),
        };
        let (cycles, meta) = self.produce(&mut sink)?;
        if reserve > 0 {
            sink.fetches.shrink_to_fit();
            sink.data.shrink_to_fit();
        }
        let trace = RecordedTrace {
            fetch_events: sink.fetches,
            data_events: sink.data,
            cycles,
        };
        Ok((trace, meta))
    }

    /// Produces the trace straight into a `.wmtr` file at `path` whose
    /// header carries `source_hash`: the event vector never exists, so a
    /// trace of any length costs O(batch) resident memory. Nothing is
    /// written when the producer fails.
    pub(crate) fn encode(
        &self,
        path: &Path,
        source_hash: u64,
    ) -> Result<Option<IngestMeta>, RunError> {
        let _guards = self.enter();
        let mut sink = StreamingEncoder::create(path).map_err(StreamError::from)?;
        let (cycles, meta) = self.produce(&mut sink)?;
        sink.finish(cycles, source_hash)?;
        Ok(meta)
    }
}

/// Interprets `bench` at `scale` once, feeding every event to `sink`;
/// returns the cycle count (instructions retired).
fn interpret(bench: Benchmark, scale: u32, sink: &mut impl TraceSink) -> Result<u64, RunError> {
    let wl = bench.workload(scale)?;
    let mut cpu = Cpu::new(&wl.program);
    let outcome = cpu.run(wl.max_steps, sink)?;
    if !outcome.halted() {
        return Err(RunError::StepLimit {
            max_steps: wl.max_steps,
        });
    }
    Ok(cpu.instret())
}

/// Executes `bench` once and records its full event stream.
///
/// Recording once lets callers amortize one CPU run over many replays
/// (geometry sweeps, scheme sweeps) instead of re-interpreting the kernel;
/// [`Experiment::recorded`](crate::Experiment::recorded) replays the
/// result.
///
/// # Errors
///
/// Returns [`RunError`] if the kernel fails to assemble, faults, or does
/// not halt within its step budget.
pub fn record_trace(bench: Benchmark, cfg: &SimConfig) -> Result<RecordedTrace, RunError> {
    Ok(Producer::Kernel { bench, scale: cfg.scale }.record()?.0)
}

/// Composes the Eq. (1) result of every joined front-end. The cache's
/// per-access energies depend only on geometry and technology, so they
/// are computed once per run, not once per scheme.
fn compose(
    workload: WorkloadId,
    cycles: u64,
    cfg: &SimConfig,
    dfronts: &[DFront],
    ifronts: &[IFront],
) -> SimResult {
    let shape = CacheShape {
        sets: cfg.geometry.sets(),
        ways: cfg.geometry.ways(),
        line_bytes: cfg.geometry.line_bytes(),
        tag_bits: cfg.geometry.tag_bits(),
    };
    let energies = cache_energies(shape, cfg.technology);
    let power = |energy: EnergyCounts, mab: Option<MabShape>| {
        let mab = mab.map(|s| mab_power_mw(s, cfg.technology));
        PowerBreakdown::from_counts(energy, energies, mab, cfg.technology)
    };
    SimResult {
        workload,
        cycles,
        dcache: dfronts
            .iter()
            .map(|f| {
                let energy = f.energy_counts(cycles);
                SchemeResult {
                    name: f.scheme().name(),
                    stats: f.stats(),
                    energy,
                    power: power(energy, f.mab_shape()),
                    extra_cycles: f.extra_cycles(),
                }
            })
            .collect(),
        icache: ifronts
            .iter()
            .map(|f| {
                let energy = f.energy_counts(cycles);
                SchemeResult {
                    name: f.scheme().name(),
                    stats: f.stats(),
                    energy,
                    power: power(energy, f.mab_shape()),
                    extra_cycles: 0,
                }
            })
            .collect(),
    }
}

/// Elapsed nanoseconds since `started`, saturated to `u64::MAX`.
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Builds one front-end and feeds it one section of `source`, publishing
/// the per-front instruments: a `replay.front` span, the section's
/// `replay.data_events` / `replay.fetch_events` counter (events
/// delivered) and the `replay.front_ns` histogram (wall-clock per front).
fn replay_front<F: TraceSink>(
    source: &TraceSource,
    section: Section,
    scheme: impl FnOnce() -> String,
    build: impl FnOnce() -> F,
) -> Result<F, StreamError> {
    let _span = waymem_obs::span!("replay.front", scheme = scheme());
    let started = Instant::now();
    let mut front = build();
    let delivered = source.feed(section, &mut front)?;
    match section {
        Section::Data => waymem_obs::counter!("replay.data_events"),
        Section::Fetch => waymem_obs::counter!("replay.fetch_events"),
    }
    .add(delivered);
    waymem_obs::histogram!("replay.front_ns").record(elapsed_ns(started));
    Ok(front)
}

/// The replay half of the engine: evaluates a trace source — a built-in
/// kernel's, an ingested external log's, a synthetic generator's; in
/// memory or on disk — across every requested scheme's front-end, under
/// the given [`ExecPolicy`].
///
/// The parallel fan-out is bounded: D- and I-schemes are chunked
/// separately, `ceil((d + i) / workers)` to a chunk, across at most
/// [`std::thread::available_parallelism`] workers, each replaying its
/// chunk sequentially, so a long scheme list never spawns more compute
/// threads than the host has cores. Chunks are joined in scheme order,
/// so the result vectors keep the order the schemes were given and the
/// outcome is deterministic: every front-end consumes the identical
/// event stream independently, so the numbers are bit-identical to a
/// serial replay (pinned by `tests/experiment.rs`).
///
/// # Errors
///
/// [`RunError::Stream`] when a streaming source's file fails to read or
/// decode mid-replay. Materialized replay is infallible.
pub(crate) fn replay(
    workload: WorkloadId,
    source: &TraceSource,
    cfg: &SimConfig,
    dschemes: &[DScheme],
    ischemes: &[IScheme],
    policy: ExecPolicy,
) -> Result<SimResult, RunError> {
    let _phase = waymem_obs::phase::enter(Phase::Replay);
    let _span = waymem_obs::span!("replay", workload = workload.name());
    let geometry = cfg.geometry;
    let d_front =
        |&s: &DScheme| replay_front(source, Section::Data, || s.name(), || s.build(geometry));
    let i_front =
        |&s: &IScheme| replay_front(source, Section::Fetch, || s.name(), || s.build(geometry));
    let fronts = dschemes.len() + ischemes.len();
    let (dfronts, ifronts) = if policy.parallel(fronts) {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = fronts.div_ceil(workers).max(1);
        std::thread::scope(|scope| -> Result<_, StreamError> {
            let dhandles: Vec<_> = dschemes
                .chunks(chunk)
                .map(|group| scope.spawn(move || group.iter().map(d_front).collect::<Result<Vec<_>, _>>()))
                .collect();
            let ihandles: Vec<_> = ischemes
                .chunks(chunk)
                .map(|group| scope.spawn(move || group.iter().map(i_front).collect::<Result<Vec<_>, _>>()))
                .collect();
            let mut dfronts = Vec::with_capacity(dschemes.len());
            for h in dhandles {
                dfronts.extend(h.join().expect("D-front replay worker panicked")?);
            }
            let mut ifronts = Vec::with_capacity(ischemes.len());
            for h in ihandles {
                ifronts.extend(h.join().expect("I-front replay worker panicked")?);
            }
            Ok((dfronts, ifronts))
        })?
    } else {
        (
            dschemes.iter().map(d_front).collect::<Result<Vec<_>, _>>()?,
            ischemes.iter().map(i_front).collect::<Result<Vec<_>, _>>()?,
        )
    };
    Ok(compose(workload, source.cycles(), cfg, &dfronts, &ifronts))
}

/// The FNV-1a64 of the kernel's generated assembly source at `scale` —
/// the staleness fingerprint stored traces of built-in kernels carry.
/// A workload-generator change alters the source text, so warm cache
/// files from before the change stop matching and are re-recorded
/// instead of silently replayed.
///
/// Memoized per `(benchmark, scale)` for the process lifetime: sweeps
/// resolve store-backed kernel experiments hundreds of times per
/// configuration, and regenerating a kernel's full source (synthetic
/// input frames included) per call just to re-derive a constant would
/// dwarf the lookup it guards. Kernel generators are pure, so the hash
/// cannot go stale within a process.
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

/// The store-less serial kernel engine: one CPU run with every front-end
/// fed per event through a [`FanoutSink`], skipping trace
/// materialization entirely. [`ExecPolicy::Serial`] (and `Auto`, when
/// parallel replay cannot pay) resolves to it for kernel workloads
/// without a store or streaming. It stays because recording the trace
/// and replaying it serially costs more: on a 2-thread host that route
/// raised `perfbench`'s `paper-cold` `setup_s` — its serial reference
/// run — from a median of 0.233 s to 0.313 s (+34 %, 8 alternating
/// pairs). It is also the reference the replay engine is cross-checked
/// against (`tests/determinism.rs`).
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
    let mut sink = FanoutSink {
        dfronts: dschemes.iter().map(|s| s.build(cfg.geometry)).collect(),
        ifronts: ischemes.iter().map(|s| s.build(cfg.geometry)).collect(),
    };
    let cycles = interpret(bench, cfg.scale, &mut sink)?;
    let workload = WorkloadId::kernel(bench, cfg.scale);
    Ok(compose(workload, cycles, cfg, &sink.dfronts, &sink.ifronts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, WorkloadSpec};
    use waymem_trace::TraceStore;

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

    /// A paper-scheme experiment over `workload`.
    fn paper_exp<'s>(workload: impl Into<WorkloadSpec>) -> Experiment<'s> {
        let (d, i) = paper_schemes();
        Experiment::new(workload).dschemes(d).ischemes(i)
    }

    #[test]
    fn dct_run_produces_paper_shape() {
        let r = paper_exp(Benchmark::Dct).run().expect("runs");
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
        let r = paper_exp(Benchmark::Compress).run().expect("runs");
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
        let store = TraceStore::new();
        let trace = record_trace(Benchmark::Dct, &cfg).expect("records");
        let plain = paper_exp(WorkloadSpec::Recorded {
            id: WorkloadId::kernel(Benchmark::Dct, 1),
            trace: Arc::new(trace),
        })
        .run()
        .expect("replays");
        let first = paper_exp(Benchmark::Dct).store(&store).run().expect("runs");
        // A different geometry replays the *same* stored trace.
        let wide = waymem_cache::Geometry::new(128, 8, 32).expect("valid");
        let second = paper_exp(Benchmark::Dct)
            .geometry(wide)
            .store(&store)
            .run()
            .expect("runs");
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
        let r = paper_exp(WorkloadSpec::Recorded { id, trace: Arc::new(trace) })
            .run()
            .expect("replays");
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
        // A custom producer seeds the store once; the builder then
        // resolves the bare external id through the store, checking the
        // id's hash against the cached copy's.
        let id = WorkloadId::External { hash: 77 };
        let store = TraceStore::new();
        let mut productions = 0;
        let trace = RecordedTrace {
            fetch_events: vec![TraceEvent::Fetch { pc: 0, kind: FetchKind::Sequential }],
            data_events: vec![TraceEvent::Load { base: 0, disp: 0, addr: 0, size: 4 }],
            cycles: 1,
        };
        for _ in 0..2 {
            store
                .get_or_record(id, 77, || {
                    productions += 1;
                    Ok::<_, ()>(trace.clone())
                })
                .expect("seeds");
            let r = paper_exp(id).store(&store).run().expect("runs");
            assert_eq!(r.workload, id);
        }
        assert_eq!(productions, 1, "second run must hit the store");

        // A copy cached under another hash is stale: the builder will not
        // replay it, and has nothing to re-produce it from.
        let other = WorkloadId::External { hash: 78 };
        store.get_or_record(other, 5, || Ok::<_, ()>(trace.clone())).expect("seeds");
        let err = paper_exp(other).store(&store).run().expect_err("stale");
        assert_eq!(err, RunError::MissingTrace { id: other });
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
        let r = Experiment::kernel(Benchmark::Dct)
            .dschemes([DScheme::Original])
            .ischemes([IScheme::Original])
            .run()
            .expect("runs");
        assert!(r.dcache_by_name("original").is_some());
        assert!(r.dcache_by_name("nope").is_none());
        assert!(r.icache_by_name("original").is_some());
    }
}
