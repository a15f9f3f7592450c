//! `perfbench` — the waymem benchmark.
//!
//! ```text
//! usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--corrupt-reference]
//! ```
//!
//! Runs one workload (`paper-cold`, `full-replay`, `stream-store` or
//! `serve-mixed`) against the crates' public API. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics of
//! a traced run. Every pass's simulated output is checked against a
//! reference computed in set-up; `--corrupt-reference` perturbs that
//! reference so the check must fail (the benchmark's negative
//! self-test). The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; the
//! exit code is non-zero unless every operation succeeded. See
//! `README.md` beside this crate for the metrics and workloads.

mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use perfbench::report::Report;
use perfbench::stats;

use crate::workloads::{Kind, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The fewest measured passes a run takes, however long they last, so
/// the tail figure ([`stats::tail`]) leaves ten passes beyond it and
/// sits above the median.
const MIN_PASSES: usize = 21;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub kind: Kind,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Perturb the set-up reference (negative self-test).
    pub corrupt_reference: bool,
}

fn usage(problem: &str) -> String {
    format!(
        "{problem}\nusage: perfbench --workload <paper-cold|full-replay|stream-store|serve-mixed> \
         --seed <n> --seconds <s> --trace <0|1> [--corrupt-reference]"
    )
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut corrupt_reference = false;
        while let Some(flag) = args.next() {
            if flag == "--corrupt-reference" {
                corrupt_reference = true;
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| usage(&format!("{flag} needs a value")))?;
            let bad = || usage(&format!("bad value for {flag}: {value}"));
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    });
                }
                _ => return Err(usage(&format!("unknown flag {flag}"))),
            }
        }
        Ok(Args {
            kind: kind.ok_or_else(|| usage("--workload is required"))?,
            seed: seed.ok_or_else(|| usage("--seed is required"))?,
            seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
            trace: trace.ok_or_else(|| usage("--trace is required"))?,
            corrupt_reference,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if let Err(message) = run(&args, &mut report) {
        report.fail(message);
    }
    eprint!("{}", report.table());
    for note in report.notes().iter().take(20) {
        eprintln!("perfbench: {note}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let work_dir = workloads::WorkDir::create()?;
    if args.trace {
        let w = Workload::setup(args, &work_dir, report)?;
        return traced::run(w, args, &work_dir, report);
    }
    // Set up several times and keep the last fixture; each earlier one
    // is dropped before the next is built.
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let started = Instant::now();
        fixture = Some(Workload::setup(args, &work_dir, report)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let mut w = fixture.expect("SETUP_REPS > 0");
    let passes = measure(args.seconds, report, |r| w.pass(r));
    end_to_end(&w, stats::median(&times), &passes, report);
    Ok(())
}

/// The timed seconds and the peak resident set (MiB) of each pass.
#[derive(Debug, Default)]
pub struct Passes {
    /// Timed seconds per pass.
    pub secs: Vec<f64>,
    /// Peak resident set per pass.
    pub rss_mb: Vec<f64>,
}

/// Runs passes until `seconds` of wall-clock have gone by and at least
/// [`MIN_PASSES`] have run, or until an operation fails.
pub fn measure(
    seconds: f64,
    report: &mut Report,
    mut pass: impl FnMut(&mut Report) -> f64,
) -> Passes {
    let started = Instant::now();
    let mut passes = Passes::default();
    while passes.secs.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        passes.secs.push(pass(report));
        passes.rss_mb.push(peak_rss_mb());
        if report.failed() > 0 {
            break;
        }
    }
    passes
}

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("pass_s.p50", "s"),
    ("pass_s.tail", "s"),
    ("front_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("d_saving_pct", "%"),
    ("i_saving_pct", "%"),
    ("req_latency_ms.p50", "ms"),
    ("req_latency_ms.p99", "ms"),
    ("req_per_s", "1/s"),
];

/// The end-to-end metrics of an untraced run.
fn end_to_end(w: &Workload, setup_s: f64, measured: &Passes, report: &mut Report) {
    let passes = &measured.secs;
    let Some((tail, tail_pct)) = stats::tail(passes) else {
        report.fail(format!(
            "only {} passes ran; the tail needs eleven",
            passes.len()
        ));
        return;
    };
    report.note(format!(
        "{} passes; pass_s.tail is the {tail_pct:.1}th percentile",
        passes.len()
    ));
    let (d, i) = w.savings_pct();
    let (latencies_s, total_s) = w.requests(passes);
    let failed = report.failed() as f64 / report.attempted().max(1) as f64;
    let values = [
        setup_s,
        stats::median(passes),
        tail,
        w.front_events_per_s(passes),
        stats::median(&measured.rss_mb),
        1.0 - failed,
        d,
        i,
        stats::percentile(&latencies_s, 0.50) * 1e3,
        stats::percentile(&latencies_s, 0.99) * 1e3,
        latencies_s.len() as f64 / total_s,
    ];
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        report.metric(name, value, unit);
    }
}

/// Resets the process's peak resident set to its current one, so the
/// next [`peak_rss_mb`] reads the peak since now. Where the kernel does
/// not allow it, the peak stays the process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this binary prints.
    #[test]
    fn benchmark_json_lists_every_metric_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"name\"").count();
        let workloads = json.matches("\"why\"").count();
        let printed: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .chain(traced::per_layer_names())
            .collect();
        assert_eq!(listed, workloads + printed.len());
        for (name, unit) in printed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn args_need_all_four_flags() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let args = parse("--workload serve-mixed --seed 7 --seconds 2.5 --trace 1")
            .expect("complete command line");
        assert_eq!(
            (args.kind, args.seed, args.seconds, args.trace),
            (Kind::ServeMixed, 7, 2.5, true)
        );
        assert!(!args.corrupt_reference);
        assert!(parse("--workload serve-mixed --seed 7 --seconds 2.5").is_err());
        assert!(parse("--workload nope --seed 7 --seconds 2.5 --trace 0").is_err());
        assert!(parse("--workload paper-cold --seed 7 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload paper-cold --seed 7 --seconds 1 --trace 2").is_err());
    }
}
