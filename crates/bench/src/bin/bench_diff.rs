//! The perf-regression gate: compares the current bench report against
//! a baseline and exits non-zero when a key figure degraded past the
//! tolerance.
//!
//! ```text
//! cargo run --release -p waymem-bench --bin bench_diff -- --baseline FILE [OPTIONS]
//!
//! --baseline FILE   baseline report (a committed BENCH_headline.json,
//!                   say); required
//! --current FILE    report to judge (default BENCH_headline.json)
//! --tolerance PCT   allowed relative degradation before failing
//!                   (default 25)
//! ```
//!
//! Exit status: 0 = within tolerance, 1 = regression detected, 2 = bad
//! usage (a missing `--baseline` included) or unreadable input.
//!
//! The deltas come from [`waymem_bench::diff`]: higher-better figures
//! (warm/cold speedup, events/sec, compression ratio, total saving)
//! fail when they fall below `baseline × (1 − tolerance)`; per-phase
//! wall-clocks fail when they exceed `baseline × (1 + tolerance)` *and*
//! grow past an absolute floor, so micro-phases can jitter freely.

use std::path::PathBuf;
use std::process::ExitCode;

use waymem_bench::diff::{compare, Delta};
use waymem_obs::json::{parse, Json};

struct Options {
    current: PathBuf,
    baseline: PathBuf,
    tolerance_pct: f64,
}

fn usage() -> ! {
    eprintln!("usage: bench_diff --baseline FILE [--current FILE] [--tolerance PCT]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut current = PathBuf::from("BENCH_headline.json");
    let mut baseline = None;
    let mut tolerance_pct = 25.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--current" => match args.next() {
                Some(p) => current = PathBuf::from(p),
                None => usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tolerance_pct = t,
                None => usage(),
            },
            _ => usage(),
        }
    }
    let Some(baseline) = baseline else { usage() };
    Options { current, baseline, tolerance_pct }
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_delta(d: &Delta) {
    let direction = if d.lower_better { "lower-better" } else { "higher-better" };
    let flag = if d.regressed { "  <-- REGRESSION" } else { "" };
    println!(
        "  {:<28} {:>14.4} -> {:>14.4}  ({:+.1}%, {direction}){flag}",
        d.metric, d.baseline, d.current, d.change_pct
    );
}

fn run(opts: &Options) -> Result<ExitCode, String> {
    let current = read_json(&opts.current)?;
    let baseline = read_json(&opts.baseline)?;
    let report = compare(&current, &baseline, opts.tolerance_pct)?;
    println!(
        "bench_diff: {} vs {} (tolerance {:.0}%)",
        opts.current.display(),
        opts.baseline.display(),
        report.tolerance_pct
    );
    for delta in &report.deltas {
        print_delta(delta);
    }
    let regressions = report.regressions();
    if regressions.is_empty() {
        println!("bench_diff: {} metrics within tolerance — ok", report.deltas.len());
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "bench_diff: {} of {} metrics regressed past {:.0}%",
            regressions.len(),
            report.deltas.len(),
            report.tolerance_pct
        );
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    match run(&opts) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_diff: {message}");
            ExitCode::from(2)
        }
    }
}
