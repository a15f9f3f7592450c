//! # waymem-bench — regeneration harness for every table and figure
//!
//! One binary per published artifact:
//!
//! | binary     | regenerates                                        |
//! |------------|----------------------------------------------------|
//! | `table1`   | MAB area overhead (mm², % of cache)                |
//! | `table2`   | added-circuit delay (ns) vs the 2.5 ns cycle       |
//! | `table3`   | MAB power (mW), active and clock-gated             |
//! | `fig4`     | tag / way accesses per D-cache access              |
//! | `fig5`     | D-cache power (data / tag / MAB split)             |
//! | `fig6`     | tag / way accesses per I-cache access (MAB sweep)  |
//! | `fig7`     | I-cache power                                      |
//! | `fig8`     | total I+D power, ours vs original+\[4\]            |
//! | `headline` | the abstract's −40 % / −50 % / −30 % claims        |
//! | `ablation` | way-predict / two-phase / line-buffer hybrid sweep |
//! | `related_work` | Ma et al. link memoization \[11\] vs the MAB    |
//! | `consistency` | §3.3 LRU-consistency audit (unsound-hit counts)    |
//! | `assoc_sweep` | MAB payoff vs associativity (1–16 way) + scaled stress |
//! | `export`   | full results as CSV + `BENCH_results.json`             |
//! | `ingest`   | any external/synthetic trace through every scheme      |
//!
//! Run any of them with `cargo run --release -p waymem-bench --bin <name>`.
//! Every binary drives the same [`Experiment`](waymem_sim::Experiment) /
//! [`Suite`](waymem_sim::Suite) builder the library users get — e.g. the
//! full evaluation suite behind `fig4`:
//!
//! ```no_run
//! use waymem_bench::fig4_dschemes;
//! use waymem_sim::Suite;
//!
//! # fn main() -> Result<(), waymem_sim::RunError> {
//! let results = Suite::kernels().dschemes(fig4_dschemes()).run()?;
//! assert_eq!(results.len(), 7);
//! # Ok(())
//! # }
//! ```
//!
//! The library part of this crate re-exports the scheme presets
//! ([`fig4_dschemes`] / [`fig6_ischemes`] / [`full_dschemes`] /
//! [`full_ischemes`], now defined in `waymem_sim::presets`) plus the
//! env-wired [`store_from_env`], holds the [`json`] report helpers the
//! `BENCH_*.json` exports share (on [`waymem_obs::json::Json`]), and the
//! perf-[`diff`] engine the `bench_diff` regression gate runs on.

use waymem_sim::TraceStore;

pub mod diff;
pub mod json;

pub use waymem_sim::presets::{fig4_dschemes, fig6_ischemes, full_dschemes, full_ischemes};

/// The per-process [`TraceStore`] the bench binaries share, wired from
/// the environment ([`TraceStore::from_env`]): `WAYMEM_TRACE_CACHE=<dir>`
/// enables persistence, `WAYMEM_TRACE_CACHE_MAX_BYTES=<n>` caps the
/// directory with oldest-mtime eviction. Unset variables mean a
/// memory-only store / no cap.
#[must_use]
pub fn store_from_env() -> TraceStore {
    TraceStore::from_env()
}

/// Geometric-mean helper for "on average" claims.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean needs positive values");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_equal_values() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_mixed() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn geometric_mean_empty_panics() {
        let _ = geometric_mean(&[]);
    }

    #[test]
    fn scheme_lists_have_expected_sizes() {
        assert_eq!(fig4_dschemes().len(), 3);
        assert_eq!(fig6_ischemes().len(), 4);
    }
}
