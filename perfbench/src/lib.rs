//! `perfbench` — the waymem benchmark. The binary (`src/main.rs`) runs
//! one workload per invocation; this library holds the parts its tests
//! pin: the statistics and the result-line format.

pub mod report;
pub mod stats;
