//! Report helpers for the `BENCH_*.json` exports: the JSON objects
//! more than one bench binary embeds, built on the workspace's one
//! value type, [`waymem_obs::json::Json`].

use waymem_obs::json::Json;

/// The `trace_store` object embedded in `BENCH_headline.json` and
/// `BENCH_results.json`: the store's hit/miss/bytes accounting plus the
/// codec's compression ratio against `size_of::<TraceEvent>()` events.
#[must_use]
pub fn store_stats_json(stats: &waymem_trace::StoreStats) -> Json {
    Json::object(vec![
        ("lookups", Json::from(stats.lookups)),
        ("hits", Json::from(stats.hits)),
        ("disk_hits", Json::from(stats.disk_hits)),
        ("stream_opens", Json::from(stats.stream_opens)),
        ("records", Json::from(stats.records)),
        ("hit_rate", Json::from(stats.hit_rate())),
        ("stale", Json::from(stats.stale)),
        ("raw_bytes", Json::from(stats.raw_bytes)),
        ("encoded_bytes", Json::from(stats.encoded_bytes)),
        ("compression_ratio", Json::from(stats.compression_ratio())),
        ("files_saved", Json::from(stats.files_saved)),
        ("files_loaded", Json::from(stats.files_loaded)),
        ("files_evicted", Json::from(stats.files_evicted)),
        ("bytes_evicted", Json::from(stats.bytes_evicted)),
        ("quarantined", Json::from(stats.quarantined)),
        ("recovered", Json::from(stats.recovered)),
        ("io_retries", Json::from(stats.io_retries)),
    ])
}

/// The `phases` object for `BENCH_headline.json` (schema v5): exclusive
/// wall-clock seconds the process spent in each engine phase — resolve
/// (store lookup / hashing), record (interpret / parse / generate), io
/// (store reads and writes), replay (front-end evaluation) — read from
/// the [`waymem_obs::phase`] accumulators.
#[must_use]
pub fn phases_json() -> Json {
    Json::object(
        waymem_obs::phase::snapshot()
            .into_iter()
            .map(|(name, seconds)| (name, Json::from(seconds)))
            .collect(),
    )
}

/// The `metrics` object for the `BENCH_*.json` exports: the whole
/// observability registry — counters, gauges, histogram percentiles —
/// plus the phase accounting, frozen now via
/// [`waymem_obs::snapshot::take`].
#[must_use]
pub fn metrics_json() -> Json {
    waymem_obs::snapshot::take().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_report_all_four_keys() {
        let rendered = phases_json().to_string();
        for key in ["resolve", "record", "io", "replay"] {
            assert!(rendered.contains(&format!("\"{key}\":")), "missing {key} in {rendered}");
        }
    }

    #[test]
    fn store_stats_serialize_with_stable_keys() {
        let rendered = store_stats_json(&waymem_trace::StoreStats::default()).to_string();
        for key in [
            "lookups",
            "records",
            "stream_opens",
            "hit_rate",
            "stale",
            "compression_ratio",
            "encoded_bytes",
            "files_evicted",
            "bytes_evicted",
            "quarantined",
            "recovered",
            "io_retries",
        ] {
            assert!(rendered.contains(&format!("\"{key}\":")), "missing {key} in {rendered}");
        }
    }

    #[test]
    fn metrics_render_and_validate() {
        let rendered = metrics_json().to_string();
        let parsed = waymem_obs::json::parse(&rendered).expect("metrics render as JSON");
        waymem_obs::snapshot::validate_metrics(&parsed).expect("metrics validate");
    }
}
