//! A tiny hand-rolled JSON writer for the `BENCH_*.json` exports.
//!
//! The build environment is offline, so `serde_json` is unavailable. The
//! export binaries only need to *emit* flat records — no parsing, no
//! borrowing, no streaming — so a ~100-line value tree with a `Display`
//! impl covers everything and keeps the machine-readable outputs
//! dependency-free.

use std::fmt;

/// A JSON value. Build one with the constructors/`From` impls and print
/// it with `{}` (compact) — output is valid UTF-8 JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters).
    UInt(u64),
    /// A finite float (powers, seconds, ratios).
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Object(Vec<(String, Json)>),
    /// Pre-rendered JSON spliced in verbatim — the bridge for values
    /// produced by another writer (the `waymem_obs` snapshot). The
    /// caller vouches that the string is valid JSON.
    Raw(String),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn object<K: Into<String>>(pairs: Vec<(K, Json)>) -> Self {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(u64::from(v))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` keeps a decimal point / exponent, so the value
                    // round-trips as a float rather than collapsing to an int.
                    write!(f, "{x:?}")
                } else {
                    f.write_str("null") // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
            Json::Raw(s) => f.write_str(s),
        }
    }
}

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
    Json::Raw(waymem_obs::snapshot::take().to_json())
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
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::from(2.0).to_string(), "2.0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\n").to_string(), r#""a\"b\\c\n""#);
        assert_eq!(Json::from("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn raw_splices_verbatim_and_metrics_validate() {
        let v = Json::object(vec![("m", Json::Raw("{\"a\":1}".to_owned()))]);
        assert_eq!(v.to_string(), r#"{"m":{"a":1}}"#);
        let rendered = metrics_json().to_string();
        let parsed = waymem_obs::chrome::parse(&rendered).expect("metrics render as JSON");
        waymem_obs::snapshot::validate_metrics(&parsed).expect("metrics validate");
    }

    #[test]
    fn containers_preserve_order() {
        let v = Json::object(vec![
            ("b", Json::from(1u64)),
            ("a", Json::from(vec!["x", "y"])),
        ]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":["x","y"]}"#);
    }
}
