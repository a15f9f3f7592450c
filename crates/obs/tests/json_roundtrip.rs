//! Printing a [`Json`] value and parsing the text gives the value back,
//! over nested arrays and objects whose strings carry quotes,
//! backslashes, control characters and non-ASCII, whose integers reach
//! `u64::MAX` and whose floats take any finite value.

use proptest::prelude::*;
use proptest::strategy::Candidates;
use proptest::TestRng;
use waymem_obs::json::{parse, Json};

/// Characters a generated string is drawn from, besides arbitrary
/// scalar values: everything the escaper treats specially, plus
/// multi-byte UTF-8 of every length.
const SPECIAL: [char; 14] =
    ['"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', '/', 'a', 'é', '€', '漢', '😀'];

fn string(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| {
            if rng.below(3) == 0 {
                char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}')
            } else {
                SPECIAL[rng.below(SPECIAL.len() as u128) as usize]
            }
        })
        .collect()
}

fn uint(rng: &mut TestRng) -> u64 {
    match rng.below(4) {
        0 => [0, 1, 42, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1][rng.below(7) as usize],
        1 => rng.below(1000) as u64,
        _ => rng.next_u64() >> rng.below(64),
    }
}

/// A finite float: raw bit patterns (every exponent, subnormals and
/// negative zero included) or short decimals scaled by a power of ten.
fn float(rng: &mut TestRng) -> f64 {
    loop {
        let x = if rng.below(2) == 0 {
            f64::from_bits(rng.next_u64())
        } else {
            let mantissa = rng.below(20_001) as f64 - 10_000.0;
            mantissa * 10f64.powi(rng.below(41) as i32 - 20)
        };
        if x.is_finite() {
            return x;
        }
    }
}

/// Any JSON value nested at most `depth` containers deep.
#[derive(Debug, Clone, Copy)]
struct AnyJson {
    depth: u32,
}

impl AnyJson {
    fn draw(&self, rng: &mut TestRng, depth: u32) -> Json {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::UInt(uint(rng)),
            3 | 4 => Json::Num(float(rng)),
            5 => Json::Str(string(rng)),
            6 => Json::Array((0..rng.below(5)).map(|_| self.draw(rng, depth - 1)).collect()),
            _ => Json::Object(
                (0..rng.below(5)).map(|_| (string(rng), self.draw(rng, depth - 1))).collect(),
            ),
        }
    }
}

impl Strategy for AnyJson {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        self.draw(rng, self.depth)
    }

    /// A container shrinks to each of its children, then to itself with
    /// one child removed.
    fn shrink<'a>(&'a self, value: &'a Json) -> Candidates<'a, Json> {
        match value {
            Json::Array(items) => Box::new(items.iter().cloned().chain((0..items.len()).map(
                |i| {
                    let mut fewer = items.clone();
                    fewer.remove(i);
                    Json::Array(fewer)
                },
            ))),
            Json::Object(fields) => Box::new(fields.iter().map(|(_, v)| v.clone()).chain(
                (0..fields.len()).map(|i| {
                    let mut fewer = fields.clone();
                    fewer.remove(i);
                    Json::Object(fewer)
                }),
            )),
            _ => Box::new(std::iter::empty()),
        }
    }
}

/// Structural equality with every number compared through
/// [`Json::as_num`].
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::UInt(_) | Json::Num(_), Json::UInt(_) | Json::Num(_)) => a.as_num() == b.as_num(),
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((ka, a), (kb, b))| ka == kb && same(a, b))
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printing_then_parsing_gives_the_value_back(value in AnyJson { depth: 3 }) {
        let text = value.to_string();
        let parsed = parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert!(same(&parsed, &value), "{text} parsed as {parsed:?}");
        prop_assert_eq!(parsed.to_string(), text);
    }
}

#[test]
fn integers_stay_integers_and_floats_stay_floats() {
    assert_eq!(parse("42"), Ok(Json::UInt(42)));
    assert_eq!(parse("2.0"), Ok(Json::Num(2.0)));
    assert_eq!(parse("2.0").unwrap().to_string(), "2.0");
    assert_eq!(parse("42").unwrap().to_string(), "42");
    assert_eq!(parse(&u64::MAX.to_string()), Ok(Json::UInt(u64::MAX)));
    assert_eq!(parse("-3"), Ok(Json::Num(-3.0)));
    assert_eq!(parse("1e3"), Ok(Json::Num(1000.0)));
}

#[test]
fn non_finite_floats_print_as_null() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let text = Json::Array(vec![Json::Num(x)]).to_string();
        assert_eq!(text, "[null]");
        assert_eq!(parse(&text), Ok(Json::Array(vec![Json::Null])));
    }
}
