//! Versioned report envelope shared by every benchmark document.
//!
//! `BENCH_sweep.json` and `BENCH_replay.json` share one **envelope**: a
//! `faas-coldstarts/session/v1` document whose leading keys are identical
//! for every kind of experiment — `schema`, `kind`, `policies`, `sources`,
//! `seeds`, `cell_count`, `cells` — followed by kind-specific payload keys
//! appended by the producer.
//!
//! The workspace's `serde` is an offline marker stub (see
//! `crates/compat/serde`), so emission is hand-rolled and byte-deterministic:
//! keys keep insertion order, floats use Rust's shortest-roundtrip `Display`
//! (stable for a given value), and non-finite floats become `null` rather
//! than producing invalid JSON. Identical reports serialise to identical
//! bytes, which is what lets CI diff benchmark artifacts across commits.

use faas_platform::SimReport;

/// Schema identifier every envelope document carries.
pub const SCHEMA: &str = "faas-coldstarts/session/v1";

/// A JSON value with deterministic, insertion-ordered serialisation.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A float (serialised via [`f64_lit`]; non-finite becomes `null`).
    F64(f64),
    /// A string (serialised via [`push_str_lit`]).
    Str(String),
    /// An array, in order.
    Array(Vec<JsonValue>),
    /// An object whose keys keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn object<K: Into<String>>(pairs: Vec<(K, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of strings.
    pub fn strings<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> JsonValue {
        JsonValue::Array(
            items
                .into_iter()
                .map(|s| JsonValue::str(s.as_ref()))
                .collect(),
        )
    }

    /// An array of integers.
    pub fn u64s(items: impl IntoIterator<Item = u64>) -> JsonValue {
        JsonValue::Array(items.into_iter().map(JsonValue::U64).collect())
    }

    /// Appends the compact (single-line) serialisation of `self` to `out`.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => out.push_str(&v.to_string()),
            JsonValue::F64(x) => out.push_str(&f64_lit(*x)),
            JsonValue::Str(s) => push_str_lit(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_str_lit(out, key);
                    out.push_str(": ");
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// One experiment document in the `faas-coldstarts/session/v1` schema.
///
/// The envelope is an ordered list of top-level keys. [`Envelope::new`] seeds
/// it with `schema` and `kind`; producers append the shared session section
/// (see [`cells_value`] and the helpers on
/// [`SessionReport`](crate::session::SessionReport)) and then any
/// kind-specific payload keys. [`Envelope::to_json`] renders the document
/// with one top-level key per line and arrays of objects one element per
/// line — readable in diffs, byte-identical for identical content.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    entries: Vec<(String, JsonValue)>,
}

impl Envelope {
    /// Starts an envelope of the given kind (e.g. `"sweep"`, `"replay"`).
    pub fn new(kind: &str) -> Self {
        Self {
            entries: vec![
                ("schema".to_string(), JsonValue::str(SCHEMA)),
                ("kind".to_string(), JsonValue::str(kind)),
            ],
        }
    }

    /// Appends a top-level key. Keys serialise in insertion order.
    pub fn push(&mut self, key: impl Into<String>, value: JsonValue) -> &mut Self {
        self.entries.push((key.into(), value));
        self
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, key: impl Into<String>, value: JsonValue) -> Self {
        self.push(key, value);
        self
    }

    /// The value stored under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Serialises the document. Byte-identical for identical envelopes.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            out.push_str("  ");
            push_str_lit(&mut out, key);
            out.push_str(": ");
            match value {
                // Arrays of objects get one element per line so cell lists
                // and config tables diff cleanly.
                JsonValue::Array(items)
                    if !items.is_empty()
                        && items.iter().all(|v| matches!(v, JsonValue::Object(_))) =>
                {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        out.push_str("    ");
                        item.write_compact(&mut out);
                        out.push_str(if j + 1 < items.len() { ",\n" } else { "\n" });
                    }
                    out.push_str("  ]");
                }
                value => value.write_compact(&mut out),
            }
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }
}

/// The per-cell metrics object shared by every envelope's `cells` array.
pub fn cell_value(
    policy: &str,
    source: &str,
    seed: u64,
    region: u16,
    report: &SimReport,
) -> JsonValue {
    JsonValue::object(vec![
        ("policy", JsonValue::str(policy)),
        ("source", JsonValue::str(source)),
        ("seed", JsonValue::U64(seed)),
        ("region", JsonValue::U64(u64::from(region))),
        ("requests", JsonValue::U64(report.requests)),
        ("cold_starts", JsonValue::U64(report.cold_starts)),
        ("cold_start_rate", JsonValue::F64(report.cold_start_rate())),
        ("prewarmed_pods", JsonValue::U64(report.prewarmed_pods)),
        (
            "p99_wait_s",
            JsonValue::F64(report.cold_start_latency.p99_s),
        ),
        ("mem_gb_s_wasted", JsonValue::F64(report.mem_gb_s_wasted)),
        ("cold_us_total", JsonValue::U64(report.cold_us_total)),
        (
            "cold_components",
            JsonValue::object(vec![
                (
                    "pod_alloc_us",
                    JsonValue::U64(report.cold_components.pod_alloc_us),
                ),
                (
                    "deploy_code_us",
                    JsonValue::U64(report.cold_components.deploy_code_us),
                ),
                (
                    "deploy_dep_us",
                    JsonValue::U64(report.cold_components.deploy_dep_us),
                ),
                (
                    "scheduling_us",
                    JsonValue::U64(report.cold_components.scheduling_us),
                ),
            ]),
        ),
        ("layer_pulls", JsonValue::U64(report.layer_pulls)),
        ("layer_cache_hits", JsonValue::U64(report.layer_cache_hits)),
    ])
}

/// The `cells` array for an iterator of cell coordinate tuples.
pub fn cells_value<'a>(
    cells: impl IntoIterator<Item = (&'a str, &'a str, u64, u16, &'a SimReport)>,
) -> JsonValue {
    JsonValue::Array(
        cells
            .into_iter()
            .map(|(policy, source, seed, region, report)| {
                cell_value(policy, source, seed, region, report)
            })
            .collect(),
    )
}

/// Appends `s` as a JSON string literal (with escaping) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a float as a JSON number, or `null` when it is not finite.
pub fn f64_lit(x: f64) -> String {
    if x.is_finite() {
        let text = format!("{x}");
        // `Display` prints integral floats without a fraction ("3"); keep a
        // trailing ".0" so the field stays float-typed for strict readers.
        if text.contains('.') || text.contains('e') || text.contains("inf") {
            text
        } else {
            format!("{text}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> String {
        let mut out = String::new();
        push_str_lit(&mut out, s);
        out
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(lit("plain"), "\"plain\"");
        assert_eq!(lit("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(lit("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_are_stable_and_always_valid_json() {
        assert_eq!(f64_lit(0.25), "0.25");
        assert_eq!(f64_lit(3.0), "3.0");
        assert_eq!(f64_lit(0.0), "0.0");
        assert_eq!(f64_lit(-1.5), "-1.5");
        assert_eq!(f64_lit(f64::NAN), "null");
        assert_eq!(f64_lit(f64::INFINITY), "null");
        // Shortest-roundtrip display is deterministic for a given value.
        assert_eq!(f64_lit(0.1 + 0.2), f64_lit(0.30000000000000004));
    }

    #[test]
    fn values_serialise_compactly_in_insertion_order() {
        let v = JsonValue::object(vec![
            ("b", JsonValue::U64(2)),
            (
                "a",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            ("c", JsonValue::F64(0.5)),
        ]);
        let mut out = String::new();
        v.write_compact(&mut out);
        assert_eq!(out, "{\"b\": 2, \"a\": [null, true], \"c\": 0.5}");
    }

    #[test]
    fn envelope_leads_with_schema_and_kind() {
        let doc = Envelope::new("sweep")
            .with("seeds", JsonValue::u64s([7]))
            .with(
                "cells",
                JsonValue::Array(vec![JsonValue::object(vec![("x", JsonValue::U64(1))])]),
            )
            .to_json();
        assert!(doc.starts_with(
            "{\n  \"schema\": \"faas-coldstarts/session/v1\",\n  \"kind\": \"sweep\",\n"
        ));
        assert!(doc.contains("  \"seeds\": [7],\n"));
        // Arrays of objects render one element per line.
        assert!(doc.contains("  \"cells\": [\n    {\"x\": 1}\n  ]\n"));
        assert!(doc.ends_with("}\n"));
        // Structural sanity: balanced braces and brackets.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                doc.chars().filter(|&c| c == open).count(),
                doc.chars().filter(|&c| c == close).count()
            );
        }
    }

    #[test]
    fn envelope_lookup_finds_pushed_keys() {
        let mut e = Envelope::new("replay");
        e.push("region", JsonValue::U64(2));
        assert_eq!(e.get("region"), Some(&JsonValue::U64(2)));
        assert_eq!(e.get("kind"), Some(&JsonValue::str("replay")));
        assert!(e.get("missing").is_none());
    }

    #[test]
    fn identical_envelopes_serialise_to_identical_bytes() {
        let make = || {
            Envelope::new("sweep")
                .with("rate", JsonValue::F64(0.1 + 0.2))
                .with("labels", JsonValue::strings(["a", "b"]))
        };
        assert_eq!(make().to_json().as_bytes(), make().to_json().as_bytes());
    }
}
