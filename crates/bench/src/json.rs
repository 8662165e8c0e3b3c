//! Minimal hand-rolled JSON emission shared by the bench binaries.
//!
//! Every `repro_*` binary writes its `BENCH_*.json` through this module
//! instead of carrying its own `format!` strings: [`Obj`] builds one row
//! as an insertion-ordered object, [`array()`] renders the row list as the
//! one-row-per-line array document the plotting scripts and the CI
//! `json.load` check consume. The numeric formatting mirrors what the
//! binaries emitted before centralisation — integers and booleans
//! verbatim, floats at an explicit fixed precision — so the files stay
//! diffable across revisions.

use std::fmt::{self, Write as _};

/// Escapes `s` for a JSON string literal (without the surrounding
/// quotes): `"` and `\` are backslash-escaped, control characters become
/// `\n`/`\r`/`\t` or `\u00XX`.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An insertion-ordered JSON object builder.
///
/// Fields render in the order they are added. String values go through
/// `escape`; numeric, boolean and pre-encoded values are appended via
/// their `Display` form (see [`Obj::field`]).
#[derive(Debug, Default, Clone)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{}\": ", escape(key));
    }

    /// Adds an escaped, quoted string field.
    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        let _ = write!(self.body, "\"{}\"", escape(value));
        self
    }

    /// Adds a quoted string field, or `null` when `value` is `None`.
    pub fn opt_str(self, key: &str, value: Option<&str>) -> Obj {
        match value {
            Some(v) => self.str(key, v),
            None => self.field(key, "null"),
        }
    }

    /// Adds a field rendered through `Display`, verbatim: integers,
    /// booleans, or an already-encoded JSON value such as a nested
    /// [`Obj::build`] result. Never pass an unescaped string here — use
    /// [`Obj::str`] for strings and [`Obj::fixed`] for floats.
    pub fn field(mut self, key: &str, value: impl fmt::Display) -> Obj {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Adds a float at a fixed `decimals` precision (`decimals == 0`
    /// renders a bare integer literal). Non-finite values — which JSON
    /// cannot represent — render as `null`.
    pub fn fixed(mut self, key: &str, value: f64, decimals: usize) -> Obj {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value:.decimals$}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Renders the object: `{"a": 1, "b": "two"}`.
    pub fn build(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Renders pre-built rows (each an [`Obj::build`] result) as the bench
/// files' array document: one row per line, two-space indented, with a
/// trailing newline.
pub fn array(rows: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = rows.into_iter().map(|row| format!("  {row}")).collect();
    if body.is_empty() {
        return "[]\n".into();
    }
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nfeed\ttab"), "line\\nfeed\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn object_fields_render_in_insertion_order() {
        let row = Obj::new()
            .str("workload", "chain_sum-8000")
            .field("cores", 64)
            .field("headline", true)
            .build();
        assert_eq!(
            row,
            "{\"workload\": \"chain_sum-8000\", \"cores\": 64, \"headline\": true}"
        );
    }

    #[test]
    fn fixed_controls_precision_and_rejects_non_finite() {
        let row = Obj::new()
            .fixed("ms", 1.23456, 3)
            .fixed("count", 12345.6, 0)
            .fixed("bad", f64::NAN, 2)
            .build();
        assert_eq!(row, "{\"ms\": 1.235, \"count\": 12346, \"bad\": null}");
    }

    #[test]
    fn opt_str_emits_null_for_none() {
        let row = Obj::new()
            .opt_str("fallback", None)
            .opt_str("reason", Some("drain"))
            .build();
        assert_eq!(row, "{\"fallback\": null, \"reason\": \"drain\"}");
    }

    #[test]
    fn nested_objects_compose_through_field() {
        let inner = Obj::new().field("64", 120).field("256", 95).build();
        let row = Obj::new().field("cycles", inner).build();
        assert_eq!(row, "{\"cycles\": {\"64\": 120, \"256\": 95}}");
    }

    #[test]
    fn array_matches_the_bench_file_shape() {
        let doc = array([
            Obj::new().field("a", 1).build(),
            Obj::new().field("b", 2).build(),
        ]);
        assert_eq!(doc, "[\n  {\"a\": 1},\n  {\"b\": 2}\n]\n");
        assert_eq!(array(Vec::<String>::new()), "[]\n");
    }
}
