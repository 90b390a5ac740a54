//! Shared writer for the `BENCH_*.json` reports the probe benches leave
//! at the repository root.
//!
//! The workspace deliberately carries no serde; this module is the one
//! place the hand-rolled JSON formatting lives, so the probe benches
//! (`benches/faults.rs`, `benches/recovery.rs`, `benches/storage.rs`)
//! stay in lock-step on layout instead of each keeping its own copy of
//! the `format!` + `fs::write` boilerplate.

use std::fs;
use std::path::{Path, PathBuf};

/// A JSON value, restricted to what the bench reports need.
#[derive(Clone, Debug)]
pub enum JsonValue {
    /// Unsigned integer.
    UInt(u64),
    /// Float rendered with a fixed number of decimals.
    Float(f64, usize),
    /// Plain string (reports are ASCII; only `"` and `\` are escaped).
    Str(String),
    /// Nested object.
    Obj(JsonObject),
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v.into())
    }
}
impl From<u16> for JsonValue {
    fn from(v: u16) -> Self {
        JsonValue::UInt(v.into())
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> Self {
        JsonValue::Obj(v)
    }
}

/// An insertion-ordered JSON object; keys render in the order
/// [`JsonObject::field`] added them.
#[derive(Clone, Debug, Default)]
pub struct JsonObject(Vec<(String, JsonValue)>);

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `key: value` (builder style).
    pub fn field(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> Self {
        self.0.push((key.into(), value.into()));
        self
    }

    /// Render as pretty-printed JSON (two-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        if self.0.is_empty() {
            out.push_str("{}");
            return;
        }
        let pad = "  ".repeat(depth + 1);
        out.push_str("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str(&pad);
            out.push('"');
            push_escaped(out, key);
            out.push_str("\": ");
            match value {
                JsonValue::UInt(v) => out.push_str(&v.to_string()),
                JsonValue::Float(v, decimals) => {
                    out.push_str(&format!("{v:.prec$}", prec = decimals))
                }
                JsonValue::Str(s) => {
                    out.push('"');
                    push_escaped(out, s);
                    out.push('"');
                }
                JsonValue::Obj(obj) => obj.render_into(out, depth + 1),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(depth));
        out.push('}');
    }
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
}

/// Write `report` to `BENCH_<name>.json` at the repository root (resolved
/// relative to this crate, so it works from any working directory) and
/// return the path. Panics on I/O failure — a bench that cannot record
/// its numbers should fail loudly.
pub fn write_bench_report(name: &str, report: &JsonObject) -> PathBuf {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    fs::write(&path, report.render()).unwrap_or_else(|e| panic!("write BENCH_{name}.json: {e}"));
    println!("wrote {}", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_with_stable_layout() {
        let obj = JsonObject::new()
            .field("bench", "demo")
            .field("n", 4u64)
            .field("rate", JsonValue::Float(1234.5678, 0))
            .field("speedup", JsonValue::Float(1.25, 3))
            .field(
                "inner",
                JsonObject::new()
                    .field("committed", 7u64)
                    .field("empty", JsonObject::new()),
            );
        let expected = "{\n  \"bench\": \"demo\",\n  \"n\": 4,\n  \"rate\": 1235,\n  \"speedup\": 1.250,\n  \"inner\": {\n    \"committed\": 7,\n    \"empty\": {}\n  }\n}\n";
        assert_eq!(obj.render(), expected);
    }

    #[test]
    fn escapes_quotes_and_backslashes() {
        let obj = JsonObject::new().field("k", "a \"b\" \\ c");
        assert!(obj.render().contains(r#""k": "a \"b\" \\ c""#));
    }
}
