//! JSON in and out, on the vendored `serde` value tree.

use serde::{Deserialize, Serialize, Value};

/// A whole JSON document: lets `serde_json` print and parse a bare
/// [`Value`] tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Doc(pub Value);

impl Serialize for Doc {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Doc {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Doc(v.clone()))
    }
}

impl Doc {
    /// Compact JSON text.
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("value trees always serialize")
    }

    /// Reads and parses a JSON file.
    pub fn load(path: &std::path::Path) -> Result<Doc, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number.
pub fn num(n: f64) -> Value {
    Value::Num(n)
}

/// A string.
pub fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A 64-bit digest, as hex (a JSON number cannot hold one exactly).
pub fn hex(digest: u64) -> Value {
    Value::Str(format!("{digest:016x}"))
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

/// Follows `keys` down nested objects.
pub fn at<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(v, |v, k| v.field(k))
}

/// The number at `keys`, if there is one.
pub fn num_at(v: &Value, keys: &[&str]) -> Option<f64> {
    match at(v, keys)? {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}
