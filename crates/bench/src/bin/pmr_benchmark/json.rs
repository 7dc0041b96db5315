//! Small constructors and readers over `serde_json::Value`, whose objects keep
//! insertion order, so every line the benchmark prints is byte-stable.

use serde_json::{Number, Value};

/// An object with fields in the given order.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// A string value.
pub fn string(s: &str) -> Value {
    Value::String(s.to_owned())
}

/// An unsigned integer value.
pub fn uint(n: u64) -> Value {
    Value::Number(Number::PosInt(n))
}

/// A float value; non-finite values become `null`.
pub fn float(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

/// Any JSON number as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Number(Number::PosInt(n)) => Some(*n as f64),
        Value::Number(Number::NegInt(n)) => Some(*n as f64),
        Value::Number(Number::Float(x)) => Some(*x),
        _ => None,
    }
}

/// A non-negative JSON integer.
pub fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(Number::PosInt(n)) => Some(*n),
        _ => None,
    }
}

/// Parse JSON text into a value tree.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}
