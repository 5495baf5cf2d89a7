//! Runtime values manipulated by the IR interpreter.
//!
//! The IR is dynamically but simply typed: every virtual register and memory word holds either
//! a 64-bit integer (also used for addresses and booleans) or a 64-bit float. This mirrors the
//! word-oriented view the HELIX paper takes of data transferred between cores (`Bytes_i /
//! CPU_word` in Equation 1).
use std::fmt;

/// A dynamically typed 64-bit value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer. Addresses and booleans (0/1) are represented as integers.
    Int(i64),
    /// A 64-bit IEEE-754 float.
    Float(f64),
}

impl Value {
    /// The canonical `true` value.
    pub const TRUE: Value = Value::Int(1);
    /// The canonical `false` value.
    pub const FALSE: Value = Value::Int(0);

    /// Returns the integer payload, converting floats by truncation.
    #[inline]
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
        }
    }

    /// Returns the float payload, converting integers exactly where possible.
    #[inline]
    pub fn as_float(self) -> f64 {
        match self {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
        }
    }

    /// Interprets the value as a boolean: any non-zero payload is `true`.
    #[inline]
    pub fn as_bool(self) -> bool {
        match self {
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
        }
    }

    /// Returns `true` when the value is a float.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Value::Float(_))
    }

    /// Returns a boolean value encoded as an integer.
    #[inline]
    pub fn from_bool(b: bool) -> Value {
        if b {
            Value::TRUE
        } else {
            Value::FALSE
        }
    }

    /// Reinterprets the value as raw bits (used when storing to word memory).
    pub fn to_bits(self) -> u64 {
        match self {
            Value::Int(i) => i as u64,
            Value::Float(f) => f.to_bits(),
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::from_bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64).as_int(), 5);
        assert_eq!(Value::from(2.5f64).as_float(), 2.5);
        assert_eq!(Value::from(2.9f64).as_int(), 2);
        assert_eq!(Value::from(3i64).as_float(), 3.0);
        assert_eq!(Value::from(true), Value::TRUE);
        assert_eq!(Value::from(false), Value::FALSE);
    }

    #[test]
    fn booleans() {
        assert!(Value::Int(7).as_bool());
        assert!(!Value::Int(0).as_bool());
        assert!(Value::Float(0.1).as_bool());
        assert!(!Value::Float(0.0).as_bool());
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Value::default(), Value::Int(0));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
    }

    #[test]
    fn bits_roundtrip_for_floats() {
        let v = Value::Float(3.25);
        assert_eq!(f64::from_bits(v.to_bits()), 3.25);
    }
}
