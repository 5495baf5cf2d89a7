//! A minimal JSON emitter.
//!
//! The workspace builds offline with no JSON serializer, so the CLI builds its
//! JSON reports by hand. Only the pieces the reports need: objects, arrays, strings, numbers
//! and booleans, always with valid escaping and non-finite floats mapped to `null`.

use std::fmt::Write as _;

/// A JSON value under construction, stored as its serialized text.
#[derive(Clone, Debug)]
pub struct Json(String);

impl Json {
    /// A JSON string.
    pub fn str(s: &str) -> Json {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
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
        out.push('"');
        Json(out)
    }

    /// A JSON integer.
    pub fn int(i: i64) -> Json {
        Json(i.to_string())
    }

    /// A JSON unsigned integer.
    pub fn uint(u: u64) -> Json {
        Json(u.to_string())
    }

    /// A JSON float; NaN and infinities become `null`.
    pub fn float(x: f64) -> Json {
        if x.is_finite() {
            Json(format!("{x}"))
        } else {
            Json("null".to_string())
        }
    }

    /// A JSON boolean.
    pub fn bool(b: bool) -> Json {
        Json(b.to_string())
    }

    /// A JSON array from already-built values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        let body: Vec<String> = items.into_iter().map(|j| j.0).collect();
        Json(format!("[{}]", body.join(",")))
    }

    /// A JSON object from key/value pairs (keys escaped).
    pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let body: Vec<String> = pairs
            .into_iter()
            .map(|(k, v)| format!("{}:{}", Json::str(k).0, v.0))
            .collect();
        Json(format!("{{{}}}", body.join(",")))
    }

    /// The serialized text.
    pub fn into_string(self) -> String {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_documents() {
        let doc = Json::object([
            ("name", Json::str("a \"b\"\n")),
            ("n", Json::int(-3)),
            ("xs", Json::array([Json::float(1.5), Json::bool(true)])),
            ("nan", Json::float(f64::NAN)),
        ]);
        assert_eq!(
            doc.into_string(),
            r#"{"name":"a \"b\"\n","n":-3,"xs":[1.5,true],"nan":null}"#
        );
    }
}
