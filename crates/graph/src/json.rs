//! The workspace's one JSON value, with its parser and writer.
//!
//! Every JSON document the repository reads or writes goes through
//! [`JsonValue`]: the CI baseline artifacts and their gates, telemetry
//! exports and benchmark records.  It is hand-rolled because the build
//! environment vendors no serde.
//!
//! A number keeps its literal text, so [`JsonValue::as_u64`] is exact over
//! all of `u64` while [`JsonValue::as_f64`] reads the same text as a float.  Strings carry no
//! escape sequences: the parser rejects a backslash and the writer refuses a
//! string that would need one.  No document the workspace reads uses `true`,
//! `false` or `null`, so the value has no variant for them.

use std::fmt;

/// A parsed or constructed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A finite number.
    Number(Number),
    /// A string without escape sequences.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object, fields in document order.
    Object(Vec<(String, JsonValue)>),
}

/// A finite JSON number, kept as its literal text.
#[derive(Debug, Clone, PartialEq)]
pub struct Number(String);

impl JsonValue {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem: trailing input, a
    /// trailing comma, a string escape, a malformed or non-finite number.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { text, at: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.at != text.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(value)
    }

    /// An object with `fields` in the given order.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` on an object.
    ///
    /// # Errors
    ///
    /// Fails on a missing key or a non-object.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field \"{key}\""))
    }

    /// Looks up `key` on an object: `None` on a missing key or a non-object.
    pub fn field_opt(&self, key: &str) -> Option<&JsonValue> {
        self.field(key).ok()
    }

    /// The value's fields, in document order.
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_object(&self) -> Result<&[(String, JsonValue)], String> {
        match self {
            JsonValue::Object(fields) => Ok(fields),
            other => Err(other.expected("an object")),
        }
    }

    /// The value as an array.
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_array(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(other.expected("an array")),
        }
    }

    /// The value as an owned string.
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_string(&self) -> Result<String, String> {
        match self {
            JsonValue::String(s) => Ok(s.clone()),
            other => Err(other.expected("a string")),
        }
    }

    /// The value as a float (the nearest `f64` to its text).
    ///
    /// # Errors
    ///
    /// Fails on any other variant.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Number(Number(text)) => {
                Ok(text.parse().expect("a parsed or constructed number is a finite float"))
            }
            other => Err(other.expected("a number")),
        }
    }

    /// The value as an exact non-negative integer.
    ///
    /// # Errors
    ///
    /// Fails unless the number is written as an integer in `0..=u64::MAX`:
    /// negatives, fractions, exponents and `2^64` are errors.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Number(Number(text)) => {
                text.parse().map_err(|_| format!("expected an integer in u64, found {text}"))
            }
            other => Err(other.expected("an integer")),
        }
    }

    fn expected(&self, what: &str) -> String {
        match self {
            JsonValue::Object(_) => format!("expected {what}, found an object"),
            JsonValue::Array(_) => format!("expected {what}, found an array"),
            scalar => format!("expected {what}, found {scalar}"),
        }
    }

    /// The writer behind `Display`: a container whose members are all
    /// numbers and strings goes on one line, any other puts each member on
    /// its own line, indented two spaces per level.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, members): (char, char, Vec<(Option<&str>, &JsonValue)>) = match self {
            JsonValue::Number(Number(text)) => return f.write_str(text),
            JsonValue::String(s) => return write_str(f, s),
            JsonValue::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            JsonValue::Object(fields) => {
                ('{', '}', fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let flat =
            members.iter().all(|(_, v)| matches!(v, JsonValue::Number(_) | JsonValue::String(_)));
        write!(f, "{open}")?;
        for (i, (key, value)) in members.iter().enumerate() {
            match (i, flat) {
                (0, true) => {}
                (_, true) => f.write_str(", ")?,
                (_, false) => {
                    write!(f, "{}\n{:2$}", if i == 0 { "" } else { "," }, "", 2 * depth + 2)?
                }
            }
            if let Some(key) = key {
                write_str(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if !flat {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        write!(f, "{close}")
    }
}

/// Writes `s` quoted.
///
/// # Panics
///
/// Panics on a character that would need an escape sequence: no document
/// the workspace writes carries one, and the parser would refuse it.
fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    assert!(!s.contains(['"', '\\']) && !s.contains(char::is_control), "unescapable string {s:?}");
    write!(f, "\"{s}\"")
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonValue {
            fn from(v: $t) -> Self {
                JsonValue::Number(Number(v.to_string()))
            }
        }
    )*};
}
integer_values!(u32, u64, usize);

impl From<f64> for JsonValue {
    /// The shortest text that reads back as `v`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite `v`, which JSON cannot carry.
    fn from(v: f64) -> Self {
        assert!(v.is_finite(), "JSON numbers are finite, got {v}");
        JsonValue::Number(Number(v.to_string()))
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> Self {
        JsonValue::Array(items)
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.text.as_bytes().get(self.at).copied().ok_or_else(|| "unexpected end of input".into())
    }

    /// Consumes `c` if it is the next byte (whitespace not skipped).
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.text.as_bytes().get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        let got = self.peek()?;
        if !self.eat(c) {
            return Err(format!(
                "expected '{}' at byte {}, found '{}'",
                c as char, self.at, got as char
            ));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            b'{' => {
                let fields = self.members(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value()?))
                })?;
                Ok(JsonValue::Object(fields))
            }
            b'[' => Ok(JsonValue::Array(self.members(b'[', b']', Parser::value)?)),
            b'"' => Ok(JsonValue::String(self.string()?)),
            _ => self.number(),
        }
    }

    /// A comma-separated sequence between `open` and `close`, with no
    /// trailing comma.
    fn members<T>(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect(open)?;
        let mut items = Vec::new();
        if self.peek()? == close {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(member(self)?);
            if self.peek()? != b',' {
                self.expect(close)?;
                return Ok(items);
            }
            self.at += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        loop {
            match self.text.as_bytes().get(self.at) {
                None => return Err("unterminated string".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    return Err(format!("escape sequence at byte {} is not supported", self.at))
                }
                Some(c) if c.is_ascii_control() => {
                    return Err(format!("control character in a string at byte {}", self.at))
                }
                Some(_) => self.at += 1,
            }
        }
        self.at += 1;
        Ok(self.text[start..self.at - 1].to_string())
    }

    fn digits(&mut self) -> usize {
        let start = self.at;
        while self.text.as_bytes().get(self.at).is_some_and(u8::is_ascii_digit) {
            self.at += 1;
        }
        self.at - start
    }

    /// `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`, finite as a float.
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.at;
        self.eat(b'-');
        let int_start = self.at;
        let int_digits = self.digits();
        let leading_zero = int_digits > 1 && self.text.as_bytes()[int_start] == b'0';
        let fraction_ok = !self.eat(b'.') || self.digits() > 0;
        let exponent_ok = !(self.eat(b'e') || self.eat(b'E')) || {
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits() > 0
        };
        let text = &self.text[start..self.at];
        if int_digits == 0 || leading_zero || !fraction_ok || !exponent_ok {
            return Err(format!("expected a value at byte {start}, found '{text}'"));
        }
        if !text.parse::<f64>().is_ok_and(f64::is_finite) {
            return Err(format!("number {text} at byte {start} is not finite"));
        }
        Ok(JsonValue::Number(Number(text.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_exact_over_all_of_u64() {
        for text in ["18446744073709551615", "9007199254740993", "0"] {
            let value = JsonValue::parse(text).unwrap();
            assert_eq!(value.as_u64().unwrap().to_string(), text);
            assert_eq!(JsonValue::parse(&value.to_string()).unwrap(), value);
        }
        assert_eq!(JsonValue::from(u64::MAX).as_u64(), Ok(u64::MAX));
        assert_eq!(JsonValue::from((1u64 << 53) + 1).as_u64(), Ok((1 << 53) + 1));
        for text in ["1e300", "-1", "2.5", "18446744073709551616", "5.0"] {
            let value = JsonValue::parse(text).unwrap();
            assert!(value.as_u64().is_err(), "{text} read as {:?}", value.as_u64());
        }
        assert_eq!(JsonValue::parse("1e300").unwrap().as_f64(), Ok(1e300));
        assert_eq!(JsonValue::parse("-0.25").unwrap().as_f64(), Ok(-0.25));
    }

    #[test]
    fn a_written_document_parses_back_to_an_equal_value() {
        let doc = JsonValue::object([
            ("n", 600u64.into()),
            ("rate", 0.9925.into()),
            ("big", u64::MAX.into()),
            ("policy", "hash".into()),
            ("empty", JsonValue::Array(Vec::new())),
            ("none", JsonValue::object([])),
            (
                "records",
                vec![
                    JsonValue::object([("scheme", "stretch6".into()), ("stretch", 3.8.into())]),
                    vec![JsonValue::from(1u32), vec![JsonValue::from(2u32)].into()].into(),
                ]
                .into(),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        assert!(text
            .contains("\n  \"records\": [\n    {\"scheme\": \"stretch6\", \"stretch\": 3.8},\n"));
        assert!(text.contains("\"empty\": [],\n  \"none\": {},"));
        for v in [0.1, 1e300, 3.805_555_555_555_555_4, 162_526.2, -7.0] {
            assert_eq!(JsonValue::parse(&JsonValue::from(v).to_string()).unwrap().as_f64(), Ok(v));
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "{\"a\": 1} x",
            "[1, 2,]",
            "{\"a\": 1,}",
            "\"a\\\"b\"",
            "\"a\\nb\"",
            "1e999",
            "-1e999",
            "NaN",
            "Infinity",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "-",
            "",
            "{",
            "[1 2]",
            "{\"a\" 1}",
            "{1: 2}",
            "\"open",
            "\"tab\there\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn accessors_name_what_they_expected() {
        let doc = JsonValue::parse("{\"a\": [1, \"x\"], \"b\": {\"c\": 2}}").unwrap();
        assert_eq!(doc.field("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(doc.field("b").and_then(|b| b.field("c")).and_then(JsonValue::as_u64), Ok(2));
        assert_eq!(doc.field("zz").unwrap_err(), "missing field \"zz\"");
        assert!(doc.field_opt("zz").is_none());
        assert!(doc.field("a").unwrap().field_opt("c").is_none());
        assert_eq!(
            doc.field("b").unwrap().as_array().unwrap_err(),
            "expected an array, found an object"
        );
        assert_eq!(
            doc.field("a").unwrap().as_array().unwrap()[1].as_u64().unwrap_err(),
            "expected an integer, found \"x\""
        );
        assert_eq!(doc.field("a").unwrap().as_array().unwrap()[1].as_string(), Ok("x".to_string()));
    }

    #[test]
    #[should_panic(expected = "unescapable string")]
    fn the_writer_refuses_a_string_that_needs_an_escape() {
        let _ = JsonValue::from("say \"hi\"").to_string();
    }
}
