//! Minimal JSON layer: a recursive-descent parser into a [`Value`]
//! tree, the strict reader every artifact loader decodes through, and
//! the emit primitives (the offline dependency set has no JSON crate).
//!
//! The parser decodes the escapes `\"`, `\\`, `\/`, `\n`, `\t`, `\r`
//! and keeps `\uXXXX`, `\b`, `\f` raw; other escapes, raw control
//! characters and nesting deeper than [`MAX_DEPTH`] are [`ParseError`]s.
//! A literal of digits alone that fits a `u64` is a [`Value::Int`], so
//! integers reach loaders exactly. [`decode`] hands the root to a schema
//! as a [`Node`] with typed, range-checked getters; [`Obj`] rejects
//! duplicate keys, and errors name the JSON path (see DESIGN.md §17).

use std::fmt;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number literal of digits alone that fits a `u64`.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys kept as-is; [`Obj`]
    /// rejects them).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number (integers convert to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether this is an object.
    pub fn is_obj(&self) -> bool {
        matches!(self, Value::Obj(_))
    }

    /// Serialize back to compact JSON text using the same [`escape`] /
    /// [`fmt_f64`] primitives the exporters use. `parse ∘ to_json` is
    /// the identity on anything [`parse`] produced (the proptest suite
    /// pins the fixpoint); strings containing raw control characters
    /// normalize to their `\u00XX` escape on the first round trip.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Num(n) => out.push_str(&fmt_f64(*n)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value as an error message shows it.
    fn describe(&self) -> String {
        match self {
            Value::Str(_) => "a string".into(),
            Value::Arr(_) => "an array".into(),
            Value::Obj(_) => "an object".into(),
            Value::Num(n) if n.abs() >= 1e15 => format!("{n:e}"),
            scalar => scalar.to_json(),
        }
    }
}

/// A parse error with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document.
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Well-formedness check without keeping the tree.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ()).map_err(|e| e.to_string())
}

/// A schema violation: what is wrong, and the JSON path where.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// Path of the offending value (`""` for the document root).
    pub path: String,
    /// What is wrong with it.
    pub msg: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "document root: {}", self.msg)
        } else {
            write!(f, "`{}`: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for SchemaError {}

/// Why [`decode`] failed.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not a JSON document.
    Parse(ParseError),
    /// The document violates the schema.
    Schema(SchemaError),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Parse(e) => write!(f, "not valid JSON: {e}"),
            DecodeError::Schema(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Parse `text` and decode its root with `schema`.
pub fn decode<T>(
    text: &str,
    schema: impl FnOnce(Node<'_>) -> Result<T, SchemaError>,
) -> Result<T, DecodeError> {
    let root = parse(text).map_err(DecodeError::Parse)?;
    schema(Node {
        v: &root,
        path: String::new(),
    })
    .map_err(DecodeError::Schema)
}

/// One value of a document being decoded, with its JSON path.
#[derive(Debug, Clone)]
pub struct Node<'a> {
    v: &'a Value,
    path: String,
}

impl<'a> Node<'a> {
    /// A schema error at this value.
    pub fn error(&self, msg: impl Into<String>) -> SchemaError {
        SchemaError {
            path: self.path.clone(),
            msg: msg.into(),
        }
    }

    fn expected(&self, what: &str) -> SchemaError {
        self.error(format!("expected {what}, got {}", self.v.describe()))
    }

    /// The raw value, for schemas that branch on its shape.
    pub fn value(&self) -> &'a Value {
        self.v
    }

    /// `None` for `null`, for nullable fields.
    pub fn non_null(self) -> Option<Node<'a>> {
        (!matches!(self.v, Value::Null)).then_some(self)
    }

    /// An exact non-negative integer.
    pub fn u64(&self) -> Result<u64, SchemaError> {
        match self.v {
            Value::Int(n) => Ok(*n),
            _ => Err(self.expected("a non-negative integer")),
        }
    }

    /// An exact non-negative integer that fits a `usize`.
    pub fn usize(&self) -> Result<usize, SchemaError> {
        usize::try_from(self.u64()?).map_err(|_| self.expected("an integer that fits usize"))
    }

    /// An exact integer `>= 1` that fits a `usize`.
    pub fn positive(&self) -> Result<usize, SchemaError> {
        match self.usize()? {
            0 => Err(self.expected("a positive integer")),
            n => Ok(n),
        }
    }

    /// A finite number (integers convert).
    pub fn f64(&self) -> Result<f64, SchemaError> {
        match self.v.as_f64() {
            Some(x) if x.is_finite() => Ok(x),
            _ => Err(self.expected("a finite number")),
        }
    }

    /// A boolean.
    pub fn bool(&self) -> Result<bool, SchemaError> {
        match self.v {
            Value::Bool(b) => Ok(*b),
            _ => Err(self.expected("a boolean")),
        }
    }

    /// A string.
    pub fn str(&self) -> Result<&'a str, SchemaError> {
        self.v.as_str().ok_or_else(|| self.expected("a string"))
    }

    /// The items of an array, each with its indexed path.
    pub fn items(&self) -> Result<impl Iterator<Item = Node<'a>> + '_, SchemaError> {
        let items = self.v.as_arr().ok_or_else(|| self.expected("an array"))?;
        Ok(items.iter().enumerate().map(move |(i, v)| Node {
            v,
            path: format!("{}[{i}]", self.path),
        }))
    }

    /// An object view; duplicate keys are an error.
    pub fn obj(&self) -> Result<Obj<'a>, SchemaError> {
        let Value::Obj(fields) = self.v else {
            return Err(self.expected("an object"));
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(self.error(format!("duplicate key `{}`", dup[0])));
        }
        Ok(Obj {
            fields,
            node: self.clone(),
        })
    }
}

/// An object being decoded: keyed access to its fields as [`Node`]s.
#[derive(Debug, Clone)]
pub struct Obj<'a> {
    fields: &'a [(String, Value)],
    node: Node<'a>,
}

impl<'a> Obj<'a> {
    fn child(&self, key: &str, v: &'a Value) -> Node<'a> {
        let path = match self.node.path.as_str() {
            "" => key.to_string(),
            parent => format!("{parent}.{key}"),
        };
        Node { v, path }
    }

    fn error(&self, msg: impl Into<String>) -> SchemaError {
        self.node.error(msg)
    }

    /// Check the `version` field against the one version this build
    /// reads.
    pub fn version(&self, want: u64) -> Result<(), SchemaError> {
        let v = self.get("version")?;
        match v.u64()? {
            n if n == want => Ok(()),
            n => Err(v.error(format!("unsupported version {n} (this build reads {want})"))),
        }
    }

    /// An optional field.
    pub fn opt(&self, key: &str) -> Option<Node<'a>> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| self.child(key, v))
    }

    /// A required field.
    pub fn get(&self, key: &str) -> Result<Node<'a>, SchemaError> {
        let missing = || self.error(format!("missing field `{key}`"));
        self.opt(key).ok_or_else(missing)
    }

    /// Every field in source order, for map-shaped objects.
    pub fn entries(&self) -> impl Iterator<Item = (&'a str, Node<'a>)> + '_ {
        self.fields
            .iter()
            .map(|(k, v)| (k.as_str(), self.child(k, v)))
    }

    /// The unknown-key policy of hand-written inputs: any key outside
    /// `known` is an error. Additive exports skip this call, so readers
    /// ignore fields a newer writer added.
    pub fn deny_unknown(&self, known: &[&str]) -> Result<(), SchemaError> {
        match self
            .fields
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(self.error(format!(
                "unknown key `{k}` (expected one of: {})",
                known.join(", ")
            ))),
            None => Ok(()),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.pos,
        }
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting deeper than MAX_DEPTH (128)"));
                }
                self.depth += 1;
                let v = if self.b[self.pos] == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => {
                for (lit, v) in [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ] {
                    if self.b[self.pos..].starts_with(lit.as_bytes()) {
                        self.pos += lit.len();
                        return Ok(v);
                    }
                }
                Err(self.err("unexpected value"))
            }
        }
    }
    fn object(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if self.b.get(self.pos) != Some(&b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            fields.push((key, self.value()?));
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if self.b.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = self.b.get(self.pos + 1).copied();
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(other @ (b'u' | b'b' | b'f')) => {
                            // kept raw: \uXXXX, \b, \f
                            out.push('\\');
                            out.push(other as char);
                        }
                        Some(_) => return Err(self.err("invalid escape")),
                        None => return Err(self.err("dangling escape")),
                    }
                    self.pos += 2;
                }
                0..=0x1f => return Err(self.err("unescaped control character in string")),
                _ => {
                    // copy the raw byte run up to the next quote, escape
                    // or control character
                    let start = self.pos;
                    while self.pos < self.b.len()
                        && !matches!(self.b[self.pos], b'"' | b'\\' | 0..=0x1f)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in string"))?,
                    );
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.pos += 1;
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // the scanned bytes are ASCII by construction
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap_or_default();
        // digits alone without a leading zero: exact when it fits a u64
        let integral =
            text.bytes().all(|c| c.is_ascii_digit()) && (text == "0" || !text.starts_with('0'));
        match text.parse::<u64>() {
            Ok(n) if integral => Ok(Value::Int(n)),
            _ => text
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| self.err("invalid number")),
        }
    }
}

/// Escape `s` into a JSON string body (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON-legal number (`null` is never produced;
/// non-finite values are clamped to a large sentinel, which keeps
/// exporters total without inventing NaN syntax).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on f64 never produces exponents for our magnitudes, but
        // guard the integral case to keep the output unambiguous JSON
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else if v.is_nan() {
        "0.0".into()
    } else if v > 0.0 {
        "1e308".into()
    } else {
        "-1e308".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": true, "d": null, "e": "x\"y"}}"#)
            .expect("valid");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e").unwrap().as_str(), Some("x\"y"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1, 2",
            "{} trailing",
            "",
            "nul",
        ] {
            assert!(validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        // 200,000 brackets used to overflow the parser's stack
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
        let over = format!("{{\"a\": {at_cap}}}");
        assert!(parse(&over).unwrap_err().msg.contains("nesting"));
    }

    #[test]
    fn integer_literals_parse_exactly() {
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).unwrap(), Value::Int(u64::MAX));
        assert_eq!(parse("0").unwrap(), Value::Int(0));
        // beyond u64, negative, fractional or exponent: a float
        assert!(matches!(
            parse("18446744073709551616").unwrap(),
            Value::Num(_)
        ));
        assert_eq!(parse("-1").unwrap(), Value::Num(-1.0));
        assert_eq!(parse("3.0").unwrap(), Value::Num(3.0));
        assert_eq!(parse("1e2").unwrap(), Value::Num(100.0));
        assert_eq!(parse("7").unwrap().as_f64(), Some(7.0));
        assert!(
            matches!(parse("007").unwrap(), Value::Num(_)),
            "leading zero"
        );
        for bad in [".5", "1e", "-", "+1", "1e+", "--1", "1-2"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Decode `text` by reading the field at `a[0].b` with `read`.
    fn read_b<T>(
        text: &str,
        read: impl Fn(Node<'_>) -> Result<T, SchemaError>,
    ) -> Result<T, DecodeError> {
        decode(text, |root| {
            let a = root.obj()?.get("a")?;
            let first = a.items()?.next().ok_or_else(|| a.error("empty"))?;
            read(first.obj()?.get("b")?)
        })
    }

    #[test]
    fn reader_getters_are_typed_and_name_the_path() {
        assert_eq!(read_b(r#"{"a": [{"b": 7}]}"#, |n| n.u64()), Ok(7));
        assert_eq!(read_b(r#"{"a": [{"b": 7}]}"#, |n| n.f64()), Ok(7.0));
        assert_eq!(
            read_b(r#"{"a": [{"b": "x"}]}"#, |n| n.str().map(str::to_string)),
            Ok("x".to_string())
        );
        for (doc, why) in [
            (r#"{"a": [{"b": -1}]}"#, "negative"),
            (r#"{"a": [{"b": 1.5}]}"#, "fractional"),
            (r#"{"a": [{"b": 1e300}]}"#, "huge float"),
            (r#"{"a": [{"b": 18446744073709551616}]}"#, "beyond u64"),
            (r#"{"a": [{"b": "1"}]}"#, "string"),
            (r#"{"a": [{"b": 0}]}"#, "zero"),
        ] {
            let err = read_b(doc, |n| n.positive()).unwrap_err();
            match err {
                DecodeError::Schema(e) => assert_eq!(e.path, "a[0].b", "{why}"),
                other => panic!("{why}: {other:?}"),
            }
        }
        let Err(DecodeError::Schema(e)) = read_b(r#"{"a": [{"c": 1}]}"#, |n| n.u64()) else {
            panic!("missing field accepted");
        };
        assert_eq!(e.to_string(), "`a[0]`: missing field `b`");
        assert!(
            read_b(r#"{"a": [{"b": 1e999}]}"#, |n| n.f64()).is_err(),
            "infinite"
        );
        assert!(matches!(
            read_b(r#"{"a": [{"b": 1, "b": 2}]}"#, |n| n.u64()),
            Err(DecodeError::Schema(_))
        ));
        assert!(matches!(
            read_b("{", |n| n.u64()),
            Err(DecodeError::Parse(_))
        ));
    }

    #[test]
    fn deny_unknown_states_the_policy() {
        let strict = |text: &str| {
            decode(text, |root| {
                let o = root.obj()?;
                o.deny_unknown(&["a"])?;
                o.opt("a").map(|n| n.u64()).transpose()
            })
        };
        assert_eq!(strict(r#"{"a": 3}"#), Ok(Some(3)));
        assert_eq!(strict("{}"), Ok(None));
        let err = strict(r#"{"a": 3, "typo": 1}"#).unwrap_err();
        assert!(err.to_string().contains("unknown key `typo`"), "{err}");
    }

    #[test]
    fn to_json_round_trips_through_parse() {
        let text = r#"{"a": [1, -2.5, 300.0], "b": {"c": true, "d": null, "e": "x\"y"}}"#;
        let v = parse(text).unwrap();
        let out = v.to_json();
        assert_eq!(parse(&out).unwrap(), v, "{out}");
        assert_eq!(parse(&out).unwrap().to_json(), out, "serializer fixpoint");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let raw = "a\"b\\c\nd\te";
        let doc = format!("{{\"k\": \"{}\"}}", escape(raw));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(raw));
    }

    #[test]
    fn fmt_f64_is_always_valid_json() {
        for v in [
            0.0,
            1.0,
            -2.5,
            1e-9,
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
        ] {
            let s = fmt_f64(v);
            assert!(validate(&s).is_ok(), "{v} -> {s}");
        }
        assert_eq!(fmt_f64(3.0), "3.0");
    }
}
