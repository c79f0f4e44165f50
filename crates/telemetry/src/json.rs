//! The workspace's one JSON codec: a [`Json`] value, a [`Writer`] over
//! `&mut String`, and a [`parse`]r.
//!
//! Every JSON document the stack emits goes through [`Writer`]: events,
//! Chrome traces, metrics dumps, run statistics, the daemon's responses and
//! spool records, the harness outputs. The spelling is compact (no
//! whitespace), strings are escaped in one place, and non-finite numbers
//! are written as `null` (JSON has no Inf/NaN). Fixed-shape emitters drive
//! the writer directly, so they build no tree; documents that are assembled
//! or read back use [`Json`], whose `Display` goes through the same writer.
//! Keys come out in the order they are written: an emitter's declaration
//! order, or sorted for a [`Json::Obj`].
//!
//! [`parse`] reads untrusted bytes (request bodies, spool records): it runs
//! in time linear in its input and bounds nesting at [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed (or to-be-serialized) JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A (decoded) string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps serialization deterministic.
    Obj(BTreeMap<String, Json>),
    /// Pre-serialized JSON spliced verbatim into the output. Never
    /// produced by [`parse`]; only for embedding a fixed-shape emitter's
    /// output (run statistics, a metrics dump) without a re-parse.
    Raw(String),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects negatives,
    /// NaN, and values with a fractional part).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Writes the value as the writer's next value.
    pub fn write(&self, w: &mut Writer) {
        match self {
            Json::Null => w.null(),
            Json::Bool(b) => w.bool(*b),
            Json::Num(x) => w.num(*x),
            Json::Str(s) => w.string(s),
            Json::Arr(items) => {
                w.begin_arr();
                items.iter().for_each(|v| v.write(w));
                w.end_arr()
            }
            Json::Obj(map) => {
                w.begin_obj();
                for (k, v) in map {
                    w.key(k);
                    v.write(w);
                }
                w.end_obj()
            }
            Json::Raw(s) => w.raw(s),
        };
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&render(|w| self.write(w)))
    }
}

/// One `From<T> for Json` per `T => |v| value;` line.
macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Self {
                $e
            }
        }
    )*};
}

json_from! {
    f64 => |v| Json::Num(v);
    u32 => |v| Json::Num(v.into());
    i32 => |v| Json::Num(v.into());
    usize => |v| Json::Num(v as f64);
    u64 => |v| Json::Num(v as f64);
    bool => |v| Json::Bool(v);
    &str => |v| Json::Str(v.to_string());
    String => |v| Json::Str(v);
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// Streams one JSON document into a `String`: the writer places the commas,
/// so an emitter only says what comes next. Every method returns the
/// writer, so a fixed shape reads as one chain:
/// `w.begin_obj().key("id").uint(7).end_obj()`.
pub struct Writer<'a> {
    out: &'a mut String,
    /// Whether the next key or value follows a sibling (needs a comma).
    comma: bool,
}

/// Runs `f` on a writer over a fresh string and returns the document.
pub fn render(f: impl FnOnce(&mut Writer)) -> String {
    let mut out = String::new();
    f(&mut Writer::new(&mut out));
    out
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, comma: false }
    }

    fn sep(&mut self) -> &mut Self {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Opens an object.
    pub fn begin_obj(&mut self) -> &mut Self {
        self.sep().out.push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.sep().out.push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep().quoted(k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an escaped string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep().quoted(s);
        self
    }

    /// Writes a number in its shortest round-trip form (`null` when not
    /// finite).
    pub fn num(&mut self, x: f64) -> &mut Self {
        self.fixed(x, None)
    }

    /// Writes a number rounded to `decimals` places (`Some`) or in its
    /// shortest round-trip form (`None`); `null` when not finite.
    pub fn fixed(&mut self, x: f64, decimals: Option<usize>) -> &mut Self {
        self.sep();
        let _ = match decimals {
            _ if !x.is_finite() => write!(self.out, "null"),
            Some(d) => write!(self.out, "{x:.d$}"),
            None => write!(self.out, "{x}"),
        };
        self
    }

    /// Writes an integer exactly (beyond the 2^53 that `f64` holds).
    pub fn uint(&mut self, x: u64) -> &mut Self {
        let _ = write!(self.sep().out, "{x}");
        self
    }

    /// Writes `true` / `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.raw(if b { "true" } else { "false" })
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Splices an already-serialized value verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.sep().out.push_str(json);
        self
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level and its input comes from the network and the spool, so the
/// bound is what keeps a body of `[[[[...` from overflowing the stack (an
/// abort, not a catchable panic). Job records nest a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (rejects trailing garbage, numbers
/// outside the `f64` range, and nesting deeper than [`MAX_DEPTH`]).
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        // An overflowing literal (`1e999`) would read back as `null`.
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(format!("bad number `{text}` at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash as one slice. Both
        // are ASCII, so the run ends on a UTF-8 boundary of the (valid)
        // input and is validated once: linear in the string's length.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .unwrap_or(b.len() - *pos);
        out.push_str(std::str::from_utf8(&b[*pos..*pos + run]).map_err(|e| e.to_string())?);
        *pos += run;
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            _ => {}
        }
        *pos += 1;
        match b.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = b
                    .get(*pos + 1..*pos + 5)
                    .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                    .ok_or_else(|| format!("`\\u` needs four hex digits at byte {pos}"))?;
                let code = hex.iter().fold(0, |acc, &h| {
                    acc * 16 + (h as char).to_digit(16).unwrap_or(0)
                });
                // Surrogate pairs are not reassembled; lone surrogates map
                // to U+FFFD. The job API never needs astral-plane text.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {pos}")),
        }
        *pos += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let src = r#"{"circuit":"ghz:8","seed":42,"deep":[1,2.5,-3e2,null,true],"s":"a\"b\n"}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("circuit").unwrap().as_str(), Some("ghz:8"));
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(42));
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("1e999").is_err(), "overflow would read back as null");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
        for bad in [r#""\u+041""#, r#""\u041""#, r#""\u 041""#, r#""\u-041""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn strings_copy_multibyte_runs_between_escapes() {
        let v = parse(r#""αβ\"γ\\δ""#).unwrap();
        assert_eq!(v, Json::Str("αβ\"γ\\δ".into()));
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |d: usize| format!("{}1{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // The whole request-body allowance of open brackets, objects too:
        // an error, not a stack overflow.
        assert!(parse(&"[".repeat(4 << 20)).is_err());
        assert!(parse(&"{\"a\":".repeat(1 << 18)).is_err());
    }

    #[test]
    fn f64_roundtrips_exactly() {
        let x = std::f64::consts::FRAC_1_SQRT_2;
        let v = parse(&Json::Num(x).to_string()).unwrap();
        assert_eq!(v.as_f64(), Some(x), "shortest-roundtrip printing must hold");
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = Json::obj(vec![("stats", Json::Raw("{\"a\":1}".into()))]);
        assert_eq!(v.to_string(), "{\"stats\":{\"a\":1}}");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }

    #[test]
    fn writer_places_commas_and_escapes_once() {
        let s = render(|w| {
            w.begin_obj().key("a").begin_arr().uint(1).num(f64::NAN);
            w.begin_obj().end_obj().end_arr();
            w.key("s")
                .string("q\"\\\n\u{1}")
                .key("t")
                .fixed(2.26, Some(1));
            w.key("u").uint(u64::MAX).key("b").bool(false).end_obj();
        });
        assert_eq!(
            s,
            r#"{"a":[1,null,{}],"s":"q\"\\\n\u0001","t":2.3,"u":18446744073709551615,"b":false}"#
        );
    }
}
