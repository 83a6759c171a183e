//! One JSON value type with one writer and one parser, shared by every
//! machine-readable report in the workspace (the `BENCH_*.json` writers,
//! the scenario report and `psi-scenario compare`). The workspace builds
//! without a crates registry, so no serde.
//!
//! **Writer** ([`Json`]'s `Display`). A container whose children are all
//! scalars goes on one line (`{"a": 1, "b": "x"}`, `[1, 2]`); any other
//! container puts one child per line, indented two spaces deeper than
//! itself. Keys are followed by `": "`. A finite `f64` is written in Rust's
//! shortest round-trip `Display`, with `.0` appended to a whole number so
//! that it reads back as a [`Json::Num`] and not a [`Json::Int`]; NaN and
//! ±inf, which JSON cannot express, are written as `null`. Strings escape
//! `"`, `\` and every control character.
//!
//! **Parser** ([`Json::parse`]). A recursive-descent reader of the general
//! JSON grammar, not just the shape the writer emits. A number literal with
//! no fraction or exponent becomes [`Json::Int`] and keeps every digit (a
//! `u64` seed of 2^53 + 1 is not rounded to 2^53); other numbers become
//! [`Json::Num`].

use std::fmt::{self, Write as _};

/// A JSON value. Object fields keep their order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// An integer, exact over the whole `i64` and `u64` ranges.
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a number, integer or not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document (must consume the whole input bar whitespace).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) if n.is_finite() && n.fract() == 0.0 => write!(f, "{n}.0"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => write_container(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_container(
                f,
                indent,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// One container: on one line when every child is a scalar, else one child
/// per line at `indent + 2`. Object children carry their key.
fn write_container<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    brackets: &str,
    children: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) -> fmt::Result {
    let one_line = children
        .clone()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let (sep, pad) = if one_line {
        (", ", String::new())
    } else {
        (",", format!("\n{:w$}", "", w = indent + 2))
    };
    f.write_str(&brackets[..1])?;
    for (i, (key, v)) in children.enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        f.write_str(&pad)?;
        if let Some(k) = key {
            write_str(f, k)?;
            f.write_str(": ")?;
        }
        v.write(f, indent + 2)?;
    }
    if !one_line {
        write!(f, "\n{:indent$}", "")?;
    }
    f.write_str(&brackets[1..])
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

macro_rules! from {
    ($($t:ty => $v:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                $v(x)
            }
        }
    )*};
}
from!(
    bool => Json::Bool,
    f64 => Json::Num,
    String => Json::Str,
    &str => |s: &str| Json::Str(s.to_string()),
    Vec<Json> => Json::Arr,
    u64 => |i| Json::Int(i128::from(i)),
    usize => |i| Json::Int(i as i128),
);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of JSON input".to_string()),
        Some(b'{') => {
            let mut fields = Vec::new();
            parse_items(b, pos, b'}', |b, pos| {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {}", *pos));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos)?));
                Ok(())
            })?;
            Ok(Json::Obj(fields))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            parse_items(b, pos, b']', |b, pos| {
                items.push(parse_value(b, pos)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

/// The comma-separated items of the array or object whose opening bracket
/// is at `pos`, through its closing bracket `close`.
fn parse_items(
    b: &[u8],
    pos: &mut usize,
    close: u8,
    mut item: impl FnMut(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    *pos += 1;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, *pos
                ))
            }
        }
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid JSON keyword at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape digits")?;
                        // The writer only ever escapes control characters; a
                        // surrogate here is malformed input.
                        out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            _ => {
                // Copy the raw byte run up to the next quote/backslash so
                // multi-byte UTF-8 passes through untouched.
                let start = *pos - 1;
                while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*pos]).map_err(|_| "invalid UTF-8 in string")?,
                );
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "non-UTF-8 number")?;
    // An integer literal too long for i128 falls through to f64.
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i128>() {
            return Ok(Json::Int(i));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn parser_reads_every_value_kind() {
        let v =
            Json::parse(r#"{"a": [1, 2.5, -3e2], "b": "x\nyA", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\nyA"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr, [Json::Int(1), Json::Num(2.5), Json::Num(-300.0)]);
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
        for bad in [
            r#"{"a" 1}"#,
            "[1 2]",
            r#"{"a": 1,}"#,
            r#""open"#,
            "[",
            "tru",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(Json::parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }

    /// Parse → write → parse is the identity on every checked-in report.
    #[test]
    fn checked_in_reports_round_trip() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy();
                name.starts_with("BENCH_") && name.ends_with(".json")
            })
            .collect();
        assert!(files.len() >= 5, "found only {files:?}");
        files.push(root.join("tests/baselines/perf-gate-2d.json"));
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let first = Json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let again = Json::parse(&first.to_string()).unwrap();
            assert_eq!(first, again, "{path:?} changed in a round trip");
        }
    }

    #[test]
    fn strings_are_escaped() {
        let s = "my \"fast\" run\\1\n\u{1}";
        let text = Json::from(s).to_string();
        assert_eq!(text, r#""my \"fast\" run\\1\n\u0001""#);
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn non_finite_numbers_are_null() {
        let v = Json::from(vec![
            f64::NAN.into(),
            f64::INFINITY.into(),
            (-f64::INFINITY).into(),
        ]);
        assert_eq!(v.to_string(), "[null, null, null]");
        assert_eq!(Json::from(0.1).to_string(), "0.1");
        assert_eq!(Json::from(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(Json::from(None::<f64>).to_string(), "null");
    }

    #[test]
    fn scalar_containers_take_one_line_others_one_child_per_line() {
        let flat = Json::obj([("a", 1usize.into()), ("b", "x".into())]);
        assert_eq!(flat.to_string(), r#"{"a": 1, "b": "x"}"#);
        let nested = Json::obj([
            ("name", "p".into()),
            ("rows", vec![flat.clone(), flat.clone()].into()),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        let want = r#"{
  "name": "p",
  "rows": [
    {"a": 1, "b": "x"},
    {"a": 1, "b": "x"}
  ],
  "empty": {}
}"#;
        assert_eq!(nested.to_string(), want);
        assert_eq!(Json::parse(want).unwrap(), nested);
    }

    #[test]
    fn integers_keep_every_digit() {
        for (value, digits) in [
            (Json::from(u64::MAX), "18446744073709551615"),
            (Json::from((1u64 << 53) + 1), "9007199254740993"),
            (Json::Int(i64::MIN.into()), "-9223372036854775808"),
        ] {
            assert_eq!(value.to_string(), digits);
            assert_eq!(Json::parse(digits).unwrap(), value);
        }
        assert_ne!(
            Json::parse("9007199254740992").unwrap(),
            Json::parse("9007199254740993").unwrap()
        );
    }
}
