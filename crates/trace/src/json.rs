//! A minimal JSON parser, used to validate the Chrome-trace exporter's
//! output (the workspace deliberately carries no serde dependency — all
//! JSON in this project is hand-rolled, so the checker must be too).
//!
//! Supports the full JSON grammar except `\u` surrogate pairs are kept
//! as-is (sufficient for validation and for reading back our own
//! exporter, which never emits them).

/// A parsed JSON value. Object keys keep their document order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up an object key (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the run of plain characters up to the next
                    // quote, escape or control byte in one slice. Those
                    // are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\ny", true, null], "b": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert_eq!(arr[4], JsonValue::Null);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é\t""#).unwrap();
        assert_eq!(v.as_str(), Some("é\t"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "{} extra",
            "\"unterminated",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn strings_decode_utf8_escapes_and_megabyte_documents_exactly() {
        // Multi-byte UTF-8 (2-, 3- and 4-byte scalars) passes through.
        let v = parse("\"aé€𝄞z\"").unwrap();
        assert_eq!(v.as_str(), Some("aé€𝄞z"));
        // Every escape, `\u` included.
        let v = parse(r#""\"\\\/\b\f\n\r\t\u0041\u00e9\u20AC""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé€"));
        // A string-heavy document over 1 MB: every value comes back exact.
        let item = |i: usize| format!("name-{i}-é€𝄞 \"quoted\" \\ tab\t");
        let escaped = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"").replace('\t', "\\t");
        let n = 24_000;
        let mut doc = String::from("[");
        for i in 0..n {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("{{\"k{i}\": \"{}\"}}", escaped(&item(i))));
        }
        doc.push(']');
        assert!(doc.len() >= 1 << 20, "document is {} bytes", doc.len());
        let v = parse(&doc).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), n);
        for (i, obj) in arr.iter().enumerate() {
            assert_eq!(obj.get(&format!("k{i}")).and_then(JsonValue::as_str), Some(item(i).as_str()));
        }
    }
}
