//! A small JSON writer: keys come out in the order the caller writes them,
//! so two reports of the same run diff line by line.

pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already holds an element.
    stack: Vec<bool>,
    after_key: bool,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            stack: Vec::new(),
            after_key: false,
        }
    }

    fn separate(&mut self) {
        if self.after_key {
            self.after_key = false;
        } else if let Some(has) = self.stack.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    pub fn begin_object(&mut self) -> &mut Self {
        self.separate();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    pub fn begin_array(&mut self) -> &mut Self {
        self.separate();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    pub fn key(&mut self, k: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, k);
        self.out.push(':');
        self.after_key = true;
        self
    }

    pub fn string(&mut self, s: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, s);
        self
    }

    /// A float with every digit needed to read it back exactly. JSON has no
    /// NaN or infinity; those become `null` so the file stays parseable.
    pub fn number(&mut self, x: f64) -> &mut Self {
        self.separate();
        if x.is_finite() {
            self.out.push_str(&format!("{x:?}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    pub fn uint(&mut self, x: u64) -> &mut Self {
        self.separate();
        self.out.push_str(&x.to_string());
        self
    }

    pub fn boolean(&mut self, b: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\te\u{1}é");
        assert_eq!(w.finish(), "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
    }

    #[test]
    fn keeps_insertion_order_and_places_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("zeta").uint(1);
        w.key("alpha").begin_array();
        w.number(1.5).number(f64::NAN).boolean(true).null();
        w.begin_object().end_object();
        w.end_array();
        w.key("m").begin_object();
        w.key("k").string("v");
        w.end_object();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"zeta":1,"alpha":[1.5,null,true,null,{}],"m":{"k":"v"}}"#
        );
    }

    #[test]
    fn numbers_round_trip_with_all_their_digits() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 1e-9, 123456789.125, 5e-324] {
            let mut w = JsonWriter::new();
            w.number(x);
            assert_eq!(w.finish().parse::<f64>().unwrap(), x);
        }
    }
}
