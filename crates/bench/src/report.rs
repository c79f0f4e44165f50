//! Plain-text tables, JSON output, and summary statistics.

use std::fmt::Write as _;
use std::io::Write as _;

/// Geometric mean of positive values (the paper's average for quantities
/// with exponential spread). Non-positive values are skipped.
pub fn geo_mean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// One line naming the machine a result was recorded on: CPU model,
/// hardware threads, memory, and the SIMD backend the kernels run.
pub fn machine_header() -> String {
    let read = |path| std::fs::read_to_string(path).unwrap_or_default();
    let field = |text: &str, key: &str| {
        let line = text.lines().find(|l| l.starts_with(key))?;
        Some(line.split_once(':')?.1.trim().to_string())
    };
    let cpu = field(&read("/proc/cpuinfo"), "model name").unwrap_or_else(|| "unknown".into());
    let mem_gib = field(&read("/proc/meminfo"), "MemTotal")
        .and_then(|kib| kib.trim_end_matches(" kB").parse::<f64>().ok())
        .map_or_else(
            || "?".into(),
            |kib| format!("{:.0}", kib / (1u64 << 20) as f64),
        );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host: {cpu}, {threads} hardware threads, {mem_gib} GiB, vecops {}",
        qarray::vecops::backend().name()
    )
}

/// A column-aligned plain-text table (what the harness binaries print).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cells[i], width = widths[i]);
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A tiny hand-rolled JSON emitter (arrays of flat objects), avoiding an
/// extra dependency for the harness outputs.
pub struct JsonWriter {
    records: Vec<Vec<(String, JsonValue)>>,
    meta: Option<String>,
}

/// A JSON scalar.
pub enum JsonValue {
    /// Number (rendered with full precision).
    Num(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(JsonValue::Null)
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        JsonWriter {
            records: Vec::new(),
            meta: None,
        }
    }

    /// Attaches an already-serialized JSON value (e.g.
    /// `flatdd::telemetry::metrics_json()`) as run metadata: the output
    /// becomes `{"metrics": <raw>, "records": [...]}` instead of a bare
    /// array. The string must be valid JSON; it is embedded verbatim.
    pub fn set_meta_raw(&mut self, raw_json: String) {
        self.meta = Some(raw_json);
    }

    /// Appends one flat record.
    pub fn record(&mut self, fields: Vec<(&str, JsonValue)>) {
        self.records.push(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        );
    }

    /// Serializes the records — a bare JSON array, or (with
    /// [`Self::set_meta_raw`]) an object wrapping metadata and records.
    pub fn render(&self) -> String {
        match &self.meta {
            None => self.render_records(),
            Some(meta) => format!(
                "{{\n\"metrics\": {},\n\"records\": {}\n}}",
                meta,
                self.render_records()
            ),
        }
    }

    fn render_records(&self) -> String {
        let mut out = String::from("[\n");
        for (i, rec) in self.records.iter().enumerate() {
            out.push_str("  {");
            for (j, (k, v)) in rec.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: ", escape(k));
                match v {
                    JsonValue::Num(x) => {
                        if x.is_finite() {
                            let _ = write!(out, "{x}");
                        } else {
                            out.push_str("null");
                        }
                    }
                    JsonValue::Str(s) => out.push_str(&escape(s)),
                    JsonValue::Bool(b) => {
                        let _ = write!(out, "{b}");
                    }
                    JsonValue::Null => out.push_str("null"),
                }
            }
            out.push('}');
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }

    /// Writes to `path` if `Some`.
    pub fn write_if(&self, path: &Option<String>) {
        if let Some(p) = path {
            match std::fs::File::create(p).and_then(|mut f| f.write_all(self.render().as_bytes())) {
                Ok(()) => eprintln!("wrote {p}"),
                Err(e) => eprintln!("failed to write {p}: {e}"),
            }
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geo_mean(&[8.0]) - 8.0).abs() < 1e-9);
        assert_eq!(geo_mean(&[]), 0.0);
        // Non-positive skipped.
        assert!((geo_mean(&[0.0, 4.0, 9.0]) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["ghz", "1"]);
        t.row(vec!["supremacy", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("supremacy  12345"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn json_escaping_and_types() {
        let mut w = JsonWriter::new();
        w.record(vec![
            ("name", "a\"b\\c".into()),
            ("x", 1.5f64.into()),
            ("n", 7usize.into()),
            ("ok", true.into()),
            ("missing", Option::<usize>::None.into()),
        ]);
        let s = w.render();
        assert!(s.contains("\"a\\\"b\\\\c\""));
        assert!(s.contains("\"x\": 1.5"));
        assert!(s.contains("\"n\": 7"));
        assert!(s.contains("\"ok\": true"));
        assert!(s.contains("\"missing\": null"));
        assert!(s.starts_with('['));
        assert!(s.ends_with(']'));
    }

    #[test]
    fn json_write_if_none_is_noop() {
        JsonWriter::new().write_if(&None);
    }
}
