//! Prometheus text exposition (format version 0.0.4).
//!
//! Renders a [`MetricsRegistry`] — counters, gauges, string labels, and
//! log-bucketed histograms — as the plain-text scrape format every
//! Prometheus-compatible collector understands:
//!
//! ```text
//! # TYPE flatdd_serve_jobs_completed counter
//! flatdd_serve_jobs_completed 12
//! # TYPE flatdd_serve_queue_wait_us histogram
//! flatdd_serve_queue_wait_us_bucket{le="1023"} 9
//! flatdd_serve_queue_wait_us_bucket{le="+Inf"} 12
//! flatdd_serve_queue_wait_us_sum 48210
//! flatdd_serve_queue_wait_us_count 12
//! ```
//!
//! Conventions:
//!
//! * Every metric name is prefixed `flatdd_` and sanitized to the
//!   Prometheus name charset `[a-zA-Z_:][a-zA-Z0-9_:]*` (dots become
//!   underscores), so the registry's dotted names keep their namespacing.
//! * `extra` label pairs are appended to every sample — the daemon uses
//!   `job="7"` to export per-job scoped registries side by side with its
//!   own without name collisions.
//! * Registry string labels (facts like the SIMD backend) are exported as
//!   one `flatdd_label_info{name=...,value=...} 1` series each, the
//!   Prometheus idiom for string-valued metrics.
//! * Histogram buckets are cumulative with inclusive `le` upper bounds
//!   taken from the log2 bucket edges, closed by the mandatory `+Inf`
//!   bucket, `_sum`, and `_count`.

use crate::metrics::MetricsRegistry;

/// The `Content-Type` a Prometheus scrape response should carry.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Sanitizes a registry metric name into the Prometheus charset, with the
/// `flatdd_` prefix. `serve.queue_wait_us` → `flatdd_serve_queue_wait_us`.
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("flatdd_");
    for (i, ch) in name.chars().enumerate() {
        let ok = ch.is_ascii_alphanumeric() || ch == '_' || ch == ':';
        // A digit is fine anywhere here because of the alphabetic prefix.
        let _ = i;
        out.push(if ok { ch } else { '_' });
    }
    out
}

/// Escapes a label value per the exposition grammar (`\`, `"`, newline).
fn escape_label_into(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Renders `{a="x",b="y"}` from base labels plus an optional extra pair
/// (used for the histogram `le` label). Empty when there are no labels.
fn label_block(extra: &[(&str, &str)], more: Option<(&str, &str)>) -> String {
    if extra.is_empty() && more.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in extra.iter().copied().chain(more) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label_into(&mut out, v);
        out.push('"');
    }
    out.push('}');
    out
}

fn render_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders one registry in the exposition format. `extra` label pairs are
/// attached to every sample; pass `&[]` for the daemon's own registry and
/// `&[("job", id)]` for a per-job scoped registry. When `with_type_lines`
/// is false the `# HELP`/`# TYPE` headers are suppressed — required when
/// appending a second registry that repeats metric names (Prometheus
/// permits at most one `# TYPE` per name per exposition).
pub fn render_registry(
    reg: &MetricsRegistry,
    extra: &[(&str, &str)],
    with_type_lines: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let labels = label_block(extra, None);

    for (name, v) in reg.counters_snapshot() {
        let pname = metric_name(&name);
        if with_type_lines {
            let _ = writeln!(out, "# HELP {pname} FlatDD counter `{name}`.");
            let _ = writeln!(out, "# TYPE {pname} counter");
        }
        let _ = writeln!(out, "{pname}{labels} {v}");
    }
    for (name, v) in reg.gauges_snapshot() {
        let pname = metric_name(&name);
        if with_type_lines {
            let _ = writeln!(out, "# HELP {pname} FlatDD gauge `{name}`.");
            let _ = writeln!(out, "# TYPE {pname} gauge");
        }
        let _ = write!(out, "{pname}{labels} ");
        render_f64(&mut out, v);
        out.push('\n');
    }
    for (name, snap) in reg.histograms_snapshot() {
        let pname = metric_name(&name);
        if with_type_lines {
            let _ = writeln!(out, "# HELP {pname} FlatDD latency histogram `{name}`.");
            let _ = writeln!(out, "# TYPE {pname} histogram");
        }
        for (bound, cum) in snap.cumulative() {
            let le = format!("{bound}");
            let lb = label_block(extra, Some(("le", &le)));
            let _ = writeln!(out, "{pname}_bucket{lb} {cum}");
        }
        let lb = label_block(extra, Some(("le", "+Inf")));
        let _ = writeln!(out, "{pname}_bucket{lb} {}", snap.count);
        let _ = writeln!(out, "{pname}_sum{labels} {}", snap.sum);
        let _ = writeln!(out, "{pname}_count{labels} {}", snap.count);
    }
    for (name, value) in reg.labels_snapshot() {
        let mut pairs: Vec<(&str, &str)> = extra.to_vec();
        pairs.push(("name", &name));
        pairs.push(("value", &value));
        if with_type_lines {
            let _ = writeln!(out, "# TYPE flatdd_label_info gauge");
        }
        let lb = label_block(&pairs, None);
        let _ = writeln!(out, "flatdd_label_info{lb} 1");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized_into_the_charset() {
        assert_eq!(
            metric_name("serve.queue_wait_us"),
            "flatdd_serve_queue_wait_us"
        );
        assert_eq!(metric_name("weird-name!x"), "flatdd_weird_name_x");
        let ok = |s: &str| {
            s.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
        };
        assert!(ok(&metric_name("dd.ct_mv_lookups")));
        assert!(ok(&metric_name("sim.gates/sec")));
    }

    #[test]
    fn renders_counters_gauges_labels_histograms() {
        let r = MetricsRegistry::new();
        r.counter("t.count").add(3);
        r.gauge("t.gauge").set(1.5);
        r.set_label("t.backend", "avx2 \"quoted\\\n");
        let h = r.histogram("t.lat_us");
        h.observe(2);
        h.observe(100);
        let text = render_registry(&r, &[], true);
        assert!(text.contains("# TYPE flatdd_t_count counter\nflatdd_t_count 3\n"));
        assert!(text.contains("# TYPE flatdd_t_gauge gauge\nflatdd_t_gauge 1.5\n"));
        assert!(text
            .contains("flatdd_label_info{name=\"t.backend\",value=\"avx2 \\\"quoted\\\\\\n\"} 1"));
        assert!(text.contains("# TYPE flatdd_t_lat_us histogram"));
        assert!(text.contains("flatdd_t_lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("flatdd_t_lat_us_sum 102"));
        assert!(text.contains("flatdd_t_lat_us_count 2"));
    }

    /// Splits one sample line into (name, label block chars, value),
    /// asserting the exposition grammar along the way.
    fn parse_sample(line: &str) -> (String, String, String) {
        let (head, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(!value.is_empty(), "empty value in {line:?}");
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf"),
            "bad value {value:?} in {line:?}"
        );
        let (name, labels) = match head.split_once('{') {
            Some((n, rest)) => {
                assert!(rest.ends_with('}'), "unterminated label block: {line:?}");
                (n.to_string(), rest[..rest.len() - 1].to_string())
            }
            None => (head.to_string(), String::new()),
        };
        let name_ok = name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        });
        assert!(name_ok, "name {name:?} outside the charset in {line:?}");
        // Label values must keep `"` and `\` escaped and contain no raw
        // newline (the line split above guarantees the latter).
        let mut chars = labels.chars().peekable();
        let mut in_value = false;
        while let Some(c) = chars.next() {
            match (in_value, c) {
                (false, '"') => in_value = true,
                (true, '\\') => {
                    let n = chars.next().expect("dangling escape");
                    assert!(
                        matches!(n, '\\' | '"' | 'n'),
                        "bad escape \\{n} in {line:?}"
                    );
                }
                (true, '"') => in_value = false,
                _ => {}
            }
        }
        assert!(!in_value, "unterminated label value in {line:?}");
        (name, labels, value.to_string())
    }

    #[test]
    fn exposition_grammar_holds_line_by_line() {
        let r = MetricsRegistry::new();
        r.counter("g.count").add(7);
        r.gauge("g.nan").set(f64::NAN);
        r.gauge("g.inf").set(f64::INFINITY);
        r.set_label("g.backend", "tricky \"value\\with\nnewline");
        let h = r.histogram("g.lat_us");
        for v in [0, 1, 3, 900, 70_000, u64::MAX] {
            h.observe(v);
        }
        let text = render_registry(&r, &[("job", "12")], true);
        let mut bucket_series: Vec<(String, u64)> = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "unknown comment {line:?}"
                );
                continue;
            }
            let (name, labels, value) = parse_sample(line);
            if name.ends_with("_bucket") {
                assert!(labels.contains("le=\""), "bucket without le: {line:?}");
                bucket_series.push((name, value.parse().unwrap()));
            }
        }
        // Cumulative bucket counts are monotone non-decreasing in emission
        // order (per series), and the +Inf bucket carries the total.
        assert!(!bucket_series.is_empty());
        for pair in bucket_series.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(
                    pair[0].1 <= pair[1].1,
                    "bucket counts must be cumulative: {pair:?}"
                );
            }
        }
        assert_eq!(bucket_series.last().unwrap().1, 6, "+Inf bucket == count");
        assert!(text.contains("flatdd_g_nan{job=\"12\"} NaN"));
        assert!(text.contains("flatdd_g_inf{job=\"12\"} +Inf"));
    }

    #[test]
    fn extra_labels_attach_to_every_sample() {
        let r = MetricsRegistry::new();
        r.counter("t.count").inc();
        r.histogram("t.h").observe(1);
        let text = render_registry(&r, &[("job", "7")], false);
        assert!(text.contains("flatdd_t_count{job=\"7\"} 1"));
        assert!(text.contains("flatdd_t_h_bucket{job=\"7\",le=\"+Inf\"} 1"));
        assert!(text.contains("flatdd_t_h_count{job=\"7\"} 1"));
        assert!(!text.contains("# TYPE"), "type lines suppressed");
    }
}
