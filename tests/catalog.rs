//! The telemetry catalog (DESIGN.md §9) checked against the sources: every
//! metric name, label, event kind and fault site that non-test code
//! produces is one catalog row, whose producer column names the one place
//! the code produces it, and every row names something the code produces.
//!
//! A name is produced where it is spelled: the literal first argument of
//! `counter(`, `gauge(`, `histogram(` or `set_label(`, a `gauge` row of the
//! `FlatDdStats` field table (published as `sim.<field>`), an event
//! variant constructed outside `qtelemetry` (its kind read from
//! `Event::kind`), or a fault site constant passed to a probe.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The header of every catalog table in DESIGN.md.
const HEADER: &str = "| name | kind | producer | when | reads as |";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Code characters of one line: comments dropped, and string and
/// character literals kept only when `keep_strings` (else blanked), so
/// braces inside them do not count.
fn code(line: &str, keep_strings: bool) -> String {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            break;
        }
        if c == '"' {
            let start = i;
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            let end = (i + 1).min(chars.len());
            if keep_strings {
                out.extend(&chars[start..end]);
            }
            i = end;
            continue;
        }
        // A character literal: 'x' or '\x'.
        if c == '\'' {
            let close = if chars.get(i + 1) == Some(&'\\') {
                3
            } else {
                2
            };
            if chars.get(i + close) == Some(&'\'') {
                i += close + 1;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// The non-test lines of a source file: `#[cfg(test)]` items (a module,
/// a function, a `mod tests;` declaration) and comments are dropped.
fn non_test_lines(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut lines = text.lines().enumerate();
    while let Some((no, line)) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push((no + 1, code(line, true)));
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        for (_, item) in lines.by_ref() {
            let item = code(item, false);
            depth += item.matches('{').count() as i64 - item.matches('}').count() as i64;
            opened |= item.contains('{');
            if (opened && depth == 0) || (!opened && item.trim_end().ends_with(';')) {
                break;
            }
        }
    }
    out
}

/// The string literals on a line, in order.
fn literals(line: &str) -> Vec<String> {
    line.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Everything the sources produce: name -> (kind, producing sites).
type Produced = BTreeMap<String, (String, Vec<String>)>;

fn produce(out: &mut Produced, name: &str, kind: &str, site: String) {
    let entry = out
        .entry(name.to_string())
        .or_insert_with(|| (kind.to_string(), Vec::new()));
    if entry.0 != kind {
        entry.0 = format!("{} + {kind}", entry.0);
    }
    entry.1.push(site);
}

fn produced() -> Produced {
    let root = root();
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    let rel = |p: &Path| {
        p.strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/")
    };
    let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();

    // Event kinds by variant, from `Event::kind`.
    let event_rs = read("crates/telemetry/src/event.rs");
    let body = event_rs
        .split("pub fn kind(&self)")
        .nth(1)
        .expect("Event::kind")
        .split("\n    }\n")
        .next()
        .unwrap();
    let mut kinds: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut variant = String::new();
    for line in body.lines() {
        if let Some(rest) = line.trim().strip_prefix("Event::") {
            variant = rest.split([' ', '{']).next().unwrap().to_string();
        }
        if !variant.is_empty() {
            kinds
                .entry(variant.clone())
                .or_default()
                .extend(literals(line).into_iter().filter(|l| l != "load"));
        }
    }
    assert!(kinds.len() >= 10, "Event::kind not parsed: {kinds:?}");

    // Fault site constants.
    let sites: BTreeMap<String, String> = read("crates/core/src/faults.rs")
        .lines()
        .filter_map(|l| {
            let rest = l.trim().strip_prefix("pub const SITE_")?;
            let (name, value) = rest.split_once(": &str = ")?;
            Some((format!("SITE_{name}"), literals(value).first()?.clone()))
        })
        .collect();
    assert!(sites.len() >= 5, "fault sites not parsed: {sites:?}");

    let mut out = Produced::new();
    for path in &files {
        let file = rel(path);
        if path.file_name().is_some_and(|n| n == "tests.rs") {
            continue;
        }
        let text = std::fs::read_to_string(path).unwrap();
        for (no, line) in non_test_lines(&text) {
            let site = || format!("{file}:{no}");
            for (call, kind) in [
                ("counter(\"", "counter"),
                ("gauge(\"", "gauge"),
                ("histogram(\"", "histogram"),
                ("set_label(\"", "label"),
            ] {
                for (at, _) in line.match_indices(call) {
                    let name = line[at + call.len()..].split('"').next().unwrap();
                    produce(&mut out, name, kind, site());
                }
            }
            if file == "crates/core/src/sim/stats.rs" && line.trim_end().ends_with(", gauge;") {
                let field = line.trim().split(':').next().unwrap();
                produce(&mut out, &format!("sim.{field}"), "gauge", site());
            }
            if !file.starts_with("crates/telemetry/") {
                for (variant, names) in &kinds {
                    if line.contains(&format!("Event::{variant} {{")) {
                        for name in names {
                            produce(&mut out, name, "event", site());
                        }
                    }
                }
            }
            // A probe passes the constant as a call's one argument:
            // `fires(SITE_X)`, `probe(faults::SITE_X)`, ...
            for (constant, name) in &sites {
                for (at, _) in line.match_indices(&format!("{constant})")) {
                    let callee = line[..at]
                        .trim_end_matches("faults::")
                        .trim_end_matches("crate::");
                    if callee.ends_with('(') {
                        produce(&mut out, name, "fault", site());
                    }
                }
            }
        }
    }
    out
}

/// The catalog rows of DESIGN.md: name -> (kind, producer), once per row.
fn catalog() -> Vec<(String, String, String)> {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in design.lines() {
        if line.trim() == HEADER {
            in_table = true;
            continue;
        }
        if !in_table || line.starts_with("|---") {
            continue;
        }
        if !line.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells: Vec<String> = line
            .split('|')
            .map(|c| c.trim().trim_matches('`').to_string())
            .collect();
        rows.push((cells[1].clone(), cells[2].clone(), cells[3].clone()));
    }
    rows
}

#[test]
fn every_produced_name_is_one_catalog_row_at_its_one_producer() {
    let produced = produced();
    let rows = catalog();
    assert!(rows.len() >= 50, "catalog not found: {} rows", rows.len());
    assert!(produced.len() >= 50, "sources not scanned: {produced:?}");
    let mut faults = Vec::new();
    for (name, (kind, sites)) in &produced {
        if sites.len() != 1 {
            faults.push(format!("`{name}` ({kind}) is produced at {sites:?}"));
        }
        let file = sites[0].split(':').next().unwrap();
        let matching: Vec<_> = rows.iter().filter(|(n, ..)| n == name).collect();
        match matching.as_slice() {
            [] => faults.push(format!(
                "`{name}` ({kind}, {}) is not in the catalog",
                sites[0]
            )),
            [(_, row_kind, producer)] => {
                if row_kind != kind || producer != file {
                    faults.push(format!(
                        "`{name}`: the catalog says {row_kind} at {producer}, \
                         the code {kind} at {}",
                        sites[0]
                    ));
                }
            }
            _ => faults.push(format!("`{name}` has {} catalog rows", matching.len())),
        }
    }
    for (name, kind, producer) in &rows {
        if !produced.contains_key(name) {
            faults.push(format!(
                "catalog row `{name}` ({kind}, {producer}) names nothing the code produces"
            ));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}

#[test]
fn the_scanner_sees_through_tests_comments_and_literals() {
    let text = "let a = m.counter(\"x.a\"); // gauge(\"x.b\")\n\
                #[cfg(test)]\n\
                mod tests {\n\
                    fn f() { let c = '{'; m.gauge(\"x.c\"); }\n\
                }\n\
                #[cfg(test)]\n\
                mod more;\n\
                fn g() { m.histogram(\"x.d\"); }\n";
    let kept: Vec<String> = non_test_lines(text).into_iter().map(|(_, l)| l).collect();
    let joined = kept.join("\n");
    assert!(joined.contains("x.a") && joined.contains("x.d"), "{joined}");
    assert!(
        !joined.contains("x.b") && !joined.contains("x.c"),
        "{joined}"
    );
    assert!(!joined.contains("mod more"), "{joined}");
}
