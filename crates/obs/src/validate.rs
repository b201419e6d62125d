//! The validator for what [`to_jsonl`](crate::to_jsonl) and the
//! folded-stack exporter write: every line matches its schema, and every
//! span, metric and frame name is within the `stage.subsystem.name`
//! scheme ([`valid_metric_name`]) and the stage-family allowlist.
//! `gpumech obs-validate` is a thin caller.

use std::fmt;

use serde::Value;

use crate::naming::valid_metric_name;

/// One schema or naming violation in an export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// 1-based line the violation is on; `None` for a whole-file one.
    pub line: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

/// What a valid JSONL export holds, by line type (besides its one `meta`
/// line).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JsonlCounts {
    /// `span` lines.
    pub spans: usize,
    /// `metric` sample lines.
    pub metrics: usize,
    /// `aggregate` lines.
    pub aggregates: usize,
}

/// Stage families a conforming export may emit under — the short crate
/// names of every instrumented layer (`test` covers unit-test fixtures).
const STAGE_FAMILIES: [&str; 13] = [
    "isa", "analyze", "trace", "mem", "timing", "core", "exec", "serve", "cli", "bench", "fault",
    "shard", "test",
];

const METRIC_KINDS: [&str; 3] = ["counter", "gauge", "histogram"];

/// What a line schema wants of one field.
#[derive(Clone, Copy)]
enum Want {
    Integer,
    IntegerOrNull,
    /// A non-finite float exports as `null`.
    NumberOrNull,
    Array,
}
use Want::{Array, Integer, IntegerOrNull, NumberOrNull};

const META: &[(&str, Want)] = &[("dropped_samples", Integer), ("invalid_names", Array)];
const SPAN: &[(&str, Want)] = &[
    ("id", Integer),
    ("thread", Integer),
    ("start_ns", Integer),
    ("dur_ns", IntegerOrNull),
    ("parent", IntegerOrNull),
];
const METRIC: &[(&str, Want)] = &[("ts_ns", Integer), ("value", NumberOrNull)];
/// The quantile-histogram aggregate: count, then min/max and p50/p90/p99
/// (`null` before any finite observation), then the populated log buckets.
const HISTOGRAM: &[(&str, Want)] = &[
    ("count", Integer),
    ("min", NumberOrNull),
    ("max", NumberOrNull),
    ("p50", NumberOrNull),
    ("p90", NumberOrNull),
    ("p99", NumberOrNull),
    ("buckets", Array),
];

/// The problems of one line, collected under its number.
struct Line<'a> {
    n: usize,
    problems: &'a mut Vec<Problem>,
}

impl Line<'_> {
    fn problem(&mut self, message: String) {
        self.problems.push(Problem { line: Some(self.n), message });
    }

    /// Checks `v`'s fields against a line schema.
    fn check_fields(&mut self, v: &Value, what: &str, fields: &[(&str, Want)]) {
        for &(key, want) in fields {
            let field = v.get_field(key);
            let null = matches!(field, Some(Value::Null));
            match want {
                Integer if field.and_then(Value::as_u64).is_none() => {
                    self.problem(format!("{what} missing integer {key:?}"));
                }
                IntegerOrNull if !null && field.and_then(Value::as_u64).is_none() => {
                    self.problem(format!("{what} {key:?} must be integer or null"));
                }
                NumberOrNull if !null && field.and_then(Value::as_f64).is_none() => {
                    self.problem(format!("{what} {key:?} must be number or null"));
                }
                Array if !matches!(field, Some(Value::Array(_))) => {
                    self.problem(format!("{what} missing {key:?} array"));
                }
                _ => {}
            }
        }
    }

    /// Checks one scheme-shaped name against the stage-family allowlist.
    fn check_name_family(&mut self, name: &str, what: &str) {
        let stage = name.split('.').next().unwrap_or("");
        if !STAGE_FAMILIES.contains(&stage) {
            self.problem(format!("{what} name {name:?} uses unknown stage family {stage:?}"));
        }
    }

    /// Checks a metric or aggregate line's `kind`.
    fn check_kind(&mut self, v: &Value, what: &str) {
        match field_str(v, "kind") {
            Some(k) if METRIC_KINDS.contains(&k) => {}
            Some(k) => {
                self.problem(format!("{what} kind {k:?} not one of counter|gauge|histogram"));
            }
            None => self.problem(format!("{what} missing string \"kind\"")),
        }
    }

    /// Checks a line's `name` against the scheme and the allowlist.
    fn check_name(&mut self, v: &Value, what: &str) {
        match field_str(v, "name") {
            None => self.problem(format!("{what} missing string \"name\"")),
            Some(name) if !valid_metric_name(name) => self.problem(format!(
                "{what} name {name:?} outside the stage.subsystem.name scheme"
            )),
            Some(name) => self.check_name_family(name, what),
        }
    }

    /// Schema check for one parsed JSONL line; tallies its type.
    fn check_jsonl(&mut self, v: &Value, metas: &mut usize, counts: &mut JsonlCounts) {
        match field_str(v, "type") {
            None => self.problem("missing string \"type\" field".to_string()),
            Some("meta") => {
                *metas += 1;
                if v.get_field("version").and_then(Value::as_u64) != Some(1) {
                    self.problem("meta version must be 1".to_string());
                }
                self.check_fields(v, "meta", META);
                if let Some(Value::Array(names)) = v.get_field("invalid_names") {
                    for n in names {
                        if let Value::Str(s) = n {
                            self.problem(format!(
                                "recorder saw name {s:?} outside the stage.subsystem.name scheme"
                            ));
                        }
                    }
                }
            }
            Some("span") => {
                counts.spans += 1;
                self.check_fields(v, "span", SPAN);
                self.check_name(v, "span");
            }
            Some("metric") => {
                counts.metrics += 1;
                self.check_kind(v, "metric");
                self.check_name(v, "metric");
                self.check_fields(v, "metric", METRIC);
            }
            Some("aggregate") => {
                counts.aggregates += 1;
                self.check_kind(v, "aggregate");
                self.check_name(v, "aggregate");
                if field_str(v, "kind") == Some("histogram") {
                    self.check_fields(v, "histogram", HISTOGRAM);
                }
            }
            Some(other) => self.problem(format!("unknown line type {other:?}")),
        }
    }
}

fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get_field(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Validates a JSONL export: every line parses, matches one of the four
/// line schemas, and names only scheme- and allowlist-conforming spans
/// and metrics; exactly one `meta` line. `parse` is the JSON reader
/// (`serde_json::parse_value`): this crate writes JSON by hand and links
/// no parser outside its tests.
///
/// # Errors
///
/// Every violation found, in line order.
pub fn validate_jsonl<E: fmt::Display>(
    text: &str,
    parse: impl Fn(&str) -> Result<Value, E>,
) -> Result<JsonlCounts, Vec<Problem>> {
    let mut problems = Vec::new();
    let mut counts = JsonlCounts::default();
    let mut metas = 0usize;
    for (i, text) in text.lines().enumerate() {
        let mut line = Line { n: i + 1, problems: &mut problems };
        if text.trim().is_empty() {
            line.problem("empty line".to_string());
            continue;
        }
        match parse(text) {
            Err(e) => line.problem(format!("not valid JSON: {e}")),
            Ok(v) => line.check_jsonl(&v, &mut metas, &mut counts),
        }
    }
    if metas != 1 {
        problems.push(Problem {
            line: None,
            message: format!("expected exactly one meta line, found {metas}"),
        });
    }
    if problems.is_empty() { Ok(counts) } else { Err(problems) }
}

/// Validates a folded-stack export: every line is `frame(;frame)* <u64>`
/// with scheme- and allowlist-conforming frame names. Returns the number
/// of stack lines.
///
/// # Errors
///
/// Every violation found, in line order.
pub fn validate_folded(text: &str) -> Result<usize, Vec<Problem>> {
    let mut problems = Vec::new();
    let mut stacks = 0usize;
    for (i, text) in text.lines().enumerate() {
        let mut line = Line { n: i + 1, problems: &mut problems };
        if text.trim().is_empty() {
            line.problem("empty line".to_string());
            continue;
        }
        let Some((stack, value)) = text.rsplit_once(' ') else {
            line.problem("no value column (expected \"stack <u64>\")".to_string());
            continue;
        };
        if value.parse::<u64>().is_err() {
            line.problem(format!("value {value:?} is not an unsigned integer"));
        }
        for frame in stack.split(';') {
            if valid_metric_name(frame) {
                line.check_name_family(frame, "frame");
            } else {
                line.problem(format!(
                    "frame {frame:?} outside the stage.subsystem.name scheme"
                ));
            }
        }
        stacks += 1;
    }
    if problems.is_empty() { Ok(stacks) } else { Err(problems) }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn rendered(problems: &[Problem]) -> String {
        problems.iter().map(|p| format!("{p}\n")).collect()
    }

    #[test]
    fn jsonl_rejects_bad_names_and_schema() {
        let problems = validate_jsonl(
            "{\"type\":\"meta\",\"version\":1,\"dropped_samples\":0,\"invalid_names\":[]}\n\
             {\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"NotAValidName\",\
              \"thread\":0,\"start_ns\":0,\"dur_ns\":5,\"attrs\":{}}\n\
             {\"type\":\"metric\",\"kind\":\"thermometer\",\"name\":\"a.b.c\",\
              \"value\":1,\"ts_ns\":0,\"span\":null}\n\
             not json\n",
            serde_json::parse_value,
        )
        .unwrap_err();
        // Four problems: the off-scheme span name, the unknown metric
        // kind, the scheme-valid but unknown-family metric name "a.b.c",
        // and the non-JSON line.
        let report = rendered(&problems);
        assert_eq!(problems.len(), 4, "{report}");
        assert_eq!(problems[0].line, Some(2));
        assert!(report.contains("outside the stage.subsystem.name scheme"));
        assert!(report.contains("thermometer"));
        assert!(report.contains("unknown stage family \"a\""));
        assert!(report.contains("line 4: not valid JSON"));
    }

    #[test]
    fn jsonl_needs_exactly_one_meta_line() {
        let meta = "{\"type\":\"meta\",\"version\":1,\"dropped_samples\":0,\"invalid_names\":[]}\n";
        assert_eq!(validate_jsonl(meta, serde_json::parse_value), Ok(JsonlCounts::default()));
        for text in [String::new(), meta.repeat(2)] {
            let problems = validate_jsonl(&text, serde_json::parse_value).unwrap_err();
            assert_eq!(problems.len(), 1);
            assert_eq!(problems[0].line, None);
            assert!(problems[0].to_string().starts_with("expected exactly one meta line"));
        }
    }

    #[test]
    fn folded_rejects_malformed_stacks() {
        let problems = validate_folded(
            "exec.batch.run;NotAFrame 100\n\
             exec.batch.run\n\
             zzz.bogus.family 5\n\
             exec.batch.run notanumber\n",
        )
        .unwrap_err();
        let report = rendered(&problems);
        assert_eq!(problems.len(), 4, "{report}");
        assert!(report.contains("outside the stage.subsystem.name scheme"));
        assert!(report.contains("unknown stage family \"zzz\""));
        assert_eq!(validate_folded("exec.batch.run;exec.pool.run 12\n"), Ok(1));
    }
}
