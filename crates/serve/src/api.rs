//! The service API: JSON request bodies, typed API errors, and the
//! response rendering shared by the server and its tests.
//!
//! Every failure mode is a first-class [`ApiError`] carrying the HTTP
//! status, a stable machine-readable `code`, a human message, and (for
//! analysis rejections) the verifier findings — per the project's rule
//! that model degradation is surfaced, never silent.

use gpumech_core::Prediction;
use gpumech_exec::canonical_prediction_json;
use serde::Value;

use crate::http::Response;

/// A parsed `POST /predict` body.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredictBody {
    /// Workload name from the bundled catalogue (required).
    pub kernel: String,
    /// Grid-size override.
    pub blocks: Option<usize>,
    /// Resident warps per core.
    pub warps: Option<usize>,
    /// MSHR entries per core.
    pub mshrs: Option<usize>,
    /// DRAM bandwidth in GB/s.
    pub bw: Option<f64>,
    /// SFU lanes per core.
    pub sfu: Option<usize>,
    /// Scheduling policy (`rr` | `gto`).
    pub policy: Option<String>,
    /// Table II model (`naive` | `markov` | `mt` | `mt_mshr` | `full`).
    pub model: Option<String>,
    /// Representative selection (`max` | `min` | `clustering` | `weighted`).
    pub selection: Option<String>,
    /// Per-request deadline in milliseconds (capped by the server).
    pub deadline_ms: Option<u64>,
    /// Debug-only artificial service time; honored only when the server
    /// was started with debug hooks enabled (deterministic load tests).
    pub hold_ms: Option<u64>,
}

/// A typed service-level failure: everything the response needs.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Stable machine-readable error code.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Static-verifier findings (422 analysis rejections only).
    pub findings: Vec<String>,
    /// Suggested client backoff, sent as `Retry-After` (seconds) plus a
    /// millisecond-precision `x-retry-after-ms` header.
    pub retry_after_ms: Option<u64>,
}

impl ApiError {
    /// A plain error with no findings and no retry hint.
    #[must_use]
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        ApiError { status, code, message: message.into(), findings: Vec::new(), retry_after_ms: None }
    }

    /// Attaches a retry hint.
    #[must_use]
    pub fn with_retry_after_ms(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Attaches verifier findings.
    #[must_use]
    pub fn with_findings(mut self, findings: Vec<String>) -> Self {
        self.findings = findings;
        self
    }

    /// Renders the error as its HTTP response.
    #[must_use]
    pub fn response(&self) -> Response {
        let mut body = format!(
            "{{\"error\":{},\"message\":{}",
            json_str(self.code),
            json_str(&self.message)
        );
        if !self.findings.is_empty() {
            body.push_str(",\"findings\":[");
            for (i, f) in self.findings.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&json_str(f));
            }
            body.push(']');
        }
        if let Some(ms) = self.retry_after_ms {
            body.push_str(&format!(",\"retry_after_ms\":{ms}"));
        }
        body.push('}');
        let mut resp = Response::json(self.status, body);
        if let Some(ms) = self.retry_after_ms {
            // Retry-After is whole seconds per RFC 9110; keep at least 1
            // so "shed but retry immediately" never reads as "no hint".
            resp = resp
                .with_header("retry-after", ms.div_ceil(1000).max(1))
                .with_header("x-retry-after-ms", ms);
        }
        resp
    }
}

/// JSON string literal for `s` (delegates to the vendored serializer so
/// escaping matches every other export in the workspace).
fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).unwrap_or_else(|_| "\"\"".to_string())
}

/// Extracts a string field.
fn str_field(v: &Value, name: &'static str) -> Result<Option<String>, ApiError> {
    match v.get_field(name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(bad_field(name, "string", other)),
    }
}

/// Extracts an unsigned integer field.
fn uint_field(v: &Value, name: &'static str) -> Result<Option<u64>, ApiError> {
    match v.get_field(name) {
        None | Some(Value::Null) => Ok(None),
        Some(other) => other.as_u64().map(Some).ok_or_else(|| {
            bad_field(name, "non-negative integer", other)
        }),
    }
}

/// Extracts a number field.
fn num_field(v: &Value, name: &'static str) -> Result<Option<f64>, ApiError> {
    match v.get_field(name) {
        None | Some(Value::Null) => Ok(None),
        Some(other) => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad_field(name, "number", other)),
    }
}

fn bad_field(name: &str, expected: &str, got: &Value) -> ApiError {
    ApiError::new(
        400,
        "bad_field",
        format!("field `{name}` must be a {expected}, got {}", got.kind()),
    )
}

/// Field names `POST /predict` accepts; anything else is a typo worth a
/// typed 400 rather than a silently ignored knob.
const PREDICT_FIELDS: [&str; 11] = [
    "kernel", "blocks", "warps", "mshrs", "bw", "sfu", "policy", "model", "selection",
    "deadline_ms", "hold_ms",
];

/// Parses and validates a `POST /predict` JSON body.
///
/// # Errors
///
/// A 400 [`ApiError`] for non-JSON bodies, non-object roots, unknown
/// fields, wrong field types, or a missing `kernel`.
pub fn parse_predict_body(body: &[u8]) -> Result<PredictBody, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "bad_json", "request body is not UTF-8"))?;
    let value = serde_json::parse_value(text)
        .map_err(|e| ApiError::new(400, "bad_json", format!("request body is not JSON: {e}")))?;
    let Value::Object(pairs) = &value else {
        return Err(ApiError::new(400, "bad_json", "request body must be a JSON object"));
    };
    if let Some((unknown, _)) = pairs.iter().find(|(k, _)| !PREDICT_FIELDS.contains(&k.as_str()))
    {
        return Err(ApiError::new(400, "unknown_field", format!("unknown field `{unknown}`")));
    }
    let kernel = str_field(&value, "kernel")?
        .ok_or_else(|| ApiError::new(400, "missing_field", "field `kernel` is required"))?;
    let as_usize = |n: Option<u64>, name: &'static str| -> Result<Option<usize>, ApiError> {
        n.map(|v| {
            usize::try_from(v)
                .map_err(|_| ApiError::new(400, "bad_field", format!("field `{name}` too large")))
        })
        .transpose()
    };
    Ok(PredictBody {
        kernel,
        blocks: as_usize(uint_field(&value, "blocks")?, "blocks")?,
        warps: as_usize(uint_field(&value, "warps")?, "warps")?,
        mshrs: as_usize(uint_field(&value, "mshrs")?, "mshrs")?,
        bw: num_field(&value, "bw")?,
        sfu: as_usize(uint_field(&value, "sfu")?, "sfu")?,
        policy: str_field(&value, "policy")?,
        model: str_field(&value, "model")?,
        selection: str_field(&value, "selection")?,
        deadline_ms: uint_field(&value, "deadline_ms")?,
        hold_ms: uint_field(&value, "hold_ms")?,
    })
}

/// The `POST /predict` success body: headline numbers, first-class model
/// warnings, and the full canonical prediction.
///
/// The embedded prediction is [`canonical_prediction_json`], so a served
/// response is *byte-identical* to one computed sequentially in-process
/// from the same inputs. The load-shed suite relies on that.
///
/// # Errors
///
/// Propagates serialization failure as a 500 [`ApiError`] (unreachable
/// for predictions produced by this workspace).
pub fn predict_response_body(kernel: &str, p: &Prediction) -> Result<String, ApiError> {
    let canonical = canonical_prediction_json(p)
        .map_err(|e| ApiError::new(500, "serialize_failed", e.to_string()))?;
    let cpi = serde_json::to_string(&p.cpi_total())
        .map_err(|e| ApiError::new(500, "serialize_failed", e.to_string()))?;
    let ipc = serde_json::to_string(&p.ipc())
        .map_err(|e| ApiError::new(500, "serialize_failed", e.to_string()))?;
    let mut warnings = String::from("[");
    for (i, w) in p.warnings.iter().enumerate() {
        if i > 0 {
            warnings.push(',');
        }
        warnings.push_str(&json_str(w));
    }
    warnings.push(']');
    Ok(format!(
        "{{\"kernel\":{},\"cpi\":{cpi},\"ipc\":{ipc},\"warnings\":{warnings},\"prediction\":{canonical}}}",
        json_str(kernel)
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_body() {
        let body = parse_predict_body(
            br#"{"kernel":"bfs_kernel1","blocks":4,"bw":96.0,"policy":"gto","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(body.kernel, "bfs_kernel1");
        assert_eq!(body.blocks, Some(4));
        assert_eq!(body.bw, Some(96.0));
        assert_eq!(body.policy.as_deref(), Some("gto"));
        assert_eq!(body.deadline_ms, Some(250));
        assert_eq!(body.warps, None);
    }

    #[test]
    fn typed_body_rejections() {
        for (raw, code) in [
            (&b"not json"[..], "bad_json"),
            (b"[1,2]", "bad_json"),
            (b"{}", "missing_field"),
            (br#"{"kernel":"x","bogus":1}"#, "unknown_field"),
            (br#"{"kernel":7}"#, "bad_field"),
            (br#"{"kernel":"x","blocks":-1}"#, "bad_field"),
        ] {
            let err = parse_predict_body(raw).unwrap_err();
            assert_eq!(err.status, 400, "{}", String::from_utf8_lossy(raw));
            assert_eq!(err.code, code, "{}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn error_response_carries_retry_after_and_findings() {
        let err = ApiError::new(429, "shed", "queue full")
            .with_retry_after_ms(2500)
            .with_findings(vec!["f1".to_string()]);
        let resp = err.response();
        assert_eq!(resp.status, 429);
        let body = String::from_utf8(resp.body.clone()).unwrap();
        assert!(body.contains("\"error\":\"shed\""), "{body}");
        assert!(body.contains("\"retry_after_ms\":2500"), "{body}");
        assert!(body.contains("\"findings\":[\"f1\"]"), "{body}");
        assert!(resp.extra_headers.iter().any(|(n, v)| n == "retry-after" && v == "3"));
        assert!(resp.extra_headers.iter().any(|(n, v)| n == "x-retry-after-ms" && v == "2500"));
    }
}
