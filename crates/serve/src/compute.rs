//! The service's deterministic compute path.
//!
//! Everything between "which experiment at which scale" and "which
//! bytes go on the wire" lives here, and none of it may depend on
//! wall-clock time, thread scheduling, or iteration order: the response
//! body for a given `(experiment, scale)` must be byte-identical across
//! runs, processes, and worker interleavings, because its sha256 is the
//! `ETag` clients revalidate against. This file is held to the same
//! wall-clock/threading rules as the numeric crates (the rest of the
//! crate is I/O edge and may read clocks for latency metrics): it
//! `forbid`s them, and it names nothing of its own crate, so everything
//! it calls lives in a root crate that forbids them too.

#![forbid(clippy::disallowed_methods, clippy::disallowed_types)]

use rsls_experiments::{Scale, Table};

/// Canonical JSON shape of one computed experiment (field order is
/// declaration order, which `serde_json` preserves — the byte layout is
/// part of the service contract).
#[derive(Debug, serde::Serialize)]
struct ExperimentResult {
    experiment: String,
    scale: String,
    tables: Vec<Table>,
}

/// The queue/result-cache key for one `(experiment, scale)` request.
pub fn result_key(id: &str, scale: Scale) -> String {
    format!("{id}@{}", scale.label())
}

/// Serializes a harness's tables to the canonical JSON body.
pub fn tables_to_json(id: &str, scale: Scale, tables: Vec<Table>) -> Result<Vec<u8>, String> {
    let result = ExperimentResult {
        experiment: id.to_string(),
        scale: scale.label().to_string(),
        tables,
    };
    Ok(serde_json::Writer::compact().render(&result).into_bytes())
}

/// The `ETag` for a response body: its own sha256, so the tag is
/// self-certifying (`/reports/{sha}` serves bytes whose hash *is* the
/// path; `/experiments/{id}` bodies hash to their tag).
pub fn etag_for(body: &[u8]) -> String {
    rsls_core::sha256_hex(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("Demo", &["matrix", "iters"]);
        t.push_row(vec!["x104".into(), "42".into()]);
        t
    }

    #[test]
    fn result_key_includes_scale() {
        assert_eq!(result_key("fig5", Scale::Quick), "fig5@quick");
        assert_eq!(result_key("fig5", Scale::Full), "fig5@full");
    }

    #[test]
    fn json_is_byte_stable_and_canonical() {
        let a = tables_to_json("fig5", Scale::Quick, vec![table()]).unwrap();
        let b = tables_to_json("fig5", Scale::Quick, vec![table()]).unwrap();
        assert_eq!(a, b, "same input must serialize to identical bytes");
        let s = String::from_utf8(a.clone()).unwrap();
        assert!(s.starts_with(r#"{"experiment":"fig5","scale":"quick","tables":["#));
        assert!(s.contains(r#""title":"Demo""#));
        // Stable bytes → stable self-certifying ETag.
        assert_eq!(etag_for(&a), etag_for(&b));
        assert_eq!(etag_for(&a).len(), 64);
    }
}
