//! Schema-drift gate: the committed golden v2 report for one registry
//! app must match what the current build produces, byte for byte.
//!
//! The analysis is fully deterministic (fixed-seed simulator, total-order
//! ranking), so any diff here is a change to the advice schema or to the
//! advisor's output — if intentional, regenerate the golden with
//!
//! ```sh
//! GPA_UPDATE_GOLDEN=1 cargo test --test schema_snapshot
//! ```
//!
//! bump `SCHEMA_VERSION` when the layout changed, and document the
//! change in `docs/advice-schema.md`.

use gpa::core::schema;
use gpa::pipeline::{AnalysisJob, Session};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/advice_v2_rodinia_hotspot.json")
}

#[test]
fn golden_v2_report_has_not_drifted() {
    let session = Session::test();
    let outcome = session.run_one(&AnalysisJob::new("rodinia/hotspot", 0)).expect("analysis runs");
    let mut produced = schema::report_to_json(&outcome.report).pretty();
    produced.push('\n');

    let path = golden_path();
    if std::env::var_os("GPA_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &produced).expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        produced,
        committed,
        "the v2 advice schema drifted from {}; if intentional, regenerate with \
         GPA_UPDATE_GOLDEN=1 cargo test --test schema_snapshot and review the diff",
        path.display()
    );
}

#[test]
fn golden_v2_report_parses_with_the_current_reader() {
    let text = std::fs::read_to_string(golden_path()).expect("golden exists");
    let report = schema::report_from_json(&gpa::json::Json::parse(&text).expect("valid JSON"))
        .expect("current reader understands the committed schema");
    assert!(!report.items.is_empty());
    assert_eq!(report.schema_version, gpa::core::SCHEMA_VERSION);
}

fn golden_v1_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/analyze_v1_rodinia_hotspot.json")
}

/// The v1 compatibility body the daemon serves (`protocol::analyze_body`
/// at schema 1) is a wire contract for pre-v2 clients: its bytes are
/// pinned the same way, regenerated only with `GPA_UPDATE_GOLDEN=1`.
#[test]
fn golden_v1_analyze_body_has_not_drifted() {
    let session = Session::test();
    let outcome = session.run_one(&AnalysisJob::new("rodinia/hotspot", 0)).expect("analysis runs");
    let mut produced = gpa::serve::protocol::analyze_body(&outcome, 1).compact();
    produced.push('\n');

    let path = golden_v1_path();
    if std::env::var_os("GPA_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &produced).expect("write golden");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        produced,
        committed,
        "the v1 analyze body drifted from {}; it must stay byte-identical for pre-v2 clients",
        path.display()
    );
}
