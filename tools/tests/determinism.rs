//! The analyzer must pass its own rules: two runs over the workspace
//! produce byte-identical `analysis.json`. Findings are pre-sorted, counts
//! live in ordered maps, and paths are repo-relative — any HashMap-order
//! leakage or absolute path would show up here as a diff.

use std::path::Path;
use wsc_tools::analyzer::analyze_workspace;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tools/ sits under the workspace root")
}

#[test]
fn repeated_runs_are_byte_identical() {
    let a = analyze_workspace(repo_root()).expect("first run");
    let b = analyze_workspace(repo_root()).expect("second run");
    assert_eq!(a.files_scanned, b.files_scanned);
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "analysis.json differs between runs"
    );
}

#[test]
fn workspace_is_clean_of_unsuppressed_findings() {
    // The acceptance gate in code form: the committed tree carries zero
    // unsuppressed findings across all eleven rules.
    let a = analyze_workspace(repo_root()).expect("analyzer run");
    assert!(
        a.findings.is_empty(),
        "unsuppressed findings in the workspace: {:#?}",
        a.findings
    );
    assert!(a.files_scanned > 50, "suspiciously few files scanned");
}

#[test]
fn json_shape_is_stable() {
    let a = analyze_workspace(repo_root()).expect("analyzer run");
    let json = a.to_json();
    assert!(json.starts_with("{\n"));
    assert!(json.ends_with("}\n"));
    assert!(json.contains("\"rule_counts\""));
    assert!(json.contains("\"files_scanned\""));
    // All eleven rules present in the counts block even at zero.
    for rule in [
        "wall-clock",
        "ambient-rng",
        "hashmap-iter",
        "hashmap-decl",
        "direct-attribution",
        "infallible-os",
        "concurrency-readiness",
        "event-completeness",
        "panic-surface",
        "suppression-hygiene",
        "test-only-pub",
    ] {
        assert!(json.contains(&format!("\"{rule}\"")), "missing {rule}");
    }
}
