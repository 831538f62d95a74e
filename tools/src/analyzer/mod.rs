//! `wsc-analyzer`: the in-tree, zero-dependency static analysis framework.
//!
//! Layers, bottom up:
//!
//! * [`lexer`] — a lossless Rust lexer: every byte of the input lands in
//!   exactly one token, strings / chars / raw strings / comments are
//!   single tokens, and every token carries its byte span and line/col.
//!   Total on malformed input (unterminated literals run to EOF).
//! * [`items`] — the per-file item model: function boundaries (with
//!   receiver and visibility), `#[cfg(test)]` tracking, a name-based call
//!   list per function, the file's `use` paths, and the `lint:allow` /
//!   `lint:lock-order` annotations.
//! * [`rules`] — the eleven rules (six re-hosted from the regex engine,
//!   five new), evaluated over the file models with cross-file passes for
//!   event-completeness, panic-surface reachability and test-only-pub
//!   readers.
//! * [`report`] — findings and the deterministic `analysis.json` writer.
//!
//! Entry points: [`analyze_workspace`] for the real tree,
//! [`analyze_files`] for tests feeding virtual files.

pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;

use items::FileModel;
use report::Analysis;
use std::io;
use std::path::{Path, PathBuf};

/// Crate directories under `crates/` the analyzer scans. Everything the
/// deterministic pipeline touches is here; `tools/src` is appended so the
/// analyzer is subject to its own rules (its findings-corpus fixtures under
/// `tools/tests/corpus/` are deliberately *not* — they exist to violate
/// rules).
pub const SCOPED_CRATES: &[&str] = &[
    "fleet",
    "parallel",
    "prng",
    "sanitizer",
    "sim-hw",
    "sim-os",
    "tcmalloc",
    "telemetry",
    "workload",
];

/// Source roots loaded only as readers for the test-only-pub rule: their
/// calls and imports keep a scoped crate's `pub fn` alive, and no rule
/// reports on them. `benchmark/src` is only read, never checked.
pub const READER_ONLY: &[&str] = &["crates/bench/src/", "src/", "examples/", "benchmark/src/"];

/// Runs the full rule set over the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for krate in SCOPED_CRATES {
        collect_rs(&root.join("crates").join(krate), &mut paths)?;
    }
    for dir in ["tools/src"].iter().chain(READER_ONLY) {
        collect_rs(&root.join(dir), &mut paths)?;
    }
    paths.sort();

    let mut models = Vec::with_capacity(paths.len());
    for p in &paths {
        models.push(FileModel::load(root, p)?);
    }
    Ok(analyze_files(models))
}

/// Runs the full rule set over pre-built file models (virtual or real).
pub fn analyze_files(models: Vec<FileModel>) -> Analysis {
    let findings = rules::run_rules(&models);
    Analysis {
        files_scanned: models.len(),
        findings,
    }
}

/// Recursively collects `.rs` files under `dir`. A missing directory is
/// not an error (crates come and go across PRs); the sort in the caller
/// makes discovery order irrelevant.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
