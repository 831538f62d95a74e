//! The `lint` binary: CLI over the token-aware static analyzer in
//! `wsc_tools::analyzer`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p wsc-tools --bin lint                # human output, exit 1 on findings
//! cargo run -p wsc-tools --bin lint -- --json analysis.json
//! ```
//!
//! `--json PATH` writes the machine-readable report (deterministic:
//! byte-identical across runs on the same tree). Any unsuppressed finding
//! exits 1.
//!
//! The rules themselves — what is checked and why — are documented in
//! `tools/src/analyzer/rules.rs` and DESIGN.md §"Static analysis".

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wsc_tools::analyzer;

fn main() -> ExitCode {
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json requires a path"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = repo_root();
    let analysis = match analyzer::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint: failed to scan workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, analysis.to_json()) {
            eprintln!("lint: failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    for f in &analysis.findings {
        println!(
            "{}:{}:{}: [{}] {}",
            f.file, f.line, f.col, f.rule, f.message
        );
        println!("    {}", f.excerpt.trim());
    }

    println!(
        "lint: {} files scanned, {} finding(s)",
        analysis.files_scanned,
        analysis.findings.len()
    );
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("lint: {err}");
    eprintln!("usage: lint [--json PATH]");
    ExitCode::FAILURE
}

/// The workspace root: the parent of this crate's manifest dir under
/// cargo, else the current directory (running the binary from a checkout).
fn repo_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => Path::new(&dir)
            .parent()
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf),
        None => PathBuf::from("."),
    }
}
