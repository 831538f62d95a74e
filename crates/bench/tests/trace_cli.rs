//! The `trace` binary on files it did not write: a trace that cannot be
//! read, parsed, passed by `Trace::check` or held by the simulated address
//! space is one line on stderr and exit status 2 — never a panic — and a
//! recorded one replays with status 0.

use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("spawn the trace binary")
}

fn fixture(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Exit status 2, nothing on stdout, exactly one line on stderr.
fn refused(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "refused before printing anything");
    assert_eq!(stderr.trim_end().lines().count(), 1, "stderr: {stderr}");
    stderr
}

#[test]
fn replay_refuses_a_malformed_trace_in_one_line() {
    for (file, says) in [
        ("free_unknown_id.trace", "event 1: frees unknown id 5"),
        ("cpu_out_of_range.trace", "event 0: cpu 4000000000"),
        // Passes the check (it is well-formed) and is refused by the
        // allocator: ~91 TiB is more pages than a span can count.
        ("oversize.trace", "event 1: malloc of 99999999999999 bytes"),
    ] {
        let stderr = refused(&trace(&["replay", &fixture(file)]));
        assert!(stderr.contains(says), "{file}: {stderr}");
    }
}

#[test]
fn info_and_replay_refuse_a_file_they_cannot_read_or_parse() {
    let unparsable = format!("{}/trace_cli_unparsable.trace", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&unparsable, "a 0 64 0\n").expect("write the unparsable trace");
    for command in ["info", "replay"] {
        refused(&trace(&[command, &fixture("no_such_file.trace")]));
        let stderr = refused(&trace(&[command, &unparsable]));
        assert!(stderr.contains("line 1: missing field cpu"), "{stderr}");
    }
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Chrome-trace export is pinned byte for byte: lanes, kinds and
/// every event's `args` are written as they always have been.
#[test]
fn chrome_trace_export_is_pinned() {
    let file = format!("{}/trace_cli_fleet.json", env!("CARGO_TARGET_TMPDIR"));
    assert!(trace(&["events", "fleet", "2000", &file]).status.success());
    let json = std::fs::read(&file).expect("read the exported trace");
    assert_eq!(json.len(), 9_468_007);
    assert_eq!(fnv64(&json), 0xdf03_75c6_1c8c_7567);
}

#[test]
fn a_recorded_trace_replays() {
    let file = format!("{}/trace_cli_recorded.trace", env!("CARGO_TARGET_TMPDIR"));
    assert!(trace(&["record", "redis", "500", &file]).status.success());
    let out = trace(&["replay", &file]);
    assert!(out.status.success() && out.stderr.is_empty());
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 3);
}
