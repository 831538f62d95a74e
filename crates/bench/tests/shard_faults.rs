//! Chaos matrix for the shard supervisor: every `WSC_SHARD_FAULT` kind ×
//! retry budgets, end-to-end through the real `repro fleet --shards P`
//! pipeline.
//!
//! Two claims are on trial (ISSUE 10's acceptance criteria):
//!
//! 1. **Byte-identity under recovery.** With faults injected into one or
//!    all shards and enough retry budget, the supervised fold's stdout is
//!    byte-identical to the serial fold — crashes, hangs, corrupt frames,
//!    partial writes, and lying exit codes included. Recovery re-executes
//!    the failed span deterministically, so nothing the supervisor does is
//!    allowed to show in the survey output.
//! 2. **Exact coverage under degradation.** When retries are exhausted
//!    and splitting is disabled, the run still succeeds but reports
//!    *exactly* the surviving leaf spans — computed independently here via
//!    `wsc_parallel::process_shard_span` — in the machines and coverage
//!    lines.
//!
//! The survey is shrunk via `WSC_SURVEY_*` so debug-build children finish
//! in well under a second; the parent pins the same values into child
//! environments, so the fold tree is identical everywhere. The supervision
//! policy travels by flag (`--supervise <policy>`); the last two tests hold
//! the flag's own contract — a typo exits 2, `--help` prints the grammar.

use std::process::Command;

/// Tiny survey: big enough for two shards × many leaves (120 leaves), small
/// enough for debug children (~0.4 s per full run).
const MACHINES: usize = 120;

struct Run {
    stdout: String,
    stderr: String,
    code: Option<i32>,
}

/// Runs `repro --shards P --supervise <policy> fleet` on the tiny survey.
/// The policy travels by flag; the environment carries only the chaos plan
/// (`fault`), which is for the children to read.
fn run_fleet(shards: usize, policy: &str, fault: Option<&str>) -> Run {
    // Fast, deterministic defaults for every key a test doesn't set:
    // near-immediate retries, no deadline, no split.
    let policy = format!("backoff-ms=1,split=0,{policy}");
    let shards = shards.to_string();
    run_repro(
        &["--shards", &shards, "--supervise", &policy, "fleet"],
        fault.map(|plan| ("WSC_SHARD_FAULT", plan)).as_slice(),
    )
}

/// Runs the repro binary on the tiny survey with no ambient shard role or
/// fault plan; `env` is applied last.
fn run_repro(args: &[&str], env: &[(&str, &str)]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.env("REPRO_SCALE", "quick")
        .env("WSC_THREADS", "2")
        .env("WSC_SURVEY_MACHINES", MACHINES.to_string())
        .env("WSC_SURVEY_REQUESTS", "8")
        .env("WSC_SURVEY_POPULATION", "64")
        .env_remove("WSC_SHARD")
        .env_remove("WSC_SHARD_FAULT")
        .envs(env.iter().copied());
    let out = cmd.args(args).output().expect("spawn repro");
    Run {
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code(),
    }
}

fn serial_baseline() -> String {
    let run = run_fleet(1, "", None);
    assert!(run.code == Some(0), "serial fleet failed:\n{}", run.stderr);
    assert!(run.stdout.contains("coverage 100.00%"), "{}", run.stdout);
    run.stdout
}

#[test]
fn recovered_folds_are_byte_identical_to_serial() {
    let serial = serial_baseline();
    // kind × target × budget: every fault strikes attempt 1 (and for the
    // two-attempt rows, attempt 2 as well); the budget always has one
    // clean attempt left, so every span must recover.
    let matrix: &[(&str, &str)] = &[
        ("crash@1", "1"),
        ("crash@1:2", "2"),
        ("crash@*", "1"),
        ("corrupt@0", "1"),
        ("corrupt@*:2", "2"),
        ("partial@1", "1"),
        ("partial@*", "2"),
        ("exit@0", "1"),
        ("exit@1:2", "3"),
    ];
    for (plan, retries) in matrix {
        let run = run_fleet(2, &format!("retries={retries}"), Some(plan));
        assert!(
            run.code == Some(0),
            "fault {plan} run failed:\n{}",
            run.stderr
        );
        assert_eq!(
            serial, run.stdout,
            "fault {plan} (retries {retries}): recovered fold must be \
             byte-identical to serial\nstderr:\n{}",
            run.stderr
        );
        assert!(
            run.stderr.contains("wsc-shard-fault: injected"),
            "fault {plan} never fired:\n{}",
            run.stderr
        );
        assert!(
            run.stderr.contains("wsc-shard-supervisor:"),
            "fault {plan}: supervisor never intervened:\n{}",
            run.stderr
        );
    }
}

#[test]
fn hung_shard_is_deadline_killed_and_recovers() {
    let serial = serial_baseline();
    // Generous for debug children (~0.4 s healthy): a healthy retry must
    // never be killed by the hang deadline.
    let run = run_fleet(2, "retries=1,deadline-ms=20000", Some("hang@1"));
    assert!(run.code == Some(0), "hang run failed:\n{}", run.stderr);
    assert_eq!(serial, run.stdout, "stderr:\n{}", run.stderr);
    assert!(
        run.stderr.contains("deadline exceeded"),
        "deadline kill not reported:\n{}",
        run.stderr
    );
}

#[test]
fn persistent_failure_splits_and_recovers_byte_identical() {
    let serial = serial_baseline();
    // Shard 1/2 fails forever, but its halves re-run as 2/4 and 3/4 —
    // indices the `@1` rule no longer matches — so the split recovers.
    let run = run_fleet(2, "retries=0,split=1", Some("crash@1:forever"));
    assert!(run.code == Some(0), "split run failed:\n{}", run.stderr);
    assert_eq!(serial, run.stdout, "stderr:\n{}", run.stderr);
    assert!(
        run.stderr.contains("splitting into 2/4 and 3/4"),
        "split not reported:\n{}",
        run.stderr
    );
}

#[test]
fn exhausted_retries_report_exact_surviving_coverage() {
    for (plan, retries, lost_shards) in [
        ("crash@1:forever", 1u32, vec![1usize]),
        ("exit@0:forever", 0, vec![0]),
        ("partial@1:forever", 2, vec![1]),
    ] {
        let run = run_fleet(2, &format!("retries={retries}"), Some(plan));
        assert!(
            run.code == Some(0),
            "degraded run must still succeed ({plan}):\n{}",
            run.stderr
        );
        // Expected surviving machine count from the fold tree itself.
        let lost: usize = lost_shards
            .iter()
            .map(|&s| {
                let span = wsc_parallel::process_shard_span(MACHINES, s, 2);
                span.hi - span.lo
            })
            .sum();
        let survived = MACHINES - lost;
        let pct = 100.0 * survived as f64 / MACHINES as f64;
        let coverage_line = format!("coverage {pct:.2}% ({survived}/{MACHINES} machines)");
        assert!(
            run.stdout.contains(&coverage_line),
            "{plan}: expected {coverage_line:?} in:\n{}",
            run.stdout
        );
        let machines_line = format!("machines {survived} (");
        assert!(
            run.stdout.contains(&machines_line),
            "{plan}: folded population must be exactly the surviving spans:\n{}",
            run.stdout
        );
        assert!(
            run.stderr.contains("LOST after"),
            "{plan}: loss not reported on stderr:\n{}",
            run.stderr
        );
        // The exhausted attempt count is budget = retries + 1.
        assert!(
            run.stderr
                .contains(&format!("LOST after {} attempts", retries + 1)),
            "{plan}: wrong attempt accounting:\n{}",
            run.stderr
        );
    }
}

#[test]
fn retry_budgets_bound_recovery() {
    let serial = serial_baseline();
    // The same two-strike fault recovers with retries=2 and degrades with
    // retries=1: the budget — not luck — decides.
    let fault = Some("crash@1:2");
    let recovered = run_fleet(2, "retries=2", fault);
    assert!(recovered.code == Some(0));
    assert_eq!(serial, recovered.stdout, "stderr:\n{}", recovered.stderr);
    let degraded = run_fleet(2, "retries=1", fault);
    assert!(degraded.code == Some(0));
    assert_ne!(
        serial, degraded.stdout,
        "budget 1 cannot beat a 2-strike fault"
    );
    assert!(
        degraded
            .stdout
            .contains("coverage 50.00% (60/120 machines)"),
        "{}",
        degraded.stdout
    );
}

#[test]
fn typoed_policy_is_a_usage_error_not_a_default_run() {
    let run = run_fleet(2, "retrys=1", None);
    assert_eq!(run.code, Some(2), "stderr:\n{}", run.stderr);
    assert!(run.stderr.contains("retrys=1"), "{}", run.stderr);
    assert!(!run.stdout.contains("coverage"), "{}", run.stdout);
    // A typo anywhere else on the command line runs nothing either: not
    // even the run header reaches stdout.
    for (args, env, named) in [
        (&["fig4", "fig99"][..], &[][..], "fig99"),
        (&["fleet"][..], &[("WSC_THREADS", "abc")][..], "WSC_THREADS"),
    ] {
        let run = run_repro(args, env);
        assert_eq!(run.code, Some(2), "stderr:\n{}", run.stderr);
        assert!(run.stderr.contains(named), "{}", run.stderr);
        assert_eq!(run.stdout, "", "{named}");
    }
}

#[test]
fn help_prints_the_policy_grammar_and_its_defaults() {
    let run = run_repro(&["--help"], &[]);
    assert_eq!(run.code, Some(0), "stderr:\n{}", run.stderr);
    let help = format!("{}{}", run.stdout, run.stderr);
    for want in [
        "--supervise retries=<0..=64>,backoff-ms=<n>,deadline-ms=<n>,split=<0|1>",
        "default retries=2,backoff-ms=25,deadline-ms=0,split=1",
        "WSC_SHARD_FAULT",
    ] {
        assert!(help.contains(want), "{want:?} missing from:\n{help}");
    }
    // The chaos plan is the only `WSC_SHARD_*` variable left to document;
    // every supervision one is retired.
    let rest = help.replace("WSC_SHARD_FAULT", "");
    assert!(!rest.contains("WSC_SHARD_"), "retired variable in:\n{help}");
}
