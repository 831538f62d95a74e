//! The repository's one benchmark: it times the simulator itself.
//!
//! ```text
//! wsc-selfbench --workload W --seed N --seconds S --trace 0|1   one measured run, one JSON line
//! wsc-selfbench run          [--seed N] [--workload W] [--reps R]
//! wsc-selfbench check-repeat [--seed N] [--workload W] [--reps R]
//! ```
//!
//! Every repetition runs in a fresh child process (this binary re-executed
//! as `child <workload>`), so allocator and host-heap state is identical per
//! repetition and peak memory is per workload. See `benchmark/README.md`.

mod json;
mod layers;
mod metrics;
mod report;
mod result;
mod shadow;
mod spans;
mod workloads;

use json::Value;
use report::{RepSet, TracedRun};
use result::ChildResult;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

const DEFAULT_SEED: u64 = 42;
/// Where `run` writes `result.json` and traced children their Chrome traces,
/// relative to the repository root the command is run from.
const OUT_DIR: &str = "benchmark/out";
/// Repetitions per workload under `run` and `check-repeat`.
const DEFAULT_REPS: usize = 9;
/// Repetitions the driver's run never goes below, whatever `--seconds`.
const MIN_DRIVER_REPS: usize = 5;

const USAGE: &str = "usage:
  wsc-selfbench --workload W --seed N --seconds S --trace 0|1
  wsc-selfbench run          [--seed N] [--workload W] [--reps R]
  wsc-selfbench check-repeat [--seed N] [--workload W] [--reps R]
workloads: alloc_fastpath replay_churn driver_steady survey";

/// Parsed command line: an optional leading command word, then `--flag value`
/// pairs.
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        if raw.peek().is_some_and(|a| !a.starts_with("--")) {
            args.command = raw.next();
        }
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(flag) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    /// The value of `--flag`, parsed; `None` when absent.
    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.iter().find(|(k, _)| k == flag) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{flag}: cannot read `{v}`")),
        }
    }

    fn only_flags(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None if !self.positional.is_empty() && self.command.as_deref() != Some("child") => {
                Err(format!("unexpected argument `{}`", self.positional[0]))
            }
            None => Ok(()),
        }
    }

    /// `--workload W` as one workload, or all four when absent.
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.get::<String>("workload")? {
            None => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(&name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}`")),
        }
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    // A process-sharded survey re-executes this binary as its shard children.
    if wsc_bench::experiments::shard_child_main() {
        return ExitCode::SUCCESS;
    }
    let outcome =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            None => driver_run(&args),
            Some("run") => run(&args),
            Some("check-repeat") => check_repeat(&args),
            Some("child") => child(&args, start),
            Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wsc-selfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `child <workload> --seed N --trace 0|1`: one repetition in this process,
/// reported as one JSON line on stdout.
fn child(args: &Args, start: Instant) -> Result<ExitCode, String> {
    args.only_flags(&["seed", "trace"])?;
    let name = args.positional.first().ok_or("child needs a workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let traced = args.get::<u8>("trace")?.unwrap_or(0) != 0;
    let (result, chrome) = workloads::run_child(workload, seed, traced, &workloads::FULL, start);
    if let Some(chrome) = chrome {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        std::fs::write(&path, chrome.render()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", result.to_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Runs one repetition of `workload` in a fresh process and waits for it.
fn spawn_child(workload: Workload, seed: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let output = Command::new(exe)
        .args([
            "child",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
        ])
        .arg(if traced { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {} child: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} child printed nothing", workload.name()))?;
    ChildResult::from_json(&json::parse(line)?).map_err(|e| format!("{}: {e}", workload.name()))
}

/// When a workload has been measured enough.
struct Plan {
    min_reps: usize,
    /// Timed regions must add up to at least this, s.
    min_timed_s: f64,
}

impl Plan {
    fn satisfied(&self, set: &RepSet) -> bool {
        set.reps.len() >= self.min_reps
            && set.reps.iter().map(|r| r.timed_s).sum::<f64>() >= self.min_timed_s
    }
}

/// Runs untraced repetitions until every workload satisfies `plan`.
/// Repetitions are interleaved round-robin across workloads, so a noisy
/// episode on a shared host hits every workload, not every repetition of one.
fn measure(workloads: &[Workload], seed: u64, plan: &Plan) -> Result<Vec<RepSet>, String> {
    let mut sets: Vec<RepSet> = workloads
        .iter()
        .map(|&workload| RepSet {
            workload,
            reps: Vec::new(),
        })
        .collect();
    while sets.iter().any(|s| !plan.satisfied(s)) {
        for set in sets.iter_mut().filter(|s| !plan.satisfied(s)) {
            set.reps.push(spawn_child(set.workload, seed, false)?);
        }
    }
    Ok(sets)
}

/// Runs `workload` once more with spans on and orders its layer metrics.
/// `untraced_digest` is what the untraced repetitions' outputs hashed to.
fn trace(
    workload: Workload,
    seed: u64,
    untraced_digest: Option<u64>,
) -> Result<(ChildResult, TracedRun), String> {
    let child = spawn_child(workload, seed, true)?;
    let run = TracedRun::assemble(&child, untraced_digest)
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    Ok((child, run))
}

/// The driver's contract: one workload, one JSON object as the last line.
fn driver_run(args: &Args) -> Result<ExitCode, String> {
    args.only_flags(&["workload", "seed", "seconds", "trace"])?;
    let workload = match args.workloads()?.as_slice() {
        [one] => *one,
        _ => return Err(format!("--workload is required\n{USAGE}")),
    };
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.get("seconds")?.ok_or("--seconds is required")?;
    let traced = args.get::<u8>("trace")?.unwrap_or(0) != 0;
    let (attempted, failed, metrics, problems) = if traced {
        // The per-layer numbers come from one traced repetition, which times
        // its own untraced reference of the same fixed work.
        let (child, run) = trace(workload, seed, None)?;
        if run.stale {
            eprintln!(
                "wsc-selfbench: {}: per-layer rows are STALE (mirror differs)",
                workload.name()
            );
        }
        let metrics = report::per_layer_json(&run);
        (child.requests, child.failed, metrics, run.problems)
    } else {
        let plan = Plan {
            min_reps: MIN_DRIVER_REPS,
            min_timed_s: seconds,
        };
        let set = measure(&[workload], seed, &plan)?.remove(0);
        // One line for whoever has to explain a noisy run.
        let speeds: Vec<String> = set
            .reps
            .iter()
            .map(|r| format!("{:.4e}", r.requests as f64 / r.timed_s))
            .collect();
        eprintln!(
            "wsc-selfbench: {} seed {seed}: sim_req_per_s of the {} repetitions: {}",
            workload.name(),
            speeds.len(),
            speeds.join(" ")
        );
        let metrics = report::end_to_end_json(&set);
        (set.attempted(), set.failed(), metrics, set.problems())
    };
    for p in &problems {
        eprintln!("wsc-selfbench: {}: {p}", workload.name());
    }
    let line = Value::obj([
        ("correct", Value::Bool(problems.is_empty())),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

fn fixed_reps_plan(args: &Args) -> Result<Plan, String> {
    let reps = args.get("reps")?.unwrap_or(DEFAULT_REPS);
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    Ok(Plan {
        min_reps: reps,
        min_timed_s: 0.0,
    })
}

/// All workloads: end-to-end repetitions, one traced run each, every metric
/// printed by name, `result.json` written, non-zero exit on a failed check.
fn run(args: &Args) -> Result<ExitCode, String> {
    args.only_flags(&["workload", "seed", "reps"])?;
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let plan = fixed_reps_plan(args)?;
    let provenance = provenance(seed);
    println!("== wsc-selfbench: {} ==", provenance.render());
    let sets = measure(&args.workloads()?, seed, &plan)?;
    let traced: Vec<TracedRun> = sets
        .iter()
        .map(|s| trace(s.workload, seed, Some(s.reps[0].sim_digest)).map(|(_, run)| run))
        .collect::<Result<_, _>>()?;

    println!();
    report::print_end_to_end_header();
    sets.iter().for_each(report::print_end_to_end);
    for (set, run) in sets.iter().zip(&traced) {
        report::print_traced(set.workload, run);
    }
    let result = Value::obj([
        ("provenance", provenance),
        (
            "workloads",
            Value::Arr(
                sets.iter()
                    .zip(&traced)
                    .map(|(s, t)| report::workload_json(s, t))
                    .collect(),
            ),
        ),
    ]);
    let path = format!("{OUT_DIR}/result.json");
    std::fs::write(&path, result.render_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
    println!("\nwrote {path} and {OUT_DIR}/trace-<workload>.json");

    let mut ok = true;
    for (set, run) in sets.iter().zip(&traced) {
        for p in set.problems().iter().chain(&run.problems) {
            println!("FAILED {}: {p}", set.workload.name());
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two full sets of the same code: do the reported values agree within the
/// bounds?
fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    args.only_flags(&["workload", "seed", "reps"])?;
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let plan = fixed_reps_plan(args)?;
    let workloads = args.workloads()?;
    println!(
        "== wsc-selfbench check-repeat: {} ==",
        provenance(seed).render()
    );
    let first = measure(&workloads, seed, &plan)?;
    let second = measure(&workloads, seed, &plan)?;
    let mut ok = report::print_repeat_table(&first, &second);
    for set in first.iter().chain(&second) {
        for p in set.problems() {
            println!("FAILED {}: {p}", set.workload.name());
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint every result carries.
fn provenance(seed: u64) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        ("seed", Value::Num(seed as f64)),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("threads_used", Value::Num(workloads::threads() as f64)),
        ("cpu_model", Value::str(cpu_model)),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("trace_span_cost_ns", Value::Num(spans::calibrate())),
    ])
}
