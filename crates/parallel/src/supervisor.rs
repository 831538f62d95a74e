//! Fault-tolerant supervision of process-shard folds.
//!
//! One crashed, hung, or garbled child must not abort a warehouse-scale
//! survey. [`run_supervised`] spawns the children of the [`crate::proc`]
//! protocol and walks every span through
//! `Waiting → Running(attempt) → Resolved` — a span has at most one attempt
//! in flight — under a four-field policy ([`SupervisorConfig`]):
//!
//! * an opt-in **per-attempt deadline** (a hung shard is killed, not
//!   waited on forever);
//! * a bounded **retry** budget with exponential backoff — recovery
//!   re-executes only the failed shard's leaf-aligned span,
//!   deterministically, because the span is a pure function of
//!   `(total, shard, shards)` and every cell seed derives from the global
//!   index;
//! * on an exhausted budget, optionally **split the span in half**
//!   ([`ShardRole::halves`]) and give each half a fresh budget, isolating
//!   a poison cell to ever-smaller spans;
//! * when a span still fails, **degrade gracefully**: the fold returns
//!   every recovered block plus a [`SpanFailure`] per lost span, so the
//!   caller can merge what survived and report exact coverage instead of
//!   aborting or silently lying.
//!
//! Each mechanism is the only one that recovers some cell of the chaos
//! matrix: retry a transient crash, the deadline a hang, the split a span
//! that fails as a whole.
//!
//! Determinism under failure: blocks are returned in canonical leaf order
//! and each block's payload is a pure function of its span, so any
//! crash/retry/split schedule that recovers all spans merges to the
//! byte-identical serial result. The supervisor's *timing* is wall-clock
//! (deadlines, backoff); its *results* are not.
//!
//! The module also hosts the shard-level fault injector ([`FaultPlan`],
//! `WSC_SHARD_FAULT`) that chaos tests and CI use to prove those claims:
//! a child builds one [`ShardChild`] and calls its
//! [`preflight`](ShardChild::preflight) / [`emit`](ShardChild::emit) at
//! the two protocol points, where the injector misbehaves on demand (crash
//! before payload, hang, corrupt frame, partial write, nonzero exit) —
//! mirroring the seeded `FaultInjector` style of `wsc_sim_os::faults`, but
//! at the process boundary instead of the syscall boundary.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proc::{decode_payload, encode_payload, ShardError, ShardRole, SHARD_ENV};
use crate::{fold_leaf_count, FoldSpan};

/// Environment variable carrying the shard fault plan (see [`FaultPlan`]).
pub const FAULT_ENV: &str = "WSC_SHARD_FAULT";
/// Environment variable carrying the 1-based attempt number to the child.
pub const ATTEMPT_ENV: &str = "WSC_SHARD_ATTEMPT";

/// Stderr lines retained per failed child (the tail — last writes are the
/// diagnostic ones).
pub const STDERR_TAIL_LINES: usize = 20;

/// Supervisor poll interval. Timing only — results never depend on it.
const POLL: Duration = Duration::from_millis(2);

/// Ceiling on any single backoff delay.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Largest accepted `retries` value; anything beyond is taken for a typo.
const MAX_RETRIES: u64 = 64;

/// Retry/deadline/recovery policy for one supervised fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Retries per span *after* the first attempt (budget = retries + 1).
    pub retries: u32,
    /// Delay before the first retry; the retry after failed attempt `n`
    /// waits `backoff · 2^min(n-1, 5)`, capped at 2 s. Zero = retry
    /// immediately.
    pub backoff: Duration,
    /// Kill an attempt that runs longer than this. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// On an exhausted budget, split the span in half
    /// ([`ShardRole::halves`]) and retry each half with a fresh budget.
    pub split: bool,
}

impl Default for SupervisorConfig {
    /// Two retries with 25 ms exponential backoff, split-in-half on
    /// exhaustion, and **no deadline** — a healthy span's wall time scales
    /// with its machine count and the host's load, so any fixed default
    /// eventually kills healthy shards on a slow or oversubscribed box (a
    /// 60 s default did exactly that to fleet-tier shards on a single-core
    /// runner, and each kill split the span and oversubscribed the box
    /// further). Deadlines are opt-in (`deadline-ms=<n>`) by callers who
    /// know their span cost.
    fn default() -> Self {
        Self {
            retries: 2,
            backoff: Duration::from_millis(25),
            deadline: None,
            split: true,
        }
    }
}

impl SupervisorConfig {
    /// Parses a policy string: comma-separated `<key>=<value>` items over
    /// the [`Default`], keys `retries=<0..=64>`, `backoff-ms=<n>`,
    /// `deadline-ms=<n>` (0 = none) and `split=<0|1>`. The empty string is
    /// the default. Unknown keys and malformed values are errors, not
    /// no-ops — a run with a typo'd policy must not quietly use another.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        for item in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let bad = |want: &str| format!("supervision policy item {item:?}: expected {want}");
            let (key, value) = item.split_once('=').ok_or_else(|| bad("<key>=<value>"))?;
            let number = |max: u64, want: &str| {
                let n = value.trim().parse::<u64>().ok();
                n.filter(|&n| n <= max).ok_or_else(|| bad(want))
            };
            match key.trim() {
                "retries" => {
                    let n = number(MAX_RETRIES, "retries=<0..=64>")?;
                    cfg.retries = u32::try_from(n).expect("bounded by MAX_RETRIES");
                }
                "backoff-ms" => {
                    cfg.backoff = Duration::from_millis(number(u64::MAX, "backoff-ms=<n>")?);
                }
                "deadline-ms" => {
                    let ms = number(u64::MAX, "deadline-ms=<n>")?;
                    cfg.deadline = (ms > 0).then(|| Duration::from_millis(ms));
                }
                "split" => cfg.split = number(1, "split=<0|1>")? == 1,
                _ => return Err(bad("one of retries, backoff-ms, deadline-ms, split")),
            }
        }
        Ok(cfg)
    }

    /// The wait before retrying after failed attempt `n` (1-based):
    /// `backoff · 2^min(n-1, 5)`, capped at [`MAX_BACKOFF`]. No jitter —
    /// one parent schedules every retry against no shared server.
    fn backoff_after(&self, failed_attempt: u32) -> Duration {
        let doublings = failed_attempt.saturating_sub(1).min(5);
        self.backoff.saturating_mul(1 << doublings).min(MAX_BACKOFF)
    }
}

/// One recovered span: the child's validated payload plus the machine-index
/// span it folds, which orders it ([`leaf_group`] gives its leaves).
#[derive(Clone, Debug)]
pub struct ShardBlock {
    /// The role that produced the payload (denominator may exceed the
    /// original shard count after splits).
    pub role: ShardRole,
    /// The machine-index span the payload folds.
    pub span: FoldSpan,
    /// The decoded, CRC-verified payload bytes.
    pub payload: Vec<u8>,
    /// Attempts this span's final role consumed (1 = first try).
    pub attempts: u32,
}

/// One unrecovered span: every retry (and split descendant) failed.
#[derive(Clone, Debug)]
pub struct SpanFailure {
    /// The failing role.
    pub role: ShardRole,
    /// The machine-index span that was lost.
    pub span: FoldSpan,
    /// Attempts consumed before giving up on this role.
    pub attempts: u32,
    /// The final attempt's error, child stderr tail attached.
    pub error: ShardError,
}

/// Deterministic-schedule-independent counters for one supervised fold.
/// Diagnostic only: values depend on wall-clock races (a deadline kill vs
/// a crash is timing), unlike the returned blocks, which never do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Children that actually started.
    pub spawned: u64,
    /// Attempts that returned a valid payload.
    pub ok: u64,
    /// Attempts that failed (crash, bad frame, deadline, spawn error).
    pub failed_attempts: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Spans split in half after an exhausted budget.
    pub splits: u64,
    /// Attempts killed by the per-attempt deadline.
    pub deadline_kills: u64,
}

/// The outcome of a supervised fold: recovered blocks in canonical leaf
/// order, lost spans (empty on full recovery), and run counters.
#[derive(Clone, Debug)]
pub struct SupervisedFold {
    /// Recovered payloads, sorted by leaf position — merging them in
    /// order reproduces the serial fold over the covered spans.
    pub blocks: Vec<ShardBlock>,
    /// Spans lost after retries (and splits) were exhausted, sorted by
    /// leaf position.
    pub failures: Vec<SpanFailure>,
    /// Run counters.
    pub stats: SupervisorStats,
}

impl SupervisedFold {
    /// Did every span recover?
    pub fn complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The leaf group `[first, last)` owned by `role` in a fold over `total`
/// indices — the same arithmetic as [`crate::process_shard_span`], exposed
/// for coverage accounting.
pub fn leaf_group(total: usize, role: ShardRole) -> (usize, usize) {
    let s = fold_leaf_count(total);
    let p = role.shards.max(1);
    (role.shard.min(p) * s / p, (role.shard + 1).min(p) * s / p)
}

fn span_of(total: usize, role: ShardRole) -> FoldSpan {
    crate::process_shard_span(total, role.shard, role.shards)
}

// ---------------------------------------------------------------------------
// Shard-level fault injector (child side)
// ---------------------------------------------------------------------------

/// What a shard fault does to the child protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Exit 101 before computing or emitting any payload.
    Crash,
    /// Stop responding before the payload (parent's deadline must kill).
    Hang,
    /// Emit the frame with one hex digit flipped in the body — still valid
    /// hex, so only the CRC trailer can catch it.
    Corrupt,
    /// Emit only the first half of the frame (no end marker): a torn pipe.
    Partial,
    /// Emit a *valid* frame, then exit 7 — proves exit status is checked
    /// even when the payload looks fine.
    Exit,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "crash" => Some(Self::Crash),
            "hang" => Some(Self::Hang),
            "corrupt" => Some(Self::Corrupt),
            "partial" => Some(Self::Partial),
            "exit" => Some(Self::Exit),
            _ => None,
        }
    }
}

/// One injected fault: a kind, a target shard (or all), and how many
/// attempts it poisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// What goes wrong.
    pub kind: FaultKind,
    /// The targeted shard index; `None` = every shard.
    pub shard: Option<usize>,
    /// The fault fires while the child's attempt number is ≤ this (so a
    /// budget of `attempts` retries recovers; `u32::MAX` never recovers).
    pub attempts: u32,
}

/// The shard fault plan carried in [`FAULT_ENV`]: comma-separated rules,
/// each `<kind>@<shard|*>[:<attempts>]`. Examples: `crash@1` (shard 1's
/// first attempt crashes), `hang@*:2` (every shard hangs on attempts 1–2),
/// `corrupt@0:forever` (shard 0 never emits a clean frame).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rules, applied first-match by shard.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a plan string. Malformed rules are errors, not no-ops — a
    /// chaos test with a typo'd plan must fail loudly, not pass vacuously.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind_s, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault rule {part:?}: missing `@<shard>`"))?;
            let kind = FaultKind::parse(kind_s.trim())
                .ok_or_else(|| format!("fault rule {part:?}: unknown kind {kind_s:?}"))?;
            let (shard_s, attempts_s) = match rest.split_once(':') {
                Some((s, a)) => (s.trim(), Some(a.trim())),
                None => (rest.trim(), None),
            };
            let shard = if shard_s == "*" {
                None
            } else {
                Some(
                    shard_s
                        .parse::<usize>()
                        .map_err(|_| format!("fault rule {part:?}: bad shard {shard_s:?}"))?,
                )
            };
            let attempts = match attempts_s {
                None => 1,
                Some("forever") => u32::MAX,
                Some(a) => a
                    .parse::<u32>()
                    .map_err(|_| format!("fault rule {part:?}: bad attempt count {a:?}"))?,
            };
            rules.push(FaultRule {
                kind,
                shard,
                attempts,
            });
        }
        Ok(Self { rules })
    }

    /// Reads the plan from [`FAULT_ENV`]. A malformed plan aborts the
    /// child (exit 3) so the misconfiguration surfaces as a shard failure.
    pub fn from_env() -> Self {
        match std::env::var(FAULT_ENV) {
            Err(_) => Self::default(),
            Ok(spec) => match Self::parse(&spec) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("wsc-shard-fault: {e}");
                    std::process::exit(3);
                }
            },
        }
    }

    /// The active fault for `shard` at 1-based `attempt`, if any.
    pub fn active(&self, shard: usize, attempt: u32) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| r.shard.is_none_or(|s| s == shard) && attempt <= r.attempts)
            .map(|r| r.kind)
    }
}

/// A shard child's view of the protocol: its role, its 1-based attempt
/// number, and the fault (if any) the chaos plan aims at this attempt —
/// each read from the environment once.
#[derive(Clone, Copy, Debug)]
pub struct ShardChild {
    /// This process's position in the sharded fold.
    pub role: ShardRole,
    attempt: u32,
    fault: Option<FaultKind>,
}

impl ShardChild {
    /// `Some` when this process is a shard child ([`SHARD_ENV`] holds a
    /// valid role). The attempt number comes from [`ATTEMPT_ENV`] (1 when
    /// absent, i.e. when run outside the supervisor), the fault from
    /// [`FaultPlan::from_env`].
    pub fn from_env() -> Option<Self> {
        let role = ShardRole::from_env()?;
        let attempt = std::env::var(ATTEMPT_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u32>().ok())
            .unwrap_or(1);
        let fault = FaultPlan::from_env().active(role.shard, attempt);
        Some(Self {
            role,
            attempt,
            fault,
        })
    }

    fn report_injected(&self, what: &str) {
        eprintln!(
            "wsc-shard-fault: injected {what} in shard {} attempt {}",
            self.role, self.attempt
        );
    }

    /// Pre-payload fault hook: call *before* folding. Injects the faults
    /// that strike before any payload exists: `crash` exits 101, `hang`
    /// sleeps forever (the parent's deadline reaps it).
    pub fn preflight(&self) {
        match self.fault {
            Some(FaultKind::Crash) => {
                self.report_injected("crash");
                std::process::exit(101);
            }
            Some(FaultKind::Hang) => {
                self.report_injected("hang");
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            _ => {}
        }
    }

    /// Emits `bytes` as the (possibly sabotaged) payload frame on stdout
    /// and returns the exit code the child must use.
    #[must_use = "the child must exit with the returned code"]
    pub fn emit(&self, bytes: &[u8]) -> i32 {
        let mut framed = encode_payload(bytes).into_bytes();
        let mut code = 0;
        match self.fault {
            Some(FaultKind::Corrupt) => {
                // Flip one hex digit in the body: still parses as hex, so the
                // CRC trailer is the only defense.
                let body = framed.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                if let Some(b) = framed.get_mut(body) {
                    *b = if *b == b'0' { b'1' } else { b'0' };
                }
                self.report_injected("frame corruption");
            }
            Some(FaultKind::Partial) => {
                framed.truncate(framed.len() / 2);
                self.report_injected("partial write");
            }
            Some(FaultKind::Exit) => {
                code = 7;
                self.report_injected("nonzero exit");
            }
            _ => {}
        }
        println!("{}", String::from_utf8(framed).expect("frame is ASCII"));
        code
    }
}

// ---------------------------------------------------------------------------
// Supervisor (parent side)
// ---------------------------------------------------------------------------

/// A span has at most one attempt in flight, so the attempt lives in the
/// state.
enum JobState {
    /// Waiting to (re)spawn once the backoff deadline passes.
    Waiting {
        not_before: Instant,
    },
    Running(Attempt),
    /// Block recorded, failure recorded, or superseded by a split.
    Resolved,
}

struct Job {
    role: ShardRole,
    /// Attempts started so far (the running one included).
    attempts: u32,
    state: JobState,
}

impl Job {
    fn new(role: ShardRole, not_before: Instant) -> Self {
        Self {
            role,
            attempts: 0,
            state: JobState::Waiting { not_before },
        }
    }
}

struct Attempt {
    child: Child,
    started: Instant,
    stdout: JoinHandle<Vec<u8>>,
    stderr: JoinHandle<Vec<String>>,
}

/// How an attempt ended: the validated payload, or what went wrong plus the
/// child's stderr tail.
type Verdict = Result<Vec<u8>, (String, Vec<String>)>;

impl Attempt {
    fn spawn(
        program: &Path,
        args: &[String],
        extra_env: &[(String, String)],
        role: ShardRole,
        number: u32,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(program);
        cmd.args(args)
            .env(SHARD_ENV, role.to_string())
            .env(ATTEMPT_ENV, number.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in extra_env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("failed to spawn shard child: {e}"))?;
        let mut out_pipe = child.stdout.take().expect("stdout was piped");
        let err_pipe = child.stderr.take().expect("stderr was piped");
        // Reader threads drain both pipes concurrently so a child that fills
        // one pipe's buffer can never deadlock against a parent reading the
        // other. They exit at EOF, which kill() forces.
        let stdout = std::thread::spawn(move || {
            let mut buf = Vec::new();
            let _ = out_pipe.read_to_end(&mut buf);
            buf
        });
        let stderr = std::thread::spawn(move || {
            let mut tail: VecDeque<String> = VecDeque::with_capacity(STDERR_TAIL_LINES);
            for line in BufReader::new(err_pipe).lines().map_while(Result::ok) {
                if tail.len() == STDERR_TAIL_LINES {
                    tail.pop_front();
                }
                tail.push_back(line);
            }
            tail.into_iter().collect()
        });
        Ok(Self {
            child,
            // lint:allow(wall-clock) Supervision timing (deadlines, backoff)
            // is transport-level wall-clock by nature; fold *results* stay
            // seeded.
            started: Instant::now(),
            stdout,
            stderr,
        })
    }

    /// Checks on the child once. `Err(self)` = still running within
    /// `deadline`; otherwise the attempt is over, one way or another.
    fn poll(
        mut self,
        deadline: Option<Duration>,
        now: Instant,
        stats: &mut SupervisorStats,
    ) -> Result<Verdict, Self> {
        match self.child.try_wait() {
            Ok(Some(status)) => {
                let (out, tail) = self.reap();
                Ok(validate(status, &out).map_err(|msg| (msg, tail)))
            }
            Ok(None) => {
                let elapsed = now.saturating_duration_since(self.started);
                if deadline.is_none_or(|d| elapsed <= d) {
                    return Err(self);
                }
                stats.deadline_kills += 1;
                let msg = format!("deadline exceeded after {} ms", elapsed.as_millis());
                Ok(Err((msg, self.kill())))
            }
            Err(e) => Ok(Err((format!("wait failed: {e}"), self.kill()))),
        }
    }

    /// Joins both pipe readers of an exited child: `(stdout, stderr tail)`.
    fn reap(self) -> (Vec<u8>, Vec<String>) {
        let out = self.stdout.join().unwrap_or_default();
        let err = self.stderr.join().unwrap_or_default();
        (out, err)
    }

    /// Kills the child and returns what it had written to stderr.
    fn kill(mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reap().1
    }
}

/// Validates one finished attempt: exit status, then frame integrity.
fn validate(status: ExitStatus, stdout_bytes: &[u8]) -> Result<Vec<u8>, String> {
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    decode_payload(&String::from_utf8_lossy(stdout_bytes))
}

/// Runs a supervised process-shard fold: `shards` children of `program`
/// over a fold of `total` indices, under `cfg`'s retry/deadline/recovery
/// policy. Children inherit the parent environment plus `args`,
/// [`SHARD_ENV`], [`ATTEMPT_ENV`], and `extra_env` (applied last).
///
/// Always returns: lost spans come back as [`SpanFailure`]s, never as a
/// panic or an early abort. `fold.complete()` distinguishes full recovery.
pub fn run_supervised(
    program: &Path,
    args: &[String],
    extra_env: &[(String, String)],
    shards: usize,
    total: usize,
    cfg: &SupervisorConfig,
) -> SupervisedFold {
    let shards = shards.max(1);
    let budget = cfg.retries + 1;
    // lint:allow(wall-clock) Supervision timing only.
    let start = Instant::now();
    let mut jobs: Vec<Job> = (0..shards)
        .map(|shard| Job::new(ShardRole { shard, shards }, start))
        .collect();
    let mut fold = SupervisedFold {
        blocks: Vec::new(),
        failures: Vec::new(),
        stats: SupervisorStats::default(),
    };
    let stats = &mut fold.stats;

    loop {
        // lint:allow(wall-clock) Supervision timing only; one read per pass.
        let now = Instant::now();
        // Index loop: a split pushes the halves, which this same pass
        // then spawns.
        let mut j = 0;
        while j < jobs.len() {
            let job = &mut jobs[j];
            j += 1;
            // Advance the job one step; only an attempt that just ended
            // (or never started) falls through to the verdict below.
            let verdict = match std::mem::replace(&mut job.state, JobState::Resolved) {
                JobState::Resolved => continue,
                JobState::Waiting { not_before } if now < not_before => {
                    job.state = JobState::Waiting { not_before };
                    continue;
                }
                JobState::Waiting { .. } => {
                    job.attempts += 1;
                    match Attempt::spawn(program, args, extra_env, job.role, job.attempts) {
                        Ok(attempt) => {
                            stats.spawned += 1;
                            job.state = JobState::Running(attempt);
                            continue;
                        }
                        Err(msg) => Err((msg, Vec::new())),
                    }
                }
                JobState::Running(attempt) => match attempt.poll(cfg.deadline, now, stats) {
                    Ok(verdict) => verdict,
                    Err(attempt) => {
                        job.state = JobState::Running(attempt);
                        continue;
                    }
                },
            };

            let (role, attempts) = (job.role, job.attempts);
            let (msg, stderr_tail) = match verdict {
                Ok(payload) => {
                    stats.ok += 1;
                    fold.blocks.push(ShardBlock {
                        role,
                        span: span_of(total, role),
                        payload,
                        attempts,
                    });
                    continue;
                }
                Err(failed) => failed,
            };

            // The one place a failed attempt becomes retry | split | lost.
            stats.failed_attempts += 1;
            let error = ShardError {
                shard: role.shard,
                message: format!("attempt {attempts}: {msg}"),
                stderr_tail,
            };
            // Surface the failed attempt now (error message + child stderr
            // tail): a fault that retries successfully must still be
            // diagnosable from the parent's stderr, not silently absorbed.
            eprintln!("wsc-shard-supervisor: shard {role} attempt {attempts}/{budget}: {error}");
            let [left, right] = role.halves();
            let (leaf_lo, leaf_hi) = leaf_group(total, role);
            let mid = leaf_group(total, left).1;
            if attempts < budget {
                let delay = cfg.backoff_after(attempts);
                stats.retries += 1;
                eprintln!(
                    "wsc-shard-supervisor: shard {role} retrying in {} ms",
                    delay.as_millis()
                );
                job.state = JobState::Waiting {
                    not_before: now + delay,
                };
            } else if cfg.split && leaf_hi - leaf_lo >= 2 && leaf_lo < mid && mid < leaf_hi {
                stats.splits += 1;
                eprintln!(
                    "wsc-shard-supervisor: shard {role} exhausted {attempts} attempts; \
                     splitting into {left} and {right}"
                );
                // `job` stays Resolved: superseded by its halves.
                jobs.push(Job::new(left, now));
                jobs.push(Job::new(right, now));
            } else {
                eprintln!(
                    "wsc-shard-supervisor: shard {role} LOST after {attempts} attempts: {}",
                    error.message
                );
                fold.failures.push(SpanFailure {
                    role,
                    span: span_of(total, role),
                    attempts,
                    error,
                });
            }
        }

        if jobs.iter().all(|j| matches!(j.state, JobState::Resolved)) {
            break;
        }
        std::thread::sleep(POLL);
    }

    // Canonical result order is span position, which is leaf position: an
    // index span is its leaf group mapped through the monotone leaf bounds.
    // Only empty spans (more shards than leaves) can tie on it; they never
    // split, so they share the original denominator and the shard index
    // orders them.
    fold.blocks
        .sort_by_key(|b| (b.span.lo, b.span.hi, b.role.shard));
    fold.failures
        .sort_by_key(|f| (f.span.lo, f.span.hi, f.role.shard));
    fold
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::path::PathBuf;

    impl SupervisorConfig {
        /// All-or-nothing: one attempt per shard, no deadline, no recovery.
        const STRICT: Self = Self {
            retries: 0,
            backoff: Duration::ZERO,
            deadline: None,
            split: false,
        };
    }

    /// A scratch dir keyed by pid + a per-test name (no wall-clock, no
    /// ambient RNG — the determinism rules apply to tests too).
    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wsc-supervisor-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn role(shard: usize, shards: usize) -> ShardRole {
        ShardRole { shard, shards }
    }

    /// Writes per-role frame files `frame_<s>_<P>` holding the canonical
    /// payload for that role: the bytes `lo..hi` of the span over `total`.
    fn write_frames(dir: &std::path::Path, total: usize, roles: &[(usize, usize)]) {
        for &(s, p) in roles {
            let span = span_of(total, role(s, p));
            let bytes: Vec<u8> = (span.lo..span.hi).map(|i| i as u8).collect();
            let mut f = std::fs::File::create(dir.join(format!("frame_{s}_{p}")))
                .expect("create frame file");
            f.write_all(encode_payload(&bytes).as_bytes())
                .expect("write frame");
            f.write_all(b"\n").expect("write trailing newline");
        }
    }

    /// The serial reference: bytes 0..total.
    fn serial_bytes(total: usize) -> Vec<u8> {
        (0..total).map(|i| i as u8).collect()
    }

    fn merged(fold: &SupervisedFold) -> Vec<u8> {
        fold.blocks.iter().flat_map(|b| b.payload.clone()).collect()
    }

    /// `/bin/sh -ec '<guard>; cat <this role's frame file>'`: a child that
    /// succeeds unless `guard` exits first.
    fn child(dir: &std::path::Path, guard: &str) -> (PathBuf, Vec<String>) {
        let script = format!(
            r#"{guard}
               cat "{}/frame_$(printf %s "$WSC_SHARD" | tr / _)""#,
            dir.display()
        );
        (PathBuf::from("/bin/sh"), vec!["-ec".to_string(), script])
    }

    #[test]
    fn healthy_fold_recovers_all_spans_in_order() {
        let dir = scratch("healthy");
        write_frames(&dir, 100, &[(0, 3), (1, 3), (2, 3)]);
        let (prog, args) = child(&dir, "");
        let fold = run_supervised(&prog, &args, &[], 3, 100, &SupervisorConfig::STRICT);
        assert!(fold.complete(), "failures: {:?}", fold.failures);
        assert_eq!(fold.blocks.len(), 3);
        assert_eq!(merged(&fold), serial_bytes(100));
        assert_eq!(fold.stats.ok, 3);
        assert_eq!(fold.stats.spawned, 3);
        assert!(fold.blocks.windows(2).all(|w| w[0].span.hi <= w[1].span.lo));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_then_retry_recovers_byte_identical() {
        let dir = scratch("retry");
        write_frames(&dir, 64, &[(0, 2), (1, 2)]);
        // Shard 1 exits 9 on its first attempt, succeeds on the second.
        let (prog, args) = child(
            &dir,
            r#"if [ "$WSC_SHARD" = "1/2" ] && [ "$WSC_SHARD_ATTEMPT" -lt 2 ]; then
                 echo "injected crash" >&2; exit 9
               fi"#,
        );
        let cfg = SupervisorConfig {
            retries: 2,
            backoff: Duration::from_millis(1),
            split: false,
            ..SupervisorConfig::STRICT
        };
        let fold = run_supervised(&prog, &args, &[], 2, 64, &cfg);
        assert!(fold.complete(), "failures: {:?}", fold.failures);
        assert_eq!(merged(&fold), serial_bytes(64));
        assert_eq!(fold.stats.failed_attempts, 1);
        assert_eq!(fold.stats.retries, 1);
        assert_eq!(fold.blocks[1].attempts, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_budget_degrades_with_exact_loss_accounting() {
        let dir = scratch("exhaust");
        write_frames(&dir, 80, &[(0, 2), (1, 2)]);
        let (prog, args) = child(
            &dir,
            r#"if [ "$WSC_SHARD" = "0/2" ]; then echo "poison cell" >&2; exit 13; fi"#,
        );
        let cfg = SupervisorConfig {
            retries: 1,
            split: false,
            ..SupervisorConfig::STRICT
        };
        let fold = run_supervised(&prog, &args, &[], 2, 80, &cfg);
        assert!(!fold.complete());
        assert_eq!(fold.failures.len(), 1);
        let lost = &fold.failures[0];
        assert_eq!(lost.role, role(0, 2));
        assert_eq!(lost.span, span_of(80, lost.role));
        assert_eq!(lost.attempts, 2, "retry budget consumed");
        assert!(
            lost.error.message.contains("exit status: 13"),
            "{}",
            lost.error.message
        );
        assert!(
            lost.error
                .stderr_tail
                .iter()
                .any(|l| l.contains("poison cell")),
            "stderr tail captured: {:?}",
            lost.error.stderr_tail
        );
        // The surviving block still covers its exact span.
        assert_eq!(fold.blocks.len(), 1);
        let span = span_of(80, role(1, 2));
        assert_eq!(
            fold.blocks[0].payload,
            (span.lo..span.hi).map(|i| i as u8).collect::<Vec<u8>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_on_exhaustion_halves_the_span_and_recovers() {
        let dir = scratch("split");
        write_frames(&dir, 60, &[(0, 2), (1, 2), (0, 4), (1, 4)]);
        // Role 0/2 always fails; its halves 0/4 and 1/4 succeed.
        let (prog, args) = child(&dir, r#"if [ "$WSC_SHARD" = "0/2" ]; then exit 5; fi"#);
        let cfg = SupervisorConfig {
            retries: 0,
            split: true,
            ..SupervisorConfig::STRICT
        };
        let fold = run_supervised(&prog, &args, &[], 2, 60, &cfg);
        assert!(fold.complete(), "failures: {:?}", fold.failures);
        assert_eq!(fold.stats.splits, 1);
        assert_eq!(fold.blocks.len(), 3, "two halves + shard 1");
        assert_eq!(
            merged(&fold),
            serial_bytes(60),
            "split recovery is byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_isolates_a_poison_half_with_exact_coverage() {
        let dir = scratch("poison");
        write_frames(&dir, 40, &[(0, 1), (0, 2), (1, 2)]);
        // The whole fold (0/1) fails, as does the first half (0/2) — only
        // the second half survives. Coverage must be exactly its span.
        let (prog, args) = child(
            &dir,
            r#"case "$WSC_SHARD" in 0/1|0/2|0/4|1/4) exit 5;; esac"#,
        );
        let cfg = SupervisorConfig {
            retries: 0,
            split: true,
            ..SupervisorConfig::STRICT
        };
        let fold = run_supervised(&prog, &args, &[], 1, 40, &cfg);
        assert!(!fold.complete());
        let survivor = span_of(40, role(1, 2));
        let lost_total: usize = fold.failures.iter().map(|f| f.span.hi - f.span.lo).sum();
        let recovered_total: usize = fold.blocks.iter().map(|b| b.span.hi - b.span.lo).sum();
        assert_eq!(recovered_total, survivor.hi - survivor.lo);
        assert_eq!(
            lost_total + recovered_total,
            40,
            "spans account for every index"
        );
        assert_eq!(
            merged(&fold),
            (survivor.lo..survivor.hi)
                .map(|i| i as u8)
                .collect::<Vec<u8>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_kills_hung_shard_and_retry_recovers() {
        let dir = scratch("hang");
        write_frames(&dir, 32, &[(0, 2), (1, 2)]);
        // Shard 0 hangs on attempt 1 (exec so the kill reaches the sleeper
        // and the pipe closes), succeeds on attempt 2.
        let (prog, args) = child(
            &dir,
            r#"if [ "$WSC_SHARD" = "0/2" ] && [ "$WSC_SHARD_ATTEMPT" -lt 2 ]; then
                 exec sleep 30
               fi"#,
        );
        let cfg = SupervisorConfig {
            retries: 1,
            deadline: Some(Duration::from_millis(300)),
            ..SupervisorConfig::STRICT
        };
        let fold = run_supervised(&prog, &args, &[], 2, 32, &cfg);
        assert!(fold.complete(), "failures: {:?}", fold.failures);
        assert_eq!(fold.stats.deadline_kills, 1);
        assert_eq!(merged(&fold), serial_bytes(32));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_frame_is_rejected_not_merged() {
        let dir = scratch("corrupt");
        write_frames(&dir, 16, &[(0, 1)]);
        // Attempt 1 garbles one hex digit of the body (CRC must catch);
        // attempt 2 is clean.
        let frame = dir.join("frame_0_1");
        let clean = std::fs::read_to_string(&frame).unwrap();
        let garbled = {
            let body = clean.find('\n').unwrap() + 1;
            let mut b = clean.clone().into_bytes();
            b[body] = if b[body] == b'0' { b'1' } else { b'0' };
            String::from_utf8(b).unwrap()
        };
        std::fs::write(dir.join("garbled_0_1"), garbled).unwrap();
        let guard = format!(
            r#"if [ "$WSC_SHARD_ATTEMPT" -lt 2 ]; then exec cat "{}/garbled_0_1"; fi"#,
            dir.display()
        );
        let (prog, args) = child(&dir, &guard);
        let cfg = SupervisorConfig {
            retries: 1,
            ..SupervisorConfig::STRICT
        };
        let fold = run_supervised(&prog, &args, &[], 1, 16, &cfg);
        assert!(fold.complete(), "failures: {:?}", fold.failures);
        assert_eq!(
            fold.stats.failed_attempts, 1,
            "corrupt frame counted as failure"
        );
        assert_eq!(merged(&fold), serial_bytes(16));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_plan_parses_and_matches() {
        let plan = FaultPlan::parse("crash@1, hang@*:2, corrupt@0:forever").unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.active(1, 1), Some(FaultKind::Crash));
        assert_eq!(
            plan.active(1, 2),
            Some(FaultKind::Hang),
            "wildcard covers attempt 2"
        );
        assert_eq!(plan.active(1, 3), None);
        assert_eq!(
            plan.active(0, 1),
            Some(FaultKind::Hang),
            "first matching rule wins (crash@1 does not cover shard 0)"
        );
        assert_eq!(
            plan.active(0, 99),
            Some(FaultKind::Corrupt),
            "forever persists"
        );
        assert_eq!(plan.active(2, 3), None);
        assert!(FaultPlan::parse("").unwrap().rules.is_empty());
        for bad in ["crash", "boom@1", "crash@x", "crash@1:y"] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn policy_parses_and_rejects_typos() {
        assert_eq!(SupervisorConfig::parse(""), Ok(SupervisorConfig::default()));
        // No default deadline: healthy span wall time scales with span size
        // and host load, so a fixed default would kill healthy shards on
        // slow boxes (it did — fleet-tier shards on a single-core runner).
        assert_eq!(SupervisorConfig::default().deadline, None);
        assert_eq!(
            SupervisorConfig::parse("retries=5, backoff-ms=10 ,deadline-ms=1500,split=0"),
            Ok(SupervisorConfig {
                retries: 5,
                backoff: Duration::from_millis(10),
                deadline: Some(Duration::from_millis(1500)),
                split: false,
            })
        );
        assert_eq!(
            SupervisorConfig::parse("retries=0,backoff-ms=0,deadline-ms=0,split=0"),
            Ok(SupervisorConfig::STRICT),
            "zero disables the deadline"
        );
        assert_eq!(
            SupervisorConfig::parse("retries=64,split=1").map(|c| (c.retries, c.split)),
            Ok((64, true)),
            "unnamed keys keep their defaults"
        );
        for bad in [
            "retries",
            "retries=x",
            "retries=65",
            "retrys=1",
            "split=2",
            "twin-ms=5",
            "deadline-ms=-1",
        ] {
            let err = SupervisorConfig::parse(&format!("backoff-ms=1,{bad}")).unwrap_err();
            assert!(
                err.contains(&format!("{bad:?}")),
                "{bad:?} not named: {err}"
            );
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let ms = Duration::from_millis;
        let cfg = SupervisorConfig::default();
        assert_eq!(cfg.backoff, ms(25));
        assert_eq!(
            [1, 2, 3].map(|n| cfg.backoff_after(n)),
            [ms(25), ms(50), ms(100)]
        );
        assert_eq!(cfg.backoff_after(30), ms(800), "doubling stops at 2^5");
        let slow = SupervisorConfig {
            backoff: ms(1_000),
            ..cfg
        };
        assert_eq!(slow.backoff_after(1), ms(1_000));
        assert_eq!(slow.backoff_after(3), MAX_BACKOFF);
        assert_eq!(SupervisorConfig::STRICT.backoff_after(7), Duration::ZERO);
    }

    #[test]
    fn split_roles_tile_the_parent_exactly() {
        for total in [10usize, 100, 257, 100_000] {
            for shards in [1usize, 2, 3, 5] {
                for s in 0..shards {
                    let parent = role(s, shards);
                    let (pf, pl) = leaf_group(total, parent);
                    let [left, right] = parent.halves();
                    assert_eq!(left, role(2 * s, 2 * shards));
                    assert_eq!(right, role(2 * s + 1, 2 * shards));
                    let (lf, ll) = leaf_group(total, left);
                    let (rf, rl) = leaf_group(total, right);
                    assert_eq!(lf, pf, "left half starts at the parent start");
                    assert_eq!(rl, pl, "right half ends at the parent end");
                    assert_eq!(ll, rf, "halves are contiguous");
                    let ps = span_of(total, parent);
                    let ls = span_of(total, left);
                    let rs = span_of(total, right);
                    assert_eq!(ls.lo, ps.lo);
                    assert_eq!(rs.hi, ps.hi);
                    assert_eq!(ls.hi, rs.lo);
                }
            }
        }
    }

    #[test]
    fn failing_shards_come_back_in_leaf_order_with_their_stderr() {
        let dir = scratch("strict");
        write_frames(&dir, 48, &[(0, 3), (1, 3), (2, 3)]);
        let (prog, args) = child(
            &dir,
            r#"case "$WSC_SHARD" in 1/3|2/3) echo "down $WSC_SHARD" >&2; exit 4;; esac"#,
        );
        let fold = run_supervised(&prog, &args, &[], 3, 48, &SupervisorConfig::STRICT);
        assert_eq!(fold.blocks.len(), 1);
        assert_eq!(fold.blocks[0].role.shard, 0);
        let lost: Vec<usize> = fold.failures.iter().map(|f| f.role.shard).collect();
        assert_eq!(lost, [1, 2], "leaf order, lowest failing shard first");
        for f in &fold.failures {
            assert_eq!(f.error.shard, f.role.shard);
            assert_eq!(f.error.stderr_tail, [format!("down {}", f.role)]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unspawnable_program_loses_every_span_without_panicking() {
        let cfg = SupervisorConfig {
            retries: 2,
            ..SupervisorConfig::STRICT
        };
        let prog = PathBuf::from("/nonexistent/wsc-shard-child");
        let fold = run_supervised(&prog, &[], &[], 2, 10, &cfg);
        assert!(fold.blocks.is_empty());
        assert_eq!(fold.failures.len(), 2);
        for (shard, f) in fold.failures.iter().enumerate() {
            assert_eq!(f.role, role(shard, 2));
            assert_eq!(f.span, span_of(10, f.role));
            assert_eq!(f.attempts, 3, "retry budget consumed");
            assert!(
                f.error.message.contains("failed to spawn"),
                "{}",
                f.error.message
            );
        }
        assert_eq!(fold.stats.spawned, 0, "no child ever started");
        assert_eq!(fold.stats.failed_attempts, 6);
        assert_eq!(fold.stats.retries, 4);
    }

    #[test]
    fn more_shards_than_leaves_keeps_shard_order() {
        let dir = scratch("tiny");
        let roles: Vec<(usize, usize)> = (0..8).map(|s| (s, 8)).collect();
        write_frames(&dir, 3, &roles);
        // Shards 0 and 3 own empty spans at the same leaf position as
        // their right-hand neighbour; the delay makes them finish second,
        // so completion order alone would misplace them. (A slow host can
        // only make the delay moot, never fail the test.)
        let (prog, args) = child(&dir, r#"case "$WSC_SHARD" in 0/8|3/8) sleep 0.3;; esac"#);
        let fold = run_supervised(&prog, &args, &[], 8, 3, &SupervisorConfig::STRICT);
        assert!(fold.complete(), "failures: {:?}", fold.failures);
        let order: Vec<usize> = fold.blocks.iter().map(|b| b.role.shard).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7], "empty spans tie on leaves");
        assert_eq!(
            fold.blocks.iter().filter(|b| b.payload.is_empty()).count(),
            5
        );
        assert_eq!(merged(&fold), serial_bytes(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
