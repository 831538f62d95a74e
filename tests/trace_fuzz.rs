//! Seeded, structure-aware fuzz of the trace decoders.
//!
//! Each case mutates the text of a small recorded trace — flipped bytes,
//! truncated, dropped, duplicated or swapped lines, swapped, extra or
//! missing fields, and numbers at the edges of the packed event words (ids
//! at 2²⁶, sizes at 2²⁸, CPUs and sites at 16, nanoseconds at 2³⁰) and of
//! `u64` — and holds the decoders to four properties:
//!
//! 1. `Trace::from_text` returns a trace or a `ParseTraceError`, never a
//!    panic;
//! 2. a parsed trace's events are the lines parsed one by one, through
//!    push and iterate, and `collect` re-encodes them to the same list;
//! 3. `from_text(to_text(t)) == t`;
//! 4. a parsed trace that passes `Trace::check` on a small platform gets a
//!    result from `try_replay` — `Ok` or a refused allocation — never a
//!    panic, also when its clock reaches `u64::MAX`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use warehouse_alloc::prng::SmallRng;
use warehouse_alloc::sim_hw::topology::Platform;
use warehouse_alloc::sim_os::clock::Clock;
use warehouse_alloc::tcmalloc::{Tcmalloc, TcmallocConfig};
use warehouse_alloc::workload::profiles;
use warehouse_alloc::workload::trace::{Events, Trace, TraceEvent};

const CASES: u64 = 400;

/// Numbers on both sides of every packed field's limit, and `u64`'s.
const EDGES: [u64; 12] = [
    (1 << 26) - 1,
    1 << 26,
    (1 << 28) - 1,
    1 << 28,
    15,
    16,
    (1 << 30) - 1,
    1 << 30,
    0,
    1,
    u64::MAX,
    u64::MAX - 1,
];

/// Bytes a flip writes: the format's own alphabet and a few strangers.
const BYTES: &[u8] = b"0123456789 aft#-+x\t\r";

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

/// Applies one structure-aware mutation to `lines`.
fn mutate(rng: &mut SmallRng, lines: &mut Vec<String>) {
    if lines.is_empty() {
        lines.push(String::new());
    }
    let at = rng.gen_range(0..lines.len());
    let fields =
        |line: &str| -> Vec<String> { line.split_whitespace().map(str::to_owned).collect() };
    match rng.gen_range(0u32..9) {
        0 => {
            // Flip a byte.
            let line = &mut lines[at];
            if !line.is_empty() {
                let i = rng.gen_range(0..line.len());
                let b = *pick(rng, BYTES) as char;
                line.replace_range(i..=i, &b.to_string());
            }
        }
        1 => {
            // Truncate a line.
            let cut = rng.gen_range(0..lines[at].len() + 1);
            lines[at].truncate(cut);
        }
        2 => {
            // Swap two fields of a line.
            let mut f = fields(&lines[at]);
            if f.len() >= 2 {
                let (i, j) = (rng.gen_range(0..f.len()), rng.gen_range(0..f.len()));
                f.swap(i, j);
                lines[at] = f.join(" ");
            }
        }
        3 => {
            // An extra field.
            let edge = *pick(rng, &EDGES);
            lines[at].push_str(&format!(" {edge}"));
        }
        4 => {
            // A missing field.
            let mut f = fields(&lines[at]);
            if !f.is_empty() {
                f.remove(rng.gen_range(0..f.len()));
                lines[at] = f.join(" ");
            }
        }
        5 | 6 => {
            // A number at an edge, where the format has a number.
            let mut f = fields(&lines[at]);
            if f.len() >= 2 {
                let i = rng.gen_range(1..f.len());
                f[i] = pick(rng, &EDGES).to_string();
                lines[at] = f.join(" ");
            }
        }
        7 => {
            // Drop or duplicate a line.
            if rng.gen_range(0u32..2) == 0 {
                lines.remove(at);
            } else {
                let copy = lines[at].clone();
                lines.insert(at, copy);
            }
        }
        _ => {
            // Swap two lines.
            let other = rng.gen_range(0..lines.len());
            lines.swap(at, other);
        }
    }
}

/// Runs one case: `None` if the text does not parse, else whether the
/// trace passed the check and was replayed.
fn check_case(text: &str, platform: &Platform) -> Option<bool> {
    let trace = Trace::from_text(text).ok()?;
    // Every event line parsed alone, in order.
    let want: Vec<TraceEvent> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.parse().expect("from_text parsed every line"))
        .collect();
    let got: Vec<TraceEvent> = trace.events.iter().map(|ev| *ev).collect();
    assert_eq!(got, want, "push → iterate");
    assert_eq!(trace.events.len(), want.len());
    assert_eq!(want.iter().copied().collect::<Events>(), trace.events);
    assert_eq!(
        Trace::from_text(&trace.to_text()).as_ref(),
        Ok(&trace),
        "text round trip"
    );
    let checked = trace.check(platform).is_ok();
    if checked {
        let clock = Clock::new();
        let mut tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform.clone(), clock.clone());
        // `Ok` or a refused allocation; only a panic fails.
        let _ = trace.try_replay(&mut tcm, &clock);
    }
    Some(checked)
}

#[test]
fn a_trace_that_runs_to_the_end_of_time_replays() {
    // Mutations rarely keep a near-`u64::MAX` advance past the check, so
    // these are fixed: maintenance deadlines past the last nanosecond must
    // not overflow.
    let platform = Platform::chiplet("t", 1, 2, 4, 2);
    for text in [
        "t 18446744073709551615\na 0 64 0 0\nf 0 0\n",
        "a 0 1073741824 0 0\nt 18446744073709551615\nf 0 0\n",
        "t 18446744073709551000\na 0 64 0 0\nt 600\nf 0 0\na 1 100000000 3 3\nt 15\n",
        "t 9223372036854775808\na 0 64 0 0\nt 9223372036854775806\nf 0 0\nt 1\n",
    ] {
        assert_eq!(check_case(text, &platform), Some(true), "{text}");
    }
}

#[test]
fn mutated_trace_text_parses_round_trips_and_replays_without_panicking() {
    let platform = Platform::chiplet("t", 1, 2, 4, 2);
    let base: Vec<String> = Trace::record(&profiles::fleet_mix(), 12, 7)
        .to_text()
        .lines()
        .map(str::to_owned)
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x7ace_f022);
    let (mut parsed, mut checked) = (0, 0);
    for case in 0..CASES {
        let mut lines = base.clone();
        for _ in 0..rng.gen_range(1u32..4) {
            mutate(&mut rng, &mut lines);
        }
        let text = lines.join("\n");
        match catch_unwind(AssertUnwindSafe(|| check_case(&text, &platform))) {
            Ok(None) => {}
            Ok(Some(passed)) => {
                parsed += 1;
                checked += usize::from(passed);
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("?");
                panic!("case {case}: {what}\n--- text ---\n{text}");
            }
        }
    }
    // The mutations reach every stage: some cases fail to parse, some parse
    // and fail the check, some replay.
    assert!(
        parsed > CASES as usize / 5 && parsed < CASES as usize,
        "{parsed} parsed"
    );
    assert!(
        checked > CASES as usize / 10 && checked < parsed,
        "{checked} checked"
    );
}
