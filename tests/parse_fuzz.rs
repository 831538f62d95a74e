//! Seeded fuzz of the shard supervisor's text inputs: the `--supervise`
//! policy (`SupervisorConfig::parse`), the chaos plan read from
//! `WSC_SHARD_FAULT` (`FaultPlan::parse`) and a child's role read from
//! `WSC_SHARD` (`ShardRole::parse`).
//!
//! Most inputs are lists of items whose validity is known by construction —
//! well-formed items with random values and padding, and items broken in
//! one way each — and the rest are random text. They hold the parsers to
//! three properties:
//!
//! 1. no input panics;
//! 2. an input with a malformed item is an `Err` (`None` for a role), and
//!    every other input parses to exactly the value its items describe;
//! 3. `ShardRole::parse(&role.to_string()) == Some(role)` for every role.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use warehouse_alloc::parallel::proc::ShardRole;
use warehouse_alloc::parallel::supervisor::{FaultKind, FaultPlan, FaultRule, SupervisorConfig};
use warehouse_alloc::prng::SmallRng;

/// Inputs per parser, each seeded by its index.
const CASES: u64 = 4_000;

/// Characters the grammars use, whitespace and a two-byte one: what random
/// text is drawn from.
const ALPHABET: &[char] = &[
    '0', '1', '2', '9', '-', '+', '=', ',', '@', ':', '*', '/', '.', ' ', '\t', 'r', 'e', 't', 'i',
    's', 'b', 'a', 'c', 'k', 'o', 'f', 'm', 'd', 'l', 'n', 'p', 'h', 'g', 'u', 'x', 'é',
];

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// `s` with zero to two spaces on either side, which every field trims.
fn pad(rng: &mut SmallRng, s: &str) -> String {
    let spaces = |rng: &mut SmallRng| " ".repeat(rng.gen_range(0usize..3));
    format!("{}{s}{}", spaces(rng), spaces(rng))
}

/// `n` in decimal, sometimes with leading zeros or a `+`, which
/// `str::parse` accepts.
fn decimal(rng: &mut SmallRng, n: u64) -> String {
    match rng.gen_range(0u32..4) {
        0 => format!("00{n}"),
        1 => format!("+{n}"),
        _ => n.to_string(),
    }
}

/// A value of up to 64 bits: 0 a quarter of the time, else of a random
/// width, so small ones come up often.
fn value(rng: &mut SmallRng) -> u64 {
    if rng.gen_range(0u32..4) == 0 {
        return 0;
    }
    let bits = rng.gen_range(0u32..65);
    rng.gen::<u64>().checked_shr(64 - bits).unwrap_or(0)
}

fn random_text(rng: &mut SmallRng) -> String {
    (0..rng.gen_range(0usize..40))
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

/// A comma-separated list of `items` (empty items among them, which every
/// list parser skips).
fn join(rng: &mut SmallRng, items: &[String]) -> String {
    let mut text = String::new();
    for item in items {
        if rng.gen_range(0u32..8) == 0 {
            text.push_str(" ,");
        }
        text.push_str(item);
        text.push(',');
    }
    if rng.gen::<bool>() {
        text.pop();
    }
    text
}

/// One `--supervise` item and whether it is well formed; a well-formed one
/// is applied to `cfg`.
fn policy_item(rng: &mut SmallRng, cfg: &mut SupervisorConfig) -> (String, bool) {
    let n = value(rng);
    let (key, text, ok) = match rng.gen_range(0u32..12) {
        0 | 1 => {
            let r = rng.gen_range(0u64..=64);
            cfg.retries = r as u32;
            ("retries", decimal(rng, r), true)
        }
        2 | 3 => {
            cfg.backoff = Duration::from_millis(n);
            ("backoff-ms", decimal(rng, n), true)
        }
        4 | 5 => {
            cfg.deadline = (n > 0).then(|| Duration::from_millis(n));
            ("deadline-ms", decimal(rng, n), true)
        }
        6 | 7 => {
            let on = rng.gen::<bool>();
            cfg.split = on;
            ("split", decimal(rng, u64::from(on)), true)
        }
        // Out of range (just past the bound as often as not), unknown keys,
        // no `=`, values that are no number.
        8 => ("retries", decimal(rng, 65u64.saturating_add(n)), false),
        9 => ("split", decimal(rng, 2u64.saturating_add(n)), false),
        10 => (
            pick(
                rng,
                &["retrys", "Retries", "backoff", "deadline", "", "split-ms"],
            ),
            n.to_string(),
            false,
        ),
        _ => {
            let key = pick(rng, &["retries", "backoff-ms", "deadline-ms", "split"]);
            let bad = pick(rng, &["", "-1", "x", "1.5", "1e3", "18446744073709551616"]);
            if rng.gen::<bool>() {
                return (format!("{key}{}", pad(rng, "")), false);
            }
            (key, bad.to_string(), false)
        }
    };
    (format!("{}={}", pad(rng, key), pad(rng, &text)), ok)
}

/// One fault rule's text and the rule, or `None` for a malformed one.
fn fault_item(rng: &mut SmallRng) -> (String, Option<FaultRule>) {
    let kinds = [
        ("crash", FaultKind::Crash),
        ("hang", FaultKind::Hang),
        ("corrupt", FaultKind::Corrupt),
        ("partial", FaultKind::Partial),
        ("exit", FaultKind::Exit),
    ];
    let (kind_s, kind) = kinds[rng.gen_range(0..kinds.len())];
    let shard = rng.gen::<bool>().then(|| value(rng) as usize);
    let shard_s = shard.map_or_else(|| "*".to_string(), |s| decimal(rng, s as u64));
    let (attempts_s, attempts) = match rng.gen_range(0u32..3) {
        0 => (None, 1),
        1 => (Some("forever".to_string()), u32::MAX),
        _ => {
            let a = rng.gen::<u32>() >> rng.gen_range(0u32..32);
            (Some(decimal(rng, u64::from(a))), a)
        }
    };
    let mut parts = (
        kind_s.to_string(),
        Some(shard_s),
        attempts_s.map(|a| pad(rng, &a)),
    );
    let valid = rng.gen_range(0u32..4) != 0;
    if !valid {
        match rng.gen_range(0u32..4) {
            0 => parts.0 = pick(rng, &["crsh", "Crash", "", "crash!", "*"]).to_string(),
            1 => parts.1 = None,
            2 => {
                let bad = pick(rng, &["", "x", "-1", "1.0", "18446744073709551616", "**"]);
                parts.1 = Some(bad.to_string());
            }
            _ => {
                let bad = pick(rng, &["", "x", "-1", "Forever", "4294967296", "1:2"]);
                parts.2 = Some(bad.to_string());
            }
        }
    }
    let mut text = pad(rng, &parts.0);
    if let Some(shard_s) = parts.1 {
        text = format!("{text}@{}", pad(rng, &shard_s));
    }
    if let Some(attempts_s) = parts.2 {
        text = format!("{text}:{attempts_s}");
    }
    let rule = valid.then_some(FaultRule {
        kind,
        shard,
        attempts,
    });
    (text, rule)
}

#[test]
fn the_supervision_policy_parser_is_total_and_exact() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (text, want) = if case % 5 == 0 {
            (random_text(&mut rng), None)
        } else {
            let mut cfg = SupervisorConfig::default();
            let mut valid = true;
            let items: Vec<String> = (0..rng.gen_range(0usize..6))
                .map(|_| {
                    let (item, ok) = policy_item(&mut rng, &mut cfg);
                    valid &= ok;
                    item
                })
                .collect();
            (join(&mut rng, &items), Some(valid.then_some(cfg)))
        };
        let got = catch_unwind(AssertUnwindSafe(|| SupervisorConfig::parse(&text)))
            .unwrap_or_else(|_| panic!("case {case}: parsing {text:?} panicked"));
        match want {
            Some(Some(cfg)) => assert_eq!(got, Ok(cfg), "case {case}: {text:?}"),
            Some(None) => assert!(got.is_err(), "case {case}: {text:?} parsed"),
            None => {}
        }
    }
}

#[test]
fn the_fault_plan_parser_is_total_and_exact() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (text, want) = if case % 5 == 0 {
            (random_text(&mut rng), None)
        } else {
            let (items, rules): (Vec<String>, Vec<Option<FaultRule>>) = (0..rng
                .gen_range(0usize..5))
                .map(|_| fault_item(&mut rng))
                .unzip();
            let plan = rules.into_iter().collect::<Option<Vec<_>>>();
            (join(&mut rng, &items), Some(plan))
        };
        let got = catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(&text)))
            .unwrap_or_else(|_| panic!("case {case}: parsing {text:?} panicked"));
        match want {
            Some(Some(rules)) => assert_eq!(got, Ok(FaultPlan { rules }), "case {case}: {text:?}"),
            Some(None) => assert!(got.is_err(), "case {case}: {text:?} parsed"),
            None => {}
        }
    }
}

#[test]
fn the_shard_role_parser_is_total_and_round_trips() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let shards = (value(&mut rng) as usize).max(1);
        let role = ShardRole {
            shard: rng.gen_range(0..shards),
            shards,
        };
        assert_eq!(
            ShardRole::parse(&role.to_string()),
            Some(role),
            "case {case}"
        );

        let (s, p) = (value(&mut rng), value(&mut rng));
        let (text, want) = match rng.gen_range(0u32..6) {
            0 => (random_text(&mut rng), None),
            1 => {
                let (s, p) = (s.min(p), s.max(p));
                let ok = (s < p).then_some(ShardRole {
                    shard: s as usize,
                    shards: p as usize,
                });
                let (s_text, p_text) = (decimal(&mut rng, s), decimal(&mut rng, p));
                let text = format!("{}/{}", pad(&mut rng, &s_text), pad(&mut rng, &p_text));
                (text, Some(ok))
            }
            2 => (format!("{}/{}", s.max(p), s.min(p)), Some(None)),
            3 => (s.to_string(), Some(None)),
            4 => (format!("{s}/{p}/{p}"), Some(None)),
            _ => {
                let bad = pick(&mut rng, &["", "x", "-1", "1.0", "18446744073709551616"]);
                let text = if rng.gen::<bool>() {
                    format!("{bad}/{p}")
                } else {
                    format!("{s}/{bad}")
                };
                (text, Some(None))
            }
        };
        let got = catch_unwind(AssertUnwindSafe(|| ShardRole::parse(&text)))
            .unwrap_or_else(|_| panic!("case {case}: parsing {text:?} panicked"));
        match want {
            Some(want) => assert_eq!(got, want, "case {case}: {text:?}"),
            None => assert!(
                got.is_none_or(|r| r.shard < r.shards),
                "case {case}: {text:?}"
            ),
        }
    }
}
