//! Seeded property tests for the lexer: lexing is *total* (any byte soup
//! produces a token stream) and the spans *partition* the input (every
//! byte in exactly one token, in order, with monotone line/col tracking).
//!
//! The generator is deliberately adversarial: it mixes well-formed Rust
//! fragments with unterminated strings, half-open raw strings, stray
//! quotes, nested comment openers, and raw non-ASCII — the inputs where a
//! hand-rolled lexer either loops, panics, or drops bytes.

use wsc_prng::SmallRng;
use wsc_tools::analyzer::lexer::{lex, TokenKind};

/// Fragments the generator samples from. Unterminated constructs are the
/// interesting cases — totality means they lex to EOF, not to a hang.
const FRAGMENTS: &[&str] = &[
    "fn f() { let x = 1; }",
    "\"terminated\"",
    "\"unterminated",
    "\"escape \\\" inside\"",
    "r#\"raw\"#",
    "r##\"raw with # inside\"##",
    "r#\"unterminated raw",
    "'c'",
    "'\\n'",
    "'lifetime",
    "'a ",
    "// line comment\n",
    "/* block */",
    "/* nested /* deeper */ still */",
    "/* unterminated",
    "0x1f 1e-3 1_000 0.5 1..2",
    "ident _под_score λ",
    "::<>()[]{}#![]",
    "b\"bytes\" b'x' br#\"raw bytes\"#",
    "\n\n\t  ",
    "€",
    "\\",
];

fn soup(rng: &mut SmallRng, pieces: usize) -> String {
    let mut s = String::new();
    for _ in 0..pieces {
        s.push_str(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
        if rng.gen::<f64>() < 0.3 {
            s.push(' ');
        }
    }
    s
}

#[test]
fn lexing_is_total_and_spans_partition() {
    let mut rng = SmallRng::seed_from_u64(0x1e5e_2024);
    for case in 0..500 {
        let src = soup(&mut rng, 1 + (case % 17));
        let tokens = lex(&src);

        // Partition: token spans tile [0, len) exactly, in order.
        let mut cursor = 0usize;
        for t in &tokens {
            assert_eq!(
                t.start, cursor,
                "gap or overlap at byte {cursor} in {src:?}"
            );
            assert!(t.end > t.start, "empty token at {} in {src:?}", t.start);
            cursor = t.end;
        }
        assert_eq!(cursor, src.len(), "tail bytes dropped in {src:?}");

        // Spans land on UTF-8 boundaries (slicing must never panic).
        for t in &tokens {
            let _ = &src[t.start..t.end];
        }

        // Line/col bookkeeping is monotone: lines never decrease, and
        // within a line columns strictly increase.
        let mut prev = (1u32, 0u32);
        for t in &tokens {
            assert!(
                t.line > prev.0 || (t.line == prev.0 && t.col > prev.1),
                "non-monotone position {}:{} after {}:{} in {src:?}",
                t.line,
                t.col,
                prev.0,
                prev.1
            );
            prev = (t.line, t.col);
        }
    }
}

#[test]
fn relexing_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xdead_beef);
    for _ in 0..100 {
        let src = soup(&mut rng, 9);
        let a = lex(&src);
        let b = lex(&src);
        assert_eq!(a, b);
    }
}

#[test]
fn trivia_and_significant_tokens_cover_known_kinds() {
    let src = "fn f<'a>() { /* c */ let s = r#\"x\"#; 'q' }";
    let tokens = lex(src);
    assert!(tokens.iter().any(|t| t.kind == TokenKind::BlockComment));
    assert!(tokens.iter().any(|t| t.kind == TokenKind::RawStr));
    assert!(tokens.iter().any(|t| t.kind == TokenKind::Char));
    assert!(tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
    assert!(tokens.iter().filter(|t| !t.kind.is_trivia()).count() > 10);
}
