//! The item model: a per-file view of functions, modules, impl blocks,
//! imports, suppression annotations, and lock-order declarations, built
//! from the token stream.
//!
//! This is deliberately *not* a full parser. The analyzer needs exactly
//! four structural facts the line-regex engine could not recover:
//!
//! 1. **Function boundaries** — which tokens belong to which `fn` body, so
//!    a rule can say "this `panic!` lives in `try_free`'s reach" or "this
//!    `pub fn` never emits an event".
//! 2. **Receivers and visibility** — `pub fn f(&mut self, …)` is a
//!    state-mutating API surface; `fn helper()` is not.
//! 3. **Calls** — the per-file edge list (`callee name` granularity) that
//!    the cross-file call graph is assembled from. Name-based resolution
//!    over-approximates (every `free` is every other `free`), which is the
//!    safe direction for reachability rules.
//! 4. **Test context** — items inside `#[cfg(test)]` modules, `#[test]`
//!    functions, and files under `tests/` are exempt from the
//!    production-surface rules, and read nothing on production's behalf:
//!    the file's [`Reader`]s are collected from non-test code only.
//!
//! Everything is assembled in one token walk with a brace-depth stack.

use super::lexer::{lex, Token, TokenKind};
use std::path::Path;

/// How a function takes `self`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// Free function or associated function (no `self`).
    None,
    /// `&self`.
    SelfRef,
    /// `&mut self`.
    SelfMut,
    /// `self` / `mut self` by value (builders).
    SelfVal,
}

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Unqualified name.
    pub name: String,
    /// Any `pub` visibility (`pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// Self receiver.
    pub receiver: Receiver,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Significant-token index range of the body (exclusive of braces);
    /// empty for bodyless trait-method declarations.
    pub body: (usize, usize),
    /// Callee names invoked in the body: `name(…)`, `.name(…)`,
    /// `Path::name(…)` all contribute `name`; macros contribute `name!`.
    pub calls: Vec<String>,
    /// Inside `#[cfg(test)]`, marked `#[test]`, or in a test file.
    pub in_test: bool,
}

/// A site in non-test code that reads a name: a call (`name(`, `.name(`,
/// `Path::name(`), a path reference (`Path::name`, e.g. a function
/// pointer), or any identifier of a `use` import.
#[derive(Clone, Debug)]
pub struct Reader {
    /// The name read.
    pub name: String,
    /// Significant-token index of the site.
    pub sig: usize,
}

/// A `lint:allow(tag)` site.
#[derive(Clone, Debug)]
pub struct AllowSite {
    /// The tag inside the parentheses.
    pub tag: String,
    /// 1-based line the annotation sits on.
    pub line: u32,
}

/// A `lint:lock-order(a, b, …)` declaration.
#[derive(Clone, Debug)]
pub struct LockOrderDecl {
    /// Receiver names in canonical acquisition order.
    pub order: Vec<String>,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// One analyzed file: source, tokens, and the item model.
#[derive(Debug)]
pub struct FileModel {
    /// Repo-relative path with forward slashes (stable across platforms —
    /// it is the identity used in reports).
    pub rel: String,
    /// The source text.
    pub src: String,
    /// The full (lossless) token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Functions, in source order.
    pub fns: Vec<FnItem>,
    /// Flattened `use` paths, e.g. `std::sync::Mutex` (groups expanded).
    pub uses: Vec<String>,
    /// Name-reading sites outside test context, in token order.
    pub readers: Vec<Reader>,
    /// Every `lint:allow(tag)` in the file.
    pub allows: Vec<AllowSite>,
    /// The file's `lint:lock-order(…)` declaration, if any.
    pub lock_order: Option<LockOrderDecl>,
    /// Whole file is test context (`tests/` directory).
    pub file_is_test: bool,
}

impl FileModel {
    /// Builds the model for one file.
    pub fn build(rel: String, src: String) -> Self {
        let tokens = lex(&src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.kind.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let file_is_test = rel.contains("/tests/");
        let (allows, lock_order) = scan_annotations(&src, &tokens);
        let mut m = Self {
            rel,
            src,
            tokens,
            sig,
            fns: Vec::new(),
            uses: Vec::new(),
            readers: Vec::new(),
            allows,
            lock_order,
            file_is_test,
        };
        build_items(&mut m);
        m
    }

    /// Convenience: build from a real path under `root`.
    pub fn load(root: &Path, path: &Path) -> std::io::Result<Self> {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(Self::build(rel, src))
    }

    /// The text of the significant token at sig-index `i`.
    pub fn text(&self, i: usize) -> &str {
        let t = self.tokens[self.sig[i]];
        &self.src[t.start..t.end]
    }

    /// The token at sig-index `i`.
    pub fn tok(&self, i: usize) -> Token {
        self.tokens[self.sig[i]]
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the file has no significant tokens.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// Does sig-index `i` hold exactly `s`?
    pub fn is(&self, i: usize, s: &str) -> bool {
        i < self.len() && self.text(i) == s
    }

    /// Does the token path starting at `i` match `pat`? `"::"` entries in
    /// `pat` match two consecutive `:` punct tokens.
    pub fn matches_path(&self, mut i: usize, pat: &[&str]) -> bool {
        for p in pat {
            if *p == "::" {
                if !(self.is(i, ":") && self.is(i + 1, ":")) {
                    return false;
                }
                i += 2;
            } else {
                if !self.is(i, p) {
                    return false;
                }
                i += 1;
            }
        }
        true
    }

    /// The source line (1-based) of sig-index `i`.
    pub fn line_of(&self, i: usize) -> u32 {
        self.tok(i).line
    }

    /// The trimmed source text of 1-based line `line`.
    pub fn line_text(&self, line: u32) -> &str {
        self.src
            .lines()
            .nth(line as usize - 1)
            .unwrap_or_default()
            .trim()
    }
}

/// Scans comments for `lint:allow(tag)` and `lint:lock-order(a, b)`.
/// Doc comments (`///`, `//!`, `/**`, `/*!`) are skipped: they document
/// annotations, they don't place them — otherwise every mention of the
/// syntax in prose would register as a (stale) suppression site.
fn scan_annotations(src: &str, tokens: &[Token]) -> (Vec<AllowSite>, Option<LockOrderDecl>) {
    let mut allows = Vec::new();
    let mut lock_order = None;
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = &src[t.start..t.end];
        if text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!")
        {
            continue;
        }
        let mut at = 0usize;
        while let Some(p) = text[at..].find("lint:allow(") {
            let open = at + p + "lint:allow(".len();
            if let Some(close) = text[open..].find(')') {
                allows.push(AllowSite {
                    tag: text[open..open + close].trim().to_string(),
                    line: t.line + text[..at + p].matches('\n').count() as u32,
                });
                at = open + close + 1;
            } else {
                break;
            }
        }
        if let Some(p) = text.find("lint:lock-order(") {
            let tail = &text[p + "lint:lock-order(".len()..];
            if let Some(close) = tail.find(')') {
                lock_order = Some(LockOrderDecl {
                    order: tail[..close]
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                    line: t.line,
                });
            }
        }
    }
    (allows, lock_order)
}

/// Rust keywords that look like calls when followed by `(`.
pub(crate) const NOT_CALLS: &[&str] = &[
    "if", "match", "while", "for", "return", "fn", "in", "as", "loop", "move", "let", "else",
    "break", "continue", "unsafe", "where", "impl", "dyn",
];

/// One token walk: tracks brace depth, `#[cfg(test)]` module extents,
/// visibility runs, `use` statements, fn signatures/bodies, and call sites.
fn build_items(m: &mut FileModel) {
    let n = m.len();
    let mut i = 0usize;
    let mut depth = 0i32;
    // Stack of depths at which a test-context scope (a `#[cfg(test)]` mod
    // or any mod inside one) was opened.
    let mut test_depths: Vec<i32> = Vec::new();
    // Open fn bodies: (fn index in m.fns, closing depth).
    let mut open_fns: Vec<(usize, i32)> = Vec::new();
    let mut saw_pub = false;
    let mut pending_cfg_test = false;
    let mut pending_test_attr = false;

    while i < n {
        let tx = m.text(i).to_string();
        match tx.as_str() {
            "#" => {
                // Attribute: `#[ ... ]` — scan to the matching `]`, noting
                // cfg(test)/test markers for the item that follows.
                let mut j = i + 1;
                if m.is(j, "[") {
                    let mut bd = 0i32;
                    let mut body = String::new();
                    while j < n {
                        let t = m.text(j);
                        if t == "[" {
                            bd += 1;
                        } else if t == "]" {
                            bd -= 1;
                            if bd == 0 {
                                break;
                            }
                        } else {
                            body.push_str(t);
                            body.push(' ');
                        }
                        j += 1;
                    }
                    if body.contains("cfg ( test") || body.contains("cfg ( any ( test") {
                        pending_cfg_test = true;
                    }
                    if body.trim() == "test" || body.starts_with("test ") {
                        pending_test_attr = true;
                    }
                    i = j + 1;
                    continue;
                }
            }
            "pub" => {
                saw_pub = true;
                // Skip a `(crate)` / `(super)` restriction.
                if m.is(i + 1, "(") {
                    let mut j = i + 2;
                    while j < n && !m.is(j, ")") {
                        j += 1;
                    }
                    i = j + 1;
                    continue;
                }
            }
            "use" => {
                let (paths, next) = parse_use(m, i + 1);
                m.uses.extend(paths);
                if !(pending_cfg_test || in_test(m, &test_depths, &open_fns)) {
                    for j in i + 1..next.min(n) {
                        if m.tok(j).kind == TokenKind::Ident {
                            m.readers.push(Reader {
                                name: m.text(j).to_string(),
                                sig: j,
                            });
                        }
                    }
                }
                saw_pub = false;
                pending_cfg_test = false;
                i = next;
                continue;
            }
            "mod" => {
                // `mod name {` opens a scope; mark it if a cfg(test)
                // attribute was pending or we are already inside one.
                let mut j = i + 1;
                while j < n && !m.is(j, "{") && !m.is(j, ";") {
                    j += 1;
                }
                if m.is(j, "{") {
                    if pending_cfg_test || !test_depths.is_empty() {
                        test_depths.push(depth);
                    }
                    depth += 1;
                }
                pending_cfg_test = false;
                pending_test_attr = false;
                saw_pub = false;
                i = j + 1;
                continue;
            }
            "fn" => {
                let header_pub = saw_pub;
                let header_test = pending_test_attr
                    || !test_depths.is_empty()
                    || m.file_is_test
                    || pending_cfg_test;
                saw_pub = false;
                pending_test_attr = false;
                pending_cfg_test = false;
                let name = if i + 1 < n {
                    m.text(i + 1).to_string()
                } else {
                    String::new()
                };
                let line = m.line_of(i);
                // Find the parameter list `(`, skipping generics.
                let mut j = i + 2;
                if m.is(j, "<") {
                    let mut gd = 0i32;
                    while j < n {
                        let t = m.text(j);
                        if t == "<" {
                            gd += 1;
                        } else if t == ">" && !(j > 0 && m.is(j - 1, "-")) {
                            // The `-` guard keeps the `>` of a `->` in a
                            // `Fn(..) -> R` bound from closing the list.
                            gd -= 1;
                            if gd == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                let receiver = if m.is(j, "(") {
                    parse_receiver(m, j + 1)
                } else {
                    Receiver::None
                };
                // Walk to the body `{` or a terminating `;`, balancing
                // parens/brackets/angle-free (return types hold no `{`).
                let mut pd = 0i32;
                while j < n {
                    let t = m.text(j);
                    match t {
                        "(" | "[" => pd += 1,
                        ")" | "]" => pd -= 1,
                        "{" if pd == 0 => break,
                        ";" if pd == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if m.is(j, "{") {
                    let idx = m.fns.len();
                    m.fns.push(FnItem {
                        name,
                        is_pub: header_pub,
                        receiver,
                        line,
                        body: (j + 1, j + 1), // end patched at close
                        calls: Vec::new(),
                        in_test: header_test,
                    });
                    open_fns.push((idx, depth));
                    depth += 1;
                } else {
                    // Bodyless declaration (trait method): record with an
                    // empty body.
                    m.fns.push(FnItem {
                        name,
                        is_pub: header_pub,
                        receiver,
                        line,
                        body: (0, 0),
                        calls: Vec::new(),
                        in_test: header_test,
                    });
                }
                i = j + 1;
                continue;
            }
            "{" => {
                depth += 1;
            }
            "}" => {
                depth -= 1;
                if let Some(&(idx, d)) = open_fns.last() {
                    if d == depth {
                        m.fns[idx].body.1 = i;
                        open_fns.pop();
                    }
                }
                if test_depths.last() == Some(&depth) {
                    test_depths.pop();
                }
            }
            ";" | "=" => {
                saw_pub = false;
            }
            _ => {
                // A call site: `name (` — attribute to every open fn
                // (innermost resolution happens at query time via spans;
                // for the edge list, crediting all enclosing fns keeps
                // reachability an over-approximation).
                let call = m.is(i + 1, "(")
                    && m.tok(i).kind == TokenKind::Ident
                    && !NOT_CALLS.contains(&tx.as_str());
                let path_ref = m.tok(i).kind == TokenKind::Ident
                    && i >= 2
                    && m.is(i - 1, ":")
                    && m.is(i - 2, ":");
                if (call || path_ref) && !in_test(m, &test_depths, &open_fns) {
                    m.readers.push(Reader {
                        name: tx.clone(),
                        sig: i,
                    });
                }
                if call {
                    if let Some(&(idx, _)) = open_fns.last() {
                        if !m.fns[idx].calls.contains(&tx) {
                            m.fns[idx].calls.push(tx.clone());
                        }
                    }
                }
                // A macro invocation: `name !`.
                if m.is(i + 1, "!") && m.tok(i).kind == TokenKind::Ident {
                    if let Some(&(idx, _)) = open_fns.last() {
                        let name = format!("{tx}!");
                        if !m.fns[idx].calls.contains(&name) {
                            m.fns[idx].calls.push(name);
                        }
                    }
                }
            }
        }
        i += 1;
    }
    // Any fn left open (unbalanced input) closes at EOF — totality again.
    for (idx, _) in open_fns {
        m.fns[idx].body.1 = n;
    }
}

/// Is the walk inside test context: a test file, a `#[cfg(test)]` module,
/// or the body of a test function?
fn in_test(m: &FileModel, test_depths: &[i32], open_fns: &[(usize, i32)]) -> bool {
    m.file_is_test || !test_depths.is_empty() || open_fns.iter().any(|&(idx, _)| m.fns[idx].in_test)
}

/// Parses the receiver at the first token after the `(` of a param list.
fn parse_receiver(m: &FileModel, mut j: usize) -> Receiver {
    if m.is(j, "&") {
        j += 1;
        if m.tok(j).kind == TokenKind::Lifetime {
            j += 1;
        }
        if m.is(j, "mut") && m.is(j + 1, "self") {
            return Receiver::SelfMut;
        }
        if m.is(j, "self") {
            return Receiver::SelfRef;
        }
        return Receiver::None;
    }
    if m.is(j, "mut") && m.is(j + 1, "self") {
        return Receiver::SelfVal;
    }
    if m.is(j, "self") {
        return Receiver::SelfVal;
    }
    Receiver::None
}

/// Parses a `use` statement starting after the `use` keyword; returns the
/// flattened paths and the sig-index one past the closing `;`.
fn parse_use(m: &FileModel, start: usize) -> (Vec<String>, usize) {
    // Collect the raw token texts to the `;`, then expand `{…}` groups one
    // level at a time.
    let mut j = start;
    let mut toks: Vec<String> = Vec::new();
    while j < m.len() && !m.is(j, ";") {
        toks.push(m.text(j).to_string());
        j += 1;
    }
    let flat = expand_use(&toks.join(""));
    (flat, j + 1)
}

/// Expands `a::{b, c::{d, e}}` into `[a::b, a::c::d, a::c::e]`.
fn expand_use(s: &str) -> Vec<String> {
    let s = s.trim();
    if let Some(open) = s.find('{') {
        let prefix = &s[..open];
        // The group must close at the end (use statements do).
        let inner = s[open + 1..].strip_suffix('}').unwrap_or(&s[open + 1..]);
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut cur = String::new();
        for c in inner.chars() {
            match c {
                '{' => {
                    depth += 1;
                    cur.push(c);
                }
                '}' => {
                    depth -= 1;
                    cur.push(c);
                }
                ',' if depth == 0 => {
                    out.extend(expand_use(&format!("{prefix}{}", cur.trim())));
                    cur.clear();
                }
                _ => cur.push(c),
            }
        }
        if !cur.trim().is_empty() {
            out.extend(expand_use(&format!("{prefix}{}", cur.trim())));
        }
        out
    } else {
        vec![s.to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/x/src/lib.rs".to_string(), src.to_string())
    }

    #[test]
    fn fn_boundaries_and_receivers() {
        let m = model(
            "impl S {\n  pub fn a(&mut self, x: u64) { helper(x); }\n  fn b(&self) {}\n  pub fn c(mut self) -> Self { self }\n}\nfn helper(x: u64) {}\n",
        );
        let names: Vec<_> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "helper"]);
        assert_eq!(m.fns[0].receiver, Receiver::SelfMut);
        assert!(m.fns[0].is_pub);
        assert_eq!(m.fns[1].receiver, Receiver::SelfRef);
        assert!(!m.fns[1].is_pub);
        assert_eq!(m.fns[2].receiver, Receiver::SelfVal);
        assert_eq!(m.fns[0].calls, ["helper"]);
    }

    #[test]
    fn cfg_test_modules_are_test_context() {
        let m = model(
            "pub fn prod(&mut self) {}\n#[cfg(test)]\nmod tests {\n  pub fn helper(&mut self) {}\n  #[test]\n  fn case() {}\n}\n",
        );
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test, "helper inside cfg(test) mod");
        assert!(m.fns[2].in_test);
    }

    #[test]
    fn use_groups_expand() {
        let m = model("use std::sync::{Mutex, atomic::{AtomicU64, Ordering}};\nuse std::fmt;\n");
        assert_eq!(
            m.uses,
            [
                "std::sync::Mutex",
                "std::sync::atomic::AtomicU64",
                "std::sync::atomic::Ordering",
                "std::fmt",
            ]
        );
    }

    #[test]
    fn annotations_are_collected() {
        let m =
            model("// lint:allow(hashmap-decl) keyed only\nlet x = 1;\n// lint:lock-order(a, b)\n");
        assert_eq!(m.allows.len(), 1);
        assert_eq!(m.allows[0].tag, "hashmap-decl");
        assert_eq!(m.allows[0].line, 1);
        let lo = m.lock_order.expect("declared");
        assert_eq!(lo.order, ["a", "b"]);
    }

    #[test]
    fn generic_fn_receiver_is_found() {
        let m = model("pub fn f<T: Ord, const N: usize>(&mut self, t: T) { t.g(); }\n");
        assert_eq!(m.fns[0].receiver, Receiver::SelfMut);
        assert_eq!(m.fns[0].calls, ["g"]);
    }

    #[test]
    fn macros_are_recorded_as_calls() {
        let m = model("fn f() { panic!(\"x\"); }\n");
        assert_eq!(m.fns[0].calls, ["panic!"]);
    }
}
