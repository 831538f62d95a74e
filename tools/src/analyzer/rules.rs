//! The eleven analysis rules, evaluated over [`FileModel`]s.
//!
//! Six are re-hosted from the old line-regex engine (wall-clock,
//! ambient-rng, hashmap-iter, hashmap-decl, direct-attribution,
//! infallible-os) — now token-aware, so occurrences inside string
//! literals, doc comments, and block comments can no longer false-positive,
//! and multi-line expressions can no longer hide a call from a
//! single-line regex.
//!
//! Five are new and need the item model:
//!
//! * **concurrency-readiness** — `Mutex`/`RwLock`/`Arc`/`Condvar`/
//!   `thread::spawn` and `mpsc` channels are denied outside the sanctioned
//!   concurrency module, the experiment engine in `crates/parallel/`, so
//!   the allocator core holds no lock; every explicit atomic `Ordering::…`
//!   use needs a `lint:allow(atomic-ordering)` justification even inside
//!   it; and lock acquisition must follow the file's
//!   declared `lint:lock-order(a, b, …)` within each function body.
//! * **event-completeness** — every `pub fn (&mut self, …)` in a tier
//!   module of `crates/tcmalloc/src` must emit at least one `AllocEvent`,
//!   directly or through a callee (name-based transitive closure); and
//!   every variant of the `AllocEvent` catalog must have a construction
//!   site in tier code — a literal `AllocEvent::Kind`, or a call to the
//!   typed bus entry point that builds that kind (`BUS_ENTRY_POINTS`).
//! * **panic-surface** — `panic!`/`todo!`/`unimplemented!` and computed
//!   slice indexing (`v[i + 1]`, `v[lo..hi]`, `v[f(x)]` — anything beyond a
//!   plain identifier/field/literal/cast index) are findings inside
//!   functions reachable from the fallible entry points
//!   (`try_malloc_with_site`/`try_free`).
//! * **suppression-hygiene** — a `lint:allow(tag)` that suppressed nothing
//!   this run, names an unknown rule, or a `lint:lock-order` declaration in
//!   a file without lock acquisitions, is itself a finding. Suppressions
//!   can never go stale silently.
//! * **test-only-pub** — every `pub` function in non-test code under
//!   `crates/<SCOPED_CRATES>/src` needs a [`Reader`](super::items::Reader)
//!   in non-test code outside its own body: a call, a path reference or a
//!   `use` import, in any analyzed file, the [`READER_ONLY`] ones
//!   included. The match is by name, so a collision can hide a dead
//!   function but never invent one.
//!
//! Files under [`READER_ONLY`] are read for test-only-pub's readers and
//! checked by no rule.
//!
//! A finding carries a *suppress tag* (usually the rule name;
//! `atomic-ordering` for the ordering sub-check). It is suppressed by a
//! `lint:allow(tag)` comment on the same line, or in the contiguous
//! comment block ending on the line above the finding.

use super::items::{FileModel, FnItem, Receiver, NOT_CALLS};
use super::lexer::TokenKind;
use super::report::Finding;
use super::{READER_ONLY, SCOPED_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// The rule set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock time in the deterministic core.
    WallClock,
    /// OS-seeded randomness.
    AmbientRng,
    /// Iteration over a `HashMap` binding.
    HashMapIter,
    /// Unjustified `HashMap` declaration.
    HashMapDecl,
    /// Attribution consumer called outside the event bus.
    DirectAttribution,
    /// Kernel state constructed or mutated outside the OS boundary.
    InfallibleOs,
    /// Concurrency primitives outside sanctioned modules, unjustified
    /// atomic orderings, lock-order violations.
    Concurrency,
    /// Tier-state mutator that never emits an `AllocEvent`, or an
    /// `AllocEvent` variant with no tier construction site.
    EventCompleteness,
    /// Panic macros / computed indexing on the fallible allocator paths.
    PanicSurface,
    /// Stale or unknown suppression annotations.
    SuppressionHygiene,
    /// A `pub` function of a deterministic crate that only tests read.
    TestOnlyPub,
}

/// All rules, in the order reports list them.
pub const ALL_RULES: [Rule; 11] = [
    Rule::WallClock,
    Rule::AmbientRng,
    Rule::HashMapIter,
    Rule::HashMapDecl,
    Rule::DirectAttribution,
    Rule::InfallibleOs,
    Rule::Concurrency,
    Rule::EventCompleteness,
    Rule::PanicSurface,
    Rule::SuppressionHygiene,
    Rule::TestOnlyPub,
];

impl Rule {
    /// The rule's report name (also its default suppress tag).
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::HashMapIter => "hashmap-iter",
            Rule::HashMapDecl => "hashmap-decl",
            Rule::DirectAttribution => "direct-attribution",
            Rule::InfallibleOs => "infallible-os",
            Rule::Concurrency => "concurrency-readiness",
            Rule::EventCompleteness => "event-completeness",
            Rule::PanicSurface => "panic-surface",
            Rule::SuppressionHygiene => "suppression-hygiene",
            Rule::TestOnlyPub => "test-only-pub",
        }
    }
}

/// Tags a `lint:allow(…)` may legitimately carry: every suppressible rule
/// plus the `atomic-ordering` sub-tag of concurrency-readiness.
/// `suppression-hygiene` itself is absent: hygiene findings cannot be
/// suppressed, or stale annotations could justify themselves.
pub const VALID_ALLOW_TAGS: [&str; 11] = [
    "wall-clock",
    "ambient-rng",
    "hashmap-iter",
    "hashmap-decl",
    "direct-attribution",
    "infallible-os",
    "concurrency-readiness",
    "atomic-ordering",
    "event-completeness",
    "panic-surface",
    "test-only-pub",
];

/// Paths where direct `charge`/`record_alloc`/`record_lifetime` calls are
/// legitimate: the event sinks themselves, and the crates that implement
/// (and unit-test) the consumers the sinks drive.
const ATTRIBUTION_SANCTIONED: &[&str] = &[
    "crates/tcmalloc/src/events.rs",
    "crates/tcmalloc/src/stats.rs",
    "crates/sanitizer/",
    "crates/telemetry/",
];

/// Paths allowed to construct or mutate the kernel (`Vmm` / `PageTable`)
/// directly: the OS boundary itself, and the pageheap's `OsLayer` wrapper
/// that routes every call through the fault injector and the hard limit.
const OS_SANCTIONED: &[&str] = &["crates/sim-os/", "crates/tcmalloc/src/pageheap/"];

/// Modules sanctioned to hold concurrency primitives: the experiment
/// engine. Everything else in the deterministic core, the allocator
/// included, stays single-threaded.
const CONCURRENCY_SANCTIONED: &[&str] = &["crates/parallel/"];

/// Method names that mutate kernel state (see [`OS_SANCTIONED`]).
const OS_MUTATION_METHODS: &[&str] = &[
    "mmap",
    "munmap",
    "on_mmap",
    "on_mmap_backed",
    "on_munmap",
    "subrelease",
    "reoccupy",
    "khugepaged",
    "promote",
];

/// Tier modules of `crates/tcmalloc/src` covered by event-completeness.
const TIER_FILES: &[&str] = &[
    "crates/tcmalloc/src/alloc.rs",
    "crates/tcmalloc/src/percpu.rs",
    "crates/tcmalloc/src/transfer.rs",
    "crates/tcmalloc/src/central.rs",
    "crates/tcmalloc/src/pagemap.rs",
];

/// The typed `EventBus` entry points and the kinds each one builds on the
/// tier's behalf (behind the bus's `observed` test, so nothing is
/// materialised when nobody listens). A tier call to one of these is the
/// construction site of its kinds.
const BUS_ENTRY_POINTS: &[(&str, &[&str])] = &[
    ("percpu_hit", &["PerCpuHit"]),
    ("malloc_done", &["MallocDone", "SamplerPick"]),
    ("free_done", &["FreeDone"]),
];

/// The fallible entry points panic-surface reachability starts from.
const FALLIBLE_ROOTS: &[&str] = &["try_malloc_with_site", "try_free"];

/// Explicit atomic memory orderings (std::sync::atomic::Ordering variants —
/// `std::cmp::Ordering`'s variants differ, so no collision).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Type names that denote a hash map: std's, and the workspace alias over
/// the integer hasher (`wsc_prng::IntMap`). The alias is matched by name so
/// a map cannot leave the rules by changing its hasher.
const MAP_TYPES: &[&str] = &["HashMap", "IntMap"];

/// Associated functions that construct a map. `default` and the
/// `*with_hasher` pair are how a custom-hasher map is built (`new` needs
/// `RandomState`).
const MAP_CTORS: &[&str] = &[
    "new",
    "with_capacity",
    "default",
    "with_hasher",
    "with_capacity_and_hasher",
];

/// `HashMap` iteration methods (order-sensitive access).
const MAP_ITERS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// One candidate finding, pre-suppression.
struct Candidate {
    rule: Rule,
    tag: &'static str,
    file: usize,
    line: u32,
    col: u32,
    message: String,
}

/// Evaluates every rule over the file set and returns the unsuppressed
/// findings, sorted by (file, line, col, rule).
pub fn run_rules(files: &[FileModel]) -> Vec<Finding> {
    let mut cands: Vec<Candidate> = Vec::new();
    for (fi, m) in files.iter().enumerate() {
        if !reader_only(&m.rel) {
            scan_tokens(fi, m, &mut cands);
            lock_order_rule(fi, m, &mut cands);
        }
    }
    event_completeness(files, &mut cands);
    panic_surface(files, &mut cands);
    test_only_pub(files, &mut cands);

    // Suppression pass: a candidate with tag T at line L is suppressed by
    // an allow annotation carrying T on line L itself, or in the
    // contiguous comment block ending on line L-1 (so a multi-line
    // justification still covers the code right under it). Each
    // suppression marks the annotation used.
    let mut used: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    for c in &cands {
        let m = &files[c.file];
        let site = m
            .allows
            .iter()
            .find(|a| a.tag == c.tag && allow_covers(m, a.line, c.line));
        if let Some(site) = site {
            used.insert((c.file, site.line, site.tag.clone()));
        } else {
            findings.push(to_finding(files, c));
        }
    }

    // Hygiene: unused or unknown annotations, and dead lock-order decls.
    for (fi, m) in files.iter().enumerate() {
        if reader_only(&m.rel) {
            continue;
        }
        for a in &m.allows {
            let unknown = !VALID_ALLOW_TAGS.contains(&a.tag.as_str());
            let stale = !unknown && !used.contains(&(fi, a.line, a.tag.clone()));
            if unknown {
                push_hygiene(
                    files,
                    fi,
                    a.line,
                    format!("lint:allow({}) names an unknown rule", a.tag),
                    &mut findings,
                );
            } else if stale {
                push_hygiene(
                    files,
                    fi,
                    a.line,
                    format!("stale lint:allow({}): it suppresses nothing", a.tag),
                    &mut findings,
                );
            }
        }
        if let Some(decl) = &m.lock_order {
            if lock_acquisitions(m).is_empty() {
                push_hygiene(
                    files,
                    fi,
                    decl.line,
                    "lint:lock-order declared but the file acquires no locks".to_string(),
                    &mut findings,
                );
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule)
            .cmp(&(&b.file, b.line, b.col, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    findings
}

fn to_finding(files: &[FileModel], c: &Candidate) -> Finding {
    let m = &files[c.file];
    Finding {
        rule: c.rule.name(),
        file: m.rel.clone(),
        line: c.line,
        col: c.col,
        message: c.message.clone(),
        excerpt: m.line_text(c.line).to_string(),
    }
}

fn push_hygiene(
    files: &[FileModel],
    fi: usize,
    line: u32,
    message: String,
    out: &mut Vec<Finding>,
) {
    let m = &files[fi];
    out.push(Finding {
        rule: Rule::SuppressionHygiene.name(),
        file: m.rel.clone(),
        line,
        col: 1,
        message,
        excerpt: m.line_text(line).to_string(),
    });
}

/// Does an allow annotation starting on `allow_line` cover a finding on
/// `finding_line`? Same line always; otherwise every line from the
/// annotation down to the line above the finding must be comment-only, so
/// the justification block and the code it excuses stay physically glued.
fn allow_covers(m: &FileModel, allow_line: u32, finding_line: u32) -> bool {
    if allow_line == finding_line {
        return true;
    }
    if allow_line > finding_line {
        return false;
    }
    (allow_line..finding_line).all(|ln| m.line_text(ln).trim_start().starts_with("//"))
}

fn concurrency_sanctioned(rel: &str) -> bool {
    CONCURRENCY_SANCTIONED.iter().any(|p| rel.starts_with(p))
}

fn attribution_sanctioned(rel: &str) -> bool {
    ATTRIBUTION_SANCTIONED.iter().any(|p| rel.starts_with(p))
}

fn os_sanctioned(rel: &str) -> bool {
    OS_SANCTIONED.iter().any(|p| rel.starts_with(p))
}

fn reader_only(rel: &str) -> bool {
    READER_ONLY.iter().any(|p| rel.starts_with(p))
}

/// The test-only-pub rule: a `pub` function under a scoped crate's `src/`
/// with no non-test reader outside its own body.
fn test_only_pub(files: &[FileModel], out: &mut Vec<Candidate>) {
    let mut readers: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, m) in files.iter().enumerate() {
        for r in &m.readers {
            readers.entry(&r.name).or_default().push((fi, r.sig));
        }
    }
    for (fi, m) in files.iter().enumerate() {
        let scoped = SCOPED_CRATES
            .iter()
            .any(|k| m.rel.starts_with(&format!("crates/{k}/src/")));
        if !scoped {
            continue;
        }
        for f in m.fns.iter().filter(|f| f.is_pub && !f.in_test) {
            let own = |&(gi, sig): &(usize, usize)| gi == fi && f.body.0 <= sig && sig < f.body.1;
            let read = readers
                .get(f.name.as_str())
                .is_some_and(|sites| sites.iter().any(|s| !own(s)));
            if !read {
                out.push(Candidate {
                    rule: Rule::TestOnlyPub,
                    tag: "test-only-pub",
                    file: fi,
                    line: f.line,
                    col: 1,
                    message: format!(
                        "pub fn `{}` has no reader outside tests; delete it, `#[cfg(test)]` it, or justify it",
                        f.name
                    ),
                });
            }
        }
    }
}

/// The single-pass token scan: wall-clock, ambient-rng, hashmap rules,
/// direct-attribution, infallible-os, concurrency primitives, atomic
/// orderings.
#[allow(clippy::too_many_lines)]
fn scan_tokens(fi: usize, m: &FileModel, out: &mut Vec<Candidate>) {
    let map_bindings = hashmap_bindings(m);
    let mut seen: BTreeSet<(Rule, u32)> = BTreeSet::new();
    let n = m.len();
    for i in 0..n {
        if m.tok(i).kind != TokenKind::Ident {
            continue;
        }
        let t = m.text(i);
        let line = m.line_of(i);
        let col = m.tok(i).col;
        let mut hit =
            |rule: Rule, tag: &'static str, message: String, seen: &mut BTreeSet<(Rule, u32)>| {
                if seen.insert((rule, line)) {
                    out.push(Candidate {
                        rule,
                        tag,
                        file: fi,
                        line,
                        col,
                        message,
                    });
                }
            };

        // --- wall-clock ---
        if (t == "Instant" || t == "SystemTime")
            && (m.matches_path(i + 1, &["::", "now"])
                || m.matches_path(i.wrapping_sub(6), &["std", "::", "time", "::"]))
        {
            hit(
                Rule::WallClock,
                "wall-clock",
                format!("`{t}` reads the wall clock; use the simulated `Clock`"),
                &mut seen,
            );
        }

        // --- ambient-rng ---
        if t == "thread_rng" || t == "from_entropy" {
            hit(
                Rule::AmbientRng,
                "ambient-rng",
                format!("`{t}` seeds from the OS; use `wsc_prng::SmallRng::seed_from_u64`"),
                &mut seen,
            );
        }

        // --- hashmap-decl ---
        // Type position (`: HashMap<…>`, `Vec<HashMap<…>>`) or a fresh
        // construction. A struct-literal field init (`field: HashMap::new()`)
        // is exempt: the field *declaration* is the annotated site, and
        // flagging the init too would demand the same justification twice.
        let constructed = m.constructs_map(i);
        let struct_literal_init =
            constructed && i > 0 && m.is(i - 1, ":") && !m.is_back(i - 1, ":");
        if MAP_TYPES.contains(&t) && (m.is(i + 1, "<") || constructed) && !struct_literal_init {
            hit(
                Rule::HashMapDecl,
                "hashmap-decl",
                "HashMap declaration in the deterministic core requires a justification"
                    .to_string(),
                &mut seen,
            );
        }

        // --- hashmap-iter ---
        if map_bindings.contains(t) {
            let iterated = (m.is(i + 1, ".")
                && MAP_ITERS.contains(&m.text_or(i + 2))
                && m.is(i + 3, "("))
                // `for x in map {` / `for x in &map {` / `for x in &mut map {`
                // / `for x in &self.map {` — the bare-iteration forms.
                || (m.is(i + 1, "{")
                    && (m.is_back(i, "in")
                        || m.matches_back(i, &["in", "&"])
                        || m.matches_back(i, &["in", "&", "mut"])
                        || m.matches_back(i, &["in", "&", "self", "."])
                        || m.matches_back(i, &["in", "&", "mut", "self", "."])));
            if iterated {
                hit(
                    Rule::HashMapIter,
                    "hashmap-iter",
                    format!("iteration over HashMap binding `{t}` leaks hash order"),
                    &mut seen,
                );
            }
        }

        // --- direct-attribution ---
        if !attribution_sanctioned(&m.rel)
            && (t == "charge" || t == "record_alloc" || t == "record_lifetime")
            && m.is(i + 1, "(")
            && i > 0
            && m.is(i - 1, ".")
        {
            hit(
                Rule::DirectAttribution,
                "direct-attribution",
                format!("`.{t}(…)` bypasses the event bus; emit an AllocEvent instead"),
                &mut seen,
            );
        }

        // --- infallible-os ---
        if !os_sanctioned(&m.rel) {
            let direct_ctor = t == "Vmm" && m.matches_path(i + 1, &["::", "default"]);
            let mutation =
                OS_MUTATION_METHODS.contains(&t) && m.is(i + 1, "(") && i > 0 && m.is(i - 1, ".");
            if direct_ctor || mutation {
                hit(
                    Rule::InfallibleOs,
                    "infallible-os",
                    format!(
                        "`{t}` touches kernel state outside the OS boundary; go through the pageheap"
                    ),
                    &mut seen,
                );
            }
        }

        // --- concurrency-readiness: primitives ---
        if !concurrency_sanctioned(&m.rel) {
            // `mpsc` catches `mpsc::channel` and every import from the
            // module; `sync_channel` also its bare, imported use.
            let primitive = matches!(
                t,
                "Mutex" | "RwLock" | "Arc" | "Condvar" | "Barrier" | "mpsc" | "sync_channel"
            ) || (t == "thread"
                && (m.matches_path(i + 1, &["::", "spawn"])
                    || m.matches_path(i + 1, &["::", "scope"])));
            if primitive {
                hit(
                    Rule::Concurrency,
                    "concurrency-readiness",
                    format!(
                        "`{t}` is a concurrency primitive outside the sanctioned modules ({})",
                        CONCURRENCY_SANCTIONED.join(", ")
                    ),
                    &mut seen,
                );
            }
        }

        // --- concurrency-readiness: atomic orderings need justification
        // everywhere, sanctioned modules included ---
        if t == "Ordering" && m.is(i + 1, ":") && m.is(i + 2, ":") {
            let variant = m.text_or(i + 3);
            if ATOMIC_ORDERINGS.contains(&variant) {
                hit(
                    Rule::Concurrency,
                    "atomic-ordering",
                    format!("`Ordering::{variant}` must justify why this ordering is sufficient"),
                    &mut seen,
                );
            }
        }
    }
}

/// Names bound to a map type ([`MAP_TYPES`]) in this file: struct fields,
/// let bindings and parameters of `name: [&[mut]] HashMap<…>`, and
/// `let [mut] name = HashMap::new()` (any of [`MAP_CTORS`]).
fn hashmap_bindings(m: &FileModel) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for i in 0..m.len() {
        if !MAP_TYPES.contains(&m.text(i)) {
            continue;
        }
        // `name: HashMap<…>`, and the borrowed forms a parameter takes:
        // `name: &HashMap<…>`, `name: &mut HashMap<…>`.
        let mut ty = i;
        while ty >= 1 && (m.is(ty - 1, "&") || m.is(ty - 1, "mut")) {
            ty -= 1;
        }
        if m.is(i + 1, "<")
            && ty >= 2
            && m.is(ty - 1, ":")
            && m.tok(ty - 2).kind == TokenKind::Ident
        {
            out.insert(m.text(ty - 2));
        }
        if m.constructs_map(i)
            && i >= 2
            && m.is(i - 1, "=")
            && m.tok(i - 2).kind == TokenKind::Ident
        {
            out.insert(m.text(i - 2));
        }
    }
    out
}

impl FileModel {
    /// Is token `i` followed by `::` and one of [`MAP_CTORS`]?
    fn constructs_map(&self, i: usize) -> bool {
        MAP_CTORS
            .iter()
            .any(|ctor| self.matches_path(i + 1, &["::", ctor]))
    }

    /// `text(i)` or `""` past the end.
    fn text_or(&self, i: usize) -> &str {
        if i < self.len() {
            self.text(i)
        } else {
            ""
        }
    }

    /// Is the token *before* `i` exactly `s`?
    fn is_back(&self, i: usize, s: &str) -> bool {
        i >= 1 && self.is(i - 1, s)
    }

    /// Do the tokens immediately before `i` match `pat` (given in source
    /// order, i.e. `pat.last()` sits at `i - 1`)?
    fn matches_back(&self, i: usize, pat: &[&str]) -> bool {
        if i < pat.len() {
            return false;
        }
        pat.iter()
            .rev()
            .enumerate()
            .all(|(k, p)| self.is(i - 1 - k, p))
    }
}

/// One lock acquisition: `receiver.lock()/.read()/.write()`.
struct Acquisition {
    sig_index: usize,
    receiver: String,
    method: &'static str,
}

/// Lock acquisitions in a file, in token order. Only computed for files
/// that visibly hold locks (`Mutex`/`RwLock` tokens), so plain `read`/
/// `write` IO methods elsewhere never enter the lock rules.
fn lock_acquisitions(m: &FileModel) -> Vec<Acquisition> {
    let holds_locks = (0..m.len()).any(|i| matches!(m.text(i), "Mutex" | "RwLock"));
    if !holds_locks {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 2..m.len() {
        let method = match m.text(i) {
            "lock" => "lock",
            "read" => "read",
            "write" => "write",
            _ => continue,
        };
        if !(m.is(i + 1, "(") && m.is(i - 1, ".")) {
            continue;
        }
        let prev = m.tok(i - 2);
        let receiver = if prev.kind == TokenKind::Ident {
            m.text(i - 2).to_string()
        } else {
            "<expr>".to_string()
        };
        out.push(Acquisition {
            sig_index: i,
            receiver,
            method,
        });
    }
    out
}

/// The lock-order check: acquisitions on declared receivers must be
/// rank-monotone within each function body; `.lock()` receivers missing
/// from an existing declaration are findings; two-plus distinct `.lock()`
/// receivers without any declaration demand one.
fn lock_order_rule(fi: usize, m: &FileModel, out: &mut Vec<Candidate>) {
    let acqs = lock_acquisitions(m);
    if acqs.is_empty() {
        return;
    }
    let decl = m.lock_order.as_ref();
    // Per function body, in token order.
    for f in &m.fns {
        if f.in_test || f.body.0 == f.body.1 {
            continue;
        }
        let in_body: Vec<&Acquisition> = acqs
            .iter()
            .filter(|a| f.body.0 <= a.sig_index && a.sig_index < f.body.1)
            .collect();
        if in_body.is_empty() {
            continue;
        }
        match decl {
            Some(decl) => {
                let rank = |r: &str| decl.order.iter().position(|o| o == r);
                let mut max_rank: Option<usize> = None;
                for a in &in_body {
                    match rank(&a.receiver) {
                        Some(r) => {
                            if max_rank.is_some_and(|mr| r < mr) {
                                out.push(Candidate {
                                    rule: Rule::Concurrency,
                                    tag: "concurrency-readiness",
                                    file: fi,
                                    line: m.line_of(a.sig_index),
                                    col: m.tok(a.sig_index).col,
                                    message: format!(
                                        "`{}.{}()` acquired out of canonical lock order ({})",
                                        a.receiver,
                                        a.method,
                                        decl.order.join(" -> ")
                                    ),
                                });
                            }
                            max_rank = Some(max_rank.map_or(r, |mr| mr.max(r)));
                        }
                        None if a.method == "lock" => out.push(Candidate {
                            rule: Rule::Concurrency,
                            tag: "concurrency-readiness",
                            file: fi,
                            line: m.line_of(a.sig_index),
                            col: m.tok(a.sig_index).col,
                            message: format!(
                                "lock receiver `{}` missing from lint:lock-order declaration",
                                a.receiver
                            ),
                        }),
                        None => {}
                    }
                }
            }
            None => {
                let distinct: BTreeSet<&str> = in_body
                    .iter()
                    .filter(|a| a.method == "lock")
                    .map(|a| a.receiver.as_str())
                    .collect();
                if distinct.len() >= 2 {
                    out.push(Candidate {
                        rule: Rule::Concurrency,
                        tag: "concurrency-readiness",
                        file: fi,
                        line: f.line,
                        col: 1,
                        message: format!(
                            "fn `{}` takes {} locks ({}) with no lint:lock-order declaration",
                            f.name,
                            distinct.len(),
                            distinct.into_iter().collect::<Vec<_>>().join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// Does this function's body directly emit an event: construct an
/// `AllocEvent::…`, or call `emit` or a typed bus entry point?
fn emits_directly(m: &FileModel, f: &FnItem) -> bool {
    if f.calls
        .iter()
        .any(|c| c == "emit" || BUS_ENTRY_POINTS.iter().any(|(entry, _)| c == entry))
    {
        return true;
    }
    (f.body.0..f.body.1.min(m.len()))
        .any(|i| m.is(i, "AllocEvent") && m.is(i + 1, ":") && m.is(i + 2, ":"))
}

/// The event-completeness rule.
fn event_completeness(files: &[FileModel], out: &mut Vec<Candidate>) {
    // Transitive "emits" closure over the tcmalloc crate, name-based.
    let crate_files: Vec<(usize, &FileModel)> = files
        .iter()
        .enumerate()
        .filter(|(_, m)| m.rel.starts_with("crates/tcmalloc/src/"))
        .collect();
    if crate_files.is_empty() {
        return;
    }
    let mut emits: BTreeSet<&str> = BTreeSet::new();
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, m) in &crate_files {
        for f in &m.fns {
            if emits_directly(m, f) {
                emits.insert(&f.name);
            }
            for c in &f.calls {
                edges.entry(&f.name).or_default().insert(c);
            }
        }
    }
    // Fixpoint: a name emits if any callee name emits.
    loop {
        let mut grew = false;
        for (name, callees) in &edges {
            if !emits.contains(name) && callees.iter().any(|c| emits.contains(c)) {
                emits.insert(name);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }

    for (fi, m) in &crate_files {
        let is_tier = TIER_FILES.contains(&m.rel.as_str())
            || m.rel.starts_with("crates/tcmalloc/src/pageheap/");
        if !is_tier {
            continue;
        }
        for f in &m.fns {
            if f.is_pub
                && f.receiver == Receiver::SelfMut
                && !f.in_test
                && f.body.0 != f.body.1
                && !emits.contains(f.name.as_str())
            {
                out.push(Candidate {
                    rule: Rule::EventCompleteness,
                    tag: "event-completeness",
                    file: *fi,
                    line: f.line,
                    col: 1,
                    message: format!(
                        "pub fn `{}` mutates tier state (&mut self) but never emits an AllocEvent",
                        f.name
                    ),
                });
            }
        }
    }

    catalog_coverage(&crate_files, out);
}

/// Every variant of the `AllocEvent` catalog must be constructed somewhere
/// in tier code (outside `events.rs` itself, whose constructions are the
/// sink plumbing and its tests): literally, or by calling the typed bus
/// entry point that builds it.
fn catalog_coverage(crate_files: &[(usize, &FileModel)], out: &mut Vec<Candidate>) {
    const EVENTS_RS: &str = "crates/tcmalloc/src/events.rs";
    let Some((ei, events)) = crate_files.iter().find(|(_, m)| m.rel == EVENTS_RS) else {
        return;
    };
    let variants = enum_variants(events, "AllocEvent");
    let mut constructed: BTreeSet<&str> = BTreeSet::new();
    for (_, m) in crate_files {
        if m.rel == EVENTS_RS {
            continue;
        }
        for i in 0..m.len() {
            if m.is(i, "AllocEvent") && m.is(i + 1, ":") && m.is(i + 2, ":") && i + 3 < m.len() {
                constructed.insert(m.text(i + 3));
            }
        }
        for call in m.fns.iter().flat_map(|f| &f.calls) {
            if let Some((_, kinds)) = BUS_ENTRY_POINTS.iter().find(|(entry, _)| call == entry) {
                constructed.extend(kinds.iter());
            }
        }
    }
    for (name, line) in &variants {
        if !constructed.contains(name.as_str()) {
            out.push(Candidate {
                rule: Rule::EventCompleteness,
                tag: "event-completeness",
                file: *ei,
                line: *line,
                col: 1,
                message: format!(
                    "AllocEvent::{name} is in the catalog but no tier ever constructs it"
                ),
            });
        }
    }
}

/// The variants of `enum <name>`: idents at nesting depth 1 of the enum
/// body that start a variant (first token, or right after a `,` / a closed
/// variant payload).
fn enum_variants(m: &FileModel, enum_name: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let n = m.len();
    let mut i = 0;
    while i < n {
        if m.is(i, "enum") && m.is(i + 1, enum_name) {
            // Find the opening brace, then walk the body.
            let mut j = i + 2;
            while j < n && !m.is(j, "{") {
                j += 1;
            }
            let mut depth = 0i32;
            let mut expect_variant = true;
            while j < n {
                let t = m.text(j);
                match t {
                    "{" | "(" => {
                        depth += 1;
                    }
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return out;
                        }
                        if depth == 1 {
                            expect_variant = true;
                        }
                    }
                    ")" => {
                        depth -= 1;
                    }
                    "," if depth == 1 => {
                        expect_variant = true;
                    }
                    "#" => {
                        // Attribute on a variant: skip `[…]`.
                        if m.is(j + 1, "[") {
                            let mut bd = 0i32;
                            j += 1;
                            while j < n {
                                if m.is(j, "[") {
                                    bd += 1;
                                } else if m.is(j, "]") {
                                    bd -= 1;
                                    if bd == 0 {
                                        break;
                                    }
                                }
                                j += 1;
                            }
                        }
                    }
                    _ => {
                        if depth == 1 && expect_variant && m.tok(j).kind == TokenKind::Ident {
                            out.push((t.to_string(), m.line_of(j)));
                            expect_variant = false;
                        }
                    }
                }
                j += 1;
            }
            return out;
        }
        i += 1;
    }
    out
}

/// The panic-surface rule: reachability from the fallible roots, then
/// panic macros and computed indexing inside reachable functions.
fn panic_surface(files: &[FileModel], out: &mut Vec<Candidate>) {
    let crate_files: Vec<(usize, &FileModel)> = files
        .iter()
        .enumerate()
        .filter(|(_, m)| m.rel.starts_with("crates/tcmalloc/src/"))
        .collect();
    if crate_files.is_empty() {
        return;
    }
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut defined: BTreeSet<&str> = BTreeSet::new();
    for (_, m) in &crate_files {
        for f in &m.fns {
            if f.in_test {
                continue;
            }
            defined.insert(&f.name);
            for c in &f.calls {
                if !c.ends_with('!') {
                    edges.entry(&f.name).or_default().insert(c);
                }
            }
        }
    }
    let mut reach: BTreeSet<&str> = FALLIBLE_ROOTS
        .iter()
        .copied()
        .filter(|r| defined.contains(r))
        .collect();
    let mut frontier: Vec<&str> = reach.iter().copied().collect();
    while let Some(name) = frontier.pop() {
        if let Some(callees) = edges.get(name) {
            for c in callees {
                if defined.contains(c) && reach.insert(c) {
                    frontier.push(c);
                }
            }
        }
    }
    if reach.is_empty() {
        return;
    }

    for (fi, m) in &crate_files {
        for f in &m.fns {
            if f.in_test || f.body.0 == f.body.1 || !reach.contains(f.name.as_str()) {
                continue;
            }
            scan_fn_panic_surface(*fi, m, f, out);
        }
    }
}

/// Panic macros and computed indexing inside one reachable function body.
fn scan_fn_panic_surface(fi: usize, m: &FileModel, f: &FnItem, out: &mut Vec<Candidate>) {
    let end = f.body.1.min(m.len());
    let mut i = f.body.0;
    while i < end {
        let t = m.text(i);
        if matches!(t, "panic" | "todo" | "unimplemented") && m.is(i + 1, "!") {
            out.push(Candidate {
                rule: Rule::PanicSurface,
                tag: "panic-surface",
                file: fi,
                line: m.line_of(i),
                col: m.tok(i).col,
                message: format!(
                    "`{t}!` on the fallible path (reachable from {}); return a structured error",
                    FALLIBLE_ROOTS.join("/")
                ),
            });
        }
        // Computed indexing: `recv[ … ]` where `…` is more than a plain
        // identifier / field path / literal / cast. `recv` must be an
        // index-able expression tail (ident, `)`, `]`), which excludes
        // attributes (`#[…]`), array literals (`= […]`), and slice types.
        if t == "["
            && i > f.body.0
            && (m.tok(i - 1).kind == TokenKind::Ident || m.is(i - 1, ")") || m.is(i - 1, "]"))
            && !NOT_CALLS.contains(&m.text(i - 1))
        {
            let (computed, close) = computed_index(m, i, end);
            if computed {
                out.push(Candidate {
                    rule: Rule::PanicSurface,
                    tag: "panic-surface",
                    file: fi,
                    line: m.line_of(i),
                    col: m.tok(i).col,
                    message: "computed slice index on the fallible path; use `.get()` or justify the bound"
                        .to_string(),
                });
            }
            i = close;
            continue;
        }
        i += 1;
    }
}

/// Inspects an index expression starting at the `[` at sig-index `open`.
/// Returns (is-computed, sig-index of the matching `]`). "Computed" means
/// the index contains arithmetic, a range, or a call — anything whose
/// bounds the reader cannot check locally.
fn computed_index(m: &FileModel, open: usize, end: usize) -> (bool, usize) {
    let mut depth = 0i32;
    let mut computed = false;
    let mut i = open;
    while i < end {
        let t = m.text(i);
        match t {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (computed, i);
                }
            }
            "+" | "-" | "*" | "/" | "%" | "(" | "<" | ">" | "&" | "|" | "^" => computed = true,
            // `..` (range) is computed; a lone `.` is field access.
            "." if m.is(i + 1, ".") => {
                computed = true;
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    (computed, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(rel: &str, src: &str) -> FileModel {
        FileModel::build(rel.to_string(), src.to_string())
    }

    fn run_one(rel: &str, src: &str) -> Vec<Finding> {
        run_rules(&[model(rel, src)])
    }

    #[test]
    fn string_and_comment_occurrences_do_not_fire() {
        let f = run_one(
            "crates/sim-os/src/x.rs",
            "fn f() {\n  let s = \"Instant::now() thread_rng HashMap<\";\n  // Instant::now() in a comment\n  /* SystemTime::now() */\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_fires_on_code() {
        let f = run_one(
            "crates/sim-os/src/x.rs",
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn concurrency_denied_outside_sanctioned() {
        let f = run_one(
            "crates/tcmalloc/src/span.rs",
            "use std::sync::Mutex;\nfn f() { let m = Mutex::new(0); }\n",
        );
        assert_eq!(f.len(), 2, "{f:?}"); // the use + the construction
        assert!(f.iter().all(|x| x.rule == "concurrency-readiness"));
    }

    #[test]
    fn concurrency_allowed_in_parallel_crate_but_orderings_need_tags() {
        let f = run_one(
            "crates/parallel/src/lib.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\nfn f(b: &std::sync::atomic::AtomicBool) {\n  b.store(true, Ordering::Release);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("Ordering::Release"));
        let suppressed = run_one(
            "crates/parallel/src/lib.rs",
            "fn f(b: &std::sync::atomic::AtomicBool) {\n  // lint:allow(atomic-ordering) release pairs with the Acquire load\n  b.store(true, Ordering::Release);\n}\n",
        );
        assert!(suppressed.is_empty(), "{suppressed:?}");
    }

    #[test]
    fn stale_allow_is_a_finding() {
        let f = run_one(
            "crates/sim-os/src/x.rs",
            "// lint:allow(wall-clock) nothing here needs it\nfn f() {}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "suppression-hygiene");
        assert!(f[0].message.contains("stale"));
    }

    #[test]
    fn unknown_allow_tag_is_a_finding() {
        let f = run_one(
            "crates/sim-os/src/x.rs",
            "// lint:allow(panic-in-prod)\nfn f() {}\n",
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn panic_surface_tracks_reachability() {
        let src = "pub fn try_malloc_with_site(&mut self) -> Result<u64, ()> { helper() }\nfn helper() -> Result<u64, ()> { panic!(\"no\") }\nfn unrelated() { panic!(\"fine: unreachable from try paths\") }\n";
        let f = run_one("crates/tcmalloc/src/alloc.rs", src);
        let panics: Vec<_> = f.iter().filter(|x| x.rule == "panic-surface").collect();
        assert_eq!(panics.len(), 1, "{f:?}");
        assert_eq!(panics[0].line, 2);
    }

    #[test]
    fn computed_index_vs_plain_index() {
        let src = "pub fn try_free(&mut self, i: usize) {\n  let a = self.xs[i];\n  let b = self.xs[i + 1];\n  let c = &self.xs[lo..hi];\n}\n";
        let f = run_one("crates/tcmalloc/src/alloc.rs", src);
        let idx: Vec<_> = f
            .iter()
            .filter(|x| x.message.contains("computed"))
            .collect();
        assert_eq!(idx.len(), 2, "{f:?}");
        assert_eq!(idx[0].line, 3);
        assert_eq!(idx[1].line, 4);
    }

    #[test]
    fn lock_order_violation_and_missing_decl() {
        let missing = run_one(
            "crates/parallel/src/lib.rs",
            "fn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n  let _x = a.lock();\n  let _y = b.lock();\n}\n",
        );
        assert!(
            missing
                .iter()
                .any(|x| x.message.contains("no lint:lock-order")),
            "{missing:?}"
        );
        let out_of_order = run_one(
            "crates/parallel/src/lib.rs",
            "// lint:lock-order(a, b)\nfn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n  let _y = b.lock();\n  let _x = a.lock();\n}\n",
        );
        assert!(
            out_of_order
                .iter()
                .any(|x| x.message.contains("out of canonical lock order")),
            "{out_of_order:?}"
        );
        let clean = run_one(
            "crates/parallel/src/lib.rs",
            "// lint:lock-order(a, b)\nfn f(a: &Mutex<u32>, b: &Mutex<u32>) {\n  let _x = a.lock();\n  let _y = b.lock();\n}\n",
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn event_completeness_flags_silent_mutators() {
        let src = "pub struct T;\nimpl T {\n  pub fn mutate(&mut self) { self.x += 1; }\n  pub fn emitting(&mut self, bus: &mut EventBus) { bus.emit(AllocEvent::PerCpuHit { vcpu: 0, class: 0 }); }\n  pub fn delegates(&mut self, bus: &mut EventBus) { self.emitting(bus); }\n  pub fn read_only(&self) -> u32 { 0 }\n}\n";
        let f = run_one("crates/tcmalloc/src/percpu.rs", src);
        let ec: Vec<_> = f
            .iter()
            .filter(|x| x.rule == "event-completeness")
            .collect();
        assert_eq!(ec.len(), 1, "{f:?}");
        assert!(ec[0].message.contains("`mutate`"));
    }

    #[test]
    fn catalog_coverage_reports_unconstructed_variants() {
        let events = model(
            "crates/tcmalloc/src/events.rs",
            "pub enum AllocEvent {\n  Used { a: u32 },\n  NeverBuilt { b: u32 },\n}\n",
        );
        let tier = model(
            "crates/tcmalloc/src/percpu.rs",
            "fn f(bus: &mut EventBus) { bus.emit(AllocEvent::Used { a: 1 }); }\n",
        );
        let f = run_rules(&[events, tier]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("NeverBuilt"));
        assert_eq!(f[0].file, "crates/tcmalloc/src/events.rs");
    }

    #[test]
    fn bus_entry_point_call_is_the_construction_site_of_its_kinds() {
        let events = model(
            "crates/tcmalloc/src/events.rs",
            "pub enum AllocEvent {\n  PerCpuHit { a: u32 },\n  MallocDone { b: u32 },\n  SamplerPick { c: u32 },\n  FreeDone { d: u32 },\n}\n",
        );
        let tier = model(
            "crates/tcmalloc/src/percpu.rs",
            "fn f(bus: &mut EventBus) { bus.percpu_hit(0, 1); bus.malloc_done(1); }\n",
        );
        let f = run_rules(&[events, tier]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("FreeDone"), "{f:?}");
    }

    #[test]
    fn multiline_expression_is_not_hidden() {
        // The old line-regex engine required the receiver and method on one
        // line; the token stream does not care.
        let f = run_one(
            "crates/fleet/src/x.rs",
            "fn f(s: &mut CycleStats) {\n  s\n    .charge(1.0);\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "direct-attribution");
    }
}
