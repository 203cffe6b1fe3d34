//! The rule engine: six deny-by-default rules over one token stream, plus
//! per-site suppression pragmas.
//!
//! Every rule is grounded in an existing workspace contract (see
//! `docs/LINTS.md` for the history):
//!
//! * **R1 `unsafe-needs-safety`** — every `unsafe` is justified by a
//!   `// SAFETY:` comment immediately above it (or above the statement it
//!   opens).
//! * **R2 `no-panic-in-decode`** — `unwrap`/`expect`/`panic!`-family macros
//!   and direct slice indexing are forbidden in the configured wire-facing
//!   decode modules: garbage bytes must become typed errors, never panics.
//! * **R3 `atomic-ordering-allowlist`** — naming an atomic `Ordering` at all
//!   requires an allowlist entry for the file; the named ordering must match.
//! * **R4 `no-wall-clock-in-kernels`** — `Instant`/`SystemTime` are banned in
//!   deterministic kernel modules (bit-identical output is a tested
//!   invariant; a wall-clock read is the first step towards breaking it).
//! * **R5 `shim-surface-guard`** — `use`/`extern crate` roots must be the
//!   standard library, a workspace crate, a vendored shim, or a local
//!   module: the offline-build constraint, mechanically enforced.
//! * **R6 `no-timed-wait`** — `Duration`, `sleep` and `wait_timeout` are
//!   banned in the configured blocking paths: a wait there is woken by
//!   whoever changes what it waits for, never ended by a timer.
//!
//! Suppression: `// lint:allow(<rule>): <reason>` on the offending line or
//! the line above. The reason is mandatory; a reason-less or malformed
//! pragma is itself a finding (rule `pragma`), and so is naming an unknown
//! rule — a typo must not become a silent no-op.

use crate::config::{Config, FileScope};
use crate::report::{Finding, Rule};
use crate::scan::{scan, Token, TokenKind};
use std::collections::BTreeSet;

/// Atomic `Ordering` variant names (R3 matches them bare or path-qualified,
/// so both `Ordering::SeqCst` and an imported `SeqCst` are caught).
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Crate roots that are always importable.
const BUILTIN_ROOTS: [&str; 7] = ["std", "core", "alloc", "crate", "self", "super", "proc_macro"];

/// Keywords that may legitimately precede a `[` without it being an index
/// expression (`let [a, b] = …`, `&mut [0u8; 4]`, `for w in [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 30] = [
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "extern", "false", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return", "static", "struct",
    "trait", "true",
];

/// Cross-file context for R5: the import surface a file may draw from.
#[derive(Clone, Debug, Default)]
pub struct ImportSurface {
    /// Underscore-normalised names of every workspace member (crates, shims
    /// and the facade), derived from the member manifests, so adding a real
    /// external dependency cannot sneak past the lint unnoticed.
    pub workspace_crates: BTreeSet<String>,
    /// `mod` names declared anywhere in the *same* member (uniform paths let
    /// `use stats::…` resolve to a local module).
    pub local_mods: BTreeSet<String>,
}

/// A parsed per-site suppression.
struct Pragma {
    rules: Vec<Rule>,
    /// Lines the pragma comment itself covers.
    from_line: u32,
    to_line: u32,
    /// Line of the next code token — what an above-the-line pragma targets.
    target_line: u32,
}

/// Everything derived from one file's tokens before rules run.
pub struct FileAnalysis<'a> {
    src: &'a [u8],
    rel: &'a str,
    toks: Vec<Token>,
    /// Per-token: inside a `#[cfg(test)]` / `#[test]` item.
    in_test: Vec<bool>,
    /// Named-function body spans as token-index ranges.
    fn_frames: Vec<(String, usize, usize)>,
    pragmas: Vec<Pragma>,
    pragma_findings: Vec<Finding>,
}

impl<'a> FileAnalysis<'a> {
    /// Lexes and pre-analyses one file.
    pub fn new(rel: &'a str, src: &'a [u8]) -> Self {
        let toks = scan(src);
        let in_test = mark_test_items(src, &toks);
        let fn_frames = collect_fn_frames(src, &toks);
        let (pragmas, pragma_findings) = collect_pragmas(rel, src, &toks);
        FileAnalysis { src, rel, toks, in_test, fn_frames, pragmas, pragma_findings }
    }

    /// `mod` names declared in this file (feeds [`ImportSurface`]).
    pub fn mod_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, t) in self.toks.iter().enumerate() {
            if t.is_ident(self.src, "mod") {
                if let Some(j) = self.next_code(i) {
                    if self.toks[j].kind == TokenKind::Ident {
                        out.push(self.toks[j].text(self.src).into_owned());
                    }
                }
            }
        }
        out
    }

    /// Names of the functions this file defines outside test items.
    pub fn fn_names(&self) -> Vec<&str> {
        self.fn_frames.iter().filter(|(_, open, _)| !self.in_test[*open]).map(|(name, _, _)| name.as_str()).collect()
    }

    /// Runs every rule, applies pragma suppression, returns the findings.
    pub fn lint(&self, cfg: &Config, surface: &ImportSurface) -> Vec<Finding> {
        let mut findings = self.pragma_findings.clone();
        self.rule_unsafe_needs_safety(&mut findings);
        self.rule_no_panic_in_decode(cfg, &mut findings);
        self.rule_atomic_ordering(cfg, &mut findings);
        self.rule_no_wall_clock(cfg, &mut findings);
        self.rule_shim_surface(cfg, surface, &mut findings);
        self.rule_no_timed_wait(cfg, &mut findings);
        findings.retain(|f| !self.suppressed(f));
        findings.sort_by_key(|f| (f.line, f.col, f.rule));
        findings
    }

    fn suppressed(&self, f: &Finding) -> bool {
        // `pragma` findings are never suppressible.
        f.rule != Rule::Pragma
            && self.pragmas.iter().any(|p| {
                p.rules.contains(&f.rule) && ((p.from_line <= f.line && f.line <= p.to_line) || f.line == p.target_line)
            })
    }

    fn finding(&self, rule: Rule, t: &Token, message: String) -> Finding {
        Finding { rule, file: self.rel.to_string(), line: t.line, col: t.col, message }
    }

    /// Next non-comment token index after `i`.
    fn next_code(&self, i: usize) -> Option<usize> {
        self.toks.iter().enumerate().skip(i + 1).find(|(_, t)| !t.is_comment()).map(|(j, _)| j)
    }

    /// Previous non-comment token index before `i`.
    fn prev_code(&self, i: usize) -> Option<usize> {
        self.toks[..i].iter().enumerate().rev().find(|(_, t)| !t.is_comment()).map(|(j, _)| j)
    }

    /// Whether token `i` is in `scope`: outside test items, and inside one
    /// of its named fns when it names any.
    fn in_scope(&self, scope: &FileScope, i: usize) -> bool {
        !self.in_test[i]
            && match &scope.fns {
                None => true,
                Some(fns) => self.enclosing_fns(i).any(|n| fns.iter().any(|f| f == n)),
            }
    }

    /// Names of every named fn whose body encloses token `i`.
    fn enclosing_fns(&self, i: usize) -> impl Iterator<Item = &str> {
        self.fn_frames
            .iter()
            .filter(move |(_, open, close)| *open <= i && i <= *close)
            .map(|(name, _, _)| name.as_str())
    }

    // ----- R1 ------------------------------------------------------------

    fn rule_unsafe_needs_safety(&self, findings: &mut Vec<Finding>) {
        for (i, t) in self.toks.iter().enumerate() {
            if !t.is_ident(self.src, "unsafe") {
                continue;
            }
            if self.safety_comment_above(t.line) || self.safety_in_statement(i) {
                continue;
            }
            findings.push(self.finding(
                Rule::UnsafeNeedsSafety,
                t,
                "`unsafe` without an immediately preceding `// SAFETY:` comment justifying it".into(),
            ));
        }
    }

    /// True when the contiguous comment block ending directly above `line`
    /// (or sharing it) contains `SAFETY:`.
    fn safety_comment_above(&self, line: u32) -> bool {
        let comments: Vec<(u32, u32, bool)> = self
            .toks
            .iter()
            .filter(|t| t.is_comment())
            .map(|t| (t.line, t.end_line, t.text(self.src).contains("SAFETY:")))
            .collect();
        let mut l = line.saturating_sub(1);
        while l > 0 {
            match comments.iter().find(|&&(s, e, _)| s <= l && l <= e) {
                Some(&(_, _, true)) => return true,
                Some(&(s, _, false)) if s > 1 => l = s - 1,
                _ => return false,
            }
        }
        false
    }

    /// True when a `SAFETY:` comment appears between the start of the
    /// enclosing statement (previous `;`/`{`/`}`) and the `unsafe` token —
    /// covers `let x =\n    unsafe { … }` with the comment above the `let`.
    fn safety_in_statement(&self, i: usize) -> bool {
        for t in self.toks[..i].iter().rev() {
            if t.is_comment() {
                if t.text(self.src).contains("SAFETY:") {
                    return true;
                }
            } else if t.is_punct(self.src, b';') || t.is_punct(self.src, b'{') || t.is_punct(self.src, b'}') {
                // The comment block directly above the statement's first
                // line also counts (it may sit above a `let` that follows
                // the boundary token on an earlier line).
                return match self.toks[..i].iter().rev().find(|t| !t.is_comment()) {
                    Some(first) => self.safety_comment_above(first.line) && first.line != t.line,
                    None => false,
                };
            }
        }
        false
    }

    // ----- R2 ------------------------------------------------------------

    fn rule_no_panic_in_decode(&self, cfg: &Config, findings: &mut Vec<Finding>) {
        let Some(scope) = cfg.decode_scope(self.rel) else { return };
        for (i, t) in self.toks.iter().enumerate() {
            if !self.in_scope(scope, i) {
                continue;
            }
            if t.kind == TokenKind::Ident {
                let name = t.text(self.src);
                let prev_is_dot = self.prev_code(i).is_some_and(|j| self.toks[j].is_punct(self.src, b'.'));
                let next_is_bang = self.next_code(i).is_some_and(|j| self.toks[j].is_punct(self.src, b'!'));
                if (name == "unwrap" || name == "expect") && prev_is_dot {
                    findings.push(self.finding(
                        Rule::NoPanicInDecode,
                        t,
                        format!(
                            "`.{name}()` in a decode module: malformed input must become a \
                             typed error, not a panic"
                        ),
                    ));
                } else if matches!(&*name, "panic" | "unreachable" | "todo" | "unimplemented") && next_is_bang {
                    findings.push(self.finding(
                        Rule::NoPanicInDecode,
                        t,
                        format!("`{name}!` in a decode module: return a typed error instead"),
                    ));
                }
            } else if t.is_punct(self.src, b'[') && self.is_index_bracket(i) {
                findings.push(
                    self.finding(
                        Rule::NoPanicInDecode,
                        t,
                        "direct slice indexing in a decode module can panic on garbage input; \
                     use `.get(…)` and surface a typed error"
                            .into(),
                    ),
                );
            }
        }
    }

    /// Heuristic: `[` is an index expression when it follows an identifier
    /// (that is not a keyword), `)`, `]` or `?` — never after `let`, `=`,
    /// `(`, `!` (macros), `#` (attributes), `in`, `&mut`, etc.
    fn is_index_bracket(&self, i: usize) -> bool {
        let Some(j) = self.prev_code(i) else { return false };
        let p = &self.toks[j];
        match p.kind {
            TokenKind::Ident => {
                let name = p.text(self.src);
                !NON_INDEX_KEYWORDS.contains(&&*name)
            }
            TokenKind::Punct => p.is_punct(self.src, b')') || p.is_punct(self.src, b']') || p.is_punct(self.src, b'?'),
            _ => false,
        }
    }

    // ----- R3 ------------------------------------------------------------

    fn rule_atomic_ordering(&self, cfg: &Config, findings: &mut Vec<Finding>) {
        for t in &self.toks {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text(self.src);
            if !ORDERINGS.contains(&&*name) {
                continue;
            }
            match cfg.allowed_orderings(self.rel) {
                None => findings.push(self.finding(
                    Rule::AtomicOrderingAllowlist,
                    t,
                    format!(
                        "atomic ordering `{name}` in a module with no allowlist entry; add a \
                         justified `allow =` line under [rule.atomic-ordering-allowlist] in \
                         euler-lint.toml"
                    ),
                )),
                Some(allowed) if !allowed.iter().any(|a| a == &*name) => {
                    findings.push(self.finding(
                        Rule::AtomicOrderingAllowlist,
                        t,
                        format!(
                            "atomic ordering `{name}` is not allowlisted for this module \
                             (allowed: {}); an ordering change is a reviewed protocol change, \
                             not a drive-by edit",
                            allowed.join(", ")
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
    }

    // ----- R4 ------------------------------------------------------------

    fn rule_no_wall_clock(&self, cfg: &Config, findings: &mut Vec<Finding>) {
        if !cfg.is_kernel(self.rel) {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test[i] || t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text(self.src);
            if name == "Instant" || name == "SystemTime" {
                findings.push(self.finding(
                    Rule::NoWallClockInKernels,
                    t,
                    format!(
                        "`{name}` in a deterministic kernel module: kernels must be \
                         bit-identical across runs; measure time in the orchestration layer"
                    ),
                ));
            }
        }
    }

    // ----- R5 ------------------------------------------------------------

    fn rule_shim_surface(&self, cfg: &Config, surface: &ImportSurface, findings: &mut Vec<Finding>) {
        for (i, t) in self.toks.iter().enumerate() {
            let root_idx = if t.is_ident(self.src, "use") {
                self.import_root(i)
            } else if t.is_ident(self.src, "extern") {
                // `extern crate name`; `extern "C"` has a string next.
                match self.next_code(i) {
                    Some(j) if self.toks[j].is_ident(self.src, "crate") => self.import_root(j),
                    _ => None,
                }
            } else {
                None
            };
            let Some(r) = root_idx else { continue };
            let root = self.toks[r].text(self.src);
            let allowed = BUILTIN_ROOTS.contains(&&*root)
                || surface.workspace_crates.contains(&*root)
                || surface.local_mods.contains(&*root)
                || cfg.extra_crates.iter().any(|c| c == &*root);
            if !allowed {
                findings.push(self.finding(
                    Rule::ShimSurfaceGuard,
                    &self.toks[r],
                    format!(
                        "`{root}` is not a workspace crate, vendored shim or local module; \
                         the build has no crates.io access — vendor a shim under shims/ first"
                    ),
                ));
            }
        }
    }

    // ----- R6 ------------------------------------------------------------

    fn rule_no_timed_wait(&self, cfg: &Config, findings: &mut Vec<Finding>) {
        let Some(scope) = cfg.untimed_scope(self.rel) else { return };
        for (i, t) in self.toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || !self.in_scope(scope, i) {
                continue;
            }
            let name = t.text(self.src);
            if matches!(&*name, "Duration" | "sleep" | "wait_timeout") {
                findings.push(self.finding(
                    Rule::NoTimedWait,
                    t,
                    format!(
                        "`{name}` in a path that blocks until woken: wake the waiter where what \
                         it waits for changes instead of waiting on a timer"
                    ),
                ));
            }
        }
    }

    /// The root identifier of an import path starting after token `i`
    /// (skips a leading `::`).
    fn import_root(&self, i: usize) -> Option<usize> {
        let mut j = self.next_code(i)?;
        while self.toks[j].is_punct(self.src, b':') {
            j = self.next_code(j)?;
        }
        (self.toks[j].kind == TokenKind::Ident).then_some(j)
    }
}

/// Marks tokens belonging to `#[cfg(test)]` / `#[test]` items (the attached
/// item runs to its matching `}` or terminating `;`).
fn mark_test_items(src: &[u8], toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct(src, b'#') {
            i += 1;
            continue;
        }
        let Some(open) = next_code_idx(toks, i) else { break };
        // `#![…]` inner attributes attach to the enclosing module, not the
        // next item.
        if toks[open].is_punct(src, b'!') {
            i = open + 1;
            continue;
        }
        if !toks[open].is_punct(src, b'[') {
            i = open;
            continue;
        }
        let (close, is_test) = scan_attribute(src, toks, open);
        if !is_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes between the cfg(test) and the item.
        let mut at = close;
        loop {
            match next_code_idx(toks, at) {
                Some(h) if toks[h].is_punct(src, b'#') => match next_code_idx(toks, h) {
                    Some(o) if toks[o].is_punct(src, b'[') => at = scan_attribute(src, toks, o).0,
                    _ => break,
                },
                _ => break,
            }
        }
        // Consume the item: to the matching `}` of its first brace, or `;`.
        let mut depth = 0i64;
        let mut end = toks.len().saturating_sub(1);
        let mut j = at + 1;
        while j < toks.len() {
            if toks[j].is_punct(src, b'{') {
                depth += 1;
            } else if toks[j].is_punct(src, b'}') {
                depth -= 1;
                if depth <= 0 {
                    end = j;
                    break;
                }
            } else if toks[j].is_punct(src, b';') && depth == 0 {
                end = j;
                break;
            }
            j += 1;
        }
        for flag in in_test.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    in_test
}

/// Scans an attribute starting at its `[` token; returns (index of the
/// closing `]`, whether the attribute gates on tests). `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]` and `#[cfg_attr(test, …)]` all
/// count.
fn scan_attribute(src: &[u8], toks: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i64;
    let mut is_test = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(src, b'[') {
            depth += 1;
        } else if t.is_punct(src, b']') {
            depth -= 1;
            if depth == 0 {
                return (j, is_test);
            }
        } else if t.is_ident(src, "test") {
            is_test = true;
        }
        j += 1;
    }
    (toks.len().saturating_sub(1), is_test)
}

fn next_code_idx(toks: &[Token], i: usize) -> Option<usize> {
    toks.iter().enumerate().skip(i + 1).find(|(_, t)| !t.is_comment()).map(|(j, _)| j)
}

/// Collects named-fn body spans: `fn name … { … }` as token-index ranges of
/// the braces. Trait-method declarations (`fn name(…);`) have no body and
/// produce no frame; closures and nested fns stay inside their parent span.
fn collect_fn_frames(src: &[u8], toks: &[Token]) -> Vec<(String, usize, usize)> {
    let mut frames = Vec::new();
    let mut stack: Vec<(String, i64, usize)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0i64;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(src, b'{') {
            depth += 1;
            if let Some(name) = pending.take() {
                stack.push((name, depth, i));
            }
        } else if t.is_punct(src, b'}') {
            if let Some((_, d, _)) = stack.last() {
                if *d == depth {
                    let (name, _, open) = stack.pop().unwrap_or_default();
                    frames.push((name, open, i));
                }
            }
            depth -= 1;
        } else if t.is_punct(src, b';') {
            // `fn` declaration without a body (trait method, extern block).
            pending = None;
        } else if t.is_ident(src, "fn") {
            if let Some(j) = next_code_idx(toks, i) {
                if toks[j].kind == TokenKind::Ident {
                    pending = Some(toks[j].text(src).into_owned());
                }
            }
        }
    }
    // Unclosed frames (truncated input) extend to the last token.
    let last = toks.len().saturating_sub(1);
    frames.extend(stack.into_iter().map(|(name, _, open)| (name, open, last)));
    frames
}

/// Parses `lint:allow(<rules>): <reason>` pragmas out of the comments.
/// Malformed pragmas become findings — never silent no-ops.
fn collect_pragmas(rel: &str, src: &[u8], toks: &[Token]) -> (Vec<Pragma>, Vec<Finding>) {
    let mut pragmas = Vec::new();
    let mut findings = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let text = t.text(src);
        // Doc comments are documentation, not pragma carriers — they may
        // legitimately *describe* the pragma syntax (as this crate's do).
        if ["///", "//!", "/**", "/*!"].iter().any(|p| text.starts_with(p)) {
            continue;
        }
        let Some(pos) = text.find("lint:allow") else { continue };
        let mut fail = |message: String| {
            findings.push(Finding { rule: Rule::Pragma, file: rel.to_string(), line: t.line, col: t.col, message });
        };
        let rest = &text[pos + "lint:allow".len()..];
        let Some(body) = rest.strip_prefix('(') else {
            fail("malformed pragma: expected `lint:allow(<rule>): <reason>`".into());
            continue;
        };
        let Some((names, after)) = body.split_once(')') else {
            fail("malformed pragma: missing `)` in `lint:allow(<rule>): <reason>`".into());
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for name in names.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match Rule::from_name(name) {
                Some(r) => rules.push(r),
                None => {
                    fail(format!("pragma names unknown rule `{name}`"));
                    bad = true;
                }
            }
        }
        if bad {
            continue;
        }
        if rules.is_empty() {
            fail("pragma suppresses no rules: `lint:allow(<rule>): <reason>`".into());
            continue;
        }
        let reason = after.trim_start().strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            fail("suppression pragma requires a reason: `lint:allow(<rule>): <reason>`".into());
            continue;
        }
        let target_line = next_code_idx(toks, i).map_or(t.end_line, |j| toks[j].line);
        pragmas.push(Pragma { rules, from_line: t.line, to_line: t.end_line, target_line });
    }
    (pragmas, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        let surface = ImportSurface::default();
        FileAnalysis::new(rel, src.as_bytes()).lint(cfg, &surface)
    }

    fn decode_cfg(file: &str) -> Config {
        Config::parse(&format!("[rule.no-panic-in-decode]\nfile = {file}\n")).unwrap()
    }

    #[test]
    fn r1_flags_uncommented_unsafe_with_exact_position() {
        let src = "fn f() {\n    let x = unsafe { g() };\n}\n";
        let f = lint_src("a.rs", src, &Config::default());
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line, f[0].col), (Rule::UnsafeNeedsSafety, 2, 13));
    }

    #[test]
    fn r1_accepts_comment_above_or_statement_start() {
        let above = "fn f() {\n    // SAFETY: g is fine\n    let x = unsafe { g() };\n}\n";
        assert!(lint_src("a.rs", above, &Config::default()).is_empty());
        let split = "fn f() {\n    // SAFETY: g is fine\n    let x =\n        unsafe { g() };\n}\n";
        assert!(lint_src("a.rs", split, &Config::default()).is_empty());
        let non_safety = "fn f() {\n    // just a comment\n    let x = unsafe { g() };\n}\n";
        assert_eq!(lint_src("a.rs", non_safety, &Config::default()).len(), 1);
    }

    #[test]
    fn r1_string_and_comment_unsafe_do_not_count() {
        let src = "fn f() { let s = \"unsafe\"; } // unsafe\n";
        assert!(lint_src("a.rs", src, &Config::default()).is_empty());
    }

    #[test]
    fn r2_flags_unwrap_expect_macros_and_indexing() {
        let cfg = decode_cfg("d.rs");
        let src = "fn f(b: &[u8]) -> u8 {\n    let x = b.first().unwrap();\n    \
                   let y = o.expect(\"msg\");\n    if bad { panic!(\"no\") }\n    b[0]\n}\n";
        let f = lint_src("d.rs", src, &cfg);
        let rules: Vec<_> = f.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            rules,
            vec![
                (Rule::NoPanicInDecode, 2),
                (Rule::NoPanicInDecode, 3),
                (Rule::NoPanicInDecode, 4),
                (Rule::NoPanicInDecode, 5),
            ]
        );
        assert!(lint_src("other.rs", src, &cfg).is_empty(), "out-of-scope file is untouched");
    }

    #[test]
    fn r2_indexing_heuristic_has_no_false_positives_on_common_forms() {
        let cfg = decode_cfg("d.rs");
        let src = "#[derive(Debug)]\nfn f() {\n    let a = [0u8; 4];\n    let v = vec![1, 2];\n    \
                   let [x, y] = pair;\n    for w in [1, 2] {}\n    let b: [u8; 2] = t;\n    \
                   let s = &mut [0u8; 8];\n}\n";
        assert!(lint_src("d.rs", src, &cfg).is_empty());
        let real = "fn f() { a[i]; f()[0]; m[k][j]; x?[1]; &buf[lo..hi]; }\n";
        assert_eq!(lint_src("d.rs", real, &cfg).len(), 6);
    }

    #[test]
    fn r2_skips_cfg_test_items_and_respects_fn_scope() {
        let cfg = decode_cfg("d.rs");
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint_src("d.rs", src, &cfg).is_empty());
        let scoped = Config::parse("[rule.no-panic-in-decode]\nfile = d.rs @ decode_header\n").unwrap();
        let src = "fn decode_header(b: &[u8]) -> u8 { b[0] }\nfn trusted(b: &[u8]) -> u8 { b[1] }\n";
        let f = lint_src("d.rs", src, &scoped);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn r2_fn_scope_covers_closures_inside_the_named_fn() {
        let scoped = Config::parse("[rule.no-panic-in-decode]\nfile = d.rs @ decode\n").unwrap();
        let src = "fn decode(b: &[u8]) -> u8 {\n    let g = |i: usize| b[i];\n    g(0)\n}\n";
        assert_eq!(lint_src("d.rs", src, &scoped).len(), 1);
    }

    #[test]
    fn r3_requires_an_allowlist_entry_and_matches_bare_names() {
        let cfg = Config::parse("[rule.atomic-ordering-allowlist]\nallow = ok.rs : Relaxed\n").unwrap();
        assert!(lint_src("ok.rs", "x.load(Relaxed); y.store(1, Ordering::Relaxed);", &cfg).is_empty());
        let f = lint_src("ok.rs", "x.load(Ordering::SeqCst);", &cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SeqCst"));
        let f = lint_src("no.rs", "use std::sync::atomic::Ordering::Relaxed;", &cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no allowlist entry"));
    }

    #[test]
    fn r4_bans_wall_clocks_in_kernels_only() {
        let cfg = Config::parse("[rule.no-wall-clock-in-kernels]\nfile = k.rs\n").unwrap();
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(lint_src("k.rs", src, &cfg).len(), 2);
        assert!(lint_src("bench.rs", src, &cfg).is_empty());
        let test_only = "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n";
        assert!(lint_src("k.rs", test_only, &cfg).is_empty());
    }

    #[test]
    fn r5_allows_builtins_members_and_local_mods_only() {
        let mut surface = ImportSurface::default();
        surface.workspace_crates.insert("euler_graph".into());
        surface.local_mods.insert("stats".into());
        let cfg = Config::default();
        let ok = "use std::fmt;\nuse crate::x;\nuse euler_graph::Graph;\nuse stats::Q;\n\
                  use super::*;\nextern \"C\" { fn mmap(); }\n";
        assert!(FileAnalysis::new("a.rs", ok.as_bytes()).lint(&cfg, &surface).is_empty());
        let bad = "use libc::mmap;\nextern crate serde_json;\n";
        let f = FileAnalysis::new("a.rs", bad.as_bytes()).lint(&cfg, &surface);
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("libc"));
        assert!(f[1].message.contains("serde_json"));
    }

    #[test]
    fn r5_extra_crates_from_config_are_allowed() {
        let cfg = Config::parse("[rule.shim-surface-guard]\nallow = libc\n").unwrap();
        let surface = ImportSurface::default();
        assert!(FileAnalysis::new("a.rs", b"use libc::mmap;").lint(&cfg, &surface).is_empty());
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let cfg = decode_cfg("d.rs");
        let same = "fn f() { b[0] } // lint:allow(no-panic-in-decode): bounds checked above\n";
        assert!(lint_src("d.rs", same, &cfg).is_empty());
        let above = "fn f(b: &[u8]) -> u8 {\n    \
                     // lint:allow(no-panic-in-decode): caller validated the frame\n    b[0]\n}\n";
        assert!(lint_src("d.rs", above, &cfg).is_empty());
        let elsewhere = "// lint:allow(no-panic-in-decode): only here\nfn g() {}\n\
                         fn f(b: &[u8]) -> u8 { b[0] }\n";
        assert_eq!(lint_src("d.rs", elsewhere, &cfg).len(), 1, "pragmas are per-site");
    }

    #[test]
    fn pragma_without_reason_or_with_typo_is_a_finding() {
        let cfg = decode_cfg("d.rs");
        let f = lint_src("d.rs", "fn f() { b[0] } // lint:allow(no-panic-in-decode)\n", &cfg);
        assert!(f.iter().any(|f| f.rule == Rule::Pragma && f.message.contains("reason")));
        assert!(f.iter().any(|f| f.rule == Rule::NoPanicInDecode), "no reason, no suppression");
        let f = lint_src("d.rs", "// lint:allow(no-panic-in-dcode): oops\nfn f() { b[0] }\n", &cfg);
        assert!(f.iter().any(|f| f.rule == Rule::Pragma && f.message.contains("unknown rule")));
        let f = lint_src("a.rs", "// lint:allow(pragma): nope\nfn f() {}\n", &Config::default());
        assert!(f.iter().any(|f| f.rule == Rule::Pragma), "`pragma` itself is not suppressible");
    }

    #[test]
    fn pragma_suppresses_only_named_rules() {
        let cfg = decode_cfg("d.rs");
        let src = "fn f() {\n    // lint:allow(unsafe-needs-safety): wrong rule named\n    b[0]\n}\n";
        let f = lint_src("d.rs", src, &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::NoPanicInDecode);
    }

    #[test]
    fn fn_frames_nest_and_close_correctly() {
        let src = b"fn outer() { fn inner() { x(); } y(); }";
        let frames = collect_fn_frames(src, &scan(src));
        assert_eq!(frames.len(), 2);
        let a = FileAnalysis::new("a.rs", src);
        let yi = a.toks.iter().position(|t| t.is_ident(src, "y")).unwrap();
        let names: Vec<_> = a.enclosing_fns(yi).collect();
        assert_eq!(names, ["outer"]);
        let xi = a.toks.iter().position(|t| t.is_ident(src, "x")).unwrap();
        let mut names: Vec<_> = a.enclosing_fns(xi).collect();
        names.sort();
        assert_eq!(names, ["inner", "outer"]);
    }
}
