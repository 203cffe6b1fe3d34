//! Findings and the two report renderings: rustc-style text for humans,
//! JSON for CI artifact upload and tooling.

use std::fmt;

/// The rules the engine can report under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: every `unsafe` must be justified by a `// SAFETY:` comment.
    UnsafeNeedsSafety,
    /// R2: no panicking constructs in wire-facing decode modules.
    NoPanicInDecode,
    /// R3: atomic `Ordering`s must match the per-module allowlist.
    AtomicOrderingAllowlist,
    /// R4: no wall-clock reads in deterministic kernel modules.
    NoWallClockInKernels,
    /// R5: only workspace + shim crates may be imported.
    ShimSurfaceGuard,
    /// R6: no timed wait in the configured blocking paths.
    NoTimedWait,
    /// Malformed or reason-less suppression pragmas.
    Pragma,
}

impl Rule {
    /// The stable rule name used in diagnostics, pragmas and the config.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe-needs-safety",
            Rule::NoPanicInDecode => "no-panic-in-decode",
            Rule::AtomicOrderingAllowlist => "atomic-ordering-allowlist",
            Rule::NoWallClockInKernels => "no-wall-clock-in-kernels",
            Rule::ShimSurfaceGuard => "shim-surface-guard",
            Rule::NoTimedWait => "no-timed-wait",
            Rule::Pragma => "pragma",
        }
    }

    /// Resolves a pragma rule name. The pseudo-rule `pragma` is not
    /// suppressible — a broken suppression must always surface.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unsafe-needs-safety" => Some(Rule::UnsafeNeedsSafety),
            "no-panic-in-decode" => Some(Rule::NoPanicInDecode),
            "atomic-ordering-allowlist" => Some(Rule::AtomicOrderingAllowlist),
            "no-wall-clock-in-kernels" => Some(Rule::NoWallClockInKernels),
            "shim-surface-guard" => Some(Rule::ShimSurfaceGuard),
            "no-timed-wait" => Some(Rule::NoTimedWait),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: rule, position, message.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-root-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A full lint run's outcome.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All surviving findings, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Rustc-style text rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("error[{}]: {}\n  --> {}:{}:{}\n", f.rule, f.message, f.file, f.line, f.col));
        }
        out.push_str(&format!(
            "euler-lint: {} finding(s) in {} file(s) scanned\n",
            self.findings.len(),
            self.files_scanned
        ));
        out
    }

    /// Machine-readable JSON rendering (hand-rolled: the lint polices the
    /// dependency surface, so it depends on nothing, shims included).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}{}\n",
                json_str(f.rule.name()),
                json_str(&f.file),
                f.line,
                f.col,
                json_str(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total\": {},\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.findings.len(),
            self.files_scanned,
            self.is_clean()
        ));
        out
    }
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_finding() -> Report {
        Report {
            findings: vec![Finding {
                rule: Rule::NoPanicInDecode,
                file: "crates/x/src/lib.rs".into(),
                line: 12,
                col: 9,
                message: "`.unwrap()` in a decode module: \"quote\"".into(),
            }],
            files_scanned: 3,
        }
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        let text = one_finding().render_text();
        assert!(text.contains("error[no-panic-in-decode]:"));
        assert!(text.contains("--> crates/x/src/lib.rs:12:9"));
        assert!(text.contains("1 finding(s) in 3 file(s)"));
    }

    #[test]
    fn json_escapes_and_summarises() {
        let json = one_finding().render_json();
        assert!(json.contains("\\\"quote\\\""));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(Report::default().render_json().contains("\"clean\": true"));
    }

    #[test]
    fn rule_names_roundtrip_through_pragma_lookup() {
        for rule in [
            Rule::UnsafeNeedsSafety,
            Rule::NoPanicInDecode,
            Rule::AtomicOrderingAllowlist,
            Rule::NoWallClockInKernels,
            Rule::ShimSurfaceGuard,
        ] {
            assert_eq!(Rule::from_name(rule.name()), Some(rule));
        }
        assert_eq!(Rule::from_name("pragma"), None, "pragma findings are not suppressible");
    }
}
