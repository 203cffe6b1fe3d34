//! The workspace lint policy, parsed from `euler-lint.toml`.
//!
//! The policy file is the point of the tool: scope decisions ("which modules
//! are wire-facing decode paths", "which modules may use which atomic
//! orderings") are *reviewable configuration*, not tribal knowledge buried
//! in review comments. The format is a deliberately tiny INI subset parsed
//! right here — no crates.io, and no clever syntax to get wrong:
//!
//! ```text
//! # comment
//! [scan]
//! exclude = crates/lint/tests/fixtures
//!
//! [rule.no-panic-in-decode]
//! file = crates/bsp/src/transport.rs                 # whole file
//! file = crates/graph/src/csr_file.rs @ open,open_trusted  # named fns only
//!
//! [rule.atomic-ordering-allowlist]
//! allow = crates/core/src/phase1/parallel.rs : Relaxed
//!
//! [rule.no-wall-clock-in-kernels]
//! file = crates/core/src/phase1.rs
//!
//! [rule.shim-surface-guard]
//! allow = some_extra_crate
//!
//! [rule.no-timed-wait]
//! file = crates/core/src/service/server.rs @ accept_loop  # named fns only
//! ```
//!
//! Keys may repeat; unknown sections or keys are parse errors (a typo must
//! not silently drop policy), and so is a second entry for a file within one
//! rule. Paths are workspace-root-relative with `/` separators. Once the
//! workspace is scanned, [`Config::check_scopes`] refuses an entry whose path
//! is not a scanned file or whose `@` function its file does not define: a
//! stale entry would cover nothing, silently.

/// One `no-panic-in-decode`, `no-timed-wait` or `no-wall-clock-in-kernels`
/// entry: a file, optionally narrowed to a set of named functions (closures
/// and nested fns inside them included).
#[derive(Clone, Debug)]
pub struct FileScope {
    /// Root-relative path.
    pub file: String,
    /// `None` = the whole file (minus `#[cfg(test)]` items).
    pub fns: Option<Vec<String>>,
    /// 1-based line of the entry in the policy file.
    pub line: usize,
}

/// One `atomic-ordering-allowlist` entry: the orderings a file may name.
#[derive(Clone, Debug)]
pub struct AtomicAllow {
    /// Root-relative path.
    pub file: String,
    /// Permitted `std::sync::atomic::Ordering` variant names.
    pub orderings: Vec<String>,
    /// 1-based line of the entry in the policy file.
    pub line: usize,
}

/// The full parsed policy.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Root-relative path prefixes excluded from scanning.
    pub excludes: Vec<String>,
    /// R2 scope: wire-facing decode modules.
    pub decode: Vec<FileScope>,
    /// R3 allowlist: files permitted to name atomic orderings at all.
    pub atomics: Vec<AtomicAllow>,
    /// R4 scope: deterministic kernel modules where wall clocks are banned
    /// (whole files: `fns` is always `None`).
    pub kernel_files: Vec<FileScope>,
    /// R5 extras: crate roots allowed beyond builtins + workspace members.
    pub extra_crates: Vec<String>,
    /// R6 scope: paths that block until woken, never on a timer.
    pub untimed: Vec<FileScope>,
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

impl Config {
    /// Parses the policy text. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        // (section, file) of every rule entry so far.
        let mut entries = std::collections::BTreeSet::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "scan"
                    | "rule.no-panic-in-decode"
                    | "rule.atomic-ordering-allowlist"
                    | "rule.no-wall-clock-in-kernels"
                    | "rule.shim-surface-guard"
                    | "rule.no-timed-wait" => {}
                    other => return Err(format!("line {lineno}: unknown section [{other}]")),
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("line {lineno}: expected `key = value`, got `{line}`"))?;
            if value.is_empty() {
                return Err(format!("line {lineno}: empty value for `{key}`"));
            }
            if section.starts_with("rule.") && (key == "file" || section == "rule.atomic-ordering-allowlist") {
                let file = normalize_path(value.split(['@', ':']).next().unwrap_or(value));
                if !entries.insert((section.clone(), file.clone())) {
                    return Err(format!("line {lineno}: `{file}` already has an entry in [{section}]"));
                }
            }
            match (section.as_str(), key) {
                ("scan", "exclude") => cfg.excludes.push(normalize_path(value)),
                ("rule.no-panic-in-decode", "file") => cfg.decode.push(file_scope(value, lineno)?),
                ("rule.no-timed-wait", "file") => cfg.untimed.push(file_scope(value, lineno)?),
                ("rule.atomic-ordering-allowlist", "allow") => {
                    let (file, orderings) = value
                        .split_once(':')
                        .ok_or_else(|| format!("line {lineno}: expected `allow = <path> : <Ordering,…>`"))?;
                    let names: Vec<String> =
                        orderings.split(',').map(|o| o.trim().to_string()).filter(|o| !o.is_empty()).collect();
                    for n in &names {
                        if !ATOMIC_ORDERINGS.contains(&n.as_str()) {
                            return Err(format!("line {lineno}: `{n}` is not an atomic Ordering"));
                        }
                    }
                    if names.is_empty() {
                        return Err(format!("line {lineno}: allowlist entry with no orderings"));
                    }
                    cfg.atomics.push(AtomicAllow { file: normalize_path(file), orderings: names, line: lineno });
                }
                ("rule.no-wall-clock-in-kernels", "file") => {
                    cfg.kernel_files.push(FileScope { file: normalize_path(value), fns: None, line: lineno });
                }
                ("rule.shim-surface-guard", "allow") => {
                    cfg.extra_crates.push(value.to_string());
                }
                (sec, key) => return Err(format!("line {lineno}: unknown key `{key}` in section [{sec}]")),
            }
        }
        Ok(cfg)
    }

    /// R2 scope for `file` (root-relative), if any.
    pub fn decode_scope(&self, file: &str) -> Option<&FileScope> {
        self.decode.iter().find(|d| d.file == file)
    }

    /// R6 scope for `file` (root-relative), if any.
    pub fn untimed_scope(&self, file: &str) -> Option<&FileScope> {
        self.untimed.iter().find(|d| d.file == file)
    }

    /// R3 permitted orderings for `file`; `None` = not allowlisted at all.
    pub fn allowed_orderings(&self, file: &str) -> Option<&[String]> {
        self.atomics.iter().find(|a| a.file == file).map(|a| a.orderings.as_slice())
    }

    /// R4: whether `file` is a deterministic kernel module.
    pub fn is_kernel(&self, file: &str) -> bool {
        self.kernel_files.iter().any(|k| k.file == file)
    }

    /// Checks every rule entry against the scanned workspace: its path must
    /// be a scanned file, and each of its `@` functions one that file
    /// defines outside test items. `defined(file)` lists those functions,
    /// `None` for a file that was not scanned. Errors name the entry's line.
    pub fn check_scopes<'f>(&self, defined: impl Fn(&str) -> Option<Vec<&'f str>>) -> Result<(), String> {
        let scopes = self.decode.iter().chain(&self.untimed).chain(&self.kernel_files);
        let atomics = self.atomics.iter().map(|a| (&a.file, None, a.line));
        for (file, fns, line) in scopes.map(|s| (&s.file, s.fns.as_deref(), s.line)).chain(atomics) {
            let names = defined(file).ok_or_else(|| format!("line {line}: `{file}` is not a scanned .rs file"))?;
            if let Some(missing) = fns.unwrap_or_default().iter().find(|f| !names.contains(&f.as_str())) {
                return Err(format!("line {line}: `{file}` defines no function `{missing}`"));
            }
        }
        Ok(())
    }

    /// Whether `rel` (root-relative) is excluded from scanning.
    pub fn is_excluded(&self, rel: &str) -> bool {
        self.excludes.iter().any(|e| rel == e || rel.starts_with(&format!("{e}/")))
    }
}

/// Parses `path` or `path @ fn_a, fn_b`.
fn file_scope(value: &str, lineno: usize) -> Result<FileScope, String> {
    let Some((file, fns)) = value.split_once('@') else {
        return Ok(FileScope { file: normalize_path(value), fns: None, line: lineno });
    };
    let names: Vec<String> = fns.split(',').map(|f| f.trim().to_string()).filter(|f| !f.is_empty()).collect();
    if names.is_empty() {
        return Err(format!("line {lineno}: `@` with no function names"));
    }
    Ok(FileScope { file: normalize_path(file), fns: Some(names), line: lineno })
}

fn normalize_path(p: &str) -> String {
    p.trim().trim_start_matches("./").trim_end_matches('/').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_section_kind() {
        let cfg = Config::parse(
            "# policy\n[scan]\nexclude = a/b/\n\n[rule.no-panic-in-decode]\n\
             file = x.rs\nfile = y.rs @ open, validate\n\n\
             [rule.atomic-ordering-allowlist]\nallow = z.rs : Relaxed, Acquire\n\n\
             [rule.no-wall-clock-in-kernels]\nfile = k.rs # kernel\n\n\
             [rule.shim-surface-guard]\nallow = libc\n\n\
             [rule.no-timed-wait]\nfile = s.rs @ accept_loop\n",
        )
        .unwrap();
        assert!(cfg.is_excluded("a/b/c.rs"));
        assert!(!cfg.is_excluded("a/bc.rs"));
        assert!(cfg.decode_scope("x.rs").unwrap().fns.is_none());
        assert_eq!(
            cfg.decode_scope("y.rs").unwrap().fns.as_deref().unwrap(),
            ["open".to_string(), "validate".to_string()]
        );
        assert_eq!(cfg.allowed_orderings("z.rs").unwrap(), ["Relaxed", "Acquire"]);
        assert!(cfg.allowed_orderings("w.rs").is_none());
        assert!(cfg.is_kernel("k.rs"));
        assert_eq!(cfg.extra_crates, ["libc"]);
        assert_eq!(cfg.untimed_scope("s.rs").unwrap().fns.as_deref().unwrap(), ["accept_loop"]);
        assert!(cfg.untimed_scope("x.rs").is_none());
    }

    #[test]
    fn typos_are_errors_not_silently_dropped_policy() {
        assert!(Config::parse("[rule.no-panic-in-dcode]\n").is_err());
        assert!(Config::parse("[rule.no-timed-wait]\nfile = s.rs @\n").is_err());
        assert!(Config::parse("[scan]\nexlude = x\n").is_err());
        assert!(Config::parse("[rule.atomic-ordering-allowlist]\nallow = f.rs : Relaexd\n").is_err());
        assert!(Config::parse("[scan]\nexclude =\n").is_err());
    }

    #[test]
    fn a_second_entry_for_a_file_in_one_rule_is_a_config_error() {
        let twice = |section: &str, first: &str, second: &str| {
            Config::parse(&format!("[rule.{section}]\n{first}\n# between\n{second}\n")).unwrap_err()
        };
        let e = twice("no-panic-in-decode", "file = a.rs @ f", "file = ./a.rs @ g");
        assert!(e.starts_with("line 4:") && e.contains("`a.rs` already has an entry"), "{e}");
        assert!(twice("no-timed-wait", "file = a.rs", "file = a.rs @ f").starts_with("line 4:"));
        assert!(twice("no-wall-clock-in-kernels", "file = a.rs", "file = a.rs").starts_with("line 4:"));
        assert!(twice("atomic-ordering-allowlist", "allow = a.rs : Relaxed", "allow = a.rs : SeqCst")
            .starts_with("line 4:"));
        // One file in several rules is one entry in each.
        let cfg = Config::parse(
            "[rule.no-panic-in-decode]\nfile = a.rs @ f\n[rule.no-timed-wait]\nfile = a.rs @ g\n\
             [rule.atomic-ordering-allowlist]\nallow = a.rs : Relaxed\n[rule.no-wall-clock-in-kernels]\nfile = a.rs\n",
        )
        .unwrap();
        assert!(cfg.decode_scope("a.rs").is_some() && cfg.untimed_scope("a.rs").is_some() && cfg.is_kernel("a.rs"));
    }
}
