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
//! file = crates/core/src/service.rs @ accept_loop  # named fns only
//! ```
//!
//! Keys may repeat; unknown sections or keys are parse errors (a typo must
//! not silently drop policy). Paths are workspace-root-relative with `/`
//! separators.

/// One `no-panic-in-decode` or `no-timed-wait` scope entry: a file,
/// optionally narrowed to a set of named functions (closures and nested fns
/// inside them included).
#[derive(Clone, Debug)]
pub struct FileScope {
    /// Root-relative path.
    pub file: String,
    /// `None` = the whole file (minus `#[cfg(test)]` items).
    pub fns: Option<Vec<String>>,
}

/// One `atomic-ordering-allowlist` entry: the orderings a file may name.
#[derive(Clone, Debug)]
pub struct AtomicAllow {
    /// Root-relative path.
    pub file: String,
    /// Permitted `std::sync::atomic::Ordering` variant names.
    pub orderings: Vec<String>,
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
    /// R4 scope: deterministic kernel modules where wall clocks are banned.
    pub kernel_files: Vec<String>,
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
                    "scan" | "rule.no-panic-in-decode" | "rule.atomic-ordering-allowlist"
                    | "rule.no-wall-clock-in-kernels" | "rule.shim-surface-guard"
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
            match (section.as_str(), key) {
                ("scan", "exclude") => cfg.excludes.push(normalize_path(value)),
                ("rule.no-panic-in-decode", "file") => cfg.decode.push(file_scope(value, lineno)?),
                ("rule.no-timed-wait", "file") => cfg.untimed.push(file_scope(value, lineno)?),
                ("rule.atomic-ordering-allowlist", "allow") => {
                    let (file, orderings) = value.split_once(':').ok_or_else(|| {
                        format!("line {lineno}: expected `allow = <path> : <Ordering,…>`")
                    })?;
                    let names: Vec<String> = orderings
                        .split(',')
                        .map(|o| o.trim().to_string())
                        .filter(|o| !o.is_empty())
                        .collect();
                    for n in &names {
                        if !ATOMIC_ORDERINGS.contains(&n.as_str()) {
                            return Err(format!("line {lineno}: `{n}` is not an atomic Ordering"));
                        }
                    }
                    if names.is_empty() {
                        return Err(format!("line {lineno}: allowlist entry with no orderings"));
                    }
                    cfg.atomics
                        .push(AtomicAllow { file: normalize_path(file.trim()), orderings: names });
                }
                ("rule.no-wall-clock-in-kernels", "file") => {
                    cfg.kernel_files.push(normalize_path(value));
                }
                ("rule.shim-surface-guard", "allow") => {
                    cfg.extra_crates.push(value.to_string());
                }
                (sec, key) => {
                    return Err(format!("line {lineno}: unknown key `{key}` in section [{sec}]"))
                }
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
        self.kernel_files.iter().any(|k| k == file)
    }

    /// Whether `rel` (root-relative) is excluded from scanning.
    pub fn is_excluded(&self, rel: &str) -> bool {
        self.excludes.iter().any(|e| rel == e || rel.starts_with(&format!("{e}/")))
    }
}

/// Parses `path` or `path @ fn_a, fn_b`.
fn file_scope(value: &str, lineno: usize) -> Result<FileScope, String> {
    let Some((file, fns)) = value.split_once('@') else {
        return Ok(FileScope { file: normalize_path(value), fns: None });
    };
    let names: Vec<String> =
        fns.split(',').map(|f| f.trim().to_string()).filter(|f| !f.is_empty()).collect();
    if names.is_empty() {
        return Err(format!("line {lineno}: `@` with no function names"));
    }
    Ok(FileScope { file: normalize_path(file), fns: Some(names) })
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
        assert!(Config::parse("[rule.atomic-ordering-allowlist]\nallow = f.rs : Relaexd\n")
            .is_err());
        assert!(Config::parse("[scan]\nexclude =\n").is_err());
    }
}
