//! The workspace driver: file discovery, member/import-surface derivation,
//! and the lint run itself.

use crate::config::Config;
use crate::report::Report;
use crate::rules::{FileAnalysis, ImportSurface};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Name of the policy file; also the sentinel the CLI uses to find the
/// workspace root.
pub const CONFIG_FILE: &str = "euler-lint.toml";

/// Directory names never descended into.
const SKIP_DIRS: [&str; 2] = ["target", ".git"];

/// Loads the policy from `<root>/euler-lint.toml` and lints the workspace.
pub fn run(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join(CONFIG_FILE);
    let text = fs::read_to_string(&cfg_path).map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    run_with_config(root, &cfg)
}

/// Lints the workspace under `root` with an already-parsed policy.
pub fn run_with_config(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = collect_rust_files(root, cfg)?;
    let workspace_crates = collect_workspace_crates(root)?;

    // Read + lex every file once, grouped by workspace member, so each
    // member's local `mod` names can feed R5 before any rule runs.
    let mut sources: Vec<(String, Vec<u8>)> = Vec::with_capacity(files.len());
    for (rel, abs) in &files {
        let bytes = fs::read(abs).map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        sources.push((rel.clone(), bytes));
    }
    let mut mods_by_member: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let analyses: Vec<FileAnalysis<'_>> = sources.iter().map(|(rel, bytes)| FileAnalysis::new(rel, bytes)).collect();
    for (a, (rel, _)) in analyses.iter().zip(&sources) {
        mods_by_member.entry(member_of(rel)).or_default().extend(a.mod_names());
    }

    let by_file: BTreeMap<&str, &FileAnalysis<'_>> =
        sources.iter().map(|(rel, _)| rel.as_str()).zip(&analyses).collect();
    cfg.check_scopes(|file| by_file.get(file).map(|a| a.fn_names())).map_err(|e| format!("{CONFIG_FILE} {e}"))?;

    let mut report = Report { findings: Vec::new(), files_scanned: sources.len() };
    for (a, (rel, _)) in analyses.iter().zip(&sources) {
        let surface = ImportSurface {
            workspace_crates: workspace_crates.clone(),
            local_mods: mods_by_member.get(&member_of(rel)).cloned().unwrap_or_default(),
        };
        report.findings.extend(a.lint(cfg, &surface));
    }
    report.findings.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// The workspace member a root-relative path belongs to (`crates/foo`,
/// `shims/bar`, or `""` for the facade package at the root).
fn member_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(top @ ("crates" | "shims")), Some(name), Some(_)) => format!("{top}/{name}"),
        _ => String::new(),
    }
}

/// Every `.rs` file under `root`, as sorted `(root-relative, absolute)`
/// pairs. Skips `target/`, `.git/` and configured excludes.
fn collect_rust_files(root: &Path, cfg: &Config) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("while listing {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/"),
                Err(_) => continue,
            };
            if path.is_dir() {
                if !SKIP_DIRS.contains(&&*name) && !cfg.is_excluded(&rel) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") && !cfg.is_excluded(&rel) {
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Underscore-normalised package names of every workspace member, read from
/// the member manifests (root + `crates/*` + `shims/*`). Deriving the set
/// from the manifests means a newly added real dependency immediately trips
/// R5 rather than silently widening the surface.
fn collect_workspace_crates(root: &Path) -> Result<BTreeSet<String>, String> {
    let mut names = BTreeSet::new();
    let mut manifests = vec![root.join("Cargo.toml")];
    for group in ["crates", "shims"] {
        let dir = root.join(group);
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                manifests.push(m);
            }
        }
    }
    for m in manifests {
        let text = fs::read_to_string(&m).map_err(|e| format!("cannot read {}: {e}", m.display()))?;
        if let Some(name) = package_name(&text) {
            names.insert(name.replace('-', "_"));
        }
    }
    if names.is_empty() {
        return Err(format!("no workspace member manifests found under {}", root.display()));
    }
    Ok(names)
}

/// Extracts `name = "…"` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if key.trim() == "name" {
                return Some(value.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_grouping_matches_workspace_layout() {
        assert_eq!(member_of("crates/core/src/phase1.rs"), "crates/core");
        assert_eq!(member_of("shims/rayon/src/lib.rs"), "shims/rayon");
        assert_eq!(member_of("src/lib.rs"), "");
        assert_eq!(member_of("tests/determinism.rs"), "");
        assert_eq!(member_of("crates"), "");
    }

    #[test]
    fn package_name_reads_only_the_package_section() {
        let m = "[workspace]\nmembers = [\"x\"]\n[package]\nname = \"euler-lint\"\n\
                 [dependencies]\nname = \"decoy\"\n";
        assert_eq!(package_name(m).as_deref(), Some("euler-lint"));
        assert_eq!(package_name("[workspace]\nresolver = \"2\"\n"), None);
    }
}
