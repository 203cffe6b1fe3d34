//! Lints each fixture under `tests/fixtures/` and compares the findings
//! against the `//~ <rule>` expectation markers embedded in the fixture —
//! both directions: every marked line must be found, and nothing unmarked
//! may be flagged.

use euler_lint::config::Config;
use euler_lint::rules::{FileAnalysis, ImportSurface};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The policy the fixtures are linted under: each scoped rule names the
/// fixture files it applies to (paths are the bare file names, since each
/// fixture is linted standalone).
fn fixture_config() -> Config {
    Config::parse(
        "[rule.no-panic-in-decode]\n\
         file = r2_fail.rs\n\
         file = r2_pass.rs\n\
         file = pragma_ok.rs\n\
         file = pragma_bad.rs\n\
         file = r2_scoped.rs @ decode_frame\n\
         [rule.atomic-ordering-allowlist]\n\
         allow = r3_fail.rs : Relaxed\n\
         allow = r3_pass.rs : Relaxed\n\
         [rule.no-wall-clock-in-kernels]\n\
         file = r4_fail.rs\n\
         file = r4_pass.rs\n\
         [rule.no-timed-wait]\n\
         file = r6_fail.rs @ serve, admit\n\
         file = r6_pass.rs @ serve, admit\n",
    )
    .expect("fixture config parses")
}

/// Parses `//~ <rule>` markers: one expected finding per marker, keyed by
/// 1-based line.
fn expected_markers(text: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        for chunk in line.split("//~").skip(1) {
            let rule = chunk.split_whitespace().next().unwrap_or("").to_string();
            assert!(!rule.is_empty(), "bare //~ marker on line {}", i + 1);
            out.push((i as u32 + 1, rule));
        }
    }
    out.sort();
    out
}

#[test]
fn fixtures_match_their_markers() {
    let cfg = fixture_config();
    let mut checked = 0usize;
    for entry in std::fs::read_dir(fixtures_dir()).expect("fixtures dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path.file_name().expect("file name").to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("fixture is readable");
        let analysis = FileAnalysis::new(&name, text.as_bytes());
        let surface = ImportSurface {
            workspace_crates: BTreeSet::from(["euler_graph".to_string()]),
            local_mods: analysis.mod_names().into_iter().collect(),
        };
        let mut actual: Vec<(u32, String)> =
            analysis.lint(&cfg, &surface).into_iter().map(|f| (f.line, f.rule.name().to_string())).collect();
        actual.sort();
        assert_eq!(actual, expected_markers(&text), "fixture {name}: findings diverge from its //~ markers");
        checked += 1;
    }
    assert!(checked >= 14, "expected the full fixture corpus, linted only {checked} files");
}
