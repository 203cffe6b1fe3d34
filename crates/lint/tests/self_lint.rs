//! The gate on the gate: this workspace must lint clean against its own
//! policy, and a workspace seeded with one violation per rule must fail
//! through the real binary with precise `file:line:col` diagnostics, a
//! non-zero exit code, and a JSON report.

use std::path::{Path, PathBuf};
use std::process::Command;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = euler_lint::run(&root).expect("lint run succeeds");
    assert!(report.is_clean(), "workspace has lint findings:\n{}", report.render_text());
    assert!(report.files_scanned > 100, "workspace scan looks truncated: only {} files", report.files_scanned);
}

fn write(root: &Path, rel: &str, text: &str) {
    let p = root.join(rel);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).expect("mkdir");
    }
    std::fs::write(p, text).expect("write seeded file");
}

fn temp_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("euler-lint-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir temp workspace");
    dir
}

#[test]
fn seeded_violations_fail_through_the_binary() {
    let dir = temp_workspace("seeded");
    write(&dir, "Cargo.toml", "[package]\nname = \"seed\"\n");
    write(
        &dir,
        "euler-lint.toml",
        "[rule.no-panic-in-decode]\nfile = src/decode.rs\n\
         [rule.no-wall-clock-in-kernels]\nfile = src/kernel.rs\n",
    );
    // One violation per rule, at known positions.
    write(&dir, "src/decode.rs", "pub fn decode(b: &[u8]) -> u8 {\n    b.first().unwrap()\n}\n");
    write(
        &dir,
        "src/kernel.rs",
        "pub fn kernel() -> u64 {\n    let t = std::time::Instant::now();\n    \
         t.elapsed().as_nanos() as u64\n}\n",
    );
    write(&dir, "src/unsafe_site.rs", "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n");
    write(&dir, "src/atomics.rs", "use std::sync::atomic::Ordering::Relaxed;\n");
    write(&dir, "src/imports.rs", "use serde_json::Value;\n");

    let json_path = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_euler-lint"))
        .arg("--root")
        .arg(&dir)
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert_eq!(out.status.code(), Some(1), "findings must exit 1; stdout:\n{stdout}");
    assert!(stdout.contains("error[no-panic-in-decode]"), "{stdout}");
    assert!(stdout.contains("src/decode.rs:2:15"), "unwrap position; stdout:\n{stdout}");
    assert!(stdout.contains("error[unsafe-needs-safety]"), "{stdout}");
    assert!(stdout.contains("src/unsafe_site.rs:2:5"), "unsafe position; stdout:\n{stdout}");
    assert!(stdout.contains("error[atomic-ordering-allowlist]"), "{stdout}");
    assert!(stdout.contains("error[no-wall-clock-in-kernels]"), "{stdout}");
    assert!(stdout.contains("error[shim-surface-guard]"), "{stdout}");
    assert!(stdout.contains("`serde_json`"), "{stdout}");

    let json = std::fs::read_to_string(&json_path).expect("json report written");
    assert!(json.contains("\"clean\": false"), "{json}");
    for rule in [
        "unsafe-needs-safety",
        "no-panic-in-decode",
        "atomic-ordering-allowlist",
        "no-wall-clock-in-kernels",
        "shim-surface-guard",
    ] {
        assert!(json.contains(rule), "JSON report is missing rule {rule}:\n{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_workspace_exits_zero() {
    let dir = temp_workspace("clean");
    write(&dir, "Cargo.toml", "[package]\nname = \"seed\"\n");
    write(&dir, "euler-lint.toml", "# empty policy\n");
    write(&dir, "src/lib.rs", "pub fn ok() -> u64 {\n    42\n}\n");
    let out = Command::new(env!("CARGO_BIN_EXE_euler-lint")).arg("--root").arg(&dir).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "clean workspace must exit 0; stdout:\n{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the binary under `policy` on a workspace whose one source file,
/// `src/level.rs`, defines `group_inbound` and, inside its test module,
/// `only_in_tests`; returns the exit code and stderr.
fn lint_under_policy(tag: &str, policy: &str) -> (Option<i32>, String) {
    let dir = temp_workspace(tag);
    write(&dir, "Cargo.toml", "[package]\nname = \"seed\"\n");
    write(&dir, "euler-lint.toml", policy);
    write(
        &dir,
        "src/level.rs",
        "pub fn group_inbound() {}\n\n#[cfg(test)]\nmod tests {\n    fn only_in_tests() {}\n}\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_euler-lint")).arg("--root").arg(&dir).output().expect("binary runs");
    std::fs::remove_dir_all(&dir).ok();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn a_scope_naming_a_file_that_is_not_scanned_is_a_config_error() {
    let (code, stderr) = lint_under_policy(
        "stale-file",
        "[rule.no-panic-in-decode]\nfile = src/level.rs @ group_inbound\nfile = src/nonexistent.rs @ decode_nothing\n",
    );
    assert_eq!(code, Some(2), "a stale path must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains("line 3: `src/nonexistent.rs` is not a scanned .rs file"), "{stderr}");
    for (section, entry) in [
        ("no-wall-clock-in-kernels", "file = src/gone.rs"),
        ("atomic-ordering-allowlist", "allow = src/gone.rs : Relaxed"),
        ("no-timed-wait", "file = src/gone.rs @ serve"),
    ] {
        let (code, stderr) = lint_under_policy("stale-file-rule", &format!("[rule.{section}]\n{entry}\n"));
        assert_eq!(code, Some(2), "[{section}]: {stderr}");
        assert!(stderr.contains("line 2: `src/gone.rs` is not a scanned .rs file"), "[{section}]: {stderr}");
    }
}

#[test]
fn a_scope_naming_a_function_its_file_does_not_define_is_a_config_error() {
    let (code, stderr) = lint_under_policy(
        "stale-fn",
        "[rule.no-panic-in-decode]\nfile = src/level.rs @ group_inbound, no_such_function\n",
    );
    assert_eq!(code, Some(2), "a stale function must exit 2; stderr:\n{stderr}");
    assert!(stderr.contains("line 2: `src/level.rs` defines no function `no_such_function`"), "{stderr}");
    // A function of a test item is no scope: the rules skip test items.
    let (code, stderr) = lint_under_policy("test-fn", "[rule.no-timed-wait]\nfile = src/level.rs @ only_in_tests\n");
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("defines no function `only_in_tests`"), "{stderr}");
    let (code, stderr) = lint_under_policy("live-fn", "[rule.no-timed-wait]\nfile = src/level.rs @ group_inbound\n");
    assert_eq!(code, Some(0), "{stderr}");
}
