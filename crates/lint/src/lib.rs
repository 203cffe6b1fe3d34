//! `euler-lint` — workspace-invariant static analysis for the
//! euler-circuit workspace.
//!
//! The partition-centric Euler-circuit pipeline rests on a handful of
//! invariants that the compiler cannot check and that code review keeps
//! re-litigating: every `unsafe` block's justification, panic-freedom of
//! the wire-facing decode paths (a malformed frame from a peer must never
//! abort a worker mid-superstep), the memory-ordering discipline of the
//! lock-free phase-1 kernel, determinism of the kernels themselves, and
//! the offline-build shim surface. This crate turns those review rules
//! into a mechanical gate.
//!
//! It is deliberately dependency-free — not even the workspace shims — and
//! ships its own comment/string/raw-string-aware token scanner
//! ([`scan`]), a tiny policy-file parser ([`config`]), the six rules
//! ([`rules`]), and a workspace driver ([`engine`]). Run it as:
//!
//! ```text
//! cargo run --release -p euler-lint          # human-readable diagnostics
//! cargo run --release -p euler-lint -- --json lint-report.json
//! ```
//!
//! The process exits non-zero when any finding survives, which makes it a
//! CI gate. Per-site suppressions use
//! `// lint:allow(<rule>): <reason>` — the reason is mandatory, and a
//! malformed pragma is itself a (non-suppressible) finding.
//!
//! The rule catalogue, with the history that motivated each rule, lives in
//! [`lint_rules`] (rendered from `docs/LINTS.md`).

pub mod config;
pub mod engine;
pub mod report;
pub mod rules;
pub mod scan;

pub use config::Config;
pub use engine::{run, run_with_config, CONFIG_FILE};
pub use report::{Finding, Report, Rule};

/// The rule catalogue: what each rule demands, why it exists, and how to
/// suppress it per-site.
#[doc = include_str!("../../../docs/LINTS.md")]
pub mod lint_rules {}
