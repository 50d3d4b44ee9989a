#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! `infogram-lint`: the project invariants no compiler pass can see.
//!
//! Clippy holds the policy it can resolve by type: the unwrap/expect,
//! print and `dbg!` bans and, through `disallowed-methods` in
//! `clippy.toml`, the clock and thread rules (DESIGN §9.1). This pass
//! keeps the two rules that are about names, not types:
//!
//! * **`guard-across-call`** — a lock guard held across a `produce` /
//!   `fetch` / `dispatch` / `update_state` / `refresh(Cause::…)` call
//!   boundary. Provider and dispatch calls can block for a long time (or
//!   re-enter the same entry), so holding a lock across them invites
//!   convoys and deadlocks; the concurrency core always drops its guard
//!   first (see `SystemInformation::refresh`, the one path to a
//!   provider). The refresh pattern names its `Cause` argument so that
//!   the job engine's own `refresh`, which runs under the jobs lock by
//!   design, is not mistaken for it.
//! * **`no-caller`** — a `pub` fn, const, static, struct, enum, trait
//!   or type in `crates/*/src` or `src/` whose name appears nowhere
//!   outside its own definition, its own `impl` blocks, `pub use`
//!   re-exports and its file's `#[cfg(test)]` module; a method counts
//!   only calls and paths, not same-named fields. Callers are
//!   searched in every `*.rs` file, `benchmark/` included; see
//!   `no_caller.rs` for what counts.
//!
//! The linter is deliberately token-oriented: it masks comments and string
//! literals with a tiny lexer and then pattern-matches lines, which keeps
//! a whole-workspace run in the low milliseconds. Neither rule has a
//! suppression: a finding is fixed, not silenced.

use std::fmt;
use std::path::{Path, PathBuf};

mod mask;
mod no_caller;

pub use mask::mask_code;

/// Every rule the linter knows, as `(id, summary)` pairs.
pub const RULES: &[(&str, &str)] = &[
    (
        "guard-across-call",
        "lock guard held across a produce/fetch/dispatch call boundary",
    ),
    (
        "no-caller",
        "pub item named nowhere but its definition, impls, re-exports and own tests",
    ),
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in, relative to the lint root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Library source: a file under `crates/<name>/src` or the umbrella
/// crate's `src/`, binaries (`main.rs`, `src/bin/`) not included.
fn is_lib(rel: &Path) -> bool {
    let s = rel.to_string_lossy().replace('\\', "/");
    let in_src = s.starts_with("src/")
        || s.strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, tail)| tail.starts_with("src/"));
    in_src && !s.ends_with("main.rs") && !s.contains("/src/bin/")
}

/// Per-line `in test code` flags: true for lines inside a `#[cfg(test)]`
/// item (the unit-test module convention).
fn test_region_flags(masked: &str) -> Vec<bool> {
    let lines: Vec<&str> = masked.lines().collect();
    let mut flags = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let trimmed = lines[i].trim_start();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            // Mark everything from the attribute to the end of the next
            // brace-balanced item.
            let mut depth: i64 = 0;
            let mut seen_open = false;
            let mut j = i;
            while j < lines.len() {
                flags[j] = true;
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            seen_open = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if seen_open && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    flags
}

/// Lint one Rust source file. `rel` is the path relative to the lint root
/// (used for rule applicability and in findings).
pub fn lint_rust_file(rel: &Path, src: &str) -> Vec<Finding> {
    if !is_lib(rel) {
        return Vec::new();
    }
    let masked = mask_code(src);
    let lines: Vec<&str> = masked.lines().collect();
    guard_across_call(rel, &lines, &test_region_flags(&masked))
}

/// The calls that must never run under a held lock guard: provider
/// executions and request dispatch, all of which can block indefinitely.
const BLOCKING_CALLS: &[&str] = &[
    ".produce(",
    ".dispatch(",
    ".fetch(",
    ".update_state(",
    ".refresh(Cause::",
];

fn guard_across_call(rel: &Path, masked_lines: &[&str], in_test: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut depth: i64 = 0;
    // Active guards: (identifier, depth at binding).
    let mut guards: Vec<(String, i64)> = Vec::new();
    for (i, line) in masked_lines.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // A blocking call while any guard is live?
        for call in BLOCKING_CALLS {
            if line.contains(call) {
                for (g, _) in &guards {
                    findings.push(Finding {
                        file: rel.to_path_buf(),
                        line: i + 1,
                        rule: "guard-across-call",
                        message: format!(
                            "`{}` call while lock guard `{g}` is held; drop the guard first",
                            call.trim_start_matches('.')
                                .split('(')
                                .next()
                                .unwrap_or(call)
                        ),
                    });
                }
            }
        }
        // New guard bindings on this line.
        if let Some(g) = guard_binding(line) {
            guards.push((g, depth));
        }
        // Explicit drops release a guard.
        for (idx, (g, _)) in guards.iter().enumerate().rev() {
            if line.contains(&format!("drop({g})")) {
                guards.remove(idx);
                break;
            }
        }
        // Track block depth; guards die when their block closes.
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|(_, d)| *d < depth + 1);
                }
                _ => {}
            }
        }
    }
    findings
}

/// `let [mut] <ident> = <expr>.lock()` / `.read()` / `.write()` — the
/// binding's identifier, if this line creates a named guard.
fn guard_binding(masked_line: &str) -> Option<String> {
    let trimmed = masked_line.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if ident.is_empty() || ident.starts_with('_') {
        return None; // `_g` bindings are deliberate short holds
    }
    // `let delay = *self.delay.lock();` — a deref copies the value out
    // and the temporary guard dies at the semicolon.
    if let Some(rhs) = masked_line.split_once('=').map(|(_, r)| r.trim_start()) {
        if rhs.starts_with('*') || rhs.starts_with("&*") {
            return None;
        }
    }
    let has_guard_call = [".lock()", ".read()", ".write()"]
        .iter()
        .any(|p| masked_line.contains(p));
    // `let x = m.lock().clone()` (or any further projection) does not
    // keep the guard: the temporary dies at the semicolon.
    let projected = [".lock().", ".read().", ".write()."]
        .iter()
        .any(|p| masked_line.contains(p));
    (has_guard_call && !projected).then_some(ident)
}

/// Recursively lint a workspace rooted at `root`. Returns findings sorted
/// by path and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let mut sources = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if matches!(name.as_str(), "target" | ".git" | "shims" | "node_modules") {
                    continue;
                }
                stack.push(path);
                continue;
            }
            if name.ends_with(".rs") {
                if let Ok(src) = std::fs::read_to_string(&path) {
                    findings.extend(lint_rust_file(&rel, &src));
                    sources.push((rel, src));
                }
            }
        }
    }
    findings.extend(no_caller::no_caller(&sources));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        lint_rust_file(Path::new(rel), src)
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "\
fn f(&self) {
    let st = self.state.lock();
    let s = \".produce(\";
    // self.provider.produce() in prose
}
";
        assert!(lint("crates/info/src/x.rs", src).is_empty());
    }

    #[test]
    fn only_non_test_library_code_is_linted() {
        let src = "fn f(&self) {\n    let st = self.state.lock();\n    self.p.produce();\n}\n";
        assert_eq!(lint("crates/info/src/x.rs", src).len(), 1);
        assert_eq!(lint("src/quickstart.rs", src).len(), 1);
        for rel in [
            "shims/parking_lot/src/lib.rs",
            "tests/t.rs",
            "examples/e.rs",
            "crates/lint/src/main.rs",
        ] {
            assert!(lint(rel, src).is_empty(), "{rel}");
        }
        let with_tests = format!("fn g() {{}}\n#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint("crates/info/src/x.rs", &with_tests).is_empty());
    }

    #[test]
    fn guard_across_call_flagged() {
        let src = "\
fn f(&self) {
    let st = self.state.lock();
    let r = self.provider.produce();
}
";
        let f = lint("crates/info/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "guard-across-call");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn guard_across_an_entry_refresh_flagged() {
        let src = "\
fn f(&self, si: &SystemInformation) {
    let st = self.state.lock();
    let snap = si.refresh(Cause::Scheduled);
    let news = self.refresh(job_id, entry);
}
";
        let f = lint("crates/info/src/x.rs", src);
        assert_eq!(f.len(), 1, "the job engine's refresh is no provider call");
        assert_eq!(f[0].rule, "guard-across-call");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("refresh"), "{}", f[0].message);
    }

    #[test]
    fn guard_dropped_before_call_is_clean() {
        let src = "\
fn f(&self) {
    let st = self.state.lock();
    drop(st);
    let r = self.provider.produce();
}
";
        assert!(lint("crates/info/src/x.rs", src).is_empty());
    }

    #[test]
    fn guard_scope_ends_with_block() {
        let src = "\
fn f(&self) {
    {
        let st = self.state.lock();
    }
    let r = self.provider.produce();
}
";
        assert!(lint("crates/info/src/x.rs", src).is_empty());
    }

    #[test]
    fn projected_guard_temporary_is_not_held() {
        let src = "\
fn f(&self) {
    let delay = self.delay.lock().clone();
    let r = self.provider.produce();
}
";
        assert!(lint("crates/info/src/x.rs", src).is_empty());
    }

    fn callers(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(rel, src)| (PathBuf::from(rel), src.to_string()))
            .collect();
        no_caller::no_caller(&files)
    }

    #[test]
    fn no_caller_flags_a_pub_fn_nothing_names() {
        let f = callers(&[(
            "crates/info/src/x.rs",
            "pub fn orphan() -> u8 {\n    0\n}\n",
        )]);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), ("no-caller", 1));
        assert!(f[0].message.contains("pub fn orphan"), "{}", f[0].message);
    }

    #[test]
    fn no_caller_is_cleared_by_another_file_or_the_benchmark() {
        let def = ("crates/info/src/x.rs", "pub const fn used() -> u8 { 0 }\n");
        assert!(callers(&[def, ("tests/t.rs", "fn t() { used(); }\n")]).is_empty());
        let bench = ("benchmark/src/main.rs", "fn main() { x::used(); }\n");
        assert!(callers(&[def, bench]).is_empty());
        // A use elsewhere in the defining file, outside its tests, counts.
        let own = "pub fn used() {}\nfn other() { used(); }\n";
        assert!(callers(&[("src/y.rs", own)]).is_empty());
    }

    #[test]
    fn no_caller_ignores_reexports_own_tests_impls_and_comments() {
        let def = "\
pub struct Orphan;
impl Orphan {
    pub fn make() -> Orphan {
        Orphan
    }
}
#[cfg(test)]
mod tests {
    fn t() { let _ = super::Orphan::make(); }
}
";
        let lib = "pub use x::{\n    Orphan,\n};\n// Orphan::make in prose\n";
        let f = callers(&[
            ("crates/info/src/x.rs", def),
            ("crates/info/src/lib.rs", lib),
        ]);
        let lines: Vec<usize> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1, 3], "{f:?}");
    }

    #[test]
    fn no_caller_counts_only_calls_of_a_method() {
        let def = (
            "crates/client/src/x.rs",
            "pub struct C;\nimpl C {\n    pub fn probe(&self) {}\n}\n",
        );
        let field = (
            "src/y.rs",
            "struct D { probe: u8 }\nfn f(d: D, _: C) -> u8 { d.probe }\n",
        );
        let f = callers(&[def, field]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("pub fn probe"), "{}", f[0].message);
        for call in [
            "fn f(c: C) { c.probe(); }\n",
            "fn f() { let _ = C::probe; }\n",
        ] {
            assert!(
                callers(&[def, field, ("tests/t.rs", call)]).is_empty(),
                "{call}"
            );
        }
    }

    #[test]
    fn no_caller_skips_what_is_not_a_public_library_item() {
        let src = "fn private() {}\npub(crate) fn krate() {}\npub mod m;\n\
                   #[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(callers(&[("crates/info/src/x.rs", src)]).is_empty());
        let public = "pub fn f() {}\n";
        assert!(callers(&[("crates/lint/src/main.rs", public)]).is_empty());
        assert!(callers(&[("tests/support/x.rs", public)]).is_empty());
    }
}
