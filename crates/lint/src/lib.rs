#![warn(missing_docs)]

//! `infogram-lint`: project invariants the compiler cannot enforce.
//!
//! The workspace has a handful of rules that matter for correctness and
//! reproducibility but live below the type system's radar:
//!
//! * **`direct-clock`** — `std::time::Instant::now` / `SystemTime::now`
//!   outside `crates/sim`. Every time-dependent code path must go through
//!   [`Clock`](../infogram_sim/clock/trait.Clock.html) so the deterministic
//!   experiments and the model checker can drive a virtual clock.
//! * **`unwrap`** — `.unwrap()` / `.expect(...)` in non-test library code.
//!   Service code must surface structured errors, not panic.
//! * **`print`** — `println!` / `eprintln!` / `dbg!` in library crates.
//!   Diagnostics belong in the telemetry layer (`crates/obs`); stdout
//!   belongs to the bench report harness only.
//! * **`guard-across-call`** — a lock guard held across a `produce` /
//!   `fetch` / `dispatch` / `update_state` / `refresh(Cause::…)` call
//!   boundary. Provider and dispatch calls can block for a long time (or
//!   re-enter the same entry), so holding a lock across them invites
//!   convoys and deadlocks; the concurrency core always drops its guard
//!   first (see `SystemInformation::refresh`, the one path to a
//!   provider). The refresh pattern names its `Cause` argument so that
//!   the job engine's own `refresh`, which runs under the jobs lock by
//!   design, is not mistaken for it.
//! * **`thread-spawn`** — raw `std::thread::spawn` in library crates
//!   outside `crates/sim`. Ad-hoc threads dodge the `sim::par` scoped
//!   pool (bounded fan-out, panic propagation) and the lockdep /
//!   model-checker instrumentation that rides on it; service code should
//!   fan out through `sim::par` or justify the long-lived thread with a
//!   suppression.
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
//! a whole-workspace run in the low milliseconds. Findings suppress with a
//! per-line `// lint:allow(<rule>)` on the offending line or the line
//! above — every suppression should carry a justification.

use std::fmt;
use std::path::{Path, PathBuf};

mod mask;
mod no_caller;

pub use mask::mask_code;

/// Every rule the linter knows, as `(id, summary)` pairs.
pub const RULES: &[(&str, &str)] = &[
    (
        "direct-clock",
        "Instant::now / SystemTime::now outside crates/sim — use the sim Clock",
    ),
    (
        "unwrap",
        ".unwrap() / .expect() in non-test library code — return a structured error",
    ),
    (
        "print",
        "println!/eprintln!/dbg! in library crates — use the obs telemetry layer",
    ),
    (
        "guard-across-call",
        "lock guard held across a produce/fetch/dispatch call boundary",
    ),
    (
        "thread-spawn",
        "raw std::thread::spawn outside crates/sim — use sim::par or justify",
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

/// What kind of source file a path is, for rule applicability.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FileClass {
    /// Library source of the named crate (`crates/<name>/src`, or the
    /// umbrella crate's `src/`).
    Lib(String),
    /// A binary entry point (`main.rs`, `src/bin/...`).
    Bin,
    /// Integration tests, benches, examples: exercised code, panics fine.
    Harness,
    /// Not linted (vendored shims, generated output, VCS internals).
    Skip,
}

fn classify(rel: &Path) -> FileClass {
    let s = rel.to_string_lossy().replace('\\', "/");
    if s.starts_with("shims/") || s.starts_with("target/") || s.starts_with(".git/") {
        return FileClass::Skip;
    }
    if s.ends_with("main.rs") || s.contains("/src/bin/") {
        return FileClass::Bin;
    }
    if s.starts_with("tests/")
        || s.contains("/tests/")
        || s.starts_with("examples/")
        || s.contains("/examples/")
        || s.contains("/benches/")
        || s.starts_with("crates/bench/")
    {
        // `crates/bench` is the report harness: it measures real wall
        // time and prints tables to stdout by design.
        return FileClass::Harness;
    }
    if let Some(rest) = s.strip_prefix("crates/") {
        if let Some((name, tail)) = rest.split_once('/') {
            if tail.starts_with("src/") {
                return FileClass::Lib(name.to_string());
            }
        }
        return FileClass::Skip; // crate-level Cargo.toml etc.
    }
    if s.starts_with("src/") {
        return FileClass::Lib("infogram".to_string());
    }
    FileClass::Skip
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

/// Does line `idx` (0-based) or the line above carry a
/// `lint:allow(<rule>)` for this rule?
fn allowed(original_lines: &[&str], idx: usize, rule: &str) -> bool {
    let carries = |line: &str| {
        line.find("lint:allow(")
            .map(|at| {
                let rest = &line[at + "lint:allow(".len()..];
                match rest.find(')') {
                    Some(end) => rest[..end]
                        .split(',')
                        .any(|r| r.trim().eq_ignore_ascii_case(rule)),
                    None => false,
                }
            })
            .unwrap_or(false)
    };
    if carries(original_lines[idx]) {
        return true;
    }
    // Walk up through the contiguous comment block directly above the
    // flagged line, so a multi-line justification still carries.
    let mut k = idx;
    while k > 0 && original_lines[k - 1].trim_start().starts_with("//") {
        k -= 1;
        if carries(original_lines[k]) {
            return true;
        }
    }
    false
}

/// Lint one Rust source file. `rel` is the path relative to the lint root
/// (used for rule applicability and in findings).
pub fn lint_rust_file(rel: &Path, src: &str) -> Vec<Finding> {
    let class = classify(rel);
    if class == FileClass::Skip {
        return Vec::new();
    }
    let masked = mask_code(src);
    let original_lines: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();
    let in_test = test_region_flags(&masked);
    let mut findings = Vec::new();
    let mut push = |line_idx: usize, rule: &'static str, message: String| {
        if !allowed(&original_lines, line_idx, rule) {
            findings.push(Finding {
                file: rel.to_path_buf(),
                line: line_idx + 1,
                rule,
                message,
            });
        }
    };

    let lib_crate = match &class {
        FileClass::Lib(name) => Some(name.as_str()),
        _ => None,
    };

    for (i, line) in masked_lines.iter().enumerate() {
        let test_line = in_test.get(i).copied().unwrap_or(false);

        // direct-clock: everywhere except crates/sim and test code. Bench
        // harnesses and examples measure real wall time by design, so
        // only library and bin code is held to it.
        if lib_crate.is_some_and(|c| c != "sim") && !test_line {
            for pat in ["Instant::now", "SystemTime::now"] {
                if line.contains(pat) {
                    push(
                        i,
                        "direct-clock",
                        format!("`{pat}` bypasses the sim Clock; take a SharedClock instead"),
                    );
                }
            }
        }

        // unwrap: non-test library code only.
        if lib_crate.is_some() && !test_line {
            if line.contains(".unwrap()") {
                push(
                    i,
                    "unwrap",
                    "`.unwrap()` in library code; return a structured error".to_string(),
                );
            }
            // `.expect("` with a literal message — plain `.expect(` would
            // also catch parser-style `self.expect(&Token::RParen)?`
            // methods, which are ordinary Results.
            if line.contains(".expect(\"") {
                push(
                    i,
                    "unwrap",
                    "`.expect(...)` in library code; return a structured error".to_string(),
                );
            }
        }

        // thread-spawn: library crates except crates/sim (which owns the
        // scoped pool and the deterministic thread wrappers). Tests,
        // benches, and bins spin up scaffolding threads freely.
        if lib_crate.is_some_and(|c| c != "sim") && !test_line && line.contains("thread::spawn") {
            push(
                i,
                "thread-spawn",
                "raw `thread::spawn` bypasses sim::par (bounded fan-out, panic \
                 propagation, lockdep); use the scoped pool or justify the thread"
                    .to_string(),
            );
        }

        // print: library crates except the bench report harness.
        if lib_crate.is_some_and(|c| c != "bench") && !test_line {
            for pat in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                if line.contains(pat) {
                    push(
                        i,
                        "print",
                        format!("`{pat}` in a library crate; route through obs telemetry"),
                    );
                    break;
                }
            }
        }
    }

    // guard-across-call: track `let <g> = ....lock()/.read()/.write()`
    // bindings and flag blocking calls before the guard is dropped.
    if lib_crate.is_some() {
        findings.extend(guard_across_call(
            rel,
            &masked_lines,
            &original_lines,
            &in_test,
        ));
    }

    findings
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

fn guard_across_call(
    rel: &Path,
    masked_lines: &[&str],
    original_lines: &[&str],
    in_test: &[bool],
) -> Vec<Finding> {
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
            if line.contains(call) && !allowed(original_lines, i, "guard-across-call") {
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
    fn direct_clock_flagged_outside_sim() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        let f = lint("crates/info/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "direct-clock");
        assert_eq!(f[0].line, 1);
        // The same code inside crates/sim is the implementation itself.
        assert!(lint("crates/sim/src/clock.rs", src).is_empty());
        // Harness code measures wall time by design.
        assert!(lint("examples/demo.rs", src).is_empty());
        assert!(lint("crates/bench/benches/e1.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_nontest_lib_code() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint("crates/rsl/src/p.rs", src).len(), 1);
        assert!(lint("tests/integration.rs", src).is_empty());
        let with_tests =
            "fn f() -> u8 { 0 }\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(lint("crates/rsl/src/p.rs", with_tests).is_empty());
    }

    #[test]
    fn expect_flagged() {
        let src = "fn f() { x.expect(\"boom\"); }\n";
        assert_eq!(lint("crates/info/src/x.rs", src)[0].rule, "unwrap");
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src =
            "fn f() {\n    let s = \".unwrap() println!\";\n    // Instant::now in prose\n}\n";
        assert!(lint("crates/info/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_suppresses_on_line_or_above() {
        let same = "fn f() { x.unwrap(); } // lint:allow(unwrap) — startup only\n";
        assert!(lint("crates/info/src/x.rs", same).is_empty());
        let above = "// lint:allow(unwrap) — checked by caller\nfn f() { x.unwrap(); }\n";
        assert!(lint("crates/info/src/x.rs", above).is_empty());
        let wrong_rule = "fn f() { x.unwrap(); } // lint:allow(print)\n";
        assert_eq!(lint("crates/info/src/x.rs", wrong_rule).len(), 1);
    }

    #[test]
    fn print_flagged_outside_bench() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert_eq!(lint("crates/info/src/x.rs", src)[0].rule, "print");
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
        assert!(
            lint("crates/lint/src/main.rs", src).is_empty(),
            "bins may print"
        );
    }

    #[test]
    fn thread_spawn_flagged_outside_sim() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let f = lint("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "thread-spawn");
        // The sim crate implements the thread wrappers themselves.
        assert!(lint("crates/sim/src/par.rs", src).is_empty());
        // Harness and bin code spin up scaffolding threads freely.
        assert!(lint("tests/integration.rs", src).is_empty());
        assert!(lint("crates/bench/src/mixed.rs", src).is_empty());
        assert!(lint("crates/lint/src/main.rs", src).is_empty());
        // Unit-test modules inside a library file are exempt too.
        let with_tests =
            "fn f() -> u8 { 0 }\n#[cfg(test)]\nmod tests {\n    fn g() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint("crates/core/src/x.rs", with_tests).is_empty());
    }

    #[test]
    fn thread_spawn_suppression_carries_reason() {
        let src = "// lint:allow(thread-spawn) — long-lived acceptor loop\n\
                   fn f() { std::thread::spawn(|| {}); }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
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

    #[test]
    fn shims_are_skipped() {
        let src = "fn f() { x.unwrap(); println!(\"y\"); }\n";
        assert!(lint("shims/parking_lot/src/lib.rs", src).is_empty());
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

    #[test]
    fn no_caller_suppression() {
        let src = "// lint:allow(no-caller) — the entry point a host calls\npub fn hook() {}\n";
        assert!(callers(&[("src/x.rs", src)]).is_empty());
    }
}
