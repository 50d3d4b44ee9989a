//! The `no-caller` rule: a `pub` item that nothing uses.
//!
//! Items are collected from `crates/*/src` and `src/`: every `pub` fn,
//! const, static, struct, enum, trait and type outside a `#[cfg(test)]`
//! module. Callers are searched by name in every `*.rs` file the walk
//! reads, `tests/`, benches, examples and `benchmark/` included. An
//! occurrence is not a caller when it is
//!
//! * inside the item's own definition (its body, fields or variants),
//! * inside an `impl` block whose self type is the item,
//! * inside a `pub use` re-export, however many lines it spans,
//! * inside the defining file's `#[cfg(test)]` module, or
//! * in a comment, doc link or string literal (masked by
//!   [`mask_code`](crate::mask_code)).
//!
//! The match is by name alone, so any collision counts as a caller: the
//! rule can miss a dead item but never flags a live one.

use crate::{allowed, classify, mask_code, test_region_flags, FileClass, Finding};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// One `pub` item and the lines of its file that are its own.
struct Def<'a> {
    file: usize,
    /// 0-based line the definition starts on.
    line: usize,
    /// 0-based last line of the definition.
    end: usize,
    kind: &'a str,
    name: &'a str,
}

/// Flag every `pub` item in `files` (`(path relative to the root,
/// source)` pairs) whose name appears nowhere but in the places the
/// [module docs](self) exclude.
pub(crate) fn no_caller(files: &[(PathBuf, String)]) -> Vec<Finding> {
    let masked: Vec<String> = files.iter().map(|(_, src)| mask_code(src)).collect();
    let lines: Vec<Vec<&str>> = masked.iter().map(|m| m.lines().collect()).collect();
    let in_test: Vec<Vec<bool>> = masked.iter().map(|m| test_region_flags(m)).collect();

    let mut defs: Vec<Def> = Vec::new();
    // (file, self type) → the line spans of its impl blocks.
    let mut impls: HashMap<(usize, &str), Vec<(usize, usize)>> = HashMap::new();
    for (f, (rel, _)) in files.iter().enumerate() {
        let defining = defines_items(rel);
        for (i, line) in lines[f].iter().enumerate() {
            if in_test[f][i] {
                continue;
            }
            if let Some(self_ty) = impl_self_type(line) {
                let span = (i, item_end(&lines[f], i, true));
                impls.entry((f, self_ty)).or_default().push(span);
            }
            if let Some((kind, name)) = defining.then(|| pub_item(line)).flatten() {
                let braced = !matches!(kind, "const" | "static" | "type");
                let end = item_end(&lines[f], i, braced);
                defs.push(Def {
                    file: f,
                    line: i,
                    end,
                    kind,
                    name,
                });
            }
        }
    }

    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (d, def) in defs.iter().enumerate() {
        by_name.entry(def.name).or_default().push(d);
    }
    let mut called = vec![false; defs.len()];
    for (f, file_lines) in lines.iter().enumerate() {
        let reexport = pub_use_flags(file_lines);
        for (i, line) in file_lines.iter().enumerate() {
            if reexport[i] {
                continue;
            }
            for tok in idents(line) {
                let Some(ids) = by_name.get(tok) else {
                    continue;
                };
                for &d in ids {
                    let def = &defs[d];
                    if called[d] {
                        continue;
                    }
                    let own_file = def.file == f;
                    let own_def = own_file && (def.line..=def.end).contains(&i);
                    let own_impl = matches!(def.kind, "struct" | "enum" | "type")
                        && impls
                            .get(&(f, def.name))
                            .is_some_and(|spans| spans.iter().any(|&(s, e)| (s..=e).contains(&i)));
                    if !(own_def || own_impl || (own_file && in_test[f][i])) {
                        called[d] = true;
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    for (def, _) in defs.iter().zip(&called).filter(|(_, c)| !**c) {
        let (rel, src) = &files[def.file];
        let original: Vec<&str> = src.lines().collect();
        if !allowed(&original, def.line, "no-caller") {
            findings.push(Finding {
                file: rel.clone(),
                line: def.line + 1,
                rule: "no-caller",
                message: format!(
                    "`pub {} {}` has no caller outside its own definition, impls, \
                     re-exports and tests; delete it",
                    def.kind, def.name
                ),
            });
        }
    }
    findings
}

/// Library source under `crates/*/src` or `src/`, the bench harness's
/// included; not a binary.
fn defines_items(rel: &Path) -> bool {
    matches!(classify(rel), FileClass::Lib(_)) || rel.starts_with("crates/bench/src")
}

/// `pub [const|async|unsafe|extern ".."] <kind> <name>` on a masked line:
/// the kind and the name. `pub(crate)` and friends are not public.
fn pub_item(masked_line: &str) -> Option<(&str, &str)> {
    let rest = masked_line.trim_start().strip_prefix("pub ")?;
    let mut words = rest.split_whitespace().peekable();
    let kind = loop {
        let w = words.next()?;
        match w {
            "async" | "unsafe" | "extern" | "mut" => continue,
            "const" if words.peek().is_some_and(|n| matches!(*n, "fn" | "unsafe")) => continue,
            _ if w.starts_with('"') => continue, // a masked ABI string
            "fn" | "const" | "static" | "struct" | "enum" | "trait" | "type" => break w,
            _ => return None,
        }
    };
    let next = words.find(|w| *w != "mut")?;
    let name = ident_prefix(next);
    (!name.is_empty() && name != "_").then_some((kind, name))
}

/// The self type of an `impl` header on this line: `Foo` in
/// `impl<T> a::Foo<T> {` and in `impl Trait for Foo {`.
fn impl_self_type(masked_line: &str) -> Option<&str> {
    let t = masked_line.trim_start();
    let t = t.strip_prefix("unsafe ").unwrap_or(t);
    let mut rest = t.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.char_indices().find_map(|(at, c)| {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(at)
        })?;
        rest = &rest[close + 1..];
    } else if !rest.starts_with(' ') {
        return None; // `implements`, `impl_x`, …
    }
    let header = rest.split('{').next().unwrap_or(rest);
    let ty = match header.find(" for ") {
        Some(at) => &header[at + " for ".len()..],
        None => header,
    };
    let ty = ty.trim_start().trim_start_matches('&');
    let path = ty.split(|c: char| c == '<' || c.is_whitespace()).next()?;
    let name = ident_prefix(path.rsplit("::").next()?);
    (!name.is_empty()).then_some(name)
}

/// The 0-based last line of the item starting on line `start`: where a
/// top-level `;` ends it, or (for `braced` items) where its first
/// top-level `{` closes.
fn item_end(lines: &[&str], start: usize, braced: bool) -> usize {
    let mut depth = 0i64;
    for (i, line) in lines.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' | '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                '}' => {
                    depth -= 1;
                    if braced && depth == 0 {
                        return i;
                    }
                }
                ';' if depth == 0 => return i,
                _ => {}
            }
        }
    }
    lines.len().saturating_sub(1)
}

/// Per-line flags: the line is part of a `pub use` (any visibility)
/// statement, which re-exports a name rather than using it.
fn pub_use_flags(lines: &[&str]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut open = false;
    for (i, line) in lines.iter().enumerate() {
        if !open {
            let t = line.trim_start();
            let after_vis = match t.strip_prefix("pub(") {
                Some(r) => r.split_once(')').map(|(_, r)| r),
                None => t.strip_prefix("pub"),
            };
            open = after_vis.is_some_and(|r| r.trim_start().starts_with("use "));
        }
        if open {
            flags[i] = true;
            open = !line.contains(';');
        }
    }
    flags
}

/// The identifiers on a masked line (a run of `[A-Za-z0-9_]` that does
/// not start with a digit).
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.as_bytes().first().is_some_and(|b| !b.is_ascii_digit()))
}

fn ident_prefix(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}
