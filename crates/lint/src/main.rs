//! `infogram-lint` — the workspace lint pass.
//!
//! ```text
//! infogram-lint [ROOT]     lint the workspace rooted at ROOT (default:
//!                          nearest ancestor with a [workspace] Cargo.toml)
//! infogram-lint --rules    list every rule with a one-line summary
//! ```
//!
//! Exits 0 when the workspace is clean, 1 when there are findings, 2 on
//! usage or I/O errors.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: infogram-lint [ROOT | --rules]");
        println!("lints the InfoGram workspace; see --rules for the rule set");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--rules") {
        for (id, summary) in infogram_lint::RULES {
            println!("{id:20} {summary}");
        }
        return ExitCode::SUCCESS;
    }
    let root = match args.first() {
        Some(p) => PathBuf::from(p),
        None => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("infogram-lint: no workspace Cargo.toml above the current directory");
                return ExitCode::from(2);
            }
        },
    };
    if !root.is_dir() {
        eprintln!("infogram-lint: {} is not a directory", root.display());
        return ExitCode::from(2);
    }
    match infogram_lint::lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("infogram-lint: clean ({})", summarize(&root));
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("infogram-lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("infogram-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn summarize(root: &Path) -> String {
    format!(
        "{} rules over {}",
        infogram_lint::RULES.len(),
        root.display()
    )
}
