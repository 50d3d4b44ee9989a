//! Plain `key: value` rendering (debugging format).
//!
//! Not a wire format — nothing parses it — so it keeps the redundant
//! but greppable `[quality=…]` / `[age=…s]` on every line rather than
//! hoisting them into the record header as LDIF and XML do.

use super::{relative_name, AttrRef, Head};
use crate::record::InfoRecord;
use infogram_rsl::OutputFormat;
use std::fmt::Write;

/// The `# keyword @ host` header.
pub(super) fn write_head(out: &mut String, head: &Head<'_>) {
    let _ = writeln!(out, "# {} @ {}", head.keyword, head.host);
}

/// One `Keyword:name: value` line per attribute.
pub(super) fn write_block<'a>(
    out: &mut String,
    keyword: &str,
    attrs: impl Iterator<Item = AttrRef<'a>>,
) {
    for a in attrs {
        let name = relative_name(a.name, keyword, ':');
        let _ = write!(out, "{keyword}:{name}: {}", a.value);
        if let Some(q) = a.quality {
            let _ = write!(out, "  [quality={q:.4}]");
        }
        if let Some(age) = a.age_secs {
            let _ = write!(out, "  [age={age:.3}s]");
        }
        out.push('\n');
    }
}

/// Render records as `# keyword @ host` headers followed by
/// `name: value` lines.
pub fn render(records: &[InfoRecord]) -> String {
    super::render(records, OutputFormat::Plain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_values() {
        let mut r = InfoRecord::new("CPU", "node1");
        r.push("count", "4");
        r.push("mhz", "1000").quality = Some(1.0);
        let out = render(&[r]);
        assert!(out.contains("# CPU @ node1"));
        assert!(out.contains("CPU:count: 4"));
        assert!(out.contains("CPU:mhz: 1000  [quality=1.0000]"));
    }

    #[test]
    fn empty() {
        assert_eq!(render(&[]), "");
    }
}
