//! LDIF rendering — the MDS-compatible output format.
//!
//! Each information record becomes one LDIF entry whose DN mirrors the
//! MDS 2.0 convention (`kw=<Keyword>, hn=<host>, o=Grid`). The DN names
//! the keyword, so an attribute line names only what follows it:
//! `Memory:total` is written `total` and the keyword restored on parse
//! (see the [module docs](super) for the rule). The whole form an MDS
//! entry carries, `Memory-total`, parses to the same name. An LDIF name
//! ends at its first `:`, so a `:` in a name is written `%3A`, and the
//! escape's own `%` is written `%25` (`Memory:a:b` is `a%3Ab`); other
//! names are written as they are. Values that LDIF cannot carry
//! verbatim (leading space/colon/'<', embedded newlines, non-ASCII) are
//! base64-encoded with the `attr::` form.
//!
//! Quality and age are written once per record, as `infogram-quality` /
//! `infogram-age` beside the `infogram-degraded` / `infogram-stale-age`
//! fault annotation, when every attribute shares them; an attribute that
//! differs from its record carries `;quality` / `;age` companion lines
//! instead:
//!
//! ```
//! use infogram_proto::record::InfoRecord;
//! use infogram_proto::render::ldif;
//!
//! let mut memory = InfoRecord::new("Memory", "node0.grid");
//! for (name, value) in [("total", "4294967296"), ("free", "1073741824")] {
//!     let attr = memory.push(name, value);
//!     attr.quality = Some(1.0);
//!     attr.age_secs = Some(12.345);
//! }
//! let mut load = InfoRecord::new("CPULoad", "node0.grid");
//! load.push("load", "0.93").quality = Some(0.75);
//! load.push("note", " padded");
//! let records = [memory, load];
//! assert_eq!(
//!     ldif::render(&records),
//!     "dn: kw=Memory, hn=node0.grid, o=Grid\n\
//!      objectclass: InfoGramProvider\n\
//!      infogram-quality: 1.0000\n\
//!      infogram-age: 12.345\n\
//!      total: 4294967296\n\
//!      free: 1073741824\n\
//!      \n\
//!      dn: kw=CPULoad, hn=node0.grid, o=Grid\n\
//!      objectclass: InfoGramProvider\n\
//!      load: 0.93\n\
//!      load;quality: 0.7500\n\
//!      note:: IHBhZGRlZA==\n"
//! );
//! assert_eq!(ldif::parse(&ldif::render(&records)), records);
//! // The whole form reads the same.
//! let whole = "dn: kw=CPULoad, hn=node0.grid, o=Grid\nCPULoad-load: 0.93\n";
//! assert_eq!(ldif::parse(whole)[0].attributes[0].name, "CPULoad:load");
//! ```

use super::{base64, full_name, relative_name, written_name, AttrRef, Head};
use crate::record::{Attribute, InfoRecord};
use infogram_rsl::OutputFormat;
use std::borrow::Cow;
use std::fmt::Write;

/// A byte no LDIF value may carry verbatim, wherever it stands.
fn unsafe_byte(b: u8) -> bool {
    b == b'\n' || b == b'\r' || b == 0 || b > 126
}

/// Whether an LDIF value must be base64-encoded.
fn needs_base64(v: &str) -> bool {
    v.starts_with([' ', ':', '<']) || v.ends_with(' ') || v.bytes().any(unsafe_byte)
}

/// `: value\n`, or `:: <base64>\n` for a value LDIF cannot carry.
pub fn push_value(out: &mut String, value: &str) {
    if needs_base64(value) {
        out.push_str(":: ");
        base64::encode_into(out, value.as_bytes());
    } else {
        out.push_str(": ");
        out.push_str(value);
    }
    out.push('\n');
}

/// A written name: the relative name, after `<keyword>-` when the
/// block writes the whole form, escaped.
fn push_name(out: &mut String, (keyword, relative): (Option<&str>, &str)) {
    if let Some(keyword) = keyword {
        push_escaped(out, keyword);
        out.push('-');
    }
    push_escaped(out, relative);
}

/// `name` with each `:` written `%3A` and each `%` written `%25`.
fn push_escaped(out: &mut String, name: &str) {
    let mut rest = name;
    while let Some(at) = rest.find([':', '%']) {
        out.push_str(&rest[..at]);
        out.push_str(if rest.as_bytes()[at] == b':' {
            "%3A"
        } else {
            "%25"
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// A name as [`push_escaped`] wrote it → as the record holds it.
fn unescape(written: &str) -> Cow<'_, str> {
    if !written.contains('%') {
        return written.into();
    }
    // Every `%` written starts an escape, so no `%3A` straddles one.
    written.replace("%3A", ":").replace("%25", "%").into()
}

/// An attribute name in the whole LDIF-safe form an MDS entry carries:
/// `Memory:total` → `Memory-total`.
pub fn safe_name(name: &str) -> String {
    name.replacen(':', "-", 1)
}

/// An LDIF name of a record of `keyword` → the attribute's name:
/// `total` and `Memory-total` are both `Memory:total` in a `Memory`
/// entry. `None` for a relative name under a keyword no block writes
/// relative names for (longer than
/// [`RELATIVE_KEYWORD_MAX`](super::RELATIVE_KEYWORD_MAX)).
pub fn restore_name(name: &str, keyword: &str) -> Option<String> {
    full_name(name, keyword, '-')
}

/// Whether the record attribute `full` is what the LDIF name `raw`
/// restores to — [`restore_name`] without building the string.
fn same_name(full: &str, raw: &str, keyword: &str) -> bool {
    full.strip_prefix(keyword).and_then(|f| f.strip_prefix(':'))
        == Some(relative_name(raw, keyword, '-'))
}

/// The entry's head: DN, object class and the record-level annotations.
/// Entries are separated by a blank line.
pub(super) fn write_head(out: &mut String, head: &Head<'_>, first: bool) {
    if !first {
        out.push('\n');
    }
    if head
        .keyword
        .bytes()
        .chain(head.host.bytes())
        .any(unsafe_byte)
    {
        out.push_str("dn");
        push_value(
            out,
            &format!("kw={}, hn={}, o=Grid", head.keyword, head.host),
        );
    } else {
        for part in ["dn: kw=", head.keyword, ", hn=", head.host, ", o=Grid\n"] {
            out.push_str(part);
        }
    }
    out.push_str("objectclass: InfoGramProvider\n");
    if head.degraded {
        // Fault-domain annotation (§ fault supervisor): the record is
        // a last-known-good stale serve, with its true age.
        out.push_str("infogram-degraded: TRUE\n");
        if let Some(age) = head.stale_age_secs {
            let _ = writeln!(out, "infogram-stale-age: {age:.3}");
        }
    }
    if let Some(q) = head.quality {
        let _ = writeln!(out, "infogram-quality: {q:.4}");
    }
    if let Some(age) = head.age_secs {
        let _ = writeln!(out, "infogram-age: {age:.3}");
    }
}

/// One line per attribute, followed by `;quality` / `;age` companion
/// lines for annotations the head does not carry.
pub(super) fn write_block<'a>(
    out: &mut String,
    keyword: &str,
    attrs: impl Iterator<Item = AttrRef<'a>>,
) {
    for a in attrs {
        let name = written_name(keyword, a.name);
        push_name(out, name);
        push_value(out, a.value);
        if let Some(q) = a.quality {
            push_name(out, name);
            let _ = writeln!(out, ";quality: {q:.4}");
        }
        if let Some(age) = a.age_secs {
            push_name(out, name);
            let _ = writeln!(out, ";age: {age:.3}");
        }
    }
}

/// Render records as LDIF entries separated by blank lines.
pub fn render(records: &[InfoRecord]) -> String {
    super::render(records, OutputFormat::Ldif)
}

/// Take a record's keyword and host from `kw=<Keyword>, hn=<host>, o=Grid`.
pub(super) fn read_dn(dn: &str, rec: &mut InfoRecord) {
    for part in dn.split(',') {
        let part = part.trim();
        if let Some(k) = part.strip_prefix("kw=") {
            rec.keyword = k.to_string();
        } else if let Some(h) = part.strip_prefix("hn=") {
            rec.host = h.to_string();
        }
    }
}

/// An entry being parsed, with the record-level annotations seen so far.
#[derive(Default)]
struct Entry {
    rec: InfoRecord,
    quality: Option<f64>,
    age_secs: Option<f64>,
}

impl Entry {
    /// The attribute a `;quality` / `;age` line annotates. An annotation
    /// follows its attribute, so that is the last one pushed; only LDIF
    /// from elsewhere needs the search.
    fn annotated(&mut self, raw: &str) -> Option<&mut Attribute> {
        let Entry { rec, .. } = self;
        let keyword = rec.keyword.as_str();
        let is = |a: &Attribute| same_name(&a.name, raw, keyword);
        let at = match rec.attributes.last() {
            Some(last) if is(last) => rec.attributes.len() - 1,
            _ => rec.attributes.iter().rposition(is)?,
        };
        rec.attributes.get_mut(at)
    }

    /// Close the entry: a record-level annotation holds for every
    /// attribute without one of its own.
    fn finish(mut self) -> InfoRecord {
        for a in &mut self.rec.attributes {
            a.quality = a.quality.or(self.quality);
            a.age_secs = a.age_secs.or(self.age_secs);
        }
        self.rec
    }
}

/// One line's name and value; a `name:: <base64>` value is decoded.
pub fn split_line(line: &str) -> Option<(&str, Cow<'_, str>)> {
    let (name, rest) = line.split_once(':')?;
    let Some(b64) = rest.strip_prefix(": ") else {
        return Some((name, rest.strip_prefix(' ').unwrap_or(rest).into()));
    };
    let text = String::from_utf8(base64::decode(b64).unwrap_or_default());
    Some((name, text.unwrap_or_default().into()))
}

/// Parse LDIF produced by [`render`] back into records — by this
/// renderer or by one that predates the record-level annotations. One
/// pass; the only allocations are the strings the records own.
pub fn parse(text: &str) -> Vec<InfoRecord> {
    let mut records = Vec::new();
    let mut current: Option<Entry> = None;
    for line in text.lines() {
        if line.is_empty() {
            records.extend(current.take().map(Entry::finish));
            continue;
        }
        let Some((written, value)) = split_line(line) else {
            continue;
        };
        let raw_name = &*unescape(written);
        if raw_name == "dn" {
            records.extend(current.take().map(Entry::finish));
            let mut entry = Entry::default();
            read_dn(&value, &mut entry.rec);
            current = Some(entry);
            continue;
        }
        let Some(entry) = current.as_mut() else {
            continue;
        };
        match raw_name {
            "objectclass" => {}
            "infogram-degraded" => entry.rec.degraded = value == "TRUE",
            "infogram-stale-age" => entry.rec.stale_age_secs = value.parse().ok(),
            "infogram-quality" => entry.quality = value.parse().ok(),
            "infogram-age" => entry.age_secs = value.parse().ok(),
            _ => {
                if let Some(base) = raw_name.strip_suffix(";quality") {
                    if let Some(a) = entry.annotated(base) {
                        a.quality = value.parse().ok();
                    }
                } else if let Some(base) = raw_name.strip_suffix(";age") {
                    if let Some(a) = entry.annotated(base) {
                        a.age_secs = value.parse().ok();
                    }
                } else if let Some(name) = restore_name(raw_name, &entry.rec.keyword) {
                    entry.rec.attributes.push(Attribute {
                        name,
                        value: value.into_owned(),
                        quality: None,
                        age_secs: None,
                    });
                }
            }
        }
    }
    records.extend(current.take().map(Entry::finish));
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<InfoRecord> {
        let mut m = InfoRecord::new("Memory", "node0.grid");
        m.push("total", "4294967296");
        m.push("free", "1073741824").quality = Some(0.9);
        let mut d = InfoRecord::new("Date", "node0.grid");
        d.push("value", "2002-07-24 00:00:00 UTC").age_secs = Some(1.5);
        vec![m, d]
    }

    #[test]
    fn render_shape() {
        let out = render(&sample());
        assert!(out.contains("dn: kw=Memory, hn=node0.grid, o=Grid"));
        assert!(out.contains("objectclass: InfoGramProvider"));
        assert!(out.contains("\ntotal: 4294967296"));
        // One attribute of two is annotated: it keeps its companion line.
        assert!(out.contains("\nfree;quality: 0.9000"));
        assert!(!out.contains("infogram-quality"));
        // Every attribute of `Date` has the age: it is the record's.
        assert!(out.contains("objectclass: InfoGramProvider\ninfogram-age: 1.500\n"));
        assert!(!out.contains(";age"));
        // Two entries, one separator blank line.
        assert_eq!(out.matches("\n\n").count(), 1);
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let parsed = parse(&render(&records));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].keyword, "Memory");
        assert_eq!(parsed[0].host, "node0.grid");
        assert_eq!(parsed[0].get("total").unwrap().value, "4294967296");
        assert_eq!(parsed[0].get("free").unwrap().quality, Some(0.9));
        assert_eq!(parsed[1].get("value").unwrap().age_secs, Some(1.5));
        // Namespaces restored exactly.
        assert_eq!(parsed[0].attributes[0].name, "Memory:total");
    }

    #[test]
    fn degraded_annotation_roundtrips() {
        let mut r = InfoRecord::new("CPULoad", "node0.grid");
        r.push("load", "0.93");
        r.degraded = true;
        r.stale_age_secs = Some(31.25);
        let out = render(&[r]);
        assert!(out.contains("infogram-degraded: TRUE"));
        assert!(out.contains("infogram-stale-age: 31.250"));
        let parsed = parse(&out);
        assert!(parsed[0].degraded);
        assert_eq!(parsed[0].stale_age_secs, Some(31.25));
        // Fresh records carry no annotation at all.
        let fresh = render(&[InfoRecord::new("CPU", "n")]);
        assert!(!fresh.contains("infogram-degraded"));
        assert!(!parse(&fresh)[0].degraded);
    }

    #[test]
    fn record_level_annotations_never_surface_as_attributes() {
        let mut r = InfoRecord::new("K", "h");
        for n in ["a", "b", "c"] {
            let a = r.push(n, "v");
            a.quality = Some(0.25);
            a.age_secs = Some(7.0);
        }
        let out = render(std::slice::from_ref(&r));
        assert_eq!(out.matches("infogram-quality: 0.2500\n").count(), 1);
        assert_eq!(out.matches("infogram-age: 7.000\n").count(), 1);
        assert!(!out.contains(";quality") && !out.contains(";age"));
        let parsed = parse(&out);
        assert_eq!(parsed, vec![r]);
        assert_eq!(parsed[0].attributes.len(), 3);
    }

    #[test]
    fn per_attribute_annotation_overrides_the_record_level_one() {
        // Both forms in one entry, the record-level lines last and an
        // annotation separated from its attribute: LDIF this renderer
        // never writes still parses, by name.
        let text = "dn: kw=K, hn=h, o=Grid\n\
                    K-a: 1\n\
                    K-b: 2\n\
                    K-a;quality: 0.1000\n\
                    K-b;age: 2.000\n\
                    infogram-quality: 0.9000\n\
                    infogram-age: 5.000\n";
        let parsed = parse(text);
        let (a, b) = (&parsed[0].attributes[0], &parsed[0].attributes[1]);
        assert_eq!((a.quality, a.age_secs), (Some(0.1), Some(5.0)));
        assert_eq!((b.quality, b.age_secs), (Some(0.9), Some(2.0)));
    }

    #[test]
    fn base64_for_unsafe_values() {
        let mut r = InfoRecord::new("Odd", "h");
        r.push("multiline", "line1\nline2");
        r.push("leading", " space");
        r.push("unicode", "grüße");
        let out = render(&[r]);
        assert!(out.contains("\nmultiline:: "));
        assert!(out.contains("\nleading:: "));
        assert!(out.contains("\nunicode:: "));
        let parsed = parse(&out);
        assert_eq!(parsed[0].get("multiline").unwrap().value, "line1\nline2");
        assert_eq!(parsed[0].get("leading").unwrap().value, " space");
        assert_eq!(parsed[0].get("unicode").unwrap().value, "grüße");
    }

    #[test]
    fn dn_the_ldif_cannot_carry_is_base64_too() {
        let mut r = InfoRecord::new("Kw", "nœud.grid");
        r.push("a", "1");
        let out = render(std::slice::from_ref(&r));
        assert!(out.starts_with("dn:: "));
        assert_eq!(parse(&out), vec![r]);
    }

    #[test]
    fn value_containing_colons_survives() {
        let mut r = InfoRecord::new("K", "h");
        r.push("url", "ldap://host:389/o=Grid");
        let parsed = parse(&render(&[r]));
        assert_eq!(
            parsed[0].get("url").unwrap().value,
            "ldap://host:389/o=Grid"
        );
    }

    #[test]
    fn empty_records() {
        assert_eq!(render(&[]), "");
        assert!(parse("").is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any values, under names relative to the keyword that a
        /// parser could misread: one beginning with the keyword and its
        /// `-` or `:`, one an LDIF head line uses, or neither; and names
        /// holding the escaped `:` and `%`. Every name reads back.
        #[test]
        fn ldif_roundtrip_arbitrary_values(
            keyword in "[A-Za-z][A-Za-z0-9-]{0,8}",
            attrs in prop::collection::vec(("\\PC{0,24}", 0usize..6, "[a-z0-9:%-]{0,6}"), 1..6),
        ) {
            let (dash, colon) = (format!("{keyword}-"), format!("{keyword}:"));
            let prefixes = ["", &dash, &colon, "dn", "objectclass", "infogram-"];
            let mut rec = InfoRecord::new(&keyword, "host.grid");
            for (value, prefix, rest) in &attrs {
                rec.push(&format!("{keyword}:{}{rest}", prefixes[*prefix]), value);
            }
            prop_assert_eq!(parse(&render(std::slice::from_ref(&rec))), vec![rec]);
        }
    }
}
