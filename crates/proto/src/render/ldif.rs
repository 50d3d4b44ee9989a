//! LDIF rendering — the MDS-compatible output format.
//!
//! Each information record becomes one LDIF entry whose DN mirrors the
//! MDS 2.0 convention (`kw=<Keyword>, hn=<host>, o=Grid`). Because LDIF
//! attribute names cannot contain `:`, the namespace separator of
//! `Memory:total` is rendered as `Memory-total` and restored on parse
//! (the keyword is known from the DN). Values that LDIF cannot carry
//! verbatim (leading space/colon/'<', embedded newlines, non-ASCII) are
//! base64-encoded with the `attr::` form.
//!
//! Quality and age are written once per record, as `infogram-quality` /
//! `infogram-age` beside the `infogram-degraded` / `infogram-stale-age`
//! fault annotation, when every attribute shares them; an attribute that
//! differs from its record carries `;quality` / `;age` companion lines
//! instead (see the [module docs](super) for the rule):
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
//!      Memory-total: 4294967296\n\
//!      Memory-free: 1073741824\n\
//!      \n\
//!      dn: kw=CPULoad, hn=node0.grid, o=Grid\n\
//!      objectclass: InfoGramProvider\n\
//!      CPULoad-load: 0.93\n\
//!      CPULoad-load;quality: 0.7500\n\
//!      CPULoad-note:: IHBhZGRlZA==\n"
//! );
//! assert_eq!(ldif::parse(&ldif::render(&records)), records);
//! ```

use super::{base64, AttrRef, Head};
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
fn push_value(out: &mut String, value: &str) {
    if needs_base64(value) {
        out.push_str(":: ");
        base64::encode_into(out, value.as_bytes());
    } else {
        out.push_str(": ");
        out.push_str(value);
    }
    out.push('\n');
}

/// `Memory:total` → `Memory-total` (LDIF-safe).
fn push_name(out: &mut String, attr: &AttrRef<'_>) {
    let (keyword, rest) = attr.split_name();
    if let Some(keyword) = keyword {
        out.push_str(keyword);
        out.push('-');
    }
    out.push_str(rest);
}

/// `Memory-total` → `Memory:total`, given the record's keyword.
pub(super) fn restore_name(name: &str, keyword: &str) -> String {
    match strip_keyword(name, keyword) {
        Some(rest) => [keyword, ":", rest].concat(),
        None => name.to_string(),
    }
}

/// The part of an LDIF name after `<keyword>-`.
fn strip_keyword<'a>(name: &'a str, keyword: &str) -> Option<&'a str> {
    name.strip_prefix(keyword)?.strip_prefix('-')
}

/// Whether the record attribute `full` is what the LDIF name `raw`
/// restores to — [`restore_name`] without building the string.
fn same_name(full: &str, raw: &str, keyword: &str) -> bool {
    match strip_keyword(raw, keyword) {
        Some(rest) => full.strip_prefix(keyword).and_then(|f| f.strip_prefix(':')) == Some(rest),
        None => full == raw,
    }
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
pub(super) fn write_block<'a>(out: &mut String, attrs: impl Iterator<Item = AttrRef<'a>>) {
    for a in attrs {
        push_name(out, &a);
        push_value(out, a.value);
        if let Some(q) = a.quality {
            push_name(out, &a);
            let _ = writeln!(out, ";quality: {q:.4}");
        }
        if let Some(age) = a.age_secs {
            push_name(out, &a);
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
        let Some((raw_name, rest)) = line.split_once(':') else {
            continue;
        };
        let value: Cow<'_, str> = match rest.strip_prefix(": ") {
            Some(b64) => Cow::Owned(
                String::from_utf8(base64::decode(b64).unwrap_or_default()).unwrap_or_default(),
            ),
            None => Cow::Borrowed(rest.strip_prefix(' ').unwrap_or(rest)),
        };
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
                } else {
                    entry.rec.attributes.push(Attribute {
                        name: restore_name(raw_name, &entry.rec.keyword),
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
        assert!(out.contains("Memory-total: 4294967296"));
        // One attribute of two is annotated: it keeps its companion line.
        assert!(out.contains("Memory-free;quality: 0.9000"));
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
        assert!(out.contains("Odd-multiline:: "));
        assert!(out.contains("Odd-leading:: "));
        assert!(out.contains("Odd-unicode:: "));
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
        #[test]
        fn ldif_roundtrip_arbitrary_values(
            keyword in "[A-Za-z][A-Za-z0-9]{0,8}",
            values in prop::collection::vec("\\PC{0,24}", 1..6),
        ) {
            let mut rec = InfoRecord::new(&keyword, "host.grid");
            for (i, v) in values.iter().enumerate() {
                rec.push(&format!("attr{i}"), v);
            }
            let parsed = parse(&render(&[rec.clone()]));
            prop_assert_eq!(parsed.len(), 1);
            for (i, v) in values.iter().enumerate() {
                let got = parsed[0].get(&format!("attr{i}")).expect("attr present");
                prop_assert_eq!(&got.value, v);
            }
        }
    }
}
