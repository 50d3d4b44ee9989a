//! DSML rendering.
//!
//! §6.6: "Nevertheless, it is straightforward to support other formats
//! such as DSML." The Directory Services Markup Language (v1) expresses
//! LDAP directory entries in XML. Attribute names follow the LDIF
//! renderer: relative to the keyword the entry's DN names
//! (`Memory:total` is `name="total"`), and the whole LDAP-safe form
//! `Memory-total` parses to the same name. The
//! `<entry>` tag carries the record's head exactly as XML's `<provider>`
//! does; an attribute that differs from it carries `<quality>` / `<age>`
//! elements (see the [module docs](super)):
//!
//! ```
//! use infogram_proto::record::InfoRecord;
//! use infogram_proto::render::dsml;
//!
//! let mut memory = InfoRecord::new("Memory", "node0.grid");
//! for (name, value) in [("total", "4294967296"), ("free", "1073741824")] {
//!     let attr = memory.push(name, value);
//!     attr.quality = Some(1.0);
//!     attr.age_secs = Some(12.345);
//! }
//! let mut load = InfoRecord::new("CPULoad", "node0.grid");
//! load.push("load", "0.93").quality = Some(0.75);
//! load.push("note", "a<b");
//! let records = [memory, load];
//! assert_eq!(
//!     dsml::render(&records),
//!     r#"<dsml>
//!  <directory-entries>
//!   <entry dn="kw=Memory, hn=node0.grid, o=Grid" quality="1.0000" age="12.345">
//!    <objectclass><oc-value>InfoGramProvider</oc-value></objectclass>
//!    <attr name="total"><value>4294967296</value></attr>
//!    <attr name="free"><value>1073741824</value></attr>
//!   </entry>
//!   <entry dn="kw=CPULoad, hn=node0.grid, o=Grid">
//!    <objectclass><oc-value>InfoGramProvider</oc-value></objectclass>
//!    <attr name="load"><value>0.93</value><quality>0.7500</quality></attr>
//!    <attr name="note"><value>a&lt;b</value></attr>
//!   </entry>
//!  </directory-entries>
//! </dsml>
//! "#
//! );
//! assert_eq!(dsml::parse(&dsml::render(&records)), records);
//! ```

use super::ldif::{read_dn, restore_name};
use super::xml::{escape_into, tag_attrs, unescape, write_head_annotations};
use super::{written_name, AttrRef, Head};
use crate::record::{Attribute, InfoRecord};
use infogram_rsl::OutputFormat;
use std::fmt::Write;

pub(super) const OPEN: &str = "<dsml>\n <directory-entries>\n";
pub(super) const CLOSE: &str = " </directory-entries>\n</dsml>\n";

/// The opening `<entry>` tag and the object class.
pub(super) fn write_head(out: &mut String, head: &Head<'_>) {
    out.push_str("  <entry dn=\"kw=");
    escape_into(out, head.keyword);
    out.push_str(", hn=");
    escape_into(out, head.host);
    out.push_str(", o=Grid\"");
    write_head_annotations(out, head);
    out.push_str(">\n   <objectclass><oc-value>InfoGramProvider</oc-value></objectclass>\n");
}

/// One `<attr>` per attribute, then the closing `</entry>`.
pub(super) fn write_block<'a>(
    out: &mut String,
    keyword: &str,
    attrs: impl Iterator<Item = AttrRef<'a>>,
) {
    for a in attrs {
        out.push_str("   <attr name=\"");
        let (whole, rest) = written_name(keyword, a.name);
        if let Some(keyword) = whole {
            escape_into(out, keyword);
            out.push('-');
        }
        escape_into(out, rest);
        out.push_str("\"><value>");
        escape_into(out, a.value);
        out.push_str("</value>");
        if let Some(q) = a.quality {
            let _ = write!(out, "<quality>{q:.4}</quality>");
        }
        if let Some(age) = a.age_secs {
            let _ = write!(out, "<age>{age:.3}</age>");
        }
        out.push_str("</attr>\n");
    }
    out.push_str("  </entry>\n");
}

/// Render records as a DSML v1 document.
pub fn render(records: &[InfoRecord]) -> String {
    super::render(records, OutputFormat::Dsml)
}

/// The escaped content of the first `open…close` element in `text`.
/// Content is escaped, so it never contains a `<` of its own and the
/// first `close` is the element's.
fn element<'a>(text: &'a str, open: &str, close: &str) -> Option<&'a str> {
    let (_, after) = text.split_once(open)?;
    after.split_once(close).map(|(content, _)| content)
}

/// Parse documents produced by [`render`] (purpose-built scanner for
/// round-trip tests and the format-equivalence experiment).
pub fn parse(text: &str) -> Vec<InfoRecord> {
    let mut records = Vec::new();
    // The open record and its record-level quality and age.
    let mut current: Option<(InfoRecord, Option<f64>, Option<f64>)> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("<entry ") {
            records.extend(current.take().map(|(rec, ..)| rec));
            let mut rec = InfoRecord::default();
            let (mut quality, mut age_secs) = (None, None);
            for (name, value) in tag_attrs(rest) {
                match name {
                    "dn" => read_dn(&unescape(value), &mut rec),
                    "degraded" => rec.degraded = value == "true",
                    "stale-age" => rec.stale_age_secs = value.parse().ok(),
                    "quality" => quality = value.parse().ok(),
                    "age" => age_secs = value.parse().ok(),
                    _ => {}
                }
            }
            current = Some((rec, quality, age_secs));
        } else if line == "</entry>" {
            records.extend(current.take().map(|(rec, ..)| rec));
        } else if let Some(rest) = line.strip_prefix("<attr name=\"") {
            let Some((rec, quality, age_secs)) = current.as_mut() else {
                continue;
            };
            let Some((raw_name, rest)) = rest.split_once('"') else {
                continue;
            };
            let Some(name) = restore_name(&unescape(raw_name), &rec.keyword) else {
                continue;
            };
            let own = |open, close| element(rest, open, close).and_then(|v| v.parse().ok());
            rec.attributes.push(Attribute {
                name,
                value: element(rest, "<value>", "</value>")
                    .map(unescape)
                    .unwrap_or_default(),
                quality: own("<quality>", "</quality>").or(*quality),
                age_secs: own("<age>", "</age>").or(*age_secs),
            });
        }
    }
    records.extend(current.take().map(|(rec, ..)| rec));
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<InfoRecord> {
        let mut m = InfoRecord::new("Memory", "node0.grid");
        m.push("total", "4294967296").quality = Some(0.9);
        m.push("free", "1073741824").age_secs = Some(2.5);
        let mut c = InfoRecord::new("CPU", "node0.grid");
        c.push("count", "4");
        vec![m, c]
    }

    #[test]
    fn render_shape() {
        let out = render(&sample());
        assert!(out.starts_with("<dsml>"));
        assert!(out.trim_end().ends_with("</dsml>"));
        assert!(out.contains("<entry dn=\"kw=Memory, hn=node0.grid, o=Grid\">"));
        assert!(out.contains("<attr name=\"total\">"));
        assert!(out.contains("<value>4294967296</value>"));
        assert!(out.contains("<quality>0.9000</quality>"));
        assert!(out.contains("<age>2.500</age>"));
        assert!(out.contains("<oc-value>InfoGramProvider</oc-value>"));
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let parsed = parse(&render(&records));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].keyword, "Memory");
        assert_eq!(parsed[0].get("total").unwrap().value, "4294967296");
        assert_eq!(parsed[0].get("total").unwrap().quality, Some(0.9));
        assert_eq!(parsed[0].get("free").unwrap().age_secs, Some(2.5));
        // Namespaced names restored.
        assert_eq!(parsed[0].attributes[0].name, "Memory:total");
        assert_eq!(parsed[1].get("count").unwrap().value, "4");
    }

    #[test]
    fn hostile_values_escaped() {
        let mut r = InfoRecord::new("X", "h");
        r.push("attr", "<value>&\"'</value>");
        let out = render(&[r]);
        assert!(!out.contains("<value><value>"));
        let parsed = parse(&out);
        assert_eq!(parsed[0].get("attr").unwrap().value, "<value>&\"'</value>");
    }

    #[test]
    fn empty_document() {
        let out = render(&[]);
        assert!(parse(&out).is_empty());
    }
}
