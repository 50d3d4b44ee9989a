//! XML rendering.
//!
//! "Our positive experience with the use of XML schemas as basis for the
//! next generation of Information services makes us believe that it
//! provides a viable alternative to the currently used LDAP schemas"
//! (§5.5). A record is a `<provider>` whose tag carries the head —
//! `degraded` / `stale-age` on a fault-driven stale serve, `quality` /
//! `age` when every attribute shares them — and whose `<attribute>`s
//! carry only what differs from it, their names relative to the
//! keyword (`Memory:total` is `name="total"`; the whole form parses to
//! the same name; see the [module docs](super)):
//!
//! ```
//! use infogram_proto::record::InfoRecord;
//! use infogram_proto::render::xml;
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
//!     xml::render(&records),
//!     r#"<infogram>
//!   <provider keyword="Memory" host="node0.grid" quality="1.0000" age="12.345">
//!     <attribute name="total">4294967296</attribute>
//!     <attribute name="free">1073741824</attribute>
//!   </provider>
//!   <provider keyword="CPULoad" host="node0.grid">
//!     <attribute name="load" quality="0.7500">0.93</attribute>
//!     <attribute name="note">a&lt;b</attribute>
//!   </provider>
//! </infogram>
//! "#
//! );
//! assert_eq!(xml::parse(&xml::render(&records)), records);
//! // The whole form reads the same.
//! let whole = "<provider keyword=\"K\" host=\"h\">\n<attribute name=\"K:a\">1</attribute>\n</provider>";
//! assert_eq!(xml::parse(whole)[0].attributes[0].name, "K:a");
//! ```

use super::{full_name, written_name, AttrRef, Head};
use crate::record::{Attribute, InfoRecord};
use infogram_rsl::OutputFormat;
use std::fmt::Write;

pub(super) const OPEN: &str = "<infogram>\n";
pub(super) const CLOSE: &str = "</infogram>\n";

/// Append `s` to `out`, escaped for use in XML text content or
/// attribute values.
pub(super) fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(['&', '<', '>', '"', '\'']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&apos;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Reverse [`escape_into`].
pub(super) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let mapped = [
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ]
        .iter()
        .find_map(|(ent, ch)| rest.strip_prefix(ent).map(|r| (r, *ch)));
        match mapped {
            Some((r, ch)) => {
                out.push(ch);
                rest = r;
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// The tag attributes both `<provider>` and `<entry>` carry for the
/// head's annotations.
pub(super) fn write_head_annotations(out: &mut String, head: &Head<'_>) {
    if head.degraded {
        // Fault-domain annotation: last-known-good stale serve.
        out.push_str(" degraded=\"true\"");
        if let Some(age) = head.stale_age_secs {
            let _ = write!(out, " stale-age=\"{age:.3}\"");
        }
    }
    write_annotations(out, head.quality, head.age_secs);
}

/// ` quality="…" age="…"`, each if present.
fn write_annotations(out: &mut String, quality: Option<f64>, age_secs: Option<f64>) {
    if let Some(q) = quality {
        let _ = write!(out, " quality=\"{q:.4}\"");
    }
    if let Some(age) = age_secs {
        let _ = write!(out, " age=\"{age:.3}\"");
    }
}

/// The opening `<provider>` tag.
pub(super) fn write_head(out: &mut String, head: &Head<'_>) {
    out.push_str("  <provider keyword=\"");
    escape_into(out, head.keyword);
    out.push_str("\" host=\"");
    escape_into(out, head.host);
    out.push('"');
    write_head_annotations(out, head);
    out.push_str(">\n");
}

/// One `<attribute>` per attribute, then the closing `</provider>`.
pub(super) fn write_block<'a>(
    out: &mut String,
    keyword: &str,
    attrs: impl Iterator<Item = AttrRef<'a>>,
) {
    for a in attrs {
        out.push_str("    <attribute name=\"");
        let (whole, rest) = written_name(keyword, a.name);
        if let Some(keyword) = whole {
            escape_into(out, keyword);
            out.push(':');
        }
        escape_into(out, rest);
        out.push('"');
        write_annotations(out, a.quality, a.age_secs);
        out.push('>');
        escape_into(out, a.value);
        out.push_str("</attribute>\n");
    }
    out.push_str("  </provider>\n");
}

/// Render records as an `<infogram>` document.
pub fn render(records: &[InfoRecord]) -> String {
    super::render(records, OutputFormat::Xml)
}

/// Parse documents produced by [`render`]. This is a purpose-built
/// scanner, not a general XML parser; it understands exactly the shape
/// `render` emits — with the annotations on the `<provider>`, on each
/// `<attribute>` (which wins), or both.
pub fn parse(text: &str) -> Vec<InfoRecord> {
    let mut records = Vec::new();
    // The open record and its record-level quality and age.
    let mut current: Option<(InfoRecord, Option<f64>, Option<f64>)> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("<provider ") {
            let mut rec = InfoRecord::default();
            let (mut quality, mut age_secs) = (None, None);
            for (name, value) in tag_attrs(rest) {
                match name {
                    "keyword" => rec.keyword = unescape(value),
                    "host" => rec.host = unescape(value),
                    "degraded" => rec.degraded = value == "true",
                    "stale-age" => rec.stale_age_secs = value.parse().ok(),
                    "quality" => quality = value.parse().ok(),
                    "age" => age_secs = value.parse().ok(),
                    _ => {}
                }
            }
            current = Some((rec, quality, age_secs));
        } else if line == "</provider>" {
            records.extend(current.take().map(|(rec, ..)| rec));
        } else if let Some(rest) = line.strip_prefix("<attribute ") {
            let Some((rec, quality, age_secs)) = current.as_mut() else {
                continue;
            };
            let mut attr = Attribute {
                name: String::new(),
                value: rest
                    .split_once('>')
                    .and_then(|(_, r)| r.rsplit_once("</attribute>"))
                    .map(|(v, _)| unescape(v))
                    .unwrap_or_default(),
                quality: *quality,
                age_secs: *age_secs,
            };
            let mut name = Some(String::new());
            for (tag, value) in tag_attrs(rest) {
                match tag {
                    "name" => name = full_name(&unescape(value), &rec.keyword, ':'),
                    "quality" => attr.quality = value.parse().ok(),
                    "age" => attr.age_secs = value.parse().ok(),
                    _ => {}
                }
            }
            if let Some(name) = name {
                attr.name = name;
                rec.attributes.push(attr);
            }
        }
    }
    records
}

/// The `name="value"` pairs of a start tag, given the text after the
/// tag's name (`keyword="K" host="H">…`), values still escaped. Names
/// are whole tokens — `age` is not found inside `stale-age` — and the
/// scan ends at the tag's `>`, so element content is never searched.
pub(super) fn tag_attrs(fragment: &str) -> impl Iterator<Item = (&str, &str)> {
    let mut rest = fragment;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let eq = rest.find(['=', '>'])?;
        let value = rest[eq..].strip_prefix("=\"")?;
        let end = value.find('"')?;
        let pair = (rest[..eq].trim_end(), &value[..end]);
        rest = &value[end + 1..];
        Some(pair)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<InfoRecord> {
        let mut m = InfoRecord::new("Memory", "node0.grid");
        m.push("total", "4294967296");
        let mut c = InfoRecord::new("CPULoad", "node0.grid");
        c.push("load", "0.93").quality = Some(0.75);
        c.push("load5", "0.90").age_secs = Some(3.0);
        vec![m, c]
    }

    #[test]
    fn render_shape() {
        let out = render(&sample());
        assert!(out.starts_with("<infogram>"));
        assert!(out.trim_end().ends_with("</infogram>"));
        assert!(out.contains("<provider keyword=\"Memory\" host=\"node0.grid\">"));
        assert!(out.contains("<attribute name=\"total\">4294967296</attribute>"));
        assert!(out.contains("quality=\"0.7500\""));
        assert!(out.contains("age=\"3.000\""));
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let parsed = parse(&render(&records));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].get("total").unwrap().value, "4294967296");
        assert_eq!(parsed[1].get("load").unwrap().quality, Some(0.75));
        assert_eq!(parsed[1].get("load5").unwrap().age_secs, Some(3.0));
    }

    #[test]
    fn degraded_annotation_roundtrips() {
        let mut r = InfoRecord::new("Memory", "node0.grid");
        r.push("total", "4096");
        r.degraded = true;
        r.stale_age_secs = Some(12.5);
        let out = render(&[r]);
        assert!(out.contains("degraded=\"true\""));
        assert!(out.contains("stale-age=\"12.500\""));
        let parsed = parse(&out);
        assert!(parsed[0].degraded);
        assert_eq!(parsed[0].stale_age_secs, Some(12.5));
        let fresh = render(&[InfoRecord::new("CPU", "n")]);
        assert!(!parse(&fresh)[0].degraded);
    }

    #[test]
    fn tag_attributes_match_whole_names_only() {
        // A degraded record whose stale-age and record-level age differ:
        // `age` must not be read out of `stale-age`.
        let mut r = InfoRecord::new("Memory", "node0.grid");
        r.degraded = true;
        r.stale_age_secs = Some(31.25);
        for n in ["total", "free"] {
            r.push(n, "1").age_secs = Some(2.5);
        }
        let out = render(std::slice::from_ref(&r));
        assert!(out.contains("stale-age=\"31.250\" age=\"2.500\">"));
        assert_eq!(parse(&out), vec![r]);
        fn attr<'a>(tag: &'a str, name: &str) -> Option<&'a str> {
            tag_attrs(tag).find(|(n, _)| *n == name).map(|(_, v)| v)
        }
        let tag = "keyword=\"K\" stale-age=\"31.250\" hostname=\"x\">";
        assert_eq!(attr(tag, "stale-age"), Some("31.250"));
        assert_eq!(attr(tag, "age"), None);
        assert_eq!(attr(tag, "name"), None);
        // Element content that looks like an attribute is not one.
        let mut r = InfoRecord::new("K", "h");
        r.push("v", "age=\"9\" quality=\"0\"");
        let out = render(std::slice::from_ref(&r));
        assert_eq!(parse(&out), vec![r]);
        assert_eq!(attr("name=\"K:v\">age=\"9\"</attribute>", "age"), None);
    }

    #[test]
    fn escaping() {
        let mut escaped = String::new();
        escape_into(&mut escaped, "a<b&c>\"d'");
        assert_eq!(escaped, "a&lt;b&amp;c&gt;&quot;d&apos;");
        assert_eq!(unescape("a&lt;b&amp;c&gt;&quot;d&apos;"), "a<b&c>\"d'");
        // Lone ampersand survives unescape.
        assert_eq!(unescape("a&b"), "a&b");
    }

    #[test]
    fn hostile_values_roundtrip() {
        let mut r = InfoRecord::new("X", "h<>&");
        r.push("attr", "<script>&\"quotes\"'</script>");
        let parsed = parse(&render(&[r]));
        assert_eq!(parsed[0].host, "h<>&");
        assert_eq!(
            parsed[0].get("attr").unwrap().value,
            "<script>&\"quotes\"'</script>"
        );
    }

    #[test]
    fn empty_document() {
        let out = render(&[]);
        assert_eq!(out, "<infogram>\n</infogram>\n");
        assert!(parse(&out).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn escape_unescape_roundtrip(s in "\\PC{0,64}") {
            let mut escaped = String::new();
            escape_into(&mut escaped, &s);
            prop_assert_eq!(unescape(&escaped), s);
        }

        #[test]
        fn xml_roundtrip_single_line_values(
            // XML rendering is line-oriented; values with newlines are
            // carried by LDIF/base64 instead.
            values in prop::collection::vec("[^\\r\\n]{0,24}", 1..5),
        ) {
            let mut rec = InfoRecord::new("Kw", "host");
            for (i, v) in values.iter().enumerate() {
                rec.push(&format!("a{i}"), v);
            }
            let parsed = parse(&render(&[rec]));
            prop_assert_eq!(parsed.len(), 1);
            for (i, v) in values.iter().enumerate() {
                prop_assert_eq!(&parsed[0].get(&format!("a{i}")).unwrap().value, v);
            }
        }
    }
}
