//! Output renderers for information records.
//!
//! §6.6: "The format tag defines the format in which the information is
//! returned. The supported formats are LDIF and XML." We add a plain
//! `key: value` format for debugging. Each renderer is paired with
//! enough of a parser to round-trip its own output.
//!
//! # The reply body: head + block
//!
//! Every format writes a record as two fragments (DESIGN.md §8.2):
//!
//! * the **head** — keyword, host, the `degraded` / `stale-age` fault
//!   annotation and the record-level `quality` / `age`: the only text
//!   that differs from one reply to the next;
//! * the **attribute block** — names and values (and the record's
//!   closing tag): a pure function of what the provider produced and
//!   the format, so a caller holding an immutable snapshot may render
//!   it once and [`BodyWriter::push_block`] it into every reply.
//!
//! Quality and age are *hoisted* into the head when every attribute of
//! the record carries the identical `Some` value — which is what the
//! information service stamps — and written per attribute otherwise.
//! The renderer decides that from the record, so [`render`] and a caller
//! assembling head + block itself produce the same bytes. The parsers
//! apply a record-level value to every attribute that has none of its
//! own and keep accepting the per-attribute form, so bodies written
//! before the hoisting existed parse to the same records. `plain` is the
//! debugging format and keeps `[quality=…]` on every line.
//!
//! # Names are relative to the record
//!
//! A record's attributes all live in its keyword's namespace, so a block
//! writes each name without it — `Memory:total` is `total` in every
//! format — and each parser puts the keyword back (`written_name` and
//! `full_name`, the one rule all three share). The whole form —
//! `Memory-total` in LDIF, `Memory:total` in XML, what bodies
//! used to carry and GRIS entries still do — parses to the same name,
//! and is written only where the relative name alone would not
//! round-trip: one that itself begins with `Memory-` or `Memory:`, or
//! that an LDIF head line uses. A name outside the keyword's namespace
//! (`Disk:free` in a `Memory` record) is relative to it like a bare one,
//! as [`InfoRecord::push`] namespaces it: `Memory:Disk:free`, written
//! `Disk%3Afree` in LDIF, whose names cannot hold a `:`.
//!
//! A parser rebuilds each name from the keyword it read once, so a body
//! naming a huge keyword over many short lines would cost the keyword's
//! length per line. A keyword longer than [`RELATIVE_KEYWORD_MAX`] —
//! no provider has one — is therefore written whole on every line, and a
//! parser drops a relative name under such a keyword: what a parse holds
//! stays in step with what it read.

pub mod base64;
pub mod ldif;
pub mod plain;
pub mod xml;

use crate::record::{Attribute, InfoRecord};
use infogram_rsl::OutputFormat;

/// The per-reply part of one record.
#[derive(Debug, Clone, Copy)]
pub struct Head<'a> {
    /// The keyword (provider name).
    pub keyword: &'a str,
    /// Host the information describes.
    pub host: &'a str,
    /// Whether the record is a fault-driven last-known-good serve.
    pub degraded: bool,
    /// When degraded: the served value's true age in seconds.
    pub stale_age_secs: Option<f64>,
    /// Quality shared by every attribute of the record, if hoisted.
    pub quality: Option<f64>,
    /// Age in seconds shared by every attribute, if hoisted.
    pub age_secs: Option<f64>,
}

/// One attribute as the block writers see it: borrowed, so a block can
/// be rendered from an [`InfoRecord`] or straight from a provider's
/// `(name, value)` pairs without building one.
#[derive(Debug, Clone, Copy)]
pub struct AttrRef<'a> {
    /// Attribute name in the record's keyword's namespace: whole
    /// (`Memory:total`) or bare (`total`, as a provider produces it).
    pub name: &'a str,
    /// String value.
    pub value: &'a str,
    /// Per-attribute quality (only when not hoisted into the head).
    pub quality: Option<f64>,
    /// Per-attribute age (only when not hoisted into the head).
    pub age_secs: Option<f64>,
}

impl<'a> AttrRef<'a> {
    /// A provider's `(name, value)` pair, annotations in the head.
    pub fn produced(name: &'a str, value: &'a str) -> Self {
        AttrRef {
            name,
            value,
            quality: None,
            age_secs: None,
        }
    }
}

/// The longest keyword a block names attributes relative to; under a
/// longer one every name is written whole, and a parser refuses a
/// relative one (see the [module docs](self)).
pub const RELATIVE_KEYWORD_MAX: usize = 64;

/// How a block writes attribute `name` of a record of `keyword`: the
/// name relative to the keyword (`Memory:total` and a provider's bare
/// `total` are both `total`), with `Some(keyword)` when the writer must
/// prefix it, with its format's separator, to the whole form. That is
/// when a parser would misread the relative name alone: one beginning
/// with `<keyword>-` or `<keyword>:` (the parser would strip it), one
/// an LDIF head line uses, or any under a keyword longer than
/// [`RELATIVE_KEYWORD_MAX`].
pub(super) fn written_name<'a>(keyword: &'a str, name: &'a str) -> (Option<&'a str>, &'a str) {
    let relative = relative_name(name, keyword, ':');
    let whole = keyword.len() > RELATIVE_KEYWORD_MAX
        || (relative.strip_prefix(keyword)).is_some_and(|r| r.starts_with(['-', ':']))
        || matches!(relative, "dn" | "objectclass")
        || relative.starts_with("infogram-");
    (whole.then_some(keyword), relative)
}

/// The part of a written name after the record's keyword: the name
/// itself, or what follows `<keyword><sep>` in the whole form.
pub(super) fn relative_name<'a>(written: &'a str, keyword: &str, sep: char) -> &'a str {
    (written.strip_prefix(keyword))
        .and_then(|rest| rest.strip_prefix(sep))
        .unwrap_or(written)
}

/// The record attribute a written name stands for: `total` and, in the
/// whole form, `Memory<sep>total` are both `Memory:total` in a record
/// of `Memory`. `None` for a relative name under a keyword longer than
/// [`RELATIVE_KEYWORD_MAX`], which no block writes.
pub(super) fn full_name(written: &str, keyword: &str, sep: char) -> Option<String> {
    let relative = relative_name(written, keyword, sep);
    let whole = relative.len() < written.len();
    (whole || keyword.len() <= RELATIVE_KEYWORD_MAX).then(|| [keyword, ":", relative].concat())
}

/// The value every attribute carries, when they all carry the same one.
fn uniform(attrs: &[Attribute], pick: impl Fn(&Attribute) -> Option<f64>) -> Option<f64> {
    let first = pick(attrs.first()?)?;
    attrs
        .iter()
        .all(|a| pick(a) == Some(first))
        .then_some(first)
}

/// Assembles one reply body from heads and blocks, in one buffer.
#[derive(Debug)]
pub struct BodyWriter {
    out: String,
    format: OutputFormat,
    records: u32,
}

impl BodyWriter {
    /// Start a body in `format` with room for `capacity` bytes.
    pub fn new(format: OutputFormat, capacity: usize) -> Self {
        let mut out = String::with_capacity(capacity);
        match format {
            OutputFormat::Xml => out.push_str(xml::OPEN),
            OutputFormat::Ldif | OutputFormat::Plain => {}
        }
        BodyWriter {
            out,
            format,
            records: 0,
        }
    }

    /// Open a record. Exactly one block must follow.
    pub fn head(&mut self, head: &Head<'_>) {
        let first = self.records == 0;
        self.records += 1;
        match self.format {
            OutputFormat::Ldif => ldif::write_head(&mut self.out, head, first),
            OutputFormat::Xml => xml::write_head(&mut self.out, head),
            OutputFormat::Plain => plain::write_head(&mut self.out, head),
        }
    }

    /// Render the open record's attribute block, its names relative
    /// to `keyword`, and close the record.
    pub fn block<'a>(&mut self, keyword: &str, attrs: impl Iterator<Item = AttrRef<'a>>) {
        write_block(&mut self.out, self.format, keyword, attrs);
    }

    /// Close the open record with a block rendered earlier by
    /// [`write_block`] in this body's format.
    pub fn push_block(&mut self, block: &str) {
        self.out.push_str(block);
    }

    /// A whole record: the head with whatever is uniform hoisted into
    /// it, then the block with whatever is not.
    pub fn record(&mut self, rec: &InfoRecord) {
        // Every wire format hoists; `plain` annotates each line.
        let hoists = self.format != OutputFormat::Plain;
        let quality = uniform(&rec.attributes, |a| a.quality).filter(|_| hoists);
        let age_secs = uniform(&rec.attributes, |a| a.age_secs).filter(|_| hoists);
        self.head(&Head {
            keyword: &rec.keyword,
            host: &rec.host,
            degraded: rec.degraded,
            stale_age_secs: rec.stale_age_secs,
            quality,
            age_secs,
        });
        self.block(
            &rec.keyword,
            rec.attributes.iter().map(|a| AttrRef {
                name: &a.name,
                value: &a.value,
                quality: if quality.is_some() { None } else { a.quality },
                age_secs: if age_secs.is_some() { None } else { a.age_secs },
            }),
        );
    }

    /// Records opened so far.
    pub fn record_count(&self) -> u32 {
        self.records
    }

    /// Close the document.
    pub fn finish(mut self) -> String {
        match self.format {
            OutputFormat::Xml => self.out.push_str(xml::CLOSE),
            OutputFormat::Ldif | OutputFormat::Plain => {}
        }
        self.out
    }
}

/// Append the attribute block (and closing tag) of a record of
/// `keyword` to `out`.
pub fn write_block<'a>(
    out: &mut String,
    format: OutputFormat,
    keyword: &str,
    attrs: impl Iterator<Item = AttrRef<'a>>,
) {
    match format {
        OutputFormat::Ldif => ldif::write_block(out, keyword, attrs),
        OutputFormat::Xml => xml::write_block(out, keyword, attrs),
        OutputFormat::Plain => plain::write_block(out, keyword, attrs),
    }
}

/// Render records in the requested format.
pub fn render(records: &[InfoRecord], format: OutputFormat) -> String {
    // Names and values plus per-line framing; a guess that saves the
    // doubling reallocations, not a bound.
    let capacity = records
        .iter()
        .map(|r| {
            128 + r
                .attributes
                .iter()
                .map(|a| a.name.len() + a.value.len() + 40)
                .sum::<usize>()
        })
        .sum();
    let mut body = BodyWriter::new(format, capacity);
    for rec in records {
        body.record(rec);
    }
    body.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InfoRecord;

    fn sample() -> Vec<InfoRecord> {
        let mut m = InfoRecord::new("Memory", "node0.grid");
        m.push("total", "4294967296");
        m.push("free", "123456789");
        let mut c = InfoRecord::new("CPULoad", "node0.grid");
        c.push("load", "0.93").quality = Some(0.75);
        vec![m, c]
    }

    #[test]
    fn dispatcher_selects_format() {
        let records = sample();
        let ldif = render(&records, OutputFormat::Ldif);
        assert!(ldif.contains("dn:"));
        let xml = render(&records, OutputFormat::Xml);
        assert!(xml.starts_with("<infogram>"));
        let plain = render(&records, OutputFormat::Plain);
        assert!(plain.contains("Memory:total: 4294967296"));
    }

    #[test]
    fn all_formats_carry_all_attributes() {
        let records = sample();
        for fmt in [OutputFormat::Ldif, OutputFormat::Xml, OutputFormat::Plain] {
            let out = render(&records, fmt);
            assert!(out.contains("4294967296"), "{fmt}: missing value");
            assert!(out.contains("0.93"), "{fmt}: missing load");
        }
    }

    /// Uniform + degraded (stale-age ≠ age), mixed with a base64 value
    /// and a value that looks like a tag attribute, and an empty record.
    fn golden_records() -> Vec<InfoRecord> {
        let mut m = InfoRecord::new("Memory", "node0.grid");
        m.degraded = true;
        m.stale_age_secs = Some(31.25);
        for (n, v) in [("total", "4294967296"), ("free", "1073741824")] {
            let a = m.push(n, v);
            a.quality = Some(0.5);
            a.age_secs = Some(12.345);
        }
        let mut c = InfoRecord::new("CPULoad", "node0.grid");
        for (n, v, q) in [("load", "0.93", 0.75), ("note", " grüße <&> \"x\"", 0.5)] {
            let a = c.push(n, v);
            a.quality = Some(q);
            a.age_secs = Some(3.0);
        }
        c.push("bare", "age=\"9\"");
        vec![m, c, InfoRecord::new("Empty", "node0.grid")]
    }

    const GOLDEN_LDIF: &str = "\
dn: kw=Memory, hn=node0.grid, o=Grid
objectclass: InfoGramProvider
infogram-degraded: TRUE
infogram-stale-age: 31.250
infogram-quality: 0.5000
infogram-age: 12.345
total: 4294967296
free: 1073741824

dn: kw=CPULoad, hn=node0.grid, o=Grid
objectclass: InfoGramProvider
load: 0.93
load;quality: 0.7500
load;age: 3.000
note:: IGdyw7zDn2UgPCY+ICJ4Ig==
note;quality: 0.5000
note;age: 3.000
bare: age=\"9\"

dn: kw=Empty, hn=node0.grid, o=Grid
objectclass: InfoGramProvider
";

    const GOLDEN_XML: &str = r#"<infogram>
  <provider keyword="Memory" host="node0.grid" degraded="true" stale-age="31.250" quality="0.5000" age="12.345">
    <attribute name="total">4294967296</attribute>
    <attribute name="free">1073741824</attribute>
  </provider>
  <provider keyword="CPULoad" host="node0.grid">
    <attribute name="load" quality="0.7500" age="3.000">0.93</attribute>
    <attribute name="note" quality="0.5000" age="3.000"> grüße &lt;&amp;&gt; &quot;x&quot;</attribute>
    <attribute name="bare">age=&quot;9&quot;</attribute>
  </provider>
  <provider keyword="Empty" host="node0.grid">
  </provider>
</infogram>
"#;

    /// What the renderer before record-level annotations wrote for
    /// [`golden_records`] (captured from it, not reconstructed): quality
    /// and age on every attribute. Clients and GIIS members may hold
    /// such bodies; they must keep parsing to the same records.
    const OLD_LDIF: &str = "dn: kw=Memory, hn=node0.grid, o=Grid\nobjectclass: InfoGramProvider\ninfogram-degraded: TRUE\ninfogram-stale-age: 31.250\nMemory-total: 4294967296\nMemory-total;quality: 0.5000\nMemory-total;age: 12.345\nMemory-free: 1073741824\nMemory-free;quality: 0.5000\nMemory-free;age: 12.345\n\ndn: kw=CPULoad, hn=node0.grid, o=Grid\nobjectclass: InfoGramProvider\nCPULoad-load: 0.93\nCPULoad-load;quality: 0.7500\nCPULoad-load;age: 3.000\nCPULoad-note:: IGdyw7zDn2UgPCY+ICJ4Ig==\nCPULoad-note;quality: 0.5000\nCPULoad-note;age: 3.000\nCPULoad-bare: age=\"9\"\n\ndn: kw=Empty, hn=node0.grid, o=Grid\nobjectclass: InfoGramProvider\n";
    const OLD_XML: &str = "<infogram>\n  <provider keyword=\"Memory\" host=\"node0.grid\" degraded=\"true\" stale-age=\"31.250\">\n    <attribute name=\"Memory:total\" quality=\"0.5000\" age=\"12.345\">4294967296</attribute>\n    <attribute name=\"Memory:free\" quality=\"0.5000\" age=\"12.345\">1073741824</attribute>\n  </provider>\n  <provider keyword=\"CPULoad\" host=\"node0.grid\">\n    <attribute name=\"CPULoad:load\" quality=\"0.7500\" age=\"3.000\">0.93</attribute>\n    <attribute name=\"CPULoad:note\" quality=\"0.5000\" age=\"3.000\"> grüße &lt;&amp;&gt; &quot;x&quot;</attribute>\n    <attribute name=\"CPULoad:bare\">age=&quot;9&quot;</attribute>\n  </provider>\n  <provider keyword=\"Empty\" host=\"node0.grid\">\n  </provider>\n</infogram>\n";

    #[test]
    fn golden_bodies_are_byte_exact_and_roundtrip() {
        let records = golden_records();
        assert_eq!(ldif::render(&records), GOLDEN_LDIF);
        assert_eq!(xml::render(&records), GOLDEN_XML);
        assert_eq!(ldif::parse(GOLDEN_LDIF), records);
        assert_eq!(xml::parse(GOLDEN_XML), records);
    }

    #[test]
    fn bodies_from_the_per_attribute_renderer_still_parse_to_the_same_records() {
        let records = golden_records();
        assert_eq!(ldif::parse(OLD_LDIF), records);
        assert_eq!(xml::parse(OLD_XML), records);
    }

    #[test]
    fn a_keyword_past_the_limit_is_written_whole_and_read_back_exactly() {
        let keyword = "K".repeat(RELATIVE_KEYWORD_MAX + 1);
        let mut rec = InfoRecord::new(&keyword, "h");
        rec.push("a", "1");
        let one = std::slice::from_ref(&rec);
        let text = ldif::render(one);
        assert!(text.contains(&format!("\n{keyword}-a: 1\n")));
        assert_eq!(ldif::parse(&text), one);
        assert_eq!(xml::parse(&xml::render(one)), one);
        // A relative name under it is refused, not rebuilt from the keyword.
        let relative = text.replace(&format!("{keyword}-a"), "a");
        assert!(ldif::parse(&relative)[0].attributes.is_empty());
    }

    #[test]
    fn plain_keeps_per_attribute_annotations() {
        let out = render(&golden_records(), OutputFormat::Plain);
        assert!(out.starts_with(
            "# Memory @ node0.grid\nMemory:total: 4294967296  [quality=0.5000]  [age=12.345s]\n"
        ));
    }

    #[test]
    fn head_and_block_assemble_to_the_rendered_record() {
        // What the information service does with a provider's bare
        // `(name, value)` pairs and a cached block.
        let rec = &golden_records()[0];
        for format in [OutputFormat::Ldif, OutputFormat::Xml] {
            let pairs = [("total", "4294967296"), ("Memory:free", "1073741824")];
            let attrs = || pairs.iter().map(|(n, v)| AttrRef::produced(n, v));
            let mut block = String::new();
            write_block(&mut block, format, "Memory", attrs());
            let head = Head {
                keyword: "Memory",
                host: "node0.grid",
                degraded: true,
                stale_age_secs: Some(31.25),
                quality: Some(0.5),
                age_secs: Some(12.345),
            };
            let mut cached = BodyWriter::new(format, 0);
            cached.head(&head);
            cached.push_block(&block);
            let mut direct = BodyWriter::new(format, 0);
            direct.head(&head);
            direct.block("Memory", attrs());
            let expected = render(std::slice::from_ref(rec), format);
            assert_eq!(cached.record_count(), 1);
            assert_eq!(cached.finish(), expected, "{format}");
            assert_eq!(direct.finish(), expected, "{format}");
        }
    }
}
