//! Information records.
//!
//! One record is the output of one *key information provider* (§6.3): a
//! keyword plus its attributes, each namespaced `Keyword:attr` ("the
//! attribute total in the Memory information provider would be referred to
//! as Memory:total"), optionally annotated with a quality-of-information
//! value (§6.4) and its age.

use std::fmt;

/// One attribute of a record.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Namespaced name, e.g. `Memory:total`.
    pub name: String,
    /// String value.
    pub value: String,
    /// Quality of information in `[0, 1]`, if assessed (§6.4).
    pub quality: Option<f64>,
    /// Seconds since the value was produced, if known.
    pub age_secs: Option<f64>,
}

impl Attribute {
    /// A plain attribute with no annotations.
    pub fn new(name: &str, value: &str) -> Self {
        Attribute {
            name: name.to_string(),
            value: value.to_string(),
            quality: None,
            age_secs: None,
        }
    }
}

/// The output of one information provider.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InfoRecord {
    /// The keyword (provider name), e.g. `Memory`.
    pub keyword: String,
    /// Host the information describes.
    pub host: String,
    /// The attributes, in provider order.
    pub attributes: Vec<Attribute>,
    /// Whether this record is a *degraded* answer: the provider failed
    /// or was breaker-gated, and the last-known-good value was served
    /// instead. The per-attribute quality/age annotations carry the
    /// honest degradation; this flag tells the client the value is not
    /// fresh *because of a fault*, not merely TTL caching.
    pub degraded: bool,
    /// When degraded: seconds since the served value was produced (its
    /// true age, the input to the degradation function).
    pub stale_age_secs: Option<f64>,
}

impl InfoRecord {
    /// An empty record for a keyword on a host.
    pub fn new(keyword: &str, host: &str) -> Self {
        InfoRecord {
            keyword: keyword.to_string(),
            host: host.to_string(),
            attributes: Vec::new(),
            degraded: false,
            stale_age_secs: None,
        }
    }

    /// Append an attribute, namespacing its name with the keyword unless
    /// it already is (`total` → `Memory:total`; `Memory:free` passes
    /// through). A record's attributes all live in its keyword's
    /// namespace, for a reply body names them relative to it: a foreign
    /// `Disk:free` is `Memory:Disk:free` here, as in the body.
    #[expect(clippy::expect_used, reason = "last_mut on the element just pushed")]
    pub fn push(&mut self, name: &str, value: &str) -> &mut Attribute {
        let own = (name.strip_prefix(self.keyword.as_str())).is_some_and(|r| r.starts_with(':'));
        let full = if own {
            name.to_string()
        } else {
            format!("{}:{}", self.keyword, name)
        };
        self.attributes.push(Attribute::new(&full, value));
        self.attributes.last_mut().expect("just pushed")
    }

    /// Look up an attribute by full or bare name.
    pub fn get(&self, name: &str) -> Option<&Attribute> {
        let full = if name.contains(':') {
            name.to_string()
        } else {
            format!("{}:{}", self.keyword, name)
        };
        self.attributes.iter().find(|a| a.name == full)
    }

    /// Keep only attributes whose name matches `filter` — an exact
    /// namespaced name, a bare attribute name, or a `Keyword:*` prefix
    /// pattern (the xRSL `filter` tag).
    pub fn retain_matching(&mut self, filter: &str) {
        let keyword = self.keyword.clone();
        self.attributes.retain(|a| {
            if let Some(prefix) = filter.strip_suffix(":*") {
                a.name.starts_with(&format!("{prefix}:"))
            } else if filter.contains(':') {
                a.name == filter
            } else {
                a.name == format!("{keyword}:{filter}")
            }
        });
    }
}

impl fmt::Display for InfoRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{} @ {}]", self.keyword, self.host)?;
        for a in &self.attributes {
            write!(f, "  {} = {}", a.name, a.value)?;
            if let Some(q) = a.quality {
                write!(f, " (quality {q:.2})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespacing_on_push() {
        let mut r = InfoRecord::new("Memory", "node0");
        r.push("total", "4096");
        r.push("Memory:free", "1024");
        r.push("Disk:free", "1");
        assert_eq!(r.attributes[0].name, "Memory:total");
        assert_eq!(r.attributes[1].name, "Memory:free");
        assert_eq!(r.attributes[2].name, "Memory:Disk:free");
    }

    #[test]
    fn get_by_bare_or_full_name() {
        let mut r = InfoRecord::new("CPU", "node0");
        r.push("count", "4");
        assert_eq!(r.get("count").unwrap().value, "4");
        assert_eq!(r.get("CPU:count").unwrap().value, "4");
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn filter_exact_and_bare() {
        let mut r = InfoRecord::new("Memory", "n");
        r.push("total", "1");
        r.push("free", "2");
        let mut by_full = r.clone();
        by_full.retain_matching("Memory:free");
        assert_eq!(by_full.attributes.len(), 1);
        assert_eq!(by_full.attributes[0].value, "2");

        let mut by_bare = r.clone();
        by_bare.retain_matching("total");
        assert_eq!(by_bare.attributes.len(), 1);
        assert_eq!(by_bare.attributes[0].name, "Memory:total");
    }

    #[test]
    fn filter_prefix_pattern() {
        let mut r = InfoRecord::new("Memory", "n");
        r.push("total", "1");
        r.push("free", "2");
        r.retain_matching("Memory:*");
        assert_eq!(r.attributes.len(), 2);
        r.retain_matching("Disk:*");
        assert!(r.attributes.is_empty());
    }

    #[test]
    fn display_contains_values() {
        let mut r = InfoRecord::new("Date", "n0");
        r.push("value", "2002-07-24").quality = Some(1.0);
        let s = r.to_string();
        assert!(s.contains("Date:value = 2002-07-24"));
        assert!(s.contains("quality 1.00"));
    }
}
