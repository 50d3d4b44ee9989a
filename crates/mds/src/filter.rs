//! LDAP-style search filters (RFC 2254 subset).
//!
//! Supported: `(&...)`, `(|...)`, `(!...)`, `(attr=value)`,
//! `(attr=*)` presence, `(attr=sub*strings*)` substring matching, and the
//! ordering comparisons `(attr>=v)` / `(attr<=v)` (numeric when both
//! sides parse as numbers, lexicographic otherwise). Attribute names are
//! case-insensitive.

use std::fmt;

/// A parsed search filter.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// `(&(f1)(f2)...)` — all must match. Empty = always true.
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)` — any must match. Empty = always false.
    Or(Vec<Filter>),
    /// `(!(f))`.
    Not(Box<Filter>),
    /// `(attr=value)`.
    Equals(String, String),
    /// `(attr=*)`.
    Present(String),
    /// `(attr=a*b*c)` — ordered substring match with optional anchors.
    Substring(String, Vec<String>, bool, bool),
    /// `(attr>=value)`.
    GreaterEq(String, String),
    /// `(attr<=value)`.
    LessEq(String, String),
}

/// A filter parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterParseError {
    /// Explanation.
    pub reason: String,
}

impl fmt::Display for FilterParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "filter parse error: {}", self.reason)
    }
}

impl std::error::Error for FilterParseError {}

fn err(reason: &str) -> FilterParseError {
    FilterParseError {
        reason: reason.to_string(),
    }
}

impl Filter {
    /// Match-everything filter, the `(objectclass=*)` idiom.
    pub fn everything() -> Filter {
        Filter::Present("objectclass".to_string())
    }

    /// Parse a filter string.
    pub fn parse(s: &str) -> Result<Filter, FilterParseError> {
        let s = s.trim();
        let mut chars = s.char_indices().peekable();
        let filter = parse_filter(s, &mut chars, 0)?;
        if chars.next().is_some() {
            return Err(err("trailing characters after filter"));
        }
        Ok(filter)
    }

    /// Evaluate against a multi-valued attribute lookup: `get(attr)`
    /// returns all values of an attribute.
    pub fn matches(&self, get: &dyn Fn(&str) -> Vec<String>) -> bool {
        match self {
            Filter::And(fs) => fs.iter().all(|f| f.matches(get)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(get)),
            Filter::Not(f) => !f.matches(get),
            Filter::Present(attr) => !get(attr).is_empty(),
            Filter::Equals(attr, want) => get(attr).iter().any(|v| v == want),
            Filter::Substring(attr, parts, anchored_start, anchored_end) => get(attr)
                .iter()
                .any(|v| substring_match(v, parts, *anchored_start, *anchored_end)),
            Filter::GreaterEq(attr, want) => get(attr)
                .iter()
                .any(|v| compare(v, want) >= std::cmp::Ordering::Equal),
            Filter::LessEq(attr, want) => get(attr)
                .iter()
                .any(|v| compare(v, want) <= std::cmp::Ordering::Equal),
        }
    }
}

/// Numeric when both parse, else lexicographic.
fn compare(a: &str, b: &str) -> std::cmp::Ordering {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
        _ => a.cmp(b),
    }
}

fn substring_match(
    value: &str,
    parts: &[String],
    anchored_start: bool,
    anchored_end: bool,
) -> bool {
    let mut rest = value;
    for (i, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        match rest.find(part.as_str()) {
            Some(pos) => {
                if i == 0 && anchored_start && pos != 0 {
                    return false;
                }
                rest = &rest[pos + part.len()..];
            }
            None => return false,
        }
    }
    if anchored_end {
        if let Some(last) = parts.last().filter(|p| !p.is_empty()) {
            return value.ends_with(last.as_str()) && {
                // ensure the end-anchored part is the one we matched last
                true
            };
        }
    }
    true
}

type CharStream<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn expect(chars: &mut CharStream, want: char) -> Result<(), FilterParseError> {
    match chars.next() {
        Some((_, c)) if c == want => Ok(()),
        Some((_, c)) => Err(err(&format!("expected '{want}', found '{c}'"))),
        None => Err(err(&format!("expected '{want}', found end"))),
    }
}

/// Deepest `(&…)` / `(|…)` / `(!…)` nesting accepted. The parser
/// recurses once per level, so an unbounded `(!(!(!…` from the wire would
/// overflow the connection thread's stack and abort the process.
const MAX_NESTING: usize = 64;

/// One parenthesized filter, `depth` combinators below the top.
fn parse_filter(
    src: &str,
    chars: &mut CharStream,
    depth: usize,
) -> Result<Filter, FilterParseError> {
    if depth > MAX_NESTING {
        return Err(err(&format!("nesting deeper than {MAX_NESTING} levels")));
    }
    expect(chars, '(')?;
    let filter = match chars.peek().map(|&(_, c)| c) {
        Some('&') => {
            chars.next();
            Filter::And(parse_list(src, chars, depth + 1)?)
        }
        Some('|') => {
            chars.next();
            Filter::Or(parse_list(src, chars, depth + 1)?)
        }
        Some('!') => {
            chars.next();
            let inner = parse_filter(src, chars, depth + 1)?;
            Filter::Not(Box::new(inner))
        }
        Some(_) => parse_comparison(src, chars)?,
        None => return Err(err("unexpected end inside filter")),
    };
    expect(chars, ')')?;
    Ok(filter)
}

fn parse_list(
    src: &str,
    chars: &mut CharStream,
    depth: usize,
) -> Result<Vec<Filter>, FilterParseError> {
    let mut out = Vec::new();
    while matches!(chars.peek(), Some(&(_, '('))) {
        out.push(parse_filter(src, chars, depth)?);
    }
    Ok(out)
}

fn parse_comparison(src: &str, chars: &mut CharStream) -> Result<Filter, FilterParseError> {
    // attribute name up to =, >=, <=
    let start = chars.peek().map(|&(i, _)| i).ok_or_else(|| err("empty"))?;
    let mut attr_end = start;
    let mut op = None;
    while let Some(&(i, c)) = chars.peek() {
        match c {
            '=' => {
                chars.next();
                op = Some("=");
                attr_end = i;
                break;
            }
            '>' | '<' => {
                chars.next();
                expect(chars, '=')?;
                op = Some(if c == '>' { ">=" } else { "<=" });
                attr_end = i;
                break;
            }
            ')' | '(' => return Err(err("missing comparison operator")),
            _ => {
                chars.next();
            }
        }
    }
    let op = op.ok_or_else(|| err("missing comparison operator"))?;
    let attr = src[start..attr_end].trim().to_ascii_lowercase();
    if attr.is_empty() {
        return Err(err("empty attribute name"));
    }
    // value up to the closing paren
    let vstart = chars.peek().map(|&(i, _)| i).unwrap_or(src.len());
    let mut vend = vstart;
    while let Some(&(i, c)) = chars.peek() {
        if c == ')' {
            vend = i;
            break;
        }
        if c == '(' {
            return Err(err("'(' inside a value"));
        }
        chars.next();
        vend = i + c.len_utf8();
    }
    let value = &src[vstart..vend];
    Ok(match op {
        ">=" => Filter::GreaterEq(attr, value.to_string()),
        "<=" => Filter::LessEq(attr, value.to_string()),
        _ => {
            if value == "*" {
                Filter::Present(attr)
            } else if value.contains('*') {
                let anchored_start = !value.starts_with('*');
                let anchored_end = !value.ends_with('*');
                let parts: Vec<String> = value
                    .split('*')
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect();
                Filter::Substring(attr, parts, anchored_start, anchored_end)
            } else {
                Filter::Equals(attr, value.to_string())
            }
        }
    })
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::And(fs) => {
                write!(f, "(&")?;
                for x in fs {
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Filter::Or(fs) => {
                write!(f, "(|")?;
                for x in fs {
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Filter::Not(x) => write!(f, "(!{x})"),
            Filter::Equals(a, v) => write!(f, "({a}={v})"),
            Filter::Present(a) => write!(f, "({a}=*)"),
            Filter::Substring(a, parts, anchored_start, anchored_end) => {
                write!(f, "({a}=")?;
                if !anchored_start {
                    write!(f, "*")?;
                }
                write!(f, "{}", parts.join("*"))?;
                if !anchored_end {
                    write!(f, "*")?;
                }
                write!(f, ")")
            }
            Filter::GreaterEq(a, v) => write!(f, "({a}>={v})"),
            Filter::LessEq(a, v) => write!(f, "({a}<={v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn getter<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Vec<String> + 'a {
        move |attr: &str| {
            pairs
                .iter()
                .filter(|(k, _)| k.eq_ignore_ascii_case(attr))
                .map(|(_, v)| v.to_string())
                .collect()
        }
    }

    #[test]
    fn parse_and_eval_equals() {
        let f = Filter::parse("(cn=gregor)").unwrap();
        assert!(f.matches(&getter(&[("cn", "gregor")])));
        assert!(!f.matches(&getter(&[("cn", "ian")])));
        assert!(!f.matches(&getter(&[])));
    }

    #[test]
    fn presence() {
        let f = Filter::parse("(objectclass=*)").unwrap();
        assert_eq!(f, Filter::Present("objectclass".to_string()));
        assert!(f.matches(&getter(&[("objectclass", "top")])));
        assert!(!f.matches(&getter(&[("cn", "x")])));
    }

    #[test]
    fn boolean_combinations() {
        let f = Filter::parse("(&(a=1)(|(b=2)(b=3))(!(c=4)))").unwrap();
        assert!(f.matches(&getter(&[("a", "1"), ("b", "3")])));
        assert!(!f.matches(&getter(&[("a", "1"), ("b", "9")])));
        assert!(!f.matches(&getter(&[("a", "1"), ("b", "2"), ("c", "4")])));
    }

    #[test]
    fn numeric_comparisons() {
        let f = Filter::parse("(memory-free>=1000)").unwrap();
        assert!(f.matches(&getter(&[("memory-free", "2048")])));
        assert!(f.matches(&getter(&[("memory-free", "1000")])));
        assert!(!f.matches(&getter(&[("memory-free", "999")])));
        // "2048" numerically beats "999" even though lexicographically
        // smaller — numeric comparison kicks in.
        let f = Filter::parse("(x<=10)").unwrap();
        assert!(f.matches(&getter(&[("x", "9.5")])));
        assert!(!f.matches(&getter(&[("x", "10.1")])));
    }

    #[test]
    fn lexicographic_fallback() {
        let f = Filter::parse("(name>=m)").unwrap();
        assert!(f.matches(&getter(&[("name", "zeta")])));
        assert!(!f.matches(&getter(&[("name", "alpha")])));
    }

    #[test]
    fn substring_matching() {
        let f = Filter::parse("(host=node*grid*)").unwrap();
        assert!(f.matches(&getter(&[("host", "node07.grid.example.org")])));
        assert!(!f.matches(&getter(&[("host", "head.grid.example.org")])));
        let f = Filter::parse("(host=*example.org)").unwrap();
        assert!(f.matches(&getter(&[("host", "a.example.org")])));
        assert!(!f.matches(&getter(&[("host", "a.example.com")])));
    }

    #[test]
    fn multivalued_attributes() {
        let f = Filter::parse("(member=alice)").unwrap();
        assert!(f.matches(&getter(&[("member", "bob"), ("member", "alice")])));
    }

    #[test]
    fn attribute_names_case_insensitive() {
        let f = Filter::parse("(CN=x)").unwrap();
        assert!(f.matches(&getter(&[("cn", "x")])));
    }

    #[test]
    fn empty_and_or_semantics() {
        assert!(Filter::And(vec![]).matches(&getter(&[])));
        assert!(!Filter::Or(vec![]).matches(&getter(&[])));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "", "cn=x", "(cn=x", "(cn)", "((a=b))", "(a=b)x", "(=v)", "(a=(b))",
        ] {
            assert!(Filter::parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}(a=b){}", "(!".repeat(n), ")".repeat(n));
        assert!(Filter::parse(&nested(MAX_NESTING)).is_ok());
        assert!(Filter::parse(&nested(MAX_NESTING + 1)).is_err());
        // Unbounded, this one overflowed the stack.
        assert!(Filter::parse(&"(&".repeat(100_000)).is_err());
    }

    #[test]
    fn display_parse_roundtrip() {
        for src in [
            "(cn=gregor)",
            "(objectclass=*)",
            "(&(a=1)(b=2))",
            "(|(a=1)(!(b=2)))",
            "(memory-free>=1000)",
            "(x<=5)",
            "(host=*grid*)",
            "(host=node*org)",
        ] {
            let f = Filter::parse(src).unwrap();
            let printed = f.to_string();
            assert_eq!(Filter::parse(&printed).unwrap(), f, "{src} → {printed}");
        }
    }
}
