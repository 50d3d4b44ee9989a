//! RSL abstract syntax tree and canonical printer.

use std::fmt;

/// A complete RSL specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// `&(...)(...)` or `|(...)(...)` — also produced for a bare
    /// top-level relation list, which RSL treats as a conjunction.
    Boolean {
        /// `&` or `|`.
        op: BoolOp,
        /// The operands, each a relation or nested spec.
        specs: Vec<Spec>,
    },
    /// A single `(attribute op value...)` relation.
    Relation(Relation),
    /// `+(...)(...)` — a multi-request of independent specifications.
    Multi(Vec<Spec>),
}

/// Boolean combinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// Conjunction (`&`).
    And,
    /// Disjunction (`|`).
    Or,
}

/// Relational operator between an attribute and its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// One `attribute op value...` relation. Attribute names are
/// case-insensitive in RSL; they are lowercased at parse time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Lowercased attribute name.
    pub attribute: String,
    /// Relational operator.
    pub op: RelOp,
    /// One or more values (RSL allows `(arguments=-l -a /tmp)`).
    pub values: Vec<Value>,
}

impl Relation {
    /// An equality relation with a single literal value.
    pub fn eq(attribute: &str, value: &str) -> Self {
        Relation {
            attribute: attribute.to_ascii_lowercase(),
            op: RelOp::Eq,
            values: vec![Value::literal(value)],
        }
    }

    /// The single literal value, if this relation has exactly one literal.
    pub fn single_literal(&self) -> Option<&str> {
        match self.values.as_slice() {
            [Value::Literal(s)] => Some(s),
            _ => None,
        }
    }
}

/// An RSL value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A string literal (quoted or bare in the source).
    Literal(String),
    /// A parenthesized sub-sequence: `(a b (c d))`.
    Sequence(Vec<Value>),
    /// A variable reference: `$(HOME)`.
    Variable(String),
    /// Concatenation with `#`: `$(HOME) # "/data"`.
    Concat(Vec<Value>),
}

impl Value {
    /// A literal value.
    pub fn literal(s: &str) -> Value {
        Value::Literal(s.to_string())
    }

    /// The literal text, if this is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Value::Literal(s) => Some(s),
            _ => None,
        }
    }
}

impl Spec {
    /// Iterate over all relations of a conjunctive specification in
    /// source order, descending through nested `&` specs. `|` and `+`
    /// branches are not descended into (their relations are alternatives,
    /// not facts).
    pub fn relations(&self) -> Vec<&Relation> {
        let mut out = Vec::new();
        self.collect_relations(&mut out);
        out
    }

    fn collect_relations<'a>(&'a self, out: &mut Vec<&'a Relation>) {
        match self {
            Spec::Relation(r) => out.push(r),
            Spec::Boolean {
                op: BoolOp::And,
                specs,
            } => {
                for s in specs {
                    s.collect_relations(out);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Canonical printing. `parse(print(spec)) == spec` is property-tested.
// ---------------------------------------------------------------------

/// Whether a literal can be printed bare, without quotes.
fn needs_quoting(s: &str) -> bool {
    s.is_empty()
        || s.chars().any(|c| {
            matches!(
                c,
                '(' | ')' | '&' | '|' | '+' | '=' | '<' | '>' | '!' | '#' | '$' | '"' | '\''
            ) || c.is_whitespace()
        })
}

fn fmt_literal(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if needs_quoting(s) {
        write!(f, "\"{}\"", s.replace('"', "\"\""))
    } else {
        write!(f, "{s}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Literal(s) => fmt_literal(s, f),
            Value::Sequence(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Variable(name) => write!(f, "$({name})"),
            Value::Concat(vs) => {
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " # ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}{}", self.attribute, self.op)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spec::Relation(r) => write!(f, "{r}"),
            Spec::Boolean { op, specs } => {
                write!(f, "{}", if *op == BoolOp::And { "&" } else { "|" })?;
                for s in specs {
                    match s {
                        Spec::Relation(r) => write!(f, "{r}")?,
                        other => write!(f, "({other})")?,
                    }
                }
                Ok(())
            }
            Spec::Multi(specs) => {
                write!(f, "+")?;
                for s in specs {
                    match s {
                        Spec::Relation(r) => write!(f, "{r}")?,
                        other => write!(f, "({other})")?,
                    }
                }
                Ok(())
            }
        }
    }
}

// Lookups by tag for this crate's tests. Each walks the whole
// specification, so nothing that serves a request has them:
// `crate::xrsl` reads the relations once.
#[cfg(test)]
impl Spec {
    /// First relation with the given (case-insensitive) attribute.
    pub fn get(&self, attribute: &str) -> Option<&Relation> {
        let want = attribute.to_ascii_lowercase();
        self.relations().into_iter().find(|r| r.attribute == want)
    }

    /// All relations with the given attribute, in order.
    pub fn get_all(&self, attribute: &str) -> Vec<&Relation> {
        let want = attribute.to_ascii_lowercase();
        self.relations()
            .into_iter()
            .filter(|r| r.attribute == want)
            .collect()
    }

    /// First single-literal value of the given attribute.
    pub fn get_literal(&self, attribute: &str) -> Option<&str> {
        self.get(attribute).and_then(|r| r.single_literal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_display() {
        let r = Relation::eq("executable", "/bin/date");
        assert_eq!(r.to_string(), "(executable=/bin/date)");
    }

    #[test]
    fn quoting_in_display() {
        let r = Relation::eq("arguments", "hello world");
        assert_eq!(r.to_string(), "(arguments=\"hello world\")");
        let r = Relation::eq("a", "has\"quote");
        assert_eq!(r.to_string(), "(a=\"has\"\"quote\")");
        let r = Relation::eq("a", "");
        assert_eq!(r.to_string(), "(a=\"\")");
    }

    #[test]
    fn spec_display_and() {
        let spec = Spec::Boolean {
            op: BoolOp::And,
            specs: vec![
                Spec::Relation(Relation::eq("executable", "/bin/ls")),
                Spec::Relation(Relation::eq("count", "2")),
            ],
        };
        assert_eq!(spec.to_string(), "&(executable=/bin/ls)(count=2)");
    }

    #[test]
    fn get_and_get_all() {
        let spec = Spec::Boolean {
            op: BoolOp::And,
            specs: vec![
                Spec::Relation(Relation::eq("info", "memory")),
                Spec::Relation(Relation::eq("info", "cpu")),
                Spec::Relation(Relation::eq("format", "xml")),
            ],
        };
        assert_eq!(spec.get_literal("format"), Some("xml"));
        assert_eq!(spec.get_all("info").len(), 2);
        assert_eq!(spec.get_literal("INFO"), Some("memory"));
        assert_eq!(spec.get("missing"), None);
    }

    #[test]
    fn or_branches_not_flattened() {
        let spec = Spec::Boolean {
            op: BoolOp::Or,
            specs: vec![
                Spec::Relation(Relation::eq("a", "1")),
                Spec::Relation(Relation::eq("b", "2")),
            ],
        };
        assert!(spec.relations().is_empty());
    }

    #[test]
    fn nested_and_flattened() {
        let inner = Spec::Boolean {
            op: BoolOp::And,
            specs: vec![Spec::Relation(Relation::eq("x", "1"))],
        };
        let spec = Spec::Boolean {
            op: BoolOp::And,
            specs: vec![inner, Spec::Relation(Relation::eq("y", "2"))],
        };
        assert_eq!(spec.relations().len(), 2);
    }

    #[test]
    fn variable_and_concat_display() {
        let v = Value::Concat(vec![
            Value::Variable("HOME".to_string()),
            Value::literal("/data"),
        ]);
        assert_eq!(v.to_string(), "$(HOME) # /data");
    }

    #[test]
    fn sequence_display() {
        let v = Value::Sequence(vec![
            Value::literal("a"),
            Value::Sequence(vec![Value::literal("b"), Value::literal("c")]),
        ]);
        assert_eq!(v.to_string(), "(a (b c))");
    }
}
