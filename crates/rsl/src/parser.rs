//! Recursive-descent RSL parser.

use crate::ast::{BoolOp, RelOp, Relation, Spec, Value};
use crate::token::{lex, LexError, Token};
use std::fmt;
use std::iter::Peekable;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the failure.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RSL parse error: {}", self.reason)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            reason: e.to_string(),
        }
    }
}

/// Parse an RSL specification.
///
/// Top-level forms:
/// * `&(...)(...)` / `|(...)(...)` — explicit boolean;
/// * `+(...)(...)` — multi-request;
/// * `(...)(...)` — bare relation list, an implicit conjunction
///   (a single bare relation parses to [`Spec::Relation`]).
pub fn parse(src: &str) -> Result<Spec, ParseError> {
    let mut p = Parser {
        tokens: lex(src)?.into_iter().peekable(),
        depth: 0,
    };
    let spec = p.parse_top()?;
    if let Some(t) = p.next() {
        return Err(ParseError {
            reason: format!("trailing tokens starting at '{t}'"),
        });
    }
    Ok(spec)
}

/// Deepest `(` nesting accepted, groups and value sequences together.
/// The parser recurses once per level, so without a bound a request of
/// nothing but `(` overflows the connection thread's stack and aborts
/// the process; real specifications nest a handful of levels.
const MAX_NESTING: usize = 64;

struct Parser {
    tokens: Peekable<std::vec::IntoIter<Token>>,
    /// Open `(` count at the current token.
    depth: usize,
}

impl Parser {
    fn peek(&mut self) -> Option<&Token> {
        self.tokens.peek()
    }

    fn next(&mut self) -> Option<Token> {
        self.tokens.next()
    }

    /// Count a consumed `(` that opens a group or a value sequence.
    fn open(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(ParseError {
                reason: format!("nesting deeper than {MAX_NESTING} levels"),
            });
        }
        Ok(())
    }

    /// Consume the `)` that closes what [`Parser::open`] opened.
    fn close(&mut self) -> Result<(), ParseError> {
        self.depth -= 1;
        self.expect(&Token::RParen)
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(ParseError {
                reason: format!("expected '{want}', found '{t}'"),
            }),
            None => Err(ParseError {
                reason: format!("expected '{want}', found end of input"),
            }),
        }
    }

    fn parse_top(&mut self) -> Result<Spec, ParseError> {
        match self.peek() {
            Some(Token::Amp | Token::Pipe | Token::Plus | Token::LParen) => self.parse_inner(),
            Some(t) => Err(ParseError {
                reason: format!("specification cannot start with '{t}'"),
            }),
            None => Err(ParseError {
                reason: "empty specification".to_string(),
            }),
        }
    }

    /// One or more `'(' inner ')'` groups.
    fn parse_groups(&mut self) -> Result<Vec<Spec>, ParseError> {
        let mut out = Vec::new();
        while matches!(self.peek(), Some(Token::LParen)) {
            self.next();
            self.open()?;
            out.push(self.parse_inner()?);
            self.close()?;
        }
        if out.is_empty() {
            return Err(ParseError {
                reason: "expected at least one '(...)' group".to_string(),
            });
        }
        Ok(out)
    }

    /// The contents of a group — a nested boolean/multi, or a relation —
    /// and, relations apart, of a whole specification.
    fn parse_inner(&mut self) -> Result<Spec, ParseError> {
        match self.peek() {
            Some(Token::Amp) => {
                self.next();
                Ok(Spec::Boolean {
                    op: BoolOp::And,
                    specs: self.parse_groups()?,
                })
            }
            Some(Token::Pipe) => {
                self.next();
                Ok(Spec::Boolean {
                    op: BoolOp::Or,
                    specs: self.parse_groups()?,
                })
            }
            Some(Token::Plus) => {
                self.next();
                Ok(Spec::Multi(self.parse_groups()?))
            }
            // A parenthesized spec, `((a=1)(b=2))`, or at the top a bare
            // relation list: one group is itself, several an implicit
            // conjunction.
            Some(Token::LParen) => {
                let groups = self.parse_groups()?;
                let mut iter = groups.into_iter();
                match (iter.next(), iter.next()) {
                    (Some(only), None) => Ok(only),
                    (first, second) => Ok(Spec::Boolean {
                        op: BoolOp::And,
                        specs: first.into_iter().chain(second).chain(iter).collect(),
                    }),
                }
            }
            _ => self.parse_relation().map(Spec::Relation),
        }
    }

    fn parse_relation(&mut self) -> Result<Relation, ParseError> {
        let attribute = match self.next() {
            Some(Token::Str { mut text, .. }) => {
                text.make_ascii_lowercase();
                text
            }
            other => {
                return Err(ParseError {
                    reason: format!("expected attribute name, found {other:?}"),
                })
            }
        };
        let op = match self.next() {
            Some(Token::Eq) => RelOp::Eq,
            Some(Token::Ne) => RelOp::Ne,
            Some(Token::Lt) => RelOp::Lt,
            Some(Token::Le) => RelOp::Le,
            Some(Token::Gt) => RelOp::Gt,
            Some(Token::Ge) => RelOp::Ge,
            other => {
                return Err(ParseError {
                    reason: format!(
                        "expected relational operator after '{attribute}', found {other:?}"
                    ),
                })
            }
        };
        let mut values = Vec::new();
        while !matches!(self.peek(), Some(Token::RParen) | None) {
            values.push(self.parse_value()?);
        }
        if values.is_empty() {
            return Err(ParseError {
                reason: format!("relation '{attribute}' has no value"),
            });
        }
        Ok(Relation {
            attribute,
            op,
            values,
        })
    }

    /// `primary ('#' primary)*` — a concat chain.
    fn parse_value(&mut self) -> Result<Value, ParseError> {
        let first = self.parse_primary()?;
        if !matches!(self.peek(), Some(Token::Hash)) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while matches!(self.peek(), Some(Token::Hash)) {
            self.next();
            parts.push(self.parse_primary()?);
        }
        Ok(Value::Concat(parts))
    }

    fn parse_primary(&mut self) -> Result<Value, ParseError> {
        match self.next() {
            Some(Token::Str { text, .. }) => Ok(Value::Literal(text)),
            Some(Token::Dollar) => {
                self.expect(&Token::LParen)?;
                let name = match self.next() {
                    Some(Token::Str { text, .. }) => text,
                    other => {
                        return Err(ParseError {
                            reason: format!("expected variable name, found {other:?}"),
                        })
                    }
                };
                self.expect(&Token::RParen)?;
                Ok(Value::Variable(name))
            }
            Some(Token::LParen) => {
                self.open()?;
                let mut items = Vec::new();
                while !matches!(self.peek(), Some(Token::RParen) | None) {
                    items.push(self.parse_value()?);
                }
                self.close()?;
                Ok(Value::Sequence(items))
            }
            other => Err(ParseError {
                reason: format!("expected a value, found {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Spec {
        let spec = parse(src).unwrap();
        let printed = spec.to_string();
        let reparsed =
            parse(&printed).unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
        assert_eq!(
            reparsed, spec,
            "roundtrip mismatch for '{src}' → '{printed}'"
        );
        spec
    }

    #[test]
    fn parse_classic_job() {
        let spec = roundtrip("&(executable=/bin/date)(arguments=-u)(count=2)");
        assert_eq!(spec.get_literal("executable"), Some("/bin/date"));
        assert_eq!(spec.get_literal("arguments"), Some("-u"));
        assert_eq!(spec.get_literal("count"), Some("2"));
    }

    #[test]
    fn parse_bare_relation_list() {
        let spec = roundtrip("(info=memory)(info=cpu)");
        assert_eq!(spec.get_all("info").len(), 2);
    }

    #[test]
    fn parse_single_bare_relation() {
        let spec = roundtrip("(info=all)");
        assert!(matches!(spec, Spec::Relation(_)));
    }

    #[test]
    fn parse_paper_jar_submission() {
        // From §7: (executable=myJavaApplication.jar)
        let spec = roundtrip("(executable=myJavaApplication.jar)");
        assert_eq!(
            spec.get_literal("executable"),
            Some("myJavaApplication.jar")
        );
    }

    #[test]
    fn parse_paper_timeout_action() {
        // From §6.6: (executable=command)(timeout=1000)(action=cancel)
        let spec = roundtrip("(executable=command)(timeout=1000)(action=cancel)");
        assert_eq!(spec.get_literal("timeout"), Some("1000"));
        assert_eq!(spec.get_literal("action"), Some("cancel"));
    }

    #[test]
    fn parse_multi_request() {
        let spec = roundtrip("+(&(executable=a.out))(&(executable=b.out))");
        match spec {
            Spec::Multi(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0].get_literal("executable"), Some("a.out"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_disjunction() {
        let spec = roundtrip("|(count=1)(count=2)");
        match &spec {
            Spec::Boolean {
                op: BoolOp::Or,
                specs,
            } => assert_eq!(specs.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_nested_boolean() {
        let spec = roundtrip("&(executable=x)(|(arch=x86)(arch=sparc))");
        assert_eq!(spec.get_literal("executable"), Some("x"));
        // The disjunction is one operand of the And.
        match &spec {
            Spec::Boolean { specs, .. } => {
                assert!(matches!(specs[1], Spec::Boolean { op: BoolOp::Or, .. }))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_multiple_values() {
        let spec = roundtrip("(arguments=-l -a /tmp)");
        match &spec {
            Spec::Relation(r) => assert_eq!(r.values.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_environment_sequences() {
        let spec = roundtrip("&(executable=x)(environment=(HOME /home/g)(LANG C))");
        let env = spec.get("environment").unwrap();
        assert_eq!(env.values.len(), 2);
        match &env.values[0] {
            Value::Sequence(kv) => {
                assert_eq!(kv[0].as_literal(), Some("HOME"));
                assert_eq!(kv[1].as_literal(), Some("/home/g"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_variable_and_concat() {
        let spec = roundtrip("(directory=$(HOME) # /data)");
        match &spec {
            Spec::Relation(r) => match &r.values[0] {
                Value::Concat(parts) => {
                    assert_eq!(parts[0], Value::Variable("HOME".to_string()));
                    assert_eq!(parts[1].as_literal(), Some("/data"));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_comparison_operators() {
        let spec = roundtrip("&(memory>=64)(disk>1000)(priority<=5)");
        assert_eq!(spec.get("memory").unwrap().op, RelOp::Ge);
        assert_eq!(spec.get("disk").unwrap().op, RelOp::Gt);
        assert_eq!(spec.get("priority").unwrap().op, RelOp::Le);
    }

    #[test]
    fn parse_quoted_values() {
        let spec = roundtrip(r#"(arguments="hello world" "two  spaces")"#);
        match &spec {
            Spec::Relation(r) => {
                assert_eq!(r.values[0].as_literal(), Some("hello world"));
                assert_eq!(r.values[1].as_literal(), Some("two  spaces"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_names_lowercased() {
        let spec = parse("(EXECUTABLE=/bin/ls)").unwrap();
        assert_eq!(spec.get_literal("executable"), Some("/bin/ls"));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "()",
            "(a)",
            "(a=)",
            "(a=b",
            "a=b",
            "&",
            "&(a=b)x",
            "(=b)",
            "($(X)=y)",
            "(a=$(unclosed)",
        ] {
            assert!(parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn empty_sequence_value() {
        let spec = roundtrip("(arguments=())");
        match &spec {
            Spec::Relation(r) => assert_eq!(r.values[0], Value::Sequence(vec![])),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deeply_nested() {
        roundtrip("&(a=1)(&(b=2)(&(c=3)(|(d=4)(e=(f (g h))))))");
    }

    #[test]
    fn nesting_is_bounded() {
        let groups = |n: usize| format!("{}a=b{}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&groups(MAX_NESTING)).is_ok());
        assert!(parse(&groups(MAX_NESTING + 1)).is_err());
        // The relation's own `(` is the first level of a value sequence.
        let values = |n: usize| format!("(a={}x{})", "(".repeat(n), ")".repeat(n));
        assert!(parse(&values(MAX_NESTING - 1)).is_ok());
        assert!(parse(&values(MAX_NESTING)).is_err());
        // Unbounded, each of these overflowed the stack.
        for hostile in ["(".repeat(100_000), format!("(a={}", "(".repeat(100_000))] {
            let e = parse(&hostile).unwrap_err();
            assert!(e.reason.contains("nesting"), "{e}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A literal that may need quoting.
    fn arb_literal() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-z0-9/_.-]{1,12}",
            // Strings with specials that force quoting.
            "[ a-z=&|()#$\"']{0,10}",
        ]
    }

    fn arb_varname() -> impl Strategy<Value = String> {
        "[A-Z][A-Z0-9_]{0,8}".prop_map(|s| s)
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            arb_literal().prop_map(Value::Literal),
            arb_varname().prop_map(Value::Variable),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Sequence),
                // Concat chains: 2+ parts, no nested Concat (parser
                // normalizes chains to a flat Concat).
                prop::collection::vec(
                    prop_oneof![
                        arb_literal().prop_map(Value::Literal),
                        arb_varname().prop_map(Value::Variable),
                    ],
                    2..4
                )
                .prop_map(Value::Concat),
            ]
        })
    }

    fn arb_relation() -> impl Strategy<Value = Relation> {
        (
            "[a-z][a-z0-9_]{0,10}",
            prop_oneof![
                Just(RelOp::Eq),
                Just(RelOp::Ne),
                Just(RelOp::Lt),
                Just(RelOp::Le),
                Just(RelOp::Gt),
                Just(RelOp::Ge),
            ],
            prop::collection::vec(arb_value(), 1..4),
        )
            .prop_map(|(attribute, op, values)| Relation {
                attribute,
                op,
                values,
            })
    }

    fn arb_spec() -> impl Strategy<Value = Spec> {
        let leaf = arb_relation().prop_map(Spec::Relation);
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                (
                    prop_oneof![Just(BoolOp::And), Just(BoolOp::Or)],
                    prop::collection::vec(inner.clone(), 1..4)
                )
                    .prop_map(|(op, specs)| Spec::Boolean { op, specs }),
                prop::collection::vec(inner, 1..3).prop_map(Spec::Multi),
            ]
        })
    }

    proptest! {
        /// The fundamental parser property: printing then reparsing any
        /// AST yields the same AST.
        #[test]
        fn print_parse_roundtrip(spec in arb_spec()) {
            let printed = spec.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
            prop_assert_eq!(reparsed, spec);
        }

        /// Lexing never panics on arbitrary input.
        #[test]
        fn lex_never_panics(s in "\\PC{0,64}") {
            let _ = crate::token::lex(&s);
        }

        /// Parsing never panics on arbitrary input.
        #[test]
        fn parse_never_panics(s in "\\PC{0,64}") {
            let _ = parse(&s);
        }
    }
}
