//! RSL variable substitution.
//!
//! RSL specifications may define variables with the classic
//! `rslsubstitution` attribute and reference them as `$(NAME)`:
//!
//! ```text
//! &(rslsubstitution=(HOME /home/gregor))
//!  (directory=$(HOME) # /data)
//! ```
//!
//! [`substitute`] resolves every variable reference against an ambient
//! environment plus any `rslsubstitution` definitions (which take effect
//! for the remainder of the specification, in source order), flattens
//! fully-literal concatenations, and drops the definitional relations from
//! the output.
//!
//! Request text comes from the network, so what variables may expand to
//! is bounded: definitions that double (`(B $(A)#$(A))(C $(B)#$(B))…`)
//! ask for a terabyte in 600 bytes.

use crate::ast::{Relation, Spec, Value};
use std::collections::HashMap;
use std::fmt;

/// A substitution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstError {
    /// A `$(NAME)` had no binding.
    Undefined {
        /// The unbound variable name.
        name: String,
    },
    /// An `rslsubstitution` definition was not a `(NAME value)` pair.
    MalformedDefinition {
        /// Rendering of the malformed definition.
        found: String,
    },
    /// The references resolved to more than 64 KiB of variable text.
    TooLarge,
}

impl fmt::Display for SubstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstError::Undefined { name } => write!(f, "undefined RSL variable $({name})"),
            SubstError::MalformedDefinition { found } => {
                write!(f, "malformed rslsubstitution definition: {found}")
            }
            SubstError::TooLarge => write!(f, "RSL variables expand past {MAX_EXPANSION} bytes"),
        }
    }
}

impl std::error::Error for SubstError {}

/// Bytes of variable text one specification may expand to, each resolved
/// `$(NAME)` counted at its value's length; nothing else in the result is
/// longer than it was in the source.
const MAX_EXPANSION: usize = 64 * 1024;

/// The bindings in effect at one point of a specification.
struct Scope {
    vars: HashMap<String, String>,
    /// What each definition replaced, oldest first: a multi-request
    /// branch undoes its own (a copy of `vars` per branch is quadratic).
    replaced: Vec<(String, Option<String>)>,
    /// What is left of [`MAX_EXPANSION`].
    budget: usize,
}

/// Substitute variables throughout a specification.
///
/// `env` provides the ambient bindings (e.g. `HOME`, `GLOBUSRUN_GASS_URL`
/// in real Globus); `rslsubstitution` relations add to the scope as they
/// are encountered and are removed from the result.
pub fn substitute(spec: &Spec, env: &HashMap<String, String>) -> Result<Spec, SubstError> {
    let mut scope = Scope {
        vars: env.clone(),
        replaced: Vec::new(),
        budget: MAX_EXPANSION,
    };
    subst_spec(spec, &mut scope)
}

fn subst_spec(spec: &Spec, scope: &mut Scope) -> Result<Spec, SubstError> {
    match spec {
        Spec::Relation(r) => {
            if r.attribute == "rslsubstitution" {
                define(r, scope)?;
                // Definitional relation: replaced by an empty conjunction
                // marker; the caller strips it.
                Ok(Spec::Boolean {
                    op: crate::ast::BoolOp::And,
                    specs: vec![],
                })
            } else {
                Ok(Spec::Relation(Relation {
                    attribute: r.attribute.clone(),
                    op: r.op,
                    values: subst_values(&r.values, scope)?,
                }))
            }
        }
        Spec::Boolean { op, specs } => {
            let mut out = Vec::with_capacity(specs.len());
            for s in specs {
                let replaced = subst_spec(s, scope)?;
                // Strip empty conjunctions left by consumed definitions.
                if let Spec::Boolean { specs: inner, .. } = &replaced {
                    if inner.is_empty() {
                        continue;
                    }
                }
                out.push(replaced);
            }
            Ok(Spec::Boolean {
                op: *op,
                specs: out,
            })
        }
        Spec::Multi(specs) => {
            // Each multi-request branch starts from the scope around the
            // `+`, so definitions in one branch do not leak into siblings.
            let mut out = Vec::with_capacity(specs.len());
            for s in specs {
                let entered = scope.replaced.len();
                out.push(subst_spec(s, scope)?);
                for (name, old) in scope.replaced.drain(entered..).rev() {
                    match old {
                        Some(value) => scope.vars.insert(name, value),
                        None => scope.vars.remove(&name),
                    };
                }
            }
            Ok(Spec::Multi(out))
        }
    }
}

fn define(r: &Relation, scope: &mut Scope) -> Result<(), SubstError> {
    let malformed = |found: &Value| SubstError::MalformedDefinition {
        found: found.to_string(),
    };
    for v in &r.values {
        let Value::Sequence(kv) = v else {
            return Err(malformed(v));
        };
        let [Value::Literal(name), value] = kv.as_slice() else {
            return Err(malformed(v));
        };
        let resolved = match subst_value(value, scope)? {
            Value::Literal(s) => s,
            other => return Err(malformed(&other)),
        };
        let old = scope.vars.insert(name.clone(), resolved);
        scope.replaced.push((name.clone(), old));
    }
    Ok(())
}

fn subst_values(values: &[Value], scope: &mut Scope) -> Result<Vec<Value>, SubstError> {
    values.iter().map(|v| subst_value(v, scope)).collect()
}

fn subst_value(v: &Value, scope: &mut Scope) -> Result<Value, SubstError> {
    match v {
        Value::Literal(s) => Ok(Value::Literal(s.clone())),
        Value::Variable(name) => {
            let value = scope
                .vars
                .get(name)
                .ok_or_else(|| SubstError::Undefined { name: name.clone() })?;
            scope.budget = scope
                .budget
                .checked_sub(value.len())
                .ok_or(SubstError::TooLarge)?;
            Ok(Value::Literal(value.clone()))
        }
        Value::Sequence(items) => Ok(Value::Sequence(subst_values(items, scope)?)),
        Value::Concat(parts) => {
            let resolved = subst_values(parts, scope)?;
            // With variables resolved every part is normally a literal;
            // flatten the chain into one. A sequence inside a concat has
            // no string form, so such chains are kept structural.
            let literals: Option<Vec<&str>> = resolved.iter().map(Value::as_literal).collect();
            Ok(match literals {
                Some(parts) => Value::Literal(parts.concat()),
                None => Value::Concat(resolved),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn env(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn ambient_variable() {
        let spec = parse("(directory=$(HOME))").unwrap();
        let out = substitute(&spec, &env(&[("HOME", "/home/gregor")])).unwrap();
        assert_eq!(out.get_literal("directory"), Some("/home/gregor"));
    }

    #[test]
    fn concat_flattens() {
        let spec = parse("(directory=$(HOME) # /data # /sub)").unwrap();
        let out = substitute(&spec, &env(&[("HOME", "/h")])).unwrap();
        assert_eq!(out.get_literal("directory"), Some("/h/data/sub"));
    }

    #[test]
    fn rslsubstitution_defines_and_disappears() {
        let spec =
            parse("&(rslsubstitution=(BASE /opt/grid))(executable=$(BASE) # /bin/run)").unwrap();
        let out = substitute(&spec, &HashMap::new()).unwrap();
        assert_eq!(out.get_literal("executable"), Some("/opt/grid/bin/run"));
        assert!(out.get("rslsubstitution").is_none());
    }

    #[test]
    fn definition_may_reference_earlier_definitions() {
        let spec =
            parse("&(rslsubstitution=(A /a))(rslsubstitution=(B $(A) # /b))(directory=$(B))")
                .unwrap();
        let out = substitute(&spec, &HashMap::new()).unwrap();
        assert_eq!(out.get_literal("directory"), Some("/a/b"));
    }

    #[test]
    fn undefined_variable_errors() {
        let spec = parse("(directory=$(NOPE))").unwrap();
        match substitute(&spec, &HashMap::new()) {
            Err(SubstError::Undefined { name }) => assert_eq!(name, "NOPE"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_definition_errors() {
        for bad in [
            "(rslsubstitution=plain)",
            "(rslsubstitution=(ONLYNAME))",
            "(rslsubstitution=(A b c))",
        ] {
            let spec = parse(bad).unwrap();
            assert!(
                matches!(
                    substitute(&spec, &HashMap::new()),
                    Err(SubstError::MalformedDefinition { .. })
                ),
                "{bad} should be malformed"
            );
        }
    }

    #[test]
    fn multiple_definitions_in_one_relation() {
        let spec = parse("&(rslsubstitution=(A 1)(B 2))(x=$(A))(y=$(B))").unwrap();
        let out = substitute(&spec, &HashMap::new()).unwrap();
        assert_eq!(out.get_literal("x"), Some("1"));
        assert_eq!(out.get_literal("y"), Some("2"));
    }

    #[test]
    fn multi_request_scopes_isolated() {
        let spec =
            parse("+(&(rslsubstitution=(V one))(a=$(V)))(&(rslsubstitution=(V two))(a=$(V)))")
                .unwrap();
        let out = substitute(&spec, &HashMap::new()).unwrap();
        match out {
            Spec::Multi(parts) => {
                assert_eq!(parts[0].get_literal("a"), Some("one"));
                assert_eq!(parts[1].get_literal("a"), Some("two"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_branch_leaves_the_scope_as_it_found_it() {
        let spec = parse(
            "&(rslsubstitution=(V outer))\
             (+(&(rslsubstitution=(V inner)(W w))(a=$(V) # $(W)))(&(a=$(V))))\
             (b=$(V))",
        )
        .unwrap();
        let out = substitute(&spec, &HashMap::new()).unwrap();
        assert_eq!(out.to_string(), "&(+(&(a=innerw))(&(a=outer)))(b=outer)");
        // `W` went with the branch that defined it.
        let spec = parse("&(+(&(rslsubstitution=(W w))(a=$(W))))(b=$(W))").unwrap();
        assert_eq!(
            substitute(&spec, &HashMap::new()),
            Err(SubstError::Undefined {
                name: "W".to_string()
            })
        );
    }

    #[test]
    fn expansion_is_bounded() {
        // Each definition is twice the one before it: 64 of them ask for
        // 2^67 bytes from 2 KiB of source.
        let mut doubling = String::from("&(rslsubstitution=(V0 aaaaaaaa))");
        for i in 1..=64 {
            let prev = i - 1;
            doubling += &format!("(rslsubstitution=(V{i} $(V{prev}) # $(V{prev})))");
        }
        doubling += "(info=$(V64))";
        // The bound is on the sum, not on any one value.
        let kib = |uses: usize| {
            format!(
                "&(rslsubstitution=(V {}))(arguments={})",
                "a".repeat(1024),
                "$(V) ".repeat(uses)
            )
        };
        for src in [doubling, kib(MAX_EXPANSION / 1024 + 1)] {
            let spec = parse(&src).unwrap();
            assert_eq!(
                substitute(&spec, &HashMap::new()),
                Err(SubstError::TooLarge)
            );
        }
        let spec = parse(&kib(MAX_EXPANSION / 1024)).unwrap();
        assert!(substitute(&spec, &HashMap::new()).is_ok());
    }

    #[test]
    fn variables_inside_sequences() {
        let spec = parse("(environment=(HOME $(H)))").unwrap();
        let out = substitute(&spec, &env(&[("H", "/home/x")])).unwrap();
        let rel = out.get("environment").unwrap();
        match &rel.values[0] {
            Value::Sequence(kv) => assert_eq!(kv[1].as_literal(), Some("/home/x")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn untouched_spec_passes_through() {
        let spec = parse("&(executable=/bin/ls)(count=3)").unwrap();
        let out = substitute(&spec, &HashMap::new()).unwrap();
        assert_eq!(out.get_literal("executable"), Some("/bin/ls"));
        assert_eq!(out.get_literal("count"), Some("3"));
    }
}
