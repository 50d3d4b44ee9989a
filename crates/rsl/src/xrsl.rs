//! xRSL: the typed view over a specification, including the InfoGram
//! extension tags.
//!
//! §6.6 of the paper adds to RSL the tags `schema`, `info`, `filter`,
//! `response`, `performance`, `quality`, and `format`, plus the planned
//! `timeout`/`action` extension. [`XrslRequest::from_spec`] extracts all of
//! them and the classic GRAM job attributes, and classifies the request.
//! From source text ([`XrslRequest::from_text`] and its siblings) RSL
//! variables are resolved first ([`crate::subst`]).

use crate::ast::{RelOp, Relation, Spec, Value};
use crate::parser::{parse, ParseError};
use crate::subst::substitute;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Only a job submission (`executable` present).
    Job,
    /// Only an information query (`info` present).
    Info,
    /// Both in one specification. The paper treats "job submissions and
    /// information queries alike", but a single request must still be one
    /// or the other; the service rejects `Both` with a protocol error.
    Both,
    /// Neither — an empty or purely administrative specification.
    Empty,
}

/// One `(info=...)` selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InfoSelector {
    /// `(info=all)` — every configured keyword.
    All,
    /// `(info=schema)` — service reflection: return the schema.
    Schema,
    /// `(info=Keyword)` — one key information provider.
    Keyword(String),
}

/// `(response=...)` cache behaviour (§6.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseMode {
    /// Execute the provider now, regardless of TTL; updates the cache.
    Immediate,
    /// Serve from cache if valid, else refresh first (the default).
    #[default]
    Cached,
    /// Serve whatever was stored last, without refreshing.
    Last,
}

impl ResponseMode {
    /// The `(response=...)` spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            ResponseMode::Immediate => "immediate",
            ResponseMode::Cached => "cached",
            ResponseMode::Last => "last",
        }
    }
}

/// `(format=...)` output rendering (§5.5, §6.6: "The supported formats are
/// LDIF and XML").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// LDAP Data Interchange Format — the MDS-compatible default.
    #[default]
    Ldif,
    /// XML elements.
    Xml,
    /// Plain `key: value` lines (our debugging addition).
    Plain,
}

impl OutputFormat {
    /// The `(format=...)` spelling.
    pub const fn as_str(self) -> &'static str {
        match self {
            OutputFormat::Ldif => "ldif",
            OutputFormat::Xml => "xml",
            OutputFormat::Plain => "plain",
        }
    }
}

impl fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `(action=...)` on timeout (§6.6 extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeoutAction {
    /// Cancel the command when the timeout fires (the default).
    #[default]
    Cancel,
    /// Throw an exception to the client but let the command continue.
    Exception,
}

/// Request-level `(action=...)` verbs that change what the submit *is*,
/// rather than what happens at a timeout: a persistent push
/// subscription, or the release of one. (`cancel`/`exception` keep
/// their §6.6 timeout meaning and leave this at
/// [`RequestAction::None`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestAction {
    /// An ordinary one-shot request.
    #[default]
    None,
    /// `(action=subscribe)`: register the `(info=...)` selectors as a
    /// persistent query; the service streams incremental updates until
    /// unsubscribe, disconnect, or slow-consumer eviction.
    Subscribe,
    /// `(action=unsubscribe)(subscription=N)`: end persistent query N.
    Unsubscribe,
}

/// How the job should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobType {
    /// Plain forked process (the GRAM default).
    #[default]
    Fork,
    /// Batch queue submission.
    Batch,
    /// A Java-jar-style sandboxed job (§7: "execute pure Java code
    /// submitted as Java jar files"). Inferred when the executable ends
    /// in `.jar`.
    Jarlet,
}

/// The job-submission half of a request: classic GRAM attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Path of the executable.
    pub executable: String,
    /// Command-line arguments.
    pub arguments: Vec<String>,
    /// Environment variables.
    pub environment: Vec<(String, String)>,
    /// Working directory.
    pub directory: Option<String>,
    /// Number of instances (GRAM `count`), default 1.
    pub count: u32,
    /// Maximum wall time (GRAM `maxtime`, minutes).
    pub max_time: Option<Duration>,
    /// Where stdout goes (a path on the service side).
    pub stdout: Option<String>,
    /// Where stderr goes.
    pub stderr: Option<String>,
    /// Execution mode.
    pub job_type: JobType,
    /// Batch queue name (`queue=`), for batch jobs.
    pub queue: Option<String>,
    /// Matchmaking requirements (`requirements=(k v)(k v)`).
    pub requirements: Vec<(String, String)>,
    /// If true, restart the job automatically on failure (§6.1:
    /// "a fault tolerance mechanism that allows to restart a job upon
    /// failure"). `(restartonfail=N)` gives the retry budget.
    pub restart_on_fail: u32,
    /// The xRSL `(timeout=...)` deadline, copied from the request level
    /// because for a job submission it governs the job.
    pub timeout: Option<Duration>,
    /// What happens at the timeout (§6.6 extensions).
    pub timeout_action: TimeoutAction,
}

/// A fully extracted xRSL request.
#[derive(Debug, Clone, PartialEq)]
pub struct XrslRequest {
    /// Job half, if `executable` was present.
    pub job: Option<JobRequest>,
    /// Information selectors, in source order.
    pub info: Vec<InfoSelector>,
    /// Cache behaviour.
    pub response: ResponseMode,
    /// Quality threshold in percent (0–100): attributes whose degradation
    /// fell below it are refreshed (§6.6).
    pub quality: Option<f64>,
    /// Whether to attach per-keyword timing statistics.
    pub performance: bool,
    /// Output rendering.
    pub format: OutputFormat,
    /// Attribute filter (e.g. `Memory:free`); `None` returns everything.
    pub filter: Option<String>,
    /// Command/job timeout.
    pub timeout: Option<Duration>,
    /// What to do when the timeout fires.
    pub timeout_action: TimeoutAction,
    /// Request-level verb: one-shot (default), subscribe, or
    /// unsubscribe.
    pub action: RequestAction,
    /// The subscription id named by `(subscription=N)` (unsubscribe
    /// only).
    pub subscription: Option<u64>,
}

/// The xRSL vocabulary, written once: each row is a tag's slot in
/// [`XrslRequest::from_spec`]'s pass over the relations and its attribute
/// name. [`KNOWN_TAGS`] is the names in slot order.
macro_rules! vocabulary {
    ($($slot:ident $name:literal)*) => {
        // Every tag has a slot; `rslsubstitution`'s is never read.
        #[allow(dead_code)]
        #[derive(Clone, Copy)]
        enum Tag {
            $($slot),*
        }

        /// Every attribute name [`XrslRequest::from_spec`] understands:
        /// the classic GRAM job attributes, the §6.6 extension tags, and
        /// `rslsubstitution` (consumed by [`crate::subst`] before
        /// extraction, but legal to leave in place).
        pub const KNOWN_TAGS: &[&str] = &[$($name),*];
    };
}

vocabulary! {
    // classic GRAM job attributes
    Executable "executable"
    Arguments "arguments"
    Environment "environment"
    Directory "directory"
    Count "count"
    MaxTime "maxtime"
    Stdout "stdout"
    Stderr "stderr"
    JobType "jobtype"
    Queue "queue"
    Requirements "requirements"
    RestartOnFail "restartonfail"
    // variable definitions (crate::subst)
    RslSubstitution "rslsubstitution"
    // §6.6 InfoGram extension tags
    Info "info"
    Response "response"
    Quality "quality"
    Performance "performance"
    Format "format"
    Filter "filter"
    Timeout "timeout"
    Action "action"
    Subscription "subscription"
}

/// An xRSL-level validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XrslError {
    /// The underlying RSL failed to parse.
    Parse(ParseError),
    /// A tag had an unusable value.
    BadTag {
        /// Tag name.
        tag: String,
        /// Offending value.
        value: String,
        /// Expectation.
        expected: String,
    },
    /// A tag name outside the xRSL vocabulary ([`KNOWN_TAGS`]) — most
    /// likely a typo; attribute matching is already case-insensitive, so
    /// `(Info=…)` is fine but `(inof=…)` is not.
    UnknownTag {
        /// The unrecognized attribute name (lowercased by the parser).
        tag: String,
    },
    /// A required structural property failed, or an RSL variable could
    /// not be resolved.
    Structure(String),
}

impl fmt::Display for XrslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XrslError::Parse(e) => write!(f, "{e}"),
            XrslError::BadTag {
                tag,
                value,
                expected,
            } => write!(f, "bad ({tag}={value}): expected {expected}"),
            XrslError::UnknownTag { tag } => write!(
                f,
                "unknown xRSL tag ({tag}=…); known tags: {}",
                KNOWN_TAGS.join(", ")
            ),
            XrslError::Structure(s) => write!(f, "xRSL structure error: {s}"),
        }
    }
}

impl std::error::Error for XrslError {}

impl From<ParseError> for XrslError {
    fn from(e: ParseError) -> Self {
        XrslError::Parse(e)
    }
}

fn bad(tag: Tag, value: &str, expected: &str) -> XrslError {
    XrslError::BadTag {
        tag: KNOWN_TAGS[tag as usize].to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    }
}

/// Flatten a relation's values to strings, descending one sequence level.
fn flat_strings(values: &[Value]) -> Vec<String> {
    let mut out = Vec::new();
    for v in values {
        match v {
            Value::Literal(s) => out.push(s.clone()),
            Value::Sequence(items) => {
                for i in items {
                    if let Some(s) = i.as_literal() {
                        out.push(s.to_string());
                    }
                }
            }
            other => out.push(other.to_string()),
        }
    }
    out
}

/// Extract `(k v)` pairs from a relation's sequence values.
fn kv_pairs(values: &[Value], tag: Tag) -> Result<Vec<(String, String)>, XrslError> {
    let mut out = Vec::new();
    for v in values {
        match v {
            Value::Sequence(kv) if kv.len() == 2 => {
                match (kv[0].as_literal(), kv[1].as_literal()) {
                    (Some(k), Some(val)) => out.push((k.to_string(), val.to_string())),
                    _ => return Err(bad(tag, &v.to_string(), "(name value) pair")),
                }
            }
            other => return Err(bad(tag, &other.to_string(), "(name value) pair")),
        }
    }
    Ok(out)
}

/// Source text to specification. RSL variables are resolved — against an
/// empty ambient environment, so `rslsubstitution` definitions are the
/// only bindings a request can use, and to no more than 64 KiB — when,
/// and only when, the text holds a `$`: a request without variables pays
/// one byte scan.
fn read(src: &str) -> Result<Spec, XrslError> {
    let spec = parse(src)?;
    if !src.contains('$') {
        return Ok(spec);
    }
    substitute(&spec, &HashMap::new()).map_err(|e| XrslError::Structure(e.to_string()))
}

/// The independent requests of a specification: the branches of a
/// top-level multi-request, else the specification itself.
fn branches(spec: &Spec) -> &[Spec] {
    match spec {
        Spec::Multi(parts) => parts,
        one => std::slice::from_ref(one),
    }
}

impl XrslRequest {
    /// Parse xRSL source into one request. Multi-requests (`+`) are
    /// rejected here; use [`XrslRequest::parse_all`] to expand them.
    pub fn from_text(src: &str) -> Result<XrslRequest, XrslError> {
        Self::from_spec(&read(src)?)
    }

    /// Parse xRSL source, expanding a top-level multi-request into one
    /// request per branch.
    pub fn parse_all(src: &str) -> Result<Vec<XrslRequest>, XrslError> {
        branches(&read(src)?).iter().map(Self::from_spec).collect()
    }

    /// Parse xRSL source that should hold exactly one request (a
    /// one-branch `+` is that branch). `Ok(None)` is a multi-request of
    /// several branches, every one of them well-formed.
    pub fn parse_one(src: &str) -> Result<Option<XrslRequest>, XrslError> {
        let spec = read(src)?;
        let mut requests = branches(&spec).iter().map(Self::from_spec);
        let first = requests.next().transpose()?;
        let others = requests.try_fold(0, |n, other| other.map(|_| n + 1))?;
        Ok(first.filter(|_| others == 0))
    }

    /// Extract a typed request from a parsed specification.
    pub fn from_spec(spec: &Spec) -> Result<XrslRequest, XrslError> {
        if matches!(spec, Spec::Multi(_)) {
            return Err(XrslError::Structure(
                "multi-request (+) must be expanded with parse_all".to_string(),
            ));
        }

        // The one pass over the relations: each tag is resolved once,
        // `info` selectors accumulate in source order, and of every
        // other tag the first relation wins.
        let mut first: [Option<&Relation>; KNOWN_TAGS.len()] = [None; KNOWN_TAGS.len()];
        let mut info = Vec::new();
        for rel in spec.relations() {
            // Reject tags outside the vocabulary: a typoed tag that was
            // silently ignored would change request semantics (the
            // paper's `(respones=last)` would quietly become `cached`).
            let Some(slot) = KNOWN_TAGS.iter().position(|t| *t == rel.attribute) else {
                return Err(XrslError::UnknownTag {
                    tag: rel.attribute.clone(),
                });
            };
            // A tag states a value. Read as `=`, `(executable!=/bin/rm)`
            // would run the one program it excludes.
            if rel.op != RelOp::Eq {
                return Err(XrslError::BadTag {
                    tag: rel.attribute.clone(),
                    value: rel.to_string(),
                    expected: "the = operator; an xRSL tag is not a comparison".to_string(),
                });
            }
            if slot != Tag::Info as usize {
                first[slot].get_or_insert(rel);
                continue;
            }
            let values = flat_strings(&rel.values);
            if values.is_empty() || values.iter().any(String::is_empty) {
                return Err(bad(Tag::Info, "", "all, schema, or a keyword"));
            }
            for v in values {
                info.push(if v.eq_ignore_ascii_case("all") {
                    InfoSelector::All
                } else if v.eq_ignore_ascii_case("schema") {
                    InfoSelector::Schema
                } else {
                    InfoSelector::Keyword(v)
                });
            }
        }

        let relation = |tag: Tag| first[tag as usize];
        let literal = |tag: Tag| relation(tag).and_then(Relation::single_literal);

        // ---- job half ----
        let job = match literal(Tag::Executable) {
            Some(executable) => {
                let executable = executable.to_string();
                let arguments = relation(Tag::Arguments)
                    .map(|r| flat_strings(&r.values))
                    .unwrap_or_default();
                let environment = match relation(Tag::Environment) {
                    Some(r) => kv_pairs(&r.values, Tag::Environment)?,
                    None => Vec::new(),
                };
                let requirements = match relation(Tag::Requirements) {
                    Some(r) => kv_pairs(&r.values, Tag::Requirements)?,
                    None => Vec::new(),
                };
                let count = match literal(Tag::Count) {
                    Some(c) => c
                        .parse::<u32>()
                        .ok()
                        .filter(|&c| c >= 1)
                        .ok_or_else(|| bad(Tag::Count, c, "a positive integer"))?,
                    None => 1,
                };
                let max_time = match literal(Tag::MaxTime) {
                    Some(m) => Some(Duration::from_secs(
                        60 * m
                            .parse::<u64>()
                            .map_err(|_| bad(Tag::MaxTime, m, "minutes as an integer"))?,
                    )),
                    None => None,
                };
                let explicit_type = match literal(Tag::JobType) {
                    Some("fork") => Some(JobType::Fork),
                    Some("batch") => Some(JobType::Batch),
                    Some("jarlet") | Some("jar") => Some(JobType::Jarlet),
                    Some(other) => {
                        return Err(bad(Tag::JobType, other, "fork, batch, or jarlet"));
                    }
                    None => None,
                };
                let job_type = explicit_type.unwrap_or({
                    if executable.ends_with(".jar") {
                        JobType::Jarlet
                    } else {
                        JobType::Fork
                    }
                });
                let restart_on_fail = match literal(Tag::RestartOnFail) {
                    Some(n) => n
                        .parse::<u32>()
                        .map_err(|_| bad(Tag::RestartOnFail, n, "a retry count"))?,
                    None => 0,
                };
                Some(JobRequest {
                    executable,
                    arguments,
                    environment,
                    directory: literal(Tag::Directory).map(str::to_string),
                    count,
                    max_time,
                    stdout: literal(Tag::Stdout).map(str::to_string),
                    stderr: literal(Tag::Stderr).map(str::to_string),
                    job_type,
                    queue: literal(Tag::Queue).map(str::to_string),
                    requirements,
                    restart_on_fail,
                    timeout: None, // patched below, after tag parsing
                    timeout_action: TimeoutAction::default(),
                })
            }
            None => None,
        };

        // ---- extension tags ----
        let response = match literal(Tag::Response) {
            Some("immediate") => ResponseMode::Immediate,
            Some("cached") => ResponseMode::Cached,
            Some("last") => ResponseMode::Last,
            Some(other) => return Err(bad(Tag::Response, other, "immediate, cached, or last")),
            None => ResponseMode::default(),
        };
        let format = match literal(Tag::Format) {
            Some("ldif") => OutputFormat::Ldif,
            Some("xml") => OutputFormat::Xml,
            Some("plain") => OutputFormat::Plain,
            Some(other) => return Err(bad(Tag::Format, other, "ldif, xml, or plain")),
            None => OutputFormat::default(),
        };
        let quality = match literal(Tag::Quality) {
            Some(q) => {
                let v: f64 = q
                    .parse()
                    .map_err(|_| bad(Tag::Quality, q, "a percentage 0-100"))?;
                if !(0.0..=100.0).contains(&v) {
                    return Err(bad(Tag::Quality, q, "a percentage 0-100"));
                }
                Some(v)
            }
            None => None,
        };
        let performance = match literal(Tag::Performance) {
            Some("true") | Some("yes") | Some("on") => true,
            Some("false") | Some("no") | Some("off") => false,
            Some(other) => return Err(bad(Tag::Performance, other, "true or false")),
            None => false,
        };
        let timeout = match literal(Tag::Timeout) {
            Some(t) => {
                Some(Duration::from_millis(t.parse::<u64>().map_err(|_| {
                    bad(Tag::Timeout, t, "milliseconds as an integer")
                })?))
            }
            None => None,
        };
        let mut action = RequestAction::None;
        let timeout_action = match literal(Tag::Action) {
            Some("cancel") => TimeoutAction::Cancel,
            Some("exception") => TimeoutAction::Exception,
            Some("subscribe") => {
                action = RequestAction::Subscribe;
                TimeoutAction::default()
            }
            Some("unsubscribe") => {
                action = RequestAction::Unsubscribe;
                TimeoutAction::default()
            }
            Some(other) => {
                return Err(bad(
                    Tag::Action,
                    other,
                    "cancel, exception, subscribe, or unsubscribe",
                ))
            }
            None => TimeoutAction::default(),
        };
        let subscription = match literal(Tag::Subscription) {
            Some(s) => Some(
                s.parse::<u64>()
                    .map_err(|_| bad(Tag::Subscription, s, "a subscription id"))?,
            ),
            None => None,
        };

        // ---- persistent-query structure rules ----
        match action {
            RequestAction::Subscribe => {
                if job.is_some() {
                    return Err(XrslError::Structure(
                        "(action=subscribe) registers a persistent query; it cannot carry a job \
                         half — submit the job separately"
                            .to_string(),
                    ));
                }
                if info.is_empty() {
                    return Err(XrslError::Structure(
                        "(action=subscribe) requires at least one (info=...) selector to watch"
                            .to_string(),
                    ));
                }
            }
            RequestAction::Unsubscribe => {
                if subscription.is_none() {
                    return Err(XrslError::Structure(
                        "(action=unsubscribe) requires (subscription=N) naming the persistent \
                         query to end"
                            .to_string(),
                    ));
                }
                if job.is_some() || !info.is_empty() {
                    return Err(XrslError::Structure(
                        "(action=unsubscribe) takes only (subscription=N); drop the job/info tags"
                            .to_string(),
                    ));
                }
            }
            RequestAction::None => {
                if subscription.is_some() {
                    return Err(XrslError::Structure(
                        "(subscription=N) is only meaningful with (action=unsubscribe)".to_string(),
                    ));
                }
            }
        }

        let mut job = job;
        if let Some(j) = job.as_mut() {
            j.timeout = timeout;
            j.timeout_action = timeout_action;
        }
        Ok(XrslRequest {
            job,
            info,
            response,
            quality,
            performance,
            format,
            filter: literal(Tag::Filter).map(str::to_string),
            timeout,
            timeout_action,
            action,
            subscription,
        })
    }

    /// Classify the request.
    pub fn kind(&self) -> RequestKind {
        match (self.job.is_some(), !self.info.is_empty()) {
            (true, true) => RequestKind::Both,
            (true, false) => RequestKind::Job,
            (false, true) => RequestKind::Info,
            (false, false) => RequestKind::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_job_request() {
        let r = XrslRequest::from_text("&(executable=/bin/date)(arguments=-u)(count=3)(maxtime=5)")
            .unwrap();
        assert_eq!(r.kind(), RequestKind::Job);
        let job = r.job.unwrap();
        assert_eq!(job.executable, "/bin/date");
        assert_eq!(job.arguments, vec!["-u"]);
        assert_eq!(job.count, 3);
        assert_eq!(job.max_time, Some(Duration::from_secs(300)));
        assert_eq!(job.job_type, JobType::Fork);
    }

    #[test]
    fn paper_info_query_concatenation() {
        // §6.6: "(info=memory)(info=cpu)"
        let r = XrslRequest::from_text("(info=memory)(info=cpu)").unwrap();
        assert_eq!(r.kind(), RequestKind::Info);
        assert_eq!(
            r.info,
            vec![
                InfoSelector::Keyword("memory".to_string()),
                InfoSelector::Keyword("cpu".to_string())
            ]
        );
    }

    #[test]
    fn info_all_and_schema() {
        let r = XrslRequest::from_text("(info=all)").unwrap();
        assert_eq!(r.info, vec![InfoSelector::All]);
        let r = XrslRequest::from_text("(info=schema)").unwrap();
        assert_eq!(r.info, vec![InfoSelector::Schema]);
    }

    #[test]
    fn response_modes() {
        for (src, want) in [
            ("(info=cpu)(response=immediate)", ResponseMode::Immediate),
            ("(info=cpu)(response=cached)", ResponseMode::Cached),
            ("(info=cpu)(response=last)", ResponseMode::Last),
            ("(info=cpu)", ResponseMode::Cached),
        ] {
            assert_eq!(XrslRequest::from_text(src).unwrap().response, want);
        }
        assert!(XrslRequest::from_text("(info=cpu)(response=sometimes)").is_err());
    }

    #[test]
    fn formats() {
        assert_eq!(
            XrslRequest::from_text("(info=cpu)(format=xml)")
                .unwrap()
                .format,
            OutputFormat::Xml
        );
        assert_eq!(
            XrslRequest::from_text("(info=cpu)").unwrap().format,
            OutputFormat::Ldif,
            "LDIF is the MDS-compatible default"
        );
        for unknown in ["asn1", "dsml"] {
            assert!(XrslRequest::from_text(&format!("(info=cpu)(format={unknown})")).is_err());
        }
    }

    #[test]
    fn quality_threshold() {
        let r = XrslRequest::from_text("(info=cpuload)(quality=75)").unwrap();
        assert_eq!(r.quality, Some(75.0));
        assert!(XrslRequest::from_text("(info=x)(quality=150)").is_err());
        assert!(XrslRequest::from_text("(info=x)(quality=-1)").is_err());
        assert!(XrslRequest::from_text("(info=x)(quality=high)").is_err());
    }

    #[test]
    fn performance_flag() {
        assert!(
            XrslRequest::from_text("(info=cpu)(performance=true)")
                .unwrap()
                .performance
        );
        assert!(!XrslRequest::from_text("(info=cpu)").unwrap().performance);
        assert!(XrslRequest::from_text("(info=cpu)(performance=maybe)").is_err());
    }

    #[test]
    fn paper_timeout_action_example() {
        // §6.6: (executable=command)(timeout=1000)(action=cancel)
        let r =
            XrslRequest::from_text("(executable=command)(timeout=1000)(action=cancel)").unwrap();
        assert_eq!(r.timeout, Some(Duration::from_millis(1000)));
        assert_eq!(r.timeout_action, TimeoutAction::Cancel);
        let r = XrslRequest::from_text("(executable=c)(timeout=500)(action=exception)").unwrap();
        assert_eq!(r.timeout_action, TimeoutAction::Exception);
    }

    #[test]
    fn jar_executable_is_jarlet() {
        // §7: (executable=myJavaApplication.jar)
        let r = XrslRequest::from_text("(executable=myJavaApplication.jar)").unwrap();
        assert_eq!(r.job.unwrap().job_type, JobType::Jarlet);
    }

    #[test]
    fn explicit_jobtype_overrides_inference() {
        let r = XrslRequest::from_text("&(executable=thing.jar)(jobtype=fork)").unwrap();
        assert_eq!(r.job.unwrap().job_type, JobType::Fork);
        assert!(XrslRequest::from_text("&(executable=x)(jobtype=warp)").is_err());
    }

    #[test]
    fn environment_pairs() {
        let r =
            XrslRequest::from_text("&(executable=x)(environment=(HOME /home/g)(LANG C))").unwrap();
        assert_eq!(
            r.job.unwrap().environment,
            vec![
                ("HOME".to_string(), "/home/g".to_string()),
                ("LANG".to_string(), "C".to_string())
            ]
        );
        assert!(XrslRequest::from_text("&(executable=x)(environment=flat)").is_err());
    }

    #[test]
    fn requirements_pairs() {
        let r = XrslRequest::from_text(
            "&(executable=x)(jobtype=batch)(requirements=(os linux)(arch x86))",
        )
        .unwrap();
        let job = r.job.unwrap();
        assert_eq!(job.job_type, JobType::Batch);
        assert_eq!(job.requirements.len(), 2);
    }

    #[test]
    fn both_kind_detected() {
        let r = XrslRequest::from_text("&(executable=/bin/ls)(info=cpu)").unwrap();
        assert_eq!(r.kind(), RequestKind::Both);
    }

    #[test]
    fn empty_kind() {
        let r = XrslRequest::from_text("(format=xml)").unwrap();
        assert_eq!(r.kind(), RequestKind::Empty);
    }

    #[test]
    fn subscribe_action_parses() {
        let r = XrslRequest::from_text("&(action=subscribe)(info=Memory)(info=cpu)").unwrap();
        assert_eq!(r.action, RequestAction::Subscribe);
        assert_eq!(r.kind(), RequestKind::Info);
        assert_eq!(r.info.len(), 2);
        assert_eq!(r.subscription, None);
        // The timeout pair still means timeouts, not subscriptions.
        let t = XrslRequest::from_text("(executable=c)(timeout=5)(action=cancel)").unwrap();
        assert_eq!(t.action, RequestAction::None);
    }

    #[test]
    fn unsubscribe_action_parses() {
        let r = XrslRequest::from_text("&(action=unsubscribe)(subscription=42)").unwrap();
        assert_eq!(r.action, RequestAction::Unsubscribe);
        assert_eq!(r.subscription, Some(42));
        assert!(matches!(
            XrslRequest::from_text("&(action=unsubscribe)(subscription=many)"),
            Err(XrslError::BadTag { ref tag, .. }) if tag == "subscription"
        ));
    }

    #[test]
    fn subscription_structure_rules() {
        // subscribe: no job half, at least one selector.
        assert!(matches!(
            XrslRequest::from_text("&(action=subscribe)(executable=/bin/date)(info=cpu)"),
            Err(XrslError::Structure(ref s)) if s.contains("job")
        ));
        assert!(matches!(
            XrslRequest::from_text("&(action=subscribe)"),
            Err(XrslError::Structure(ref s)) if s.contains("(info=")
        ));
        // unsubscribe: needs its id, takes nothing else.
        assert!(matches!(
            XrslRequest::from_text("&(action=unsubscribe)"),
            Err(XrslError::Structure(ref s)) if s.contains("subscription")
        ));
        assert!(XrslRequest::from_text("&(action=unsubscribe)(subscription=1)(info=cpu)").is_err());
        // A stray (subscription=N) on an ordinary request is a mistake.
        assert!(matches!(
            XrslRequest::from_text("&(info=cpu)(subscription=7)"),
            Err(XrslError::Structure(_))
        ));
    }

    #[test]
    fn multi_request_expansion() {
        let rs = XrslRequest::parse_all("+(&(executable=a))(&(info=cpu))").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].kind(), RequestKind::Job);
        assert_eq!(rs[1].kind(), RequestKind::Info);
        // from_spec on a Multi directly errors.
        let spec = crate::parser::parse("+(&(executable=a))").unwrap();
        assert!(matches!(
            XrslRequest::from_spec(&spec),
            Err(XrslError::Structure(_))
        ));
    }

    #[test]
    fn count_validation() {
        assert!(XrslRequest::from_text("&(executable=x)(count=0)").is_err());
        assert!(XrslRequest::from_text("&(executable=x)(count=-2)").is_err());
        assert!(XrslRequest::from_text("&(executable=x)(count=many)").is_err());
    }

    #[test]
    fn restart_on_fail() {
        let r = XrslRequest::from_text("&(executable=x)(restartonfail=3)").unwrap();
        assert_eq!(r.job.unwrap().restart_on_fail, 3);
    }

    #[test]
    fn filter_tag() {
        let r = XrslRequest::from_text("(info=memory)(filter=Memory:free)").unwrap();
        assert_eq!(r.filter.as_deref(), Some("Memory:free"));
    }

    // ---- error paths: every malformed request must yield a structured
    // XrslError, never a panic ----

    #[test]
    fn unknown_tag_rejected_with_name() {
        let err = XrslRequest::from_text("(inof=cpu)").unwrap_err();
        match err {
            XrslError::UnknownTag { ref tag } => assert_eq!(tag, "inof"),
            other => panic!("expected UnknownTag, got {other:?}"),
        }
        // The message names the offender and the vocabulary.
        let msg = err.to_string();
        assert!(msg.contains("inof"), "{msg}");
        assert!(msg.contains("info"), "{msg}");
    }

    #[test]
    fn typoed_response_tag_is_not_silently_defaulted() {
        // Before strict validation `(respones=last)` parsed fine and the
        // request quietly ran with the `cached` default.
        assert!(matches!(
            XrslRequest::from_text("(info=cpu)(respones=last)"),
            Err(XrslError::UnknownTag { .. })
        ));
    }

    #[test]
    fn unknown_tag_is_case_insensitive_like_known_ones() {
        assert!(XrslRequest::from_text("(Info=cpu)").is_ok());
        assert!(matches!(
            XrslRequest::from_text("(Inof=cpu)"),
            Err(XrslError::UnknownTag { .. })
        ));
    }

    #[test]
    fn malformed_info_values() {
        // `(info=)` does not even tokenize as a relation.
        assert!(XrslRequest::from_text("(info=)").is_err());
        // An empty quoted selector parses but is meaningless.
        assert!(matches!(
            XrslRequest::from_text("(info=\"\")"),
            Err(XrslError::BadTag { ref tag, .. }) if tag == "info"
        ));
    }

    #[test]
    fn bad_timeout_values() {
        for src in [
            "(info=cpu)(timeout=soon)",
            "(info=cpu)(timeout=1.5)",
            "(info=cpu)(timeout=-100)",
        ] {
            assert!(
                matches!(
                    XrslRequest::from_text(src),
                    Err(XrslError::BadTag { ref tag, .. }) if tag == "timeout"
                ),
                "{src} should be a structured timeout error"
            );
        }
    }

    #[test]
    fn bad_format_and_action_values() {
        assert!(matches!(
            XrslRequest::from_text("(info=cpu)(format=pdf)"),
            Err(XrslError::BadTag { ref tag, .. }) if tag == "format"
        ));
        assert!(matches!(
            XrslRequest::from_text("(executable=c)(timeout=5)(action=retry)"),
            Err(XrslError::BadTag { ref tag, .. }) if tag == "action"
        ));
    }

    #[test]
    fn error_display_is_actionable() {
        let e = XrslRequest::from_text("(info=cpu)(format=pdf)").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("format") && msg.contains("pdf"), "{msg}");
        assert!(msg.contains("ldif"), "expected alternatives listed: {msg}");
    }

    #[test]
    fn multi_request_branch_errors_propagate() {
        // The second branch carries the unknown tag; parse_all must
        // surface it rather than return a partial expansion.
        assert!(matches!(
            XrslRequest::parse_all("+(&(executable=a))(&(inof=cpu))"),
            Err(XrslError::UnknownTag { .. })
        ));
    }

    /// The request every tag's default adds up to.
    fn plain() -> XrslRequest {
        XrslRequest {
            job: None,
            info: Vec::new(),
            response: ResponseMode::Cached,
            quality: None,
            performance: false,
            format: OutputFormat::Ldif,
            filter: None,
            timeout: None,
            timeout_action: TimeoutAction::Cancel,
            action: RequestAction::None,
            subscription: None,
        }
    }

    fn keywords(names: &[&str]) -> Vec<InfoSelector> {
        names
            .iter()
            .map(|k| InfoSelector::Keyword(k.to_string()))
            .collect()
    }

    enum Refusal {
        /// `BadTag` naming this tag.
        BadTag(&'static str),
        /// `UnknownTag` naming this tag.
        UnknownTag(&'static str),
        /// `Structure` whose message contains this.
        Structure(&'static str),
    }

    /// What the one pass over the relations must keep doing: each row is
    /// a source text and the request, or the refusal, it reads as.
    #[test]
    fn one_pass_extraction_table() {
        let job = |executable: &str| JobRequest {
            executable: executable.to_string(),
            arguments: Vec::new(),
            environment: Vec::new(),
            directory: None,
            count: 1,
            max_time: None,
            stdout: None,
            stderr: None,
            job_type: JobType::Fork,
            queue: None,
            requirements: Vec::new(),
            restart_on_fail: 0,
            timeout: None,
            timeout_action: TimeoutAction::Cancel,
        };
        // Each variable twice the one before it: forty ask for a terabyte.
        let doubling: String = (0..40)
            .map(|i| format!("(rslsubstitution=(V{} $(V{i}) # $(V{i})))", i + 1))
            .collect();
        let doubling = format!("(rslsubstitution=(V0 aaaaaaaa)){doubling}(info=$(V40))");
        let table = [
            // Of a duplicated single-valued tag the first relation wins.
            (
                "(info=cpu)(response=last)(response=immediate)",
                Ok(XrslRequest {
                    info: keywords(&["cpu"]),
                    response: ResponseMode::Last,
                    ..plain()
                }),
            ),
            // Job tags are read only beside an `executable`.
            (
                "(info=cpu)(count=abc)",
                Ok(XrslRequest {
                    info: keywords(&["cpu"]),
                    ..plain()
                }),
            ),
            ("&(executable=x)(count=abc)", Err(Refusal::BadTag("count"))),
            // Selectors: sequences flatten, empty is refused, `all` and
            // `schema` are case-insensitive.
            (
                "(info=(a b))(info=c)",
                Ok(XrslRequest {
                    info: keywords(&["a", "b", "c"]),
                    ..plain()
                }),
            ),
            ("(info=\"\")", Err(Refusal::BadTag("info"))),
            (
                "(info=ALL)(info=Schema)(info=Alle)",
                Ok(XrslRequest {
                    info: vec![
                        InfoSelector::All,
                        InfoSelector::Schema,
                        InfoSelector::Keyword("Alle".to_string()),
                    ],
                    ..plain()
                }),
            ),
            // Relations under a nested `&` are facts; under `|` they are
            // alternatives and are not read (nor checked).
            (
                "&(info=a)(&(info=b)(format=xml))",
                Ok(XrslRequest {
                    info: keywords(&["a", "b"]),
                    format: OutputFormat::Xml,
                    ..plain()
                }),
            ),
            (
                "&(info=a)(|(info=b)(format=xml)(inof=c))",
                Ok(XrslRequest {
                    info: keywords(&["a"]),
                    ..plain()
                }),
            ),
            (
                "(info=cpu)(format=xml)(inof=mem)",
                Err(Refusal::UnknownTag("inof")),
            ),
            // A tag states a value: any operator but `=` is refused, not
            // read as `=`.
            (
                "&(executable!=/bin/rm)(count<3)",
                Err(Refusal::BadTag("executable")),
            ),
            (
                "&(executable=/bin/rm)(count<3)",
                Err(Refusal::BadTag("count")),
            ),
            ("(info!=cpu)", Err(Refusal::BadTag("info"))),
            ("(info=cpu)(quality>=50)", Err(Refusal::BadTag("quality"))),
            // RSL variables are resolved when the text has any.
            (
                "&(rslsubstitution=(D /tmp))(executable=/bin/ls)(directory=$(D))(arguments=$(D) x)",
                Ok(XrslRequest {
                    job: Some(JobRequest {
                        directory: Some("/tmp".to_string()),
                        arguments: vec!["/tmp".to_string(), "x".to_string()],
                        ..job("/bin/ls")
                    }),
                    ..plain()
                }),
            ),
            (
                "(rslsubstitution=(K Mem))(info=$(K) # ory)",
                Ok(XrslRequest {
                    info: keywords(&["Memory"]),
                    ..plain()
                }),
            ),
            ("(info=$(K))", Err(Refusal::Structure("$(K)"))),
            ("(info=cpu)(filter=$(F))", Err(Refusal::Structure("$(F)"))),
            (
                "(rslsubstitution=K)(info=$(K))",
                Err(Refusal::Structure("rslsubstitution")),
            ),
            (doubling.as_str(), Err(Refusal::Structure("expand past"))),
            // A quoted `$` is text, and costs only the substitution pass.
            (
                "&(executable=echo)(arguments=\"$5\")",
                Ok(XrslRequest {
                    job: Some(JobRequest {
                        arguments: vec!["$5".to_string()],
                        ..job("echo")
                    }),
                    ..plain()
                }),
            ),
        ];
        for (src, want) in table {
            let got = XrslRequest::from_text(src);
            match (&got, &want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{src}"),
                (Err(XrslError::BadTag { tag, .. }), Err(Refusal::BadTag(want))) => {
                    assert_eq!(tag, want, "{src}")
                }
                (Err(XrslError::UnknownTag { tag }), Err(Refusal::UnknownTag(want))) => {
                    assert_eq!(tag, want, "{src}");
                    let msg = got.as_ref().unwrap_err().to_string();
                    assert!(msg.contains(want) && msg.contains(&KNOWN_TAGS.join(", ")));
                }
                (Err(XrslError::Structure(msg)), Err(Refusal::Structure(want))) => {
                    assert!(msg.contains(want), "{src}: {msg}")
                }
                _ => panic!("{src}: {got:?}"),
            }
            // The three entry points read a single request alike.
            assert_eq!(XrslRequest::parse_one(src), got.clone().map(Some), "{src}");
            assert_eq!(XrslRequest::parse_all(src), got.map(|r| vec![r]), "{src}");
        }
    }

    #[test]
    fn parse_one_counts_branches_after_checking_them() {
        let one = XrslRequest::parse_one("+(&(info=cpu))").unwrap();
        assert_eq!(one, Some(XrslRequest::from_text("(info=cpu)").unwrap()));
        assert_eq!(
            XrslRequest::parse_one("+(&(executable=a))(&(info=cpu))"),
            Ok(None)
        );
        assert!(matches!(
            XrslRequest::parse_one("+(&(executable=a))(&(inof=cpu))"),
            Err(XrslError::UnknownTag { .. })
        ));
    }

    /// Hostile input at this layer: every prefix and every single-bit
    /// flip of one text per vocabulary tag comes back as a `Result`.
    #[test]
    fn truncated_and_flipped_requests_never_panic() {
        let corpus = [
            "&(executable=/bin/app)(arguments=-l \"a b\" (c d))(count=2)(maxtime=5)",
            "&(executable=x.jar)(environment=(HOME /home/g)(LANG C))(directory=/tmp)",
            "&(executable=x)(stdout=/tmp/out)(stderr=/tmp/err)(jobtype=batch)(queue=lsf)",
            "&(executable=x)(requirements=(os linux)(arch x86))(restartonfail=3)",
            "&(rslsubstitution=(D /tmp)(E $(D) # /e))(executable=$(E))(timeout=10)(action=cancel)",
            "(info=Memory)(info=(cpu all))(response=immediate)(quality=75.5)(performance=true)",
            "(info=schema)(format=xml)(filter=Memory:free)",
            "+(&(action=subscribe)(info=cpu))(&(action=unsubscribe)(subscription=7))",
        ];
        for tag in KNOWN_TAGS {
            let needle = format!("({tag}=");
            assert!(
                corpus.iter().any(|c| c.contains(&needle)),
                "no text has {tag}"
            );
        }
        for text in corpus {
            XrslRequest::parse_all(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(text.is_ascii(), "every byte offset is a char boundary");
            for end in 0..text.len() {
                let _ = XrslRequest::parse_all(&text[..end]);
            }
            for pos in 0..text.len() {
                for bit in 0..8 {
                    let mut damaged = text.as_bytes().to_vec();
                    damaged[pos] ^= 1 << bit;
                    // The wire carries request text as UTF-8 or not at all.
                    if let Ok(damaged) = String::from_utf8(damaged) {
                        let _ = XrslRequest::parse_all(&damaged);
                        let _ = XrslRequest::parse_one(&damaged);
                    }
                }
            }
        }
    }

    #[test]
    fn rslsubstitution_is_legal_before_substitution() {
        // subst::expand consumes it, but from_spec on the raw spec must
        // not reject the definition tag.
        let r = XrslRequest::from_text("&(rslsubstitution=(HOME /home/g))(executable=/bin/true)")
            .unwrap();
        assert_eq!(r.kind(), RequestKind::Job);
    }
}
