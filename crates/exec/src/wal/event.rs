//! The text codec: every record kind, checkpoints included, as one
//! `\x1f`-separated payload. Nothing outside this file knows a tag or
//! an escape.

use super::fold::{AccountUsage, CheckpointState, NamePool, RecoveredJob, RecoveredState};
use infogram_proto::message::JobStateCode;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

const SEP: char = '\x1f';

/// First field of a checkpoint payload.
const CHECKPOINT_TAG: &str = "CKPT";

/// What follows the tag in a checkpoint payload; `None` for every other
/// record kind.
pub(super) fn checkpoint_body(payload: &str) -> Option<&str> {
    payload.strip_prefix(CHECKPOINT_TAG)?.strip_prefix(SEP)
}

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// The service (re)started with this epoch.
    ServiceStarted {
        /// Restart generation.
        epoch: u64,
    },
    /// A job was accepted.
    Submitted {
        /// Engine-local job id.
        job_id: u64,
        /// The full xRSL text — "the command used and arguments".
        rsl: String,
        /// The grid identity (DN string).
        owner: String,
        /// The mapped local account.
        account: String,
    },
    /// A job changed state.
    StateChanged {
        /// Which job.
        job_id: u64,
        /// The new state.
        state: JobStateCode,
    },
    /// An authenticated information query was served (§7: "logging of
    /// authenticated information queries to guide the use as part of
    /// intelligent scheduling services").
    InfoQueried {
        /// The grid identity (DN string).
        owner: String,
        /// The mapped local account.
        account: String,
        /// Comma-joined keywords served.
        keywords: String,
    },
    /// A job reached a terminal state.
    Finished {
        /// Which job.
        job_id: u64,
        /// Terminal state (Done/Failed/Canceled).
        state: JobStateCode,
        /// Exit code if the job ran to completion.
        exit_code: Option<i32>,
        /// Wall seconds consumed (for accounting).
        wall_seconds: f64,
    },
    /// A serialized snapshot of the folded job table + accounting; the
    /// paper's "check pointing". Recovery replays the newest checkpoint
    /// plus the tail after it.
    Checkpoint(Box<CheckpointState>),
}

fn state_str(s: JobStateCode) -> &'static str {
    match s {
        JobStateCode::Pending => "PENDING",
        JobStateCode::Active => "ACTIVE",
        JobStateCode::Suspended => "SUSPENDED",
        JobStateCode::Done => "DONE",
        JobStateCode::Failed => "FAILED",
        JobStateCode::Canceled => "CANCELED",
    }
}

fn parse_state(s: &str) -> Option<JobStateCode> {
    Some(match s {
        "PENDING" => JobStateCode::Pending,
        "ACTIVE" => JobStateCode::Active,
        "SUSPENDED" => JobStateCode::Suspended,
        "DONE" => JobStateCode::Done,
        "FAILED" => JobStateCode::Failed,
        "CANCELED" => JobStateCode::Canceled,
        _ => return None,
    })
}

/// A free-form field, written escaped so it can never collide with the
/// record separator or a line break: `%` → `%25`, `\x1f` → `%1F`, `\n` →
/// `%0A`, `\r` → `%0D`. Owner DNs, accounts, keywords and RSL text all
/// pass through this, so adversarial field content round-trips losslessly.
struct Esc<'a>(&'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(['%', SEP, '\n', '\r']) {
            f.write_str(&rest[..i])?;
            f.write_str(match rest.as_bytes()[i] {
                b'%' => "%25",
                b'\n' => "%0A",
                b'\r' => "%0D",
                _ => "%1F",
            })?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

/// Reverse [`Esc`]; `None` for strings the encoder could not have
/// produced (raw control characters, unknown `%` escapes) so corrupt
/// frames are rejected rather than silently mangled.
fn unesc(s: &str) -> Option<Cow<'_, str>> {
    if s.contains(['\n', '\r']) {
        return None;
    }
    if !s.contains('%') {
        return Some(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match (it.next()?, it.next()?) {
            ('2', '5') => out.push('%'),
            ('1', 'F') => out.push(SEP),
            ('0', 'A') => out.push('\n'),
            ('0', 'D') => out.push('\r'),
            _ => return None,
        }
    }
    Some(Cow::Owned(out))
}

impl WalEvent {
    /// Encode as one record payload (field-separated; free-form fields
    /// are escaped so separators and newlines in them round-trip).
    pub fn encode(&self) -> String {
        match self {
            WalEvent::ServiceStarted { epoch } => format!("START{SEP}{epoch}"),
            WalEvent::Submitted {
                job_id,
                rsl,
                owner,
                account,
            } => {
                format!(
                    "SUBMIT{SEP}{job_id}{SEP}{}{SEP}{}{SEP}{}",
                    Esc(owner),
                    Esc(account),
                    Esc(rsl)
                )
            }
            WalEvent::StateChanged { job_id, state } => {
                format!("STATE{SEP}{job_id}{SEP}{}", state_str(*state))
            }
            WalEvent::InfoQueried {
                owner,
                account,
                keywords,
            } => format!(
                "INFOQ{SEP}{}{SEP}{}{SEP}{}",
                Esc(owner),
                Esc(account),
                Esc(keywords)
            ),
            WalEvent::Finished {
                job_id,
                state,
                exit_code,
                wall_seconds,
            } => format!(
                "FINISH{SEP}{job_id}{SEP}{}{SEP}{}{SEP}{wall_seconds:.3}",
                state_str(*state),
                exit_code.map(|c| c.to_string()).unwrap_or_default()
            ),
            WalEvent::Checkpoint(ck) => ck.encode(),
        }
    }

    /// Decode one record payload; `None` for corrupt payloads (recovery
    /// skips them rather than refusing to start).
    pub fn decode(line: &str) -> Option<WalEvent> {
        // A checkpoint carries six fields per job: walked in place, never
        // collected.
        if let Some(body) = checkpoint_body(line) {
            return CheckpointState::decode(body).map(|ck| WalEvent::Checkpoint(Box::new(ck)));
        }
        let fields: Vec<&str> = line.split(SEP).collect();
        match fields.as_slice() {
            ["START", epoch] => Some(WalEvent::ServiceStarted {
                epoch: epoch.parse().ok()?,
            }),
            ["SUBMIT", job_id, owner, account, rsl] => Some(WalEvent::Submitted {
                job_id: job_id.parse().ok()?,
                rsl: unesc(rsl)?.into_owned(),
                owner: unesc(owner)?.into_owned(),
                account: unesc(account)?.into_owned(),
            }),
            ["STATE", job_id, state] => Some(WalEvent::StateChanged {
                job_id: job_id.parse().ok()?,
                state: parse_state(state)?,
            }),
            ["INFOQ", owner, account, keywords] => Some(WalEvent::InfoQueried {
                owner: unesc(owner)?.into_owned(),
                account: unesc(account)?.into_owned(),
                keywords: unesc(keywords)?.into_owned(),
            }),
            ["FINISH", job_id, state, exit, wall] => Some(WalEvent::Finished {
                job_id: job_id.parse().ok()?,
                state: parse_state(state)?,
                exit_code: if exit.is_empty() {
                    None
                } else {
                    Some(exit.parse().ok()?)
                },
                wall_seconds: wall.parse().ok()?,
            }),
            _ => None,
        }
    }
}

impl CheckpointState {
    /// The checkpoint as one record payload.
    pub(super) fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the record payload to `out` — straight into the caller's
    /// buffer, with no per-job temporaries.
    pub(super) fn encode_into(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{CHECKPOINT_TAG}{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
            self.state.last_epoch,
            self.state.last_job_id,
            self.state.jobs.len(),
            self.accounts.len()
        );
        for j in &self.state.jobs {
            let _ = write!(
                out,
                "{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}",
                j.job_id,
                Esc(&j.rsl),
                Esc(&j.owner),
                Esc(&j.account)
            );
            let _ = match j.finished {
                None => write!(out, "-{SEP}-"),
                Some((s, None)) => write!(out, "{}{SEP}-", state_str(s)),
                Some((s, Some(exit))) => write!(out, "{}{SEP}{exit}", state_str(s)),
            };
        }
        for (name, u) in &self.accounts {
            // `{}` (shortest round-trip) formatting so wall seconds
            // survive arbitrarily many checkpoint/recover cycles.
            let _ = write!(
                out,
                "{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
                Esc(name),
                u.submitted,
                u.completed,
                u.failed,
                u.wall_seconds,
                u.info_queries
            );
        }
    }

    /// Decode a [`checkpoint_body`].
    fn decode(body: &str) -> Option<CheckpointState> {
        let mut it = body.split(SEP);
        let last_epoch: u64 = it.next()?.parse().ok()?;
        let last_job_id: u64 = it.next()?.parse().ok()?;
        let njobs: usize = it.next()?.parse().ok()?;
        let naccounts: usize = it.next()?.parse().ok()?;
        // The counts come from the log: hold them against the payload's
        // own field count before allocating for them.
        let fields = 1 + body.bytes().filter(|&b| b == SEP as u8).count();
        let claimed = njobs
            .checked_add(naccounts)?
            .checked_mul(6)?
            .checked_add(4)?;
        if fields != claimed {
            return None;
        }
        let mut names = NamePool::default();
        let mut jobs = Vec::with_capacity(njobs);
        for _ in 0..njobs {
            let job_id: u64 = it.next()?.parse().ok()?;
            let rsl = Arc::from(unesc(it.next()?)?);
            let owner = names.intern(&unesc(it.next()?)?);
            let account = names.intern(&unesc(it.next()?)?);
            let finished = match (it.next()?, it.next()?) {
                ("-", _) => None,
                (state, "-") => Some((parse_state(state)?, None)),
                (state, exit) => Some((parse_state(state)?, Some(exit.parse().ok()?))),
            };
            jobs.push(RecoveredJob {
                job_id,
                rsl,
                owner,
                account,
                finished,
            });
        }
        let mut accounts = BTreeMap::new();
        for _ in 0..naccounts {
            let name = unesc(it.next()?)?.into_owned();
            accounts.insert(
                name,
                AccountUsage {
                    submitted: it.next()?.parse().ok()?,
                    completed: it.next()?.parse().ok()?,
                    failed: it.next()?.parse().ok()?,
                    wall_seconds: it.next()?.parse().ok()?,
                    info_queries: it.next()?.parse().ok()?,
                },
            );
        }
        Some(CheckpointState {
            state: RecoveredState {
                last_epoch,
                last_job_id,
                jobs,
            },
            accounts,
        })
    }
}

#[cfg(test)]
pub(super) mod fixtures {
    //! Histories the unit tests of several files share.

    use super::super::CheckpointState;
    use super::WalEvent;
    use infogram_proto::message::JobStateCode;

    pub fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::ServiceStarted { epoch: 1 },
            WalEvent::Submitted {
                job_id: 1,
                rsl: "&(executable=/bin/date)(arguments=-u)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            },
            WalEvent::StateChanged {
                job_id: 1,
                state: JobStateCode::Active,
            },
            WalEvent::Submitted {
                job_id: 2,
                rsl: "(executable=simwork 500)".to_string(),
                owner: "/O=Grid/CN=Bob".to_string(),
                account: "bob".to_string(),
            },
            WalEvent::Finished {
                job_id: 1,
                state: JobStateCode::Done,
                exit_code: Some(0),
                wall_seconds: 1.25,
            },
        ]
    }

    /// The fold whose checkpoint frame [`GOLDEN_CHECKPOINT_FRAME`] is:
    /// three jobs (failed, canceled with hostile fields, in flight) and
    /// two accounts.
    pub fn golden_fold() -> CheckpointState {
        CheckpointState::from_events(&[
            WalEvent::ServiceStarted { epoch: 3 },
            WalEvent::Submitted {
                job_id: 1,
                rsl: "&(executable=/bin/date)(arguments=-u)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            },
            WalEvent::Submitted {
                job_id: 2,
                rsl: "&(executable=/bin/echo)(arguments=a\x1fb\nc%25d)".to_string(),
                owner: "/O=Grid/CN=Eve\x1fMallory\r\n".to_string(),
                account: "eve%1F\x1f".to_string(),
            },
            WalEvent::Finished {
                job_id: 1,
                state: JobStateCode::Failed,
                exit_code: Some(-3),
                wall_seconds: 1.25,
            },
            WalEvent::Submitted {
                job_id: 3,
                rsl: "(executable=simwork)(arguments=500)".to_string(),
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
            },
            WalEvent::InfoQueried {
                owner: "/O=Grid/CN=Alice".to_string(),
                account: "alice".to_string(),
                keywords: "Memory,CPU".to_string(),
            },
            WalEvent::Finished {
                job_id: 2,
                state: JobStateCode::Canceled,
                exit_code: None,
                wall_seconds: 0.1,
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{golden_fold, sample_events};
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for ev in sample_events() {
            let line = ev.encode();
            assert!(!line.contains('\n'));
            assert_eq!(WalEvent::decode(&line), Some(ev));
        }
        // Finished with no exit code.
        let ev = WalEvent::Finished {
            job_id: 3,
            state: JobStateCode::Canceled,
            exit_code: None,
            wall_seconds: 0.5,
        };
        assert_eq!(WalEvent::decode(&ev.encode()), Some(ev));
        // Info query log entries.
        let ev = WalEvent::InfoQueried {
            owner: "/O=Grid/CN=Alice".to_string(),
            account: "alice".to_string(),
            keywords: "Memory,CPU".to_string(),
        };
        assert_eq!(WalEvent::decode(&ev.encode()), Some(ev));
    }

    #[test]
    fn hostile_fields_roundtrip() {
        // Separators, newlines, and the escape character itself in every
        // free-form field must survive encode/decode losslessly.
        let ev = WalEvent::Submitted {
            job_id: 7,
            rsl: "&(executable=/bin/echo)(arguments=a\x1fb\nc%25d)".to_string(),
            owner: "/O=Grid/CN=Eve\x1fMallory\r\n".to_string(),
            account: "eve%1F\x1f".to_string(),
        };
        let line = ev.encode();
        assert!(!line.contains('\n'));
        assert_eq!(
            line.matches(SEP).count(),
            4,
            "escaped fields leak separators"
        );
        assert_eq!(WalEvent::decode(&line), Some(ev));
        let ev = WalEvent::InfoQueried {
            owner: "a\x1fb".to_string(),
            account: "%".to_string(),
            keywords: "Memory,\nCPU".to_string(),
        };
        assert_eq!(WalEvent::decode(&ev.encode()), Some(ev));
    }

    #[test]
    fn decode_rejects_corrupt_lines() {
        assert_eq!(WalEvent::decode(""), None);
        assert_eq!(WalEvent::decode("NOISE"), None);
        assert_eq!(WalEvent::decode("STATE\x1fabc\x1fACTIVE"), None);
        assert_eq!(WalEvent::decode("STATE\x1f1\x1fDANCING"), None);
        // Raw newline / bad escape in an escaped field: the encoder never
        // produces these, so they are corruption.
        assert_eq!(WalEvent::decode("INFOQ\x1fa\nb\x1facct\x1fkw"), None);
        assert_eq!(WalEvent::decode("INFOQ\x1fa%ZZ\x1facct\x1fkw"), None);
        assert_eq!(WalEvent::decode("INFOQ\x1fa%2\x1facct\x1fkw"), None);
        // A checkpoint tag with nothing (or too little) behind it.
        assert_eq!(WalEvent::decode("CKPT"), None);
        assert_eq!(WalEvent::decode("CKPT\x1f"), None);
        assert_eq!(WalEvent::decode("CKPT\x1f1\x1f1\x1f1\x1f0"), None);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let fold = CheckpointState::from_events(&sample_events());
        let ev = WalEvent::Checkpoint(Box::new(fold.clone()));
        let decoded = WalEvent::decode(&ev.encode()).expect("checkpoint decodes");
        assert_eq!(decoded, ev);
        // Replaying [checkpoint] alone equals replaying the history.
        assert_eq!(
            RecoveredState::from_events(std::slice::from_ref(&decoded)),
            RecoveredState::from_events(&sample_events())
        );
        assert_eq!(
            CheckpointState::from_events(&[decoded]).accounts,
            CheckpointState::from_events(&sample_events()).accounts
        );
    }

    #[test]
    fn checkpoint_rows_share_their_identity_strings() {
        let WalEvent::Checkpoint(ck) =
            WalEvent::decode(&WalEvent::Checkpoint(Box::new(golden_fold())).encode()).unwrap()
        else {
            panic!("a checkpoint decodes to a checkpoint");
        };
        let jobs = &ck.state.jobs;
        assert!(Arc::ptr_eq(&jobs[0].owner, &jobs[2].owner));
        assert!(Arc::ptr_eq(&jobs[0].account, &jobs[2].account));
        // A clone copies the table, not the text.
        let copy = ck.clone();
        assert!(Arc::ptr_eq(&copy.state.jobs[1].rsl, &jobs[1].rsl));
    }
}

#[cfg(test)]
mod proptests {
    use super::super::frame::checkpoint_frame;
    use super::*;
    use proptest::prelude::*;

    /// Free-form field content, heavy on what [`Esc`] must escape.
    const HOSTILE: &str = "[a-z/=()&%1F0AD\x1f\\n\\r]{0,16}";

    fn arb_event() -> impl Strategy<Value = WalEvent> {
        let state = prop_oneof![
            Just(JobStateCode::Done),
            Just(JobStateCode::Failed),
            Just(JobStateCode::Canceled),
        ];
        prop_oneof![
            (1u64..12, HOSTILE, HOSTILE, HOSTILE).prop_map(|(job_id, rsl, owner, account)| {
                WalEvent::Submitted {
                    job_id,
                    rsl,
                    owner,
                    account,
                }
            }),
            (1u64..12, state, prop::option::of(-3i32..300), 0u32..100_000).prop_map(
                |(job_id, state, exit_code, millis)| WalEvent::Finished {
                    job_id,
                    state,
                    exit_code,
                    wall_seconds: millis as f64 / 1000.0,
                }
            ),
            (HOSTILE, HOSTILE, HOSTILE).prop_map(|(owner, account, keywords)| {
                WalEvent::InfoQueried {
                    owner,
                    account,
                    keywords,
                }
            }),
            (1u64..9).prop_map(|epoch| WalEvent::ServiceStarted { epoch }),
        ]
    }

    proptest! {
        /// A checkpoint's encoding is a fixed point: what decodes from
        /// it is the fold that was encoded, and encodes to the same bytes.
        #[test]
        fn checkpoint_encode_decode_encode_is_a_fixed_point(
            events in prop::collection::vec(arb_event(), 0..24)
        ) {
            let fold = CheckpointState::from_events(&events);
            let first = WalEvent::Checkpoint(Box::new(fold)).encode();
            let decoded = WalEvent::decode(&first);
            prop_assert!(decoded.is_some(), "does not decode: {first:?}");
            let decoded = decoded.unwrap();
            prop_assert_eq!(decoded.encode(), first.clone());
            let WalEvent::Checkpoint(ck) = decoded else {
                panic!("a checkpoint decodes to a checkpoint");
            };
            prop_assert_eq!(checkpoint_frame(&ck)[8..].to_vec(), first.into_bytes());
        }
    }
}
