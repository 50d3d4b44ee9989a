//! The text codec: every record kind, checkpoints included, as one
//! `\x1f`-separated payload. Nothing outside this file knows a tag or
//! an escape.

use super::fold::{AccountUsage, CheckpointState, JobRows, NamePool, RecoveredJob, RecoveredState};
use infogram_proto::message::JobStateCode;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::BufRead;

const SEP: char = '\x1f';

/// First field of a checkpoint payload.
const CHECKPOINT_TAG: &str = "CKPT";

/// What follows the tag in a checkpoint payload; `None` for every other
/// record kind.
pub(super) fn checkpoint_body(payload: &str) -> Option<&str> {
    payload.strip_prefix(CHECKPOINT_TAG)?.strip_prefix(SEP)
}

/// Bytes of a payload's start that [`starts_checkpoint`] needs.
pub(super) const CHECKPOINT_PREFIX_LEN: usize = CHECKPOINT_TAG.len() + 1;

/// Whether a payload beginning with `prefix` is a checkpoint, judged by
/// its first [`CHECKPOINT_PREFIX_LEN`] bytes alone.
pub(super) fn starts_checkpoint(prefix: &[u8]) -> bool {
    prefix
        .strip_prefix(CHECKPOINT_TAG.as_bytes())
        .is_some_and(|rest| rest.first() == Some(&(SEP as u8)))
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
                format!("STATE{SEP}{job_id}{SEP}{state}")
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
                "FINISH{SEP}{job_id}{SEP}{state}{SEP}{}{SEP}{wall_seconds:.3}",
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
            return CheckpointState::decode(body.as_bytes())
                .map(|ck| WalEvent::Checkpoint(Box::new(ck)));
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
                state: JobStateCode::from_name(state)?,
            }),
            ["INFOQ", owner, account, keywords] => Some(WalEvent::InfoQueried {
                owner: unesc(owner)?.into_owned(),
                account: unesc(account)?.into_owned(),
                keywords: unesc(keywords)?.into_owned(),
            }),
            ["FINISH", job_id, state, exit, wall] => Some(WalEvent::Finished {
                job_id: job_id.parse().ok()?,
                state: JobStateCode::from_name(state)?,
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
        // Writing to a `String` cannot fail.
        let _ = self.encode_into(&mut out);
        out
    }

    /// Write the record payload to `out` — straight into the caller's
    /// writer, with no per-job temporaries.
    pub(super) fn encode_into(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "{CHECKPOINT_TAG}{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
            self.state.last_epoch,
            self.state.last_job_id,
            self.state.jobs.len(),
            self.accounts.len()
        )?;
        for j in self.state.jobs.iter() {
            write!(
                out,
                "{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}",
                j.job_id,
                Esc(j.rsl()),
                Esc(j.owner()),
                Esc(j.account())
            )?;
            match j.finished {
                None => write!(out, "-{SEP}-"),
                Some((s, None)) => write!(out, "{s}{SEP}-"),
                Some((s, Some(exit))) => write!(out, "{s}{SEP}{exit}"),
            }?;
        }
        for (name, u) in &self.accounts {
            // `{}` (shortest round-trip) formatting so wall seconds
            // survive arbitrarily many checkpoint/recover cycles.
            write!(
                out,
                "{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}{SEP}{}",
                Esc(name),
                u.submitted,
                u.completed,
                u.failed,
                u.wall_seconds,
                u.info_queries
            )?;
        }
        Ok(())
    }

    /// Decode a [`checkpoint_body`] field by field as `body` yields it —
    /// a `&str` payload, or a frame streaming off the disk — holding one
    /// field at a time. What is allocated is what the fields hold: each
    /// xRSL goes straight into its chunk's text buffer.
    pub(super) fn decode(body: impl BufRead) -> Option<CheckpointState> {
        let mut it = Fields {
            src: body,
            field: Vec::new(),
            last: false,
        };
        let last_epoch: u64 = it.next()?.parse().ok()?;
        let last_job_id: u64 = it.next()?.parse().ok()?;
        let njobs: usize = it.next()?.parse().ok()?;
        let naccounts: usize = it.next()?.parse().ok()?;
        let mut names = NamePool::default();
        let mut jobs = JobRows::default();
        let (mut rsl, mut owner) = (String::new(), String::new());
        for _ in 0..njobs {
            let job_id: u64 = it.next()?.parse().ok()?;
            rsl.clear();
            rsl.push_str(&unesc(it.next()?)?);
            owner.clear();
            owner.push_str(&unesc(it.next()?)?);
            let principal = names.intern(&owner, &unesc(it.next()?)?);
            let state = match it.next()? {
                "-" => None,
                state => Some(JobStateCode::from_name(state)?),
            };
            let finished = match (state, it.next()?) {
                (None, _) => None,
                (Some(state), "-") => Some((state, None)),
                (Some(state), exit) => Some((state, Some(exit.parse().ok()?))),
            };
            // A checkpoint written while rows sat in commit order loads
            // in id order.
            let row = RecoveredJob {
                job_id,
                principal,
                finished,
            };
            jobs.insert(row, &rsl);
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
        // Exactly the fields the counts claim: the last one ended the body.
        it.last.then_some(CheckpointState {
            state: RecoveredState {
                last_epoch,
                last_job_id,
                jobs,
            },
            accounts,
        })
    }
}

/// The `SEP`-separated fields of a checkpoint body, read from `src` one
/// at a time into one reused buffer.
struct Fields<R> {
    src: R,
    field: Vec<u8>,
    /// The field read last ended the body.
    last: bool,
}

impl<R: BufRead> Fields<R> {
    /// The next field; `None` past the last, for a field that is not
    /// UTF-8, and if `src` fails.
    fn next(&mut self) -> Option<&str> {
        if self.last {
            return None;
        }
        self.field.clear();
        self.src.read_until(SEP as u8, &mut self.field).ok()?;
        if self.field.last() == Some(&(SEP as u8)) {
            self.field.pop();
        } else {
            self.last = true;
        }
        std::str::from_utf8(&self.field).ok()
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
    use std::sync::Arc;

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
    fn checkpoint_rows_share_their_principal() {
        let WalEvent::Checkpoint(ck) =
            WalEvent::decode(&WalEvent::Checkpoint(Box::new(golden_fold())).encode()).unwrap()
        else {
            panic!("a checkpoint decodes to a checkpoint");
        };
        let job = |id| ck.state.jobs.find(id).unwrap();
        assert!(Arc::ptr_eq(&job(1).principal, &job(3).principal));
        assert!(!Arc::ptr_eq(&job(1).principal, &job(2).principal));
        assert_eq!(job(2).owner(), "/O=Grid/CN=Eve\x1fMallory\r\n");
        assert_eq!(job(2).account(), "eve%1F\x1f");
        // A clone copies no row: the text is where it was.
        let copy = ck.clone();
        assert!(std::ptr::eq(
            copy.state.jobs.find(2).unwrap().rsl(),
            job(2).rsl()
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::super::frame::CheckpointFrame;
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
            let mut frame = Vec::new();
            CheckpointFrame::measure(&ck).write_to(&mut frame).unwrap();
            prop_assert_eq!(frame[8..].to_vec(), first.into_bytes());
        }
    }
}
