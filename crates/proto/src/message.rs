//! Protocol messages and their binary encoding.
//!
//! The vocabulary is GRAMP-shaped (§2 of the paper): submit / status /
//! cancel / callback registration, plus asynchronous status events. The
//! unification trick of InfoGram is that *information queries are ordinary
//! submits* — the RSL inside carries `(info=...)` instead of
//! `(executable=...)`, and the reply is an [`Reply::InfoResult`] instead
//! of a job handle. One protocol, two behaviours.

use crate::handle::JobHandle;
use bytes::{BufMut, BytesMut};
use infogram_sim::varint;
use infogram_sim::wire::{ReadError, Reader};

/// Protocol version carried in every request and reply. 3: a job handle
/// is sent as its fields, not as its `x-infogram://` string.
pub const PROTOCOL_VERSION: u8 = 3;

/// GRAM-flavoured error codes.
pub mod codes {
    /// Malformed request or RSL.
    pub const BAD_RSL: u32 = 1;
    /// Authentication failed.
    pub const AUTHENTICATION: u32 = 7;
    /// Authorization (gridmap / contract) denied.
    pub const AUTHORIZATION: u32 = 8;
    /// No such job.
    pub const NO_SUCH_JOB: u32 = 12;
    /// Unknown information keyword.
    pub const NO_SUCH_KEYWORD: u32 = 31;
    /// The request combined job and info halves.
    pub const AMBIGUOUS_REQUEST: u32 = 33;
    /// Executable not found / backend failure.
    pub const EXECUTION_FAILED: u32 = 17;
    /// The job hit its `(timeout=...)` with `(action=exception)`.
    pub const TIMEOUT_EXCEPTION: u32 = 24;
    /// Internal service error.
    pub const INTERNAL: u32 = 99;
    /// The service does not serve this request type (e.g. info query to a
    /// plain GRAM).
    pub const UNSUPPORTED: u32 = 40;
    /// The service cannot serve the request right now but expects to
    /// recover: a keyword's fault-domain breaker is open with no
    /// last-known-good snapshot, or the job log (WAL) is degraded and the
    /// engine is read-only for submissions. The message carries a
    /// machine-readable `retry-after-ms=<n>` hint telling the client when
    /// the supervisor will admit another provider execution / when the
    /// WAL will probe its sink again.
    pub const UNAVAILABLE: u32 = 35;
    /// A push subscriber fell too far behind: its bounded outbox
    /// overflowed and the service evicted the subscription rather than
    /// buffer without bound. Carried in the final [`super::Reply::SubEnd`]
    /// frame of the evicted subscription.
    pub const SLOW_CONSUMER: u32 = 36;
}

/// Client → service messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit an xRSL specification — a job, an info query, or (in a
    /// multi-request) several. `credential` names the authenticated
    /// security context established at connect time.
    Submit {
        /// The xRSL text.
        rsl: String,
        /// Whether the client wants asynchronous [`Reply::Event`]s.
        callback: bool,
    },
    /// Poll a job's status.
    Status {
        /// The job contact handle.
        handle: JobHandle,
    },
    /// Cancel a job.
    Cancel {
        /// The job contact handle.
        handle: JobHandle,
    },
    /// Liveness probe.
    Ping,
}

/// Job lifecycle states on the wire (mirrors GRAM's job states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStateCode {
    /// Accepted, waiting for resources.
    Pending,
    /// Running.
    Active,
    /// Temporarily suspended.
    Suspended,
    /// Finished successfully.
    Done,
    /// Finished unsuccessfully.
    Failed,
    /// Cancelled by request.
    Canceled,
}

impl JobStateCode {
    /// Whether this is a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStateCode::Done | JobStateCode::Failed | JobStateCode::Canceled
        )
    }

    fn to_u8(self) -> u8 {
        match self {
            JobStateCode::Pending => 0,
            JobStateCode::Active => 1,
            JobStateCode::Suspended => 2,
            JobStateCode::Done => 3,
            JobStateCode::Failed => 4,
            JobStateCode::Canceled => 5,
        }
    }

    /// Parse the display name back into a state (`"DONE"` → `Done`).
    pub fn from_name(s: &str) -> Option<Self> {
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

    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => JobStateCode::Pending,
            1 => JobStateCode::Active,
            2 => JobStateCode::Suspended,
            3 => JobStateCode::Done,
            4 => JobStateCode::Failed,
            5 => JobStateCode::Canceled,
            _ => return None,
        })
    }
}

impl std::fmt::Display for JobStateCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobStateCode::Pending => "PENDING",
            JobStateCode::Active => "ACTIVE",
            JobStateCode::Suspended => "SUSPENDED",
            JobStateCode::Done => "DONE",
            JobStateCode::Failed => "FAILED",
            JobStateCode::Canceled => "CANCELED",
        };
        write!(f, "{s}")
    }
}

/// Service → client messages.
///
/// `PartialEq` only (not `Eq`): [`Reply::Update`] carries f64 quality
/// annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A job was accepted; here is its contact handle.
    JobAccepted {
        /// The contact handle (GlobusID).
        handle: JobHandle,
    },
    /// Current job status.
    JobStatus {
        /// Which job.
        handle: JobHandle,
        /// Its state.
        state: JobStateCode,
        /// Exit code, once terminal.
        exit_code: Option<i32>,
        /// Captured stdout, once terminal (truncated server-side).
        output: String,
    },
    /// An information query result: the rendered body.
    InfoResult {
        /// Rendered records (LDIF/XML/plain, per the request's format tag).
        body: String,
        /// Number of records in the body.
        record_count: u32,
    },
    /// Asynchronous job state change (callback delivery).
    Event {
        /// Which job.
        handle: JobHandle,
        /// New state.
        state: JobStateCode,
    },
    /// Something went wrong.
    Error {
        /// A [`codes`] value.
        code: u32,
        /// Human-readable explanation.
        message: String,
    },
    /// Liveness response.
    Pong,
    /// A `(action=subscribe)` submit was accepted: the persistent query
    /// is registered under `id` and will stream [`Reply::Update`]s.
    Subscribed {
        /// Server-assigned subscription id, scoped to the connection's
        /// security context.
        id: u64,
        /// Number of keywords the subscription covers.
        count: u32,
    },
    /// An asynchronous batch of record deltas for subscription `id`.
    Update {
        /// Which subscription this delivery belongs to.
        id: u64,
        /// The incremental updates (per-keyword versioned; see
        /// [`crate::delta::RecordDelta`]).
        deltas: Vec<crate::delta::RecordDelta>,
    },
    /// Subscription `id` ended. `code` 0 is a clean unsubscribe; a
    /// [`codes`] value (notably [`codes::SLOW_CONSUMER`]) explains a
    /// server-initiated eviction.
    SubEnd {
        /// Which subscription ended.
        id: u64,
        /// 0, or a [`codes`] value for an eviction.
        code: u32,
        /// Human-readable explanation.
        message: String,
    },
}

/// A message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.reason)
    }
}

impl std::error::Error for WireError {}

pub(crate) fn err(reason: &str) -> WireError {
    WireError {
        reason: reason.to_string(),
    }
}

impl From<ReadError> for WireError {
    fn from(e: ReadError) -> Self {
        err(&e.to_string())
    }
}

/// A reader past the version byte, if it is [`PROTOCOL_VERSION`].
fn open(bytes: &[u8]) -> Result<Reader<'_>, WireError> {
    let mut r = Reader::new(bytes);
    match r.u8("protocol version")? {
        PROTOCOL_VERSION => Ok(r),
        version => Err(err(&format!("unsupported protocol version {version}"))),
    }
}

/// Append `s` as a `u32` length and its UTF-8: how strings travel in
/// this protocol and in the MDS's.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// A string as [`put_str`] writes it, borrowed from the message.
pub fn read_str<'a>(r: &mut Reader<'a>, field: &'static str) -> Result<&'a str, ReadError> {
    let len = u32::from_be_bytes(r.array(field)?);
    r.str(len.into(), field)
}

fn put_varint(buf: &mut BytesMut, v: u64) {
    buf.put_slice(&varint::encode(v));
}

/// A handle crosses the wire as its fields: varint host length, host
/// bytes, big-endian `u16` port, varint job id, varint epoch — 15 bytes
/// for `127.0.0.1` and a job id of 128–16 383, where the
/// `x-infogram://…` string cost 35.
fn put_handle(buf: &mut BytesMut, h: &JobHandle) {
    put_varint(buf, h.host.len() as u64);
    buf.put_slice(h.host.as_bytes());
    buf.put_slice(&h.port.to_be_bytes());
    put_varint(buf, h.job_id);
    put_varint(buf, h.epoch);
}

fn read_handle(r: &mut Reader<'_>) -> Result<JobHandle, ReadError> {
    let len = r.varint()?;
    // Fields are read in the order written: a struct literal evaluates
    // its fields as they appear.
    Ok(JobHandle {
        host: r.str(len, "handle host")?.to_owned(),
        port: u16::from_be_bytes(r.array("handle port")?),
        job_id: r.varint()?,
        epoch: r.varint()?,
    })
}

fn read_state(r: &mut Reader<'_>) -> Result<JobStateCode, WireError> {
    JobStateCode::from_u8(r.u8("job state")?).ok_or_else(|| err("bad job state"))
}

impl Request {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(PROTOCOL_VERSION);
        match self {
            Request::Submit { rsl, callback } => {
                buf.put_u8(0);
                put_str(&mut buf, rsl);
                buf.put_u8(u8::from(*callback));
            }
            Request::Status { handle } => {
                buf.put_u8(1);
                put_handle(&mut buf, handle);
            }
            Request::Cancel { handle } => {
                buf.put_u8(2);
                put_handle(&mut buf, handle);
            }
            Request::Ping => buf.put_u8(3),
        }
        buf.to_vec()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut r = open(bytes)?;
        let req = match r.u8("request tag")? {
            0 => Request::Submit {
                rsl: read_str(&mut r, "rsl")?.to_owned(),
                callback: match r.u8("callback flag")? {
                    0 => false,
                    1 => true,
                    _ => return Err(err("bad callback flag")),
                },
            },
            1 => Request::Status {
                handle: read_handle(&mut r)?,
            },
            2 => Request::Cancel {
                handle: read_handle(&mut r)?,
            },
            3 => Request::Ping,
            other => return Err(err(&format!("unknown request tag {other}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Reply {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(PROTOCOL_VERSION);
        match self {
            Reply::JobAccepted { handle } => {
                buf.put_u8(0);
                put_handle(&mut buf, handle);
            }
            Reply::JobStatus {
                handle,
                state,
                exit_code,
                output,
            } => {
                buf.put_u8(1);
                put_handle(&mut buf, handle);
                buf.put_u8(state.to_u8());
                match exit_code {
                    Some(c) => {
                        buf.put_u8(1);
                        buf.put_i32(*c);
                    }
                    None => buf.put_u8(0),
                }
                put_str(&mut buf, output);
            }
            Reply::InfoResult { body, record_count } => {
                buf.put_u8(2);
                put_str(&mut buf, body);
                buf.put_u32(*record_count);
            }
            Reply::Event { handle, state } => {
                buf.put_u8(3);
                put_handle(&mut buf, handle);
                buf.put_u8(state.to_u8());
            }
            Reply::Error { code, message } => {
                buf.put_u8(4);
                buf.put_u32(*code);
                put_str(&mut buf, message);
            }
            Reply::Pong => buf.put_u8(5),
            Reply::Subscribed { id, count } => {
                buf.put_u8(6);
                buf.put_u64(*id);
                buf.put_u32(*count);
            }
            Reply::Update { id, deltas } => {
                buf.put_u8(7);
                buf.put_u64(*id);
                buf.put_slice(&crate::delta::encode_deltas(deltas));
            }
            Reply::SubEnd { id, code, message } => {
                buf.put_u8(8);
                buf.put_u64(*id);
                buf.put_u32(*code);
                put_str(&mut buf, message);
            }
        }
        buf.to_vec()
    }

    /// Decode from wire bytes.
    pub fn decode(bytes: &[u8]) -> Result<Reply, WireError> {
        let mut r = open(bytes)?;
        let reply = match r.u8("reply tag")? {
            0 => Reply::JobAccepted {
                handle: read_handle(&mut r)?,
            },
            1 => Reply::JobStatus {
                handle: read_handle(&mut r)?,
                state: read_state(&mut r)?,
                exit_code: match r.u8("exit-code flag")? {
                    0 => None,
                    1 => Some(i32::from_be_bytes(r.array("exit code")?)),
                    _ => return Err(err("bad exit-code flag")),
                },
                output: read_str(&mut r, "output")?.to_owned(),
            },
            2 => Reply::InfoResult {
                body: read_str(&mut r, "body")?.to_owned(),
                record_count: u32::from_be_bytes(r.array("record count")?),
            },
            3 => Reply::Event {
                handle: read_handle(&mut r)?,
                state: read_state(&mut r)?,
            },
            4 => Reply::Error {
                code: u32::from_be_bytes(r.array("error code")?),
                message: read_str(&mut r, "error message")?.to_owned(),
            },
            5 => Reply::Pong,
            6 => Reply::Subscribed {
                id: u64::from_be_bytes(r.array("subscription id")?),
                count: u32::from_be_bytes(r.array("keyword count")?),
            },
            7 => Reply::Update {
                id: u64::from_be_bytes(r.array("subscription id")?),
                deltas: crate::delta::read_deltas(&mut r)?,
            },
            8 => Reply::SubEnd {
                id: u64::from_be_bytes(r.array("subscription id")?),
                code: u32::from_be_bytes(r.array("end code")?),
                message: read_str(&mut r, "end message")?.to_owned(),
            },
            other => return Err(err(&format!("unknown reply tag {other}"))),
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Build a `Reply::Update` frame from a pre-encoded delta payload
/// (see [`crate::delta::encode_deltas`]).
///
/// A refresh fan-out delivers the *same* deltas to every subscriber of
/// a keyword, but each frame carries the receiver's own subscription
/// id. Encoding the payload once and stamping the id per subscriber
/// turns the per-subscriber cost into a memcpy — the difference between
/// O(N) and O(N·record-size-diffing) at 100k subscriptions.
pub fn update_frame(id: u64, delta_payload: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(10 + delta_payload.len());
    buf.put_u8(PROTOCOL_VERSION);
    buf.put_u8(7);
    buf.put_u64(id);
    buf.put_slice(delta_payload);
    buf.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle() -> JobHandle {
        JobHandle::new("gk.anl.gov", 2119, 17, 3)
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Submit {
                rsl: "&(executable=/bin/date)(arguments=-u)".to_string(),
                callback: true,
            },
            Request::Submit {
                rsl: "(info=memory)(info=cpu)".to_string(),
                callback: false,
            },
            Request::Status { handle: handle() },
            Request::Cancel { handle: handle() },
            Request::Ping,
        ];
        for r in reqs {
            let decoded = Request::decode(&r.encode()).unwrap();
            assert_eq!(decoded, r);
        }
    }

    #[test]
    fn reply_roundtrips() {
        let replies = [
            Reply::JobAccepted { handle: handle() },
            Reply::JobStatus {
                handle: handle(),
                state: JobStateCode::Active,
                exit_code: None,
                output: String::new(),
            },
            Reply::JobStatus {
                handle: handle(),
                state: JobStateCode::Done,
                exit_code: Some(0),
                output: "value: ok\n".to_string(),
            },
            Reply::InfoResult {
                body: "dn: kw=Memory\nMemory-total: 42\n".to_string(),
                record_count: 1,
            },
            Reply::Event {
                handle: handle(),
                state: JobStateCode::Failed,
            },
            Reply::Error {
                code: codes::AUTHORIZATION,
                message: "no gridmap entry".to_string(),
            },
            Reply::Pong,
            Reply::Subscribed { id: 7, count: 2 },
            Reply::SubEnd {
                id: 7,
                code: codes::SLOW_CONSUMER,
                message: "outbox overflow".to_string(),
            },
        ];
        for r in replies {
            let decoded = Reply::decode(&r.encode()).unwrap();
            assert_eq!(decoded, r);
        }
    }

    #[test]
    fn update_roundtrips() {
        let mut rec = crate::record::InfoRecord::new("Memory", "node0.grid");
        rec.push("total", "4096");
        let delta = crate::delta::RecordDelta::diff(None, &rec, 1);
        let r = Reply::Update {
            id: 42,
            deltas: vec![delta],
        };
        assert_eq!(Reply::decode(&r.encode()).unwrap(), r);
        // An empty batch is legal (version keep-alive).
        let empty = Reply::Update {
            id: 42,
            deltas: vec![],
        };
        assert_eq!(Reply::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn update_frame_matches_reply_encoding() {
        let mut rec = crate::record::InfoRecord::new("CPU", "node0.grid");
        rec.push("count", "8");
        let deltas = vec![crate::delta::RecordDelta::diff(None, &rec, 3)];
        let payload = crate::delta::encode_deltas(&deltas);
        for id in [0u64, 9, u64::MAX] {
            assert_eq!(
                update_frame(id, &payload),
                Reply::Update {
                    id,
                    deltas: deltas.clone()
                }
                .encode(),
                "the fast path and the structured encoder must agree"
            );
        }
    }

    #[test]
    fn state_name_roundtrip() {
        for state in [
            JobStateCode::Pending,
            JobStateCode::Active,
            JobStateCode::Suspended,
            JobStateCode::Done,
            JobStateCode::Failed,
            JobStateCode::Canceled,
        ] {
            assert_eq!(JobStateCode::from_name(&state.to_string()), Some(state));
        }
        assert_eq!(JobStateCode::from_name("DANCING"), None);
    }

    #[test]
    fn terminal_states() {
        assert!(JobStateCode::Done.is_terminal());
        assert!(JobStateCode::Failed.is_terminal());
        assert!(JobStateCode::Canceled.is_terminal());
        assert!(!JobStateCode::Pending.is_terminal());
        assert!(!JobStateCode::Active.is_terminal());
        assert!(!JobStateCode::Suspended.is_terminal());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[PROTOCOL_VERSION]).is_err());
        assert!(Request::decode(&[PROTOCOL_VERSION, 99]).is_err());
        assert!(Reply::decode(&[PROTOCOL_VERSION, 99]).is_err());
        // Wrong version.
        assert!(Request::decode(&[PROTOCOL_VERSION + 1, 3]).is_err());
        // Trailing bytes.
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // A callback flag is 0 or 1, as written.
        let mut bytes = Request::Submit {
            rsl: String::new(),
            callback: true,
        }
        .encode();
        *bytes.last_mut().unwrap() = 2;
        assert_eq!(
            Request::decode(&bytes).unwrap_err().reason,
            "bad callback flag"
        );
    }

    #[test]
    fn a_handle_is_its_fields_on_the_wire() {
        let status = Request::Status {
            handle: JobHandle::new("127.0.0.1", 2119, 1, 1),
        };
        let golden = [&[3, 1, 9][..], b"127.0.0.1", &[0x08, 0x47, 0x01, 0x01]].concat();
        assert_eq!(status.encode(), golden);
        assert_eq!(Request::decode(&golden).unwrap(), status);
        // A job id of 128..16 384, as in a long run: two varint bytes,
        // a 15-byte handle.
        let accepted = Reply::JobAccepted {
            handle: JobHandle::new("127.0.0.1", 40_123, 4242, 1),
        };
        let golden = [
            &[3, 0, 9][..],
            b"127.0.0.1",
            &[0x9c, 0xbb, 0x92, 0x21, 0x01],
        ]
        .concat();
        assert_eq!(accepted.encode(), golden);
        assert_eq!(golden.len() - 2, 15);
    }

    #[test]
    fn a_v2_frame_is_refused_not_misparsed() {
        // What protocol 2 sent: the handle as a u32-length string.
        let url = b"x-infogram://127.0.0.1:2119/1/1";
        let v2 = |tag: u8| [&[2, tag][..], &(url.len() as u32).to_be_bytes(), url].concat();
        let refusal = "unsupported protocol version 2";
        assert_eq!(Request::decode(&v2(1)).unwrap_err().reason, refusal);
        assert_eq!(Reply::decode(&v2(0)).unwrap_err().reason, refusal);
    }

    #[test]
    fn hostile_handle_fields_are_typed_errors() {
        let refusal = |handle: &[u8]| {
            Request::decode(&[&[PROTOCOL_VERSION, 1][..], handle].concat())
                .unwrap_err()
                .reason
        };
        let mut max = vec![0xff; 9];
        max.push(0x01);
        let mut over = vec![0xff; 9];
        over.push(0x02);
        for (handle, reason) in [
            (vec![0x80; 11], "varint longer than 10 bytes"),
            (over, "varint overflows u64"),
            // The host length says u64::MAX; nothing is allocated for it.
            (max, "truncated handle host"),
            (vec![5, b'a', b'b'], "truncated handle host"),
            (
                vec![2, 0xc3, 0x28, 0, 1, 1, 1],
                "invalid utf-8 in handle host",
            ),
            (vec![1, b'h', 0], "truncated handle port"),
            (vec![1, b'h', 0, 1], "truncated varint"),
            (vec![1, b'h', 0, 1, 0x81], "truncated varint"),
            (vec![1, b'h', 0, 1, 1], "truncated varint"),
            (vec![], "truncated varint"),
        ] {
            assert_eq!(refusal(&handle), reason, "{handle:?}");
        }
        // Every field at its largest decodes.
        let h = JobHandle::new(&"h".repeat(300), u16::MAX, u64::MAX, u64::MAX);
        let status = Request::Status { handle: h };
        assert_eq!(Request::decode(&status.encode()).unwrap(), status);
    }

    #[test]
    fn unicode_rsl_survives() {
        let r = Request::Submit {
            rsl: "(arguments=\"grüße 世界\")".to_string(),
            callback: false,
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    /// Every assigned error code with its name — the single place a new
    /// code must be added. `wire_tags_are_unique` fails if a future
    /// change reuses a number or forgets to list one here.
    const ERROR_CODES: &[(u32, &str)] = &[
        (codes::BAD_RSL, "BAD_RSL"),
        (codes::AUTHENTICATION, "AUTHENTICATION"),
        (codes::AUTHORIZATION, "AUTHORIZATION"),
        (codes::NO_SUCH_JOB, "NO_SUCH_JOB"),
        (codes::NO_SUCH_KEYWORD, "NO_SUCH_KEYWORD"),
        (codes::AMBIGUOUS_REQUEST, "AMBIGUOUS_REQUEST"),
        (codes::EXECUTION_FAILED, "EXECUTION_FAILED"),
        (codes::TIMEOUT_EXCEPTION, "TIMEOUT_EXCEPTION"),
        (codes::INTERNAL, "INTERNAL"),
        (codes::UNSUPPORTED, "UNSUPPORTED"),
        (codes::UNAVAILABLE, "UNAVAILABLE"),
        (codes::SLOW_CONSUMER, "SLOW_CONSUMER"),
    ];

    /// The wire-tag catalog: the byte after the protocol version that
    /// selects the message variant. The `encode`/`decode` arms are
    /// hand-written against these numbers; `wire_tags_are_unique` and
    /// `encoders_agree_with_the_tag_catalog` fail if a change reuses a
    /// tag, renumbers a variant, or adds one without extending the list.
    const REQUEST_TAGS: &[(u8, &str)] = &[(0, "Submit"), (1, "Status"), (2, "Cancel"), (3, "Ping")];
    /// [`Reply`] variant tags.
    const REPLY_TAGS: &[(u8, &str)] = &[
        (0, "JobAccepted"),
        (1, "JobStatus"),
        (2, "InfoResult"),
        (3, "Event"),
        (4, "Error"),
        (5, "Pong"),
        (6, "Subscribed"),
        (7, "Update"),
        (8, "SubEnd"),
    ];

    fn assert_unique<T: Copy + Ord + std::fmt::Debug>(table: &[(T, &str)], what: &str) {
        let mut seen = std::collections::BTreeMap::new();
        for (num, name) in table {
            if let Some(prev) = seen.insert(*num, *name) {
                panic!("{what} {num:?} assigned to both {prev} and {name}");
            }
        }
    }

    #[test]
    fn wire_tags_are_unique() {
        assert_unique(REQUEST_TAGS, "request tag");
        assert_unique(REPLY_TAGS, "reply tag");
        assert_unique(ERROR_CODES, "error code");
    }

    /// The catalog is only a guard if the hand-written encoders actually
    /// use its numbers: encode one sample of every variant and check the
    /// tag byte (the byte after the version) against the table.
    #[test]
    fn encoders_agree_with_the_tag_catalog() {
        let handle = JobHandle::parse("x-infogram://host:2119/1/1").unwrap();
        let requests = [
            Request::Submit {
                rsl: "(executable=/bin/true)".into(),
                callback: false,
            },
            Request::Status {
                handle: handle.clone(),
            },
            Request::Cancel {
                handle: handle.clone(),
            },
            Request::Ping,
        ];
        assert_eq!(
            requests.len(),
            REQUEST_TAGS.len(),
            "a Request variant is missing from REQUEST_TAGS"
        );
        for req in &requests {
            let name = format!("{req:?}");
            let bytes = req.encode();
            let expect = REQUEST_TAGS
                .iter()
                .find(|(_, n)| name.starts_with(n))
                .unwrap_or_else(|| panic!("{name} not in REQUEST_TAGS"));
            assert_eq!(bytes[1], expect.0, "request tag drifted for {name}");
        }
        let replies = [
            Reply::JobAccepted {
                handle: handle.clone(),
            },
            Reply::JobStatus {
                handle: handle.clone(),
                state: JobStateCode::Active,
                exit_code: None,
                output: String::new(),
            },
            Reply::InfoResult {
                body: String::new(),
                record_count: 0,
            },
            Reply::Event {
                handle,
                state: JobStateCode::Done,
            },
            Reply::Error {
                code: codes::INTERNAL,
                message: String::new(),
            },
            Reply::Pong,
            Reply::Subscribed { id: 1, count: 1 },
            Reply::Update {
                id: 1,
                deltas: Vec::new(),
            },
            Reply::SubEnd {
                id: 1,
                code: codes::SLOW_CONSUMER,
                message: String::new(),
            },
        ];
        assert_eq!(
            replies.len(),
            REPLY_TAGS.len(),
            "a Reply variant is missing from REPLY_TAGS"
        );
        for reply in &replies {
            let name = format!("{reply:?}");
            let bytes = reply.encode();
            let expect = REPLY_TAGS
                .iter()
                .find(|(_, n)| name.starts_with(n))
                .unwrap_or_else(|| panic!("{name} not in REPLY_TAGS"));
            assert_eq!(bytes[1], expect.0, "reply tag drifted for {name}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decode_never_panics_on_noise(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
            let _ = Request::decode(&bytes);
            let _ = Reply::decode(&bytes);
        }

        #[test]
        fn submit_roundtrip(rsl in "\\PC{0,64}", callback in any::<bool>()) {
            let r = Request::Submit { rsl, callback };
            prop_assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }

        #[test]
        fn error_roundtrip(code in any::<u32>(), message in "\\PC{0,64}") {
            let r = Reply::Error { code, message };
            prop_assert_eq!(Reply::decode(&r.encode()).unwrap(), r);
        }

        /// Hosts of 0–300 bytes cross the one-byte length varint; ids
        /// and epochs shifted right by 0–63 bits cover every varint
        /// length up to `u64::MAX`'s ten bytes.
        #[test]
        fn handle_roundtrip(
            host in prop::collection::vec(0u8..128, 0..301),
            port in any::<u16>(),
            id in (any::<u64>(), 0u32..64),
            epoch in (any::<u64>(), 0u32..64),
        ) {
            let host = String::from_utf8(host).unwrap();
            let handle = JobHandle::new(&host, port, id.0 >> id.1, epoch.0 >> epoch.1);
            let status = Request::Status { handle: handle.clone() };
            prop_assert_eq!(Request::decode(&status.encode()).unwrap(), status);
            let event = Reply::Event { handle, state: JobStateCode::Active };
            prop_assert_eq!(Reply::decode(&event.encode()).unwrap(), event);
        }
    }
}
