//! Hostile bytes over the message codec and the framing.
//!
//! Every request, every reply (an update with a full, a compact and a
//! degraded delta), and a stream of frames go through the shared sweep
//! (`tests/support/hostile.rs`). Whatever arrives, decoding returns —
//! never panics — with a typed `WireError` / `ProtoError` or a message
//! that re-encodes to exactly the bytes it came from, and asks the
//! allocator for nothing larger than the frame it was given plus an
//! error message's worth. An update may ask for more, within the bound
//! derived at `update_bound`.
//!
//! A GIIS and a client parse a member's LDIF or XML from whatever
//! the peer sent. Every corruption of a representative document goes
//! through each text decoder as its callers read it: bytes that are not
//! UTF-8 are refused before any decoder runs. Each must return and ask
//! the allocator for no more at once than `records_bound` of its input.
//! A parser rebuilds every attribute's name from its record's keyword, so
//! a body naming a huge keyword over many empty-name lines is held, in
//! total, to `held_bound` of its input.

use infogram_proto::delta::RecordDelta;
use infogram_proto::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use infogram_proto::message::{codes, JobStateCode, Reply, Request, PROTOCOL_VERSION};
use infogram_proto::record::{Attribute, InfoRecord};
use infogram_proto::render::{ldif, xml, RELATIVE_KEYWORD_MAX};
use infogram_proto::transport::ProtoError;
use infogram_proto::JobHandle;
use infogram_sim::varint;
use std::io::Cursor;

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{
    corruptions, input_plus_message, largest_request, peak_held, sweep, MESSAGE_ALLOWANCE,
};

fn handles() -> Vec<JobHandle> {
    vec![
        JobHandle::new("127.0.0.1", 2119, 1, 1),
        JobHandle::new("gatekeeper.grid.example.org", 40_123, 4242, 7),
        JobHandle::new("grüße.example", u16::MAX, u64::MAX, u64::MAX),
    ]
}

fn requests() -> Vec<Request> {
    let mut out = vec![
        Request::Submit {
            rsl: "(info=Memory)".to_string(),
            callback: false,
        },
        Request::Ping,
    ];
    for handle in handles() {
        out.push(Request::Status {
            handle: handle.clone(),
        });
        out.push(Request::Cancel { handle });
    }
    out
}

fn handle_replies() -> Vec<Reply> {
    let mut out = Vec::new();
    for handle in handles() {
        out.push(Reply::JobAccepted {
            handle: handle.clone(),
        });
        out.push(Reply::JobStatus {
            handle: handle.clone(),
            state: JobStateCode::Active,
            exit_code: None,
            output: String::new(),
        });
        out.push(Reply::JobStatus {
            handle: handle.clone(),
            state: JobStateCode::Done,
            exit_code: Some(-1),
            output: "value: ok\n".to_string(),
        });
        out.push(Reply::Event {
            handle,
            state: JobStateCode::Failed,
        });
    }
    out
}

/// Replies without a handle: every variant, and an update carrying a
/// full, a compact and a degraded delta.
fn other_replies() -> Vec<Reply> {
    let mut prev = InfoRecord::new("Memory", "node0.grid");
    prev.push("total", "4096");
    prev.push("free", "1024");
    let mut next = InfoRecord::new("Memory", "node0.grid");
    next.push("total", "4096");
    next.push("free", "512");
    next.push("buffers", "3");
    let mut degraded = next.clone();
    degraded.degraded = true;
    degraded.stale_age_secs = Some(12.5);
    degraded.attributes[0].quality = Some(0.25);
    degraded.attributes[0].age_secs = Some(12.5);
    vec![
        Reply::InfoResult {
            body: "dn: kw=Memory\nMemory-total: 42\n".to_string(),
            record_count: 1,
        },
        Reply::Error {
            code: codes::AUTHORIZATION,
            message: "no gridmap entry".to_string(),
        },
        Reply::Subscribed { id: 7, count: 2 },
        Reply::SubEnd {
            id: 7,
            code: codes::SLOW_CONSUMER,
            message: "outbox overflow".to_string(),
        },
        Reply::Update {
            id: 7,
            deltas: vec![
                RecordDelta::diff(None, &prev, 1),
                RecordDelta::diff(Some(&prev), &next, 2),
                RecordDelta::diff(Some(&next), &degraded, 3),
            ],
        },
    ]
}

/// How many bytes left buy a delta list room for one attribute up
/// front: what an empty attribute took when lengths were `u32`s.
const RESERVE_LEN: usize = 9;

/// An update's bound. A delta's list reserves room for the count it
/// claims, held to the bytes left, but never more memory up front than
/// one attribute per `RESERVE_LEN` bytes left, so `n` bytes can make the
/// decoder ask for room for `n / RESERVE_LEN` attributes at once. An
/// attribute takes more memory than its bytes on the wire (80 bytes on
/// a 64-bit host, before its strings), so this bound is larger than the
/// message. A list grows past its reservation only for items that
/// decode, which no corruption of these updates makes numerous.
fn update_bound(len: usize) -> usize {
    let attributes = len / RESERVE_LEN * std::mem::size_of::<Attribute>();
    attributes.max(len) + MESSAGE_ALLOWANCE
}

#[test]
fn request_decode_survives_every_cut_and_flip() {
    for request in requests() {
        sweep(
            &format!("{request:?}"),
            &request.encode(),
            input_plus_message,
            Request::decode,
            Some(&Request::encode),
        );
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip_of_a_handle_reply() {
    for reply in handle_replies() {
        sweep(
            &format!("{reply:?}"),
            &reply.encode(),
            input_plus_message,
            Reply::decode,
            Some(&Reply::encode),
        );
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip_of_every_other_reply() {
    for reply in other_replies() {
        let bound = match reply {
            Reply::Update { .. } => update_bound,
            _ => input_plus_message,
        };
        sweep(
            &format!("{reply:?}"),
            &reply.encode(),
            bound,
            Reply::decode,
            Some(&Reply::encode),
        );
    }
}

#[test]
fn an_update_of_empty_attributes_stays_within_its_bound() {
    let mut rec = InfoRecord::new("", "");
    rec.attributes = vec![Attribute::new("", ""); 200];
    let update = Reply::Update {
        id: 1,
        deltas: vec![RecordDelta::diff(None, &rec, 1)],
    };
    let bytes = update.encode();
    // Three bytes each: the two empty strings' lengths and the flags.
    assert!(bytes.len() < 200 * 3 + 16, "{}", bytes.len());
    let (decoded, largest) = largest_request(|| Reply::decode(&bytes));
    assert_eq!(decoded.unwrap(), update);
    assert!(largest > bytes.len() + MESSAGE_ALLOWANCE, "{largest}");
    // Past the reservation the list doubles, and only for attributes
    // that decoded: at most twice what the 200 take.
    let decoded = 200 * std::mem::size_of::<Attribute>();
    assert!(largest <= 2 * decoded + MESSAGE_ALLOWANCE, "{largest}");
}

/// A frame's header: its length and its own size, if it is all there.
fn header(bytes: &[u8]) -> Option<(usize, usize)> {
    match *bytes {
        [a, b, c, d, ..] if a & 0x80 != 0 => {
            Some((u32::from_be_bytes([a & 0x7f, b, c, d]) as usize, 4))
        }
        [a, b, ..] if a & 0x80 == 0 => Some((usize::from(u16::from_be_bytes([a, b])), 2)),
        _ => None,
    }
}

#[test]
fn read_frame_survives_every_cut_and_flip() {
    let mut stream = Vec::new();
    for request in requests() {
        write_frame(&mut stream, &request.encode()).unwrap();
    }
    for (_, bytes) in corruptions(&stream) {
        let mut r = Cursor::new(&bytes[..]);
        loop {
            let at = r.position() as usize;
            let (result, largest) = largest_request(|| read_frame(&mut r));
            let declared = header(&bytes[at..]).map_or(0, |(len, _)| len);
            assert!(
                largest <= declared.min(MAX_FRAME_LEN) + MESSAGE_ALLOWANCE,
                "{largest} bytes asked for a frame declaring {declared}"
            );
            match result {
                Ok(payload) => assert_eq!(payload.len(), declared),
                Err(ProtoError::Closed) => {
                    assert_eq!(at, bytes.len(), "Closed mid-stream");
                    break;
                }
                Err(ProtoError::TooLarge(n)) => {
                    assert!(n > MAX_FRAME_LEN);
                    break;
                }
                Err(ProtoError::Io(_)) => break,
                Err(e) => panic!("{e}"),
            }
        }
    }
}

/// A header may claim up to `MAX_FRAME_LEN`; what is allocated follows
/// the bytes that arrive. A peer that claims 16 MiB and sends ten bytes
/// costs one 64 KiB buffer, not 16 MiB.
#[test]
fn a_frame_claiming_16_mib_allocates_what_arrived() {
    let mut stream = (MAX_FRAME_LEN as u32 | 1 << 31).to_be_bytes().to_vec();
    stream.extend_from_slice(b"ten bytes!");
    let (result, largest) = largest_request(|| read_frame(&mut Cursor::new(&stream)));
    assert!(matches!(result, Err(ProtoError::Io(_))), "{result:?}");
    assert!(
        largest <= 128 * 1024,
        "{largest} bytes asked for 10 that arrived"
    );
}

/// Each length has one header; a length past `MAX_FRAME_LEN` is refused
/// before anything is allocated; a cut inside either header is `Io`.
#[test]
fn a_frame_header_is_read_one_way() {
    let refusal = |bytes: &[u8]| largest_request(|| read_frame(&mut Cursor::new(bytes)));
    for len in [0u32, 5, 0x7fff] {
        let long = [&(len | 1 << 31).to_be_bytes()[..], &vec![0; len as usize]].concat();
        assert!(matches!(refusal(&long).0, Err(ProtoError::Io(_))), "{len}");
    }
    let past = (MAX_FRAME_LEN as u32 + 1) | 1 << 31;
    for claim in [past, u32::MAX] {
        let (result, largest) = refusal(&claim.to_be_bytes());
        assert!(matches!(result, Err(ProtoError::TooLarge(_))), "{result:?}");
        assert_eq!(largest, 0, "{claim:#x}");
    }
    let mut long = Vec::new();
    write_frame(&mut long, &[1; 0x8000]).unwrap();
    for cut in [&[0x00][..], &[0x7f], &long[..1], &long[..2], &long[..3]] {
        let (result, _) = refusal(cut);
        assert!(
            matches!(result, Err(ProtoError::Io(_))),
            "{cut:?}: {result:?}"
        );
    }
}

/// Every `u32` field is a varint on the wire and refuses one past
/// `u32::MAX`, so a decode accepts only what an encode writes.
#[test]
fn a_u32_field_refuses_a_varint_past_u32() {
    let past = varint::encode(u64::from(u32::MAX) + 1);
    let status = Reply::JobStatus {
        handle: JobHandle::new("h", 1, 1, 1),
        state: JobStateCode::Done,
        exit_code: Some(0),
        output: String::new(),
    }
    .encode();
    // The exit code's byte sits before the output's empty length.
    let exit_at = status.len() - 2;
    let v = PROTOCOL_VERSION;
    for (bytes, field) in [
        ([&[v, 2, 0][..], &past].concat(), "record count"),
        ([&[v, 4][..], &past, &[0]].concat(), "error code"),
        ([&[v, 6, 1][..], &past].concat(), "keyword count"),
        ([&[v, 8, 1][..], &past, &[0]].concat(), "end code"),
        ([&status[..exit_at], &past, &[0]].concat(), "exit code"),
    ] {
        let refusal = Reply::decode(&bytes).unwrap_err().reason;
        assert_eq!(refusal, format!("{field} past u32"), "{bytes:?}");
    }
}

/// The exit code is zigzag-encoded: a small code of either sign is one
/// byte, and every `i32` crosses.
#[test]
fn every_exit_code_round_trips() {
    for (code, bytes) in [
        (i32::MIN, 5),
        (-1, 1),
        (0, 1),
        (63, 1),
        (-64, 1),
        (64, 2),
        (i32::MAX, 5),
    ] {
        let reply = Reply::JobStatus {
            handle: JobHandle::new("h", 1, 1, 1),
            state: JobStateCode::Failed,
            exit_code: Some(code),
            output: String::new(),
        };
        let encoded = reply.encode();
        assert_eq!(Reply::decode(&encoded).unwrap(), reply, "{code}");
        // Version, tag, a 6-byte handle, state, flag, code, empty output.
        assert_eq!(encoded.len(), 11 + bytes, "{code}");
    }
}

/// Feed every corruption of `text` to `decode` and hold each call to
/// `bound(input bytes)`. Unlike `sweep`, a text decoder accepts a cut:
/// it returns the records it could read.
fn sweep_text<T>(name: &str, text: &str, bound: fn(usize) -> usize, decode: impl Fn(&str) -> T) {
    let mut decoded = 0;
    for (_, bytes) in corruptions(text.as_bytes()) {
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        let (_, largest) = largest_request(|| decode(text));
        assert!(
            largest <= bound(bytes.len()),
            "{name}: {largest} bytes asked for at once decoding {} bytes: {text:?}",
            bytes.len()
        );
        decoded += 1;
    }
    assert!(decoded > text.len(), "{name}: most corruptions are UTF-8");
}

/// Records with every annotation the renderers write, and values that
/// need escaping in each syntax.
fn records() -> Vec<InfoRecord> {
    let mut memory = InfoRecord::new("Memory", "node0.grid");
    memory.push("total", "4294967296");
    memory.push("free", "1073741824").quality = Some(0.9);
    let mut date = InfoRecord::new("Date", "node1.grid");
    date.push("value", "2002-07-24 00:00:00 UTC").age_secs = Some(1.5);
    date.push("zone", "<&\"grüße\"> : x").quality = Some(0.25);
    date.degraded = true;
    date.stale_age_secs = Some(12.0);
    vec![memory, date]
}

/// The record parsers' bound. They build a vector of records (96 bytes
/// each) and one of attributes (80 bytes each) per record, grown by
/// doubling, from lines of 20 bytes and more: eight times the input, plus
/// the first growth of each vector.
fn records_bound(len: usize) -> usize {
    8 * len + 512
}

#[test]
fn ldif_parse_survives_every_cut_and_flip() {
    let text = ldif::render(&records());
    assert_eq!(ldif::parse(&text).len(), 2);
    sweep_text("ldif", &text, records_bound, ldif::parse);
}

#[test]
fn xml_parse_survives_every_cut_and_flip() {
    let text = xml::render(&records());
    assert_eq!(xml::parse(&text).len(), 2);
    sweep_text("xml", &text, records_bound, xml::parse);
}

/// What a record parse may hold at once. Each attribute line costs an
/// `Attribute` (80 bytes, twice that in the doubling vector's spare) and
/// a name at most `RELATIVE_KEYWORD_MAX + 1` bytes longer than the line;
/// the shortest line, LDIF's `:\n`, is 2 bytes.
fn held_bound(len: usize) -> usize {
    (2 * 80 + RELATIVE_KEYWORD_MAX + 1).div_ceil(2) * len + 1024
}

/// A text decoder as its callers call it.
type Parse = fn(&str) -> Vec<InfoRecord>;

#[test]
fn a_long_keyword_over_many_empty_names_is_held_in_step_with_its_input() {
    const LINES: usize = 2048;
    // At the limit every name is rebuilt from the keyword; past it, a
    // relative name is refused. Rebuilt, the 8 KiB one would hold 16 MiB.
    for keyword in ["K".repeat(RELATIVE_KEYWORD_MAX), "K".repeat(8192)] {
        let bodies: [(&str, String, Parse); 2] = [
            (
                "ldif",
                format!("dn: kw={keyword}\n{}", ":\n".repeat(LINES)),
                ldif::parse,
            ),
            (
                "xml",
                format!(
                    "<provider keyword=\"{keyword}\">\n{}</provider>\n",
                    "<attribute name=\"\">\n".repeat(LINES)
                ),
                xml::parse,
            ),
        ];
        for (name, text, parse) in bodies {
            let (records, held) = peak_held(|| parse(&text));
            assert!(
                held <= held_bound(text.len()),
                "{name}: {held} bytes held parsing {} bytes under a {}-byte keyword",
                text.len(),
                keyword.len()
            );
            let rebuilt = keyword.len() <= RELATIVE_KEYWORD_MAX;
            assert_eq!(
                records[0].attributes.len(),
                if rebuilt { LINES } else { 0 },
                "{name}"
            );
        }
    }
}
