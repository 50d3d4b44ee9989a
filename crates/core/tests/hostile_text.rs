//! Hostile bytes over the text decoders.
//!
//! A GIIS and a client parse a member's LDIF, XML or DSML, and the WS
//! gateway and its client parse envelopes, from whatever the peer sent.
//! Every corruption of a representative document (the shared sweep's
//! `corruptions()`: each strict prefix, each byte with each bit and with
//! all eight flipped) goes through each decoder, as its callers read it:
//! bytes that are not UTF-8 are refused before any decoder runs. Each
//! must return — never panic — and ask the allocator for no more at once
//! than the multiple of its input this file states for it.

// Test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

// Its allocator and `corruptions()`; not its `sweep`, whose decoders
// refuse every cut — these do not.
#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{corruptions, input_plus_message, largest_request};
use infogram_core::ws::{decode_reply, decode_request, encode_reply, encode_request};
use infogram_proto::message::{JobStateCode, Reply, Request};
use infogram_proto::record::InfoRecord;
use infogram_proto::render::{dsml, ldif, xml};
use infogram_proto::JobHandle;

/// Feed every corruption of `text` to `decode` and hold each call to
/// `bound(input bytes)`.
fn sweep<T>(name: &str, text: &str, bound: fn(usize) -> usize, decode: impl Fn(&str) -> T) {
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
    sweep("ldif", &text, records_bound, ldif::parse);
}

#[test]
fn xml_parse_survives_every_cut_and_flip() {
    let text = xml::render(&records());
    assert_eq!(xml::parse(&text).len(), 2);
    sweep("xml", &text, records_bound, xml::parse);
}

#[test]
fn dsml_parse_survives_every_cut_and_flip() {
    let text = dsml::render(&records());
    assert_eq!(dsml::parse(&text).len(), 2);
    sweep("dsml", &text, records_bound, dsml::parse);
}

#[test]
fn ws_envelopes_survive_every_cut_and_flip() {
    let handle = JobHandle::new("gk.grid", 2119, 9, 2);
    let requests = [
        Request::Submit {
            rsl: "&(executable=/bin/echo)(arguments=\"<a & b>\")".to_string(),
            callback: true,
        },
        Request::Status {
            handle: handle.clone(),
        },
        Request::Cancel {
            handle: handle.clone(),
        },
        Request::Ping,
    ];
    // An envelope decodes to one message whose strings are copies of
    // parts of it, or to a short error: the input and a message's worth.
    for request in &requests {
        let text = encode_request(request);
        assert_eq!(decode_request(&text).as_ref(), Ok(request));
        sweep("ws request", &text, input_plus_message, decode_request);
    }
    let replies = [
        Reply::JobAccepted {
            handle: handle.clone(),
        },
        Reply::JobStatus {
            handle: handle.clone(),
            state: JobStateCode::Done,
            exit_code: Some(-3),
            output: "value: <ok> & done\n".to_string(),
        },
        Reply::InfoResult {
            body: ldif::render(&records()),
            record_count: 2,
        },
        Reply::Event {
            handle,
            state: JobStateCode::Failed,
        },
        Reply::Error {
            code: 31,
            message: "no such keyword <X>".to_string(),
        },
        Reply::Subscribed { id: 7, count: 2 },
        Reply::SubEnd {
            id: 7,
            code: 36,
            message: "subscriber fell behind".to_string(),
        },
    ];
    for reply in &replies {
        let text = encode_reply(reply);
        assert_eq!(decode_reply(&text).as_ref(), Ok(reply));
        sweep("ws reply", &text, input_plus_message, decode_reply);
    }
}
