//! Hostile bytes over the MDS protocol.
//!
//! Every request and reply of the baseline's second protocol goes
//! through the shared sweep (`tests/support/hostile.rs`): truncated at
//! every byte and every byte flipped. Whatever arrives, decoding returns
//! a typed `MdsWireError` or a message that re-encodes to exactly the
//! bytes it came from, and asks the allocator for nothing larger than
//! the message plus an error message's worth. A search result's body
//! text goes through the same corruptions and its parser returns.

use infogram_gsi::Dn;
use infogram_mds::dit::{DirEntry, Scope};
use infogram_mds::protocol::{entries_from_text, entries_to_text, MdsReply, MdsRequest};

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{corruptions, input_plus_message, sweep};

#[test]
fn request_decode_survives_every_cut_and_flip() {
    for request in [
        MdsRequest::Search {
            base: "/o=Grid".to_string(),
            scope: Scope::Sub,
            filter: "(&(kw=Memory)(Memory-free>=1))".to_string(),
        },
        MdsRequest::Search {
            base: "/o=Grid/hn=grüße".to_string(),
            scope: Scope::Base,
            filter: "(objectclass=*)".to_string(),
        },
        MdsRequest::Unbind,
    ] {
        sweep(
            &format!("{request:?}"),
            &request.encode(),
            input_plus_message,
            MdsRequest::decode,
            Some(&MdsRequest::encode),
        );
    }
}

#[test]
fn reply_decode_survives_every_cut_and_flip() {
    for reply in [
        MdsReply::SearchResult {
            body: "dn: /o=Grid\nobjectclass: organization\n".to_string(),
            count: 1,
        },
        MdsReply::Error {
            message: "no such base".to_string(),
        },
    ] {
        sweep(
            &format!("{reply:?}"),
            &reply.encode(),
            input_plus_message,
            MdsReply::decode,
            Some(&MdsReply::encode),
        );
    }
}

#[test]
fn body_text_parse_survives_every_cut_and_flip() {
    let pair = |k: &str, v: &str| (k.to_string(), v.to_string());
    let entries = vec![
        DirEntry::new(
            Dn::parse("/o=Grid/hn=node0").unwrap(),
            vec![pair("objectclass", "GridResource"), pair("hn", "node0")],
        ),
        DirEntry::new(
            Dn::parse("/o=Grid/hn=node0/kw=Odd").unwrap(),
            vec![
                pair("Odd-lines", "two\nlines"),
                pair("Odd-cr", "ends in CR\r"),
                pair("Odd-zone", " grüße: x"),
            ],
        ),
    ];
    let text = entries_to_text(&entries);
    assert_eq!(entries_from_text(&text), entries);
    for (_, bytes) in corruptions(text.as_bytes()) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            entries_from_text(text);
        }
    }
}
