//! Hostile bytes over the MDS protocol.
//!
//! Every request and reply of the baseline's second protocol goes
//! through the shared sweep (`tests/support/hostile.rs`): truncated at
//! every byte and every byte flipped. Whatever arrives, decoding returns
//! a typed `MdsWireError` or a message that re-encodes to exactly the
//! bytes it came from, and asks the allocator for nothing larger than
//! the message plus an error message's worth.

// Test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram_mds::dit::Scope;
use infogram_mds::protocol::{MdsReply, MdsRequest};

#[path = "../../../tests/support/hostile.rs"]
mod hostile;

use hostile::{input_plus_message, sweep};

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
