//! The Web-services gateway: forwards compatibility.
//!
//! §6.6 of the paper: "we developed our first prototype architecture as a
//! Web service ... we thought that such an effort could be performed in a
//! second step (as it is now performed as part of the Open Grid Service
//! Architecture)." And §11: "It is straight forward to cast the InfoGram
//! in WSDL."
//!
//! This module is that second step: the *same* operations (submit,
//! status, cancel, ping — with info queries travelling as submits, as
//! always) exposed through an XML envelope instead of the binary GRAM
//! framing. A [`WsGateway`] runs next to the native gatekeeper and
//! forwards every decoded envelope into the very same
//! [`InfoGramDispatcher`] — one service, two wire syntaxes, which is
//! exactly the OGSA transition story.
//!
//! The envelope is deliberately SOAP-shaped but minimal:
//!
//! ```xml
//! <envelope xmlns="urn:infogram:2002"><body>
//!   <submit callback="false"><rsl>(info=memory)</rsl></submit>
//! </body></envelope>
//! ```
//!
//! The gateway does not speak GSI (the 2002 WS world had WS-Security in
//! its future); it is constructed with a fixed *gateway principal* whose
//! gridmap account every WS request runs as, the deployment mode a
//! transitional site would use. Event callbacks are not available over
//! the WS syntax (request/response only).

use crate::dispatch::InfoGramDispatcher;
use infogram_exec::gram::RequestDispatcher;
use infogram_proto::handle::JobHandle;
use infogram_proto::message::{codes, JobStateCode, Reply, Request};
use infogram_proto::render::xml::{attr_of, escape, unescape};
use infogram_proto::transport::{Acceptor, Conn, ProtoError, Transport};
use std::sync::Arc;

/// The envelope namespace.
pub const WS_NAMESPACE: &str = "urn:infogram:2002";

/// An envelope failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsError {
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for WsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ws envelope error: {}", self.reason)
    }
}

impl std::error::Error for WsError {}

fn err(reason: &str) -> WsError {
    WsError {
        reason: reason.to_string(),
    }
}

/// The text after the first `<tag` that is the whole element name —
/// `<event` does not open at `<eventLog` — i.e. the tag's attributes,
/// its `>` and everything behind.
fn after_open<'a>(xml: &'a str, tag: &str) -> Option<&'a str> {
    xml.match_indices('<').find_map(|(p, _)| {
        let rest = xml[p + 1..].strip_prefix(tag)?;
        rest.starts_with(|c: char| c == '>' || c == '/' || c.is_whitespace())
            .then_some(rest)
    })
}

/// `<tag ...>content</tag>` → content, unescaped.
fn tag_content(xml: &str, tag: &str) -> Option<String> {
    let rest = after_open(xml, tag)?;
    let content = &rest[rest.find('>')? + 1..];
    let end = content.find(&format!("</{tag}>"))?;
    Some(unescape(&content[..end]))
}

/// `name="value"` attribute inside the first occurrence of `<tag`,
/// matched as a whole attribute name.
fn tag_attr(xml: &str, tag: &str, name: &str) -> Option<String> {
    attr_of(after_open(xml, tag)?, name)
}

fn envelope(body: &str) -> String {
    format!("<envelope xmlns=\"{WS_NAMESPACE}\"><body>{body}</body></envelope>")
}

/// Encode a protocol request as an XML envelope.
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Submit { rsl, callback } => envelope(&format!(
            "<submit callback=\"{callback}\"><rsl>{}</rsl></submit>",
            escape(rsl)
        )),
        Request::Status { handle } => envelope(&format!(
            "<status><handle>{}</handle></status>",
            escape(&handle.to_string())
        )),
        Request::Cancel { handle } => envelope(&format!(
            "<cancel><handle>{}</handle></cancel>",
            escape(&handle.to_string())
        )),
        Request::Ping => envelope("<ping/>"),
    }
}

/// Decode an XML envelope into a protocol request.
pub fn decode_request(xml: &str) -> Result<Request, WsError> {
    if !xml.contains(WS_NAMESPACE) {
        return Err(err("missing infogram namespace"));
    }
    if xml.contains("<ping/>") || xml.contains("<ping>") {
        return Ok(Request::Ping);
    }
    if xml.contains("<submit") {
        let rsl = tag_content(xml, "rsl").ok_or_else(|| err("submit lacks <rsl>"))?;
        // Only what `encode_request` writes: `"true"` or `"false"`.
        let callback = match tag_attr(xml, "submit", "callback").as_deref() {
            Some("true") => true,
            Some("false") => false,
            _ => return Err(err("bad callback flag")),
        };
        return Ok(Request::Submit { rsl, callback });
    }
    for (tag, make) in [("status", true), ("cancel", false)] {
        if xml.contains(&format!("<{tag}")) {
            let h = tag_content(xml, "handle").ok_or_else(|| err("missing <handle>"))?;
            let handle = JobHandle::parse(&h).map_err(|e| err(&e.to_string()))?;
            return Ok(if make {
                Request::Status { handle }
            } else {
                Request::Cancel { handle }
            });
        }
    }
    Err(err("no recognized operation in envelope"))
}

/// Encode a protocol reply as an XML envelope.
pub fn encode_reply(reply: &Reply) -> String {
    match reply {
        Reply::JobAccepted { handle } => envelope(&format!(
            "<jobAccepted><handle>{}</handle></jobAccepted>",
            escape(&handle.to_string())
        )),
        Reply::JobStatus {
            handle,
            state,
            exit_code,
            output,
        } => {
            let exit = exit_code
                .map(|e| format!(" exit=\"{e}\""))
                .unwrap_or_default();
            envelope(&format!(
                "<jobStatus state=\"{state}\"{exit}><handle>{}</handle><output>{}</output></jobStatus>",
                escape(&handle.to_string()),
                escape(output)
            ))
        }
        Reply::InfoResult { body, record_count } => envelope(&format!(
            "<infoResult count=\"{record_count}\"><data>{}</data></infoResult>",
            escape(body)
        )),
        Reply::Event { handle, state } => envelope(&format!(
            "<event state=\"{state}\"><handle>{}</handle></event>",
            escape(&handle.to_string())
        )),
        Reply::Error { code, message } => envelope(&format!(
            "<fault code=\"{code}\">{}</fault>",
            escape(message)
        )),
        Reply::Pong => envelope("<pong/>"),
        Reply::Subscribed { id, count } => {
            envelope(&format!("<subscribed id=\"{id}\" count=\"{count}\"/>"))
        }
        Reply::SubEnd { id, code, message } => envelope(&format!(
            "<subEnd id=\"{id}\" code=\"{code}\">{}</subEnd>",
            escape(message)
        )),
        // The gateway refuses `(action=subscribe)` (its dispatch context
        // is detached), so no Update stream can reach this encoder; the
        // binary delta payload has no XML form, and a stray one degrades
        // to a fault rather than a lossy imitation.
        Reply::Update { id, .. } => envelope(&format!(
            "<fault code=\"{}\">subscription {id} updates are not representable \
             in the WS syntax</fault>",
            codes::UNSUPPORTED
        )),
    }
}

/// Decode an XML envelope into a protocol reply.
pub fn decode_reply(xml: &str) -> Result<Reply, WsError> {
    if !xml.contains(WS_NAMESPACE) {
        return Err(err("missing infogram namespace"));
    }
    if xml.contains("<pong/>") {
        return Ok(Reply::Pong);
    }
    if xml.contains("<jobAccepted>") {
        let h = tag_content(xml, "handle").ok_or_else(|| err("missing handle"))?;
        return Ok(Reply::JobAccepted {
            handle: JobHandle::parse(&h).map_err(|e| err(&e.to_string()))?,
        });
    }
    if xml.contains("<jobStatus") {
        let h = tag_content(xml, "handle").ok_or_else(|| err("missing handle"))?;
        let state = tag_attr(xml, "jobStatus", "state")
            .and_then(|s| JobStateCode::from_name(&s))
            .ok_or_else(|| err("bad state"))?;
        let exit_code = match tag_attr(xml, "jobStatus", "exit") {
            Some(e) => Some(e.parse().map_err(|_| err("bad exit code"))?),
            None => None,
        };
        let output = tag_content(xml, "output").unwrap_or_default();
        return Ok(Reply::JobStatus {
            handle: JobHandle::parse(&h).map_err(|e| err(&e.to_string()))?,
            state,
            exit_code,
            output,
        });
    }
    if xml.contains("<infoResult") {
        let count = tag_attr(xml, "infoResult", "count")
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| err("bad count"))?;
        let body = tag_content(xml, "data").ok_or_else(|| err("missing data"))?;
        return Ok(Reply::InfoResult {
            body,
            record_count: count,
        });
    }
    if xml.contains("<event") {
        let h = tag_content(xml, "handle").ok_or_else(|| err("missing handle"))?;
        let state = tag_attr(xml, "event", "state")
            .and_then(|s| JobStateCode::from_name(&s))
            .ok_or_else(|| err("bad state"))?;
        return Ok(Reply::Event {
            handle: JobHandle::parse(&h).map_err(|e| err(&e.to_string()))?,
            state,
        });
    }
    if xml.contains("<subscribed") {
        let id = tag_attr(xml, "subscribed", "id")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad subscription id"))?;
        let count = tag_attr(xml, "subscribed", "count")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad subscription count"))?;
        return Ok(Reply::Subscribed { id, count });
    }
    if xml.contains("<subEnd") {
        let id = tag_attr(xml, "subEnd", "id")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad subscription id"))?;
        let code = tag_attr(xml, "subEnd", "code")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad subEnd code"))?;
        let message = tag_content(xml, "subEnd").unwrap_or_default();
        return Ok(Reply::SubEnd { id, code, message });
    }
    if xml.contains("<fault") {
        let code = tag_attr(xml, "fault", "code")
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| err("bad fault code"))?;
        let message = tag_content(xml, "fault").unwrap_or_default();
        return Ok(Reply::Error { code, message });
    }
    Err(err("no recognized reply in envelope"))
}

/// A running WS gateway next to a native InfoGram service.
pub struct WsGateway {
    acceptor: Acceptor,
}

impl std::fmt::Debug for WsGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WsGateway")
            .field("addr", &self.addr())
            .finish_non_exhaustive()
    }
}

impl WsGateway {
    /// Start a gateway forwarding into `dispatcher` under the given
    /// gateway principal (`owner` DN string, local `account`).
    pub fn start(
        dispatcher: Arc<InfoGramDispatcher>,
        owner: &str,
        account: &str,
        transport: &dyn Transport,
        bind_addr: &str,
    ) -> Result<Arc<Self>, ProtoError> {
        let owner = owner.to_string();
        let account = account.to_string();
        let connections = dispatcher.telemetry().counter("ws.connections");
        let requests = dispatcher.telemetry().counter("ws.requests");
        let acceptor = Acceptor::start(transport, bind_addr, move |conn| {
            connections.incr();
            // Detached: no event callbacks and no push subscriptions
            // over the WS syntax.
            let mut ctx = infogram_exec::gram::ConnCtx::detached();
            while let Ok(bytes) = conn.recv() {
                requests.incr();
                let reply = match std::str::from_utf8(&bytes)
                    .map_err(|_| err("not utf-8"))
                    .and_then(decode_request)
                {
                    Ok(request) => dispatcher.dispatch(&owner, &account, request, &mut ctx),
                    Err(e) => Reply::Error {
                        code: infogram_proto::message::codes::BAD_RSL,
                        message: e.to_string(),
                    },
                };
                if conn.send(encode_reply(&reply).as_bytes()).is_err() {
                    break;
                }
            }
        })?;
        Ok(Arc::new(WsGateway { acceptor }))
    }

    /// The bound address.
    pub fn addr(&self) -> &str {
        self.acceptor.addr()
    }

    /// Stop accepting.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
    }
}

/// A minimal WS client speaking envelopes.
pub struct WsClient {
    conn: Box<dyn Conn>,
}

impl std::fmt::Debug for WsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WsClient").finish_non_exhaustive()
    }
}

impl WsClient {
    /// Connect to a gateway.
    pub fn connect(transport: &dyn Transport, addr: &str) -> Result<WsClient, ProtoError> {
        Ok(WsClient {
            conn: transport.connect(addr)?,
        })
    }

    /// Issue one request and read the reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, WsError> {
        self.conn
            .send(encode_request(request).as_bytes())
            .map_err(|e| err(&e.to_string()))?;
        let bytes = self.conn.recv().map_err(|e| err(&e.to_string()))?;
        decode_reply(std::str::from_utf8(&bytes).map_err(|_| err("not utf-8"))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests_support::start_default_service;

    fn handle() -> JobHandle {
        JobHandle::new("gk.grid", 2119, 9, 2)
    }

    #[test]
    fn request_envelope_roundtrip() {
        let reqs = [
            Request::Submit {
                rsl: "&(executable=/bin/date)(arguments=-u \"two words\")".to_string(),
                callback: true,
            },
            Request::Submit {
                rsl: "(info=memory)(format=xml)".to_string(),
                callback: false,
            },
            Request::Status { handle: handle() },
            Request::Cancel { handle: handle() },
            Request::Ping,
        ];
        for r in reqs {
            let xml = encode_request(&r);
            assert!(xml.contains(WS_NAMESPACE));
            assert_eq!(decode_request(&xml).unwrap(), r);
        }
    }

    #[test]
    fn reply_envelope_roundtrip() {
        let replies = [
            Reply::JobAccepted { handle: handle() },
            Reply::JobStatus {
                handle: handle(),
                state: JobStateCode::Done,
                exit_code: Some(0),
                output: "value: <ok> & done\n".to_string(),
            },
            Reply::JobStatus {
                handle: handle(),
                state: JobStateCode::Active,
                exit_code: None,
                output: String::new(),
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
                code: 31,
                message: "no such keyword <X>".to_string(),
            },
            Reply::Pong,
            Reply::Subscribed { id: 7, count: 2 },
            Reply::SubEnd {
                id: 7,
                code: 36,
                message: "subscriber fell behind".to_string(),
            },
        ];
        for r in replies {
            let xml = encode_reply(&r);
            assert_eq!(decode_reply(&xml).unwrap(), r, "{xml}");
        }
    }

    #[test]
    fn extractors_match_whole_tag_and_attribute_names() {
        let xml = "<eventLog state=\"Log\"/><event substate=\"Sub\" state=\"Done\">\
                   <handles>no</handles><handle>yes</handle></event>";
        assert_eq!(tag_attr(xml, "event", "state").as_deref(), Some("Done"));
        assert_eq!(tag_attr(xml, "event", "tate"), None);
        assert_eq!(tag_content(xml, "handle").as_deref(), Some("yes"));
        assert_eq!(tag_attr(xml, "even", "state"), None);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_request("<not-an-envelope/>").is_err());
        assert!(decode_request(&envelope("<unknown/>")).is_err());
        assert!(decode_reply("plain text").is_err());
        assert!(decode_request(&envelope("<submit callback=\"x\"></submit>")).is_err());
        // The decoders accept only what the encoders write.
        let rsl = "<rsl>(info=cpu)</rsl>";
        for flag in [
            "<submit callback=\"yes\">",
            "<submit callback=\"TRUE\">",
            "<submit>",
        ] {
            let e = decode_request(&envelope(&format!("{flag}{rsl}</submit>"))).unwrap_err();
            assert_eq!(e.reason, "bad callback flag", "{flag}");
        }
        let status = |exit: &str| {
            envelope(&format!(
                "<jobStatus state=\"DONE\" exit=\"{exit}\"><handle>{}</handle>\
                 <output></output></jobStatus>",
                handle()
            ))
        };
        assert!(decode_reply(&status("0")).is_ok());
        for exit in ["", "zero", "1.5", "99999999999"] {
            let e = decode_reply(&status(exit)).unwrap_err();
            assert_eq!(e.reason, "bad exit code", "{exit:?}");
        }
    }

    /// Every connection counts on a handle of its own, and they all add
    /// up in the one account they were authorized into.
    #[test]
    fn every_front_door_counts_into_the_same_account() {
        let world = start_default_service("ws-count.grid:0");
        let dispatcher = InfoGramDispatcher::new(
            std::sync::Arc::clone(world.service.engine()),
            std::sync::Arc::clone(world.service.info_service()),
        );
        let gateway = WsGateway::start(
            dispatcher,
            "/O=Grid/OU=WS/CN=Gateway",
            "gregor",
            &world.net,
            "ws-count.grid:8080",
        )
        .unwrap();
        let mut ws = WsClient::connect(&world.net, gateway.addr()).unwrap();
        let native = || {
            infogram_client::InfoGramClient::connect(
                &world.net,
                world.service.addr(),
                &world.user,
                &world.roots,
                world.clock.clone(),
            )
            .unwrap()
        };
        let (mut first, mut second) = (native(), native());
        for round in 0..4 {
            first.info("Memory").unwrap();
            if round % 2 == 0 {
                second.info("CPU").unwrap();
            }
            let rsl = "(info=memory)".to_string();
            let callback = false;
            ws.call(&Request::Submit { rsl, callback }).unwrap();
        }
        assert_eq!(world.service.accounting()["gregor"].info_queries, 4 + 2 + 4);
        gateway.shutdown();
        world.service.shutdown();
    }

    #[test]
    fn gateway_serves_info_and_jobs() {
        let world = start_default_service("ws-host.grid:0");
        let dispatcher = InfoGramDispatcher::new(
            std::sync::Arc::clone(world.service.engine()),
            std::sync::Arc::clone(world.service.info_service()),
        );
        let gateway = WsGateway::start(
            dispatcher,
            "/O=Grid/OU=WS/CN=Gateway",
            "gregor",
            &world.net,
            "ws-host.grid:8080",
        )
        .unwrap();
        let mut client = WsClient::connect(&world.net, gateway.addr()).unwrap();

        // Ping.
        assert_eq!(client.call(&Request::Ping).unwrap(), Reply::Pong);

        // Info query through the WS syntax.
        match client
            .call(&Request::Submit {
                rsl: "(info=memory)".to_string(),
                callback: false,
            })
            .unwrap()
        {
            Reply::InfoResult { record_count, body } => {
                assert_eq!(record_count, 1);
                assert!(body.contains("Memory-total"));
            }
            other => panic!("{other:?}"),
        }

        // Job through the WS syntax.
        let handle = match client
            .call(&Request::Submit {
                rsl: "(executable=simwork)(arguments=10)".to_string(),
                callback: false,
            })
            .unwrap()
        {
            Reply::JobAccepted { handle } => handle,
            other => panic!("{other:?}"),
        };
        // Poll until done.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match client
                .call(&Request::Status {
                    handle: handle.clone(),
                })
                .unwrap()
            {
                Reply::JobStatus { state, .. } if state.is_terminal() => {
                    assert_eq!(state, JobStateCode::Done);
                    break;
                }
                Reply::JobStatus { .. } => {
                    assert!(std::time::Instant::now() < deadline, "job never finished");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                other => panic!("{other:?}"),
            }
        }

        // The job is ALSO visible over the native protocol: one service,
        // two syntaxes.
        let mut native = infogram_client::InfoGramClient::connect(
            &world.net,
            world.service.addr(),
            &world.user,
            &world.roots,
            world.clock.clone(),
        )
        .unwrap();
        let (state, exit, _) = native.status(&handle).unwrap();
        assert_eq!(state, JobStateCode::Done);
        assert_eq!(exit, Some(0));

        gateway.shutdown();
        world.service.shutdown();
    }
}
