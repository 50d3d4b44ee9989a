//! Forwards compatibility: the same InfoGram service through a
//! SOAP-shaped XML envelope (§6.6/§10 — "It is straight forward to cast
//! the InfoGram in WSDL").
//!
//! A WS gateway runs next to the native gatekeeper; both front the same
//! dispatcher, so a job submitted through XML is visible to a native
//! GRAM-protocol client and vice versa.
//!
//! ```text
//! cargo run --example ws_gateway
//! ```

use infogram::core::ws::{self, encode_request, WsClient};
use infogram::core::InfoGramDispatcher;
use infogram::proto::message::{Reply, Request};
use infogram::quickstart::Sandbox;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let sandbox = Sandbox::start();
    let dispatcher = InfoGramDispatcher::new(
        Arc::clone(sandbox.service.engine()),
        Arc::clone(sandbox.service.info_service()),
    );
    let gateway = ws::serve(
        dispatcher,
        "/O=Grid/OU=WS/CN=Gateway",
        "gregor",
        &sandbox.net,
        "node00.grid.example.org:8080",
    )
    .expect("gateway starts");
    println!("native gatekeeper : {}", sandbox.addr());
    println!("WS gateway        : {}\n", gateway.addr());

    let info_req = Request::Submit {
        rsl: "(info=memory)(format=xml)".to_string(),
        callback: false,
    };
    println!("== the envelope on the wire ==");
    println!("{}\n", encode_request(&info_req));

    let mut ws = WsClient::connect(&sandbox.net, gateway.addr()).expect("connect");
    println!("== info query through the WS syntax ==");
    match ws.call(&info_req).expect("call") {
        Reply::InfoResult { body, record_count } => {
            println!("{record_count} record(s):");
            for line in body.lines().take(6) {
                println!("  {line}");
            }
        }
        other => panic!("{other:?}"),
    }

    println!("\n== job through the WS syntax ==");
    let handle = match ws
        .call(&Request::Submit {
            rsl: "(executable=simwork)(arguments=30)".to_string(),
            callback: false,
        })
        .expect("submit")
    {
        Reply::JobAccepted { handle } => {
            println!("accepted: {handle}");
            handle
        }
        other => panic!("{other:?}"),
    };

    // The same job is visible over the *native* protocol — one service,
    // two wire syntaxes.
    let mut native = sandbox.connect_client();
    let (state, exit, _out) = native
        .wait_terminal(&handle, Duration::from_millis(5), Duration::from_secs(10))
        .expect("job finishes");
    println!("observed over the native protocol: {state}, exit {exit:?}");

    gateway.shutdown();
    sandbox.shutdown();
}
