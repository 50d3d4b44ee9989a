//! E13 — security (§5.3): handshake cost vs delegation depth, and the
//! authorization decision matrix (gridmap + time-window contracts).
//!
//! The matrix is decided on simulated time and gated, as is when each
//! allowed session's authorization ends, and so are the handshake's
//! bytes, counted; the handshake's CPU cost is wall clock and reported.

use infogram_bench::{fmt_secs, row, table, Joined, Report};
use infogram_gsi::{
    accept, wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
    Authorizer, Certificate, CertificateAuthority, Contract, Credential, Dn, GridMap,
    HandshakeError, SecurityContext, Session, Window,
};
use infogram_sim::{SimTime, SplitMix64};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One handshake as a connection runs it — HELLO, RESP, FIN, each
/// encoded and checked by the `wire_*` step that sends or reads it — and
/// the server's context.
fn handshake(
    client: &Credential,
    server: &Credential,
    roots: &[Certificate],
    now: SimTime,
    rng: &mut SplitMix64,
) -> Result<SecurityContext, HandshakeError> {
    let (hello, nonce) = wire_client_hello(client, rng);
    let (resp, pending) = wire_server_respond(server, roots, &hello, now, rng)?;
    let (fin, _) = wire_client_finish(client, roots, &resp, nonce, now)?;
    wire_server_verify(&pending, &fin)
}

/// `client`'s bind to a server that `accept`s it for "cluster" at `now`:
/// the client's side answers each server message in the server's `send`.
fn bind(
    client: &Credential,
    server: &Credential,
    roots: &[Certificate],
    authorizer: &Authorizer,
    now: SimTime,
) -> Result<Session, HandshakeError> {
    let (hello, nonce) = wire_client_hello(client, &mut SplitMix64::new(now.as_nanos()));
    let to_server = RefCell::new(VecDeque::from([hello]));
    let send = |resp: &[u8]| {
        let (fin, _) = wire_client_finish(client, roots, resp, nonce, now)?;
        to_server.borrow_mut().push_back(fin);
        Ok(())
    };
    let recv = || Ok(to_server.borrow_mut().pop_front().unwrap_or_default());
    accept(server, roots, authorizer, "cluster", now, send, recv)
}

/// `t` as the hour and minute of its day.
fn time_of_day(t: SimTime) -> String {
    let minutes = t.as_nanos() / 60_000_000_000;
    format!("{:02}:{:02}", minutes / 60 % 24, minutes % 60)
}

/// The bytes a DN takes on the wire: its RDN count, then each attribute
/// and value after its length (one byte each, for the short DNs here).
fn dn_bytes(dn: &Dn) -> usize {
    1 + dn
        .rdns()
        .iter()
        .map(|(a, v)| 2 + a.len() + v.len())
        .sum::<usize>()
}

/// The most a certificate's fields but its DNs take: serial and the two
/// times (varints, ≤ 10 bytes each), key and signature (8 each), the
/// kind byte and a proxy's depth (a `u32` varint, ≤ 5).
const FIXED_FIELDS_MAX: usize = 3 * 10 + 8 + 8 + 1 + 5;

/// One proxy depth's handshake: seconds each, its HELLO and RESP bytes,
/// and the bytes of its chain's subjects.
struct DepthCost {
    depth: usize,
    secs: f64,
    hello: usize,
    resp: usize,
    subjects: usize,
}

/// What a handshake costs at each proxy depth.
fn handshake_cost() -> Vec<DepthCost> {
    println!(
        "\n-- mutual authentication cost vs proxy chain depth (chains encoded and decoded) --"
    );
    let mut rng = SplitMix64::new(5150);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(10 * 365 * 86_400),
    );
    let roots = [ca.certificate().clone()];
    let server = ca.issue(
        &Dn::user("Grid", "Hosts", "gk"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(86_400),
    );

    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for depth in [0usize, 1, 2, 4, 8] {
        let mut cred: Credential = ca.issue(
            &Dn::user("Grid", "ANL", "DeepUser"),
            &mut rng,
            SimTime::ZERO,
            Duration::from_secs(86_400),
        );
        for _ in 0..depth {
            cred = cred
                .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(43_200), 16)
                .expect("delegate");
        }
        let (hello, _) = wire_client_hello(&cred, &mut rng);
        let (resp, _) =
            wire_server_respond(&server, &roots, &hello, SimTime::from_secs(1), &mut rng)
                .expect("respond");
        const REPS: usize = 2_000;
        let t0 = Instant::now();
        for _ in 0..REPS {
            handshake(&cred, &server, &roots, SimTime::from_secs(1), &mut rng).expect("handshake");
        }
        let secs = t0.elapsed().as_secs_f64() / REPS as f64;
        rows.push(row![
            depth,
            (cred.chain.len()),
            (hello.len()),
            (resp.len()),
            fmt_secs(secs)
        ]);
        costs.push(DepthCost {
            depth,
            secs,
            hello: hello.len(),
            resp: resp.len(),
            subjects: cred.chain.iter().map(|c| dn_bytes(&c.subject)).sum(),
        });
    }
    table("proxy-depth|chain-len|hello-B|resp-B|handshake-cpu", &rows);
    costs
}

/// Each case of the matrix: when its authorization ends if allowed.
fn authorization_matrix() -> Vec<Option<SimTime>> {
    println!("\n-- authorization decision matrix (gridmap + contracts) --");
    let mut rng = SplitMix64::new(6510);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(10 * 365 * 86_400),
    );
    let roots = [ca.certificate().clone()];
    let server = ca.issue(
        &Dn::user("Grid", "Hosts", "gk"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );

    let alice = Dn::user("Grid", "ANL", "Alice");
    let bob = Dn::user("Grid", "ANL", "Bob");
    let mut gridmap = GridMap::new();
    gridmap.add(alice.clone(), &["alice"]);
    gridmap.add(bob.clone(), &["bob"]);
    // The paper's example contract: 3–4 pm daily; and Bob's two
    // back-to-back windows, 3–4 and 4–5 pm.
    let authorizer = Authorizer::with_contracts(
        gridmap,
        vec![
            Contract::new(alice.clone(), "cluster", vec![Window::daily_hours(15, 16)]),
            Contract::new(
                bob.clone(),
                "cluster",
                vec![Window::daily_hours(15, 16), Window::daily_hours(16, 17)],
            ),
        ],
    );

    let alice_cred = ca.issue(
        &alice,
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    let bob_cred = ca.issue(
        &bob,
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    let mallory_cred = ca.issue(
        &Dn::user("Grid", "ANL", "Mallory"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    // A day-long proxy is alive at 3pm; a one-hour proxy issued at
    // midnight has long expired by then.
    let day_proxy = alice_cred
        .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(86_400), 0)
        .expect("proxy");
    let short_proxy = alice_cred
        .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(3600), 0)
        .expect("proxy");
    // A one-hour proxy issued at 2:45 pm ends before the window does.
    let quarter_to_three = SimTime::from_secs(14 * 3600 + 45 * 60);
    let late_proxy = alice_cred
        .delegate(&mut rng, quarter_to_three, Duration::from_secs(3600), 0)
        .expect("proxy");

    let three_pm = SimTime::from_secs(15 * 3600 + 1800);
    let noon = SimTime::from_secs(12 * 3600);

    let cases: Vec<(&str, &Credential, SimTime)> = vec![
        ("alice @ 3:30pm (in window)", &alice_cred, three_pm),
        ("alice @ noon (outside window)", &alice_cred, noon),
        ("alice's 24h proxy @ 3:30pm", &day_proxy, three_pm),
        (
            "alice's 1h proxy @ 3:30pm (expired)",
            &short_proxy,
            three_pm,
        ),
        ("mallory (unmapped) @ 3:30pm", &mallory_cred, three_pm),
        (
            "alice's 1h proxy from 2:45pm @ 3:30pm",
            &late_proxy,
            three_pm,
        ),
        (
            "bob, windows 3-4pm and 4-5pm, @ 3:30pm",
            &bob_cred,
            three_pm,
        ),
    ];
    let mut rows = Vec::new();
    let mut allowed = Vec::new();
    for (label, cred, when) in cases {
        let (verdict, until) = match bind(cred, &server, &roots, &authorizer, when) {
            Ok(s) => (format!("ALLOW as {}", s.account), Some(s.valid_until)),
            Err(e @ HandshakeError::Unauthorized(_)) => (format!("DENY (authz: {e})"), None),
            Err(e) => (format!("DENY (authn: {e})"), None),
        };
        let ends = until.map_or(String::new(), time_of_day);
        allowed.push(until);
        rows.push(row![label, verdict, ends]);
    }
    table("case|decision|authorized-until", &rows);
    allowed
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E13",
        "GSI handshake + contract authorization (§5.3)",
    );
    let costs = handshake_cost();
    let allowed = authorization_matrix();

    let hour = |h: u64, m: u64| Some(SimTime::from_secs(h * 3600 + m * 60));
    let allowed_now: Vec<bool> = allowed.iter().map(Option::is_some).collect();
    report.claim(
        "matrix_matches_the_paper",
        "the decision matrix matches 'allow access from 3 to 4 pm to user X' exactly: \
         alice in her window, directly or through a live proxy, bob in his, and nobody else",
        allowed_now == [true, false, true, false, false, true, true],
        format!("allowed: {allowed_now:?}"),
    );
    report.claim(
        "authorization_ends_where_the_window_or_proxy_does",
        "an allowed session is authorized until its window closes (4 pm), its proxy \
         expires first (3:45 pm), or a back-to-back window closes (5 pm)",
        allowed
            == [
                hour(16, 0),
                None,
                hour(16, 0),
                None,
                None,
                hour(15, 45),
                hour(17, 0),
            ],
        format!(
            "authorized until: {}",
            allowed
                .iter()
                .map(|t| t.map_or("-".into(), time_of_day))
                .joined()
        ),
    );
    // A link's bytes beyond its subject are its fixed fields: no link
    // repeats its issuer's DN, and the server's RESP does not depend on
    // the client's chain.
    let links = |p: &[DepthCost]| (p[1].depth - p[0].depth) as f64;
    let per_link_bytes: Vec<f64> = costs
        .windows(2)
        .map(|p| (p[1].hello - p[0].hello) as f64 / links(p))
        .collect();
    let beyond_subjects = costs.windows(2).all(|p| {
        let added = (p[1].hello - p[0].hello) - (p[1].subjects - p[0].subjects);
        added as f64 / links(p) <= FIXED_FIELDS_MAX as f64
    });
    report.claim(
        "handshake_bytes_name_no_issuer",
        "each proxy link a HELLO adds costs its subject and at most 52 B of fixed fields, \
         no issuer DN, and the RESP is the same at every client depth",
        beyond_subjects && costs.iter().all(|c| c.resp == costs[0].resp),
        format!(
            "HELLO {} B, RESP {} B at depths {}; {} B per added link",
            costs.iter().map(|c| c.hello).joined(),
            costs.iter().map(|c| c.resp).joined(),
            costs.iter().map(|c| c.depth).joined(),
            per_link_bytes.iter().map(|b| format!("{b:.1}")).joined(),
        ),
    );
    // Linear in the chain: the cost per added link stays within 2x of
    // its mean across the depths.
    let per_link: Vec<f64> = costs
        .windows(2)
        .map(|p| (p[1].secs - p[0].secs) / links(p))
        .collect();
    let mean = per_link.iter().sum::<f64>() / per_link.len() as f64;
    report.reported(
        "handshake_linear_in_chain",
        "handshake cost grows linearly with chain length",
        per_link.iter().all(|&l| l > mean / 2.0 && l < 2.0 * mean),
        per_link.iter().map(|&l| fmt_secs(l)).joined() + " per added link",
    );
    report.finish();
}
