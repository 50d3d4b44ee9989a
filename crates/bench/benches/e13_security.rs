//! E13 — security (§5.3): handshake cost vs delegation depth, the
//! authorization decision matrix (gridmap + time-window contracts), and
//! the refusal matrix on a cached connect to the gatekeeper and the MDS.
//!
//! The matrices are decided on simulated time and gated, as is when each
//! allowed session's authorization ends, and so are the handshake's
//! bytes, counted; the handshake's CPU cost is wall clock and reported.

use infogram::client::{ClientError, InfoGramClient};
use infogram::core::{InfoGramParams, InfoGramService};
use infogram::exec::sandbox::{ExecMode, Policy};
use infogram::exec::wal::Wal;
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::mds::client::MdsClient;
use infogram::mds::{service, Gris};
use infogram::proto::transport::mem::MemNetwork;
use infogram::sim::clock::SharedClock;
use infogram::sim::metrics::MetricSet;
use infogram::sim::ManualClock;
use infogram_bench::{fmt_secs, row, table, Joined, Report};
use infogram_gsi::wire::encode_chain;
use infogram_gsi::{
    accept, wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
    Authorizer, Certificate, CertificateAuthority, Contract, Credential, Dn, GridMap,
    HandshakeError, SecurityContext, Session, Window,
};
use infogram_sim::{SimTime, SplitMix64};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
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

/// The most a proxy link takes on the wire: serial and the two times
/// (varints, ≤ 10 bytes each), key and signature (8 each), the kind byte
/// and the depth (a `u32` varint, ≤ 5), and its subject by reference:
/// a count of 0, then `CN` and `proxy` after their lengths.
const LINK_MAX: usize = 3 * 10 + 8 + 8 + 1 + 5 + (1 + 3 + 6);

/// One proxy depth's handshake: seconds each, its HELLO and RESP bytes.
struct DepthCost {
    depth: usize,
    secs: f64,
    hello: usize,
    resp: usize,
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

    let depths = [0usize, 1, 2, 4, 8];
    let creds: Vec<Credential> = depths
        .iter()
        .map(|&depth| {
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
            cred
        })
        .collect();
    // Rounds of every depth in turn, each depth's fastest round kept: a
    // stall on a shared host slows one round, not a whole depth.
    const ROUNDS: usize = 10;
    const REPS: usize = 400;
    let mut secs = [f64::INFINITY; 5];
    for _ in 0..ROUNDS {
        for (cred, best) in creds.iter().zip(&mut secs) {
            let t0 = Instant::now();
            for _ in 0..REPS {
                handshake(cred, &server, &roots, SimTime::from_secs(1), &mut rng)
                    .expect("handshake");
            }
            *best = best.min(t0.elapsed().as_secs_f64() / REPS as f64);
        }
    }
    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for ((depth, cred), secs) in depths.into_iter().zip(&creds).zip(secs) {
        let (hello, _) = wire_client_hello(cred, &mut rng);
        let (resp, _) =
            wire_server_respond(&server, &roots, &hello, SimTime::from_secs(1), &mut rng)
                .expect("respond");
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

/// The refusal a bind's error text names, or `allowed`.
fn verdict(outcome: &Result<(), String>) -> &'static str {
    let Err(text) = outcome else {
        return "allowed";
    };
    [
        ("untrusted root", "UntrustedRoot"),
        ("bad proof", "BadProof"),
        ("certificate expired", "Expired"),
        ("bad signature", "BadSignature"),
        ("broken chain", "BrokenChain"),
        ("no gridmap entry", "NotMapped"),
        ("no active contract", "NoContract"),
    ]
    .into_iter()
    .find(|(words, _)| text.contains(words))
    .map_or("refused", |(_, kind)| kind)
}

/// A gatekeeper and an MDS on one host credential, on a manual clock.
struct Binds {
    clock: Arc<ManualClock>,
    net: Arc<MemNetwork>,
    service: Arc<InfoGramService>,
    mds: infogram::proto::transport::Acceptor,
    roots: Vec<Certificate>,
}

impl Binds {
    /// `cred`'s bind to the gatekeeper (`mds` false) or the MDS at
    /// `now`: its verdict, and the bytes the connect moved.
    fn bind(&self, mds: bool, cred: &Credential, now: SimTime) -> (&'static str, u64) {
        self.clock.set(now);
        let bytes = || self.net.metrics().counter_value("net.bytes");
        let before = bytes();
        let clock: SharedClock = self.clock.clone();
        let outcome = if mds {
            MdsClient::bind(&self.net, self.mds.addr(), cred, &self.roots, &clock)
                .map(drop)
                .map_err(|e| e.to_string())
        } else {
            InfoGramClient::connect(&self.net, self.service.addr(), cred, &self.roots, clock)
                .map(drop)
                .map_err(|e: ClientError| e.to_string())
        };
        (verdict(&outcome), bytes() - before)
    }
}

/// The refusal matrix on a cached connect, for the gatekeeper's bind and
/// the MDS's: each client has bound once, so it names both chains by
/// digest, and a chain it changed travels with its FIN. Returns each
/// case's two verdicts, and the bytes of Alice's full then cached connect
/// to each, beside what naming the two chains should save.
fn cached_matrix() -> (Vec<[&'static str; 2]>, [[u64; 2]; 2], u64) {
    println!("\n-- refusal matrix on a cached connect (gatekeeper and MDS) --");
    let at = |h: u64, m: u64| SimTime::from_secs(h * 3600 + m * 60);
    let mut rng = SplitMix64::new(4713);
    let ten_days = Duration::from_secs(10 * 86_400);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        ten_days,
    );
    let roots = vec![ca.certificate().clone()];
    let alice_dn = Dn::user("Grid", "ANL", "Alice");
    let alice = ca.issue(&alice_dn, &mut rng, SimTime::ZERO, ten_days);
    let mallory = Dn::user("Grid", "ANL", "Mallory");
    let mallory = ca.issue(&mallory, &mut rng, SimTime::ZERO, ten_days);
    let host = Dn::user("Grid", "Hosts", "gk");
    let host = ca.issue(&host, &mut rng, SimTime::ZERO, ten_days);
    // A 45-minute proxy from 3 pm; Alice's name from a CA nobody trusts.
    let proxy = alice
        .delegate(&mut rng, at(15, 0), Duration::from_secs(45 * 60), 0)
        .expect("proxy");
    let mut rogue_rng = SplitMix64::new(666);
    let rogue_ca = CertificateAuthority::new_root(
        &Dn::user("Rogue", "CA", "Evil"),
        &mut rogue_rng,
        SimTime::ZERO,
        ten_days,
    );
    let rogue = rogue_ca.issue(&alice_dn, &mut rogue_rng, SimTime::ZERO, ten_days);
    let mut gridmap = GridMap::new();
    gridmap.add(alice_dn.clone(), &["alice"]);
    let contract = |resource| {
        let windows = vec![Window::daily_hours(15, 16)];
        Contract::new(alice_dn.clone(), resource, windows)
    };
    let contracts = vec![contract("infogram"), contract("mds")];
    let authorizer = Arc::new(Authorizer::with_contracts(gridmap, contracts));

    let clock = ManualClock::starting_at(at(15, 30));
    let net = MemNetwork::ideal();
    let registry = CommandRegistry::new(SimulatedHost::default_on(clock.clone()), ChargeMode::None);
    let service = InfoGramService::start(
        InfoGramParams {
            service_name: "infogram".to_string(),
            bind_addr: "gk.grid:0".to_string(),
            config: ServiceConfig::table1(),
            sandbox_policy: Policy::restrictive(),
            sandbox_mode: ExecMode::Isolated,
            credential: host.clone(),
            trust_roots: roots.clone(),
            authorizer: Arc::clone(&authorizer),
        },
        registry,
        vec![],
        Wal::in_memory(),
        &net,
        clock.clone(),
        MetricSet::new(),
    )
    .expect("service starts");
    let mds = service::serve(
        Gris::new(Arc::clone(service.info_service())),
        &net,
        "gk.grid:2135",
        host.clone(),
        roots.clone(),
        authorizer,
        clock.clone(),
        &MetricSet::new(),
    )
    .expect("MDS starts");
    let binds = Binds {
        clock,
        net,
        service,
        mds,
        roots,
    };

    // Clones share a table: each impostor below names the server by the
    // table its original filled, and its own chain by that chain's digest.
    let mut stolen = mallory.clone();
    stolen.chain = alice.chain.clone();
    let mut untrusted = alice.clone();
    (untrusted.key, untrusted.chain) = (rogue.key, rogue.chain.clone());
    let mut tampered = alice.clone();
    tampered.chain[0].not_after = tampered.chain[0].not_after.plus(ten_days);
    let cases: [(&str, &Credential, SimTime); 8] = [
        ("alice, first connect @ 3:30pm", &alice, at(15, 30)),
        ("alice, cached @ 3:35pm", &alice, at(15, 35)),
        ("mallory (unmapped), cached", &mallory, at(15, 35)),
        (
            "mallory naming alice's chain by digest",
            &stolen,
            at(15, 35),
        ),
        ("alice's table, a rogue CA's chain", &untrusted, at(15, 35)),
        (
            "alice's table, her certificate tampered",
            &tampered,
            at(15, 35),
        ),
        (
            "alice's 45-min proxy, cached, expired @ 3:50pm",
            &proxy,
            at(15, 50),
        ),
        (
            "alice, cached @ 4:30pm (outside window)",
            &alice,
            at(16, 30),
        ),
    ];
    let mut rows = Vec::new();
    let mut verdicts = Vec::new();
    let mut bytes = [[0; 2]; 2];
    // The proxy and Mallory bind first at 3:30 (Mallory refused after
    // her FIN), so that each of their cases is a second connect.
    for mds in [false, true] {
        binds.bind(mds, &proxy, at(15, 30));
        binds.bind(mds, &mallory, at(15, 30));
    }
    for (i, (label, cred, when)) in cases.into_iter().enumerate() {
        let (gram, gram_bytes) = binds.bind(false, cred, when);
        let (mds, mds_bytes) = binds.bind(true, cred, when);
        if i < 2 {
            bytes[i] = [gram_bytes, mds_bytes];
        }
        rows.push(row![label, gram, gram_bytes, mds, mds_bytes]);
        verdicts.push([gram, mds]);
    }
    table("case|gatekeeper|bytes|MDS|bytes", &rows);
    let saved = (encode_chain(&alice.chain).len() + encode_chain(&host.chain).len() - 16) as u64;
    binds.mds.shutdown();
    binds.service.shutdown();
    (verdicts, bytes, saved)
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E13",
        "GSI handshake + contract authorization (§5.3)",
    );
    let costs = handshake_cost();
    let allowed = authorization_matrix();
    let (cached, bytes, saved) = cached_matrix();

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
    // A link's bytes are its fixed fields and one RDN: no link repeats
    // its issuer's DN, as an issuer or in its subject, so each costs the
    // same at any depth; and the server's RESP does not depend on the
    // client's chain.
    let links = |p: &[DepthCost]| (p[1].depth - p[0].depth) as f64;
    let per_link_bytes: Vec<f64> = costs
        .windows(2)
        .map(|p| (p[1].hello - p[0].hello) as f64 / links(p))
        .collect();
    report.claim(
        "handshake_bytes_name_no_issuer",
        "each proxy link a HELLO adds costs at most 62 B at every depth — its fixed fields \
         and its subject as one RDN after its issuer's — and the RESP is the same at every \
         client depth",
        per_link_bytes.iter().all(|&b| b <= LINK_MAX as f64)
            && costs.iter().all(|c| c.resp == costs[0].resp),
        format!(
            "HELLO {} B, RESP {} B at depths {}; {} B per added link",
            costs.iter().map(|c| c.hello).joined(),
            costs.iter().map(|c| c.resp).joined(),
            costs.iter().map(|c| c.depth).joined(),
            per_link_bytes.iter().map(|b| format!("{b:.1}")).joined(),
        ),
    );
    let expected = [
        "allowed",
        "allowed",
        "NotMapped",
        "BadProof",
        "UntrustedRoot",
        "BadSignature",
        "Expired",
        "NoContract",
    ];
    report.claim(
        "cached_connect_refuses_as_a_full_one",
        "on a cached connect to the gatekeeper and to the MDS, a rogue CA's chain is \
         UntrustedRoot, a stolen chain named by digest BadProof, a proxy expired since it \
         was cached Expired, a tampered certificate BadSignature, an unmapped DN and a \
         time outside the contract window refused",
        cached.iter().map(|v| v[0]).eq(expected) && cached.iter().map(|v| v[1]).eq(expected),
        format!(
            "gatekeeper: {}; MDS: {}",
            cached.iter().map(|v| v[0]).joined(),
            cached.iter().map(|v| v[1]).joined()
        ),
    );
    report.claim(
        "cached_connect_sends_no_chain",
        "a second connect names both chains by digest: it moves both chains less two \
         8-byte digests fewer bytes than the first, to the gatekeeper and to the MDS",
        bytes[0][0] - bytes[1][0] == saved && bytes[0][1] - bytes[1][1] == saved,
        format!(
            "full/cached connect: gatekeeper {}/{} B, MDS {}/{} B; chains less digests {saved} B",
            bytes[0][0], bytes[1][0], bytes[0][1], bytes[1][1]
        ),
    );
    // The deepest added link against the shallowest. A full-DN
    // certificate names its whole subject and issuer, and the handshake
    // decodes, compares and hashes both, so a link at depth d does O(d)
    // work: a chain's cost is quadratic in its depth, not linear.
    let per_link: Vec<f64> = costs
        .windows(2)
        .map(|p| (p[1].secs - p[0].secs) / links(p))
        .collect();
    let (shallowest, deepest) = (per_link[0], per_link[per_link.len() - 1]);
    report.reported(
        "handshake_linear_in_chain",
        "the deepest added proxy link (depth 4 to 8) costs at most 2x the shallowest (0 to \
         1); a link costs more the deeper it is, for a full-DN certificate names its whole \
         subject and issuer, which the handshake decodes, compares and hashes",
        deepest <= 2.0 * shallowest,
        format!(
            "{} per added link; deepest / shallowest = {:.2}",
            per_link.iter().map(|&l| fmt_secs(l)).joined(),
            deepest / shallowest
        ),
    );
    report.finish();
}
