//! A session ends when its authorization would.
//!
//! A connection is authorized once, at its bind, until the earliest of
//! its chain's expiry and the close of the run of contract windows open
//! then. At that time the first request is refused `AUTHORIZATION`, a
//! listen-only subscription gets its `SubEnd` from the service's driver,
//! and a job the session submitted runs on. Every test here runs on a
//! manual clock set to a time of day, over the in-memory network.

use infogram::client::{ClientError, InfoGramClient};
use infogram::core::{InfoGramParams, InfoGramService};
use infogram::exec::sandbox::{ExecMode, Policy};
use infogram::exec::wal::Wal;
use infogram::gsi::{
    bind, Authorizer, Certificate, CertificateAuthority, Contract, Credential, Dn, GridMap, Window,
};
use infogram::host::commands::{ChargeMode, CommandRegistry};
use infogram::host::machine::SimulatedHost;
use infogram::info::config::ServiceConfig;
use infogram::mds::client::{MdsClient, MdsClientError};
use infogram::mds::{service, Gris};
use infogram::proto::message::{codes, JobStateCode, Reply, Request};
use infogram::proto::transport::mem::MemNetwork;
use infogram::proto::transport::Transport;
use infogram::sim::metrics::MetricSet;
use infogram::sim::{ManualClock, SimTime, SplitMix64};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// `h` hours after the clock's first midnight.
fn hour(h: u64) -> SimTime {
    SimTime::from_secs(h * 3600)
}

fn minutes(m: u64) -> Duration {
    Duration::from_secs(m * 60)
}

struct World {
    clock: Arc<ManualClock>,
    net: Arc<MemNetwork>,
    service: Arc<InfoGramService>,
    authorizer: Arc<Authorizer>,
    service_cred: Credential,
    user: Credential,
    roots: Vec<Certificate>,
}

/// A service at `start`, mapping Gregor, under `windows` of contract for
/// the `infogram` resource, or gridmap-only.
fn world(windows: Option<Vec<Window>>, start: SimTime) -> World {
    let clock = ManualClock::starting_at(start);
    let mut rng = SplitMix64::new(46);
    let ten_days = Duration::from_secs(10 * 86_400);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        ten_days,
    );
    let gregor = Dn::user("Grid", "ANL", "Gregor");
    let user = ca.issue(&gregor, &mut rng, SimTime::ZERO, ten_days);
    let service_cred = ca.issue(
        &Dn::user("Grid", "Hosts", "lifetime.grid"),
        &mut rng,
        SimTime::ZERO,
        ten_days,
    );
    let roots = vec![ca.certificate().clone()];
    let mut gridmap = GridMap::new();
    gridmap.add(gregor.clone(), &["gregor"]);
    let authorizer = Arc::new(match windows {
        Some(windows) => {
            Authorizer::with_contracts(gridmap, vec![Contract::new(gregor, "infogram", windows)])
        }
        None => Authorizer::gridmap_only(gridmap),
    });
    let registry = CommandRegistry::new(SimulatedHost::default_on(clock.clone()), ChargeMode::None);
    let net = MemNetwork::ideal();
    let service = InfoGramService::start(
        InfoGramParams {
            service_name: "infogram".to_string(),
            bind_addr: "lifetime.grid:0".to_string(),
            config: ServiceConfig::table1(),
            sandbox_policy: Policy::restrictive(),
            sandbox_mode: ExecMode::Isolated,
            credential: service_cred.clone(),
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
    .unwrap();
    World {
        clock,
        net,
        service,
        authorizer,
        service_cred,
        user,
        roots,
    }
}

impl World {
    fn connect(&self, credential: &Credential) -> InfoGramClient {
        let clock = self.clock.clone();
        InfoGramClient::connect(
            &self.net,
            self.service.addr(),
            credential,
            &self.roots,
            clock,
        )
        .unwrap()
    }
}

/// Subscribe `client` to `Memory` and listen on a thread of its own: how
/// the stream ended, and what the connection answered next.
fn listen(mut client: InfoGramClient) -> mpsc::Receiver<(ClientError, ClientError)> {
    client.subscribe(&["Memory"]).unwrap();
    let (ended, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let end = loop {
            if let Err(e) = client.wait_update() {
                break e;
            }
        };
        let next = client.info("Memory").map(|_| ()).unwrap_err();
        let _ = ended.send((end, next));
    });
    rx
}

fn assert_expired<T: std::fmt::Debug>(answer: Result<T, ClientError>) {
    match answer {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(
                (code, message.as_str()),
                (codes::AUTHORIZATION, codes::EXPIRED)
            )
        }
        other => panic!("served after the session expired: {other:?}"),
    }
}

/// Connect as `credential` at 15:30, whose authorization ends at 16:00:
/// served before it, refused from it on, and a job submitted at 15:40
/// still finishes; its result is read the next day as `w.user`.
fn a_session_ends_at_four(w: &World, credential: &Credential) {
    let (mut query, mut submit) = (w.connect(credential), w.connect(credential));
    let subscriber = listen(w.connect(credential));
    w.clock.advance(minutes(10));
    let job = submit
        .submit("(executable=simwork)(arguments=60000)", false)
        .unwrap();
    query.info("Memory").unwrap();

    w.clock.set(hour(16));
    assert_expired(query.info("Memory"));
    assert_expired(submit.submit("(executable=simwork)(arguments=1)", false));
    let (end, next) = subscriber
        .recv_timeout(Duration::from_secs(10))
        .expect("the subscription ends once its authorization does");
    match end {
        ClientError::SubscriptionEnded { code, message, .. } => {
            assert_eq!(
                (code, message.as_str()),
                (codes::AUTHORIZATION, codes::EXPIRED)
            )
        }
        other => panic!("{other:?}"),
    }
    // Nothing after the SubEnd: the next request finds the connection
    // closed, and the hub holds no subscription.
    assert!(matches!(next, ClientError::Transport(_)), "{next:?}");
    assert_eq!(w.service.subscriptions().active(), 0);

    w.clock.set(hour(24 + 15).plus(minutes(5)));
    let (state, _, _) = w.connect(&w.user).status(&job).unwrap();
    assert_eq!(state, JobStateCode::Done);
    w.service.shutdown();
}

#[test]
fn a_contract_window_that_closes_ends_the_session() {
    let w = world(
        Some(vec![Window::daily_hours(15, 16)]),
        hour(15).plus(minutes(30)),
    );
    a_session_ends_at_four(&w, &w.user.clone());
}

#[test]
fn a_proxy_that_expires_ends_the_session() {
    let w = world(None, hour(15).plus(minutes(30)));
    let mut rng = SplitMix64::new(7);
    let proxy = w
        .user
        .delegate(&mut rng, hour(15), Duration::from_secs(3600), 0)
        .unwrap();
    a_session_ends_at_four(&w, &proxy);
}

/// A listen-only connection holding two subscriptions hears a `SubEnd`
/// for each once the driver finds its authorization ended.
#[test]
fn every_subscription_of_an_expired_session_ends() {
    let now = hour(15).plus(minutes(30));
    let w = world(Some(vec![Window::daily_hours(15, 16)]), now);
    let conn = w.net.connect(w.service.addr()).unwrap();
    let send = |m: &[u8]| conn.send(m).map_err(ClientError::from);
    let recv = || conn.recv().map_err(ClientError::from);
    let (ack, _) = bind(&w.user, &w.roots, w.service.addr(), now, send, recv).unwrap();
    assert_eq!(Reply::decode(&ack), Ok(Reply::Pong));
    let mut subscribed = Vec::new();
    for keyword in ["Memory", "CPU"] {
        let rsl = format!("(action=subscribe)(info={keyword})");
        conn.send(
            &Request::Submit {
                rsl,
                callback: false,
            }
            .encode(),
        )
        .unwrap();
        // A warm keyword's first Update may come first.
        while let Ok(reply) = Reply::decode(&conn.recv().unwrap()) {
            if let Reply::Subscribed { id, .. } = reply {
                subscribed.push(id);
                break;
            }
        }
    }
    w.clock.set(hour(16));
    while w.service.subscriptions().active() > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // A request now finds the outbox closed, and the connection ends
    // after what the driver queued.
    let rsl = "(info=Memory)".to_string();
    conn.send(
        &Request::Submit {
            rsl,
            callback: false,
        }
        .encode(),
    )
    .unwrap();
    let mut ended = Vec::new();
    while let Ok(frame) = conn.recv() {
        if let Ok(Reply::SubEnd { id, code, message }) = Reply::decode(&frame) {
            assert_eq!(
                (code, message.as_str()),
                (codes::AUTHORIZATION, codes::EXPIRED)
            );
            ended.push(id);
        }
    }
    assert_eq!(ended, subscribed);
    w.service.shutdown();
}

#[test]
fn adjacent_windows_serve_without_a_gap_and_end_together() {
    let windows = vec![Window::daily_hours(15, 16), Window::daily_hours(16, 17)];
    let w = world(Some(windows), hour(15).plus(minutes(30)));
    let mut client = w.connect(&w.user);
    w.clock.set(hour(16).plus(minutes(30)));
    client.info("Memory").unwrap();
    w.clock.set(hour(17));
    assert_expired(client.info("Memory"));
    w.service.shutdown();
}

#[test]
fn an_mds_search_after_the_proxy_expires_is_refused() {
    let w = world(None, hour(15).plus(minutes(30)));
    let mut rng = SplitMix64::new(7);
    let proxy = w
        .user
        .delegate(&mut rng, hour(15), Duration::from_secs(3600), 0)
        .unwrap();
    let mds = service::serve(
        Gris::new(Arc::clone(w.service.info_service())),
        &w.net,
        "mds.lifetime.grid:0",
        w.service_cred.clone(),
        w.roots.clone(),
        Arc::clone(&w.authorizer),
        w.clock.clone(),
        &MetricSet::new(),
    )
    .unwrap();
    let clock = w.clock.clone() as infogram::sim::clock::SharedClock;
    let mut client = MdsClient::bind(&w.net, mds.addr(), &proxy, &w.roots, &clock).unwrap();
    let search =
        |c: &mut MdsClient| c.search("/o=Grid", infogram::mds::dit::Scope::Sub, "(kw=Memory)");
    assert_eq!(search(&mut client).unwrap().len(), 1);
    w.clock.set(hour(16));
    match search(&mut client) {
        Err(MdsClientError::Server(message)) => assert_eq!(message, codes::EXPIRED),
        other => panic!("searched after the proxy expired: {other:?}"),
    }
    mds.shutdown();
    w.service.shutdown();
}
