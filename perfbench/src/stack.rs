//! The serving stack under test and the client side of each protocol.
//!
//! A stack is booted from the crates' public constructors in the shape
//! the load harness deploys: two supervised shards per front,
//! session-affinity placement, recycled key callgates, a rate-limited
//! listener, and for HTTPS a three-node cachenet ring as the session
//! store. Each workload boots only the front its protocol uses.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wedge_apache::{ConcurrentApache, ConcurrentApacheConfig, PageStore};
use wedge_cachenet::{CacheNode, CacheNodeConfig, CacheRing, CacheRingConfig};
use wedge_core::{KernelStats, WedgeError};
use wedge_crypto::{RsaKeyPair, RsaPublicKey, WedgeRng};
use wedge_net::{
    duplex_pair_with_source, Duplex, Listener, NetError, RateLimitConfig, RecvTimeout, SourceAddr,
};
use wedge_pop3::{MailDb, ShardedPop3, ShardedPop3Config};
use wedge_sched::{AcceptPolicy, SchedStats, ShardJobHandle, ShardStats, SupervisorConfig};
use wedge_telemetry::{Telemetry, Tracer, TracerConfig};
use wedge_tls::{TlsClient, TlsError};

use crate::gen::{derive, Draw, Failure, Plan, HOSTS};

/// Shards per front.
const SHARDS: usize = 2;
/// Listener backlog and per-shard queue capacity.
const QUEUE: usize = 128;
/// Links the accept loop drains per wakeup.
const ACCEPT_BATCH: usize = 8;
/// The request every HTTPS connection makes.
const GET_INDEX: &[u8] = b"GET /index.html HTTP/1.0\r\n\r\n";
/// The `/index.html` body of `PageStore::sample()`.
const INDEX_BODY: &[u8] = b"<html><body>wedge-apache index</body></html>";
/// The POP3 accounts of `MailDb::sample()` the clients log in as.
const POP3_USERS: [&str; 2] = ["alice", "bob"];
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HTTPS where every client resumes a session primed at set-up.
    HttpsResume,
    /// HTTPS where every connection is a new client: full handshakes.
    HttpsCold,
    /// POP3 login, STAT, RETR 1, QUIT.
    Pop3,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HttpsResume, Workload::HttpsCold, Workload::Pop3];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpsResume => "https-resume",
            Workload::HttpsCold => "https-cold",
            Workload::Pop3 => "pop3",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_https(self) -> bool {
        self != Workload::Pop3
    }
}

/// Named span timings of one connection, recorded only in traced runs.
#[derive(Debug, Default, Clone)]
pub struct Spans(pub Vec<(&'static str, Instant, Instant)>);

impl Spans {
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, start, end)| *end - *start)
    }

    pub fn push(&mut self, name: &'static str, start: Instant) {
        self.0.push((name, start, Instant::now()));
    }
}

/// Run `f`, recording it as span `name` when `spans` is on.
fn timed<R>(spans: &mut Option<Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        None => f(),
        Some(spans) => {
            let start = Instant::now();
            let out = f();
            spans.push(name, start);
            out
        }
    }
}

fn transport(e: impl std::fmt::Display) -> Failure {
    Failure::Transport(e.to_string())
}

fn tls_failure(e: TlsError) -> Failure {
    match e {
        TlsError::Transport(why) => Failure::Transport(why),
        other => Failure::Wrong(other.to_string()),
    }
}

/// The supervisor settings of the load harness.
fn supervisor() -> Option<SupervisorConfig> {
    Some(SupervisorConfig {
        poll_interval: Duration::from_millis(1),
        backoff_base: Duration::from_millis(1),
        ..SupervisorConfig::default()
    })
}

/// The ring-client settings of the load harness.
fn ring_config() -> CacheRingConfig {
    CacheRingConfig {
        source: SourceAddr::new([10, 99, 0, 1], 45_000),
        op_timeout: Duration::from_millis(200),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(100),
        ..CacheRingConfig::default()
    }
}

/// Three cache nodes and a ring over them.
pub fn cache_ring(telemetry: Option<&Telemetry>) -> (Vec<CacheNode>, Arc<CacheRing>) {
    let nodes: Vec<CacheNode> = (0..3)
        .map(|n| CacheNode::spawn(CacheNodeConfig::named(&format!("bench-cache-{n}"))))
        .collect();
    let ring = Arc::new(CacheRing::new(
        nodes.iter().map(CacheNode::endpoint).collect(),
        ring_config(),
    ));
    if let Some(telemetry) = telemetry {
        for node in &nodes {
            node.instrument(telemetry);
        }
        ring.instrument(telemetry);
    }
    (nodes, ring)
}

enum Front {
    Apache {
        apache: Arc<ConcurrentApache>,
        public_key: RsaPublicKey,
        ring: Arc<CacheRing>,
        _nodes: Vec<CacheNode>,
    },
    Pop3(Arc<ShardedPop3>),
}

/// What the accept loop resolved, for the books.
#[derive(Debug, Clone, Copy, Default)]
struct Served {
    links: u64,
    errors: u64,
}

/// The front's accounting after the listener closed.
#[derive(Debug, Clone)]
pub struct Books {
    pub sched: SchedStats,
    pub accepted: u64,
    pub served: u64,
    pub serve_errors: u64,
}

impl Books {
    /// Every offered link resolved exactly once, and every accepted link
    /// came back from the accept loop.
    pub fn balanced(&self) -> bool {
        self.sched.submitted == self.sched.completed + self.sched.rejected
            && self.served == self.accepted
    }
}

/// One booted stack.
pub struct Stack {
    workload: Workload,
    plan: Plan,
    pub telemetry: Telemetry,
    pub listener: Arc<Listener>,
    front: Front,
    accept_loop: Option<JoinHandle<Served>>,
    /// `https-resume`: one client per pool host, each holding a session.
    clients: Vec<Mutex<TlsClient>>,
    mail: MailDb,
}

impl Stack {
    /// Boot to ready: key generation, cache nodes, shard boot, listener
    /// bind, accept loop, and for `https-resume` one primed session per
    /// pool host. `traced` installs the program's tracer.
    pub fn boot(workload: Workload, plan: &Plan, traced: bool) -> Result<Stack, String> {
        let telemetry = Telemetry::new();
        if traced {
            telemetry.install_tracer(Tracer::new(TracerConfig::default()));
        }
        let listener = Listener::bind_rate_limited(
            &format!("bench-{}", workload.name()),
            QUEUE,
            RateLimitConfig {
                burst: 32,
                refill_per_sec: 200.0,
            },
        );
        listener.instrument(&telemetry);
        let boot_err = |e: WedgeError| format!("boot {}: {e}", workload.name());
        let front = if workload.is_https() {
            let (nodes, ring) = cache_ring(Some(&telemetry));
            let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(derive(plan.seed, 2)));
            let apache = Arc::new(
                ConcurrentApache::with_session_store(
                    keypair,
                    PageStore::sample(),
                    ConcurrentApacheConfig {
                        shards: SHARDS,
                        queue_capacity: QUEUE,
                        policy: AcceptPolicy::SessionAffinity,
                        supervisor: supervisor(),
                        ..ConcurrentApacheConfig::default()
                    },
                    ring.clone(),
                )
                .map_err(boot_err)?,
            );
            apache.instrument(&telemetry);
            Front::Apache {
                apache,
                public_key: keypair.public,
                ring,
                _nodes: nodes,
            }
        } else {
            let pop3 = Arc::new(
                ShardedPop3::new(
                    &MailDb::sample(),
                    ShardedPop3Config {
                        shards: SHARDS,
                        queue_capacity: QUEUE,
                        policy: AcceptPolicy::SessionAffinity,
                        supervisor: supervisor(),
                        ..ShardedPop3Config::default()
                    },
                )
                .map_err(boot_err)?,
            );
            pop3.instrument(&telemetry);
            Front::Pop3(pop3)
        };
        let accept_loop = {
            let listener = listener.clone();
            match &front {
                Front::Apache { apache, .. } => {
                    let apache = apache.clone();
                    std::thread::spawn(move || {
                        served(apache.serve_listener(&listener, ACCEPT_BATCH))
                    })
                }
                Front::Pop3(pop3) => {
                    let pop3 = pop3.clone();
                    std::thread::spawn(move || served(pop3.serve_listener(&listener, ACCEPT_BATCH)))
                }
            }
        };
        let mut stack = Stack {
            workload,
            plan: plan.clone(),
            telemetry,
            listener,
            front,
            accept_loop: Some(accept_loop),
            clients: Vec::new(),
            mail: MailDb::sample(),
        };
        if workload == Workload::HttpsResume {
            stack.prime()?;
        }
        Ok(stack)
    }

    /// Give every pool host a session: one full handshake each, through
    /// the front's `serve` path so set-up does not wait on the accept poll.
    fn prime(&mut self) -> Result<(), String> {
        let public_key = self.public_key();
        for host in 0..HOSTS {
            let mut client = TlsClient::new(
                public_key,
                WedgeRng::from_seed(derive(self.plan.seed, 1_000 + host as u64)),
            );
            let source = host_source(host, host as u64);
            let (link, server) = duplex_pair_with_source(source, "bench-prime", "bench-server");
            let handle = self.apache().serve(server).map_err(|e| e.to_string())?;
            let outcome = https_script(&link, &mut client, false, &mut None);
            drop(link);
            handle
                .join()
                .map_err(|e| format!("priming host {host}: {e}"))?;
            outcome.map_err(|e| format!("priming host {host}: {e:?}"))?;
            self.clients.push(Mutex::new(client));
        }
        Ok(())
    }

    fn apache(&self) -> &ConcurrentApache {
        match &self.front {
            Front::Apache { apache, .. } => apache,
            Front::Pop3(_) => panic!("the pop3 workload has no HTTPS front"),
        }
    }

    fn public_key(&self) -> RsaPublicKey {
        match &self.front {
            Front::Apache { public_key, .. } => *public_key,
            Front::Pop3(_) => panic!("the pop3 workload has no HTTPS front"),
        }
    }

    /// The HTTPS front's session store, if this workload has one.
    pub fn ring(&self) -> Option<&Arc<CacheRing>> {
        match &self.front {
            Front::Apache { ring, .. } => Some(ring),
            Front::Pop3(_) => None,
        }
    }

    pub fn sched_stats(&self) -> SchedStats {
        match &self.front {
            Front::Apache { apache, .. } => apache.sched_stats(),
            Front::Pop3(pop3) => pop3.sched_stats(),
        }
    }

    pub fn shard_stats(&self) -> Vec<ShardStats> {
        match &self.front {
            Front::Apache { apache, .. } => apache.shard_stats(),
            Front::Pop3(pop3) => pop3.shard_stats(),
        }
    }

    pub fn kernel_stats(&self) -> KernelStats {
        match &self.front {
            Front::Apache { apache, .. } => apache.kernel_stats(),
            Front::Pop3(pop3) => pop3.kernel_stats(),
        }
    }

    fn source(&self, ordinal: u64, draw: &Draw) -> SourceAddr {
        match self.workload {
            // A client never seen before also comes from a new address.
            Workload::HttpsCold => SourceAddr::new(
                [
                    12,
                    (ordinal >> 16) as u8,
                    (ordinal >> 8) as u8,
                    ordinal as u8,
                ],
                ephemeral_port(ordinal),
            ),
            _ => host_source(draw.host, ordinal),
        }
    }

    /// One connection through the listener: `Listener::connect`, the
    /// protocol script, the last reply verified.
    pub fn connect(&self, ordinal: u64, spans: &mut Option<Spans>) -> Result<(), Failure> {
        let draw = self.plan.draw(ordinal);
        let source = self.source(ordinal, &draw);
        let link =
            timed(spans, "net.connect", || self.listener.connect(source)).map_err(transport)?;
        self.script(&link, &draw, spans)
    }

    /// The same connection handed straight to the front's `serve`, with
    /// `join` after the client finished: the path without listener,
    /// accept loop and readiness park.
    pub fn connect_direct(&self, ordinal: u64, spans: &mut Option<Spans>) -> Result<(), Failure> {
        let draw = self.plan.draw(ordinal);
        let source = self.source(ordinal, &draw);
        let (link, server) = duplex_pair_with_source(source, "bench-client", "bench-direct");
        match &self.front {
            Front::Apache { apache, .. } => {
                self.serve_direct(link, &draw, spans, || apache.serve(server))
            }
            Front::Pop3(pop3) => self.serve_direct(link, &draw, spans, || pop3.serve(server)),
        }
    }

    fn serve_direct<R>(
        &self,
        link: Duplex,
        draw: &Draw,
        spans: &mut Option<Spans>,
        submit: impl FnOnce() -> Result<ShardJobHandle<R>, WedgeError>,
    ) -> Result<(), Failure> {
        let handle = timed(spans, "sched.submit", submit).map_err(transport)?;
        let started = Instant::now();
        let outcome = self.script(&link, draw, spans);
        drop(link);
        let joined = handle.join();
        if let Some(spans) = spans {
            spans.push("sched.serve_join", started);
        }
        outcome.and(joined.map(drop).map_err(transport))
    }

    fn script(&self, link: &Duplex, draw: &Draw, spans: &mut Option<Spans>) -> Result<(), Failure> {
        match self.workload {
            Workload::HttpsResume => {
                let mut client = self.clients[draw.host]
                    .lock()
                    .expect("a client thread panicked holding a TLS client");
                https_script(link, &mut client, true, spans)
            }
            Workload::HttpsCold => {
                let mut client =
                    TlsClient::new(self.public_key(), WedgeRng::from_seed(draw.client_seed));
                https_script(link, &mut client, false, spans)
            }
            Workload::Pop3 => pop3_script(link, &self.mail, draw.user, spans),
        }
    }

    /// Close the listener, wait for the accept loop to resolve every
    /// accepted link, and return the books.
    pub fn shutdown(mut self) -> Result<Books, String> {
        self.listener.close();
        let served = self
            .accept_loop
            .take()
            .expect("the accept loop runs until shutdown")
            .join()
            .map_err(|_| "the accept loop panicked".to_string())?;
        Ok(Books {
            sched: self.sched_stats(),
            accepted: self.listener.stats().accepted,
            served: served.links,
            serve_errors: served.errors,
        })
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.listener.close();
        if let Some(accept_loop) = self.accept_loop.take() {
            let _ = accept_loop.join();
        }
    }
}

fn served<R>(outcomes: Vec<Result<R, WedgeError>>) -> Served {
    Served {
        links: outcomes.len() as u64,
        errors: outcomes.iter().filter(|o| o.is_err()).count() as u64,
    }
}

fn ephemeral_port(ordinal: u64) -> u16 {
    40_000 + (ordinal % 20_000) as u16
}

fn host_source(host: usize, ordinal: u64) -> SourceAddr {
    SourceAddr::new(
        [11, 0, (host >> 8) as u8, host as u8],
        ephemeral_port(ordinal),
    )
}

/// TLS handshake, `GET /index.html`, and the reply checked: `200`, the
/// sample page's body, and the handshake kind the workload expects.
pub fn https_script(
    link: &Duplex,
    client: &mut TlsClient,
    expect_resumed: bool,
    spans: &mut Option<Spans>,
) -> Result<(), Failure> {
    let mut conn = timed(spans, "tls.handshake", || client.connect(link)).map_err(tls_failure)?;
    let reply = timed(spans, "tls.request", || {
        conn.send(link, GET_INDEX)?;
        conn.recv(link)
    })
    .map_err(tls_failure)?;
    let body = reply
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| &reply[at + 4..]);
    if !reply.starts_with(b"HTTP/1.0 200 ") || body != Some(INDEX_BODY) {
        let shown = String::from_utf8_lossy(&reply[..reply.len().min(64)]).into_owned();
        return Err(Failure::Wrong(format!("unexpected HTTP reply {shown:?}")));
    }
    if conn.resumed != expect_resumed {
        return Err(Failure::Wrong(format!(
            "handshake resumed={} where the workload expects {expect_resumed}",
            conn.resumed
        )));
    }
    Ok(())
}

/// `USER`/`PASS`/`STAT`/`RETR 1`/`QUIT` as `POP3_USERS[user]`, checking
/// every `+OK`, the `STAT` count and the retrieved message against `mail`.
pub fn pop3_script(
    link: &Duplex,
    mail: &MailDb,
    user: usize,
    spans: &mut Option<Spans>,
) -> Result<(), Failure> {
    let name = POP3_USERS[user];
    let record = mail.user(name).expect("the sample mail db has both users");
    timed(spans, "pop3.session", || {
        let exchange = |command: Option<String>| -> Result<String, Failure> {
            if let Some(command) = command {
                link.send(command.as_bytes()).map_err(transport)?;
            }
            let reply = link
                .recv(RecvTimeout::After(REPLY_TIMEOUT))
                .map_err(|e: NetError| transport(e))?;
            let reply = String::from_utf8_lossy(&reply).into_owned();
            if !reply.starts_with("+OK") {
                return Err(Failure::Wrong(format!("POP3 reply {reply:?}")));
            }
            Ok(reply)
        };
        exchange(None)?;
        exchange(Some(format!("USER {name}")))?;
        exchange(Some(format!("PASS {}", record.password)))?;
        let stat = exchange(Some("STAT".to_string()))?;
        let count = stat
            .split_whitespace()
            .nth(1)
            .and_then(|n| n.parse::<usize>().ok());
        if count != Some(record.emails.len()) {
            return Err(Failure::Wrong(format!(
                "STAT {stat:?} for {name}, who has {} messages",
                record.emails.len()
            )));
        }
        let message = exchange(Some("RETR 1".to_string()))?;
        if !message.contains(record.emails[0].as_str()) {
            return Err(Failure::Wrong(format!(
                "RETR 1 for {name} returned {message:?}"
            )));
        }
        exchange(Some("QUIT".to_string()))?;
        Ok(())
    })
}
