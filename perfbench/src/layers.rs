//! Single-layer measurements for the traced run: the Table 2 beds (one
//! server driven over a bare `duplex_pair`), the Figure 7 primitives,
//! the RSA private-key operation and cachenet ring operations. Each
//! returns exact medians of raw per-call samples.

use std::sync::mpsc;
use std::time::Instant;

use wedge_apache::{ApacheConfig, PageStore, VanillaApache, WedgeApache};
use wedge_core::callgate::typed_entry;
use wedge_core::{SecurityPolicy, Wedge, WedgeError};
use wedge_crypto::{RsaKeyPair, WedgeRng};
use wedge_net::{duplex_pair, Duplex};
use wedge_pop3::{MailDb, Pop3Server};
use wedge_tls::{SessionId, SessionStore, TlsClient};

use crate::gen::{derive, ms, quantile, sorted, us, Failure, Rng};
use crate::stack::{cache_ring, https_script, pop3_script};

/// Untimed connections before a bed's samples start.
const BED_WARMUP: usize = 20;

/// Time `serve` on the server side of `n` connections whose client
/// side `client` runs on its own thread. Returns the sorted serve times
/// (ms) of the connections that succeeded on both sides, and how many
/// failed on either.
fn bed<C>(
    n: usize,
    mut client: C,
    serve: impl Fn(Duplex) -> Result<(), String>,
) -> Result<(Vec<f64>, usize), String>
where
    C: FnMut(Duplex) -> Result<(), Failure> + Send,
{
    let (link_tx, link_rx) = mpsc::channel::<Duplex>();
    let (done_tx, done_rx) = mpsc::channel::<Result<(), Failure>>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for link in link_rx {
                if done_tx.send(client(link)).is_err() {
                    break;
                }
            }
        });
        let (mut samples, mut failed) = (Vec::with_capacity(n), 0);
        for i in 0..BED_WARMUP + n {
            let (client_end, server_end) = duplex_pair("bed-client", "bed-server");
            link_tx
                .send(client_end)
                .map_err(|_| "bed client thread exited")?;
            let started = Instant::now();
            let served = serve(server_end);
            let elapsed = started.elapsed();
            let answered = done_rx.recv().map_err(|_| "bed client thread exited")?;
            if let Err(Failure::Wrong(why)) = &answered {
                return Err(format!("bed connection {i}: wrong reply: {why}"));
            }
            match (served, answered) {
                (Ok(()), Ok(())) if i >= BED_WARMUP => samples.push(ms(elapsed)),
                (Ok(()), Ok(())) => {}
                _ => failed += 1,
            }
        }
        drop(link_tx);
        Ok((sorted(samples), failed))
    })
}

/// A client that resumes (after its first, full handshake) or forgets
/// its session before every connection.
fn tls_client(
    keypair: RsaKeyPair,
    seed: u64,
    resume: bool,
) -> impl FnMut(Duplex) -> Result<(), Failure> + Send {
    let mut client = TlsClient::new(keypair.public, WedgeRng::from_seed(seed));
    move |link| {
        let resumed = resume && client.cached_session.is_some();
        if !resume {
            client.cached_session = None;
        }
        https_script(&link, &mut client, resumed, &mut None)
    }
}

/// The HTTPS Table 2 bed.
#[derive(Debug, Clone, Copy)]
pub struct ApacheBed {
    /// Median `WedgeApache::serve_connection` time, recycled callgates.
    pub wedge_ms: f64,
    /// Median `VanillaApache::serve_connection` time.
    pub vanilla_ms: f64,
    /// `Kernel::oplog_bytes` of the partitioned server's kernel after
    /// the bed's connections.
    pub oplog_bytes: u64,
}

pub fn apache_bed(seed: u64, resume: bool, n: usize) -> Result<ApacheBed, String> {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(derive(seed, 3)));
    let wedge = WedgeApache::new(
        Wedge::init(),
        keypair,
        PageStore::sample(),
        ApacheConfig { recycled: true },
    )
    .map_err(|e| e.to_string())?;
    let (wedge_ms, wedge_failed) = bed(n, tls_client(keypair, derive(seed, 4), resume), |link| {
        let report = wedge.serve_connection(link).map_err(|e| e.to_string())?;
        if report.handshake_ok && report.requests == 1 {
            Ok(())
        } else {
            Err(format!("partitioned server report {report:?}"))
        }
    })?;
    let vanilla = VanillaApache::new(Wedge::init(), keypair, PageStore::sample())
        .map_err(|e| e.to_string())?;
    let (vanilla_ms, vanilla_failed) =
        bed(n, tls_client(keypair, derive(seed, 5), resume), |link| {
            let report = vanilla.serve_connection(&link)?;
            if report.requests == 1 {
                Ok(())
            } else {
                Err(format!("vanilla server report {report:?}"))
            }
        })?;
    if wedge_failed + vanilla_failed > 0 {
        return Err(format!(
            "HTTPS bed connections failed: {wedge_failed} partitioned, {vanilla_failed} vanilla"
        ));
    }
    Ok(ApacheBed {
        wedge_ms: quantile(&wedge_ms, 0.5),
        vanilla_ms: quantile(&vanilla_ms, 0.5),
        oplog_bytes: wedge.wedge().kernel().oplog_bytes().unwrap_or(0) as u64,
    })
}

/// The POP3 bed.
#[derive(Debug, Clone, Copy)]
pub struct Pop3Bed {
    /// Median `Pop3Server::serve_connection` + join time of the sessions
    /// that succeeded.
    pub serve_ms: f64,
    /// Share of the bed's sessions that failed.
    pub failed_share: f64,
    /// `Kernel::oplog_bytes` of the server's kernel after the bed.
    pub oplog_bytes: u64,
}

/// `n` POP3 sessions on one fresh `Pop3Server`. A session the server
/// cannot serve fails (`Disconnected` at the client) and is counted, so a
/// per-session leak shows as a failed share once `n` exceeds what the
/// kernel can hold.
pub fn pop3_bed(seed: u64, n: usize) -> Result<Pop3Bed, String> {
    let mail = MailDb::sample();
    let server = Pop3Server::new(Wedge::init(), &mail).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(derive(seed, 6));
    let client = |link: Duplex| pop3_script(&link, &mail, rng.below(2) as usize, &mut None);
    let (samples, failed) = bed(n, client, |link| {
        let stats = server
            .serve_connection(link)
            .and_then(|handle| handle.join())
            .and_then(|stats| stats)
            .map_err(|e| e.to_string())?;
        if stats.logged_in && stats.retrieved == 1 {
            Ok(())
        } else {
            Err(format!("pop3 server stats {stats:?}"))
        }
    })?;
    Ok(Pop3Bed {
        serve_ms: quantile(&samples, 0.5),
        failed_share: failed as f64 / (BED_WARMUP + n) as f64,
        oplog_bytes: server.wedge().kernel().oplog_bytes().unwrap_or(0) as u64,
    })
}

/// Figure 7: median µs of `sthread_create` + join, a standard callgate
/// and a recycled callgate, on a fresh kernel.
pub fn kernel_primitives(n: usize) -> Result<[f64; 3], String> {
    let wedge = Wedge::init();
    let root = wedge.root();
    let mut sthread = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        root.sthread_create("bench-sthread", &SecurityPolicy::deny_all(), |_ctx| 1u32)
            .and_then(|handle| handle.join())
            .map_err(|e| e.to_string())?;
        sthread.push(us(started.elapsed()));
    }
    let entry = wedge
        .kernel()
        .cgate_register("bench_noop", typed_entry(|_ctx, _t, x: u64| Ok(x + 1)));
    let mut policy = SecurityPolicy::deny_all();
    policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);
    let gates = root
        .sthread_create("bench-caller", &policy, move |ctx| {
            let no_extra = SecurityPolicy::deny_all();
            let mut plain = Vec::with_capacity(n);
            let mut recycled = Vec::with_capacity(n);
            for x in 0..n as u64 {
                let started = Instant::now();
                let y: u64 = ctx.cgate_expect(entry, &no_extra, Box::new(x))?;
                plain.push(us(started.elapsed()));
                let started = Instant::now();
                let z: u64 = ctx.cgate_recycled_expect(entry, &no_extra, Box::new(x))?;
                recycled.push(us(started.elapsed()));
                if y != x + 1 || z != x + 1 {
                    return Err(WedgeError::BadCallgateValue);
                }
            }
            Ok::<_, WedgeError>((plain, recycled))
        })
        .and_then(|handle| handle.join())
        .and_then(|gates| gates)
        .map_err(|e| e.to_string())?;
    Ok([
        quantile(&sorted(sthread), 0.5),
        quantile(&sorted(gates.0), 0.5),
        quantile(&sorted(gates.1), 0.5),
    ])
}

/// Median µs of one `RsaPrivateKey::decrypt` of a 48-byte premaster.
pub fn rsa_decrypt_us(seed: u64, n: usize) -> Result<f64, String> {
    let keypair = RsaKeyPair::generate(&mut WedgeRng::from_seed(derive(seed, 8)));
    let premaster = WedgeRng::from_seed(derive(seed, 9)).bytes(48);
    let ciphertext = keypair.public.encrypt(&premaster);
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let started = Instant::now();
        let plain = keypair.private.decrypt(std::hint::black_box(&ciphertext));
        samples.push(us(started.elapsed()));
        if plain.as_deref() != Ok(premaster.as_slice()) {
            return Err("RSA decrypt did not round-trip".into());
        }
    }
    Ok(quantile(&sorted(samples), 0.5))
}

/// Median µs of `SessionStore::insert` then `lookup` (every one a hit)
/// on a fresh three-node ring configured like the stack's.
pub fn cachenet_ops(seed: u64, n: usize) -> Result<(f64, f64), String> {
    let (_nodes, ring) = cache_ring(None);
    let mut rng = WedgeRng::from_seed(derive(seed, 10));
    let sessions: Vec<(SessionId, Vec<u8>)> = (0..n)
        .map(|_| {
            let id = SessionId::from_bytes(&rng.bytes(16)).expect("16 bytes make a session id");
            (id, rng.bytes(48))
        })
        .collect();
    let mut inserts = Vec::with_capacity(n);
    for (id, premaster) in &sessions {
        let started = Instant::now();
        ring.insert(*id, premaster.clone());
        inserts.push(us(started.elapsed()));
    }
    let mut lookups = Vec::with_capacity(n);
    for (id, premaster) in &sessions {
        let started = Instant::now();
        let found = ring.lookup(id);
        lookups.push(us(started.elapsed()));
        if found.as_ref() != Some(premaster) {
            return Err("cachenet lookup missed a session it just stored".into());
        }
    }
    Ok((
        quantile(&sorted(lookups), 0.5),
        quantile(&sorted(inserts), 0.5),
    ))
}
