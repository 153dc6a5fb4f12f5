//! One protocol-agnostic sharded front-end.
//!
//! [`ShardedFrontEnd`] is the config, serve loop, report aggregation and
//! kill plumbing around [`ShardSet`] + [`Acceptor`], written once over
//! [`ShardServer`]: the Apache, SSH and POP3 front-ends are thin wrappers
//! adding only their protocol state (certificate keys, session caches,
//! OTP ledgers). It composes three serving-stack layers:
//!
//! 1. **Listener** ([`wedge_net::Listener`]) — `serve_listener` runs the
//!    accept loop, draining connection batches; with
//!    [`FrontEndConfig::defer_accept`] (the default) accepted links park
//!    on a readiness [`Reactor`], whose thread places each on a shard the
//!    moment its first byte arrives, with the **source-address affinity
//!    key** it arrived with, so [`AcceptPolicy::SessionAffinity`] works
//!    without any protocol cooperation.
//! 2. **Supervision** ([`crate::Supervisor`]) — enabled with
//!    [`FrontEndConfig::supervisor`], killed shards respawn automatically
//!    (fresh kernel, old ring index) with bounded backoff and
//!    restart-storm detection.
//! 3. **Placement** ([`Acceptor`]) — pluggable policy, per-shard health
//!    and admission backpressure, kill-time re-routing.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use wedge_core::{KernelStats, WedgeError};
use wedge_net::{Duplex, Listener, Reactor, RecvTimeout};
use wedge_telemetry::{SpanKind, Telemetry, TelemetrySnapshot};
use wedge_tls::SessionStore;

use crate::acceptor::{AcceptPolicy, Acceptor, ShardJobHandle};
use crate::metrics::SchedStats;
use crate::shard::{KillReport, ShardConfig, ShardHealth, ShardServer, ShardSet, ShardStats};
use crate::supervisor::{RestartStats, Supervisor, SupervisorConfig};

/// Configuration of a [`ShardedFrontEnd`].
#[derive(Debug, Clone, Copy)]
pub struct FrontEndConfig {
    /// Shard workers to fork — each an independent kernel running one
    /// server instance.
    pub shards: usize,
    /// Bounded per-shard link-queue capacity.
    pub queue_capacity: usize,
    /// Per-shard admission limit on in-flight links (`None`: only the
    /// bounded queues push back).
    pub max_inflight: Option<u64>,
    /// Address-space image size the simulated fork copies at shard boot.
    pub fork_image_bytes: usize,
    /// Descriptor-table size the simulated fork copies at shard boot.
    pub fork_fd_count: usize,
    /// How the acceptor places links on shards.
    pub policy: AcceptPolicy,
    /// Enable the auto-restart watchdog with this configuration.
    pub supervisor: Option<SupervisorConfig>,
    /// Park accepted links on the front-end's readiness reactor until
    /// their first byte arrives, and only then occupy a shard slot —
    /// so thousands of idle connections cost one parked sthread, not a
    /// queue slot and a serving thread each. Correct for
    /// client-speaks-first protocols (TLS, SSH: the client sends the
    /// hello). Protocols where the **server** speaks first (POP3 sends
    /// its `+OK` greeting unprompted) must disable this, or greeting and
    /// client would deadlock waiting for each other.
    pub defer_accept: bool,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        let shard = ShardConfig::default();
        FrontEndConfig {
            shards: shard.shards,
            queue_capacity: shard.queue_capacity,
            max_inflight: shard.max_inflight,
            fork_image_bytes: shard.fork_image_bytes,
            fork_fd_count: shard.fork_fd_count,
            policy: AcceptPolicy::RoundRobin,
            supervisor: None,
            defer_accept: true,
        }
    }
}

impl FrontEndConfig {
    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            max_inflight: self.max_inflight,
            fork_image_bytes: self.fork_image_bytes,
            fork_fd_count: self.fork_fd_count,
            ..ShardConfig::default()
        }
    }
}

/// The generic sharded front-end: N forked shards, one acceptor, an
/// optional supervisor — shared by every protocol.
pub struct ShardedFrontEnd<S: ShardServer> {
    set: ShardSet<S>,
    /// Shared with the accept reactor's hand-back callbacks, which place
    /// links themselves (so is the supervisor).
    acceptor: Arc<Acceptor<S>>,
    supervisor: Option<Arc<Supervisor>>,
    /// The session store the shards consult, when the protocol has one
    /// (TLS does): an in-process cache or a remote `wedge-cachenet` ring,
    /// held here so operators can watch resumption health.
    session_store: Option<Arc<dyn SessionStore>>,
    /// The registry this front-end reports into, once
    /// [`Self::instrument`] has been called.
    telemetry: std::sync::OnceLock<Telemetry>,
    /// See [`FrontEndConfig::defer_accept`].
    defer_accept: bool,
    /// The readiness reactor idle accepted links park on (spawned lazily
    /// by the first [`Self::serve_listener`] call that defers).
    reactor: std::sync::OnceLock<Reactor>,
}

impl<S: ShardServer> std::fmt::Debug for ShardedFrontEnd<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFrontEnd")
            .field("shards", &self.set.shards())
            .field("policy", &self.acceptor.policy())
            .field("supervised", &self.supervisor.is_some())
            .field("session_store", &self.session_store.is_some())
            .finish()
    }
}

impl<S: ShardServer> ShardedFrontEnd<S> {
    /// Fork `config.shards` shards via `factory` (one call per shard,
    /// inside the simulated forked child; retained for restarts), build
    /// the acceptor, and start the supervisor when configured.
    pub fn new<F>(config: FrontEndConfig, factory: F) -> Result<ShardedFrontEnd<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        ShardedFrontEnd::build(config, None, factory)
    }

    /// [`Self::new`], registering the [`SessionStore`] the shards consult
    /// — the in-process `SharedSessionCache` or a `wedge-cachenet` remote
    /// ring; the front-end treats both identically. The factory still
    /// owns wiring the store into each shard's server (it holds its own
    /// `Arc` clone); registering it here additionally exposes resumption
    /// health through [`Self::resumption_hit_rate`].
    pub fn with_session_store<F>(
        config: FrontEndConfig,
        store: Arc<dyn SessionStore>,
        factory: F,
    ) -> Result<ShardedFrontEnd<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        ShardedFrontEnd::build(config, Some(store), factory)
    }

    fn build<F>(
        config: FrontEndConfig,
        session_store: Option<Arc<dyn SessionStore>>,
        factory: F,
    ) -> Result<ShardedFrontEnd<S>, WedgeError>
    where
        F: Fn(usize) -> Result<S, WedgeError> + Send + Sync + 'static,
    {
        let set = ShardSet::new(config.shard_config(), factory)?;
        let acceptor = Arc::new(Acceptor::new(&set, config.policy));
        let supervisor = config
            .supervisor
            .map(|sup_config| Arc::new(Supervisor::spawn(&set, sup_config)));
        Ok(ShardedFrontEnd {
            set,
            acceptor,
            supervisor,
            session_store,
            telemetry: std::sync::OnceLock::new(),
            defer_accept: config.defer_accept,
            reactor: std::sync::OnceLock::new(),
        })
    }

    /// The accept reactor, spawned on first use and instrumented if the
    /// front-end already is.
    fn accept_reactor(&self) -> &Reactor {
        self.reactor.get_or_init(|| {
            let reactor = Reactor::spawn("frontend-accept");
            if let Some(telemetry) = self.telemetry.get() {
                reactor.instrument(telemetry);
            }
            reactor
        })
    }

    /// Register every layer of this front-end on `telemetry` — the shard
    /// set and its servers, the supervisor, the accept reactor and the
    /// session store's `tls.session_cache.*` counters — so
    /// [`Self::telemetry_snapshot`] aggregates the whole stack. Idempotent.
    pub fn instrument(&self, telemetry: &Telemetry) {
        if self.telemetry.set(telemetry.clone()).is_err() {
            return;
        }
        self.set.instrument(telemetry);
        if let Some(supervisor) = &self.supervisor {
            supervisor.instrument(telemetry);
        }
        if let Some(reactor) = self.reactor.get() {
            reactor.instrument(telemetry);
        }
        if let Some(store) = &self.session_store {
            let store = Arc::downgrade(store);
            telemetry.register_collector(move |sample| {
                let Some(store) = store.upgrade() else { return };
                let (hits, misses) = store.stats();
                sample.counter("tls.session_cache.hits", hits);
                sample.counter("tls.session_cache.misses", misses);
                sample.gauge("tls.session_cache.resident", store.len() as u64);
            });
        }
    }

    /// One aggregated snapshot of every metric this front-end (and
    /// anything else sharing the registry) reports. `None` until
    /// [`Self::instrument`] has been called.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.get().map(Telemetry::snapshot)
    }

    /// The registry handed to [`Self::instrument`], if any — so callers
    /// can install a [`wedge_telemetry::TelemetrySink`] or register more
    /// collectors on the same registry.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.get()
    }

    /// The session store registered at construction (`None` for
    /// protocols without TLS-style warm state).
    pub fn session_store(&self) -> Option<&Arc<dyn SessionStore>> {
        self.session_store.as_ref()
    }

    /// Resumption health: the registered session store's hit rate
    /// (`None` when no store is registered **or** the store has served
    /// no lookups yet — see `SharedSessionCache::hit_rate` for the
    /// spec).
    pub fn resumption_hit_rate(&self) -> Option<f64> {
        self.session_store
            .as_ref()
            .and_then(|store| store.hit_rate())
    }

    /// The underlying shard set (per-shard admission, health, servers).
    pub fn set(&self) -> &ShardSet<S> {
        &self.set
    }

    /// The configured placement policy.
    pub fn policy(&self) -> AcceptPolicy {
        self.acceptor.policy()
    }

    /// Number of shards (healthy or not).
    pub fn shards(&self) -> usize {
        self.set.shards()
    }

    /// Shard `idx`'s health.
    pub fn health(&self, idx: usize) -> ShardHealth {
        self.set.health(idx)
    }

    /// Front-end counters (see [`ShardSet::stats`]): every offer, re-offers
    /// after backpressure included, resolves into exactly one of
    /// `completed` / `rejected`, so `submitted == completed + rejected`.
    pub fn sched_stats(&self) -> SchedStats {
        self.set.stats()
    }

    /// Per-shard snapshots (health, boot cost, restarts, depth, counters,
    /// kernel), in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.set.shard_stats()
    }

    /// The per-shard snapshots folded into one aggregate (counters sum,
    /// `healthy` only when every shard is).
    pub fn aggregate_stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for stats in self.set.shard_stats() {
            total += &stats;
        }
        total
    }

    /// Kernel counters summed across every shard.
    pub fn kernel_stats(&self) -> KernelStats {
        self.set.kernel_stats()
    }

    /// The supervisor's restart counters; `None` when the front-end runs
    /// unsupervised.
    pub fn restart_stats(&self) -> Option<RestartStats> {
        self.supervisor.as_deref().map(Supervisor::stats)
    }

    /// Shard indices the supervisor's storm guard has written off (see
    /// [`Supervisor::abandoned`]); empty when unsupervised.
    pub fn abandoned_shards(&self) -> Vec<usize> {
        self.supervisor
            .as_deref()
            .map(Supervisor::abandoned)
            .unwrap_or_default()
    }

    /// Kill shard `idx` (fault injection): queued links re-route to
    /// healthy shards, the link in service finishes, and — when a
    /// supervisor is configured — the shard respawns automatically.
    pub fn kill_shard(&self, idx: usize) -> KillReport {
        self.set.kill_shard(idx)
    }

    /// Manually revive killed shard `idx` (the supervisor does this
    /// automatically when configured). Returns the respawn's boot cost.
    pub fn restart_shard(&self, idx: usize) -> Result<Duration, WedgeError> {
        self.set.restart_shard(idx)
    }

    /// Block until shard `idx` reports healthy, up to `timeout`; returns
    /// whether it did ("the shard rejoined the ring").
    pub fn await_healthy(&self, idx: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let inner = self.set.inner();
        loop {
            let seen = inner.capacity_epoch();
            if self.set.health(idx) == ShardHealth::Healthy {
                return true;
            }
            if !inner.await_capacity(seen, Some(deadline)) {
                return false;
            }
        }
    }

    /// Submit one link for service on whichever shard the acceptor picks
    /// (the link's source-address affinity key is used under
    /// [`AcceptPolicy::SessionAffinity`]). The handle resolves to the
    /// report, whose shard attribution names the shard that served it.
    pub fn serve(&self, link: Duplex) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        self.acceptor.submit(link)
    }

    /// [`Self::serve`] with an explicit affinity key (ignored by the
    /// non-affinity policies).
    pub fn serve_with_key(
        &self,
        link: Duplex,
        key: u64,
    ) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        self.acceptor.submit_with_key(link, key)
    }

    /// Batch driver: serve every link and return the outcomes **in link
    /// order** — `result[i]` is `links[i]`'s outcome — waiting whenever
    /// every shard pushes back. On a supervised front-end a transiently
    /// all-dead set (every shard killed, restarts pending) is also waited
    /// out; only a shut-down set fails the link.
    pub fn serve_all(&self, links: Vec<Duplex>) -> Vec<Result<S::Report, WedgeError>> {
        let handles: Vec<_> = links.into_iter().map(|link| self.place(link)).collect();
        handles
            .into_iter()
            .map(|h| h.and_then(ShardJobHandle::join))
            .collect()
    }

    /// The accept loop: drain `listener` in batches of up to `batch`
    /// links and, once it closes and its backlog is drained, return every
    /// outcome **in arrival order** — no accepted link is silently dropped.
    ///
    /// With [`FrontEndConfig::defer_accept`] (the default) the loop only
    /// accepts and parks: one reactor thread fronts every idle link and
    /// places each on a shard the moment its first byte lands. When the
    /// listener closes, a link whose client never spoke is reclaimed and
    /// placed anyway, so it resolves rather than dangles. Server-speaks-
    /// first protocols disable deferral and place on accept.
    pub fn serve_listener(
        &self,
        listener: &Listener,
        batch: usize,
    ) -> Vec<Result<S::Report, WedgeError>> {
        let (placed_tx, placed_rx) = mpsc::channel();
        let mut parked = Vec::new(); // (arrival index, reactor watch id)
        let mut accepted = 0;
        while let Ok(links) = listener.accept_batch(batch, RecvTimeout::Forever) {
            for link in links {
                if self.defer_accept {
                    parked.push((accepted, self.park(accepted, link, placed_tx.clone())));
                } else {
                    let _ = placed_tx.send((accepted, self.place(link)));
                }
                accepted += 1;
            }
        }
        // The listener is closed. `take` wins a watch whose callback never
        // fired; every other callback has sent its handle or holds a
        // sender until it does, so draining the channel cannot miss one.
        for (idx, id) in parked {
            if let Some(link) = self.accept_reactor().take(id) {
                let _ = placed_tx.send((idx, self.place(link)));
            }
        }
        drop(placed_tx);
        let mut placed: Vec<(usize, Placement<S::Report>)> = placed_rx.into_iter().collect();
        placed.sort_unstable_by_key(|&(idx, _)| idx);
        placed
            .into_iter()
            .map(|(_, handle)| handle.and_then(ShardJobHandle::join))
            .collect()
    }

    /// Park `link` on the accept reactor. When its first byte (or a
    /// hang-up) lands, the reactor thread records the `park` span, places
    /// the link — intact, the byte still queued — and sends `(idx,
    /// handle)` to the pump.
    fn park(
        &self,
        idx: usize,
        link: Duplex,
        placed: mpsc::Sender<(usize, Placement<S::Report>)>,
    ) -> u64 {
        let acceptor = self.acceptor.clone();
        let supervisor = self.supervisor.clone();
        let span = link
            .trace()
            .zip(self.telemetry.get().and_then(Telemetry::tracer))
            .map(|(trace, tracer)| (trace.ctx, tracer.now_ns(), tracer));
        self.accept_reactor().watch(link, move |link| {
            if let Some((root, start_ns, tracer)) = span {
                tracer.record(
                    tracer.child_of(root),
                    SpanKind::Park,
                    start_ns,
                    tracer.now_ns(),
                    true,
                    0,
                );
            }
            let _ = placed.send((idx, place(&acceptor, supervisor.as_deref(), link)));
        })
    }

    fn place(&self, link: Duplex) -> Placement<S::Report> {
        place(&self.acceptor, self.supervisor.as_deref(), link)
    }
}

/// A link's placement: its shard handle, or the final refusal.
type Placement<R> = Result<ShardJobHandle<R>, WedgeError>;

/// Offer `link` until a shard admits it or the refusal is final, waiting
/// on the set's capacity signal between offers — never on a timer. A
/// shut-down set fails at once. An all-dead set sheds with the acceptor's
/// error unless a supervisor can still revive a shard. Anything else —
/// every shard momentarily full, or dead with a revival pending — waits
/// for the next dequeue, completion or health change and re-offers. On
/// the reactor thread that wait is the intended backpressure: parked links
/// keep their bytes queued until a shard has room.
fn place<S: ShardServer>(
    acceptor: &Acceptor<S>,
    supervisor: Option<&Supervisor>,
    mut link: Duplex,
) -> Placement<S::Report> {
    let inner = &acceptor.inner;
    let key = link.affinity_key();
    loop {
        let seen = inner.capacity_epoch();
        let (back, err) = match acceptor.offer(link, key) {
            Ok(handle) => return Ok(handle),
            Err(refused) => refused,
        };
        // Nothing comes back once the watchdog has written off every shard.
        let revivable = supervisor
            .is_some_and(|sup| (sup.stats().abandoned_shards as usize) < inner.shards.len());
        if inner.shutdown.load(Ordering::SeqCst) || !(inner.alive() || revivable) {
            return Err(err);
        }
        link = back;
        inner.await_capacity(seen, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;
    use wedge_net::SourceAddr;

    /// Echo-style test server: waits for one message, replies, and reports
    /// the serving shard and the link's source host (so tests can match
    /// connections to outcomes).
    struct TagServer;

    #[derive(Debug)]
    struct TagReport {
        shard: usize,
        host: u8,
    }

    impl ShardServer for TagServer {
        type Report = TagReport;

        fn serve_link(&self, shard: usize, link: Duplex) -> Result<TagReport, WedgeError> {
            let _ = link.recv(RecvTimeout::Forever);
            let _ = link.send(b"done");
            Ok(TagReport {
                shard,
                host: link.source().map(|s| s.host[3]).unwrap_or(0),
            })
        }

        fn kernel_stats(&self) -> KernelStats {
            KernelStats::default()
        }
    }

    #[test]
    fn serve_listener_uses_source_affinity_without_protocol_help() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 4,
                policy: AcceptPolicy::SessionAffinity,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let listener = Listener::bind("svc", 64);

        // Three hosts, three connections each (fresh ephemeral ports).
        let mut clients = Vec::new();
        for host in 1u8..=3 {
            for conn in 0u16..3 {
                let client = listener
                    .connect(SourceAddr::new([10, 0, 0, host], 40_000 + conn))
                    .expect("connect");
                client.send(b"go").unwrap();
                clients.push(client);
            }
        }
        listener.close();
        let outcomes = front.serve_listener(&listener, 4);
        assert_eq!(outcomes.len(), 9);
        // Same host ⇒ same shard, every time, with zero protocol bytes
        // examined (the ephemeral ports all differ).
        let mut host_shards: std::collections::HashMap<u8, Vec<usize>> =
            std::collections::HashMap::new();
        for outcome in outcomes {
            let report = outcome.expect("served");
            host_shards
                .entry(report.host)
                .or_default()
                .push(report.shard);
        }
        assert_eq!(host_shards.len(), 3);
        for (host, shards) in host_shards {
            assert!(
                shards.windows(2).all(|w| w[0] == w[1]),
                "host {host} must stick to one shard: {shards:?}"
            );
        }
        let stats = front.sched_stats();
        assert_eq!(stats.submitted, 9);
        assert_eq!(stats.completed, 9);
        assert_eq!(listener.stats().accepted, 9);
        assert!(listener.stats().batches > 0, "accepts were batched");
    }

    #[test]
    fn deferred_accept_parks_idle_links_off_the_shards() {
        // 12 idle connections against one shard with a 4-slot queue: with
        // deferred accept they park on the reactor — no slot, no serving
        // thread — while the 3 links that actually speak get served. A
        // hang-up (client drop) also counts as readiness, so every parked
        // link still resolves once the clients leave.
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                queue_capacity: 4,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let listener = Listener::bind("lazy-svc", 32);
        let idle: Vec<_> = (0..12u8)
            .map(|n| listener.connect(SourceAddr::new([10, 0, 2, n], 42_000)))
            .collect();
        let active: Vec<_> = (0..3u16)
            .map(|n| {
                let client = listener
                    .connect(SourceAddr::new([10, 0, 2, 100], 42_100 + n))
                    .expect("connect");
                client.send(b"go").unwrap();
                client
            })
            .collect();
        std::thread::scope(|scope| {
            let pump = scope.spawn(|| front.serve_listener(&listener, 8));
            let deadline = Instant::now() + Duration::from_secs(5);
            while front.sched_stats().completed < 3 {
                assert!(Instant::now() < deadline, "active links never served");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                front.sched_stats().submitted,
                3,
                "idle links must not occupy shard slots"
            );
            assert!(
                front.reactor.get().expect("reactor spawned").links() >= 12,
                "idle links park on the reactor"
            );
            drop(idle);
            drop(active);
            listener.close();
            let outcomes = pump.join().expect("pump");
            assert_eq!(outcomes.len(), 15, "every accepted link resolves");
            assert!(outcomes.iter().all(Result::is_ok));
        });
        let stats = front.sched_stats();
        assert_eq!(stats.completed, 15);
        // Re-offers after transient saturation count as fresh offers, so
        // the balance invariant is the precise claim here.
        assert_eq!(stats.submitted, stats.completed + stats.rejected);
    }

    #[test]
    fn deferred_link_is_served_the_moment_its_first_byte_lands() {
        // Sequential round trips on an idle deferred front: each link
        // parks, speaks, and must reach a shard at once. A pump that only
        // looked for hand-backs between timed accept polls would floor
        // every round trip at its poll interval.
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let listener = Listener::bind("rtt-svc", 4);
        std::thread::scope(|scope| {
            let pump = scope.spawn(|| front.serve_listener(&listener, 4));
            let mut rtts: Vec<Duration> = (0..21u16)
                .map(|n| {
                    let started = Instant::now();
                    let client = listener
                        .connect(SourceAddr::new([10, 0, 3, 1], 43_000 + n))
                        .expect("connect");
                    client.send(b"go").unwrap();
                    client
                        .recv(RecvTimeout::After(Duration::from_secs(5)))
                        .expect("reply");
                    started.elapsed()
                })
                .collect();
            listener.close();
            assert!(pump.join().expect("pump").iter().all(Result::is_ok));
            rtts.sort_unstable();
            assert!(
                rtts[10] < Duration::from_millis(10),
                "median connect → reply {:?} (all: {rtts:?})",
                rtts[10]
            );
        });
    }

    #[test]
    fn supervised_front_end_waits_out_a_fully_dead_set() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                supervisor: Some(SupervisorConfig {
                    poll_interval: Duration::from_millis(1),
                    backoff_base: Duration::from_millis(1),
                    ..SupervisorConfig::default()
                }),
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        front.kill_shard(0);
        // With every shard dead, an unsupervised front would fail the
        // link permanently; the supervised one blocks until the watchdog
        // revives shard 0 and then serves.
        let (client, server) = wedge_net::duplex_pair("c", "s");
        client.send(b"go").unwrap();
        let outcomes = front.serve_all(vec![server]);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].as_ref().expect("served").shard, 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while front.restart_stats().expect("supervised").restarts == 0 {
            assert!(Instant::now() < deadline, "restart never counted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(front.restart_stats().expect("supervised").restarts, 1);
    }

    #[test]
    fn fully_abandoned_front_end_fails_submissions_instead_of_spinning() {
        // The retained factory fails every respawn: the storm guard must
        // abandon the only shard, after which submissions return an error
        // promptly instead of waiting forever for a revival that cannot
        // come.
        let boots = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let factory_boots = boots.clone();
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 1,
                supervisor: Some(SupervisorConfig {
                    poll_interval: Duration::from_millis(1),
                    backoff_base: Duration::from_millis(1),
                    storm_threshold: 2,
                    ..SupervisorConfig::default()
                }),
                ..FrontEndConfig::default()
            },
            move |_id| {
                if factory_boots.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                    Ok(TagServer)
                } else {
                    Err(WedgeError::InvalidOperation("respawn always fails".into()))
                }
            },
        )
        .expect("front");
        front.kill_shard(0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while front.restart_stats().expect("supervised").storms == 0 {
            assert!(Instant::now() < deadline, "storm guard never tripped");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = front.restart_stats().expect("supervised");
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.failed_restarts, 2, "both respawn attempts failed");
        // serve_all must resolve with an error, not hang. The abandoned
        // set is not shut down, so the error is the uniform shedding
        // signal, not the permanent one.
        let (_client, server) = wedge_net::duplex_pair("late", "s");
        let outcomes = front.serve_all(vec![server]);
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(
            outcomes[0],
            Err(WedgeError::ResourceExhausted { .. })
        ));
    }

    /// The all-dead-ring spec for [`AcceptPolicy::SessionAffinity`]: with
    /// *every* shard killed (not shut down), a submission must fail
    /// deterministically with `ResourceExhausted` — the same shedding
    /// signal saturation produces — without spinning or panicking, for
    /// any affinity key, repeatedly. (The single-dead-shard fallback is
    /// covered by the restart tests in `shard.rs` and the supervised
    /// front-end integration tests.)
    #[test]
    fn session_affinity_on_an_all_dead_ring_sheds_deterministically() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 3,
                policy: AcceptPolicy::SessionAffinity,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        for idx in 0..3 {
            front.kill_shard(idx);
        }
        // Every key — whichever dead shard it hashes to, including the
        // fallback walk finding nothing — fails fast with backpressure.
        for key in [0u64, 1, 7, 0xFEED_F00D, u64::MAX] {
            for _attempt in 0..3 {
                let started = Instant::now();
                let (_client, server) = wedge_net::duplex_pair("dead-ring", "s");
                let err = front.serve_with_key(server, key).unwrap_err();
                assert!(
                    matches!(err, WedgeError::ResourceExhausted { .. }),
                    "all-dead ring must shed with backpressure, got {err:?}"
                );
                assert!(
                    started.elapsed() < Duration::from_secs(1),
                    "shedding must be immediate, not a timeout or a spin"
                );
            }
        }
        let stats = front.sched_stats();
        assert_eq!(stats.submitted, 15);
        assert_eq!(stats.rejected, 15);
        assert_eq!(stats.completed, 0);
        // A revived shard turns the same keys back into served links.
        front.restart_shard(1).expect("revive");
        let (client, server) = wedge_net::duplex_pair("after-revival", "s");
        client.send(b"go").unwrap();
        let report = front.serve_with_key(server, 7).unwrap().join().unwrap();
        assert_eq!(report.shard, 1, "only healthy shard serves everything");
    }

    /// Same all-dead ring driven through the listener batch path: every
    /// accepted connection resolves with an error — no accepted link is
    /// silently dropped and the accept pump terminates.
    #[test]
    fn all_dead_ring_resolves_every_accepted_link_with_an_error() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 2,
                policy: AcceptPolicy::SessionAffinity,
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        front.kill_shard(0);
        front.kill_shard(1);
        let listener = Listener::bind("dead-svc", 16);
        let _clients: Vec<_> = (0..4u8)
            .map(|n| {
                listener
                    .connect(SourceAddr::new([10, 0, 1, n], 41_000))
                    .expect("connect")
            })
            .collect();
        listener.close();
        let outcomes = front.serve_listener(&listener, 4);
        assert_eq!(outcomes.len(), 4, "every accepted link resolves");
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, Err(WedgeError::ResourceExhausted { .. }))));
    }

    #[test]
    fn await_healthy_reports_the_rejoin() {
        let front = ShardedFrontEnd::new(
            FrontEndConfig {
                shards: 2,
                supervisor: Some(SupervisorConfig {
                    poll_interval: Duration::from_millis(1),
                    backoff_base: Duration::from_millis(1),
                    ..SupervisorConfig::default()
                }),
                ..FrontEndConfig::default()
            },
            |_id| Ok(TagServer),
        )
        .expect("front");
        let started = Instant::now();
        front.kill_shard(1);
        assert!(
            front.await_healthy(1, Duration::from_secs(5)),
            "supervisor must revive shard 1"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(front.shard_stats()[1].restarts, 1);
        assert_eq!(front.aggregate_stats().restarts, 1);
    }
}
