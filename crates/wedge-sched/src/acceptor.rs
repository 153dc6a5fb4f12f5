//! The shared acceptor: one front door distributing links over a
//! [`ShardSet`].
//!
//! The acceptor owns no connection state — it only *places* links. Policy
//! picks the preferred shard; placement then walks the remaining shards in
//! ring order, skipping any that refuse (saturated admission quota, full
//! queue, or killed), so a single unhealthy shard degrades capacity
//! instead of availability. Only when **every** shard refuses does a
//! submission fail, with the same [`WedgeError::ResourceExhausted`]
//! backpressure signal the rest of the stack sheds load on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use wedge_core::WedgeError;
use wedge_net::Duplex;
use wedge_telemetry::TelemetryEvent;

use crate::metrics::{SchedCounters, SchedStats};
use crate::shard::{all_shards_exhausted, ShardJob, ShardServer, ShardSet, ShardSetInner};

/// How the acceptor picks each link's preferred shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AcceptPolicy {
    /// Rotate through the shards, one link each.
    #[default]
    RoundRobin,
    /// Prefer the shard with the fewest queued + in-flight links
    /// (ties broken by shard id).
    LeastLoaded,
    /// Hash an affinity key (caller-provided, else the link's endpoint
    /// name) to a shard, so repeat clients land where their warm state
    /// lives. With the shared session cache this is an optimisation, not a
    /// correctness requirement — resumption works on any shard.
    SessionAffinity,
}

/// Handle to a link placed on a shard; resolves to the serving report.
pub struct ShardJobHandle<R> {
    rx: crossbeam::channel::Receiver<Result<R, WedgeError>>,
    shard: usize,
}

impl<R> std::fmt::Debug for ShardJobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardJobHandle")
            .field("shard", &self.shard)
            .finish()
    }
}

impl<R> ShardJobHandle<R> {
    /// The shard the link was initially placed on (a kill may re-route it;
    /// the authoritative serving shard is whatever the report says).
    pub fn placed_on(&self) -> usize {
        self.shard
    }

    /// Block until the link is served. A panicking shard server surfaces
    /// as [`WedgeError::SthreadPanicked`]; a link shed after its shard
    /// died as [`WedgeError::ResourceExhausted`].
    pub fn join(self) -> Result<R, WedgeError> {
        self.rx
            .recv()
            .map_err(|_| WedgeError::InvalidOperation("shard set dropped the link".into()))?
    }

    /// Non-blocking poll; `None` while the link is still queued or being
    /// served.
    pub fn try_join(&self) -> Option<Result<R, WedgeError>> {
        self.rx.try_recv().ok()
    }
}

/// The shared front door over a [`ShardSet`].
pub struct Acceptor<S: ShardServer> {
    pub(crate) inner: Arc<ShardSetInner<S>>,
    policy: AcceptPolicy,
    next: AtomicUsize,
}

impl<S: ShardServer> std::fmt::Debug for Acceptor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Acceptor")
            .field("policy", &self.policy)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl<S: ShardServer> Acceptor<S> {
    /// An acceptor distributing links over `set` with `policy`.
    pub fn new(set: &ShardSet<S>, policy: AcceptPolicy) -> Acceptor<S> {
        Acceptor {
            inner: set.inner().clone(),
            policy,
            next: AtomicUsize::new(0),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> AcceptPolicy {
        self.policy
    }

    /// Front-end-level counters (the same snapshot as
    /// [`ShardSet::stats`]).
    pub fn stats(&self) -> SchedStats {
        self.inner.front_stats()
    }

    /// The shard-probing order for one placement: the policy's preferred
    /// shard first, then the rest of the ring.
    fn order(&self, key: Option<u64>) -> Vec<usize> {
        let n = self.inner.shards.len();
        let start = match self.policy {
            AcceptPolicy::RoundRobin => self.next.fetch_add(1, Ordering::Relaxed) % n,
            AcceptPolicy::LeastLoaded => self
                .inner
                .shards
                .iter()
                .enumerate()
                // Dead shards refuse everything (and drain to depth 0, which
                // would otherwise make them permanently "least loaded").
                .filter(|(_, shard)| shard.health() == crate::shard::ShardHealth::Healthy)
                .min_by_key(|(id, shard)| (shard.depth(), *id))
                .map(|(id, _)| id)
                .unwrap_or(0),
            AcceptPolicy::SessionAffinity => {
                // Rendezvous fallback: when the affinity-hashed shard is
                // dead, deterministically prefer the next *healthy* shard
                // in ring order — every connection carrying this key
                // agrees on the same fallback home (so its warm state
                // accumulates in one place), nothing counts as "stolen",
                // and the moment the hashed shard rejoins the ring the key
                // maps back to it.
                let hashed = shard_for_key(key.unwrap_or(0), n);
                (0..n)
                    .map(|offset| (hashed + offset) % n)
                    .find(|&idx| {
                        self.inner.shards[idx].health() == crate::shard::ShardHealth::Healthy
                    })
                    .unwrap_or(hashed)
            }
        };
        (0..n).map(|offset| (start + offset) % n).collect()
    }

    /// Submit one link, using the link's own affinity key under
    /// [`AcceptPolicy::SessionAffinity`]: the **source address** for links
    /// accepted through a [`wedge_net::Listener`] (repeat clients land on
    /// the shard holding their warm state with zero protocol
    /// cooperation), else a hash of the endpoint name.
    pub fn submit(&self, link: Duplex) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        let key = link.affinity_key();
        self.submit_with_key(link, key)
    }

    /// Submit one link with an explicit affinity key (ignored by the
    /// non-affinity policies). Counts the link once in `submitted`; it
    /// will resolve into exactly one of `completed` or `rejected`.
    pub fn submit_with_key(
        &self,
        link: Duplex,
        key: u64,
    ) -> Result<ShardJobHandle<S::Report>, WedgeError> {
        self.offer(link, key).map_err(|(_link, err)| err)
    }

    /// [`Acceptor::submit_with_key`], but an all-shards-rejected outcome
    /// hands the link back so the caller can retry after backing off
    /// (the front-end's batch drivers need this — a `Duplex` endpoint is
    /// not clonable). Every offer is counted: a link offered three times
    /// before landing contributes 3 to `submitted` and 2 to `rejected`,
    /// so `submitted == completed + rejected` still balances.
    // Handing the whole link back on refusal is the point of this API —
    // a `Duplex` cannot be rebuilt by the caller — so the large Err
    // variant is deliberate.
    #[allow(clippy::result_large_err)]
    pub fn offer(
        &self,
        link: Duplex,
        key: u64,
    ) -> Result<ShardJobHandle<S::Report>, (Duplex, WedgeError)> {
        SchedCounters::bump(&self.inner.aggregate.submitted);
        let (tx, rx) = crossbeam::channel::bounded(1);
        // A link stamped at a traced listener carries its root context;
        // attach the tracer and the submit stamp so the serving shard can
        // close the queue span no matter which worker dequeues it.
        let trace = link.trace().and_then(|lt| {
            let tracer = self.inner.probes.get()?.telemetry.tracer()?;
            let submitted_ns = tracer.now_ns();
            Some(Box::new(crate::shard::JobTrace {
                tracer,
                ctx: lt.ctx,
                root_start_ns: lt.root_start_ns,
                submitted_ns,
            }))
        });
        let job = ShardJob { link, tx, trace };
        let order = self.order(Some(key));
        match self.inner.place(job, &order, false) {
            Ok(position) => {
                if position != 0 {
                    // The preferred shard refused; the link was skipped to
                    // a sibling.
                    SchedCounters::bump(&self.inner.aggregate.stolen);
                }
                if let Some(probes) = self.inner.probes.get() {
                    probes.telemetry.emit_with(|| TelemetryEvent::Placed {
                        shard: order[position],
                        stolen: position != 0,
                    });
                }
                Ok(ShardJobHandle {
                    rx,
                    shard: order[position],
                })
            }
            Err(job) => {
                SchedCounters::bump(&self.inner.aggregate.rejected);
                if let Some(probes) = self.inner.probes.get() {
                    probes
                        .telemetry
                        .emit_with(|| TelemetryEvent::PlacementRejected);
                }
                // Only a *shut-down* set refuses permanently — its workers
                // are joined and gone, so retrying can never succeed. A set
                // whose every shard is killed or saturated sheds with the
                // stack's uniform backpressure signal instead: killed
                // shards are revivable (`restart_shard` / the supervisor),
                // so an all-dead ring is deterministic `ResourceExhausted`,
                // exactly like total saturation.
                let err = if self.inner.shutdown.load(Ordering::SeqCst) {
                    WedgeError::InvalidOperation("shard front-end is shut down".to_string())
                } else {
                    all_shards_exhausted(order.len())
                };
                Err((job.link, err))
            }
        }
    }
}

/// The shard a key maps to under [`AcceptPolicy::SessionAffinity`]
/// (Fibonacci hashing: multiply, then keep the *high* bits — the low bits
/// of the product are barely mixed, so a plain modulo would collapse to
/// `key % shards` for power-of-two shard counts). Public so callers — and
/// tests — can predict placement without duplicating the constant.
pub fn shard_for_key(key: u64, shards: usize) -> usize {
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % shards.max(1) as u64) as usize
}

/// FNV-1a over an endpoint name — a stable affinity key for clients that
/// reconnect under the same name. (Links accepted through a
/// [`wedge_net::Listener`] prefer their source-address key; see
/// [`wedge_net::Duplex::affinity_key`].)
pub fn hash_name(name: &str) -> u64 {
    wedge_net::duplex::fnv1a(name.as_bytes())
}
