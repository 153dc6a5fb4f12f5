//! Sthreads: the compartment API application code programs against.
//!
//! [`SthreadCtx`] is the reproduction's stand-in for "executing inside a
//! compartment": it names the current compartment and forwards every
//! privileged operation (tagged-memory access, descriptor I/O, syscalls,
//! sthread creation, callgate invocation) to the simulated kernel, which
//! checks the compartment's policy. The API mirrors Table 1 of the paper:
//! `sthread_create`/`sthread_join`, `tag_new`/`tag_delete`,
//! `smalloc`/`sfree`, `smalloc_on`/`smalloc_off`,
//! `BOUNDARY_VAR`/`BOUNDARY_TAG`, `sc_*` policy calls (on
//! [`crate::SecurityPolicy`]) and `cgate`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use wedge_telemetry::trace;

use crate::callgate::{downcast_output, CgEntryId, CgInput, CgOutput, TrustedArg};
use crate::error::WedgeError;
use crate::fdtable::FdId;
use crate::kernel::{ChildKind, Kernel, MemReadGuard, PermCache, RecycledWorker};
use crate::memory::SBuf;
use crate::policy::{SecurityPolicy, Uid};
use crate::syscall::Syscall;
use crate::tag::{CompartmentId, MemProt, Tag};

/// Extract a readable message from a panic payload (shared by sthread
/// joins, recycled workers and the `wedge-sched` scheduler).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Marks a compartment as exited when the sthread body finishes or unwinds.
struct ExitGuard {
    kernel: Arc<Kernel>,
    id: CompartmentId,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.kernel.compartment_exited(self.id);
    }
}

/// The execution context of a compartment (an sthread or a callgate
/// activation).
#[derive(Clone)]
pub struct SthreadCtx {
    kernel: Arc<Kernel>,
    id: CompartmentId,
    name: String,
    /// The `smalloc_on` redirection state (per sthread, as in the paper).
    smalloc_redirect: Arc<Mutex<Option<Tag>>>,
    /// Per-sthread permission cache (tag → `MemProt`, fd → `FdProt`),
    /// revalidated against the compartment's policy epoch. Shared by clones
    /// of the same context — they name the same compartment, so sharing
    /// just warms the cache faster.
    perm_cache: Arc<Mutex<PermCache>>,
}

impl std::fmt::Debug for SthreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SthreadCtx")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

impl SthreadCtx {
    pub(crate) fn new(kernel: Arc<Kernel>, id: CompartmentId, name: &str) -> Self {
        let perm_cache = Arc::new(Mutex::new(PermCache::new()));
        kernel.adopt_cache(&perm_cache);
        SthreadCtx {
            kernel,
            id,
            name: name.to_string(),
            smalloc_redirect: Arc::new(Mutex::new(None)),
            perm_cache,
        }
    }

    /// This compartment's identifier.
    pub fn id(&self) -> CompartmentId {
        self.id
    }

    /// This compartment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The simulated kernel this compartment belongs to.
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// The compartment's current policy as stored by the kernel.
    pub fn policy(&self) -> SecurityPolicy {
        self.kernel
            .policy_of(self.id)
            .expect("compartment must exist while its ctx is alive")
    }

    /// The uid this compartment currently runs as.
    pub fn uid(&self) -> Uid {
        self.policy().uid
    }

    // ------------------------------------------------------------------
    // Tagged memory
    // ------------------------------------------------------------------

    /// `tag_new()`: create a tag (a fresh or recycled memory segment). The
    /// creating compartment is granted read-write access.
    pub fn tag_new(&self) -> Result<Tag, WedgeError> {
        self.kernel.tag_new(self.id)
    }

    /// `tag_delete()`: delete a tag and recycle its segment.
    pub fn tag_delete(&self, tag: Tag) -> Result<(), WedgeError> {
        self.kernel.tag_delete(self.id, tag)
    }

    /// `smalloc()`: allocate `size` bytes from the segment with `tag`.
    pub fn smalloc(&self, size: usize, tag: Tag) -> Result<SBuf, WedgeError> {
        self.kernel
            .smalloc_cached(self.id, size, tag, Some(&self.perm_cache))
    }

    /// `sfree()`: free a buffer obtained from `smalloc` / `malloc`.
    pub fn sfree(&self, buf: &SBuf) -> Result<(), WedgeError> {
        self.kernel.sfree(self.id, buf, Some(&self.perm_cache))?;
        self.kernel.emit_free(self.id, buf.tag, buf.offset);
        Ok(())
    }

    /// `malloc()`: the legacy allocation entry point. If `smalloc_on` is
    /// active the allocation is redirected to the designated tag; otherwise
    /// it goes to the compartment's private (untagged) segment, which can
    /// never be granted to another compartment.
    pub fn malloc(&self, size: usize) -> Result<SBuf, WedgeError> {
        let redirect = *self.smalloc_redirect.lock();
        match redirect {
            Some(tag) => self.smalloc(size, tag),
            None => self
                .kernel
                .private_alloc(self.id, size, Some(&self.perm_cache)),
        }
    }

    /// `smalloc_on()`: redirect subsequent `malloc` calls to `tag`.
    pub fn smalloc_on(&self, tag: Tag) {
        *self.smalloc_redirect.lock() = Some(tag);
    }

    /// `smalloc_off()`: stop redirecting `malloc`.
    pub fn smalloc_off(&self) {
        *self.smalloc_redirect.lock() = None;
    }

    /// Is `malloc` redirection currently active, and to which tag?
    pub fn smalloc_state(&self) -> Option<Tag> {
        *self.smalloc_redirect.lock()
    }

    /// Read `len` bytes at `offset` within a tagged buffer.
    #[inline]
    pub fn read(&self, buf: &SBuf, offset: usize, len: usize) -> Result<Vec<u8>, WedgeError> {
        self.kernel
            .mem_read_vec(self.id, buf, offset, len, Some(&self.perm_cache))
    }

    /// Read the whole buffer.
    pub fn read_all(&self, buf: &SBuf) -> Result<Vec<u8>, WedgeError> {
        self.read(buf, 0, buf.len)
    }

    /// Zero-copy read: fill `dst` from the tagged buffer starting at
    /// `offset`. With a warm permission cache and no tracer installed this
    /// performs no heap allocation — the fast path the `fast_path` bench
    /// measures.
    #[inline]
    pub fn read_into(&self, buf: &SBuf, offset: usize, dst: &mut [u8]) -> Result<(), WedgeError> {
        self.kernel
            .mem_read_into(self.id, buf, offset, dst, Some(&self.perm_cache))
    }

    /// Borrowed zero-copy read: the returned guard dereferences to the
    /// buffer's bytes without copying them out of kernel memory. The guard
    /// holds the segment shard's read lock — keep it short-lived, and make
    /// no other kernel calls from this thread while holding it (writes,
    /// allocations, frees, tag lifecycle, scrubs, even further reads): tags
    /// hash across 16 shards, so any of those can collide with this shard's
    /// lock and self-deadlock. Read, drop the guard, then continue.
    pub fn read_guard(&self, buf: &SBuf) -> Result<MemReadGuard<'_>, WedgeError> {
        self.kernel
            .mem_read_guard(self.id, buf, 0, buf.len, Some(&self.perm_cache))
    }

    /// Write `data` at `offset` within a tagged buffer.
    pub fn write(&self, buf: &SBuf, offset: usize, data: &[u8]) -> Result<(), WedgeError> {
        self.kernel
            .mem_write_cached(self.id, buf, offset, data, Some(&self.perm_cache))
    }

    /// Allocate a tagged buffer and initialise it with `data`.
    pub fn smalloc_init(&self, tag: Tag, data: &[u8]) -> Result<SBuf, WedgeError> {
        let buf = self.smalloc(data.len().max(1), tag)?;
        if !data.is_empty() {
            self.write(&buf, 0, data)?;
        }
        Ok(buf)
    }

    // ------------------------------------------------------------------
    // Globals / boundary variables
    // ------------------------------------------------------------------

    /// Read a snapshot global (every compartment holds a COW view).
    pub fn global_read(&self, name: &str) -> Result<Vec<u8>, WedgeError> {
        self.kernel
            .global_read(self.id, name, Some(&self.perm_cache))
    }

    /// Write this compartment's COW view of a snapshot global.
    pub fn global_write(&self, name: &str, value: &[u8]) -> Result<(), WedgeError> {
        self.kernel
            .global_write(self.id, name, value, Some(&self.perm_cache))
    }

    /// `BOUNDARY_VAR`: declare a global protected by the boundary tag
    /// `boundary_id` instead of living in the default snapshot.
    pub fn boundary_var(
        &self,
        name: &str,
        initial: &[u8],
        boundary_id: u32,
    ) -> Result<SBuf, WedgeError> {
        self.kernel
            .boundary_var(self.id, name, initial, boundary_id)
    }

    /// `BOUNDARY_TAG`: the tag protecting globals declared with
    /// `boundary_id`.
    pub fn boundary_tag(&self, boundary_id: u32) -> Result<Tag, WedgeError> {
        self.kernel.boundary_tag(boundary_id)
    }

    /// The tagged buffer behind a boundary global.
    pub fn boundary_buf(&self, name: &str) -> Result<SBuf, WedgeError> {
        self.kernel.boundary_buf(name)
    }

    // ------------------------------------------------------------------
    // File descriptors and syscalls
    // ------------------------------------------------------------------

    /// Create a file-backed descriptor; the creator gets read-write access.
    pub fn fd_create_file(&self, name: &str, data: &[u8]) -> Result<FdId, WedgeError> {
        self.kernel.fd_create_file(self.id, name, data.to_vec())
    }

    /// Create a stream-backed descriptor; the creator gets read-write
    /// access.
    pub fn fd_create_stream(&self, name: &str) -> Result<FdId, WedgeError> {
        self.kernel.fd_create_stream(self.id, name)
    }

    /// Read up to `len` bytes from a descriptor.
    pub fn fd_read(&self, fd: FdId, len: usize) -> Result<Vec<u8>, WedgeError> {
        self.kernel
            .fd_read_cached(self.id, fd, len, Some(&self.perm_cache))
    }

    /// Read everything currently available on a descriptor.
    pub fn fd_read_all(&self, fd: FdId) -> Result<Vec<u8>, WedgeError> {
        self.fd_read(fd, usize::MAX / 2)
    }

    /// Write bytes to a descriptor.
    pub fn fd_write(&self, fd: FdId, data: &[u8]) -> Result<usize, WedgeError> {
        self.kernel
            .fd_write_cached(self.id, fd, data, Some(&self.perm_cache))
    }

    /// Check a system call against this compartment's allow-list.
    pub fn syscall(&self, syscall: Syscall) -> Result<(), WedgeError> {
        self.kernel.syscall_check(self.id, syscall)
    }

    // ------------------------------------------------------------------
    // Crowbar instrumentation helpers
    // ------------------------------------------------------------------

    /// Record a function entry for Crowbar's shadow backtraces; the returned
    /// guard records the exit when dropped.
    pub fn trace_fn(&self, function: &str) -> FrameGuard {
        self.kernel.emit_call(self.id, function, true);
        FrameGuard {
            ctx: self.clone(),
            function: function.to_string(),
        }
    }

    // ------------------------------------------------------------------
    // Sthreads
    // ------------------------------------------------------------------

    /// `sthread_create()`: spawn a new compartment running `body` under
    /// `policy`. The policy must not exceed this compartment's privileges.
    pub fn sthread_create<R, F>(
        &self,
        name: &str,
        policy: &SecurityPolicy,
        body: F,
    ) -> Result<SthreadHandle<R>, WedgeError>
    where
        R: Send + 'static,
        F: FnOnce(&SthreadCtx) -> R + Send + 'static,
    {
        let child_id = self
            .kernel
            .register_child(self.id, name, policy, ChildKind::Sthread)?;
        let child_ctx = SthreadCtx::new(self.kernel.clone(), child_id, name);
        let kernel = self.kernel.clone();
        // Request traces follow the work: a child sthread spawned while
        // serving a traced request inherits the caller's ambient trace.
        let parent_trace = trace::current();
        let join = thread::spawn(move || {
            let _trace = parent_trace.map(trace::push);
            let _guard = ExitGuard {
                kernel,
                id: child_id,
            };
            body(&child_ctx)
        });
        Ok(SthreadHandle {
            id: child_id,
            join: Some(join),
        })
    }

    /// Change another compartment's uid / filesystem root. Only permitted if
    /// this compartment runs as root — the idiom used by authentication
    /// callgates to "log the user in".
    pub fn transition_identity(
        &self,
        target: CompartmentId,
        new_uid: Uid,
        new_fs_root: Option<&str>,
    ) -> Result<(), WedgeError> {
        self.kernel
            .transition_identity(self.id, target, new_uid, new_fs_root)
    }

    /// Add a runtime memory grant to another compartment's policy
    /// (`policy_add`). This compartment must itself hold a grant on `tag`
    /// that allows delegating `prot` (or be unconfined); private tags can
    /// never be granted. The target's permission cache revalidates on its
    /// next access.
    pub fn grant_mem(
        &self,
        target: CompartmentId,
        tag: Tag,
        prot: MemProt,
    ) -> Result<(), WedgeError> {
        self.kernel.policy_add(self.id, target, tag, prot)
    }

    /// Revoke a memory grant from another compartment's policy
    /// (`policy_del`). Permitted for the unconfined root, the target's
    /// parent, or the target itself. Once this returns, no access that
    /// starts afterwards can succeed through a stale cached grant — the
    /// epoch bump forces every per-sthread cache to revalidate.
    pub fn revoke_mem(&self, target: CompartmentId, tag: Tag) -> Result<(), WedgeError> {
        self.kernel.policy_del(self.id, target, tag)
    }

    // ------------------------------------------------------------------
    // Callgates
    // ------------------------------------------------------------------

    /// `cgate()`: invoke a callgate this compartment has been granted. The
    /// callgate runs as a separate compartment with *its own* permissions
    /// (plus `extra` argument-reading grants, which must be a subset of the
    /// caller's); the caller blocks until it returns.
    pub fn cgate(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<CgOutput, WedgeError> {
        let prepared = self.kernel.cgate_prepare(self.id, entry, extra, false)?;
        let gate_name = self
            .kernel
            .cgate_name(entry)
            .unwrap_or_else(|| format!("entry{}", entry.0));
        let act_name = format!("cgate:{gate_name}");
        let act_id = self.kernel.register_child(
            prepared.creator,
            &act_name,
            &prepared.policy,
            ChildKind::Activation,
        )?;
        let act_ctx = SthreadCtx::new(self.kernel.clone(), act_id, &act_name);
        let entry_fn = prepared.entry_fn;
        let trusted = prepared.trusted;
        let kernel = self.kernel.clone();
        let parent_trace = trace::current();
        let join = thread::spawn(move || {
            let _trace = parent_trace.map(trace::push);
            let _guard = ExitGuard { kernel, id: act_id };
            entry_fn(&act_ctx, trusted.as_ref(), input)
        });
        match join.join() {
            Ok(result) => result,
            Err(payload) => Err(WedgeError::SthreadPanicked(panic_message(payload))),
        }
    }

    /// Invoke a callgate and downcast its result to `T`.
    pub fn cgate_expect<T: std::any::Any>(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<T, WedgeError> {
        downcast_output(self.cgate(entry, extra, input)?)
    }

    /// Invoke a *recycled* callgate: the first invocation creates a
    /// long-lived worker compartment; later invocations reuse it, paying
    /// only a message round trip (the paper's futex fast path). Extra
    /// argument grants widen the worker's policy monotonically — the
    /// isolation-for-throughput trade-off §3.3 warns about.
    pub fn cgate_recycled(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<CgOutput, WedgeError> {
        let prepared = self.kernel.cgate_prepare(self.id, entry, extra, true)?;
        // Recycled workers are keyed by (creator, entry): as in the paper,
        // a recycled callgate is a long-lived sthread that successive
        // callers — potentially acting for different principals — reuse.
        let worker_key = prepared.creator;
        let worker = match self.kernel.recycled_worker(worker_key, entry) {
            Some(worker) => {
                self.kernel.widen_policy(worker.activation, extra);
                worker
            }
            None => {
                let gate_name = self
                    .kernel
                    .cgate_name(entry)
                    .unwrap_or_else(|| format!("entry{}", entry.0));
                let act_name = format!("recycled:{gate_name}");
                let act_id = self.kernel.register_child(
                    prepared.creator,
                    &act_name,
                    &prepared.policy,
                    ChildKind::Activation,
                )?;
                let act_ctx = SthreadCtx::new(self.kernel.clone(), act_id, &act_name);
                let worker = spawn_worker_loop(
                    self.kernel.clone(),
                    act_ctx,
                    prepared.entry_fn.clone(),
                    prepared.trusted.clone(),
                );
                self.kernel
                    .store_recycled_worker(worker_key, entry, worker.clone());
                worker
            }
        };
        let _serialise = worker.call_lock.lock();
        worker
            .tx
            .send((input, trace::current()))
            .map_err(|_| WedgeError::InvalidOperation("recycled callgate worker exited".into()))?;
        worker
            .rx
            .recv()
            .map_err(|_| WedgeError::InvalidOperation("recycled callgate worker exited".into()))?
    }

    /// Invoke a recycled callgate and downcast its result to `T`.
    pub fn cgate_recycled_expect<T: std::any::Any>(
        &self,
        entry: CgEntryId,
        extra: &SecurityPolicy,
        input: CgInput,
    ) -> Result<T, WedgeError> {
        downcast_output(self.cgate_recycled(entry, extra, input)?)
    }

    /// Spawn a *pooled* recycled worker: a long-lived sthread running
    /// `entry`'s code under `policy`, owned by the caller instead of being
    /// stored in the kernel's per-`(creator, entry)` slot. Pools of these
    /// workers are what `wedge-sched` checks out per connection.
    ///
    /// An **unconfined** caller plays the role a `sc_cgate_add` creator
    /// plays for ordinary callgates: it chooses the worker's policy
    /// (subset-validated) and the kernel-held trusted argument. A
    /// **confined** caller may only pre-warm workers for entries it was
    /// granted via `sc_cgate_add`, and the worker then runs with the
    /// *instance's* creator-fixed policy and trusted argument — the caller
    /// cannot substitute its own (callers can neither read nor replace a
    /// trusted argument, §3.3), so `policy` must be `deny_all` and `trusted`
    /// must be `None` on that path. Unlike [`SthreadCtx::cgate_recycled`],
    /// nothing here widens the worker's policy per call — a pooled worker's
    /// privileges are fixed at pre-warm time.
    pub fn recycled_worker_spawn(
        &self,
        entry: CgEntryId,
        policy: &SecurityPolicy,
        trusted: Option<TrustedArg>,
    ) -> Result<RecycledWorkerHandle, WedgeError> {
        let entry_fn = self
            .kernel
            .cgate_entry_fn(entry)
            .ok_or(WedgeError::UnknownCallgate(entry))?;
        let gate_name = self
            .kernel
            .cgate_name(entry)
            .unwrap_or_else(|| format!("entry{}", entry.0));
        let act_name = format!("pooled:{gate_name}");
        let act_id;
        let worker_trusted;
        if self.policy().is_unconfined() {
            // The caller is the trusted creator: its policy choice is
            // subset-validated like any child sthread, and it supplies the
            // trusted argument.
            act_id = self
                .kernel
                .register_child(self.id, &act_name, policy, ChildKind::Sthread)?;
            worker_trusted = trusted;
        } else {
            // A confined caller runs the gate exactly as granted: the
            // kernel-stored instance fixes both policy and trusted argument.
            let prepared =
                self.kernel
                    .cgate_prepare(self.id, entry, &SecurityPolicy::deny_all(), false)?;
            let baseline = SecurityPolicy::deny_all();
            let policy_deviates = !policy.mem_grants().is_empty()
                || !policy.fd_grants().is_empty()
                || !policy.callgate_grants().is_empty()
                || policy.is_unconfined()
                || policy.uid != baseline.uid
                || policy.fs_root != baseline.fs_root
                || policy.syscalls != baseline.syscalls;
            if trusted.is_some() || policy_deviates {
                return Err(WedgeError::PrivilegeEscalation {
                    detail: "pooled workers for a granted gate run with the creator's \
                             policy and trusted argument; pass deny_all and None"
                        .to_string(),
                });
            }
            act_id = self.kernel.register_child(
                prepared.creator,
                &act_name,
                &prepared.policy,
                ChildKind::PooledWorker,
            )?;
            worker_trusted = prepared.trusted;
        }
        let act_ctx = SthreadCtx::new(self.kernel.clone(), act_id, &act_name);
        // The stored policy (after uid/fs_root inheritance) is the scrub
        // baseline: checkin resets the worker to exactly this.
        let baseline = self.kernel.policy_of(act_id)?;
        let worker = spawn_worker_loop(self.kernel.clone(), act_ctx, entry_fn, worker_trusted);
        Ok(RecycledWorkerHandle {
            kernel: self.kernel.clone(),
            entry,
            baseline,
            worker,
        })
    }
}

/// Start the long-lived thread behind a recycled worker: a loop that
/// receives inputs, runs the entry function inside the activation
/// compartment (catching panics), and sends results back.
fn spawn_worker_loop(
    kernel: Arc<Kernel>,
    act_ctx: SthreadCtx,
    entry_fn: crate::callgate::CallgateFn,
    trusted: Option<TrustedArg>,
) -> Arc<RecycledWorker> {
    let act_id = act_ctx.id();
    let (in_tx, in_rx) =
        crossbeam::channel::unbounded::<(CgInput, Option<wedge_telemetry::ActiveTrace>)>();
    let (out_tx, out_rx) = crossbeam::channel::unbounded::<Result<CgOutput, WedgeError>>();
    let loop_kernel = kernel.clone();
    thread::spawn(move || {
        while let Ok((input, caller_trace)) = in_rx.recv() {
            // Each invocation runs under the *invoking* request's trace —
            // the worker thread itself is long-lived and trace-less.
            let _trace = caller_trace.map(trace::push);
            let result = catch_unwind(AssertUnwindSafe(|| {
                entry_fn(&act_ctx, trusted.as_ref(), input)
            }))
            .unwrap_or_else(|payload| Err(WedgeError::SthreadPanicked(panic_message(payload))));
            if out_tx.send(result).is_err() {
                break;
            }
        }
        loop_kernel.compartment_exited(act_id);
    });
    Arc::new(RecycledWorker {
        call_lock: Mutex::new(()),
        tx: in_tx,
        rx: out_rx,
        activation: act_id,
    })
}

/// Owner handle to a pooled recycled worker (see
/// [`SthreadCtx::recycled_worker_spawn`]). Dropping the handle shuts the
/// worker down: its input channel closes, the loop exits, and the kernel
/// marks the activation compartment as exited.
pub struct RecycledWorkerHandle {
    kernel: Arc<Kernel>,
    entry: CgEntryId,
    /// The spawn-time policy [`RecycledWorkerHandle::scrub`] resets to.
    baseline: SecurityPolicy,
    worker: Arc<RecycledWorker>,
}

impl std::fmt::Debug for RecycledWorkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecycledWorkerHandle")
            .field("entry", &self.entry)
            .field("activation", &self.worker.activation)
            .finish()
    }
}

impl RecycledWorkerHandle {
    /// The worker's long-lived activation compartment.
    pub fn activation(&self) -> CompartmentId {
        self.worker.activation
    }

    /// The callgate entry this worker runs.
    pub fn entry(&self) -> CgEntryId {
        self.entry
    }

    /// Invoke the worker: send `input`, block for the result. Concurrent
    /// invocations of the same worker are serialised, exactly like the
    /// single-slot recycled fast path.
    pub fn invoke(&self, input: CgInput) -> Result<CgOutput, WedgeError> {
        let _serialise = self.worker.call_lock.lock();
        self.kernel.note_recycled_invocation();
        self.worker
            .tx
            .send((input, trace::current()))
            .map_err(|_| WedgeError::InvalidOperation("pooled worker exited".into()))?;
        self.worker
            .rx
            .recv()
            .map_err(|_| WedgeError::InvalidOperation("pooled worker exited".into()))?
    }

    /// Invoke the worker and downcast its result to `T`.
    pub fn invoke_expect<T: std::any::Any>(&self, input: CgInput) -> Result<T, WedgeError> {
        downcast_output(self.invoke(input)?)
    }

    /// Zeroize the worker's per-principal state between principals: every
    /// segment it created (private scratch *and* tags from `tag_new`) is
    /// wiped and recycled, every copy-on-write view it accumulated is
    /// dropped, and its policy is reset to the spawn-time baseline (undoing
    /// the implicit grants `tag_new`/`fd_create` add). This is the
    /// pool-checkin mitigation for the §3.3 recycled-callgate residue leak.
    pub fn scrub(&self) -> Result<(), WedgeError> {
        // Serialise against invoke(): scrubbing under a running gate would
        // either fault the gate (segments vanish mid-call) or, worse, let
        // the gate stash post-scrub residue for the next principal.
        let _serialise = self.worker.call_lock.lock();
        self.kernel
            .scrub_compartment(self.worker.activation, &self.baseline)
    }
}

/// RAII guard recording a function exit for Crowbar backtraces.
pub struct FrameGuard {
    ctx: SthreadCtx,
    function: String,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        self.ctx
            .kernel
            .emit_call(self.ctx.id, &self.function, false);
    }
}

/// Handle to a running sthread; `join` retrieves the body's return value
/// (the analogue of `sthread_join`).
pub struct SthreadHandle<R> {
    id: CompartmentId,
    join: Option<thread::JoinHandle<R>>,
}

impl<R> SthreadHandle<R> {
    /// The spawned compartment's id.
    pub fn id(&self) -> CompartmentId {
        self.id
    }

    /// Wait for the sthread to finish and collect its return value. A panic
    /// in the sthread body surfaces as [`WedgeError::SthreadPanicked`].
    pub fn join(mut self) -> Result<R, WedgeError> {
        let handle = self
            .join
            .take()
            .ok_or_else(|| WedgeError::InvalidOperation("sthread already joined".into()))?;
        handle
            .join()
            .map_err(|payload| WedgeError::SthreadPanicked(panic_message(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgate::typed_entry;
    use crate::callgate::TrustedArg;
    use crate::policy::SecurityPolicy;
    use crate::tag::MemProt;
    use crate::Wedge;

    #[test]
    fn default_deny_child_cannot_read_parents_tag() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let secret = root.smalloc_init(tag, b"rsa-private-key").unwrap();

        let handle = root
            .sthread_create("worker", &SecurityPolicy::deny_all(), move |ctx| {
                ctx.read(&secret, 0, 15)
            })
            .unwrap();
        let result = handle.join().unwrap();
        assert!(matches!(result, Err(WedgeError::ProtectionFault { .. })));
    }

    #[test]
    fn granted_child_reads_but_cannot_escalate_to_write() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let buf = root.smalloc_init(tag, b"configuration").unwrap();

        let mut policy = SecurityPolicy::deny_all();
        policy.sc_mem_add(tag, MemProt::Read);
        let handle = root
            .sthread_create("reader", &policy, move |ctx| {
                let read = ctx.read(&buf, 0, 13)?;
                let write_attempt = ctx.write(&buf, 0, b"overwritten!!");
                Ok::<_, WedgeError>((read, write_attempt.is_err()))
            })
            .unwrap();
        let (read, write_denied) = handle.join().unwrap().unwrap();
        assert_eq!(read, b"configuration");
        assert!(write_denied);
    }

    #[test]
    fn child_cannot_spawn_grandchild_with_more_privileges() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();

        let mut child_policy = SecurityPolicy::deny_all();
        child_policy.sc_mem_add(tag, MemProt::Read);
        let handle = root
            .sthread_create("child", &child_policy, move |ctx| {
                let mut grandchild = SecurityPolicy::deny_all();
                grandchild.sc_mem_add(tag, MemProt::ReadWrite);
                ctx.sthread_create("grandchild", &grandchild, |_ctx| ())
                    .map(|_| ())
            })
            .unwrap();
        let result = handle.join().unwrap();
        assert!(matches!(
            result,
            Err(WedgeError::PrivilegeEscalation { .. })
        ));
    }

    #[test]
    fn sthread_panics_are_reported() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let handle = root
            .sthread_create("crasher", &SecurityPolicy::deny_all(), |_ctx| {
                panic!("exploit crashed the worker");
            })
            .unwrap();
        match handle.join() {
            Err(WedgeError::SthreadPanicked(msg)) => assert!(msg.contains("exploit")),
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn malloc_respects_smalloc_on_redirection() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();

        // Without redirection: private allocation.
        let private = root.malloc(16).unwrap();
        assert!(root.kernel().is_private_tag(private.tag));

        // With redirection: allocation lands in the designated tag.
        root.smalloc_on(tag);
        let redirected = root.malloc(16).unwrap();
        assert_eq!(redirected.tag, tag);
        root.smalloc_off();
        let private_again = root.malloc(16).unwrap();
        assert!(root.kernel().is_private_tag(private_again.tag));
        assert_eq!(root.smalloc_state(), None);
    }

    #[test]
    fn callgate_runs_with_its_own_privileges() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let key_tag = root.tag_new().unwrap();
        let key = root.smalloc_init(key_tag, b"private-key-bytes").unwrap();

        // The callgate may read the key and returns only its length.
        let entry = wedge.kernel().cgate_register(
            "key_len",
            typed_entry(move |ctx, trusted, _input: ()| {
                let key_buf = trusted
                    .and_then(|t| t.downcast::<SBuf>())
                    .copied()
                    .expect("trusted arg is the key buffer");
                let key = ctx.read_all(&key_buf)?;
                Ok(key.len())
            }),
        );

        let mut cg_policy = SecurityPolicy::deny_all();
        cg_policy.sc_mem_add(key_tag, MemProt::Read);
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_cgate_add(entry, cg_policy, Some(TrustedArg::new(key)));

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                // The worker itself cannot read the key...
                let direct = ctx.read(&key, 0, 5);
                // ...but may learn its length through the callgate.
                let len =
                    ctx.cgate_expect::<usize>(entry, &SecurityPolicy::deny_all(), Box::new(()))?;
                Ok::<_, WedgeError>((direct.is_err(), len))
            })
            .unwrap();
        let (direct_denied, len) = handle.join().unwrap().unwrap();
        assert!(direct_denied);
        assert_eq!(len, b"private-key-bytes".len());
    }

    #[test]
    fn callgate_invocation_requires_a_grant() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, _i: ()| Ok(0u32)));

        // Worker policy does NOT include the callgate.
        let handle = root
            .sthread_create("worker", &SecurityPolicy::deny_all(), move |ctx| {
                ctx.cgate(entry, &SecurityPolicy::deny_all(), Box::new(()))
                    .map(|_| ())
            })
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WedgeError::CallgateDenied { .. })
        ));
    }

    #[test]
    fn extra_argument_grants_must_be_subset_of_caller() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let arg_tag = root.tag_new().unwrap();
        let secret_tag = root.tag_new().unwrap();
        let _secret = root.smalloc_init(secret_tag, b"secret").unwrap();

        let entry = wedge
            .kernel()
            .cgate_register("consume", typed_entry(|_ctx, _t, _i: ()| Ok(())));

        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_mem_add(arg_tag, MemProt::ReadWrite);
        worker_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                // Granting the callgate access to a tag the worker itself
                // cannot touch must be refused.
                let mut extra = SecurityPolicy::deny_all();
                extra.sc_mem_add(secret_tag, MemProt::Read);
                let escalate = ctx.cgate(entry, &extra, Box::new(()));
                // Granting access to the worker's own argument tag is fine.
                let mut ok_extra = SecurityPolicy::deny_all();
                ok_extra.sc_mem_add(arg_tag, MemProt::Read);
                let ok = ctx.cgate(entry, &ok_extra, Box::new(()));
                (escalate.is_err(), ok.is_ok())
            })
            .unwrap();
        let (escalation_refused, legitimate_ok) = handle.join().unwrap();
        assert!(escalation_refused);
        assert!(legitimate_ok);
    }

    #[test]
    fn recycled_callgates_reuse_a_worker() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("increment", typed_entry(|_ctx, _t, n: u64| Ok(n + 1)));
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                let mut results = Vec::new();
                for i in 0..5u64 {
                    results.push(
                        ctx.cgate_recycled_expect::<u64>(
                            entry,
                            &SecurityPolicy::deny_all(),
                            Box::new(i),
                        )
                        .unwrap(),
                    );
                }
                results
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), vec![1, 2, 3, 4, 5]);
        let stats = wedge.kernel().stats();
        assert_eq!(stats.recycled_invocations, 5);
        // Only one activation compartment was ever created for the gate.
        assert_eq!(stats.callgate_invocations, 1);
    }

    #[test]
    fn recycled_calls_publish_only_widens_that_add_a_grant() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let kernel = wedge.kernel().clone();
        let arg_tag = root.tag_new().unwrap();
        let arg = root.smalloc_init(arg_tag, b"argument").unwrap();
        let entry = kernel.cgate_register(
            "read_arg",
            typed_entry(|ctx, _t, arg: Option<SBuf>| match arg {
                Some(buf) => ctx.read_all(&buf),
                None => Ok(Vec::new()),
            }),
        );
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_mem_add(arg_tag, MemProt::Read);
        worker_policy.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);

        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                let call = |extra: &SecurityPolicy, input: Option<SBuf>| {
                    ctx.cgate_recycled_expect::<Vec<u8>>(entry, extra, Box::new(input))
                };
                let tail = || kernel.oplog_stats().expect("op-log tier").tail;
                let none = SecurityPolicy::deny_all();
                call(&none, None).unwrap();
                let before = tail();
                for _ in 0..100 {
                    call(&none, None).unwrap();
                }
                let after_noops = tail();
                let ungranted = call(&none, Some(arg));
                let mut grant = SecurityPolicy::deny_all();
                grant.sc_mem_add(arg_tag, MemProt::Read);
                let granted = call(&grant, Some(arg)).unwrap();
                (before, after_noops, ungranted.is_err(), granted, tail())
            })
            .unwrap();
        let (before, after_noops, ungranted_refused, granted, after_grant) = handle.join().unwrap();
        assert_eq!(after_noops, before, "no-op widens must not reach the log");
        assert!(ungranted_refused, "the gate cannot read the argument yet");
        assert_eq!(granted, b"argument", "the published grant is usable");
        assert!(after_grant > after_noops, "a real grant is published");
    }

    #[test]
    fn trusted_argument_is_not_forgeable_by_caller() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge.kernel().cgate_register(
            "reveal_trusted",
            typed_entry(|_ctx, trusted, _caller_input: String| {
                Ok(trusted
                    .and_then(|t| t.downcast::<String>())
                    .cloned()
                    .unwrap_or_default())
            }),
        );
        let mut worker_policy = SecurityPolicy::deny_all();
        worker_policy.sc_cgate_add(
            entry,
            SecurityPolicy::deny_all(),
            Some(TrustedArg::new(String::from("creator-chosen"))),
        );
        let handle = root
            .sthread_create("worker", &worker_policy, move |ctx| {
                // The caller supplies its own input, but the trusted value the
                // callgate sees is the creator's, fetched from the kernel.
                ctx.cgate_expect::<String>(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Box::new("attacker-chosen".to_string()),
                )
                .unwrap()
            })
            .unwrap();
        assert_eq!(handle.join().unwrap(), "creator-chosen");
    }

    #[test]
    fn pooled_worker_invokes_and_scrub_erases_private_residue() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let stash: Arc<parking_lot::Mutex<Option<crate::SBuf>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let stash_for_gate = stash.clone();
        let entry = wedge.kernel().cgate_register(
            "stash_or_dump",
            typed_entry(move |ctx, _t, input: Vec<u8>| {
                let mut stash = stash_for_gate.lock();
                if input.is_empty() {
                    // Dump whatever the previous invocation left in scratch.
                    return Ok(match stash.as_ref() {
                        Some(prev) => ctx.read_all(prev).unwrap_or_default(),
                        None => Vec::new(),
                    });
                }
                let scratch = ctx.malloc(input.len())?;
                ctx.write(&scratch, 0, &input)?;
                *stash = Some(scratch);
                Ok(Vec::<u8>::new())
            }),
        );

        let worker = root
            .recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
            .unwrap();
        worker
            .invoke_expect::<Vec<u8>>(Box::new(b"principal-a secret".to_vec()))
            .unwrap();
        // Without a scrub the residue is visible (the §3.3 trade-off).
        let leaked = worker
            .invoke_expect::<Vec<u8>>(Box::new(Vec::<u8>::new()))
            .unwrap();
        assert_eq!(leaked, b"principal-a secret");

        // After a scrub (pool checkin) the residue is gone.
        worker.scrub().unwrap();
        let leaked = worker
            .invoke_expect::<Vec<u8>>(Box::new(Vec::<u8>::new()))
            .unwrap();
        assert!(
            leaked.is_empty(),
            "scrub must erase residue, got {leaked:?}"
        );

        let stats = wedge.kernel().stats();
        assert_eq!(stats.private_scrubs, 1);
        assert_eq!(stats.recycled_invocations, 3);
    }

    #[test]
    fn pooled_worker_policy_is_subset_validated() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let tag = root.tag_new().unwrap();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, _i: ()| Ok(0u8)));

        // A confined sthread *with* the gate grant still cannot pre-warm a
        // worker holding a memory grant the sthread itself lacks.
        let mut granted = SecurityPolicy::deny_all();
        granted.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);
        let handle = root
            .sthread_create("confined-granted", &granted, move |ctx| {
                let mut wanted = SecurityPolicy::deny_all();
                wanted.sc_mem_add(tag, MemProt::Read);
                ctx.recycled_worker_spawn(entry, &wanted, None).map(|_| ())
            })
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WedgeError::PrivilegeEscalation { .. })
        ));

        // Unknown entries are refused.
        assert!(matches!(
            root.recycled_worker_spawn(crate::CgEntryId(9999), &SecurityPolicy::deny_all(), None),
            Err(WedgeError::UnknownCallgate(_))
        ));
    }

    #[test]
    fn pooled_worker_spawn_requires_a_callgate_grant() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, n: u64| Ok(n)));

        // A confined sthread without sc_cgate_add for the entry cannot run
        // its code through a pooled worker (would bypass CallgateDenied).
        let handle = root
            .sthread_create("ungranted", &SecurityPolicy::deny_all(), move |ctx| {
                ctx.recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
                    .map(|_| ())
            })
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WedgeError::CallgateDenied { .. })
        ));

        // With the grant, the same spawn succeeds.
        let mut granted = SecurityPolicy::deny_all();
        granted.sc_cgate_add(entry, SecurityPolicy::deny_all(), None);
        let handle = root
            .sthread_create("granted", &granted, move |ctx| {
                let worker = ctx.recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)?;
                worker.invoke_expect::<u64>(Box::new(7u64))
            })
            .unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn pooled_worker_trusted_argument_is_not_forgeable_by_granted_caller() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge.kernel().cgate_register(
            "reveal_trusted",
            typed_entry(|_ctx, trusted, _i: ()| {
                Ok(trusted
                    .and_then(|t| t.downcast::<String>())
                    .cloned()
                    .unwrap_or_default())
            }),
        );
        let mut granted = SecurityPolicy::deny_all();
        granted.sc_cgate_add(
            entry,
            SecurityPolicy::deny_all(),
            Some(TrustedArg::new(String::from("creator-chosen"))),
        );
        let handle = root
            .sthread_create("granted", &granted, move |ctx| {
                // Supplying a forged trusted argument is refused outright...
                let forged = ctx.recycled_worker_spawn(
                    entry,
                    &SecurityPolicy::deny_all(),
                    Some(TrustedArg::new(String::from("attacker-chosen"))),
                );
                let forged_refused = matches!(forged, Err(WedgeError::PrivilegeEscalation { .. }));
                // ...and the legitimate spawn sees the creator's value.
                let worker = ctx
                    .recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
                    .unwrap();
                let seen = worker.invoke_expect::<String>(Box::new(())).unwrap();
                (forged_refused, seen)
            })
            .unwrap();
        let (forged_refused, seen) = handle.join().unwrap();
        assert!(forged_refused);
        assert_eq!(seen, "creator-chosen");
    }

    #[test]
    fn scrub_wipes_worker_created_tagged_segments_and_resets_policy() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let stash: Arc<parking_lot::Mutex<Option<crate::SBuf>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let stash_for_gate = stash.clone();
        // The gate stashes secrets in a tag it creates itself (not private
        // scratch) — the sneakier §3.3 residue channel.
        let entry = wedge.kernel().cgate_register(
            "tagged_stash_or_dump",
            typed_entry(move |ctx, _t, input: Vec<u8>| {
                let mut stash = stash_for_gate.lock();
                if input.is_empty() {
                    return Ok(match stash.as_ref() {
                        Some(prev) => ctx.read_all(prev).unwrap_or_default(),
                        None => Vec::new(),
                    });
                }
                let tag = ctx.tag_new()?;
                let buf = ctx.smalloc_init(tag, &input)?;
                *stash = Some(buf);
                Ok(Vec::<u8>::new())
            }),
        );
        let worker = root
            .recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
            .unwrap();
        worker
            .invoke_expect::<Vec<u8>>(Box::new(b"tagged secret".to_vec()))
            .unwrap();
        let leaked = worker
            .invoke_expect::<Vec<u8>>(Box::new(Vec::<u8>::new()))
            .unwrap();
        assert_eq!(leaked, b"tagged secret", "residue visible before scrub");

        let policy_before = wedge.kernel().policy_of(worker.activation()).unwrap();
        assert!(
            !policy_before.mem_grants().is_empty(),
            "tag_new granted the worker RW on its stash tag"
        );
        worker.scrub().unwrap();
        let leaked = worker
            .invoke_expect::<Vec<u8>>(Box::new(Vec::<u8>::new()))
            .unwrap();
        assert!(leaked.is_empty(), "scrub must wipe worker-created tags");
        // The implicit tag grant was rolled back to the spawn baseline.
        let policy_after = wedge.kernel().policy_of(worker.activation()).unwrap();
        assert!(policy_after.mem_grants().is_empty());
    }

    #[test]
    fn dropping_a_pooled_worker_handle_exits_its_compartment() {
        let wedge = Wedge::init();
        let root = wedge.root();
        let entry = wedge
            .kernel()
            .cgate_register("noop", typed_entry(|_ctx, _t, n: u64| Ok(n)));
        let worker = root
            .recycled_worker_spawn(entry, &SecurityPolicy::deny_all(), None)
            .unwrap();
        let live_before = wedge.kernel().live_compartments();
        drop(worker);
        // The worker loop notices the closed channel asynchronously.
        for _ in 0..100 {
            if wedge.kernel().live_compartments() < live_before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(wedge.kernel().live_compartments() < live_before);
    }

    #[test]
    fn frame_guard_emits_call_events() {
        let wedge = Wedge::init();
        let sink = Arc::new(crate::trace::CountingSink::default());
        wedge.kernel().set_tracer(Some(sink.clone()));
        let root = wedge.root();
        {
            let _frame = root.trace_fn("handle_request");
            let _inner = root.trace_fn("parse_headers");
        }
        assert_eq!(
            sink.calls.load(std::sync::atomic::Ordering::Relaxed),
            4,
            "two entries and two exits"
        );
    }
}
