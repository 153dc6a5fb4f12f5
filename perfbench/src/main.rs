//! End-to-end and per-layer benchmark of the Wedge serving stack.
//!
//! ```text
//! perfbench --workload <https-resume|https-cold|pop3> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A timed run (`--trace 0`) boots the workload's stack several times
//! (reporting the median set-up time), then drives the last one from at
//! most `nproc` client threads with at most that many connections in
//! flight: open loop at 25 conn/s, open loop at 150 conn/s, and a closed
//! loop, each in rounds.
//! Open-loop latency runs from each arrival's scheduled time to its last
//! reply verified. It prints the end-to-end metrics.
//!
//! A traced run (`--trace 1`) replays the same open-loop schedules with
//! the program's tracer installed and the benchmark's own spans around
//! its calls into each layer, replays them again straight into the
//! front's `serve`, runs the single-layer beds, and prints the per-layer
//! metrics. Spans are written to `perfbench/out/`.
//!
//! Every reply is checked. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. A wrong reply or
//! unbalanced front books make the exit code non-zero.

mod gen;
mod layers;
mod stack;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gen::{closed_loop, ms, open_loop, quantile, sorted, us, Arrival, Done, Plan, Summary};
use stack::{Books, Spans, Stack, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Offered rate of the low open-loop phase: arrivals 40 ms apart, longer
/// than the front's 20 ms accept poll, so each meets an idle stack.
const LOW_RATE: f64 = 25.0;
/// Offered rate of the mid open-loop phase: arrivals overlap service,
/// below every workload's capacity.
const MID_RATE: f64 = 150.0;
/// Shares of `--seconds` given to the low, mid and closed-loop phases.
const PHASE_SHARES: [f64; 3] = [0.3, 0.3, 0.4];
/// Every phase runs as this many rounds: the open-loop rounds alternate
/// low and mid on the measured stack, so each samples the whole run
/// (load from other tenants of a shared machine comes in episodes of
/// seconds); the closed-loop rounds average over thread placements.
const ROUNDS: usize = 4;
/// Connections per single-layer bed, and calls per primitive.
const BED_CONNECTIONS: usize = 300;
/// Sessions of the POP3 bed: more than one server kernel holds today
/// (see the README's known defect), so the failed share reports it.
const POP3_BED_SESSIONS: usize = 5_000;
const PRIMITIVE_CALLS: usize = 2_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run prints.
#[derive(Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn count(&mut self, summary: &Summary) {
        self.attempted += summary.attempted;
        self.failed += summary.failed;
        for wrong in summary.wrong.iter().take(5) {
            self.notes.push(format!("WRONG REPLY {wrong}"));
        }
        self.correct &= summary.wrong.is_empty();
    }

    fn books(&mut self, label: &str, books: &Books) {
        self.note(format!(
            "books {label}: submitted {} = completed {} + rejected {}; accepted {}, resolved by accept loop {} ({} serve errors)",
            books.sched.submitted,
            books.sched.completed,
            books.sched.rejected,
            books.accepted,
            books.served,
            books.serve_errors
        ));
        if !books.balanced() {
            self.note(format!("UNBALANCED BOOKS on the {label} front"));
            self.correct = false;
        }
    }

    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <https-resume|https-cold|pop3> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    match result {
        Ok(outcome) => {
            outcome.print();
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The open-loop schedules of a run, round by round: `(low, mid)` pairs
/// with consecutive ordinals, then the closed loop's length and first
/// ordinal.
fn schedules(plan: &Plan, seconds: u64) -> (Vec<[Vec<Arrival>; 2]>, Duration, u64) {
    let round = seconds as f64 / ROUNDS as f64;
    let [low, mid, closed] = PHASE_SHARES.map(|share| Duration::from_secs_f64(round * share));
    let mut next = 0;
    let rounds = (0..ROUNDS as u64)
        .map(|r| {
            let low = plan.schedule(LOW_RATE, low, next, 2 * r);
            let mid = plan.schedule(MID_RATE, mid, next + low.len() as u64, 2 * r + 1);
            next += (low.len() + mid.len()) as u64;
            [low, mid]
        })
        .collect();
    (rounds, closed * ROUNDS as u32, next)
}

/// Process user+system CPU time so far (`/proc/self/stat`, in clock
/// ticks of 10 ms).
fn cpu_time() -> Result<Duration, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |field: usize| -> Result<u64, String> {
        fields
            .get(field - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("/proc/self/stat field {field} unreadable"))
    };
    Ok(Duration::from_millis((tick(14)? + tick(15)?) * 10))
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Peak resident set (`VmHWM`) in MiB.
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Boot `SETUPS` stacks one after another, keep the last, and return it
/// with the median boot-to-ready time.
fn boot_median(workload: Workload, plan: &Plan, out: &mut Outcome) -> Result<(Stack, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut stack: Option<Stack> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = stack.take() {
            let books = previous.shutdown()?;
            if !books.balanced() {
                out.books("set-up", &books);
            }
        }
        let started = Instant::now();
        stack = Some(Stack::boot(workload, plan, false)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let stack = stack.expect("SETUPS > 0");
    Ok((stack, quantile(&sorted(times), 0.5)))
}

fn phase_note(label: &str, summary: &Summary) -> String {
    format!(
        "{label}: {} attempted, {} failed, {} latency samples, p50 {:.3} ms, p90 {:.3} ms",
        summary.attempted,
        summary.failed,
        summary.latency_ms.len(),
        summary.p(0.5),
        summary.p(0.9)
    )
}

/// Low-phase connections, mid-phase connections, mid-phase CPU time.
type Rounds<T> = (Vec<Done<T>>, Vec<Done<T>>, Duration);

/// Run every round's low then mid schedule open-loop; returns the low
/// and the mid connections and the process CPU time of the mid phases.
fn open_rounds<T, F>(
    rounds: &[[Vec<Arrival>; 2]],
    clients: usize,
    conn: F,
) -> Result<Rounds<T>, String>
where
    T: Send,
    F: Fn(u64) -> Result<T, gen::Failure> + Sync,
{
    let (mut low, mut mid, mut mid_cpu) = (Vec::new(), Vec::new(), Duration::ZERO);
    for [low_schedule, mid_schedule] in rounds {
        low.extend(open_loop(low_schedule, clients, &conn));
        let mid_cpu_start = cpu_time()?;
        mid.extend(open_loop(mid_schedule, clients, &conn));
        mid_cpu += cpu_time()? - mid_cpu_start;
    }
    Ok((low, mid, mid_cpu))
}

fn timed_run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(args.seed);
    let clients = clients();
    let mut out = Outcome::new();
    let (stack, setup_s) = boot_median(args.workload, &plan, &mut out)?;
    let (rounds, closed, first_closed) = schedules(&plan, args.seconds);

    let (cpu_start, wall_start, steal_start) = (cpu_time()?, Instant::now(), steal_ticks());
    let (low, mid, mid_cpu) = open_rounds(&rounds, clients, |o| stack.connect(o, &mut None))?;
    // Peak memory after a connection count fixed by the schedule; the
    // closed loop's count varies with capacity.
    let rss_peak = rss_peak_mib()?;
    // The closed loop's first round continues on the measured stack, the
    // others each run on a freshly booted one: where the guest scheduler
    // places a stack's long-lived threads persists for the stack's life
    // and moves its capacity by up to half.
    let (mut capacity, mut capacity_elapsed) = (Vec::new(), Duration::ZERO);
    let mut first = first_closed;
    for round in 0..ROUNDS {
        let fresh = match round {
            0 => None,
            _ => Some(Stack::boot(args.workload, &plan, false)?),
        };
        let target = fresh.as_ref().unwrap_or(&stack);
        let (done, elapsed) = closed_loop(closed / ROUNDS as u32, clients, first, |ordinal| {
            target.connect(ordinal, &mut None)
        });
        first = done.iter().map(|d| d.ordinal + 1).max().unwrap_or(first);
        capacity.extend(done);
        capacity_elapsed += elapsed;
        if let Some(fresh) = fresh {
            out.books(&format!("closed-loop round {round}"), &fresh.shutdown()?);
        }
    }
    let cpu_busy = (cpu_time()? - cpu_start).as_secs_f64()
        / (wall_start.elapsed().as_secs_f64() * clients as f64);
    let steal_end = steal_ticks();
    let steal = share(steal_end.0 - steal_start.0, steal_end.1 - steal_start.1);
    out.books(args.workload.name(), &stack.shutdown()?);

    let lags = gen::lags_ms(&[&low, &mid]);
    let (low, mid, capacity) = (Summary::of(&low), Summary::of(&mid), Summary::of(&capacity));
    for summary in [&low, &mid, &capacity] {
        out.count(summary);
    }
    let succeeded = out.attempted - out.failed;
    out.note(format!(
        "workload {} seed {} seconds {} clients {clients} (nproc)",
        args.workload.name(),
        args.seed,
        args.seconds
    ));
    out.note(phase_note("low 25/s open loop", &low));
    out.note(phase_note("mid 150/s open loop", &mid));
    out.note(format!(
        "closed loop: {} attempted, {} failed in {:.3} s",
        capacity.attempted,
        capacity.failed,
        capacity_elapsed.as_secs_f64()
    ));
    out.note(format!(
        "error_rate = {} ({} of {} connections failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    out.note(format!(
        "bench.gen_lag_p99_ms = {} ms (p50 {} ms, p90 {} ms), bench.cpu_busy = {} (cpu_ms_per_conn includes the client side)",
        quantile(&lags, 0.99),
        quantile(&lags, 0.5),
        quantile(&lags, 0.9),
        cpu_busy
    ));
    out.note(format!("host steal share over the phases = {steal}"));

    // Printed but not gated: on a shared machine their spread between
    // runs follows the host's load (see the README).
    out.note(format!(
        "lat_low_p90_ms = {} ms, lat_mid_p90_ms = {} ms, capacity_cps = {} conn/s",
        low.p(0.9),
        mid.p(0.9),
        capacity.succeeded() as f64 / capacity_elapsed.as_secs_f64()
    ));

    out.metric("setup_s", setup_s, "s");
    out.metric("lat_low_p50_ms", low.p(0.5), "ms");
    out.metric("lat_mid_p50_ms", mid.p(0.5), "ms");
    out.metric(
        "cpu_ms_per_conn",
        ms(mid_cpu) / mid.succeeded().max(1) as f64,
        "ms",
    );
    out.metric(
        "success_rate",
        succeeded as f64 / out.attempted.max(1) as f64,
        "share",
    );
    out.metric("rss_peak_mib", rss_peak, "MiB");
    Ok(out)
}

/// Registry and stats counters read around the traced listener phases.
struct Counters {
    kernel: wedge_core::KernelStats,
    wakeups: u64,
    oplog_appends: u64,
    full: u64,
    abbreviated: u64,
    accepted: u64,
    ring: wedge_cachenet::CacheRingStats,
    store: (u64, u64),
}

impl Counters {
    fn read(stack: &Stack) -> Counters {
        use wedge_tls::SessionStore;
        let snapshot = stack.telemetry.snapshot();
        Counters {
            kernel: stack.kernel_stats(),
            wakeups: snapshot.counter("reactor.wakeups"),
            oplog_appends: snapshot.counter("kernel.oplog.appended"),
            full: snapshot.counter("tls.handshake.full"),
            abbreviated: snapshot.counter("tls.handshake.abbreviated"),
            accepted: stack.listener.stats().accepted,
            ring: stack.ring().map(|r| r.stats()).unwrap_or_default(),
            store: stack.ring().map_or((0, 0), |r| SessionStore::stats(&**r)),
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
fn share(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-connection dispatch-to-verified time (ms) and spans, by ordinal.
fn traced(done: &[Done<Spans>]) -> impl Iterator<Item = (u64, f64, &Spans)> {
    done.iter().filter_map(|d| {
        d.result
            .as_ref()
            .ok()
            .map(|spans| (d.ordinal, ms(d.latency) - ms(d.lag), spans))
    })
}

/// Median duration (ms) of span `name`; 0 where the path records none.
fn span_p50(done: &[Done<Spans>], name: &str) -> f64 {
    quantile(
        &sorted(
            traced(done)
                .filter_map(|(_, _, s)| s.get(name).map(ms))
                .collect(),
        ),
        0.5,
    )
}

/// Per-arrival listener-path time minus `net.connect` minus the same
/// arrival's time on the `serve()` path (ms), sorted.
fn front_waits(listener: &[Done<Spans>], direct: &[Done<Spans>]) -> Vec<f64> {
    let direct: std::collections::HashMap<u64, f64> =
        traced(direct).map(|(ordinal, t, _)| (ordinal, t)).collect();
    sorted(
        traced(listener)
            .filter_map(|(ordinal, t, spans)| {
                let connect = spans.get("net.connect").map_or(0.0, ms);
                direct.get(&ordinal).map(|d| t - connect - d)
            })
            .collect(),
    )
}

fn write_spans(
    args: &Args,
    epoch: Instant,
    phases: &[(&str, &[Done<Spans>])],
) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{}-{}.tsv", args.workload.name(), args.seed);
    let mut text = String::from("phase\tordinal\tspan\tparent\tstart_us\tduration_us\n");
    for (phase, done) in phases {
        for (ordinal, _, spans) in traced(done) {
            for (name, start, end) in &spans.0 {
                let parent = if *name == "conn" { "-" } else { "conn" };
                let _ = writeln!(
                    text,
                    "{phase}\t{ordinal}\t{name}\t{parent}\t{:.1}\t{:.1}",
                    us(start.saturating_duration_since(epoch)),
                    us(*end - *start)
                );
            }
        }
    }
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// One way of driving a connection through a stack.
type Path = fn(&Stack, u64, &mut Option<Spans>) -> Result<(), gen::Failure>;

/// `path` on `stack` with the benchmark's spans on, the whole connection
/// recorded as the root span `conn`.
fn with_spans(
    stack: &Stack,
    path: Path,
) -> impl Fn(u64) -> Result<Spans, gen::Failure> + Sync + '_ {
    move |ordinal| {
        let mut spans = Some(Spans::default());
        let started = Instant::now();
        path(stack, ordinal, &mut spans)?;
        let mut spans = spans.expect("set above");
        spans.push("conn", started);
        Ok(spans)
    }
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(args.seed);
    let clients = clients();
    let workload = args.workload;
    let mut out = Outcome::new();
    let (rounds, _, _) = schedules(&plan, args.seconds);

    // The untraced reference for `trace.overhead`: the same rounds.
    let reference = Stack::boot(workload, &plan, false)?;
    let (reference_low, reference_mid, _) =
        open_rounds(&rounds, clients, |o| reference.connect(o, &mut None))?;
    out.count(&Summary::of(&reference_low));
    let untraced_mid = Summary::of(&reference_mid);
    out.count(&untraced_mid);
    out.books("reference", &reference.shutdown()?);

    let epoch = Instant::now();
    let stack = Stack::boot(workload, &plan, true)?;
    let before = Counters::read(&stack);
    let (cpu_start, wall_start) = (cpu_time()?, Instant::now());
    let (low, mid, _) = open_rounds(&rounds, clients, with_spans(&stack, Stack::connect))?;
    let cpu_busy = (cpu_time()? - cpu_start).as_secs_f64()
        / (wall_start.elapsed().as_secs_f64() * clients as f64);
    let after = Counters::read(&stack);
    let sched = stack.sched_stats();
    let shard_boot = sorted(
        stack
            .shard_stats()
            .iter()
            .map(|s| ms(s.boot_cost))
            .collect(),
    );
    out.books(workload.name(), &stack.shutdown()?);

    // The same schedules straight into `serve`, on a fresh stack so each
    // arrival meets the same front state on both paths.
    let direct = Stack::boot(workload, &plan, true)?;
    let (low_direct, mid_direct, _) =
        open_rounds(&rounds, clients, with_spans(&direct, Stack::connect_direct))?;
    out.books("serve() replay", &direct.shutdown()?);

    let summaries = [&low, &mid, &low_direct, &mid_direct].map(|d| Summary::of(d));
    for summary in &summaries {
        out.count(summary);
    }
    let [low_sum, mid_sum, low_direct_sum, mid_direct_sum] = &summaries;
    out.note(phase_note("traced low, listener", low_sum));
    out.note(phase_note("traced mid, listener", mid_sum));
    out.note(phase_note("traced low, serve()", low_direct_sum));
    out.note(phase_note("traced mid, serve()", mid_direct_sum));
    out.note(phase_note("untraced mid reference", &untraced_mid));
    let spans_path = write_spans(
        args,
        epoch,
        &[
            ("low", &low),
            ("mid", &mid),
            ("low-serve", &low_direct),
            ("mid-serve", &mid_direct),
        ],
    )?;
    out.note(format!("spans written to {spans_path}"));

    // Single-layer beds and primitives. Both beds run on every workload:
    // each measures one layer, not the workload's path.
    let apache = layers::apache_bed(
        args.seed,
        workload == Workload::HttpsResume,
        BED_CONNECTIONS,
    )?;
    let pop3 = layers::pop3_bed(args.seed, POP3_BED_SESSIONS)?;
    let (server_ms, oplog_bytes) = match workload {
        Workload::Pop3 => (pop3.serve_ms, pop3.oplog_bytes),
        _ => (apache.wedge_ms, apache.oplog_bytes),
    };
    let [sthread_us, cgate_us, recycled_us] = layers::kernel_primitives(PRIMITIVE_CALLS / 4)?;
    let rsa_us = layers::rsa_decrypt_us(args.seed, PRIMITIVE_CALLS)?;
    let (lookup_us, insert_us) = layers::cachenet_ops(args.seed, BED_CONNECTIONS * 2)?;

    let conns = low_sum.attempted + mid_sum.attempted;
    let per_conn = |a: u64, b: u64| share(a.saturating_sub(b), conns);
    let lags = gen::lags_ms(&[&low, &mid]);
    let waits_low = front_waits(&low, &low_direct);
    let waits_mid = front_waits(&mid, &mid_direct);
    let connect_us = span_p50(&low, "net.connect") * 1e3;
    let submit_ms = span_p50(&low_direct, "sched.submit");
    let serve_join_ms = span_p50(&low_direct, "sched.serve_join");
    let unattributed = low_sum.p(0.5)
        - (quantile(&lags, 0.5)
            + connect_us / 1e3
            + quantile(&waits_low, 0.5)
            + submit_ms
            + serve_join_ms);
    let (k0, k1) = (&before.kernel, &after.kernel);
    let (r0, r1) = (&before.ring, &after.ring);
    let hits = after.store.0 - before.store.0;
    let lookups = hits + after.store.1 - before.store.1;
    let remote = r1.remote_hits - r0.remote_hits;

    out.metric("net.connect_us", connect_us, "us");
    out.metric(
        "net.accept_ratio",
        share(after.accepted - before.accepted, conns),
        "share",
    );
    out.metric(
        "reactor.wakeups_per_conn",
        per_conn(after.wakeups, before.wakeups),
        "count",
    );
    out.metric("front.wait_p50_ms", quantile(&waits_low, 0.5), "ms");
    out.metric("front.wait_p90_ms", quantile(&waits_low, 0.9), "ms");
    out.metric("front.wait_mid_p50_ms", quantile(&waits_mid, 0.5), "ms");
    out.metric("sched.submit_us", submit_ms * 1e3, "us");
    out.metric("sched.queue_ms", serve_join_ms - server_ms, "ms");
    out.metric(
        "sched.queue_mid_ms",
        span_p50(&mid_direct, "sched.serve_join") - server_ms,
        "ms",
    );
    out.metric(
        "sched.peak_queue_depth",
        sched.peak_queue_depth as f64,
        "count",
    );
    out.metric(
        "sched.rejected_share",
        share(sched.rejected, sched.submitted),
        "share",
    );
    out.metric("shard.boot_ms", quantile(&shard_boot, 0.5), "ms");
    out.metric("apache.serve_ms", apache.wedge_ms, "ms");
    out.metric(
        "apache.wedge_over_vanilla",
        apache.wedge_ms / apache.vanilla_ms,
        "ratio",
    );
    out.metric("pop3.serve_ms", pop3.serve_ms, "ms");
    out.metric("pop3.failed_share", pop3.failed_share, "share");
    out.metric(
        "tls.handshake_ms",
        span_p50(&low_direct, "tls.handshake"),
        "ms",
    );
    out.metric("tls.request_ms", span_p50(&low_direct, "tls.request"), "ms");
    out.metric(
        "tls.resumed_share",
        share(
            after.abbreviated - before.abbreviated,
            after.abbreviated + after.full - before.abbreviated - before.full,
        ),
        "share",
    );
    out.metric("crypto.rsa_decrypt_us", rsa_us, "us");
    out.metric("cachenet.lookup_us", lookup_us, "us");
    out.metric("cachenet.insert_us", insert_us, "us");
    out.metric("cachenet.hit_ratio", share(hits, lookups), "share");
    out.metric(
        "cachenet.remote_share",
        share(remote, remote + r1.local_hits - r0.local_hits),
        "share",
    );
    out.metric(
        "cachenet.failures",
        (r1.failures - r0.failures) as f64,
        "count",
    );
    out.metric("kernel.sthread_us", sthread_us, "us");
    out.metric("kernel.cgate_us", cgate_us, "us");
    out.metric("kernel.recycled_cgate_us", recycled_us, "us");
    out.metric(
        "kernel.sthreads_per_conn",
        per_conn(k1.sthreads_created, k0.sthreads_created),
        "count",
    );
    out.metric(
        "kernel.callgates_per_conn",
        per_conn(k1.callgate_invocations, k0.callgate_invocations),
        "count",
    );
    out.metric(
        "kernel.recycled_per_conn",
        per_conn(k1.recycled_invocations, k0.recycled_invocations),
        "count",
    );
    out.metric(
        "kernel.smallocs_per_conn",
        per_conn(k1.smallocs, k0.smallocs),
        "count",
    );
    out.metric(
        "kernel.scrubs_per_conn",
        per_conn(k1.private_scrubs, k0.private_scrubs),
        "count",
    );
    out.metric(
        "kernel.oplog_appends_per_conn",
        per_conn(after.oplog_appends, before.oplog_appends),
        "count",
    );
    out.metric("kernel.oplog_bytes", oplog_bytes as f64, "bytes");
    out.metric(
        "trace.overhead",
        mid_sum.p(0.5) / untraced_mid.p(0.5),
        "ratio",
    );
    out.metric("e2e.low_p90_ms", low_sum.p(0.9), "ms");
    out.metric("e2e.mid_p90_ms", mid_sum.p(0.9), "ms");
    out.metric("bench.gen_lag_p99_ms", quantile(&lags, 0.99), "ms");
    out.metric("bench.cpu_busy", cpu_busy, "share");
    out.metric("unattributed_ms", unattributed, "ms");
    Ok(out)
}
