//! Load generation: seeded inputs, the open- and closed-loop generators, and
//! the exact-percentile summaries.
//!
//! Everything a run feeds the stack is a pure function of `--seed`: the
//! arrival times of each open-loop phase and, per connection ordinal, the
//! client it comes from. The generator uses its own PRNG so that a change
//! to the program's RNG cannot change the benchmark's inputs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client hosts in the round-robin pool (far more than connections in
/// flight, so two in-flight connections never share a client).
pub const HOSTS: usize = 256;

/// How long a closed-loop client waits after a failed connection.
const RETRY_PAUSE: Duration = Duration::from_millis(5);

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One value derived from a seed and a stream index.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Who one connection comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Index into the host pool.
    pub host: usize,
    /// POP3 account: 0 or 1 (the two users of `MailDb::sample()`).
    pub user: usize,
    /// RNG seed of a client created for this connection.
    pub client_seed: u64,
}

/// One scheduled open-loop arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, from the start of its phase.
    pub due: Duration,
    /// Connection ordinal: selects the client draw.
    pub ordinal: u64,
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// A seeded permutation of the host pool, visited round-robin.
    hosts: Vec<usize>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut rng = Rng::new(derive(seed, 1));
        let mut hosts: Vec<usize> = (0..HOSTS).collect();
        for i in (1..HOSTS).rev() {
            hosts.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Plan { seed, hosts }
    }

    /// The client of connection `ordinal`.
    pub fn draw(&self, ordinal: u64) -> Draw {
        let bits = derive(self.seed ^ 0x5EED, ordinal);
        Draw {
            host: self.hosts[(ordinal % HOSTS as u64) as usize],
            user: (bits & 1) as usize,
            client_seed: bits >> 1,
        }
    }

    /// `rate` arrivals per second for `duration`, ordinals from `first`.
    /// Arrival `i` is due at `i / rate` plus a seeded jitter of up to a
    /// quarter period, so the gap between arrivals stays within
    /// `[0.75, 1.25]` periods: at 25/s every gap exceeds the front's
    /// 20 ms accept poll.
    pub fn schedule(&self, rate: f64, duration: Duration, first: u64, phase: u64) -> Vec<Arrival> {
        let mut rng = Rng::new(derive(self.seed, 100 + phase));
        let n = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
        let period = 1.0 / rate;
        (0..n)
            .map(|i| Arrival {
                due: Duration::from_secs_f64(period * (i as f64 + 0.25 * rng.unit())),
                ordinal: first + i,
            })
            .collect()
    }
}

/// Why a connection failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Refused, reset or timed out: counts against the success rate.
    Transport(String),
    /// The stack answered, but wrongly: the run is not correct.
    Wrong(String),
}

/// One finished connection.
#[derive(Debug, Clone)]
pub struct Done<T> {
    pub ordinal: u64,
    /// From the scheduled time (open loop) or the start (closed loop) to
    /// the last reply verified.
    pub latency: Duration,
    /// How late the generator dispatched it (zero in a closed loop).
    pub lag: Duration,
    pub result: Result<T, Failure>,
}

/// Drive `arrivals` open-loop from `clients` threads: each thread takes
/// the next arrival, sleeps until it is due and runs it, so at most
/// `clients` connections are in flight and a slow stack delays later
/// arrivals instead of thinning them. Returned in ordinal order.
pub fn open_loop<T, F>(arrivals: &[Arrival], clients: usize, conn: F) -> Vec<Done<T>>
where
    T: Send,
    F: Fn(u64) -> Result<T, Failure> + Sync,
{
    let next = AtomicU64::new(0);
    let done = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(arrival) = arrivals.get(i) else {
                    break;
                };
                let due = start + arrival.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let lag = Instant::now().saturating_duration_since(due);
                let result = conn(arrival.ordinal);
                let latency = Instant::now().saturating_duration_since(due);
                done.lock().expect("no client thread panics").push(Done {
                    ordinal: arrival.ordinal,
                    latency,
                    lag,
                    result,
                });
            });
        }
    });
    let mut done = done.into_inner().expect("no client thread panics");
    done.sort_by_key(|d| d.ordinal);
    done
}

/// Drive connections back to back from `clients` threads until
/// `duration` has passed, ordinals from `first`. A client whose
/// connection failed waits [`RETRY_PAUSE`] before its next one, as a
/// real client backs off; without the pause a failing stack would be
/// hammered as fast as it can refuse, and the error rate would measure
/// the speed of failing. Returns the connections and the wall time
/// until the last one finished.
pub fn closed_loop<T, F>(
    duration: Duration,
    clients: usize,
    first: u64,
    conn: F,
) -> (Vec<Done<T>>, Duration)
where
    T: Send,
    F: Fn(u64) -> Result<T, Failure> + Sync,
{
    let next = AtomicU64::new(first);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + duration;
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while Instant::now() < deadline {
                    let ordinal = next.fetch_add(1, Ordering::Relaxed);
                    let began = Instant::now();
                    let result = conn(ordinal);
                    let failed = result.is_err();
                    mine.push(Done {
                        ordinal,
                        latency: began.elapsed(),
                        lag: Duration::ZERO,
                        result,
                    });
                    if failed {
                        std::thread::sleep(RETRY_PAUSE);
                    }
                }
                done.lock().expect("no client thread panics").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed();
    let mut done = done.into_inner().expect("no client thread panics");
    done.sort_by_key(|d| d.ordinal);
    (done, elapsed)
}

/// Generator lag (ms) of every connection in `phases`, sorted.
pub fn lags_ms<T>(phases: &[&[Done<T>]]) -> Vec<f64> {
    sorted(
        phases
            .iter()
            .flat_map(|d| d.iter().map(|d| ms(d.lag)))
            .collect(),
    )
}

/// The exact `q`-quantile of sorted `values` (linear interpolation
/// between the closest ranks); 0 for no values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort raw samples for [`quantile`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one phase did: raw successful latencies, sorted, and the counts.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Latencies (ms) of the connections that succeeded, sorted.
    pub latency_ms: Vec<f64>,
    pub attempted: u64,
    /// Transport failures plus wrong replies.
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Summary {
    pub fn of<T>(done: &[Done<T>]) -> Summary {
        let mut wrong = Vec::new();
        let mut failed = 0;
        for d in done {
            match &d.result {
                Ok(_) => {}
                Err(Failure::Transport(_)) => failed += 1,
                Err(Failure::Wrong(why)) => {
                    failed += 1;
                    wrong.push(format!("connection {}: {why}", d.ordinal));
                }
            }
        }
        Summary {
            latency_ms: sorted(
                done.iter()
                    .filter(|d| d.result.is_ok())
                    .map(|d| ms(d.latency))
                    .collect(),
            ),
            attempted: done.len() as u64,
            failed,
            wrong,
        }
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn p(&self, q: f64) -> f64 {
        quantile(&self.latency_ms, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_schedule_and_one_set_of_draws() {
        let (a, b) = (Plan::new(7), Plan::new(7));
        let span = Duration::from_secs(2);
        assert_eq!(a.schedule(25.0, span, 0, 1), b.schedule(25.0, span, 0, 1));
        assert_eq!(
            a.schedule(150.0, span, 50, 2),
            b.schedule(150.0, span, 50, 2)
        );
        for ordinal in 0..1_000 {
            assert_eq!(a.draw(ordinal), b.draw(ordinal));
        }
    }

    #[test]
    fn another_seed_gives_another_schedule_and_other_draws() {
        let (a, b) = (Plan::new(7), Plan::new(8));
        let span = Duration::from_secs(2);
        assert_ne!(a.schedule(25.0, span, 0, 1), b.schedule(25.0, span, 0, 1));
        let differing = (0..1_000).filter(|&o| a.draw(o) != b.draw(o)).count();
        assert!(differing > 900, "only {differing} of 1000 draws differ");
    }

    #[test]
    fn schedules_keep_their_rate_and_gap_bounds() {
        let plan = Plan::new(3);
        let low = plan.schedule(25.0, Duration::from_secs(4), 0, 1);
        assert_eq!(low.len(), 100);
        for pair in low.windows(2) {
            let gap = pair[1].due - pair[0].due;
            assert!(gap >= Duration::from_millis(30) && gap <= Duration::from_millis(50));
        }
        assert!(low.windows(2).all(|p| p[1].ordinal == p[0].ordinal + 1));
    }

    #[test]
    fn round_robin_hosts_cover_the_pool() {
        let plan = Plan::new(11);
        let mut seen: Vec<usize> = (0..HOSTS as u64).map(|o| plan.draw(o).host).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..HOSTS).collect::<Vec<_>>());
    }

    #[test]
    fn failed_connections_count_as_errors_not_as_latency_samples() {
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                due: Duration::from_millis(i),
                ordinal: i,
            })
            .collect();
        let done = open_loop(&arrivals, 2, |ordinal| {
            if ordinal == 5 {
                // A slow failure: were it a sample it would be the p90.
                std::thread::sleep(Duration::from_millis(60));
                Err(Failure::Transport("reset".into()))
            } else {
                Ok(())
            }
        });
        let summary = Summary::of(&done);
        assert_eq!(summary.attempted, 20);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.latency_ms.len(), 19);
        assert!(summary.wrong.is_empty());
        assert!(summary.p(0.9) < 50.0, "p90 {} ms", summary.p(0.9));
    }

    #[test]
    fn quantiles_are_exact() {
        let values = sorted(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(quantile(&values, 0.5), 3.0);
        assert!((quantile(&values, 0.9) - 4.6).abs() < 1e-9);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
