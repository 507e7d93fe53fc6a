//! Serve phase: an open-loop generator within the host. One sending
//! thread submits on a fixed schedule and one collecting thread waits
//! for the answers, so the load never takes more than two threads.
//! Every request is timed from its due time, not from when the sender
//! got to it, so a stall is charged to every request it delays.

use crate::fixture::Fixture;
use crate::inputs::{self, derive};
use crate::ledger::Window;
use crate::oracle::Oracle;
use crate::plan::{Mix, Plan, LADDER_STEP, LIMIT_US, REPEAT_FRESH};
use crate::stats::{median, quantile};
use dnnspmv_core::{PendingSelection, SelectorServer, SelectorService, ServerReport};
use dnnspmv_obs::{Counter, MetricsSnapshot};
use dnnspmv_sparse::{CooMatrix, SparseFormat};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// One request and the answer the direct service gives for it.
#[derive(Clone)]
pub struct Req {
    pub m: Arc<CooMatrix<f32>>,
    pub want: SparseFormat,
}

fn requests(svc: &SelectorService, ms: Vec<Arc<CooMatrix<f32>>>) -> Vec<Req> {
    ms.into_iter()
        .map(|m| Req {
            want: svc.select(m.as_ref()).format,
            m,
        })
        .collect()
}

/// The request stream of one mix; draws are reproducible from the seed.
pub struct Stream {
    mix: Mix,
    seed: u64,
    pool: Vec<Req>,
    draws: u64,
    fresh_batches: u64,
    seen: inputs::Seen,
}

impl Stream {
    /// Generates the pool and the oracle's answers for it.
    pub fn new(fx: &Fixture, plan: &Plan, seed: u64) -> Self {
        let n = match plan.mix {
            Mix::Repeat => plan.repeat_pool,
            Mix::Unique => plan.unique_pool,
        };
        let mut seen = inputs::Seen::default();
        let pool = requests(&fx.oracle, inputs::pool(n, seed, 0, &mut seen));
        Stream {
            mix: plan.mix,
            seed,
            pool,
            draws: 0,
            fresh_batches: 0,
            seen,
        }
    }

    pub fn pool(&self) -> &[Req] {
        &self.pool
    }

    /// The next `n` requests. Repeat: each is a pool redraw, or with
    /// probability [`REPEAT_FRESH`] a matrix never sent before. Unique:
    /// the pool in cyclic order.
    pub fn take(&mut self, fx: &Fixture, n: usize) -> Vec<Req> {
        match self.mix {
            Mix::Unique => (0..n)
                .map(|_| {
                    self.draws += 1;
                    self.pool[(self.draws as usize - 1) % self.pool.len()].clone()
                })
                .collect(),
            Mix::Repeat => {
                let picks: Vec<Option<usize>> = (0..n)
                    .map(|_| {
                        self.draws += 1;
                        let r = derive(self.seed, 0xD4A3, self.draws);
                        let fresh = ((r % 10_000) as f64) < REPEAT_FRESH * 10_000.0;
                        (!fresh).then(|| (r >> 20) as usize % self.pool.len())
                    })
                    .collect();
                let k = picks.iter().filter(|p| p.is_none()).count();
                self.fresh_batches += 1;
                let mut fresh = requests(
                    &fx.oracle,
                    inputs::pool(k, self.seed, self.fresh_batches, &mut self.seen),
                )
                .into_iter();
                picks
                    .into_iter()
                    .map(|p| match p {
                        Some(i) => self.pool[i].clone(),
                        None => fresh.next().expect("one fresh matrix per fresh draw"),
                    })
                    .collect()
            }
        }
    }
}

/// One open-loop run at a fixed rate.
#[derive(Debug, Clone, Default)]
pub struct RateRun {
    /// Due-to-answer latency of every request in send order, µs; a shed
    /// or unsent request counts as [`MISSED_US`].
    pub lat_us: Vec<f64>,
    /// Indices of the requests the cache did not answer.
    pub missed: Vec<usize>,
    /// How late the sender submitted each request, µs.
    pub late_us: Vec<f64>,
    pub shed: usize,
    /// Answers per second from the first due time to the last answer.
    pub achieved_rps: f64,
    /// The queue grew over the run: see [`backlog_grew`].
    pub backlog_grew: bool,
}

/// Latency recorded for a request that was refused or never sent: far
/// beyond any limit.
pub const MISSED_US: f64 = 1e9;

/// Ladder probes that only walk from the start rung towards the limit.
pub const BURN_IN: usize = 4;

/// Requests per p99 window: the fewest with ten samples beyond p99.
pub const WINDOW: usize = 1000;

/// p99 of each [`WINDOW`] consecutive latencies (a shorter tail joins
/// the last window), median over the windows. The host pauses for a
/// millisecond or more several times a second; each pause lands in one
/// window, so the median is the p99 the server itself sets.
pub fn window_p99(lat_us: &[f64]) -> f64 {
    let n = (lat_us.len() / WINDOW).max(1);
    let p99s: Vec<f64> = (0..n)
        .map(|w| {
            let end = if w + 1 == n {
                lat_us.len()
            } else {
                (w + 1) * WINDOW
            };
            quantile(&lat_us[w * WINDOW..end], 0.99)
        })
        .collect();
    median(&p99s)
}

/// Whether latency climbed over the run the way a growing queue makes
/// it: the last window's median above the first's by half the limit.
/// A host pause lifts a few requests, not a window's median.
pub fn backlog_grew(lat_us: &[f64]) -> bool {
    let n = lat_us.len() / WINDOW;
    n >= 2 && median(&lat_us[(n - 1) * WINDOW..]) > median(&lat_us[..WINDOW]) + LIMIT_US / 2.0
}

impl RateRun {
    pub fn p99_us(&self) -> f64 {
        window_p99(&self.lat_us)
    }

    /// p99 within the limit, nothing shed, no growing backlog.
    pub fn met_limit(&self) -> bool {
        self.shed == 0 && !self.backlog_grew && self.p99_us() <= LIMIT_US
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Sleeps until shortly before `due`, then spins until it passes. The
/// sender runs with a 1 µs timer slack (see [`tight_timer_slack`]), so
/// a sleep overshoots by a few µs and the spin stays short.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let gap = due - now;
        if gap > Duration::from_micros(40) {
            thread::sleep(gap - Duration::from_micros(30));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Lowers the calling thread's timer slack from Linux's default 50 µs
/// to 1 µs, so the sender's sleeps end close to when they were asked to.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument, reads no
    // memory and changes only the calling thread's timer slack. A
    // failure leaves the default slack, which only costs spin time.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// Counter of cache-answered requests. Only `submit` increments it, and
/// only the sender submits, so a change across one `submit` call means
/// that request was a hit, answered before `submit` returned.
pub fn hit_counter(server: &SelectorServer<f32>) -> Counter {
    server.registry().counter(
        "serve_outcome_total",
        &[("outcome", "served"), ("rung", "cache")],
    )
}

/// Drives `reqs` at `rate` requests per second.
pub fn drive(
    server: &SelectorServer<f32>,
    hits: &Counter,
    reqs: &[Req],
    rate: f64,
    oracle: &mut Oracle,
) -> RateRun {
    let interval = 1.0 / rate;
    let start = Instant::now() + Duration::from_millis(1);
    let mut run = RateRun::default();
    let mut last = start;
    tight_timer_slack();
    let (tx, rx) = mpsc::channel::<(usize, Instant, bool, PendingSelection)>();
    let mut lat_us = vec![MISSED_US; reqs.len()];
    let (misses, answers, collector_last) = thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut misses = Vec::new();
            let mut answers = Vec::new();
            let mut last = start;
            for (i, due, hit, pending) in rx {
                let answer = pending.wait();
                let now = Instant::now();
                if !hit {
                    misses.push((i, us(now - due)));
                    last = last.max(now);
                }
                answers.push((i, answer.ok().map(|s| s.format)));
            }
            (misses, answers, last)
        });
        for (i, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 * interval);
            let now = wait_until(due);
            run.late_us.push(us(now - due));
            let before = hits.get();
            match server.submit(Arc::clone(&req.m), None) {
                Ok(pending) => {
                    let hit = hits.get() != before;
                    if hit {
                        let t = Instant::now();
                        lat_us[i] = us(t - due);
                        last = last.max(t);
                    }
                    tx.send((i, due, hit, pending)).expect("collector is alive");
                }
                Err(_) => run.shed += 1,
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let answered = answers.len();
    for (i, got) in answers {
        oracle.format(got, reqs[i].want, "serve");
    }
    for &(i, l) in &misses {
        lat_us[i] = l;
    }
    run.backlog_grew = backlog_grew(&lat_us);
    run.lat_us = lat_us;
    run.missed = misses.into_iter().map(|(i, _)| i).collect();
    let last = last.max(collector_last);
    run.achieved_rps = answered as f64 / (last - start).as_secs_f64().max(1e-9);
    run
}

/// Geometric rate ladder from `lo` to `hi` in [`LADDER_STEP`] steps.
pub fn ladder(lo: f64, hi: f64) -> Vec<f64> {
    let mut rungs = Vec::new();
    let mut r = lo;
    while r <= hi * (1.0 + 1e-9) {
        rungs.push(r);
        r *= LADDER_STEP;
    }
    rungs
}

/// Runs of one fixed rate, one per round, spread over the whole run so
/// a slow spell of the host lands in few of them.
#[derive(Default)]
pub struct Rounds(pub Vec<RateRun>);

impl Rounds {
    /// Percentile `q` of every request of every round.
    pub fn pooled(&self, q: f64) -> f64 {
        quantile(&self.all(), q)
    }

    /// [`window_p99`] over the rounds' requests in send order.
    pub fn p99_us(&self) -> f64 {
        window_p99(&self.all())
    }

    fn all(&self) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|r| r.lat_us.iter().copied())
            .collect()
    }
}

/// What the serve phase measured.
pub struct Serve {
    pub low: Rounds,
    pub high: Rounds,
    /// The highest rate that meets the limit, as achieved (answers per
    /// second): see [`Phase::probe`].
    pub max_rps: f64,
    /// The server over the low-rate and over the high-rate runs.
    pub low_window: Window,
    pub high_window: Window,
    /// Traced runs only: worker-side layers of the low-rate runs' cache
    /// misses, timed from outside after each run, summed (ms).
    pub low_path_ms: f64,
    /// The first pool matrices, which the traced pass times.
    pub sample: Vec<Arc<CooMatrix<f32>>>,
}

/// The serve phase, run a round at a time between the other phases.
pub struct Phase<'a> {
    fx: &'a Fixture,
    plan: &'a Plan,
    stream: Stream,
    hits: Counter,
    low: Rounds,
    high: Rounds,
    rungs: Vec<f64>,
    rung: usize,
    probes: Vec<(bool, f64)>,
    low_window: Window,
    high_window: Window,
    low_path_ms: f64,
}

impl<'a> Phase<'a> {
    /// Generates the request pool; for the repeat mix, puts it in the
    /// cache (untimed).
    pub fn new(fx: &'a Fixture, plan: &'a Plan, seed: u64, oracle: &mut Oracle) -> Self {
        let stream = Stream::new(fx, plan, seed);
        let rates = plan.mix.rates();
        if plan.mix == Mix::Repeat {
            for r in stream.pool() {
                oracle.format(
                    crate::fixture::select(&fx.serve, &r.m),
                    r.want,
                    "serve warm-up",
                );
            }
        }
        Phase {
            fx,
            plan,
            stream,
            hits: hit_counter(&fx.serve),
            low: Rounds::default(),
            high: Rounds::default(),
            rungs: ladder(rates.ladder.0, rates.ladder.1),
            rung: ladder(rates.ladder.0, rates.start).len() - 1,
            probes: Vec::new(),
            low_window: Window::empty(),
            high_window: Window::empty(),
            low_path_ms: 0.0,
        }
    }

    fn reading(&self) -> (MetricsSnapshot, ServerReport) {
        (self.fx.serve.metrics_snapshot(), self.fx.serve.report())
    }

    fn run_at(&mut self, rate: f64, n: usize, oracle: &mut Oracle) -> (RateRun, Vec<Req>) {
        let reqs = self.stream.take(self.fx, n);
        let run = drive(&self.fx.serve, &self.hits, &reqs, rate, oracle);
        (run, reqs)
    }

    /// One low-rate and one high-rate run, then ladder probes.
    pub fn round(&mut self, oracle: &mut Oracle) {
        let rates = self.plan.mix.rates();
        let n = self.plan.n_rate;
        let before = self.reading();
        let (low, reqs) = self.run_at(rates.low, n, oracle);
        let after = self.reading();
        self.low_window.add(&Window::between(&before, &after));
        if self.plan.traced {
            for &i in &low.missed {
                self.low_path_ms += crate::trace::miss_path_ms(self.fx, &reqs[i].m);
            }
        }
        self.low.0.push(low);
        let (high, _) = self.run_at(rates.high, n, oracle);
        self.high_window
            .add(&Window::between(&after, &self.reading()));
        self.high.0.push(high);
        for _ in 0..self.plan.probes_per_round {
            self.probe(oracle);
        }
    }

    /// One step of the ladder staircase: probe the current rung, then
    /// move one rung up if it met the limit and one down if it did not.
    /// The walk settles where the limit is met in half the probes, and
    /// every probe counts, so one stall moves the estimate by a rung at
    /// most.
    fn probe(&mut self, oracle: &mut Oracle) {
        let rate = self.rungs[self.rung];
        let n = self
            .plan
            .n_probe
            .max((rate * self.plan.probe_secs) as usize);
        let r = self.run_at(rate, n, oracle).0;
        let met = r.met_limit();
        self.probes.push((met, r.achieved_rps));
        self.rung = if met {
            (self.rung + 1).min(self.rungs.len() - 1)
        } else {
            self.rung.saturating_sub(1)
        };
    }

    /// The staircase's estimate: the median achieved rate of the probes
    /// that met the limit, after the first [`BURN_IN`] probes walked
    /// from the start rung. Should none have met it (a host slower than
    /// the ladder's floor), the median over every counted probe, with a
    /// note on stderr: a slow result, not a wrong one.
    fn max_rps(&self) -> f64 {
        let counted = &self.probes[BURN_IN.min(self.probes.len() / 2)..];
        let rates = |only_met: bool| -> Vec<f64> {
            counted
                .iter()
                .filter(|(met, _)| *met || !only_met)
                .map(|&(_, rps)| rps)
                .collect()
        };
        let met = rates(true);
        if met.is_empty() {
            eprintln!("note: no ladder probe met the limit; serve.max_rps is the probes' median");
            return median(&rates(false));
        }
        median(&met)
    }

    pub fn finish(self, oracle: &mut Oracle) -> Serve {
        oracle.accounting(&self.fx.serve.report(), "serve server");
        let max_rps = self.max_rps();
        Serve {
            low: self.low,
            high: self.high,
            max_rps,
            low_window: self.low_window,
            high_window: self.high_window,
            low_path_ms: self.low_path_ms,
            sample: self
                .stream
                .pool()
                .iter()
                .take(self.plan.trace_serve_sample)
                .map(|r| Arc::clone(&r.m))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_geometric_and_spans_its_ends() {
        let l = ladder(1000.0, 2000.0);
        assert_eq!(l[0], 1000.0);
        assert!(l
            .windows(2)
            .all(|w| (w[1] / w[0] - LADDER_STEP).abs() < 1e-9));
        assert!(*l.last().unwrap() <= 2000.0 && l.last().unwrap() * LADDER_STEP > 2000.0);
    }

    #[test]
    fn p99_is_the_median_of_window_p99s() {
        // Three windows; one holds a 12-request stall.
        let mut lat = vec![100.0; 3 * WINDOW];
        lat[WINDOW..WINDOW + 12].fill(5000.0);
        assert_eq!(window_p99(&lat), 100.0);
        // A stall in two of three windows is the run's p99.
        lat[..12].fill(5000.0);
        assert_eq!(window_p99(&lat), 5000.0);
        // A short tail joins the last window: 12 slow of 1010 still
        // break its p99; two clean windows after it outvote it.
        let mut short = vec![100.0; WINDOW + 10];
        short[..12].fill(5000.0);
        assert_eq!(window_p99(&short), 5000.0);
        short.extend(vec![100.0; 2 * WINDOW]);
        assert_eq!(window_p99(&short), 100.0);
    }

    #[test]
    fn a_growing_queue_shows_as_backlog_but_a_pause_does_not() {
        let mut lat = vec![200.0; 3 * WINDOW];
        assert!(!backlog_grew(&lat));
        // A 5 ms pause mid-run lifts a few requests.
        lat[1500..1520].fill(5000.0);
        assert!(!backlog_grew(&lat));
        // A queue growing by 1 µs a request lifts the last window's
        // median by about 2 ms.
        let growing: Vec<f64> = (0..3 * WINDOW).map(|i| 200.0 + i as f64).collect();
        assert!(backlog_grew(&growing));
        // One window has no trend to judge.
        assert!(!backlog_grew(&growing[..WINDOW]));
    }

    #[test]
    fn limit_needs_p99_no_shed_and_no_backlog() {
        let ok = RateRun {
            lat_us: vec![100.0; 1000],
            ..RateRun::default()
        };
        assert!(ok.met_limit());
        let mut slow = ok.clone();
        slow.lat_us[..20].fill(LIMIT_US * 2.0);
        assert!(!slow.met_limit());
        let shed = RateRun {
            shed: 1,
            ..ok.clone()
        };
        assert!(!shed.met_limit());
        let grew = RateRun {
            backlog_grew: true,
            ..ok
        };
        assert!(!grew.met_limit());
    }
}
