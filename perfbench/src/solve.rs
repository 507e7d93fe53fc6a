//! Solve phase (closed loop, one synchronous caller): per operator, a
//! cold select, a warm re-select, a tree-only select, conversion to the
//! chosen format and k `spmv_par` iterations.

use crate::fixture::{select, Fixture};
use crate::inputs::{self, Op};
use crate::ledger::Window;
use crate::oracle::Oracle;
use crate::plan::{Plan, K_SPMV};
use crate::trace;
use dnnspmv_core::ServerReport;
use dnnspmv_obs::MetricsSnapshot;
use dnnspmv_sparse::{AnyMatrix, CsrMatrix, SparseFormat, Spmv};
use std::time::{Duration, Instant};

/// What the solve phase measured.
pub struct Solve {
    pub times: Times,
    /// The last pass's operators (the traced pass times layers on them).
    pub last_ops: Vec<Op>,
    /// The first CNN server over the phase.
    pub window: Window,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The solve phase's timings.
#[derive(Default)]
pub struct Times {
    /// Per pass, seconds: Σ over operators of cold select + convert + k
    /// SpMV iterations.
    pub tts_s: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub dt_ms: Vec<f64>,
    /// Traced runs only: the first CNN server's cold selects, summed,
    /// and the worker-side layers of the same operators timed from
    /// outside right after each (ms).
    pub traced_cold_ms: f64,
    pub traced_path_ms: f64,
}

/// The solve phase, run a round at a time between the other phases.
/// A pass may straddle rounds: its operators are solved in order and
/// its time to solution sums them whenever they ran.
pub struct Phase<'a> {
    fx: &'a Fixture,
    plan: &'a Plan,
    seed: u64,
    acc: Times,
    seen: inputs::Seen,
    /// The current pass's operators, the next one to solve, and the
    /// time to solution summed so far.
    ops: Vec<Op>,
    next: usize,
    tts: f64,
    solved: usize,
    spent: Duration,
    start: (MetricsSnapshot, ServerReport),
}

impl<'a> Phase<'a> {
    pub fn new(fx: &'a Fixture, plan: &'a Plan, seed: u64) -> Self {
        Phase {
            fx,
            plan,
            seed,
            acc: Times::default(),
            seen: inputs::Seen::default(),
            ops: Vec::new(),
            next: 0,
            tts: 0.0,
            solved: 0,
            spent: Duration::ZERO,
            start: (fx.solve[0].metrics_snapshot(), fx.solve[0].report()),
        }
    }

    /// Round `round`: this round's share of the minimum passes'
    /// operators, then more while the phase is behind its budget.
    /// After the last round the pass in progress is completed.
    pub fn round(&mut self, round: usize, oracle: &mut Oracle) {
        let plan = self.plan;
        let share = |total: f64| total * (round + 1) as f64 / plan.rounds as f64;
        let min_ops = share((plan.solve_min_passes * inputs::LARGE.len()) as f64).ceil() as usize;
        let budget = share(plan.solve_budget.as_secs_f64());
        let last = round + 1 == plan.rounds;
        let t = Instant::now();
        while self.solved < min_ops
            || (self.spent + t.elapsed()).as_secs_f64() < budget
            || (last && self.next != 0)
        {
            self.solve_next(oracle);
        }
        self.spent += t.elapsed();
    }

    fn solve_next(&mut self, oracle: &mut Oracle) {
        if self.next == 0 {
            // Untimed: the pass's fresh operators.
            let pass = self.acc.tts_s.len();
            self.ops = inputs::solve_set(self.plan.solve_large, self.seed, pass, &mut self.seen);
        }
        self.tts += solve_one(
            self.fx,
            &self.ops[self.next],
            self.seed,
            self.plan.traced,
            &mut self.acc,
            oracle,
        );
        self.solved += 1;
        self.next += 1;
        if self.next == self.ops.len() {
            self.acc.tts_s.push(std::mem::take(&mut self.tts));
            self.next = 0;
        }
    }

    pub fn finish(self, oracle: &mut Oracle) -> Solve {
        let fx = self.fx;
        for (server, ctx) in [
            (&fx.solve[0], "solve server 0"),
            (&fx.solve[1], "solve server 1"),
            (&fx.dt_server, "tree-only server"),
        ] {
            oracle.accounting(&server.report(), ctx);
        }
        Solve {
            times: self.acc,
            last_ops: self.ops,
            window: Window::between(
                &self.start,
                &(fx.solve[0].metrics_snapshot(), fx.solve[0].report()),
            ),
        }
    }
}

/// Solves one operator; returns its time-to-solution share, seconds.
fn solve_one(
    fx: &Fixture,
    op: &Op,
    seed: u64,
    traced: bool,
    out: &mut Times,
    oracle: &mut Oracle,
) -> f64 {
    let m = &op.matrix;
    let class = format!("{:?}", op.class);
    // Untimed: the oracle's answers and the CSR reference output.
    let want = fx.oracle.select(m.as_ref()).format;
    let want_dt = fx.dt_oracle.select(m.as_ref()).format;
    let x = inputs::vector(m.ncols(), seed);
    let y_ref = CsrMatrix::from_coo(m).spmv_alloc(&x);

    let t = Instant::now();
    let cold = select(&fx.solve[0], m);
    let cold_ms = ms(t);
    let t = Instant::now();
    let cold2 = select(&fx.solve[1], m);
    let cold2_ms = ms(t);
    let t = Instant::now();
    let warm = select(&fx.solve[0], m);
    let warm_ms = ms(t);
    let t = Instant::now();
    let dt = select(&fx.dt_server, m);
    out.dt_ms.push(ms(t));

    let ctx = format!("solve {class}");
    for got in [cold, cold2, warm] {
        oracle.format(got, want, &ctx);
    }
    oracle.format(dt, want_dt, &format!("{ctx} (tree)"));
    out.cold_ms.extend([cold_ms, cold2_ms]);
    out.warm_ms.push(warm_ms);
    if traced {
        out.traced_cold_ms += cold_ms;
        out.traced_path_ms += trace::miss_path_ms(fx, m);
    }

    // Convert to the chosen format, as a library would: a format whose
    // padding limit the operator exceeds falls back to CSR.
    let chosen = cold.unwrap_or(want);
    let t = Instant::now();
    let a = AnyMatrix::convert(m, chosen)
        .or_else(|_| AnyMatrix::convert(m, SparseFormat::Csr))
        .expect("CSR conversion cannot fail");
    let convert_ms = ms(t);
    let mut y = vec![0.0f32; m.nrows()];
    let t = Instant::now();
    for _ in 0..K_SPMV {
        a.spmv_par(std::hint::black_box(&x), &mut y);
    }
    let spmv_ms = ms(t);
    oracle.spmv(&y, &y_ref, &format!("{ctx} as {:?}", a.format()));
    (cold_ms + convert_ms + spmv_ms) / 1e3
}
