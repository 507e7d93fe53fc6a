//! Reduces what the phases and the traced pass measured to named
//! metrics: the end-to-end scorecard and the per-layer ledger.

use crate::fixture::{formats, Fixture};
use crate::oracle::Oracle;
use crate::plan::{Plan, Workload, END_TO_END};
use crate::serve::Serve;
use crate::solve::Solve;
use crate::stats::{median, quantile, unattributed_frac};
use crate::trace::{self, FormatCost, PathCost, Reps};
use crate::train::Train;
use dnnspmv_core::ServerReport;
use dnnspmv_obs::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Largest share of the solve-large cold select the layer ledger may
/// leave unexplained.
pub const ATTRIBUTION_BAR: f64 = 0.10;

/// The end-to-end scorecard.
pub fn end_to_end(setup_s: &[f64], solve: &Solve, serve: &Serve) -> Metrics {
    let values = [
        median(setup_s),
        median(&solve.times.cold_ms),
        median(&solve.times.warm_ms),
        median(&solve.times.dt_ms),
        serve.low.pooled(0.5),
        serve.high.pooled(0.5),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), (v, unit)))
        .collect()
}

/// Caller-visible figures that spread too far between runs on a shared
/// 2-core host to carry a regression bound (10-run spreads of 0.25-2:
/// time to solution with the formats the inputs draw, the serving tail,
/// the rate ladder, two-thread training); the traced run reports them
/// without one.
fn unbounded(m: &mut Metrics, solve: &Solve, serve: &Serve, train: &Train) {
    let rows = [
        ("train.samples_per_s", train.samples_per_s(), "samples/s"),
        ("solve.tts_s", median(&solve.times.tts_s), "s"),
        (
            "solve.select_cold_ms.p90",
            quantile(&solve.times.cold_ms, 0.9),
            "ms",
        ),
        ("serve.p95_us.low", serve.low.pooled(0.95), "us"),
        ("serve.p95_us.high", serve.high.pooled(0.95), "us"),
        ("serve.max_rps", serve.max_rps, "req/s"),
    ];
    for (name, v, unit) in rows {
        m.insert(name.to_string(), (v, unit));
    }
}

fn hist(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    match (a.histogram(name, &[]), b.histogram(name, &[])) {
        (Some(a), Some(b)) => b.minus(a),
        (None, Some(b)) => b.clone(),
        _ => HistogramSnapshot::empty(),
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What one server did over a stretch of its life: histogram and
/// counter differences between two snapshots, summable over stretches.
#[derive(Clone)]
pub struct Window {
    queue_wait: HistogramSnapshot,
    handle: HistogramSnapshot,
    batch_size: HistogramSnapshot,
    cache_hit: HistogramSnapshot,
    /// served, from cache, batched, single, shed, submitted, cache
    /// hits, cache lookups, inserted, evicted.
    counts: [u64; 10],
}

fn counts(r: &ServerReport) -> [u64; 10] {
    let c = &r.cache;
    [
        r.served,
        r.served_cache,
        r.batched_served,
        r.single_served,
        r.shed,
        r.submitted,
        c.hits,
        c.hits + c.misses + c.stale + c.expired,
        c.inserted,
        c.evicted,
    ]
}

impl Window {
    pub fn empty() -> Self {
        let e = HistogramSnapshot::empty();
        Window {
            queue_wait: e.clone(),
            handle: e.clone(),
            batch_size: e.clone(),
            cache_hit: e,
            counts: [0; 10],
        }
    }

    /// The stretch between two (snapshot, report) readings.
    pub fn between(
        a: &(MetricsSnapshot, ServerReport),
        b: &(MetricsSnapshot, ServerReport),
    ) -> Self {
        let (ca, cb) = (counts(&a.1), counts(&b.1));
        Window {
            queue_wait: hist(&a.0, &b.0, "serve_queue_wait_ns"),
            handle: hist(&a.0, &b.0, "serve_handle_ns"),
            batch_size: hist(&a.0, &b.0, "serve_batch_size"),
            cache_hit: hist(&a.0, &b.0, "serve_cache_hit_ns"),
            counts: std::array::from_fn(|i| cb[i] - ca[i]),
        }
    }

    pub fn add(&mut self, o: &Window) {
        self.queue_wait = self.queue_wait.merged(&o.queue_wait);
        self.handle = self.handle.merged(&o.handle);
        self.batch_size = self.batch_size.merged(&o.batch_size);
        self.cache_hit = self.cache_hit.merged(&o.cache_hit);
        for (c, d) in self.counts.iter_mut().zip(o.counts) {
            *c += d;
        }
    }

    /// Total queue wait, ms. The server records it from admission, so
    /// it covers the fingerprint and cache lookup in `submit` too.
    pub fn queue_wait_ms(&self) -> f64 {
        self.queue_wait.sum as f64 / 1e6
    }

    /// The server and cache rows of the ledger.
    fn put(&self, m: &mut Metrics) {
        let us = |h: &HistogramSnapshot, q: f64| h.quantile(q) as f64 / 1e3;
        let [served, cache, batched, single, shed, submitted, hits, lookups, inserted, evicted] =
            self.counts;
        let rows: [(&str, f64, &'static str); 15] = [
            ("server.queue_wait_us.p50", us(&self.queue_wait, 0.5), "us"),
            ("server.queue_wait_us.p99", us(&self.queue_wait, 0.99), "us"),
            ("server.handle_us.p50", us(&self.handle, 0.5), "us"),
            ("server.handle_us.p99", us(&self.handle, 0.99), "us"),
            ("server.batch_size.mean", self.batch_size.mean(), "count"),
            ("server.path_share.cache", share(cache, served), "ratio"),
            ("server.path_share.batched", share(batched, served), "ratio"),
            ("server.path_share.single", share(single, served), "ratio"),
            ("server.shed_frac", share(shed, submitted), "ratio"),
            ("cache.hit_rate", share(hits, lookups), "ratio"),
            ("cache.hit_us.p50", us(&self.cache_hit, 0.5), "us"),
            ("cache.inserted", inserted as f64, "count"),
            ("cache.evicted", evicted as f64, "count"),
            ("cache.lookups", lookups as f64, "count"),
            ("server.served", served as f64, "count"),
        ];
        for (name, v, unit) in rows {
            m.insert(name.to_string(), (v, unit));
        }
    }
}

fn med(costs: &[PathCost], f: impl Fn(&PathCost) -> f64) -> f64 {
    median(&costs.iter().map(f).collect::<Vec<_>>())
}

/// Everything the per-layer ledger needs from the end-to-end phases.
pub struct Phases<'a> {
    pub fx: &'a Fixture,
    pub plan: &'a Plan,
    pub solve: &'a Solve,
    pub serve: &'a Serve,
    pub train: &'a Train,
}

/// Runs the traced pass and reduces it, with the servers' own
/// histograms and counters, to the per-layer ledger.
pub fn per_layer(p: &Phases, oracle: &mut Oracle) -> Metrics {
    let Phases {
        fx,
        plan,
        solve,
        serve,
        train,
    } = *p;
    let reps = Reps {
        min: plan.trace_reps,
        min_secs: plan.trace_min_secs,
    };
    let mut m = Metrics::new();
    let put = |m: &mut Metrics, name: String, v: f64, unit: &'static str| {
        m.insert(name, (v, unit));
    };
    unbounded(&mut m, solve, serve, train);

    // Server and cache: the solve phase's first CNN server on
    // solve-large, else the serving server over its high-rate runs.
    if plan.workload == Workload::SolveLarge {
        solve.window.put(&mut m);
    } else {
        serve.high_window.put(&mut m);
    }
    let late: Vec<f64> = serve
        .low
        .0
        .iter()
        .chain(&serve.high.0)
        .flat_map(|r| r.late_us.iter().copied())
        .collect();
    // p99 per 1000-request window, median over windows: the host's
    // millisecond pauses (several a second here) otherwise set it.
    for (name, v) in [
        ("gen.late_us.p99", quantile(&late, 0.99)),
        ("serve.p99_us.low", serve.low.p99_us()),
        ("serve.p99_us.high", serve.high.p99_us()),
    ] {
        put(&mut m, name.into(), v, "us");
    }

    // Selection-path layers on the solve operators and on a sample of
    // the serve pool; the main phase's set gives the headline numbers.
    let solve_costs: Vec<PathCost> = solve
        .last_ops
        .iter()
        .map(|o| trace::path_cost(fx, &o.matrix, reps))
        .collect();
    let serve_sample = &serve.sample;
    let serve_costs: Vec<PathCost> = serve_sample
        .iter()
        .map(|r| trace::path_cost(fx, r, reps))
        .collect();
    let main_large = plan.workload == Workload::SolveLarge;
    let (main_costs, main_ms): (&[PathCost], Vec<_>) = if main_large {
        (
            &solve_costs,
            solve.last_ops.iter().map(|o| o.matrix.clone()).collect(),
        )
    } else {
        (&serve_costs, serve_sample.clone())
    };
    let per_nnz = |c: &PathCost, us: f64| us * 1e3 / c.nnz.max(1) as f64;
    // The unit of the §7.6 ratios is `spmv_units.base_us`: one
    // sequential CSR SpMV on the same matrices.
    let rows = [
        (
            "fingerprint.us.p50",
            med(main_costs, |c| c.fingerprint_us),
            "us",
        ),
        (
            "fingerprint.ns_per_nnz",
            med(main_costs, |c| per_nnz(c, c.fingerprint_us)),
            "ns",
        ),
        (
            "repr.extract_us.p50",
            med(main_costs, |c| c.extract_us),
            "us",
        ),
        (
            "repr.extract_cancel_us.p50",
            med(main_costs, |c| c.extract_cancel_us),
            "us",
        ),
        (
            "repr.ns_per_nnz",
            med(main_costs, |c| per_nnz(c, c.extract_us)),
            "ns",
        ),
        (
            "repr.extract_spmv_units",
            med(main_costs, |c| c.extract_us / c.csr_seq_us),
            "spmv",
        ),
        ("nn.forward_us.p50", med(main_costs, |c| c.forward_us), "us"),
        (
            "nn.forward_cancel_us.p50",
            med(main_costs, |c| c.forward_cancel_us),
            "us",
        ),
        (
            "nn.forward_spmv_units",
            med(main_costs, |c| c.forward_us / c.csr_seq_us),
            "spmv",
        ),
        (
            "nn.forward_batch8_us_per_sample",
            trace::batch8_us_per_sample(fx, &main_ms, reps),
            "us",
        ),
        (
            "spmv_units.base_us",
            med(main_costs, |c| c.csr_seq_us),
            "us",
        ),
    ];
    for (name, v, unit) in rows {
        put(&mut m, name.into(), v, unit);
    }

    // Every CNN layer, on the first matrix of the main set.
    for l in trace::layer_costs(fx, &main_ms[0], reps) {
        let key = format!("{}.{}.{}", l.tower, l.index, l.kind);
        put(&mut m, format!("nn.layer_us.{key}"), l.us, "us");
        if let Some(f) = l.flops {
            put(
                &mut m,
                format!("nn.layer_gflops.{key}"),
                f / (l.us * 1e3),
                "GFLOP/s",
            );
        }
    }

    // Tree: features and the whole predict, on the main set.
    let tree: Vec<(f64, f64, f64)> = main_ms
        .iter()
        .zip(main_costs)
        .map(|(mtx, c)| {
            let (f, s) = trace::tree_costs(fx, mtx, reps);
            (f, s, f / c.csr_seq_us)
        })
        .collect();
    let col = |i: usize| -> Vec<f64> { tree.iter().map(|t| [t.0, t.1, t.2][i]).collect() };
    put(&mut m, "tree.features_us.p50".into(), median(&col(0)), "us");
    put(&mut m, "tree.select_us.p50".into(), median(&col(1)), "us");
    put(
        &mut m,
        "tree.features_spmv_units".into(),
        median(&col(2)),
        "spmv",
    );

    // Ladder shares over every server of the run.
    let reports: Vec<ServerReport> = [&fx.solve[0], &fx.solve[1], &fx.dt_server, &fx.serve]
        .iter()
        .map(|s| s.report())
        .collect();
    let sum = |f: fn(&ServerReport) -> u64| reports.iter().map(f).sum::<u64>();
    let (cnn, tree_n, default) = (
        sum(|r| r.served_cnn),
        sum(|r| r.served_tree),
        sum(|r| r.served_default),
    );
    let answered = cnn + tree_n + default;
    put(
        &mut m,
        "ladder.share.cnn".into(),
        share(cnn, answered),
        "ratio",
    );
    put(
        &mut m,
        "ladder.share.tree".into(),
        share(tree_n, answered),
        "ratio",
    );
    put(
        &mut m,
        "ladder.share.default".into(),
        share(default, answered),
        "ratio",
    );

    // Conversion and SpMV per candidate format, on the solve operators
    // (every class, so every format fits at least one of them).
    let costs: Vec<Vec<Option<FormatCost>>> = solve
        .last_ops
        .iter()
        .map(|o| trace::format_costs(&o.matrix, reps))
        .collect();
    for (i, f) in formats().into_iter().enumerate() {
        let name = f.name().to_lowercase();
        let fit: Vec<&FormatCost> = costs.iter().filter_map(|c| c[i].as_ref()).collect();
        let col = |g: fn(&FormatCost) -> f64| median(&fit.iter().map(|c| g(c)).collect::<Vec<_>>());
        put(
            &mut m,
            format!("sparse.convert_ms.{name}"),
            col(|c| c.convert_ms),
            "ms",
        );
        put(
            &mut m,
            format!("sparse.spmv_us.{name}.seq"),
            col(|c| c.seq_us),
            "us",
        );
        put(
            &mut m,
            format!("sparse.spmv_us.{name}.par"),
            col(|c| c.par_us),
            "us",
        );
        put(
            &mut m,
            format!("sparse.spmv_gbps_computed.{name}"),
            col(|c| c.bytes / (c.par_us * 1e3)),
            "GB/s",
        );
    }

    // Training.
    put(
        &mut m,
        "train.step_ms.p50".into(),
        median(&train.step_ms.concat()),
        "ms",
    );
    put(
        &mut m,
        "train.samples_per_s.serial".into(),
        train.serial_samples_per_s(),
        "samples/s",
    );

    // Attribution, as totals over the same requests (so no median is
    // subtracted from another). A cache miss's blocking path is the
    // server's queue wait, which it records from admission and so
    // covers the fingerprint and cache lookup in `submit`, then the
    // worker's extraction and forward pass, timed from outside on the
    // same matrix right after the request. What is left is the hand-off
    // back to the caller, softmax, the ladder and the cache insert.
    let solve_frac = unattributed_frac(
        solve.times.traced_cold_ms,
        &[solve.window.queue_wait_ms(), solve.times.traced_path_ms],
    );
    put(
        &mut m,
        "attribution.unattributed_frac.solve_cold".into(),
        solve_frac,
        "ratio",
    );
    if plan.workload == Workload::SolveLarge {
        oracle.check(solve_frac.abs() <= ATTRIBUTION_BAR, || {
            format!("layers leave {solve_frac:.3} of the cold select unattributed (bar {ATTRIBUTION_BAR})")
        });
    }

    // The same for the cache misses of the low-rate runs, whose
    // latency starts at the due time: generator lateness comes first.
    let (mut miss_ms, mut late_ms) = (0.0, 0.0);
    for r in &serve.low.0 {
        miss_ms += r.missed.iter().map(|&i| r.lat_us[i]).sum::<f64>() / 1e3;
        late_ms += r.missed.iter().map(|&i| r.late_us[i]).sum::<f64>() / 1e3;
    }
    let serve_frac = unattributed_frac(
        miss_ms,
        &[late_ms, serve.low_window.queue_wait_ms(), serve.low_path_ms],
    );
    put(
        &mut m,
        "attribution.unattributed_frac.serve_low".into(),
        serve_frac,
        "ratio",
    );
    m
}
