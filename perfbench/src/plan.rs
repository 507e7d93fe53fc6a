//! Workloads, their fixed parameters, and the metric names each run
//! prints.
//!
//! Every run prints the whole end-to-end scorecard, so every run goes
//! through the three user-facing phases: solve (select, convert, k
//! SpMV iterations), serve (open-loop requests) and train (batched
//! steps). A workload fixes the inputs of the phase it is named after
//! and gives that phase most of the run; the other phases run a short
//! reference configuration that is the same for every workload.

use std::time::Duration;

/// SpMV iterations per solve (the "k" of time to solution).
pub const K_SPMV: usize = 20;
/// p99 latency limit a serving rate must meet: about one CSR SpMV on
/// the §7.6 operators, the paper's selection budget.
pub const LIMIT_US: f64 = 2000.0;
/// Decision-cache capacity of every server.
pub const CACHE_CAPACITY: usize = 1024;
/// Largest micro-batch of every server.
pub const MAX_BATCH: usize = 8;
/// Queue capacity: deep enough that a backlog shows as latency before
/// it shows as shedding.
pub const QUEUE_CAPACITY: usize = 4096;
/// Matrices in the serve-repeat pool (smaller than the cache).
pub const REPEAT_POOL: usize = 256;
/// Share of serve-repeat requests that are fresh matrices.
pub const REPEAT_FRESH: f64 = 0.10;
/// Matrices in the serve-unique pool (four times the cache).
pub const UNIQUE_POOL: usize = 4096;
/// Rung step of the serving-rate ladder (5 %).
pub const LADDER_STEP: f64 = 1.05;
/// Training mini-batch.
pub const TRAIN_BATCH: usize = 32;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveLarge,
    ServeRepeat,
    ServeUnique,
    TrainSelector,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SolveLarge,
        Workload::ServeRepeat,
        Workload::ServeUnique,
        Workload::TrainSelector,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::ServeRepeat => "serve-repeat",
            Workload::ServeUnique => "serve-unique",
            Workload::TrainSelector => "train-selector",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Request mix of the serve phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 90 % redraws from a pool smaller than the cache, 10 % fresh.
    Repeat,
    /// A pool much larger than the cache replayed in cyclic order.
    Unique,
}

/// Fixed open-loop rates of one mix, requests per second, the ladder's
/// span and the rung its staircase starts from. `low` and `high` are
/// about an eighth and a quarter of the highest rate that met the limit
/// on a 2-core host in a fast spell: its speed drifts by up to 2x over
/// minutes, and at three quarters of the fast-spell maximum a slow spell
/// overloads the server, so the tail would read the overload.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    pub low: f64,
    pub high: f64,
    pub ladder: (f64, f64),
    pub start: f64,
}

impl Mix {
    pub fn rates(self) -> Rates {
        match self {
            Mix::Repeat => Rates {
                low: 6000.0,
                high: 12000.0,
                ladder: (12000.0, 200000.0),
                start: 48000.0,
            },
            Mix::Unique => Rates {
                low: 1000.0,
                high: 2000.0,
                ladder: (2000.0, 40000.0),
                start: 8000.0,
            },
        }
    }
}

/// Sizes of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    /// The traced run: the phases also time layers from outside, next
    /// to the requests they serve, and the per-layer ledger is printed.
    pub traced: bool,
    /// The phases run interleaved, a share of each per round, so a
    /// slow spell on a shared host lands in one round of each phase
    /// rather than in the whole of one. Each round also times one
    /// set-up; `setup_s` is their median.
    pub rounds: usize,
    /// Ladder probes per round (a staircase walk over the whole run).
    pub probes_per_round: usize,
    /// Matrices the deployed CNN and tree are trained on.
    pub model_matrices: usize,
    /// Epochs the deployed CNN is trained for.
    pub model_epochs: usize,
    /// Solve on the §7.6-scale operators (else the reference set).
    pub solve_large: bool,
    /// Solve passes: at least `min`, then more until `budget` is spent.
    pub solve_min_passes: usize,
    pub solve_budget: Duration,
    pub mix: Mix,
    /// Pool sizes of the two mixes.
    pub repeat_pool: usize,
    pub unique_pool: usize,
    /// Requests at each fixed rate per round; each ladder probe sends
    /// at least `n_probe` (a p99 window needs 1000) and lasts at least
    /// `probe_secs`.
    pub n_rate: usize,
    pub n_probe: usize,
    pub probe_secs: f64,
    /// Samples the training phase draws its batches from.
    pub train_samples: usize,
    /// Training steps: at least `min`, then more until `budget`.
    pub train_min_steps: usize,
    pub train_budget: Duration,
    /// Serve-pool matrices the traced pass times layer by layer.
    pub trace_serve_sample: usize,
    /// Fewest repetitions and time per traced measurement.
    pub trace_reps: usize,
    pub trace_min_secs: f64,
}

impl Plan {
    /// The plan the benchmark runs: the named workload's phase gets
    /// `seconds`, the reference phases a fixed share of that.
    pub fn new(workload: Workload, seconds: u64, traced: bool) -> Self {
        let secs = Duration::from_secs(seconds.max(1));
        let main = |w: Workload| workload == w;
        Plan {
            workload,
            traced,
            rounds: 12,
            probes_per_round: 2,
            model_matrices: 256,
            model_epochs: 3,
            solve_large: main(Workload::SolveLarge),
            // 14 cold samples a pass: p90 needs 100 (10 beyond it).
            solve_min_passes: if main(Workload::SolveLarge) { 8 } else { 30 },
            solve_budget: if main(Workload::SolveLarge) {
                secs
            } else {
                secs / 5
            },
            mix: if main(Workload::ServeUnique) {
                Mix::Unique
            } else {
                Mix::Repeat
            },
            repeat_pool: REPEAT_POOL,
            unique_pool: UNIQUE_POOL,
            n_rate: 500,
            n_probe: 3000,
            probe_secs: 0.1,
            train_samples: 256,
            train_min_steps: if main(Workload::TrainSelector) {
                60
            } else {
                16
            },
            train_budget: if main(Workload::TrainSelector) {
                secs / 2
            } else {
                secs / 5
            },
            trace_serve_sample: 48,
            trace_reps: 3,
            trace_min_secs: 0.02,
        }
    }

    /// A seconds-long plan for self-tests: same code paths, tiny sizes.
    pub fn tiny(workload: Workload, traced: bool) -> Self {
        Plan {
            rounds: 2,
            model_matrices: 40,
            model_epochs: 1,
            solve_min_passes: 1,
            solve_budget: Duration::ZERO,
            repeat_pool: 16,
            unique_pool: 48,
            n_rate: 40,
            n_probe: 30,
            probe_secs: 0.0,
            train_samples: 40,
            train_min_steps: 2,
            train_budget: Duration::ZERO,
            trace_serve_sample: 4,
            trace_reps: 1,
            trace_min_secs: 0.0,
            ..Plan::new(workload, 1, traced)
        }
    }
}

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve.select_cold_ms.p50", "ms"),
    ("solve.select_warm_ms.p50", "ms"),
    ("solve.dt_select_ms.p50", "ms"),
    ("serve.p50_us.low", "us"),
    ("serve.p50_us.high", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::LARGE;

    #[test]
    fn every_reported_percentile_has_ten_samples_beyond_it() {
        for w in Workload::ALL {
            let p = Plan::new(w, 10, false);
            // p99 of every probe and of at least 5 windows per fixed
            // rate: 1000 requests each.
            assert!(p.n_probe >= 1000 && p.n_rate * p.rounds >= 5000);
            // p90 of the cold selects: two per operator per pass.
            assert!(2 * LARGE.len() * p.solve_min_passes >= 100, "{}", w.name());
        }
    }

    /// `BENCHMARK.json` at the repository root names the same
    /// workloads and end-to-end metrics, and states each serving mix's
    /// fixed rates.
    #[test]
    fn benchmark_json_matches_the_code() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let from = spec.find(&format!("\"{key}\"")).expect("section present");
            let rest = &spec[from..];
            rest[..rest.find(']').expect("section closes")].to_string()
        };
        let workloads = section("workloads");
        for w in Workload::ALL {
            assert!(workloads.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        for (mix, name) in [(Mix::Repeat, "serve-repeat"), (Mix::Unique, "serve-unique")] {
            let r = mix.rates();
            let why = &workloads[workloads.find(name).expect("serve workload")..];
            let why = &why[..why.find('}').expect("entry closes")];
            for rate in [r.low, r.high, r.ladder.0, r.ladder.1, r.start] {
                assert!(why.contains(&format!("{rate}")), "{name} states {rate}");
            }
        }
        let e2e = section("end_to_end");
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!(
                    "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
                )),
                "{name} [{unit}]"
            );
        }
        assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
    }

    #[test]
    fn rates_sit_inside_their_ladders() {
        for mix in [Mix::Repeat, Mix::Unique] {
            let r = mix.rates();
            assert!(r.low < r.high && r.high <= r.ladder.0);
            assert!(r.ladder.0 < r.start && r.start < r.ladder.1);
        }
        const { assert!(REPEAT_POOL < CACHE_CAPACITY && UNIQUE_POOL >= 4 * CACHE_CAPACITY) };
    }
}
