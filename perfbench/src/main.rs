//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-large|serve-repeat|serve-unique|train-selector> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up the deployed
//! model and its servers (timed, median of several set-ups), runs the
//! solve, serve and train phases and checks every output. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end scorecard with `--trace 0`, the
//! per-layer ledger (a separate traced pass after the same phases)
//! with `--trace 1`. The line before it records the host. Exits 1 when
//! a check failed, 2 on bad arguments.

mod fixture;
mod host;
mod inputs;
mod ledger;
mod oracle;
mod plan;
mod serve;
mod solve;
mod stats;
mod trace;
mod train;

use fixture::Fixture;
use ledger::Metrics;
use oracle::Oracle;
use plan::{Plan, Workload};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Result of one run.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs one workload end to end (and the traced pass when asked).
pub fn run(plan: &Plan, seed: u64) -> Outcome {
    let mut oracle = Oracle::default();
    // Wall seconds per part of the run, reported on stderr.
    let mut wall = [0.0f64; 5];
    let mut lap = |i: usize, t: &mut Instant| {
        wall[i] += t.elapsed().as_secs_f64();
        *t = Instant::now();
    };
    let mut t = Instant::now();
    let fx = Fixture::build(plan);
    let mut serve = serve::Phase::new(&fx, plan, seed, &mut oracle);
    let mut train = train::Phase::new(plan, seed);
    let mut solve = solve::Phase::new(&fx, plan, seed);
    let mut setup_s = Vec::new();
    lap(0, &mut t);
    for round in 0..plan.rounds {
        // A throwaway set-up per round; its servers stop untimed.
        let spare = Fixture::build(plan);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(spare);
        lap(0, &mut t);
        serve.round(&mut oracle);
        lap(1, &mut t);
        train.round();
        lap(2, &mut t);
        solve.round(round, &mut oracle);
        lap(3, &mut t);
    }
    let serve = serve.finish(&mut oracle);
    let train = train.finish(&mut oracle);
    let solve = solve.finish(&mut oracle);
    lap(0, &mut t);
    let metrics = if plan.traced {
        ledger::per_layer(
            &ledger::Phases {
                fx: &fx,
                plan,
                solve: &solve,
                serve: &serve,
                train: &train,
            },
            &mut oracle,
        )
    } else {
        ledger::end_to_end(&setup_s, &solve, &serve)
    };
    lap(4, &mut t);
    eprintln!(
        "wall s: inputs+setup {:.1}, serve {:.1}, train {:.1}, solve {:.1}, trace {:.1}",
        wall[0], wall[1], wall[2], wall[3], wall[4]
    );
    for (name, (v, _)) in &metrics {
        oracle.check(v.is_finite(), || {
            format!("metric {name} is not finite: {v}")
        });
    }
    Outcome {
        metrics,
        attempted: oracle.attempted(),
        failed: oracle.failed(),
    }
}

/// The result line.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            // Non-finite values failed a check; JSON cannot carry them.
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seconds, args.trace);
    let outcome = run(&plan, args.seed);
    println!(
        "{}",
        host::Host::probe().to_json(args.workload.name(), args.seed)
    );
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(w: Workload, traced: bool) -> Outcome {
        let o = run(&Plan::tiny(w, traced), 7);
        assert_eq!(o.failed, 0, "{} failed checks", w.name());
        assert!(o.attempted > 0);
        o
    }

    #[test]
    fn smoke_solve_large_workload() {
        // The tiny plan solves the reference set; the large operators
        // are too slow for a unit test.
        let o = smoke(Workload::SolveLarge, false);
        let names: Vec<&str> = o.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = plan::END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert!(o.metrics.values().all(|(v, _)| *v > 0.0));
    }

    #[test]
    fn smoke_serve_repeat_workload() {
        smoke(Workload::ServeRepeat, false);
    }

    #[test]
    fn smoke_serve_unique_workload() {
        smoke(Workload::ServeUnique, false);
    }

    #[test]
    fn smoke_train_selector_workload() {
        smoke(Workload::TrainSelector, false);
    }

    #[test]
    fn traced_run_prints_the_benchmark_json_ledger() {
        let o = smoke(Workload::ServeUnique, true);
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = spec
            .split("\"per_layer\"")
            .nth(1)
            .expect("a per_layer section")
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote"))
            .collect();
        let mut listed = listed;
        listed.sort_unstable();
        let printed: Vec<&str> = o.metrics.keys().map(String::as_str).collect();
        assert_eq!(printed, listed);
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse(&a("--workload serve-unique --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::ServeUnique, 3, 5, true)
        );
        assert!(parse(&a("--workload nope --seed 1")).is_err());
        assert!(parse(&a("--workload solve-large")).is_err());
        assert!(parse(&a("--workload solve-large --seed x")).is_err());
        assert!(parse(&a("--workload solve-large --seed 1 --trace 2")).is_err());
        assert!(parse(&a("--workload solve-large --seed 1 --bogus 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        metrics.insert("setup_s".into(), (0.25, "s"));
        let line = result_json(&Outcome {
            metrics,
            attempted: 3,
            failed: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
