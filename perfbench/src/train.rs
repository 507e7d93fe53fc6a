//! Train phase (batch job): batch-32 optimisation steps on
//! pre-extracted samples, once at the default `TrainConfig` GEMM
//! threading and once serially on an identically initialised network,
//! a chunk of steps per round.

use crate::fixture::{formats, selector_config};
use crate::inputs::{self, derive};
use crate::oracle::Oracle;
use crate::plan::{Plan, TRAIN_BATCH};
use crate::stats::median;
use dnnspmv_core::make_samples;
use dnnspmv_nn::{
    build_cnn, train_step, with_gemm_threading, BatchTrainState, Cnn, GemmThreading, Optimizer,
    Sample, TrainConfig,
};
use dnnspmv_platform::{label_dataset, PlatformModel};
use std::time::Instant;

/// One network trained under one GEMM threading policy.
struct Runner {
    policy: GemmThreading,
    net: Cnn,
    opt: Optimizer,
    state: BatchTrainState,
    /// Step times of each round, ms.
    step_ms: Vec<Vec<f64>>,
    losses: Vec<f32>,
}

impl Runner {
    fn new(policy: GemmThreading, channels: usize) -> Self {
        let cfg = selector_config(1);
        let shape = cfg.repr_config.channel_shape(cfg.repr);
        let mut net = build_cnn(cfg.merging, channels, shape, formats().len(), &cfg.cnn);
        let opt = Optimizer::new(&mut net, cfg.train.optimizer, cfg.train.lr, false);
        let state = BatchTrainState::new(&net);
        Runner {
            policy,
            net,
            opt,
            state,
            step_ms: Vec::new(),
            losses: Vec::new(),
        }
    }

    fn steps(&mut self, samples: &[Sample], batches: &[Vec<usize>]) {
        let Runner {
            net,
            opt,
            state,
            losses,
            ..
        } = self;
        let times = with_gemm_threading(self.policy, || {
            batches
                .iter()
                .map(|b| {
                    let t = Instant::now();
                    losses.push(train_step(net, samples, b, opt, state));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect()
        });
        self.step_ms.push(times);
    }
}

/// What the train phase measured: step times per round, ms.
pub struct Train {
    pub step_ms: Vec<Vec<f64>>,
    pub serial_step_ms: Vec<Vec<f64>>,
}

impl Train {
    /// Samples per second at the default threading: every step's
    /// samples over every step's time.
    pub fn samples_per_s(&self) -> f64 {
        per_second(&self.step_ms)
    }

    pub fn serial_samples_per_s(&self) -> f64 {
        per_second(&self.serial_step_ms)
    }
}

fn per_second(rounds: &[Vec<f64>]) -> f64 {
    let steps = rounds.concat();
    (steps.len() * TRAIN_BATCH) as f64 * 1e3 / steps.iter().sum::<f64>()
}

/// The train phase, run a round at a time between the other phases.
pub struct Phase {
    samples: Vec<Sample>,
    batches: Vec<Vec<usize>>,
    per_round: usize,
    done: usize,
    threaded: Runner,
    serial: Runner,
}

impl Phase {
    /// Extracts the samples and fixes the batch schedule (untimed),
    /// sized so the default-threading steps fill the plan's budget.
    pub fn new(plan: &Plan, seed: u64) -> Self {
        let matrices: Vec<_> = inputs::pool(
            plan.train_samples,
            seed,
            0x7EA1,
            &mut inputs::Seen::default(),
        )
        .into_iter()
        .map(|m| (*m).clone())
        .collect();
        let labels = label_dataset(&matrices, &PlatformModel::intel_cpu());
        let cfg = selector_config(1);
        let samples = make_samples(&matrices, &labels, cfg.repr, &cfg.repr_config);
        let channels = samples[0].channels.len();
        let batch = |k: u64| -> Vec<usize> {
            (0..TRAIN_BATCH as u64)
                .map(|j| derive(seed, 0xBA7C + k, j) as usize % samples.len())
                .collect()
        };
        let policy = TrainConfig::default().gemm_threading;
        let mut probe = Runner::new(policy, channels);
        probe.steps(&samples, &(0..4).map(batch).collect::<Vec<_>>());
        let per_step_s = median(&probe.step_ms[0]) / 1e3;
        let fit = (plan.train_budget.as_secs_f64() / per_step_s.max(1e-6)) as usize;
        let per_round = plan.train_min_steps.max(fit).div_ceil(plan.rounds);
        let batches = (0..(per_round * plan.rounds) as u64).map(batch).collect();
        Phase {
            samples,
            batches,
            per_round,
            done: 0,
            threaded: Runner::new(policy, channels),
            serial: Runner::new(GemmThreading::Serial, channels),
        }
    }

    /// The next chunk of steps, threaded then serial.
    pub fn round(&mut self) {
        let chunk = &self.batches[self.done..self.done + self.per_round];
        self.threaded.steps(&self.samples, chunk);
        self.serial.steps(&self.samples, chunk);
        self.done += self.per_round;
    }

    /// Checks the loss histories and returns the step times.
    pub fn finish(self, oracle: &mut Oracle) -> Train {
        oracle.losses(&self.threaded.losses, &self.serial.losses);
        Train {
            step_ms: self.threaded.step_ms,
            serial_step_ms: self.serial.step_ms,
        }
    }
}
