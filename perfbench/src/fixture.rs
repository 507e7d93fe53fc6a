//! Set-up: train the deployed CNN and tree, and build the services and
//! servers every phase drives. `setup_s` times [`Fixture::build`].

use crate::plan::{Plan, CACHE_CAPACITY, MAX_BATCH, QUEUE_CAPACITY};
use dnnspmv_core::{
    CacheConfig, DtSelector, FormatSelector, SelectorConfig, SelectorServer, SelectorService,
    ServerConfig,
};
use dnnspmv_gen::{Dataset, DatasetSpec};
use dnnspmv_nn::{CnnConfig, Merging, OptimizerKind, TrainConfig};
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::{ReprConfig, ReprKind};
use dnnspmv_sparse::{CooMatrix, SparseFormat};
use std::sync::Arc;

/// Seed of the deployed model's training set. Fixed, so every run
/// serves the same model and only the request inputs follow `--seed`.
pub const MODEL_SEED: u64 = 0x5E1E_C7ED;

/// Smallest and largest edge of training-distribution matrices.
pub const DIM_RANGE: (usize, usize) = (48, 256);

/// Selector configuration of the deployed model: 32x32 distance
/// histograms into late-merged towers of 8/16/32 filters.
pub fn selector_config(epochs: usize) -> SelectorConfig {
    SelectorConfig {
        repr: ReprKind::Histogram,
        repr_config: ReprConfig {
            image_size: 32,
            hist_rows: 32,
            hist_bins: 32,
        },
        merging: Merging::Late,
        cnn: CnnConfig {
            conv_channels: [8, 16, 32],
            hidden: 48,
            seed: 0xC44,
        },
        train: TrainConfig {
            epochs,
            batch_size: 32,
            lr: 2e-3,
            optimizer: OptimizerKind::adam(),
            seed: MODEL_SEED,
            ..TrainConfig::default()
        },
    }
}

/// Training-distribution matrices (the dataset generator's class mix,
/// a fifth of them augmented), fully determined by `seed`.
pub fn training_distribution(n: usize, seed: u64) -> Vec<CooMatrix<f32>> {
    Dataset::generate(&DatasetSpec {
        n_base: n - n / 5,
        n_augmented: n / 5,
        dim_min: DIM_RANGE.0,
        dim_max: DIM_RANGE.1,
        seed,
        ..DatasetSpec::default()
    })
    .matrices
}

/// Hardware threads; every server runs this many workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The candidate formats the selectors choose among.
pub fn formats() -> Vec<SparseFormat> {
    PlatformModel::intel_cpu().formats().to_vec()
}

/// Everything the phases share.
pub struct Fixture {
    pub cnn: FormatSelector,
    pub dt: DtSelector,
    /// Direct services the oracle asks: CNN → tree → CSR, and tree only.
    pub oracle: SelectorService,
    pub dt_oracle: SelectorService,
    /// Two CNN servers, so each solve operator yields two cold selects.
    pub solve: [SelectorServer<f32>; 2],
    /// A server whose service has no CNN: the rung callers get while
    /// the breaker is open.
    pub dt_server: SelectorServer<f32>,
    /// The open-loop serving server.
    pub serve: SelectorServer<f32>,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: nproc(),
        queue_capacity: QUEUE_CAPACITY,
        cache: CacheConfig::enabled(CACHE_CAPACITY),
        max_batch: MAX_BATCH,
        ..ServerConfig::default()
    }
}

fn service(cnn: Option<&FormatSelector>, dt: &DtSelector) -> SelectorService {
    SelectorService::new(cnn.cloned(), Some(dt.clone())).expect("freshly trained models validate")
}

impl Fixture {
    /// Trains the model and starts the servers.
    pub fn build(plan: &Plan) -> Self {
        let matrices = training_distribution(plan.model_matrices, MODEL_SEED);
        let formats = formats();
        let labels = label_dataset(&matrices, &PlatformModel::intel_cpu());
        let (cnn, _) = FormatSelector::train_with_labels(
            &matrices,
            &labels,
            formats.clone(),
            &selector_config(plan.model_epochs),
        );
        let dt = DtSelector::train(&matrices, &labels, formats);
        let server =
            |cnn: Option<&FormatSelector>| SelectorServer::new(service(cnn, &dt), server_config());
        Fixture {
            solve: [server(Some(&cnn)), server(Some(&cnn))],
            dt_server: server(None),
            serve: server(Some(&cnn)),
            oracle: service(Some(&cnn), &dt),
            dt_oracle: service(None, &dt),
            cnn,
            dt,
        }
    }
}

/// Submits and waits, counting any serving error as no answer.
pub fn select(server: &SelectorServer<f32>, m: &Arc<CooMatrix<f32>>) -> Option<SparseFormat> {
    server
        .submit(Arc::clone(m), None)
        .and_then(|p| p.wait())
        .ok()
        .map(|s| s.format)
}
