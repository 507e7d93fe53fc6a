//! The traced pass: times each layer from outside, through its public
//! functions, on the inputs the end-to-end phases used. Spans are kept
//! in memory as per-call durations and reduced to medians.

use crate::fixture::{formats, Fixture};
use crate::inputs;
use crate::stats::median;
use dnnspmv_core::samples::{make_channels, make_channels_with_cancel};
use dnnspmv_core::{matrix_fingerprint, SelectorConfig};
use dnnspmv_nn::{Layer, Tensor};
use dnnspmv_repr::MatrixRepr;
use dnnspmv_sparse::{AnyMatrix, CooMatrix, CsrMatrix, Spmv};
use std::sync::Arc;
use std::time::Instant;

fn channels(m: &CooMatrix<f32>, cfg: &SelectorConfig) -> Vec<Tensor> {
    make_channels(m, cfg.repr, &cfg.repr_config)
}

/// Repetition policy of one traced measurement.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub min: usize,
    pub min_secs: f64,
}

/// Median µs per call of `f`, over at least `reps.min` calls and
/// `reps.min_secs` seconds.
pub fn time_us(reps: Reps, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut xs = Vec::new();
    while xs.len() < reps.min.max(1) || start.elapsed().as_secs_f64() < reps.min_secs {
        let t = Instant::now();
        f();
        xs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&xs)
}

/// Layer costs of one matrix on the selection path, µs.
#[derive(Debug, Clone)]
pub struct PathCost {
    pub nnz: usize,
    pub fingerprint_us: f64,
    pub extract_us: f64,
    pub forward_us: f64,
    /// The cancellable twins the server's workers call (with a check
    /// that never fires).
    pub extract_cancel_us: f64,
    pub forward_cancel_us: f64,
    /// One sequential CSR SpMV: the unit §7.6 ratios are given in.
    pub csr_seq_us: f64,
}

/// Times the selection-path layers of one matrix.
pub fn path_cost(fx: &Fixture, m: &CooMatrix<f32>, reps: Reps) -> PathCost {
    let cfg = &fx.cnn.config;
    let input = channels(m, cfg);
    let csr = CsrMatrix::from_coo(m);
    let x = inputs::vector(m.ncols(), 1);
    let mut y = vec![0.0f32; m.nrows()];
    PathCost {
        nnz: m.nnz(),
        fingerprint_us: time_us(reps, || {
            std::hint::black_box(matrix_fingerprint(m));
        }),
        extract_us: time_us(reps, || {
            std::hint::black_box(MatrixRepr::extract(m, cfg.repr, &cfg.repr_config));
        }),
        forward_us: time_us(reps, || {
            std::hint::black_box(fx.cnn.net.forward(&input));
        }),
        extract_cancel_us: time_us(reps, || {
            std::hint::black_box(MatrixRepr::extract_with_cancel(
                m,
                cfg.repr,
                &cfg.repr_config,
                &|| false,
            ));
        }),
        forward_cancel_us: time_us(reps, || {
            std::hint::black_box(fx.cnn.net.forward_with_cancel(&input, &|| false));
        }),
        csr_seq_us: time_us(reps, || csr.spmv(std::hint::black_box(&x), &mut y)),
    }
}

/// One CNN layer's cost: `(tower, index, kind)`, µs, and its FLOPs for
/// convolution and dense layers.
pub struct LayerCost {
    pub tower: String,
    pub index: usize,
    pub kind: &'static str,
    pub us: f64,
    pub flops: Option<f64>,
}

fn kind(l: &Layer) -> &'static str {
    match l {
        Layer::Conv2d(_) => "conv",
        Layer::MaxPool2d(_) => "pool",
        Layer::Relu => "relu",
        Layer::Flatten => "flatten",
        Layer::Dense(_) => "dense",
    }
}

/// Multiply-adds times two, from the layer's shapes.
fn flops(l: &Layer, out_shape: &[usize]) -> Option<f64> {
    match l {
        Layer::Conv2d(c) => {
            let out: usize = out_shape.iter().product();
            Some(2.0 * (out * c.in_ch * c.ksize * c.ksize) as f64)
        }
        Layer::Dense(d) => Some(2.0 * (d.in_dim * d.out_dim) as f64),
        _ => None,
    }
}

/// Times every layer of the deployed CNN, through `Layer::forward`, on
/// one matrix's channels (late merging: one tower per channel).
pub fn layer_costs(fx: &Fixture, m: &CooMatrix<f32>, reps: Reps) -> Vec<LayerCost> {
    let net = &fx.cnn.net;
    let input = channels(m, &fx.cnn.config);
    let (h, w) = net.channel_shape;
    let mut out = Vec::new();
    let mut run = |tower: String, layers: &[Layer], mut x: Tensor| -> Tensor {
        for (index, l) in layers.iter().enumerate() {
            let us = time_us(reps, || {
                std::hint::black_box(l.forward(&x));
            });
            x = l.forward(&x);
            out.push(LayerCost {
                tower: tower.clone(),
                index,
                kind: kind(l),
                us,
                flops: flops(l, x.shape()),
            });
        }
        x
    };
    let feats: Vec<Tensor> = net
        .towers
        .iter()
        .zip(&input)
        .enumerate()
        .map(|(t, (tower, c))| {
            run(
                format!("t{t}"),
                &tower.layers,
                c.clone().reshape(&[1, h, w]),
            )
        })
        .collect();
    let refs: Vec<&Tensor> = feats.iter().collect();
    run("head".into(), &net.head.layers, Tensor::concat_flat(&refs));
    out
}

/// Per-format conversion and SpMV costs on one matrix; `None` where
/// the format's padding limit rejects it.
pub struct FormatCost {
    pub convert_ms: f64,
    pub seq_us: f64,
    pub par_us: f64,
    /// Bytes an SpMV must touch at least: 8 per nonzero (f32 value and
    /// u32 column index), 4 per row and per column. Computed, not a
    /// DRAM measurement.
    pub bytes: f64,
}

pub fn format_costs(m: &CooMatrix<f32>, reps: Reps) -> Vec<Option<FormatCost>> {
    let x = inputs::vector(m.ncols(), 2);
    let mut y = vec![0.0f32; m.nrows()];
    let bytes = 8.0 * m.nnz() as f64 + 4.0 * (m.nrows() + m.ncols()) as f64;
    formats()
        .into_iter()
        .map(|format| {
            let a = AnyMatrix::convert(m, format).ok()?;
            let convert_ms = time_us(reps, || {
                std::hint::black_box(AnyMatrix::convert(m, format).ok());
            }) / 1e3;
            Some(FormatCost {
                convert_ms,
                seq_us: time_us(reps, || a.spmv(std::hint::black_box(&x), &mut y)),
                par_us: time_us(reps, || a.spmv_par(std::hint::black_box(&x), &mut y)),
                bytes,
            })
        })
        .collect()
}

/// Tree costs of one matrix: feature extraction and the whole
/// `DtSelector::predict_label` (features plus walk; the walk alone is
/// not reachable from outside), µs.
pub fn tree_costs(fx: &Fixture, m: &CooMatrix<f32>, reps: Reps) -> (f64, f64) {
    (
        time_us(reps, || {
            std::hint::black_box(dnnspmv_tree::features(m));
        }),
        time_us(reps, || {
            std::hint::black_box(fx.dt.predict_label(m));
        }),
    )
}

/// `Cnn::forward_batch` over eight matrices, µs per sample.
pub fn batch8_us_per_sample(fx: &Fixture, ms: &[Arc<CooMatrix<f32>>], reps: Reps) -> f64 {
    let batch: Vec<Vec<Tensor>> = ms
        .iter()
        .cycle()
        .take(8)
        .map(|m| channels(m, &fx.cnn.config))
        .collect();
    let refs: Vec<&[Tensor]> = batch.iter().map(|c| c.as_slice()).collect();
    time_us(reps, || {
        std::hint::black_box(fx.cnn.net.forward_batch(&refs));
    }) / 8.0
}

/// One cache miss's worker-side layers, as the server's workers run
/// them (the cancellable twins, with a check that never fires):
/// extraction into CNN channels, then the forward pass; ms, one call.
pub fn miss_path_ms(fx: &Fixture, m: &CooMatrix<f32>) -> f64 {
    let cfg = &fx.cnn.config;
    let t = Instant::now();
    let input = make_channels_with_cancel(m, cfg.repr, &cfg.repr_config, &|| false)
        .expect("a check that never fires never cancels");
    std::hint::black_box(fx.cnn.net.forward_with_cancel(&input, &|| false));
    t.elapsed().as_secs_f64() * 1e3
}
