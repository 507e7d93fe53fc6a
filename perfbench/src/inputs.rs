//! Benchmark inputs, all derived from the workload seed and generated
//! before any timing starts.

use crate::fixture::training_distribution;
use dnnspmv_core::matrix_fingerprint;
use dnnspmv_gen::{generate, MatrixClass};
use dnnspmv_sparse::CooMatrix;
use std::collections::HashSet;
use std::sync::Arc;

/// §7.6-scale operators, one per class, by nonzero count (10⁵–1.2·10⁶).
/// The generators draw each matrix's density from its seed, so a fixed
/// edge would give a PowerLaw operator anywhere from 2·10⁵ to 5·10⁶
/// nonzeros; sizing by count keeps every seed's pass the same work.
pub const LARGE: [(MatrixClass, usize); 7] = [
    (MatrixClass::Stencil, 1_200_000),
    (MatrixClass::Banded, 300_000),
    (MatrixClass::PowerLaw, 800_000),
    (MatrixClass::UniformRows, 800_000),
    (MatrixClass::Random, 400_000),
    (MatrixClass::Block, 400_000),
    (MatrixClass::Hypersparse, 100_000),
];

/// The reference solve set's operators are this much smaller.
pub const SMALL_DIVISOR: usize = 100;

/// One operator to solve.
pub struct Op {
    pub class: MatrixClass,
    pub matrix: Arc<CooMatrix<f32>>,
}

/// Mixes a seed with stream and item indices (splitmix64 finaliser),
/// so every input has its own reproducible seed.
pub fn derive(seed: u64, stream: u64, item: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ item.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `class` matrix of about `nnz` nonzeros: the density is learnt on
/// a 2000-edge instance of the same seed, the edge scaled to the
/// target, and rescaled once more if the result is over 10 % off.
pub fn sized(class: MatrixClass, nnz: usize, seed: u64) -> CooMatrix<f32> {
    let mut dim = 2000;
    let mut m = generate(class, dim, seed);
    for _ in 0..2 {
        if m.nnz().abs_diff(nnz) * 10 <= nnz && dim != 2000 {
            break;
        }
        dim = (dim as f64 * nnz as f64 / m.nnz().max(1) as f64) as usize;
        // A seed-dependent edge, so equal densities still give
        // structurally distinct operators.
        dim = dim.max(16) + (seed % 61) as usize;
        m = generate(class, dim, seed);
    }
    m
}

/// Structural fingerprints already handed out, so every generated
/// input is new to a decision cache (which keys on structure).
#[derive(Default)]
pub struct Seen(HashSet<u64>);

impl Seen {
    /// Whether `m` is structurally new; records it.
    pub fn fresh(&mut self, m: &CooMatrix<f32>) -> bool {
        self.0.insert(matrix_fingerprint(m))
    }
}

/// Fresh operators for solve pass `pass`, one per class: the large
/// ones, or the [`SMALL_DIVISOR`] times smaller reference set, each
/// structurally unlike any earlier one.
pub fn solve_set(large: bool, seed: u64, pass: usize, seen: &mut Seen) -> Vec<Op> {
    LARGE
        .iter()
        .enumerate()
        .map(|(i, &(class, nnz))| {
            let nnz = if large { nnz } else { nnz / SMALL_DIVISOR };
            // A class whose structure is set by its size alone (a
            // stencil grid) repeats across seeds; aim 2 % larger per
            // retry until the structure is new.
            let m = (0..)
                .map(|k| {
                    let target = nnz + nnz * k as usize / 50;
                    sized(
                        class,
                        target,
                        derive(seed, 1 + pass as u64, (i as u64) << 16 | k),
                    )
                })
                .find(|m| seen.fresh(m))
                .expect("some size gives a new structure");
            Op {
                class,
                matrix: Arc::new(m),
            }
        })
        .collect()
}

/// A dense right-hand side with entries in [-1, 1).
pub fn vector(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| (derive(seed, 0x5EC7, i as u64) >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

/// `n` training-distribution matrices of stream `stream`, each
/// structurally unlike every matrix `seen` so far.
pub fn pool(n: usize, seed: u64, stream: u64, seen: &mut Seen) -> Vec<Arc<CooMatrix<f32>>> {
    let mut out = Vec::with_capacity(n);
    let mut round = 0;
    while out.len() < n {
        let want = n - out.len();
        // A tenth more than needed: structural repeats are dropped.
        let batch =
            training_distribution(want + want / 10 + 1, derive(seed, 0x9001 + round, stream));
        out.extend(
            batch
                .into_iter()
                .filter(|m| seen.fresh(m))
                .take(want)
                .map(Arc::new),
        );
        round += 1;
    }
    out
}
