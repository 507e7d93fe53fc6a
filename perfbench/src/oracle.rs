//! Output checks. Every check is one attempted operation; every check
//! that fails is one failed operation and makes the run exit non-zero.

use dnnspmv_core::ServerReport;
use dnnspmv_sparse::SparseFormat;

/// Relative tolerance of an SpMV output against the CSR reference, in
/// the infinity norm: `max |y - y_ref| <= SPMV_REL_TOL * max |y_ref|`.
/// Formats sum a row in different orders, so f32 outputs differ in the
/// last bits; a wrong kernel differs by whole entries.
pub const SPMV_REL_TOL: f32 = 1e-4;

/// Whether `got` matches the reference `want` within [`SPMV_REL_TOL`].
pub fn spmv_matches(got: &[f32], want: &[f32]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let tol = SPMV_REL_TOL * scale.max(f32::MIN_POSITIVE);
    // Compared entry by entry: a NaN fails `<=` (a max-fold would skip it).
    got.iter().zip(want).all(|(g, w)| (g - w).abs() <= tol)
}

/// Whether a training-loss history is finite and bit-identical to the
/// history of the same steps under another GEMM threading policy.
pub fn losses_match(threaded: &[f32], serial: &[f32]) -> bool {
    threaded.len() == serial.len()
        && threaded.iter().all(|l| l.is_finite())
        && threaded
            .iter()
            .zip(serial)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Running tally of checks.
#[derive(Debug, Default)]
pub struct Oracle {
    attempted: u64,
    failed: u64,
    shown: usize,
}

/// Failures described on stderr before the rest are only counted.
const SHOW_FAILURES: usize = 10;

impl Oracle {
    /// Records one check.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.shown < SHOW_FAILURES {
                self.shown += 1;
                eprintln!("check failed: {}", describe());
            }
        }
    }

    /// A served format (`None`: the server answered with an error)
    /// against the direct `SelectorService::select` answer for the same
    /// matrix.
    pub fn format(&mut self, got: Option<SparseFormat>, want: SparseFormat, ctx: &str) {
        self.check(got == Some(want), || {
            format!("{ctx}: served {got:?}, direct select says {want:?}")
        });
    }

    /// An SpMV output against the CSR reference.
    pub fn spmv(&mut self, got: &[f32], want: &[f32], ctx: &str) {
        self.check(spmv_matches(got, want), || {
            format!("{ctx}: SpMV output differs from CSR beyond {SPMV_REL_TOL}")
        });
    }

    /// Exact request accounting of a server whose accepted work has all
    /// completed.
    pub fn accounting(&mut self, r: &ServerReport, ctx: &str) {
        self.check(r.accounted() == r.submitted && r.path_accounted(), || {
            format!(
                "{ctx}: accounting broken (submitted {}, accounted {}, path exact {})",
                r.submitted,
                r.accounted(),
                r.path_accounted()
            )
        });
    }

    /// Training losses: finite, and bit-identical across threading.
    pub fn losses(&mut self, threaded: &[f32], serial: &[f32]) {
        self.check(losses_match(threaded, serial), || {
            "training loss history is non-finite or differs between threadings".to_string()
        });
    }

    /// Checks made so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnspmv_core::{DtSelector, SelectorService};
    use dnnspmv_gen::{generate, MatrixClass};
    use dnnspmv_sparse::{AnyMatrix, CsrMatrix, Spmv};

    #[test]
    fn catches_a_wrong_decision() {
        let m = generate(MatrixClass::Banded, 64, 3);
        let dt = DtSelector::train(
            &[m.clone(), generate(MatrixClass::Random, 64, 4)],
            &[0, 1],
            vec![SparseFormat::Csr, SparseFormat::Coo],
        );
        let svc = SelectorService::new(None, Some(dt)).expect("valid tree");
        let want = svc.select(&m).format;
        let wrong = if want == SparseFormat::Csr {
            SparseFormat::Ell
        } else {
            SparseFormat::Csr
        };
        let mut o = Oracle::default();
        o.format(Some(want), want, "right");
        assert_eq!((o.attempted(), o.failed()), (1, 0));
        o.format(Some(wrong), want, "wrong");
        o.format(None, want, "error");
        assert_eq!((o.attempted(), o.failed()), (3, 2));
    }

    #[test]
    fn catches_a_wrong_spmv_output() {
        let m = generate(MatrixClass::Stencil, 400, 5);
        let x: Vec<f32> = (0..m.ncols()).map(|i| (i % 7) as f32 - 3.0).collect();
        let want = CsrMatrix::from_coo(&m).spmv_alloc(&x);
        let ell = AnyMatrix::convert(&m, SparseFormat::Ell).expect("stencil fits ELL");
        let mut y = vec![0.0; m.nrows()];
        ell.spmv_par(&x, &mut y);
        let mut o = Oracle::default();
        o.spmv(&y, &want, "ell");
        assert_eq!(o.failed(), 0, "a correct kernel passes");
        // One entry off by a whole nonzero's worth.
        let mut bad = y.clone();
        bad[m.nrows() / 2] += 1.0;
        o.spmv(&bad, &want, "perturbed");
        // A dropped tail (wrong length) and a NaN are caught too.
        o.spmv(&y[1..], &want, "short");
        let mut nan = y;
        nan[0] = f32::NAN;
        o.spmv(&nan, &want, "nan");
        assert_eq!((o.attempted(), o.failed()), (4, 3));
    }

    #[test]
    fn catches_diverging_or_nonfinite_losses() {
        assert!(losses_match(&[1.0, 0.5], &[1.0, 0.5]));
        assert!(!losses_match(&[1.0, 0.5], &[1.0, 0.5000001]));
        assert!(!losses_match(&[1.0, f32::NAN], &[1.0, f32::NAN]));
        assert!(!losses_match(&[1.0], &[1.0, 0.5]));
    }
}
