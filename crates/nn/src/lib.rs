//! # qcfe-nn — minimal neural network substrate
//!
//! A small, dependency-light dense neural-network library used by the QCFE
//! reproduction as the substrate for the learned cost estimators (QPPNet,
//! MSCN) and for the feature-importance machinery (plain input gradients and
//! difference propagation).
//!
//! The crate deliberately implements only what the paper needs:
//!
//! * a row-major [`Matrix`](matrix::Matrix) type with the handful of BLAS-like
//!   kernels required by dense layers,
//! * [`DenseLayer`](layer::DenseLayer) with one in-place forward/backward
//!   pair whose caller keeps the forward state in a reusable
//!   [`MlpCache`](mlp::MlpCache) workspace,
//! * the activations used by existing cost estimators (ReLU in QPPNet,
//!   sigmoid/ReLU in MSCN),
//! * mean-squared / q-error-friendly losses,
//! * the Adam optimizer,
//! * an [`Mlp`](mlp::Mlp) that composes the above into one training path
//!   and can additionally return the gradient of its output with respect to
//!   its *input* (needed by the gradient feature-reduction baseline of the
//!   paper),
//! * an allocation-free batched inference path
//!   ([`Mlp::predict_batch_into`](mlp::Mlp::predict_batch_into) with
//!   caller-owned [`InferenceScratch`](mlp::InferenceScratch) buffers) used
//!   by the serving layer's operator-grouped micro-batching,
//! * a pluggable dense-kernel layer ([`kernel`]) behind every inference
//!   matmul: runtime-detected AVX2+FMA microkernel with a bit-exact
//!   portable fallback, overridable via `QCFE_KERNEL=scalar|portable|avx2`,
//! * a tiny linear-algebra module with a least-squares solver (used to fit
//!   the feature-snapshot coefficients of Table I),
//! * dataset utilities (column projection, subsampling),
//! * the versioned, checksummed `QCFW` weight codec ([`codec`]) that
//!   persists trained [`Mlp`](mlp::Mlp) parameters bit-exactly for the
//!   serving layer's restart-without-retraining path.
//!
//! Everything is deterministic given a seeded RNG, which keeps the experiment
//! harness reproducible run-to-run.
//!
//! ## Example
//!
//! ```
//! use qcfe_nn::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // learn y = 2*x0 + 3*x1
//! let xs: Vec<Vec<f64>> = (0..256)
//!     .map(|i| vec![(i % 16) as f64 / 16.0, (i / 16) as f64 / 16.0])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 3.0 * x[1]).collect();
//! let data = Dataset::new(xs, ys).unwrap();
//!
//! let mut mlp = Mlp::new(&[2, 16, 1], Activation::Relu, &mut rng);
//! let cfg = TrainConfig { epochs: 200, batch_size: 32, ..TrainConfig::default() };
//! mlp.train(&data, &cfg, &mut rng);
//! let pred = mlp.predict_one(&[0.5, 0.5]);
//! assert!((pred - 2.5).abs() < 0.25, "prediction {pred} too far from 2.5");
//! ```

pub mod activation;
pub mod codec;
pub mod dataset;
pub mod gradcheck;
pub mod kernel;
pub mod layer;
pub mod linalg;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optimizer;

pub use activation::Activation;
pub use codec::WeightsCodecError;
pub use dataset::Dataset;
pub use kernel::MatmulKernel;
pub use layer::DenseLayer;
pub use linalg::{
    least_squares, ridge_regression, solve_linear_system, solve_normal_equations, LinAlgError,
};
pub use loss::Loss;
pub use matrix::Matrix;
pub use mlp::{InferenceScratch, Mlp, MlpCache, TrainConfig, TrainHistory};
pub use optimizer::Optimizer;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::dataset::Dataset;
    pub use crate::kernel::MatmulKernel;
    pub use crate::layer::DenseLayer;
    pub use crate::linalg::{least_squares, ridge_regression};
    pub use crate::loss::Loss;
    pub use crate::matrix::Matrix;
    pub use crate::mlp::{InferenceScratch, Mlp, MlpCache, TrainConfig, TrainHistory};
    pub use crate::optimizer::Optimizer;
}

/// Errors produced by the neural-network substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A matrix/vector shape did not match what the operation required.
    ShapeMismatch {
        /// Human-readable description of the context in which the mismatch occurred.
        context: String,
    },
    /// The dataset was empty or features/targets had inconsistent lengths.
    InvalidDataset(String),
    /// The network architecture specification was invalid (e.g. fewer than two layer sizes).
    InvalidArchitecture(String),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            NnError::InvalidDataset(msg) => write!(f, "invalid dataset: {msg}"),
            NnError::InvalidArchitecture(msg) => write!(f, "invalid architecture: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = NnError::ShapeMismatch {
            context: "matmul 2x3 * 4x5".into(),
        };
        assert!(e.to_string().contains("matmul"));
        let e = NnError::InvalidDataset("empty".into());
        assert!(e.to_string().contains("empty"));
        let e = NnError::InvalidArchitecture("need >= 2 sizes".into());
        assert!(e.to_string().contains("2 sizes"));
    }
}
