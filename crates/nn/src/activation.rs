//! Activation functions used by the learned cost estimators.
//!
//! QPPNet's neural units use ReLU; MSCN uses ReLU in the set-embedding MLPs
//! and a sigmoid-free linear output head. The paper's motivation for
//! difference propagation (Section IV-B) is precisely that ReLU gradients can
//! vanish, so the exact derivative semantics here matter for reproducing the
//! GD-vs-FR comparison (Figure 6/7).

use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity / linear activation (used on output layers).
    Identity,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Leaky ReLU with a fixed 0.01 negative slope.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Softplus, a smooth approximation of ReLU; useful for strictly
    /// positive cost outputs.
    Softplus,
}

impl Activation {
    /// Every supported activation, in the stable order the `QCFW` weight
    /// codec uses for its on-disk activation indices. Appending here is a
    /// compatible change; reordering requires a codec version bump.
    pub const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softplus,
    ];

    /// Stable index of this activation in [`Activation::ALL`]. The
    /// exhaustive match forces any new variant to pick its codec index at
    /// compile time (and the codec tests assert it agrees with `ALL`).
    pub fn index(&self) -> usize {
        match self {
            Activation::Identity => 0,
            Activation::Relu => 1,
            Activation::LeakyRelu => 2,
            Activation::Sigmoid => 3,
            Activation::Tanh => 4,
            Activation::Softplus => 5,
        }
    }

    /// Inverse of [`Activation::index`]; `None` for out-of-range indices
    /// (e.g. from a corrupted or newer weight file).
    pub fn from_index(index: usize) -> Option<Activation> {
        Activation::ALL.get(index).copied()
    }

    /// Apply the activation to a single pre-activation value.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Softplus => {
                // Numerically stable softplus.
                if x > 30.0 {
                    x
                } else if x < -30.0 {
                    0.0
                } else {
                    (1.0 + x.exp()).ln()
                }
            }
        }
    }

    /// Derivative of the activation with respect to its pre-activation input.
    #[inline]
    pub fn derivative(&self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            Activation::Sigmoid => {
                let s = self.apply(x);
                s * (1.0 - s)
            }
            Activation::Tanh => 1.0 - x.tanh().powi(2),
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softplus,
    ];

    #[test]
    fn relu_behaviour() {
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.derivative(3.0), 1.0);
        assert_eq!(Activation::Relu.derivative(-3.0), 0.0);
    }

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        let s = Activation::Sigmoid;
        assert!((s.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply(10.0) > 0.9999);
        assert!(s.apply(-10.0) < 0.0001);
        // derivative peaks at 0 with value 0.25
        assert!((s.derivative(0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn softplus_is_stable_for_extreme_inputs() {
        let sp = Activation::Softplus;
        assert!(sp.apply(1000.0).is_finite());
        assert_eq!(sp.apply(1000.0), 1000.0);
        assert_eq!(sp.apply(-1000.0), 0.0);
        assert!(sp.derivative(1000.0) <= 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in ALL {
            for &x in &[-2.3, -0.7, -0.1, 0.1, 0.9, 2.5] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn identity_is_transparent() {
        for &x in &[-5.0, 0.0, 2.5] {
            assert_eq!(Activation::Identity.apply(x), x);
            assert_eq!(Activation::Identity.derivative(x), 1.0);
        }
    }
}
