//! The Adam parameter update rule.
//!
//! [`Optimizer`] is a stateless value object holding Adam's
//! hyper-parameters; the per-parameter moments live in [`OptimizerState`],
//! so one configuration can be shared across the many small neural units
//! of QPPNet.

use crate::layer::DenseLayer;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Adam configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Optimizer {
    /// Learning rate.
    learning_rate: f64,
    /// Exponential decay for the first moment.
    beta1: f64,
    /// Exponential decay for the second moment.
    beta2: f64,
    /// Numerical stabiliser.
    epsilon: f64,
}

impl Optimizer {
    /// Adam with the conventional default hyper-parameters.
    pub fn adam(learning_rate: f64) -> Self {
        Optimizer {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

/// Per-layer Adam moments (one entry per [`DenseLayer`]).
#[derive(Debug, Clone)]
pub struct OptimizerState {
    /// First-moment buffers for the weights of each layer.
    m_weights: Vec<Matrix>,
    /// Second-moment buffers for the weights of each layer.
    v_weights: Vec<Matrix>,
    /// First-moment buffers for the biases of each layer.
    m_biases: Vec<Vec<f64>>,
    /// Second-moment buffers for the biases of each layer.
    v_biases: Vec<Vec<f64>>,
    /// Number of update steps performed so far (for Adam bias correction).
    step: u64,
}

impl OptimizerState {
    /// Allocate zeroed state matching the shapes of the given layers.
    pub fn for_layers(layers: &[DenseLayer]) -> Self {
        let m_weights = layers
            .iter()
            .map(|l| Matrix::zeros(l.input_dim(), l.output_dim()))
            .collect::<Vec<_>>();
        let v_weights = m_weights.clone();
        let m_biases = layers
            .iter()
            .map(|l| vec![0.0; l.output_dim()])
            .collect::<Vec<_>>();
        let v_biases = m_biases.clone();
        OptimizerState {
            m_weights,
            v_weights,
            m_biases,
            v_biases,
            step: 0,
        }
    }

    /// Apply one update step to all layers using their accumulated gradients
    /// (read in place), then zero the gradients (filled in place).
    pub fn apply(&mut self, optimizer: &Optimizer, layers: &mut [DenseLayer]) {
        assert_eq!(
            layers.len(),
            self.m_weights.len(),
            "optimizer state / layer count mismatch"
        );
        self.step += 1;
        for (idx, layer) in layers.iter_mut().enumerate() {
            self.adam_update(idx, layer, optimizer);
            layer.zero_grad();
        }
    }

    fn adam_update(&mut self, idx: usize, layer: &mut DenseLayer, optimizer: &Optimizer) {
        let Optimizer {
            learning_rate: lr,
            beta1,
            beta2,
            epsilon,
        } = *optimizer;
        let t = self.step as f64;
        let bc1 = 1.0 - beta1.powf(t);
        let bc2 = 1.0 - beta2.powf(t);
        let (w, b, grad_w, grad_b) = layer.params_and_grads_mut();

        {
            let m = &mut self.m_weights[idx];
            let v = &mut self.v_weights[idx];
            for ((mv, vv), gv) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice().iter_mut())
                .zip(grad_w.as_slice())
            {
                *mv = beta1 * *mv + (1.0 - beta1) * *gv;
                *vv = beta2 * *vv + (1.0 - beta2) * *gv * *gv;
            }
            for ((wv, mv), vv) in w
                .as_mut_slice()
                .iter_mut()
                .zip(m.as_slice())
                .zip(v.as_slice())
            {
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *wv -= lr * m_hat / (v_hat.sqrt() + epsilon);
            }
        }
        {
            let mb = &mut self.m_biases[idx];
            let vb = &mut self.v_biases[idx];
            for ((mv, vv), gv) in mb.iter_mut().zip(vb.iter_mut()).zip(grad_b) {
                *mv = beta1 * *mv + (1.0 - beta1) * *gv;
                *vv = beta2 * *vv + (1.0 - beta2) * *gv * *gv;
            }
            for ((bv, mv), vv) in b.iter_mut().zip(mb.iter()).zip(vb.iter()) {
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *bv -= lr * m_hat / (v_hat.sqrt() + epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn layer_with_grad() -> DenseLayer {
        let mut l = DenseLayer::with_parameters(
            Matrix::from_vec(1, 1, vec![1.0]),
            vec![0.0],
            Activation::Identity,
        );
        // produce a known gradient of 2.0 on the single weight
        let x = Matrix::from_vec(1, 1, vec![2.0]);
        let (mut pre, mut out, mut scratch) =
            (Matrix::default(), Matrix::default(), Matrix::default());
        l.forward_train_into(&x, &mut pre, &mut out);
        let mut delta = Matrix::from_vec(1, 1, vec![1.0]);
        l.backward_into(&x, &pre, &mut delta, &mut scratch, None);
        l
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut layers = vec![layer_with_grad()];
        let mut state = OptimizerState::for_layers(&layers);
        let opt = Optimizer::adam(0.01);
        state.apply(&opt, &mut layers);
        // Adam's bias-corrected first step is ~lr regardless of gradient scale.
        let delta = 1.0 - layers[0].weights().get(0, 0);
        assert!((delta - 0.01).abs() < 1e-6, "delta {delta}");
        // gradient should be reset
        assert_eq!(layers[0].grad_weights().get(0, 0), 0.0);
        assert_eq!(layers[0].grad_biases(), &[0.0]);
    }
}
