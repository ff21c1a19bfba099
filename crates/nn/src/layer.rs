//! A fully-connected layer with an explicit forward/backward pair.
//!
//! The layer computes `Y = act(X * W + b)` for a batch `X` (one sample per
//! row). The layer holds no forward state: [`DenseLayer::forward_explicit`]
//! returns the pre-activation and the caller hands it, with the input, back
//! to [`DenseLayer::backward_explicit`], which produces `dL/dX` while
//! accumulating `dL/dW` and `dL/db` for the optimizer to consume.

use crate::activation::Activation;
use crate::matrix::Matrix;
use rand::Rng;

/// A dense (fully-connected) layer.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    /// Weight matrix of shape `(input_dim, output_dim)`.
    weights: Matrix,
    /// Bias vector of length `output_dim`.
    biases: Vec<f64>,
    /// Activation applied element-wise to the affine output.
    activation: Activation,
    /// Accumulated weight gradient.
    grad_weights: Matrix,
    /// Accumulated bias gradient.
    grad_biases: Vec<f64>,
}

impl DenseLayer {
    /// Create a layer with Xavier-uniform weights and zero biases.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        DenseLayer {
            weights: Matrix::xavier_uniform(input_dim, output_dim, rng),
            biases: vec![0.0; output_dim],
            activation,
            grad_weights: Matrix::zeros(input_dim, output_dim),
            grad_biases: vec![0.0; output_dim],
        }
    }

    /// Create a layer with explicitly provided parameters (used in tests and
    /// for reproducing the worked example of Figure 4 in the paper).
    pub fn with_parameters(weights: Matrix, biases: Vec<f64>, activation: Activation) -> Self {
        assert_eq!(
            weights.cols(),
            biases.len(),
            "bias length must equal output dim"
        );
        let (input_dim, output_dim) = weights.shape();
        DenseLayer {
            weights,
            biases,
            activation,
            grad_weights: Matrix::zeros(input_dim, output_dim),
            grad_biases: vec![0.0; output_dim],
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.biases.len()
    }

    /// Immutable access to the weights.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable access to the biases.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Mutable access to the weights (used by optimizers).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable access to the biases (used by optimizers).
    pub fn biases_mut(&mut self) -> &mut [f64] {
        &mut self.biases
    }

    /// Accumulated weight gradient from the most recent backward pass.
    pub fn grad_weights(&self) -> &Matrix {
        &self.grad_weights
    }

    /// Accumulated bias gradient from the most recent backward pass.
    pub fn grad_biases(&self) -> &[f64] {
        &self.grad_biases
    }

    /// Inference forward pass: writes the activations into a caller-owned
    /// buffer (reshaped in place). This is the kernel behind the batched
    /// inference path — the buffer is part of an
    /// [`crate::mlp::InferenceScratch`] reused across calls.
    pub fn forward_inference_into(&self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "forward_inference_into: dimension mismatch"
        );
        input.matmul_into(&self.weights, out);
        out.add_row_broadcast_assign(&self.biases);
        out.map_inplace(|v| self.activation.apply(v));
    }

    /// Training forward pass.
    ///
    /// Returns `(pre_activation, output)`; the caller keeps both (with the
    /// input) for [`DenseLayer::backward_explicit`]. Holding the state
    /// outside the layer lets one shared QPPNet unit run at many plan nodes
    /// before any backward pass.
    pub fn forward_explicit(&self, input: &Matrix) -> (Matrix, Matrix) {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "forward_explicit: dimension mismatch"
        );
        let pre = input.matmul(&self.weights).add_row_broadcast(&self.biases);
        let out = pre.map(|v| self.activation.apply(v));
        (pre, out)
    }

    /// Backward pass for a prior [`DenseLayer::forward_explicit`] call.
    ///
    /// `grad_output` is `dL/dY` with one row per batch sample. Gradients with
    /// respect to the parameters are *accumulated* (use
    /// [`DenseLayer::zero_grad`] between optimizer steps); the return value
    /// is `dL/dX`.
    pub fn backward_explicit(
        &mut self,
        input: &Matrix,
        pre_activation: &Matrix,
        grad_output: &Matrix,
    ) -> Matrix {
        assert_eq!(
            input.rows(),
            pre_activation.rows(),
            "backward_explicit: batch size"
        );
        let grad_pre = self.pre_activation_grad(pre_activation, grad_output);
        // dW += Xᵀ·dZ ; db += colsum(dZ)
        let grad_w = input.t_matmul(&grad_pre);
        self.grad_weights.add_assign(&grad_w);
        for (gb, s) in self.grad_biases.iter_mut().zip(grad_pre.col_sums()) {
            *gb += s;
        }
        // dX = dZ·Wᵀ
        grad_pre.matmul_t(&self.weights)
    }

    /// `dL/dX` for a prior [`DenseLayer::forward_explicit`] call, without
    /// accumulating any parameter gradient: the input-gradient half of
    /// [`DenseLayer::backward_explicit`], with the same arithmetic.
    pub(crate) fn input_gradient_explicit(
        &self,
        pre_activation: &Matrix,
        grad_output: &Matrix,
    ) -> Matrix {
        self.pre_activation_grad(pre_activation, grad_output)
            .matmul_t(&self.weights)
    }

    /// `dZ = dY ⊙ act'(Z)`, shared by both backward steps.
    fn pre_activation_grad(&self, pre_activation: &Matrix, grad_output: &Matrix) -> Matrix {
        assert_eq!(
            grad_output.shape(),
            pre_activation.shape(),
            "backward: grad shape must match the pre-activation"
        );
        let mut grad_pre = grad_output.clone();
        for r in 0..grad_pre.rows() {
            for c in 0..grad_pre.cols() {
                let d = self.activation.derivative(pre_activation.get(r, c));
                grad_pre.set(r, c, grad_pre.get(r, c) * d);
            }
        }
        grad_pre
    }

    /// Reset the accumulated parameter gradients to zero.
    pub fn zero_grad(&mut self) {
        self.grad_weights = Matrix::zeros(self.input_dim(), self.output_dim());
        for g in &mut self.grad_biases {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_layer() -> DenseLayer {
        // 2 inputs -> 2 outputs, identity activation, hand-set weights.
        let w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        DenseLayer::with_parameters(w, vec![0.5, -0.5], Activation::Identity)
    }

    #[test]
    fn forward_matches_manual_affine() {
        let l = tiny_layer();
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, y) = l.forward_explicit(&x);
        // [1,1] * [[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn relu_masks_negative_preactivations() {
        let w = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let l = DenseLayer::with_parameters(w, vec![0.0, 0.0], Activation::Relu);
        let (pre, y) = l.forward_explicit(&Matrix::from_vec(1, 1, vec![2.0]));
        assert_eq!(pre.row(0), &[2.0, -2.0]);
        assert_eq!(y.row(0), &[2.0, 0.0]);
    }

    #[test]
    fn backward_produces_expected_gradients() {
        let mut l = tiny_layer();
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let (pre, _) = l.forward_explicit(&x);
        let dy = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let grad_in = l.backward_explicit(&x, &pre, &dy);
        // dX = dY * W^T = [1,1] * [[1,3],[2,4]] = [3, 7]
        assert_eq!(grad_in.row(0), &[3.0, 7.0]);
        assert_eq!(l.input_gradient_explicit(&pre, &dy), grad_in);
        // dW = X^T dY = [[1],[2]] * [1,1] = [[1,1],[2,2]]
        assert_eq!(l.grad_weights().as_slice(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(l.grad_biases(), &[1.0, 1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zero_grad() {
        let mut l = tiny_layer();
        let x = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        for _ in 0..3 {
            let (pre, _) = l.forward_explicit(&x);
            let _ = l.backward_explicit(&x, &pre, &Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        }
        assert_eq!(l.grad_weights().get(0, 0), 3.0);
        l.zero_grad();
        assert_eq!(l.grad_weights().get(0, 0), 0.0);
        assert_eq!(l.grad_biases(), &[0.0, 0.0]);
    }

    #[test]
    fn forward_inference_into_matches_forward_explicit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let l = DenseLayer::new(5, 3, Activation::Relu, &mut rng);
        let x = Matrix::from_vec(4, 5, (0..20).map(|i| i as f64 * 0.07 - 0.5).collect());
        let mut out = Matrix::default();
        l.forward_inference_into(&x, &mut out);
        assert_eq!(out, l.forward_explicit(&x).1);
        // Reuse with a different batch size.
        let y = Matrix::from_vec(1, 5, (0..5).map(|i| i as f64).collect());
        l.forward_inference_into(&y, &mut out);
        assert_eq!(out, l.forward_explicit(&y).1);
    }

    #[test]
    fn parameter_count_is_correct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let l = DenseLayer::new(10, 5, Activation::Relu, &mut rng);
        assert_eq!(l.parameter_count(), 10 * 5 + 5);
    }
}
