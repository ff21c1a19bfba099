//! A fully-connected layer with an in-place forward/backward pair.
//!
//! The layer computes `Y = act(X * W + b)` for a batch `X` (one sample per
//! row). The layer holds no forward state: [`DenseLayer::forward_train_into`]
//! writes the pre-activation and the output into caller-owned buffers, and
//! the caller hands them, with the input, back to
//! [`DenseLayer::backward_into`], which accumulates `dL/dW` and `dL/db` for
//! the optimizer to consume and writes `dL/dX` only for the input columns
//! the caller asks for — none at all for a network's first layer, whose
//! input gradient training never reads. Every buffer is reshaped in place,
//! so a training step reusing them (an [`crate::mlp::MlpCache`]) allocates
//! nothing once it has seen its largest batch.

use crate::activation::Activation;
use crate::matrix::Matrix;
use rand::Rng;
use std::ops::Range;

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

    /// Training forward pass into caller-owned buffers (reshaped in
    /// place): `pre = X·W + b` and `out = act(pre)`, with the arithmetic of
    /// [`DenseLayer::forward_inference_into`]. The caller keeps `input`,
    /// `pre` and `out` for [`DenseLayer::backward_into`]; holding the state
    /// outside the layer lets one shared QPPNet unit run at many plan nodes
    /// before any backward pass.
    pub fn forward_train_into(&self, input: &Matrix, pre: &mut Matrix, out: &mut Matrix) {
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "forward_train_into: dimension mismatch"
        );
        input.matmul_into(&self.weights, pre);
        pre.add_row_broadcast_assign(&self.biases);
        out.reshape_unspecified(pre.rows(), pre.cols());
        for (o, &z) in out.as_mut_slice().iter_mut().zip(pre.as_slice()) {
            *o = self.activation.apply(z);
        }
    }

    /// Backward pass for a prior [`DenseLayer::forward_train_into`] call.
    ///
    /// `delta` holds `dL/dY` (one row per batch sample) on entry and
    /// `dZ = dL/dY ⊙ act'(Z)` on return. Parameter gradients are
    /// *accumulated* (use [`DenseLayer::zero_grad`] between optimizer
    /// steps): `Xᵀ·dZ` is summed into the zeroed `scratch` and then added
    /// to the weight gradient whole. QPPNet adds several buckets into one
    /// unit per step, and summing each product straight into the gradient
    /// would reassociate those sums. When `input_grad` is `Some((cols,
    /// out))`, `out` receives the columns `cols` of `dL/dX = dZ·Wᵀ`, bit for
    /// bit those columns of the full product; `None` skips `dZ·Wᵀ`.
    pub fn backward_into(
        &mut self,
        input: &Matrix,
        pre: &Matrix,
        delta: &mut Matrix,
        scratch: &mut Matrix,
        input_grad: Option<(Range<usize>, &mut Matrix)>,
    ) {
        assert_eq!(input.rows(), pre.rows(), "backward_into: batch size");
        self.pre_activation_grad_in_place(pre, delta);
        // dW += Xᵀ·dZ ; db += colsum(dZ), each column summed from 0.0 in
        // row order before it is added.
        input.t_matmul_into(delta, scratch);
        self.grad_weights.add_assign(scratch);
        for (c, gb) in self.grad_biases.iter_mut().enumerate() {
            let mut sum = 0.0;
            for r in 0..delta.rows() {
                sum += delta.get(r, c);
            }
            *gb += sum;
        }
        if let Some((cols, out)) = input_grad {
            delta.matmul_t_rows_into(&self.weights, cols, scratch, out);
        }
    }

    /// Turn `delta` from `dL/dY` into `dZ = dL/dY ⊙ act'(Z)` in place.
    pub(crate) fn pre_activation_grad_in_place(&self, pre_activation: &Matrix, delta: &mut Matrix) {
        assert_eq!(
            delta.shape(),
            pre_activation.shape(),
            "backward: grad shape must match the pre-activation"
        );
        for (d, &z) in delta
            .as_mut_slice()
            .iter_mut()
            .zip(pre_activation.as_slice())
        {
            *d *= self.activation.derivative(z);
        }
    }

    /// The parameters and their accumulated gradients, borrowed together
    /// for an optimizer step that reads the gradients in place.
    pub(crate) fn params_and_grads_mut(&mut self) -> (&mut Matrix, &mut [f64], &Matrix, &[f64]) {
        (
            &mut self.weights,
            &mut self.biases,
            &self.grad_weights,
            &self.grad_biases,
        )
    }

    /// Reset the accumulated parameter gradients to zero.
    pub fn zero_grad(&mut self) {
        self.grad_weights.as_mut_slice().fill(0.0);
        self.grad_biases.fill(0.0);
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

    /// `(pre, out)` of one training forward.
    fn forward(l: &DenseLayer, x: &Matrix) -> (Matrix, Matrix) {
        let (mut pre, mut out) = (Matrix::default(), Matrix::default());
        l.forward_train_into(x, &mut pre, &mut out);
        (pre, out)
    }

    /// One backward pass; returns the full `dL/dX`.
    fn backward(l: &mut DenseLayer, x: &Matrix, pre: &Matrix, dy: &Matrix) -> Matrix {
        let (mut delta, mut scratch, mut grad_in) =
            (dy.clone(), Matrix::default(), Matrix::default());
        let cols = 0..l.input_dim();
        l.backward_into(x, pre, &mut delta, &mut scratch, Some((cols, &mut grad_in)));
        grad_in
    }

    #[test]
    fn forward_matches_manual_affine() {
        let l = tiny_layer();
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, y) = forward(&l, &x);
        // [1,1] * [[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.row(0), &[4.5, 5.5]);
    }

    #[test]
    fn relu_masks_negative_preactivations() {
        let w = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        let l = DenseLayer::with_parameters(w, vec![0.0, 0.0], Activation::Relu);
        let (pre, y) = forward(&l, &Matrix::from_vec(1, 1, vec![2.0]));
        assert_eq!(pre.row(0), &[2.0, -2.0]);
        assert_eq!(y.row(0), &[2.0, 0.0]);
    }

    #[test]
    fn backward_produces_expected_gradients() {
        let mut l = tiny_layer();
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let (pre, _) = forward(&l, &x);
        let dy = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let grad_in = backward(&mut l, &x, &pre, &dy);
        // dX = dY * W^T = [1,1] * [[1,3],[2,4]] = [3, 7]
        assert_eq!(grad_in.row(0), &[3.0, 7.0]);
        // dW = X^T dY = [[1],[2]] * [1,1] = [[1,1],[2,2]]
        assert_eq!(l.grad_weights().as_slice(), &[1.0, 1.0, 2.0, 2.0]);
        assert_eq!(l.grad_biases(), &[1.0, 1.0]);
        // One input column alone, and none at all, leave the parameter
        // gradients accumulating exactly as before.
        let (mut delta, mut scratch, mut one) = (dy.clone(), Matrix::default(), Matrix::default());
        l.backward_into(&x, &pre, &mut delta, &mut scratch, Some((1..2, &mut one)));
        assert_eq!(one.row(0), &[7.0]);
        let mut delta = dy.clone();
        l.backward_into(&x, &pre, &mut delta, &mut scratch, None);
        assert_eq!(l.grad_weights().as_slice(), &[3.0, 3.0, 6.0, 6.0]);
        assert_eq!(l.grad_biases(), &[3.0, 3.0]);
    }

    #[test]
    fn gradients_accumulate_until_zero_grad() {
        let mut l = tiny_layer();
        let x = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        for _ in 0..3 {
            let (pre, _) = forward(&l, &x);
            let _ = backward(&mut l, &x, &pre, &Matrix::from_vec(1, 2, vec![1.0, 0.0]));
        }
        assert_eq!(l.grad_weights().get(0, 0), 3.0);
        l.zero_grad();
        assert_eq!(l.grad_weights().get(0, 0), 0.0);
        assert_eq!(l.grad_biases(), &[0.0, 0.0]);
    }

    #[test]
    fn forward_inference_into_matches_the_training_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let l = DenseLayer::new(5, 3, Activation::Relu, &mut rng);
        let x = Matrix::from_vec(4, 5, (0..20).map(|i| i as f64 * 0.07 - 0.5).collect());
        let mut out = Matrix::default();
        l.forward_inference_into(&x, &mut out);
        assert_eq!(out, forward(&l, &x).1);
        // Reuse with a different batch size.
        let y = Matrix::from_vec(1, 5, (0..5).map(|i| i as f64).collect());
        l.forward_inference_into(&y, &mut out);
        assert_eq!(out, forward(&l, &y).1);
    }

    #[test]
    fn parameter_count_is_correct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let l = DenseLayer::new(10, 5, Activation::Relu, &mut rng);
        assert_eq!(l.parameter_count(), 10 * 5 + 5);
    }
}
