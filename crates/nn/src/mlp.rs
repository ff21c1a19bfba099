//! Multi-layer perceptron with explicit training loop, functional (cached)
//! forward/backward for tree-structured composition, and input-gradient
//! extraction.
//!
//! Two training surfaces are exposed:
//!
//! * [`Mlp::train`] — the standard flat mini-batch loop used by the MSCN-style
//!   estimator and by many unit tests;
//! * [`Mlp::forward_cached`] / [`Mlp::backward_cached`] / [`Mlp::step`] — the
//!   building blocks used by the QPPNet reimplementation, where one MLP per
//!   operator type is applied at every matching node of a plan tree and the
//!   gradients flow from parents into the outputs of children.
//!
//! # Batched, allocation-free inference
//!
//! The serving hot path is [`Mlp::predict_batch_into`]: a whole batch of
//! feature rows is pushed through the network in one matrix pass per layer,
//! writing every intermediate into a caller-owned [`InferenceScratch`] whose
//! buffers are reused across calls — after warm-up the forward pass performs
//! zero heap allocations. The convenience wrappers ([`Mlp::predict_vec`],
//! [`Mlp::predict_one`], [`Mlp::predict_rows`]) route through the same path
//! via a thread-local scratch, so single-row prediction no longer builds a
//! fresh 1-row [`Matrix`] per call. Batched and per-row results are
//! bit-identical because every kernel visits elements in the same order
//! row-by-row.

use crate::activation::Activation;
use crate::dataset::Dataset;
use crate::layer::DenseLayer;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optimizer::{Optimizer, OptimizerState};
use rand::Rng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Configuration for the flat mini-batch training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Parameter update rule.
    pub optimizer: Optimizer,
    /// Regression loss.
    pub loss: Loss,
    /// Whether to reshuffle the samples at every epoch.
    pub shuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 64,
            optimizer: Optimizer::adam(1e-2),
            loss: Loss::LogMse,
            shuffle: true,
        }
    }
}

/// Record of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainHistory {
    /// Mean training loss after each epoch.
    pub epoch_losses: Vec<f64>,
    /// Wall-clock time spent inside `train`.
    pub wall_time: Duration,
}

impl TrainHistory {
    /// Final epoch loss, or infinity when no epoch ran.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Cached intermediate state of a functional forward pass, to be fed back
/// into [`Mlp::backward_cached`].
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Layer inputs, one per layer (index 0 is the network input).
    inputs: Vec<Matrix>,
    /// Pre-activation values, one per layer.
    pre_activations: Vec<Matrix>,
}

/// Caller-owned scratch buffers for the allocation-free batched forward
/// pass ([`Mlp::predict_batch_into`]).
///
/// The two ping-pong matrices hold successive layer activations; they are
/// reshaped in place per call, so after the first call at a given batch
/// size the forward pass allocates nothing. One scratch can be shared
/// across networks of different shapes (the buffers grow to the largest
/// shape seen).
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    pub(crate) ping: Matrix,
    pub(crate) pong: Matrix,
}

impl InferenceScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// Per-thread (input staging, scratch) pair backing the convenience
    /// single-row / row-slice prediction wrappers.
    static TLS_SCRATCH: RefCell<(Matrix, InferenceScratch)> = RefCell::new(Default::default());
}

/// A dense feed-forward network.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    optimizer_state: Option<OptimizerState>,
}

impl Mlp {
    /// Create an MLP from a list of layer sizes (`[input, hidden..., output]`).
    /// Hidden layers use `hidden_activation`; the output layer is linear.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden_activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self::with_output_activation(sizes, hidden_activation, Activation::Identity, rng)
    }

    /// Create an MLP with an explicit output-layer activation (e.g. softplus
    /// to force positive latency predictions).
    pub fn with_output_activation<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output size"
        );
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let act = if i + 2 == sizes.len() {
                output_activation
            } else {
                hidden_activation
            };
            layers.push(DenseLayer::new(sizes[i], sizes[i + 1], act, rng));
        }
        Mlp {
            layers,
            optimizer_state: None,
        }
    }

    /// Build an MLP directly from explicit layers (used to reproduce the
    /// worked example of Figure 4 in the paper and in tests).
    pub fn from_layers(layers: Vec<DenseLayer>) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_dim(),
                pair[1].input_dim(),
                "consecutive layer dimensions must agree"
            );
        }
        Mlp {
            layers,
            optimizer_state: None,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").output_dim()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Borrow the layers (read-only).
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Stateful forward pass over a batch (caches per-layer state internally).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Pure inference over a batch.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward_inference(&cur);
        }
        cur
    }

    /// Allocation-free batched inference: one matrix pass per layer, every
    /// intermediate written into the caller-owned `scratch`. Returns a
    /// borrow of the output matrix living inside the scratch (one row per
    /// input row). Results are bit-identical to [`Mlp::predict`].
    pub fn predict_batch_into<'a>(
        &self,
        x: &Matrix,
        scratch: &'a mut InferenceScratch,
    ) -> &'a Matrix {
        let InferenceScratch { ping, pong } = scratch;
        let mut src: &mut Matrix = ping;
        let mut dst: &mut Matrix = pong;
        let (first, rest) = self.layers.split_first().expect("non-empty");
        first.forward_inference_into(x, src);
        for layer in rest {
            layer.forward_inference_into(src, dst);
            std::mem::swap(&mut src, &mut dst);
        }
        src
    }

    /// Predict a scalar for a single feature vector (first output unit).
    pub fn predict_one(&self, features: &[f64]) -> f64 {
        TLS_SCRATCH.with(|cell| {
            let (input, scratch) = &mut *cell.borrow_mut();
            input.reset_from_row(features);
            self.predict_batch_into(input, scratch).get(0, 0)
        })
    }

    /// Predict the full output vector for a single feature vector.
    pub fn predict_vec(&self, features: &[f64]) -> Vec<f64> {
        TLS_SCRATCH.with(|cell| {
            let (input, scratch) = &mut *cell.borrow_mut();
            input.reset_from_row(features);
            self.predict_batch_into(input, scratch).row(0).to_vec()
        })
    }

    /// Predict scalars (first output unit) for a slice of feature rows in
    /// one batched pass through the thread-local scratch.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn predict_rows(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        TLS_SCRATCH.with(|cell| {
            let (input, scratch) = &mut *cell.borrow_mut();
            input.reset(rows.len(), rows[0].len());
            for (r, row) in rows.iter().enumerate() {
                input.row_mut(r).copy_from_slice(row);
            }
            let out = self.predict_batch_into(input, scratch);
            (0..out.rows()).map(|r| out.get(r, 0)).collect()
        })
    }

    /// Predict scalars (first output unit) for every row of a dataset.
    /// Uses a local scratch: this one-shot whole-dataset path would
    /// otherwise pin dataset-sized buffers in the thread-local for the
    /// thread's remaining lifetime.
    pub fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        let mut scratch = InferenceScratch::new();
        let out = self.predict_batch_into(&data.feature_matrix(), &mut scratch);
        (0..out.rows()).map(|r| out.get(r, 0)).collect()
    }

    /// Backward pass matching the most recent [`Mlp::forward`] call.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Functional forward pass returning the cache needed for
    /// [`Mlp::backward_cached`]; does not disturb internal layer caches.
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, MlpCache) {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &self.layers {
            inputs.push(cur.clone());
            let (pre, out) = layer.forward_explicit(&cur);
            pre_activations.push(pre);
            cur = out;
        }
        (
            cur,
            MlpCache {
                inputs,
                pre_activations,
            },
        )
    }

    /// Functional backward pass for a prior [`Mlp::forward_cached`] call.
    /// Accumulates parameter gradients and returns the gradient with respect
    /// to the network input.
    pub fn backward_cached(&mut self, cache: &MlpCache, grad_output: &Matrix) -> Matrix {
        assert_eq!(
            cache.inputs.len(),
            self.layers.len(),
            "cache/layer count mismatch"
        );
        let mut grad = grad_output.clone();
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward_explicit(&cache.inputs[idx], &cache.pre_activations[idx], &grad);
        }
        grad
    }

    /// Zero all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Apply one optimizer step using the accumulated gradients, then clear
    /// them. Optimizer state is kept inside the MLP across calls.
    pub fn step(&mut self, optimizer: &Optimizer) {
        if self.optimizer_state.is_none() {
            self.optimizer_state = Some(OptimizerState::for_layers(&self.layers));
        }
        let state = self.optimizer_state.as_mut().expect("just initialised");
        state.apply(optimizer, &mut self.layers);
    }

    /// Reset any optimizer state (used when re-training from scratch).
    pub fn reset_optimizer(&mut self) {
        self.optimizer_state = None;
    }

    /// Gradient of the first output unit with respect to the input features,
    /// evaluated at a single point. This is the quantity the paper's gradient
    /// feature-reduction baseline averages over the dataset.
    pub fn input_gradient(&self, features: &[f64]) -> Vec<f64> {
        let x = Matrix::row_vector(features);
        let (out, cache) = self.forward_cached(&x);
        // Seed gradient: 1 on the first output unit.
        let mut seed = Matrix::zeros(1, out.cols());
        seed.set(0, 0, 1.0);
        // Backward without touching parameter gradients: use a scratch clone.
        let mut scratch = self.clone();
        scratch.zero_grad();
        let grad = scratch.backward_cached(&cache, &seed);
        grad.row(0).to_vec()
    }

    /// All layer activations (post-activation outputs) for a single input,
    /// in order from the first hidden layer to the output layer. Needed by
    /// the difference-propagation importance score (Equation 1).
    pub fn layer_activations(&self, features: &[f64]) -> Vec<Vec<f64>> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let mut cur = Matrix::row_vector(features);
        for layer in &self.layers {
            cur = layer.forward_inference(&cur);
            outs.push(cur.row(0).to_vec());
        }
        outs
    }

    /// Activations of the first hidden layer for a single input.
    pub fn first_hidden_activations(&self, features: &[f64]) -> Vec<f64> {
        self.layers[0]
            .forward_inference(&Matrix::row_vector(features))
            .row(0)
            .to_vec()
    }

    /// Mean loss over a dataset (scalar-output networks only).
    pub fn evaluate_loss(&self, data: &Dataset, loss: Loss) -> f64 {
        let preds = self.predict_batch(data);
        loss.value(&preds, data.targets())
    }

    /// Flat mini-batch training loop for scalar-output networks.
    ///
    /// # Panics
    /// Panics if the network output dimension is not 1 or the dataset
    /// dimensionality does not match the input layer.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        data: &Dataset,
        config: &TrainConfig,
        rng: &mut R,
    ) -> TrainHistory {
        assert_eq!(
            self.output_dim(),
            1,
            "train() requires a scalar-output network"
        );
        assert_eq!(
            data.dim(),
            self.input_dim(),
            "dataset dim {} does not match network input dim {}",
            data.dim(),
            self.input_dim()
        );
        let start = Instant::now();
        let mut working = data.clone();
        let mut epoch_losses = Vec::with_capacity(config.epochs);

        for _ in 0..config.epochs {
            if config.shuffle {
                working.shuffle(rng);
            }
            let mut epoch_loss = 0.0;
            let mut batches_seen = 0usize;
            for (x, y) in working.batches(config.batch_size) {
                let out = self.forward(&x);
                let preds: Vec<f64> = (0..out.rows()).map(|r| out.get(r, 0)).collect();
                epoch_loss += config.loss.value(&preds, &y);
                batches_seen += 1;
                let grads = config.loss.gradient(&preds, &y);
                let grad_out = Matrix::col_vector(&grads);
                self.backward(&grad_out);
                self.step(&config.optimizer);
            }
            epoch_losses.push(epoch_loss / batches_seen.max(1) as f64);
        }

        TrainHistory {
            epoch_losses,
            wall_time: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn architecture_accessors() {
        let mut r = rng();
        let mlp = Mlp::new(&[5, 8, 3, 1], Activation::Relu, &mut r);
        assert_eq!(mlp.input_dim(), 5);
        assert_eq!(mlp.output_dim(), 1);
        assert_eq!(mlp.layer_count(), 3);
        assert_eq!(mlp.parameter_count(), 5 * 8 + 8 + 8 * 3 + 3 + 3 + 1);
    }

    #[test]
    #[should_panic(expected = "at least an input and an output")]
    fn too_few_sizes_panics() {
        let mut r = rng();
        let _ = Mlp::new(&[4], Activation::Relu, &mut r);
    }

    #[test]
    fn forward_and_predict_agree() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[3, 6, 2], Activation::Tanh, &mut r);
        let x = Matrix::from_rows(&[vec![0.1, 0.2, 0.3], vec![-0.5, 0.4, 0.0]]);
        let a = mlp.forward(&x);
        let b = mlp.predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn learns_a_linear_function() {
        let mut r = rng();
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 / 20.0, (i / 20) as f64 / 10.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x[0] - 2.0 * x[1] + 1.0).collect();
        let data = Dataset::new(xs, ys).unwrap();
        let mut mlp = Mlp::new(&[2, 16, 1], Activation::Relu, &mut r);
        let cfg = TrainConfig {
            epochs: 300,
            batch_size: 32,
            optimizer: Optimizer::adam(0.01),
            loss: Loss::Mse,
            shuffle: true,
        };
        let hist = mlp.train(&data, &cfg, &mut r);
        assert!(hist.final_loss() < 0.05, "final loss {}", hist.final_loss());
        assert!(hist.epoch_losses[0] > hist.final_loss());
        let pred = mlp.predict_one(&[0.5, 0.5]);
        assert!((pred - 2.0).abs() < 0.4, "pred {pred}");
    }

    #[test]
    fn predict_batch_into_is_bit_identical_to_predict() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 9, 5, 2], Activation::Relu, &mut r);
        let x = Matrix::from_rows(&[
            vec![0.1, -0.2, 0.3, 0.7],
            vec![1.5, 0.0, -0.4, 0.2],
            vec![-1.0, 2.0, 0.5, 0.0],
        ]);
        let mut scratch = InferenceScratch::new();
        let batched = mlp.predict_batch_into(&x, &mut scratch).clone();
        assert_eq!(batched, mlp.predict(&x));
        // Reusing the scratch across calls and batch sizes stays exact.
        let y = Matrix::from_rows(&[vec![0.9, 0.9, 0.9, 0.9]]);
        assert_eq!(*mlp.predict_batch_into(&y, &mut scratch), mlp.predict(&y));
    }

    #[test]
    fn scratch_is_shareable_across_network_shapes() {
        let mut r = rng();
        let a = Mlp::new(&[3, 8, 1], Activation::Tanh, &mut r);
        let b = Mlp::new(&[6, 4, 4, 2], Activation::Relu, &mut r);
        let xa = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        let xb = Matrix::from_rows(&[vec![0.5; 6], vec![-0.5; 6]]);
        let mut scratch = InferenceScratch::new();
        assert_eq!(*a.predict_batch_into(&xa, &mut scratch), a.predict(&xa));
        assert_eq!(*b.predict_batch_into(&xb, &mut scratch), b.predict(&xb));
        assert_eq!(*a.predict_batch_into(&xa, &mut scratch), a.predict(&xa));
    }

    #[test]
    fn predict_rows_matches_per_row_prediction() {
        let mut r = rng();
        let mlp = Mlp::new(&[5, 12, 1], Activation::Relu, &mut r);
        let rows: Vec<Vec<f64>> = (0..32)
            .map(|i| (0..5).map(|j| ((i * 5 + j) as f64).sin()).collect())
            .collect();
        let batched = mlp.predict_rows(&rows);
        assert_eq!(batched.len(), rows.len());
        for (row, b) in rows.iter().zip(&batched) {
            assert_eq!(mlp.predict_one(row).to_bits(), b.to_bits());
        }
        assert!(mlp.predict_rows(&[]).is_empty());
    }

    #[test]
    fn cached_and_stateful_backward_agree() {
        let mut r = rng();
        let mut a = Mlp::new(&[4, 6, 1], Activation::Relu, &mut r);
        let mut b = a.clone();
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.8, 0.1]]);
        let grad_out = Matrix::from_rows(&[vec![1.0]]);

        let _ = a.forward(&x);
        let ga = a.backward(&grad_out);

        let (_, cache) = b.forward_cached(&x);
        let gb = b.backward_cached(&cache, &grad_out);
        assert_eq!(ga, gb);
        for (la, lb) in a.layers().iter().zip(b.layers()) {
            assert_eq!(la.grad_weights(), lb.grad_weights());
            assert_eq!(la.grad_biases(), lb.grad_biases());
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut r = rng();
        // tanh avoids the non-differentiable kink of ReLU at 0
        let mlp = Mlp::new(&[3, 8, 1], Activation::Tanh, &mut r);
        let x = [0.37, -0.8, 0.12];
        let analytic = mlp.input_gradient(&x);
        let numeric = gradcheck::numeric_input_gradient(&mlp, &x, 1e-5);
        for (a, n) in analytic.iter().zip(&numeric) {
            assert!((a - n).abs() < 1e-5, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn input_gradient_does_not_change_parameters() {
        let mut r = rng();
        let mlp = Mlp::new(&[3, 4, 1], Activation::Relu, &mut r);
        let before: Vec<f64> = mlp.layers()[0].weights().as_slice().to_vec();
        let _ = mlp.input_gradient(&[0.1, 0.2, 0.3]);
        let after: Vec<f64> = mlp.layers()[0].weights().as_slice().to_vec();
        assert_eq!(before, after);
    }

    #[test]
    fn layer_activations_shapes_match_architecture() {
        let mut r = rng();
        let mlp = Mlp::new(&[3, 7, 5, 1], Activation::Relu, &mut r);
        let acts = mlp.layer_activations(&[0.1, 0.2, 0.3]);
        assert_eq!(acts.len(), 3);
        assert_eq!(acts[0].len(), 7);
        assert_eq!(acts[1].len(), 5);
        assert_eq!(acts[2].len(), 1);
        assert_eq!(mlp.first_hidden_activations(&[0.1, 0.2, 0.3]), acts[0]);
    }

    #[test]
    fn figure4_worked_example_reproduces_paper_numbers() {
        // The learned model of Figure 4(b): h1 = relu(-3*x1 + x2 + 6*x3 - x4 + 5),
        // h2 = relu(x1 + 2*x2 + x4 + 1), y = 2*h1 + h2.
        let l1 = DenseLayer::with_parameters(
            Matrix::from_vec(4, 2, vec![-3.0, 1.0, 1.0, 2.0, 6.0, 0.0, -1.0, 1.0]),
            vec![5.0, 1.0],
            Activation::Relu,
        );
        let l2 = DenseLayer::with_parameters(
            Matrix::from_vec(2, 1, vec![2.0, 1.0]),
            vec![0.0],
            Activation::Identity,
        );
        let mlp = Mlp::from_layers(vec![l1, l2]);
        // The paper states the gradient of [1,0,0,50] and [0,1,0,100] is zero
        // (dead ReLU on h1): check h1 saturates for the first input.
        let acts = mlp.layer_activations(&[1.0, 0.0, 0.0, 50.0]);
        assert_eq!(acts[0][0], 0.0, "h1 must be clipped to zero");
        let grad = mlp.input_gradient(&[1.0, 0.0, 0.0, 50.0]);
        // dy/dx1 via h1 is zero; only h2 contributes: dy/dx1 = 1*1 = 1
        assert_eq!(grad[2], 0.0, "x3 only feeds h1, so its gradient vanishes");
        // And the model output for the reference point [1,0,0,1]:
        // h1 = relu(-3+ -1 + 5) = 1, h2 = relu(1 + 1 + 1) = 3, y = 2*1+3 = 5... the
        // paper's absolute numbers differ because it uses unspecified weights, but
        // the qualitative vanishing-gradient behaviour is what matters here.
        assert!(mlp.predict_one(&[1.0, 0.0, 0.0, 1.0]) > 0.0);
    }

    #[test]
    fn evaluate_loss_is_zero_for_memorised_constant() {
        let mut r = rng();
        let data = Dataset::new(vec![vec![1.0], vec![1.0]], vec![0.0, 0.0]).unwrap();
        let mut mlp = Mlp::new(&[1, 4, 1], Activation::Relu, &mut r);
        let cfg = TrainConfig {
            epochs: 200,
            loss: Loss::Mse,
            ..Default::default()
        };
        mlp.train(&data, &cfg, &mut r);
        assert!(mlp.evaluate_loss(&data, Loss::Mse) < 1e-3);
    }

    #[test]
    fn train_rejects_mismatched_dataset() {
        let mut r = rng();
        let data = Dataset::new(vec![vec![1.0, 2.0]], vec![0.0]).unwrap();
        let mut mlp = Mlp::new(&[3, 4, 1], Activation::Relu, &mut r);
        let cfg = TrainConfig::default();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mlp.train(&data, &cfg, &mut r);
        }));
        assert!(result.is_err());
    }
}
