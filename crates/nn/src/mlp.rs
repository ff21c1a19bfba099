//! Multi-layer perceptron with one training path, input-gradient
//! extraction and an allocation-free batched inference path.
//!
//! # Training through a reusable workspace
//!
//! Training runs through one explicit-cache surface over a caller-owned
//! [`MlpCache`]: the caller writes a batch into [`MlpCache::input_mut`],
//! [`Mlp::forward_cached`] fills the cache's per-layer pre-activations and
//! outputs in place, the caller writes `dL/dY` into the buffer
//! [`MlpCache::output_and_grad_mut`] hands out, [`Mlp::backward_cached`]
//! accumulates the parameter gradients from it, and [`Mlp::step`] applies
//! Adam, reading the gradients in place. Every buffer is reshaped in place,
//! so once a cache has seen its largest batch a training step allocates
//! nothing. The backward computes the gradient of the *network input* only
//! for the columns the caller names, and not at all for `None`:
//! [`Mlp::train`] never reads it, and QPPNet reads only its child-slot
//! columns. [`Mlp::train`] (the flat mini-batch loop of MSCN and the
//! reduction's auxiliary models) is built from these calls, and so is the
//! QPPNet reimplementation, where one MLP per operator type runs at every
//! matching node of a plan tree and gradients flow from parents into the
//! outputs of children. The layers hold no forward state.
//!
//! # Batched, allocation-free inference
//!
//! The serving hot path is [`Mlp::predict_batch_into`]: a whole batch of
//! feature rows is pushed through the network in one matrix pass per layer,
//! writing every intermediate into a caller-owned [`InferenceScratch`] whose
//! buffers are reused across calls — after warm-up the forward pass performs
//! zero heap allocations. The convenience wrappers ([`Mlp::predict_vec`],
//! [`Mlp::predict_one`], [`Mlp::predict_rows`]) route through the same path
//! via a thread-local scratch, so single-row prediction does not build a
//! fresh 1-row [`Matrix`] per call. Batched and per-row results are
//! bit-identical because every kernel visits elements in the same order
//! row-by-row, and they equal the training forward's output bit for bit.

use crate::activation::Activation;
use crate::dataset::Dataset;
use crate::layer::DenseLayer;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optimizer::{Optimizer, OptimizerState};
use rand::seq::SliceRandom;
use rand::Rng;
use std::cell::RefCell;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Configuration for the flat mini-batch training loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam configuration.
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

/// The reusable training workspace of one network: the network input the
/// caller writes, each layer's pre-activation and output from
/// [`Mlp::forward_cached`], and the gradient buffers and scratch
/// [`Mlp::backward_cached`] works in.
///
/// Every buffer is reshaped in place, so after the largest batch it has
/// seen a workspace allocates nothing. A `Default` workspace fits any
/// network: the forward sizes it to the network it runs.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// The network input, written by the caller before the forward.
    input: Matrix,
    /// One entry per layer, first layer first.
    layers: Vec<LayerCache>,
    /// The network-input gradient columns the last backward asked for.
    grad_input: Matrix,
}

/// One layer's share of an [`MlpCache`].
#[derive(Debug, Clone, Default)]
struct LayerCache {
    /// `Z = X·W + b`.
    pre: Matrix,
    /// `Y = act(Z)`: the next layer's input, or the network output.
    out: Matrix,
    /// `dL/dY` when the layer's backward starts, `dL/dZ` after it.
    delta: Matrix,
    /// `Xᵀ·dZ` before it is added to the weight gradient, then the
    /// transposed weight rows of the input gradient.
    scratch: Matrix,
}

impl MlpCache {
    /// The network-input buffer: the caller reshapes it and writes one
    /// sample per row before [`Mlp::forward_cached`].
    pub fn input_mut(&mut self) -> &mut Matrix {
        &mut self.input
    }

    /// The network output of the last [`Mlp::forward_cached`], with the
    /// `dL/dY` buffer that seeds [`Mlp::backward_cached`], zeroed to the
    /// output's shape for the caller to fill.
    ///
    /// # Panics
    /// Panics if no forward has run on this workspace.
    pub fn output_and_grad_mut(&mut self) -> (&Matrix, &mut Matrix) {
        let last = self.layers.last_mut().expect("forward_cached has run");
        last.delta.reset(last.out.rows(), last.out.cols());
        (&last.out, &mut last.delta)
    }

    /// The network-input gradient columns the last
    /// [`Mlp::backward_cached`] computed: one row per sample, one column
    /// per requested input column.
    pub fn grad_input(&self) -> &Matrix {
        &self.grad_input
    }
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

    /// Allocation-free batched inference: one matrix pass per layer, every
    /// intermediate written into the caller-owned `scratch`. Returns a
    /// borrow of the output matrix living inside the scratch (one row per
    /// input row). Results are bit-identical to the output of
    /// [`Mlp::forward_cached`].
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
    pub fn predict_rows<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<f64> {
        if rows.is_empty() {
            return Vec::new();
        }
        TLS_SCRATCH.with(|cell| {
            let (input, scratch) = &mut *cell.borrow_mut();
            input.reset(rows.len(), rows[0].as_ref().len());
            for (r, row) in rows.iter().enumerate() {
                input.row_mut(r).copy_from_slice(row.as_ref());
            }
            let out = self.predict_batch_into(input, scratch);
            (0..out.rows()).map(|r| out.get(r, 0)).collect()
        })
    }

    /// Training forward pass over the batch the caller wrote into
    /// [`MlpCache::input_mut`]: fills the workspace's per-layer
    /// pre-activations and outputs in place and returns the network output.
    pub fn forward_cached<'c>(&self, cache: &'c mut MlpCache) -> &'c Matrix {
        let MlpCache { input, layers, .. } = cache;
        layers.resize_with(self.layers.len(), LayerCache::default);
        let mut x: &Matrix = input;
        for (layer, lc) in self.layers.iter().zip(layers.iter_mut()) {
            layer.forward_train_into(x, &mut lc.pre, &mut lc.out);
            x = &lc.out;
        }
        x
    }

    /// Backward pass for a prior [`Mlp::forward_cached`] on `cache`, seeded
    /// with the `dL/dY` the caller wrote through
    /// [`MlpCache::output_and_grad_mut`]. Accumulates the parameter
    /// gradients. `input_cols` names the network-input columns whose
    /// gradient lands in [`MlpCache::grad_input`], bit for bit those
    /// columns of the full gradient; `None` skips the first layer's `dZ·Wᵀ`
    /// entirely.
    ///
    /// # Panics
    /// Panics if `cache` did not run this network's forward.
    pub fn backward_cached(&mut self, cache: &mut MlpCache, input_cols: Option<Range<usize>>) {
        let MlpCache {
            input,
            layers,
            grad_input,
        } = cache;
        assert_eq!(
            layers.len(),
            self.layers.len(),
            "cache/layer count mismatch"
        );
        for (idx, layer) in self.layers.iter_mut().enumerate().rev() {
            let (below, rest) = layers.split_at_mut(idx);
            let LayerCache {
                pre,
                delta,
                scratch,
                ..
            } = &mut rest[0];
            // A hidden layer's input gradient is the layer below's `dL/dY`.
            let (layer_input, input_grad) = match below.last_mut() {
                Some(prev) => (&prev.out, Some((0..layer.input_dim(), &mut prev.delta))),
                None => (
                    &*input,
                    input_cols.clone().map(|cols| (cols, &mut *grad_input)),
                ),
            };
            layer.backward_into(layer_input, pre, delta, scratch, input_grad);
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

    /// Gradient of the first output unit with respect to the input features,
    /// evaluated at a single point. This is the quantity the paper's gradient
    /// feature-reduction baseline averages over the dataset. Walks the
    /// layers backwards with `dZ·Wᵀ` steps that accumulate no parameter
    /// gradient, so the network is neither cloned nor changed.
    pub fn input_gradient(&self, features: &[f64]) -> Vec<f64> {
        let mut cache = MlpCache::default();
        cache.input.reset_from_row(features);
        self.forward_cached(&mut cache);
        // Seed gradient: 1 on the first output unit.
        cache.output_and_grad_mut().1.set(0, 0, 1.0);
        let MlpCache {
            layers, grad_input, ..
        } = &mut cache;
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            let (below, rest) = layers.split_at_mut(idx);
            let LayerCache {
                pre,
                delta,
                scratch,
                ..
            } = &mut rest[0];
            layer.pre_activation_grad_in_place(pre, delta);
            let out = match below.last_mut() {
                Some(prev) => &mut prev.delta,
                None => &mut *grad_input,
            };
            delta.matmul_t_rows_into(layer.weights(), 0..layer.input_dim(), scratch, out);
        }
        grad_input.row(0).to_vec()
    }

    /// All layer activations (post-activation outputs) for a single input,
    /// in order from the first hidden layer to the output layer. Needed by
    /// the difference-propagation importance score (Equation 1).
    pub fn layer_activations(&self, features: &[f64]) -> Vec<Vec<f64>> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let (mut cur, mut next) = (Matrix::row_vector(features), Matrix::default());
        for layer in &self.layers {
            layer.forward_inference_into(&cur, &mut next);
            outs.push(next.row(0).to_vec());
            std::mem::swap(&mut cur, &mut next);
        }
        outs
    }

    /// Activations of the first hidden layer for a single input.
    pub fn first_hidden_activations(&self, features: &[f64]) -> Vec<f64> {
        let mut out = Matrix::default();
        self.layers[0].forward_inference_into(&Matrix::row_vector(features), &mut out);
        out.row(0).to_vec()
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
        let mut cache = MlpCache::default();
        let mut targets = Vec::with_capacity(config.batch_size.min(data.len()));
        // Shuffling one index permutation in place draws what shuffling the
        // rows would (both shuffle a Vec of length n), so each batch
        // gathers the rows a reordered copy of the dataset would hold.
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(config.epochs);

        for _ in 0..config.epochs {
            if config.shuffle {
                order.shuffle(rng);
            }
            let mut epoch_loss = 0.0;
            let mut batches_seen = 0usize;
            for batch in order.chunks(config.batch_size) {
                let input = cache.input_mut();
                input.reshape_unspecified(batch.len(), data.dim());
                targets.clear();
                for (r, &i) in batch.iter().enumerate() {
                    input.row_mut(r).copy_from_slice(&data.features()[i]);
                    targets.push(data.targets()[i]);
                }
                self.forward_cached(&mut cache);
                // The output has one column, so its storage is the
                // prediction vector.
                let (out, grad) = cache.output_and_grad_mut();
                epoch_loss += config.loss.value(out.as_slice(), &targets);
                batches_seen += 1;
                config
                    .loss
                    .gradient_into(out.as_slice(), &targets, grad.as_mut_slice());
                self.backward_cached(&mut cache, None);
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

    /// The training forward's output for `x` on a fresh workspace.
    fn train_forward(mlp: &Mlp, x: &Matrix) -> Matrix {
        let mut cache = MlpCache::default();
        *cache.input_mut() = x.clone();
        mlp.forward_cached(&mut cache).clone()
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
    fn predict_batch_into_is_bit_identical_to_the_training_forward() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 9, 5, 2], Activation::Relu, &mut r);
        let x = Matrix::from_rows(&[
            vec![0.1, -0.2, 0.3, 0.7],
            vec![1.5, 0.0, -0.4, 0.2],
            vec![-1.0, 2.0, 0.5, 0.0],
        ]);
        let mut scratch = InferenceScratch::new();
        let batched = mlp.predict_batch_into(&x, &mut scratch).clone();
        assert_eq!(batched, train_forward(&mlp, &x));
        // Reusing the scratch across calls and batch sizes stays exact.
        let y = Matrix::from_rows(&[vec![0.9, 0.9, 0.9, 0.9]]);
        assert_eq!(
            *mlp.predict_batch_into(&y, &mut scratch),
            train_forward(&mlp, &y)
        );
    }

    #[test]
    fn scratch_is_shareable_across_network_shapes() {
        let mut r = rng();
        let a = Mlp::new(&[3, 8, 1], Activation::Tanh, &mut r);
        let b = Mlp::new(&[6, 4, 4, 2], Activation::Relu, &mut r);
        let xa = Matrix::from_rows(&[vec![0.1, 0.2, 0.3]]);
        let xb = Matrix::from_rows(&[vec![0.5; 6], vec![-0.5; 6]]);
        let mut scratch = InferenceScratch::new();
        let (ya, yb) = (train_forward(&a, &xa), train_forward(&b, &xb));
        assert_eq!(*a.predict_batch_into(&xa, &mut scratch), ya);
        assert_eq!(*b.predict_batch_into(&xb, &mut scratch), yb);
        assert_eq!(*a.predict_batch_into(&xa, &mut scratch), ya);
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
        assert!(mlp.predict_rows::<Vec<f64>>(&[]).is_empty());
    }

    #[test]
    fn parameter_gradients_match_finite_differences_through_every_layer() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[3, 5, 4, 1], Activation::Tanh, &mut r);
        let x = Matrix::from_rows(&[vec![0.4, -0.7, 0.2], vec![-0.3, 0.9, 0.5]]);
        let mut cache = MlpCache::default();
        *cache.input_mut() = x.clone();
        mlp.forward_cached(&mut cache);
        // dY = 1 per row: the gradients are those of the summed outputs.
        cache.output_and_grad_mut().1.as_mut_slice().fill(1.0);
        mlp.backward_cached(&mut cache, None);
        let summed_output = |m: &Mlp| train_forward(m, &x).as_slice().iter().sum::<f64>();
        let eps = 1e-6;
        let mut probe = mlp.clone();
        for (l, layer) in mlp.layers().iter().enumerate() {
            for (i, analytic) in layer.grad_weights().as_slice().iter().enumerate() {
                let original = probe.layers[l].weights().as_slice()[i];
                probe.layers[l].weights_mut().as_mut_slice()[i] = original + eps;
                let plus = summed_output(&probe);
                probe.layers[l].weights_mut().as_mut_slice()[i] = original - eps;
                let minus = summed_output(&probe);
                probe.layers[l].weights_mut().as_mut_slice()[i] = original;
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-6,
                    "layer {l} weight {i}: analytic {analytic} vs numeric {numeric}"
                );
            }
            for (i, analytic) in layer.grad_biases().iter().enumerate() {
                let original = probe.layers[l].biases()[i];
                probe.layers[l].biases_mut()[i] = original + eps;
                let plus = summed_output(&probe);
                probe.layers[l].biases_mut()[i] = original - eps;
                let minus = summed_output(&probe);
                probe.layers[l].biases_mut()[i] = original;
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-6,
                    "layer {l} bias {i}: analytic {analytic} vs numeric {numeric}"
                );
            }
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
    fn training_memorises_a_constant() {
        let mut r = rng();
        let data = Dataset::new(vec![vec![1.0], vec![1.0]], vec![0.0, 0.0]).unwrap();
        let mut mlp = Mlp::new(&[1, 4, 1], Activation::Relu, &mut r);
        let cfg = TrainConfig {
            epochs: 200,
            loss: Loss::Mse,
            ..Default::default()
        };
        mlp.train(&data, &cfg, &mut r);
        let preds = mlp.predict_rows(data.features());
        assert!(Loss::Mse.value(&preds, data.targets()) < 1e-3);
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
