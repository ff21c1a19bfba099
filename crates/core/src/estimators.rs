//! Learned cost estimators: the PostgreSQL analytical baseline, an
//! MSCN-style flat model and a QPPNet-style plan-structured model.
//!
//! Both learned models consume the encodings of [`crate::encoding`]; when a
//! [`FeatureSnapshot`] is supplied they become the QCFE variants
//! (`QCFE(mscn)`, `QCFE(qpp)`) of the paper's Table IV.

use crate::collect::LabeledWorkload;
use crate::encoding::FeatureEncoder;
use crate::metrics::AccuracyReport;
use crate::snapshot::FeatureSnapshot;
use qcfe_db::plan::{OperatorKind, PlanNode};
use qcfe_nn::{Activation, Dataset, InferenceScratch, Loss, Matrix, Mlp, Optimizer, TrainConfig};
use rand::Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Training statistics reported in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainStats {
    /// Wall-clock training time in seconds.
    pub train_time_s: f64,
    /// Number of training iterations (epochs).
    pub iterations: usize,
    /// Final training loss.
    pub final_loss: f64,
}

/// The PostgreSQL analytical baseline: predicted cost is the planner's
/// cost-unit estimate converted with a fixed scale. It ignores the
/// environment entirely, which is why its q-error is large.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PgEstimator;

impl PgEstimator {
    /// Predict the latency of a planned query in milliseconds.
    pub fn predict(&self, plan: &PlanNode) -> f64 {
        qcfe_db::cost::cost_units_to_ms(plan.est_cost)
    }

    /// Evaluate on a labeled workload.
    pub fn evaluate(&self, workload: &LabeledWorkload) -> AccuracyReport {
        let actuals: Vec<f64> = workload.actual_costs();
        let preds: Vec<f64> = workload
            .queries
            .iter()
            .map(|q| self.predict(&q.executed.root))
            .collect();
        AccuracyReport::compute(&actuals, &preds)
    }
}

/// Per-environment snapshots used when encoding labeled queries.
pub type EnvSnapshots = Vec<Option<FeatureSnapshot>>;

/// Mean per-query inference latency through the scalar and batched paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceLatency {
    /// One prediction per call, microseconds per query.
    pub scalar_us: f64,
    /// Whole-workload batched prediction, microseconds per query.
    pub batched_us: f64,
}

fn snapshot_for(snapshots: Option<&EnvSnapshots>, env_index: usize) -> Option<&FeatureSnapshot> {
    snapshots
        .and_then(|s| s.get(env_index))
        .and_then(|o| o.as_ref())
}

/// Project a feature vector onto the kept indices of a mask.
fn project(features: &[f64], mask: &[usize]) -> Vec<f64> {
    mask.iter().map(|&i| features[i]).collect()
}

// ---------------------------------------------------------------------------
// MSCN-style estimator
// ---------------------------------------------------------------------------

/// An MSCN-style flat estimator: pooled plan encoding → MLP → cost.
#[derive(Debug, Clone)]
pub struct MscnEstimator {
    encoder: FeatureEncoder,
    mask: Vec<usize>,
    mlp: Mlp,
}

impl MscnEstimator {
    /// Number of hidden units per layer.
    pub const HIDDEN: usize = 64;

    /// Build the training dataset (pooled plan encodings → total latency).
    pub fn build_dataset(
        encoder: &FeatureEncoder,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
    ) -> Dataset {
        let xs: Vec<Vec<f64>> = workload
            .queries
            .iter()
            .map(|q| encoder.encode_plan(&q.executed.root, snapshot_for(snapshots, q.env_index)))
            .collect();
        let ys: Vec<f64> = workload.actual_costs();
        Dataset::new(xs, ys).expect("non-empty labeled workload")
    }

    /// Train the estimator. `mask` restricts the plan-level features (the
    /// outcome of feature reduction); pass `None` to use every feature.
    pub fn train<R: Rng + ?Sized>(
        encoder: FeatureEncoder,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
        mask: Option<Vec<usize>>,
        iterations: usize,
        rng: &mut R,
    ) -> (Self, TrainStats) {
        let start = Instant::now();
        let full = Self::build_dataset(&encoder, workload, snapshots);
        let mask = mask.unwrap_or_else(|| (0..full.dim()).collect());
        let data = full.project_columns(&mask).expect("valid mask");
        let mut mlp = Mlp::new(
            &[data.dim(), Self::HIDDEN, Self::HIDDEN / 2, 1],
            Activation::Relu,
            rng,
        );
        let cfg = TrainConfig {
            epochs: iterations,
            batch_size: 64,
            optimizer: Optimizer::adam(5e-3),
            loss: Loss::LogMse,
            shuffle: true,
        };
        let history = mlp.train(&data, &cfg, rng);
        let stats = TrainStats {
            train_time_s: start.elapsed().as_secs_f64(),
            iterations,
            final_loss: history.final_loss(),
        };
        (MscnEstimator { encoder, mask, mlp }, stats)
    }

    /// Reassemble a trained estimator from its persisted parts (the
    /// inverse of the `QCFW` serialization in [`crate::model_codec`]).
    /// Rejects structurally inconsistent parts instead of panicking later
    /// during inference.
    pub fn from_parts(
        encoder: FeatureEncoder,
        mask: Vec<usize>,
        mlp: Mlp,
    ) -> Result<Self, crate::model_codec::ModelCodecError> {
        use crate::model_codec::ModelCodecError;
        let plan_dim = encoder.plan_dim();
        if let Some(&bad) = mask.iter().find(|&&i| i >= plan_dim) {
            return Err(ModelCodecError::Malformed(format!(
                "MSCN mask index {bad} out of range for plan dim {plan_dim}"
            )));
        }
        if mlp.input_dim() != mask.len() {
            return Err(ModelCodecError::Malformed(format!(
                "MSCN network input dim {} does not match mask length {}",
                mlp.input_dim(),
                mask.len()
            )));
        }
        if mlp.output_dim() != 1 {
            return Err(ModelCodecError::Malformed(format!(
                "MSCN network output dim {} is not scalar",
                mlp.output_dim()
            )));
        }
        Ok(MscnEstimator { encoder, mask, mlp })
    }

    /// Predict the latency of a plan under an (optional) snapshot.
    pub fn predict(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        let features = self.encoder.encode_plan(root, snapshot);
        self.mlp
            .predict_one(&project(&features, &self.mask))
            .max(1e-6)
    }

    /// Batched prediction over many plans: every plan is encoded, then the
    /// whole batch runs through the MLP in a single matrix pass. Results are
    /// bit-identical to per-plan [`MscnEstimator::predict`].
    pub fn predict_batch(
        &self,
        plans: &[&PlanNode],
        snapshot: Option<&FeatureSnapshot>,
    ) -> Vec<f64> {
        let rows: Vec<Vec<f64>> = plans
            .iter()
            .map(|p| project(&self.encoder.encode_plan(p, snapshot), &self.mask))
            .collect();
        self.mlp
            .predict_rows(&rows)
            .into_iter()
            .map(|p| p.max(1e-6))
            .collect()
    }

    /// Evaluate on a labeled workload.
    pub fn evaluate(
        &self,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
    ) -> AccuracyReport {
        let actuals = workload.actual_costs();
        let preds: Vec<f64> = workload
            .queries
            .iter()
            .map(|q| self.predict(&q.executed.root, snapshot_for(snapshots, q.env_index)))
            .collect();
        AccuracyReport::compute(&actuals, &preds)
    }

    /// Average per-query inference latency through both the scalar and the
    /// batched path. The batched probe groups queries by environment so
    /// every group shares one snapshot (and thus one matrix pass).
    pub fn inference_latency_us(
        &self,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
    ) -> InferenceLatency {
        if workload.is_empty() {
            return InferenceLatency {
                scalar_us: 0.0,
                batched_us: 0.0,
            };
        }
        let n = workload.len() as f64;
        let start = Instant::now();
        for q in &workload.queries {
            let _ = self.predict(&q.executed.root, snapshot_for(snapshots, q.env_index));
        }
        let scalar_us = start.elapsed().as_secs_f64() * 1e6 / n;

        let mut by_env: BTreeMap<usize, Vec<&PlanNode>> = BTreeMap::new();
        for q in &workload.queries {
            by_env
                .entry(q.env_index)
                .or_default()
                .push(&q.executed.root);
        }
        let start = Instant::now();
        for (env_index, plans) in &by_env {
            let _ = self.predict_batch(plans, snapshot_for(snapshots, *env_index));
        }
        let batched_us = start.elapsed().as_secs_f64() * 1e6 / n;
        InferenceLatency {
            scalar_us,
            batched_us,
        }
    }

    /// The trained network (used by feature reduction and tests).
    pub fn model(&self) -> &Mlp {
        &self.mlp
    }

    /// The feature mask in effect.
    pub fn mask(&self) -> &[usize] {
        &self.mask
    }

    /// The encoder in use.
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }
}

// ---------------------------------------------------------------------------
// QPPNet-style estimator
// ---------------------------------------------------------------------------

/// Dimension of the inter-node "data vector" passed from children to parents
/// in the plan-structured network.
pub const DATA_VECTOR_DIM: usize = 8;

/// Maximum number of children whose data vectors a neural unit consumes.
pub const MAX_CHILDREN: usize = 2;

/// A QPPNet-style plan-structured estimator: one small neural unit per
/// operator kind; a node's unit consumes the node encoding plus its
/// children's output vectors and emits a data vector whose first entry is
/// the node's predicted (inclusive) latency.
///
/// Inference is *operator-grouped batched*: the nodes of every plan in a
/// batch are bucketed by `(stage, OperatorKind)` — where a node's stage is
/// its height above the leaves — and each bucket runs through its neural
/// unit in a single matrix forward, children before parents, with child
/// data vectors scattered back into the parents' feature rows between
/// stages. See [`QppNetEstimator::predict_batch`].
#[derive(Debug, Clone)]
pub struct QppNetEstimator {
    encoder: FeatureEncoder,
    /// Per-operator feature mask over the node encoding.
    masks: HashMap<OperatorKind, Vec<usize>>,
    units: HashMap<OperatorKind, Mlp>,
    node_dim: usize,
}

/// Execution statistics of one [`QppNetEstimator::predict_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QppBatchStats {
    /// Neural-unit matrix forwards executed (one per non-empty
    /// `(stage, OperatorKind)` bucket).
    pub forward_calls: usize,
    /// Number of stages (maximum node height + 1).
    pub stages: usize,
    /// Total plan nodes in the batch.
    pub nodes: usize,
}

/// One plan node flattened into the batch arena; its features live at
/// `id * node_dim` in the shared flat feature buffer.
struct FlatNode {
    kind: OperatorKind,
    /// Child arena ids; `usize::MAX` marks an absent slot. Children beyond
    /// [`MAX_CHILDREN`] are still predicted but (exactly as in the scalar
    /// walk) do not feed the parent's input.
    children: [usize; MAX_CHILDREN],
    height: usize,
}

/// Reusable per-thread buffers of the batched QPPNet engine: after warm-up
/// a [`QppNetEstimator::predict_batch`] call performs no steady-state heap
/// allocations beyond its result vector.
struct QppBatchScratch {
    arena: Vec<FlatNode>,
    features: Vec<f64>,
    roots: Vec<usize>,
    /// Node-id buckets per stage, indexed by [`OperatorKind::index`].
    buckets: Vec<[Vec<usize>; OperatorKind::ALL.len()]>,
    outputs: Vec<[f64; DATA_VECTOR_DIM]>,
    input: Matrix,
    nn: InferenceScratch,
    /// Per-kind snapshot blocks for the current call (the buffers are
    /// reused across calls; `blocks_filled` is reset per call because the
    /// snapshot may differ).
    snapshot_blocks: [Vec<f64>; OperatorKind::ALL.len()],
    blocks_filled: [bool; OperatorKind::ALL.len()],
}

impl QppBatchScratch {
    fn new() -> Self {
        QppBatchScratch {
            arena: Vec::new(),
            features: Vec::new(),
            roots: Vec::new(),
            buckets: Vec::new(),
            outputs: Vec::new(),
            input: Matrix::default(),
            nn: InferenceScratch::new(),
            snapshot_blocks: std::array::from_fn(|_| Vec::new()),
            blocks_filled: [false; OperatorKind::ALL.len()],
        }
    }
}

thread_local! {
    static QPP_SCRATCH: RefCell<QppBatchScratch> = RefCell::new(QppBatchScratch::new());
}

/// Flatten one plan into the arena, returning its root's arena id.
#[allow(clippy::too_many_arguments)]
fn flatten_plan_into(
    encoder: &FeatureEncoder,
    node_dim: usize,
    node: &PlanNode,
    depth: usize,
    snapshot: Option<&FeatureSnapshot>,
    arena: &mut Vec<FlatNode>,
    features: &mut Vec<f64>,
    // Lazily-computed snapshot block per operator kind: the block is a
    // function of `(kind, snapshot)` only, so computing it once per kind
    // (instead of per node) is bit-identical and skips the per-node
    // logarithm transforms. The buffers are reused across calls.
    snapshot_blocks: &mut [Vec<f64>; OperatorKind::ALL.len()],
    blocks_filled: &mut [bool; OperatorKind::ALL.len()],
) -> usize {
    let mut children = [usize::MAX; MAX_CHILDREN];
    let mut height = 0;
    for (slot, child) in node.children.iter().enumerate() {
        let cid = flatten_plan_into(
            encoder,
            node_dim,
            child,
            depth + 1,
            snapshot,
            arena,
            features,
            snapshot_blocks,
            blocks_filled,
        );
        height = height.max(arena[cid].height + 1);
        if slot < MAX_CHILDREN {
            children[slot] = cid;
        }
    }
    let kind = node.op.kind();
    encoder.encode_node_prefix_into(node, depth, features);
    let block = &mut snapshot_blocks[kind.index()];
    if !blocks_filled[kind.index()] {
        block.clear();
        encoder.append_snapshot_block(kind, snapshot, block);
        blocks_filled[kind.index()] = true;
    }
    features.extend_from_slice(block);
    arena.push(FlatNode {
        kind,
        children,
        height,
    });
    // The engine reads features back as `&features[id * node_dim ..]`,
    // so prefix + snapshot block must append exactly node_dim values.
    debug_assert_eq!(features.len(), arena.len() * node_dim);
    arena.len() - 1
}

/// The operator-grouped batched QPPNet inference engine: flatten every
/// plan into one arena, bucket nodes by `(stage, OperatorKind)`, run each
/// bucket through its unit in a single [`Mlp::predict_batch_into`] pass,
/// and scatter child data vectors into parent rows between stages.
///
/// The engine is allocation-free in steady state: node encodings are
/// packed into one flat feature arena (stride [`FeatureEncoder::node_dim`]),
/// child links live in fixed-size slots, stage buckets are per-kind
/// vectors, and everything — including the neural-unit input matrix and
/// [`InferenceScratch`] — lives in a reusable thread-local
/// [`QppBatchScratch`].
fn qpp_batched_forward(
    encoder: &FeatureEncoder,
    masks: &HashMap<OperatorKind, Vec<usize>>,
    units: &HashMap<OperatorKind, Mlp>,
    node_dim: usize,
    plans: &[&PlanNode],
    snapshot: Option<&FeatureSnapshot>,
) -> (Vec<f64>, QppBatchStats) {
    QPP_SCRATCH.with(|cell| {
        let s = &mut *cell.borrow_mut();
        let QppBatchScratch {
            arena,
            features,
            roots,
            buckets,
            outputs,
            input,
            nn,
            snapshot_blocks,
            blocks_filled,
        } = s;
        arena.clear();
        features.clear();
        roots.clear();
        // The snapshot may differ between calls, so the cached blocks
        // must be recomputed — but their buffers are reused.
        *blocks_filled = [false; OperatorKind::ALL.len()];
        for plan in plans {
            let root = flatten_plan_into(
                encoder,
                node_dim,
                plan,
                0,
                snapshot,
                arena,
                features,
                snapshot_blocks,
                blocks_filled,
            );
            roots.push(root);
        }
        let stages = arena.iter().map(|n| n.height + 1).max().unwrap_or(0);

        // Node-id buckets per (stage, kind); fixed per-kind slots keep
        // the execution order deterministic (OperatorKind::ALL order).
        while buckets.len() < stages {
            buckets.push(std::array::from_fn(|_| Vec::new()));
        }
        for stage in buckets.iter_mut().take(stages) {
            for bucket in stage.iter_mut() {
                bucket.clear();
            }
        }
        for (id, node) in arena.iter().enumerate() {
            buckets[node.height][node.kind.index()].push(id);
        }

        outputs.clear();
        outputs.resize(arena.len(), [0.0; DATA_VECTOR_DIM]);
        let mut forward_calls = 0usize;
        for stage in buckets.iter().take(stages) {
            for (kind_index, ids) in stage.iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let kind = OperatorKind::ALL[kind_index];
                let mask = &masks[&kind];
                // The unreduced (identity) mask is the common case; copy
                // the feature block wholesale instead of gathering per
                // index.
                let identity_mask =
                    mask.len() == node_dim && mask.iter().enumerate().all(|(i, &m)| m == i);
                // Every element of every row is written below, so the
                // matrix contents need no zero-fill.
                input.reshape_unspecified(ids.len(), mask.len() + MAX_CHILDREN * DATA_VECTOR_DIM);
                for (r, &id) in ids.iter().enumerate() {
                    let node = &arena[id];
                    let feats = &features[id * node_dim..(id + 1) * node_dim];
                    let row = input.row_mut(r);
                    if identity_mask {
                        row[..node_dim].copy_from_slice(feats);
                    } else {
                        for (j, &fi) in mask.iter().enumerate() {
                            row[j] = feats[fi];
                        }
                    }
                    // Children always live at lower stages, so their data
                    // vectors are final by now; absent slots read zero.
                    for (slot, &cid) in node.children.iter().enumerate() {
                        let start = mask.len() + slot * DATA_VECTOR_DIM;
                        let slot_out = if cid == usize::MAX {
                            &[0.0; DATA_VECTOR_DIM]
                        } else {
                            &outputs[cid]
                        };
                        row[start..start + DATA_VECTOR_DIM].copy_from_slice(slot_out);
                    }
                }
                let out = units[&kind].predict_batch_into(input, nn);
                forward_calls += 1;
                for (r, &id) in ids.iter().enumerate() {
                    outputs[id].copy_from_slice(out.row(r));
                }
            }
        }

        let preds = roots.iter().map(|&r| outputs[r][0].max(1e-6)).collect();
        (
            preds,
            QppBatchStats {
                forward_calls,
                stages,
                nodes: arena.len(),
            },
        )
    })
}

/// Intermediate forward state for one node (used during training).
struct ForwardNode {
    kind: OperatorKind,
    output: Vec<f64>,
    cache: qcfe_nn::mlp::MlpCache,
    actual_ms: f64,
    children: Vec<ForwardNode>,
}

impl QppNetEstimator {
    /// Hidden width of each neural unit.
    pub const HIDDEN: usize = 32;

    /// Create an untrained estimator.
    pub fn new<R: Rng + ?Sized>(
        encoder: FeatureEncoder,
        masks: Option<HashMap<OperatorKind, Vec<usize>>>,
        rng: &mut R,
    ) -> Self {
        let node_dim = encoder.node_dim();
        let masks = masks.unwrap_or_else(|| {
            OperatorKind::ALL
                .iter()
                .map(|k| (*k, (0..node_dim).collect()))
                .collect()
        });
        let mut units = HashMap::new();
        for kind in OperatorKind::ALL {
            let input_dim = masks[&kind].len() + MAX_CHILDREN * DATA_VECTOR_DIM;
            let unit = Mlp::with_output_activation(
                &[input_dim, Self::HIDDEN, DATA_VECTOR_DIM],
                Activation::Relu,
                Activation::Softplus,
                rng,
            );
            units.insert(kind, unit);
        }
        QppNetEstimator {
            encoder,
            masks,
            units,
            node_dim,
        }
    }

    /// The per-operator feature masks.
    pub fn masks(&self) -> &HashMap<OperatorKind, Vec<usize>> {
        &self.masks
    }

    /// The per-operator neural units (codec and diagnostics surface).
    pub fn units(&self) -> &HashMap<OperatorKind, Mlp> {
        &self.units
    }

    /// Reassemble a trained estimator from its persisted parts (the
    /// inverse of the `QCFW` serialization in [`crate::model_codec`]).
    /// Every operator kind must come with a mask and a neural unit whose
    /// dimensions agree with the encoder, else inference would panic.
    pub fn from_parts(
        encoder: FeatureEncoder,
        masks: HashMap<OperatorKind, Vec<usize>>,
        units: HashMap<OperatorKind, Mlp>,
    ) -> Result<Self, crate::model_codec::ModelCodecError> {
        use crate::model_codec::ModelCodecError;
        let node_dim = encoder.node_dim();
        for kind in OperatorKind::ALL {
            let mask = masks.get(&kind).ok_or_else(|| {
                ModelCodecError::Malformed(format!("QPPNet mask missing for {kind:?}"))
            })?;
            if let Some(&bad) = mask.iter().find(|&&i| i >= node_dim) {
                return Err(ModelCodecError::Malformed(format!(
                    "QPPNet {kind:?} mask index {bad} out of range for node dim {node_dim}"
                )));
            }
            let unit = units.get(&kind).ok_or_else(|| {
                ModelCodecError::Malformed(format!("QPPNet neural unit missing for {kind:?}"))
            })?;
            let expected_input = mask.len() + MAX_CHILDREN * DATA_VECTOR_DIM;
            if unit.input_dim() != expected_input {
                return Err(ModelCodecError::Malformed(format!(
                    "QPPNet {kind:?} unit input dim {} does not match mask-derived dim {expected_input}",
                    unit.input_dim()
                )));
            }
            if unit.output_dim() != DATA_VECTOR_DIM {
                return Err(ModelCodecError::Malformed(format!(
                    "QPPNet {kind:?} unit output dim {} is not the data-vector dim {DATA_VECTOR_DIM}",
                    unit.output_dim()
                )));
            }
        }
        Ok(QppNetEstimator {
            encoder,
            masks,
            units,
            node_dim,
        })
    }

    /// The encoder in use.
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }

    fn unit_input(
        &self,
        kind: OperatorKind,
        node_features: &[f64],
        child_outputs: &[Vec<f64>],
    ) -> Vec<f64> {
        let mask = &self.masks[&kind];
        let mut input = project(node_features, mask);
        for slot in 0..MAX_CHILDREN {
            match child_outputs.get(slot) {
                Some(v) => input.extend_from_slice(v),
                None => input.extend(std::iter::repeat_n(0.0, DATA_VECTOR_DIM)),
            }
        }
        input
    }

    /// Inference-only forward pass over a plan; returns the root's predicted
    /// latency (ms). Routes through the operator-grouped batched engine with
    /// a batch of one.
    pub fn predict(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        self.predict_batch(&[root], snapshot)[0]
    }

    /// Reference scalar implementation: the original recursive tree walk
    /// running one 1-row neural-unit forward ([`Mlp::predict_vec`]) per
    /// node. Kept as the ground truth the batched engine is verified
    /// against bit-for-bit, and as the baseline of the serving benchmark's
    /// batched-vs-scalar comparison.
    pub fn predict_scalar(&self, root: &PlanNode, snapshot: Option<&FeatureSnapshot>) -> f64 {
        fn walk(
            est: &QppNetEstimator,
            node: &PlanNode,
            depth: usize,
            snapshot: Option<&FeatureSnapshot>,
        ) -> Vec<f64> {
            let child_outputs: Vec<Vec<f64>> = node
                .children
                .iter()
                .map(|c| walk(est, c, depth + 1, snapshot))
                .collect();
            let kind = node.op.kind();
            let features = est.encoder.encode_node(node, depth, snapshot);
            let input = est.unit_input(kind, &features, &child_outputs);
            est.units[&kind].predict_vec(&input)
        }
        walk(self, root, 0, snapshot)
            .first()
            .copied()
            .unwrap_or(0.0)
            .max(1e-6)
    }

    /// Operator-grouped batched inference over many plans.
    ///
    /// Nodes from *all* plans are flattened into one arena and processed in
    /// stages from the leaves up (a node's stage is its height). Within a
    /// stage, nodes are bucketed by [`OperatorKind`] and each bucket runs
    /// through its neural unit in a single allocation-free matrix forward;
    /// the resulting data vectors are scattered into the parents' input rows
    /// for the next stages. Per-plan results are bit-identical to scalar
    /// tree-walking inference because every row of a batched forward is
    /// computed with the same operation order as a 1-row forward.
    pub fn predict_batch(
        &self,
        plans: &[&PlanNode],
        snapshot: Option<&FeatureSnapshot>,
    ) -> Vec<f64> {
        self.predict_batch_with_stats(plans, snapshot).0
    }

    /// [`QppNetEstimator::predict_batch`] plus execution statistics (used by
    /// tests and the serving benchmark to verify grouping happens). Runs the
    /// operator-grouped engine ([`qpp_batched_forward`]).
    pub fn predict_batch_with_stats(
        &self,
        plans: &[&PlanNode],
        snapshot: Option<&FeatureSnapshot>,
    ) -> (Vec<f64>, QppBatchStats) {
        qpp_batched_forward(
            &self.encoder,
            &self.masks,
            &self.units,
            self.node_dim,
            plans,
            snapshot,
        )
    }

    /// Training forward pass keeping caches for backprop.
    fn forward_train(
        &self,
        node: &PlanNode,
        depth: usize,
        snapshot: Option<&FeatureSnapshot>,
    ) -> ForwardNode {
        let children: Vec<ForwardNode> = node
            .children
            .iter()
            .map(|c| self.forward_train(c, depth + 1, snapshot))
            .collect();
        let kind = node.op.kind();
        let features = self.encoder.encode_node(node, depth, snapshot);
        let child_outputs: Vec<Vec<f64>> = children.iter().map(|c| c.output.clone()).collect();
        let input = self.unit_input(kind, &features, &child_outputs);
        let (out, cache) = self.units[&kind].forward_cached(&Matrix::row_vector(&input));
        ForwardNode {
            kind,
            output: out.row(0).to_vec(),
            cache,
            actual_ms: node.actual_total_ms,
            children,
        }
    }

    /// Backward pass through the tree, accumulating gradients in the units.
    /// Returns the summed node loss of the tree.
    fn backward_tree(
        &mut self,
        fwd: &ForwardNode,
        grad_from_parent: Vec<f64>,
        node_count: f64,
    ) -> f64 {
        // Loss on this node's latency prediction (log-space MSE), averaged
        // over the plan's node count.
        let pred = fwd.output[0];
        let actual = fwd.actual_ms;
        let lp = (1.0 + pred.max(0.0)).ln();
        let la = (1.0 + actual.max(0.0)).ln();
        let loss = (lp - la).powi(2) / node_count;
        let dloss_dpred = 2.0 * (lp - la) / (1.0 + pred.max(0.0)) / node_count;

        let mut grad_output = grad_from_parent;
        if grad_output.is_empty() {
            grad_output = vec![0.0; DATA_VECTOR_DIM];
        }
        grad_output[0] += dloss_dpred;

        let mask_len = self.masks[&fwd.kind].len();
        let unit = self.units.get_mut(&fwd.kind).expect("unit exists");
        let grad_input = unit.backward_cached(&fwd.cache, &Matrix::row_vector(&grad_output));
        let grad_input = grad_input.row(0).to_vec();

        let mut total_loss = loss;
        for (slot, child) in fwd.children.iter().enumerate().take(MAX_CHILDREN) {
            let start = mask_len + slot * DATA_VECTOR_DIM;
            let child_grad = grad_input[start..start + DATA_VECTOR_DIM].to_vec();
            total_loss += self.backward_tree(child, child_grad, node_count);
        }
        // Children beyond MAX_CHILDREN (should not occur with binary plans)
        // still contribute their own node losses.
        for child in fwd.children.iter().skip(MAX_CHILDREN) {
            total_loss += self.backward_tree(child, vec![0.0; DATA_VECTOR_DIM], node_count);
        }
        total_loss
    }

    /// Train on a labeled workload for the given number of iterations
    /// (epochs over all plans).
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
        iterations: usize,
        rng: &mut R,
    ) -> TrainStats {
        let start = Instant::now();
        let optimizer = Optimizer::adam(2e-3);
        let mut final_loss = f64::INFINITY;
        let mut order: Vec<usize> = (0..workload.queries.len()).collect();
        for _ in 0..iterations {
            use rand::seq::SliceRandom;
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            for &qi in &order {
                let q = &workload.queries[qi];
                let snapshot = snapshot_for(snapshots, q.env_index);
                let fwd = self.forward_train(&q.executed.root, 0, snapshot);
                let node_count = q.executed.root.node_count() as f64;
                epoch_loss += self.backward_tree(&fwd, Vec::new(), node_count);
                // One optimizer step per plan.
                for unit in self.units.values_mut() {
                    unit.step(&optimizer);
                }
            }
            final_loss = epoch_loss / workload.queries.len().max(1) as f64;
        }
        TrainStats {
            train_time_s: start.elapsed().as_secs_f64(),
            iterations,
            final_loss,
        }
    }

    /// Evaluate on a labeled workload.
    pub fn evaluate(
        &self,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
    ) -> AccuracyReport {
        let actuals = workload.actual_costs();
        let preds: Vec<f64> = workload
            .queries
            .iter()
            .map(|q| self.predict(&q.executed.root, snapshot_for(snapshots, q.env_index)))
            .collect();
        AccuracyReport::compute(&actuals, &preds)
    }

    /// Build, per operator kind, the labeled operator-level dataset
    /// (node encoding → node self time) used by feature reduction and by the
    /// auxiliary per-operator models.
    pub fn operator_datasets(
        encoder: &FeatureEncoder,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
    ) -> HashMap<OperatorKind, Dataset> {
        let mut xs: HashMap<OperatorKind, Vec<Vec<f64>>> = HashMap::new();
        let mut ys: HashMap<OperatorKind, Vec<f64>> = HashMap::new();
        for q in &workload.queries {
            let snapshot = snapshot_for(snapshots, q.env_index);
            let encoded = encoder.encode_plan_nodes(&q.executed.root, snapshot);
            let nodes = q.executed.root.iter_preorder();
            for ((kind, features), node) in encoded.into_iter().zip(nodes) {
                xs.entry(kind).or_default().push(features);
                ys.entry(kind).or_default().push(node.actual_self_ms);
            }
        }
        xs.into_iter()
            .filter_map(|(kind, features)| {
                let targets = ys.remove(&kind)?;
                Dataset::new(features, targets).ok().map(|d| (kind, d))
            })
            .collect()
    }

    /// The number of node-encoding features (before masking).
    pub fn node_dim(&self) -> usize {
        self.node_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_workload;
    use qcfe_db::env::{DbEnvironment, HardwareProfile};
    use qcfe_workloads::BenchmarkKind;
    use rand::SeedableRng;

    fn workload() -> (LabeledWorkload, FeatureEncoder, FeatureEncoder) {
        let bench = BenchmarkKind::Sysbench.build(0.0005, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let envs = DbEnvironment::sample_knob_configs(2, HardwareProfile::h1(), &mut rng);
        let w = collect_workload(&bench, &envs, 30, 17);
        let plain = FeatureEncoder::new(&bench.catalog, false);
        let with_fs = FeatureEncoder::new(&bench.catalog, true);
        (w, plain, with_fs)
    }

    #[test]
    fn pg_estimator_predicts_positive_costs() {
        let (w, _, _) = workload();
        let pg = PgEstimator;
        let report = pg.evaluate(&w);
        assert!(report.mean_q_error >= 1.0);
        assert!(report.samples == w.len());
        assert!(w.queries.iter().all(|q| pg.predict(&q.executed.root) > 0.0));
    }

    #[test]
    fn mscn_trains_and_beats_a_constant_predictor() {
        let (w, encoder, _) = workload();
        let (train, test) = w.split(0.8, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let (mscn, stats) = MscnEstimator::train(encoder, &train, None, None, 60, &mut rng);
        assert!(stats.train_time_s > 0.0);
        assert!(stats.final_loss.is_finite());
        let report = mscn.evaluate(&test, None);
        assert!(report.mean_q_error.is_finite());
        assert!(report.pearson > 0.0, "pearson {}", report.pearson);
        let latency = mscn.inference_latency_us(&test, None);
        assert!(latency.scalar_us > 0.0);
        assert!(latency.batched_us > 0.0);
        assert_eq!(mscn.mask().len(), mscn.encoder().plan_dim());
    }

    #[test]
    fn qppnet_trains_on_plan_trees_and_predicts() {
        let (w, _, encoder_fs) = workload();
        let (train, test) = w.split(0.8, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut qpp = QppNetEstimator::new(encoder_fs, None, &mut rng);
        let before = qpp.evaluate(&test, None);
        let stats = qpp.train(&train, None, 15, &mut rng);
        let after = qpp.evaluate(&test, None);
        assert!(stats.final_loss.is_finite());
        assert!(
            after.mean_q_error <= before.mean_q_error * 2.0,
            "training should not blow up: before {} after {}",
            before.mean_q_error,
            after.mean_q_error
        );
        assert!(after.pearson.is_finite());
    }

    #[test]
    fn qppnet_batched_inference_matches_scalar_bit_for_bit() {
        let (w, _, encoder_fs) = workload();
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut qpp = QppNetEstimator::new(encoder_fs, None, &mut rng);
        qpp.train(&w, None, 2, &mut rng);
        let plans: Vec<&PlanNode> = w.queries.iter().map(|q| &q.executed.root).collect();
        let batched = qpp.predict_batch(&plans, None);
        for (plan, b) in plans.iter().zip(&batched) {
            let reference = qpp.predict_scalar(plan, None);
            assert_eq!(
                reference.to_bits(),
                b.to_bits(),
                "batched {b} != reference scalar walk {reference}"
            );
            let single = qpp.predict(plan, None);
            assert_eq!(
                single.to_bits(),
                b.to_bits(),
                "batch-of-one {single} != {b}"
            );
        }
    }

    /// Tentpole acceptance: batched QPPNet inference is operator-grouped —
    /// exactly one neural-unit forward per non-empty `(stage, kind)` bucket,
    /// far fewer than one per node.
    #[test]
    fn qppnet_batching_groups_forwards_by_stage_and_operator() {
        let (w, _, encoder_fs) = workload();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let qpp = QppNetEstimator::new(encoder_fs, None, &mut rng);
        let plans: Vec<&PlanNode> = w.queries.iter().map(|q| &q.executed.root).collect();
        let (preds, stats) = qpp.predict_batch_with_stats(&plans, None);
        assert_eq!(preds.len(), plans.len());

        // Recompute the expected bucket count independently of the engine:
        // the distinct (height, kind) pairs across every node in the batch.
        fn heights(node: &PlanNode, acc: &mut Vec<(usize, OperatorKind)>) -> usize {
            let h = node
                .children
                .iter()
                .map(|c| heights(c, acc) + 1)
                .max()
                .unwrap_or(0);
            acc.push((h, node.op.kind()));
            h
        }
        let mut pairs = Vec::new();
        let mut max_height = 0;
        let mut total_nodes = 0;
        for plan in &plans {
            max_height = max_height.max(heights(plan, &mut pairs));
            total_nodes += plan.node_count();
        }
        pairs.sort_unstable();
        pairs.dedup();

        assert_eq!(stats.forward_calls, pairs.len());
        assert_eq!(stats.stages, max_height + 1);
        assert_eq!(stats.nodes, total_nodes);
        assert!(
            stats.forward_calls < total_nodes / 2,
            "grouping must coalesce forwards: {} calls over {} nodes",
            stats.forward_calls,
            total_nodes
        );

        // A single-plan batch still groups same-kind nodes at equal heights.
        let (_, single) = qpp.predict_batch_with_stats(&plans[..1], None);
        assert!(single.forward_calls <= single.nodes);
    }

    #[test]
    fn operator_datasets_cover_plan_operators() {
        let (w, encoder, _) = workload();
        let datasets = QppNetEstimator::operator_datasets(&encoder, &w, None);
        assert!(
            datasets.contains_key(&OperatorKind::SeqScan)
                || datasets.contains_key(&OperatorKind::IndexScan)
        );
        for (kind, d) in &datasets {
            assert_eq!(d.dim(), encoder.node_dim(), "{kind:?}");
            assert!(!d.is_empty());
        }
    }
}
