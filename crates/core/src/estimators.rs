//! Learned cost estimators: the PostgreSQL analytical baseline, an
//! MSCN-style flat model and a QPPNet-style plan-structured model.
//!
//! Both learned models consume the encodings of [`crate::encoding`]; when a
//! [`FeatureSnapshot`] is supplied they become the QCFE variants
//! (`QCFE(mscn)`, `QCFE(qpp)`) of the paper's Table IV.

use crate::collect::LabeledWorkload;
use crate::encoding::FeatureEncoder;
use crate::metrics::{floor_ms, AccuracyReport};
use crate::snapshot::FeatureSnapshot;
use qcfe_db::plan::{OperatorKind, PlanNode};
use qcfe_nn::{
    Activation, Dataset, InferenceScratch, Loss, Matrix, Mlp, MlpCache, Optimizer, TrainConfig,
};
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
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
        floor_ms(self.mlp.predict_one(&project(&features, &self.mask)))
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
            .map(floor_ms)
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
///
/// Training is operator-grouped the same way, over mini-batches of plans
/// (QPPNet trains on batches of plans too: Marcus & Papaemmanouil, VLDB
/// 2019). Every training plan is flattened once by the inference
/// flattener; a batch then runs one cached forward per bucket, leaves
/// first, and one backward per bucket, roots first, scattering child-slot
/// gradients down, and takes one Adam step on the units it touched. The
/// batch size and learning rate come from the number of training plans,
/// not from an option: about 100 steps per epoch at any scale, and a rate
/// that grows with the square root of the batch as its gradient noise
/// falls (see [`QppNetEstimator::train`]).
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

/// One plan node flattened into an arena (inference batch or training
/// set); its features live at `id * node_dim` in the shared flat feature
/// buffer.
struct FlatNode {
    kind: OperatorKind,
    /// Child arena ids; `usize::MAX` marks an absent slot. Children beyond
    /// [`MAX_CHILDREN`] are still predicted (and trained) but, exactly as
    /// in the scalar walk, do not feed the parent's input.
    children: [usize; MAX_CHILDREN],
    height: usize,
    /// The node's label, `actual_total_ms`; only training reads it.
    actual_ms: f64,
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
        actual_ms: node.actual_total_ms,
    });
    // The engine reads features back as `&features[id * node_dim ..]`,
    // so prefix + snapshot block must append exactly node_dim values.
    debug_assert_eq!(features.len(), arena.len() * node_dim);
    arena.len() - 1
}

/// Bucket the arena nodes `ids` by `(stage, OperatorKind)`, a node's stage
/// being its height above the leaves, and return the number of stages.
/// Fixed per-kind slots keep the execution order deterministic
/// (`OperatorKind::ALL` order); the bucket vectors are reused across calls.
fn bucket_by_stage(
    arena: &[FlatNode],
    ids: impl Iterator<Item = usize>,
    buckets: &mut Vec<[Vec<usize>; OperatorKind::ALL.len()]>,
) -> usize {
    for stage in buckets.iter_mut() {
        for bucket in stage.iter_mut() {
            bucket.clear();
        }
    }
    let mut stages = 0;
    for id in ids {
        let node = &arena[id];
        if buckets.len() <= node.height {
            buckets.resize_with(node.height + 1, || std::array::from_fn(|_| Vec::new()));
        }
        buckets[node.height][node.kind.index()].push(id);
        stages = stages.max(node.height + 1);
    }
    stages
}

/// Write one bucket's neural-unit input rows into `input`: each node's
/// masked features, then its children's data vectors from `outputs`.
/// Children always live at lower stages, so their data vectors are final
/// by now; absent slots read zero.
fn gather_unit_inputs(
    input: &mut Matrix,
    ids: &[usize],
    arena: &[FlatNode],
    features: &[f64],
    node_dim: usize,
    mask: &[usize],
    outputs: &[[f64; DATA_VECTOR_DIM]],
) {
    // The unreduced (identity) mask is the common case; copy the feature
    // block wholesale instead of gathering per index.
    let identity_mask = mask.len() == node_dim && mask.iter().enumerate().all(|(i, &m)| m == i);
    // Every element of every row is written below, so the matrix contents
    // need no zero-fill.
    input.reshape_unspecified(ids.len(), mask.len() + MAX_CHILDREN * DATA_VECTOR_DIM);
    for (r, &id) in ids.iter().enumerate() {
        let feats = &features[id * node_dim..(id + 1) * node_dim];
        let row = input.row_mut(r);
        if identity_mask {
            row[..node_dim].copy_from_slice(feats);
        } else {
            for (j, &fi) in mask.iter().enumerate() {
                row[j] = feats[fi];
            }
        }
        for (slot, &cid) in arena[id].children.iter().enumerate() {
            let start = mask.len() + slot * DATA_VECTOR_DIM;
            let slot_out = if cid == usize::MAX {
                &[0.0; DATA_VECTOR_DIM]
            } else {
                &outputs[cid]
            };
            row[start..start + DATA_VECTOR_DIM].copy_from_slice(slot_out);
        }
    }
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
        let stages = bucket_by_stage(arena, 0..arena.len(), buckets);

        outputs.clear();
        outputs.resize(arena.len(), [0.0; DATA_VECTOR_DIM]);
        let mut forward_calls = 0usize;
        for stage in buckets.iter().take(stages) {
            for (kind_index, ids) in stage.iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let kind = OperatorKind::ALL[kind_index];
                gather_unit_inputs(
                    input,
                    ids,
                    arena,
                    features,
                    node_dim,
                    &masks[&kind],
                    outputs,
                );
                let out = units[&kind].predict_batch_into(input, nn);
                forward_calls += 1;
                for (r, &id) in ids.iter().enumerate() {
                    outputs[id].copy_from_slice(out.row(r));
                }
            }
        }

        let preds = roots.iter().map(|&r| floor_ms(outputs[r][0])).collect();
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

// QPPNet's mini-batch rule: the batch size and the learning rate are
// derived from the number of training plans `n`, not set by an option.
//
// * batch = clamp(round(n / 100), 1, 16) plans: about 100 Adam steps per
//   epoch at any scale. A fixed batch starves small label sets of steps.
//   Batch 8 at lr 1e-2 gives Table VII's 64-plan fine-tuning 8 steps per
//   epoch, and its quick run at seed 2 then lost "transfer beats direct at
//   iteration 1" on TPCH (1.875 against 1.761).
// * lr = 2e-3 * sqrt(batch). A batch gradient averages `batch` per-plan
//   gradients, so its noise falls by sqrt(batch) and the step can grow as
//   much; at batch 1 it is the per-plan rate. Batch 16 at lr 2e-3 raised
//   quick Table IV's mean QPPNet/QCFE(qpp) q-error at seed 42 from 1.39
//   to 2.18.
// * The cap binds from 1,550 plans on (full-mode 2000 labels). There a cap
//   of 8 instead of 16 raised QCFE(qpp)'s TPCH p95 q-error, averaged over
//   seeds 1, 2 and 42, from 1.44 to 1.50.
const QPP_STEPS_PER_EPOCH: f64 = 100.0;
const QPP_MAX_BATCH: usize = 16;
const QPP_BASE_LR: f64 = 2e-3;

/// `(plans per mini-batch, Adam learning rate)` for `n` training plans.
fn qpp_batch_rule(n: usize) -> (usize, f64) {
    let batch = ((n as f64 / QPP_STEPS_PER_EPOCH).round() as usize).clamp(1, QPP_MAX_BATCH);
    (batch, QPP_BASE_LR * (batch as f64).sqrt())
}

/// Every training plan flattened once per [`QppNetEstimator::train`] call,
/// by the flattener inference uses, each under its own environment's
/// snapshot.
struct TrainArena {
    nodes: Vec<FlatNode>,
    features: Vec<f64>,
    /// Each plan's arena ids (post-order, so children precede parents).
    plans: Vec<std::ops::Range<usize>>,
}

impl TrainArena {
    fn flatten(
        est: &QppNetEstimator,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
    ) -> Self {
        let mut arena = TrainArena {
            nodes: Vec::new(),
            features: Vec::new(),
            plans: Vec::with_capacity(workload.queries.len()),
        };
        let mut snapshot_blocks = std::array::from_fn(|_| Vec::new());
        let mut blocks_filled = [false; OperatorKind::ALL.len()];
        let mut blocks_env = None;
        for q in &workload.queries {
            // The cached snapshot blocks belong to one environment.
            if blocks_env != Some(q.env_index) {
                blocks_filled = [false; OperatorKind::ALL.len()];
                blocks_env = Some(q.env_index);
            }
            let first = arena.nodes.len();
            flatten_plan_into(
                &est.encoder,
                est.node_dim,
                &q.executed.root,
                0,
                snapshot_for(snapshots, q.env_index),
                &mut arena.nodes,
                &mut arena.features,
                &mut snapshot_blocks,
                &mut blocks_filled,
            );
            arena.plans.push(first..arena.nodes.len());
        }
        arena
    }
}

/// Per-batch buffers of QPPNet training, reused across the batches of one
/// [`QppNetEstimator::train`] call. `outputs` and `grads` are indexed by
/// arena id; a batch writes only its own nodes.
struct TrainBuffers {
    buckets: Vec<[Vec<usize>; OperatorKind::ALL.len()]>,
    outputs: Vec<[f64; DATA_VECTOR_DIM]>,
    /// `dL/d(data vector)` per node: its own loss gradient plus, once its
    /// parent's backward has run, the parent-slot gradient.
    grads: Vec<[f64; DATA_VECTOR_DIM]>,
    /// A pool of training workspaces, one per non-empty bucket of a batch
    /// in forward order; the pool grows to the most buckets a batch has
    /// had and is reused by every later batch.
    caches: Vec<MlpCache>,
}

impl TrainBuffers {
    fn new(nodes: usize) -> Self {
        TrainBuffers {
            buckets: Vec::new(),
            outputs: vec![[0.0; DATA_VECTOR_DIM]; nodes],
            grads: vec![[0.0; DATA_VECTOR_DIM]; nodes],
            caches: Vec::new(),
        }
    }
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
        floor_ms(
            walk(self, root, 0, snapshot)
                .first()
                .copied()
                .unwrap_or(0.0),
        )
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

    /// Train on a labeled workload for the given number of iterations
    /// (epochs over all plans), in operator-grouped mini-batches.
    ///
    /// Every plan is flattened once, then each epoch shuffles the plan
    /// order and cuts it into mini-batches (size and learning rate from
    /// [`qpp_batch_rule`]). A batch runs forward one matrix pass per
    /// non-empty `(stage, OperatorKind)` bucket, leaves first, and backward
    /// one pass per bucket, roots first, then takes one Adam step on the
    /// units it touched. `final_loss` is the mean per-plan loss of the last
    /// epoch.
    pub fn train<R: Rng + ?Sized>(
        &mut self,
        workload: &LabeledWorkload,
        snapshots: Option<&EnvSnapshots>,
        iterations: usize,
        rng: &mut R,
    ) -> TrainStats {
        let start = Instant::now();
        let arena = TrainArena::flatten(self, workload, snapshots);
        let (batch_size, learning_rate) = qpp_batch_rule(workload.queries.len());
        let optimizer = Optimizer::adam(learning_rate);
        let mut buffers = TrainBuffers::new(arena.nodes.len());
        let mut final_loss = f64::INFINITY;
        let mut order: Vec<usize> = (0..workload.queries.len()).collect();
        for _ in 0..iterations {
            use rand::seq::SliceRandom;
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            for batch in order.chunks(batch_size) {
                epoch_loss += self.train_batch(&arena, batch, &optimizer, &mut buffers);
            }
            final_loss = epoch_loss / workload.queries.len().max(1) as f64;
        }
        TrainStats {
            train_time_s: start.elapsed().as_secs_f64(),
            iterations,
            final_loss,
        }
    }

    /// One optimizer step on a mini-batch of plans (arena plan indices):
    /// accumulate the batch gradients, then step only the units that
    /// received one. Returns the batch's summed per-plan loss.
    fn train_batch(
        &mut self,
        arena: &TrainArena,
        batch: &[usize],
        optimizer: &Optimizer,
        buffers: &mut TrainBuffers,
    ) -> f64 {
        let (loss, touched) = self.accumulate_batch_gradients(arena, batch, buffers);
        for (kind, touched) in OperatorKind::ALL.iter().zip(touched) {
            if touched {
                self.units
                    .get_mut(kind)
                    .expect("one unit per operator kind")
                    .step(optimizer);
            }
        }
        loss
    }

    /// Forward and backward one mini-batch, accumulating in the units the
    /// gradients of the batch loss: the mean over the batch's plans of the
    /// plan loss, which is the sum of its nodes' log-space squared errors
    /// over its node count. Returns the plan losses' *sum* and which units
    /// received a gradient.
    fn accumulate_batch_gradients(
        &mut self,
        arena: &TrainArena,
        batch: &[usize],
        buffers: &mut TrainBuffers,
    ) -> (f64, [bool; OperatorKind::ALL.len()]) {
        let TrainBuffers {
            buckets,
            outputs,
            grads,
            caches,
        } = buffers;
        let stages = bucket_by_stage(
            &arena.nodes,
            batch.iter().flat_map(|&p| arena.plans[p].clone()),
            buckets,
        );

        // Forward, leaves first: one cached pass per bucket, its unit
        // inputs gathered straight into its own workspace.
        let mut used = 0;
        for stage in buckets.iter().take(stages) {
            for (kind_index, ids) in stage.iter().enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let kind = OperatorKind::ALL[kind_index];
                if used == caches.len() {
                    caches.push(MlpCache::default());
                }
                let cache = &mut caches[used];
                used += 1;
                gather_unit_inputs(
                    cache.input_mut(),
                    ids,
                    &arena.nodes,
                    &arena.features,
                    self.node_dim,
                    &self.masks[&kind],
                    outputs,
                );
                let out = self.units[&kind].forward_cached(cache);
                for (r, &id) in ids.iter().enumerate() {
                    outputs[id].copy_from_slice(out.row(r));
                }
            }
        }

        // Every node's latency loss (log-space squared error over its
        // plan's node count) seeds its data-vector gradient.
        let plan_weight = 1.0 / batch.len() as f64;
        let mut loss = 0.0;
        for &p in batch {
            let ids = arena.plans[p].clone();
            let node_count = ids.len() as f64;
            for id in ids {
                let pred = outputs[id][0].max(0.0);
                let diff = (1.0 + pred).ln() - (1.0 + arena.nodes[id].actual_ms.max(0.0)).ln();
                loss += diff * diff / node_count;
                grads[id] = [0.0; DATA_VECTOR_DIM];
                grads[id][0] = 2.0 * diff / (1.0 + pred) / node_count * plan_weight;
            }
        }

        // Backward, roots first: a node's parent sits at a higher stage, so
        // its parent-slot gradient has arrived before its own bucket runs.
        let mut touched = [false; OperatorKind::ALL.len()];
        for (stage_index, stage) in buckets[..stages].iter().enumerate().rev() {
            for (kind_index, ids) in stage.iter().enumerate().rev() {
                if ids.is_empty() {
                    continue;
                }
                let kind = OperatorKind::ALL[kind_index];
                touched[kind_index] = true;
                used -= 1;
                let cache = &mut caches[used];
                let grad_output = cache.output_and_grad_mut().1;
                for (r, &id) in ids.iter().enumerate() {
                    grad_output.row_mut(r).copy_from_slice(&grads[id]);
                }
                // Only the child slots of the unit input feed the scatter
                // below, and a leaf (stage 0) has no children at all.
                let mask_len = self.masks[&kind].len();
                let child_cols = (stage_index > 0)
                    .then_some(mask_len..mask_len + MAX_CHILDREN * DATA_VECTOR_DIM);
                self.units
                    .get_mut(&kind)
                    .expect("one unit per operator kind")
                    .backward_cached(cache, child_cols);
                if stage_index == 0 {
                    continue;
                }
                let grad_input = cache.grad_input();
                for (r, &id) in ids.iter().enumerate() {
                    let row = grad_input.row(r);
                    for (slot, &cid) in arena.nodes[id].children.iter().enumerate() {
                        if cid == usize::MAX {
                            continue;
                        }
                        let start = slot * DATA_VECTOR_DIM;
                        for (g, &d) in grads[cid]
                            .iter_mut()
                            .zip(&row[start..start + DATA_VECTOR_DIM])
                        {
                            *g += d;
                        }
                    }
                }
            }
        }
        (loss, touched)
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
    use crate::collect::{collect_workload, LabeledQuery};
    use qcfe_db::env::{DbEnvironment, HardwareProfile};
    use qcfe_db::executor::ExecutedQuery;
    use qcfe_db::expr::ColumnRef;
    use qcfe_db::expr::JoinCondition;
    use qcfe_db::plan::PhysicalOp;
    use qcfe_nn::DenseLayer;
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

    /// A labeled plan node with distinct estimates and label.
    fn labeled(op: PhysicalOp, children: Vec<PlanNode>, rows: f64, ms: f64) -> PlanNode {
        let mut node = PlanNode::new(op, children);
        node.est_rows = rows;
        node.est_cost = rows * 1.7 + 3.0;
        node.est_width = 40.0 + rows % 13.0;
        node.actual_total_ms = ms;
        node
    }

    fn scan(table: &str, rows: f64, ms: f64) -> PlanNode {
        let op = PhysicalOp::SeqScan {
            table: table.into(),
        };
        labeled(op, Vec::new(), rows, ms)
    }

    /// Four hand-built plans: a lone scan; a two-child join over a sort;
    /// an aggregate with three children (the third is past
    /// [`MAX_CHILDREN`]); and a chain over the four kinds the first three
    /// never use.
    fn gradient_check_setup() -> (QppNetEstimator, LabeledWorkload) {
        let bench = BenchmarkKind::Sysbench.build(0.0005, 3);
        let table = bench.catalog.table_names()[0].to_string();
        let encoder = FeatureEncoder::new(&bench.catalog, false);
        let index_scan = |rows, ms| {
            let op = PhysicalOp::IndexScan {
                table: table.clone(),
                column: "id".into(),
            };
            labeled(op, Vec::new(), rows, ms)
        };
        let lone = scan(&table, 120.0, 0.8);
        let sort = labeled(
            PhysicalOp::Sort { keys: Vec::new() },
            vec![scan(&table, 300.0, 2.1)],
            300.0,
            3.5,
        );
        let join = labeled(
            PhysicalOp::NestedLoop { condition: None },
            vec![sort, index_scan(5.0, 0.2)],
            60.0,
            6.0,
        );
        let aggregate = labeled(
            PhysicalOp::Aggregate {
                group_by: Vec::new(),
                functions: Vec::new(),
            },
            vec![
                scan(&table, 50.0, 0.4),
                index_scan(9.0, 0.3),
                scan(&table, 70.0, 0.6),
            ],
            3.0,
            1.9,
        );
        let merge = labeled(
            PhysicalOp::MergeJoin {
                condition: JoinCondition::new(
                    ColumnRef::new(&table, "id"),
                    ColumnRef::new(&table, "k"),
                ),
            },
            vec![scan(&table, 10.0, 0.1), scan(&table, 20.0, 0.2)],
            15.0,
            0.5,
        );
        let hash = labeled(
            PhysicalOp::HashJoin {
                condition: JoinCondition::new(
                    ColumnRef::new(&table, "id"),
                    ColumnRef::new(&table, "k"),
                ),
            },
            vec![scan(&table, 30.0, 0.3), merge],
            25.0,
            1.1,
        );
        let materialize = labeled(PhysicalOp::Materialize, vec![hash], 25.0, 1.3);
        let limit = labeled(PhysicalOp::Limit { count: 5 }, vec![materialize], 5.0, 1.4);

        let workload = LabeledWorkload {
            benchmark: "gradient-check".into(),
            environments: Vec::new(),
            queries: [lone, join, aggregate, limit]
                .into_iter()
                .map(|root| LabeledQuery {
                    env_index: 0,
                    executed: ExecutedQuery {
                        total_ms: root.actual_total_ms,
                        root,
                    },
                })
                .collect(),
        };

        // Smooth tanh units (ReLU kinks break central differences); two
        // kinds, one of them a parent, see a reduced mask so the gather and
        // the child-slot offsets run off the identity path.
        let node_dim = encoder.node_dim();
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut masks = HashMap::new();
        let mut units = HashMap::new();
        for kind in OperatorKind::ALL {
            let mask: Vec<usize> = match kind {
                OperatorKind::SeqScan | OperatorKind::NestedLoop => {
                    (0..node_dim).step_by(2).collect()
                }
                _ => (0..node_dim).collect(),
            };
            let unit = Mlp::with_output_activation(
                &[
                    mask.len() + MAX_CHILDREN * DATA_VECTOR_DIM,
                    6,
                    DATA_VECTOR_DIM,
                ],
                Activation::Tanh,
                Activation::Softplus,
                &mut rng,
            );
            masks.insert(kind, mask);
            units.insert(kind, unit);
        }
        let qpp = QppNetEstimator::from_parts(encoder, masks, units).expect("consistent parts");
        (qpp, workload)
    }

    const CHECKED_BATCH: [usize; 3] = [0, 1, 2];
    const BATCH_KINDS: [OperatorKind; 5] = [
        OperatorKind::SeqScan,
        OperatorKind::IndexScan,
        OperatorKind::Sort,
        OperatorKind::Aggregate,
        OperatorKind::NestedLoop,
    ];

    #[test]
    fn qppnet_batch_gradients_match_finite_differences() {
        let (mut qpp, w) = gradient_check_setup();
        let arena = TrainArena::flatten(&qpp, &w, None);
        let mut buffers = TrainBuffers::new(arena.nodes.len());
        let (_, touched) = qpp.accumulate_batch_gradients(&arena, &CHECKED_BATCH, &mut buffers);
        for (kind, touched) in OperatorKind::ALL.iter().zip(touched) {
            assert_eq!(touched, BATCH_KINDS.contains(kind), "{kind:?}");
        }

        let batch_loss = |est: &mut QppNetEstimator| {
            let mut buffers = TrainBuffers::new(arena.nodes.len());
            let (sum, _) = est.accumulate_batch_gradients(&arena, &CHECKED_BATCH, &mut buffers);
            sum / CHECKED_BATCH.len() as f64
        };
        let eps = 1e-6;
        let mut probe = qpp.clone();
        let mut checked = 0;
        for kind in BATCH_KINDS {
            let unit = &qpp.units[&kind];
            // Central difference of the batch loss in one parameter, set
            // through `perturb` on a copy of the unit's layers.
            let mut numeric = |perturb: &dyn Fn(&mut [DenseLayer], f64)| {
                let mut at = |delta: f64| {
                    let mut layers = unit.layers().to_vec();
                    perturb(&mut layers, delta);
                    probe.units.insert(kind, Mlp::from_layers(layers));
                    batch_loss(&mut probe)
                };
                let d = (at(eps) - at(-eps)) / (2.0 * eps);
                probe.units.insert(kind, unit.clone());
                d
            };
            for (l, layer) in unit.layers().iter().enumerate() {
                for (i, &analytic) in layer.grad_weights().as_slice().iter().enumerate() {
                    let n = numeric(&|layers, d| layers[l].weights_mut().as_mut_slice()[i] += d);
                    assert!(
                        (analytic - n).abs() < 1e-6,
                        "{kind:?} layer {l} weight {i}: analytic {analytic} vs numeric {n}"
                    );
                    checked += 1;
                }
                for (i, &analytic) in layer.grad_biases().iter().enumerate() {
                    let n = numeric(&|layers, d| layers[l].biases_mut()[i] += d);
                    assert!(
                        (analytic - n).abs() < 1e-6,
                        "{kind:?} layer {l} bias {i}: analytic {analytic} vs numeric {n}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000, "checked only {checked} parameters");
        // Untouched units received nothing.
        for kind in OperatorKind::ALL
            .iter()
            .filter(|k| !BATCH_KINDS.contains(k))
        {
            for layer in qpp.units[kind].layers() {
                assert!(layer.grad_weights().as_slice().iter().all(|&g| g == 0.0));
                assert!(layer.grad_biases().iter().all(|&g| g == 0.0));
            }
        }
    }

    #[test]
    fn qppnet_training_step_leaves_untouched_units_alone() {
        let (mut qpp, w) = gradient_check_setup();
        let arena = TrainArena::flatten(&qpp, &w, None);
        let mut buffers = TrainBuffers::new(arena.nodes.len());
        let optimizer = Optimizer::adam(1e-2);
        // A first step on the fourth plan gives its four kinds Adam state.
        qpp.train_batch(&arena, &[3], &optimizer, &mut buffers);
        let snapshot = |q: &QppNetEstimator| -> Vec<String> {
            OperatorKind::ALL
                .iter()
                .map(|k| format!("{:?}", q.units[k]))
                .collect()
        };
        let before = snapshot(&qpp);
        qpp.train_batch(&arena, &CHECKED_BATCH, &optimizer, &mut buffers);
        let after = snapshot(&qpp);
        for (i, kind) in OperatorKind::ALL.iter().enumerate() {
            if BATCH_KINDS.contains(kind) {
                assert_ne!(before[i], after[i], "{kind:?} was trained");
            } else {
                // Weights, gradients and Adam moments and step count alike.
                assert_eq!(before[i], after[i], "{kind:?} was not in the batch");
            }
        }
    }

    /// One snapshot per environment, fitted from its own executions.
    fn env_snapshots(w: &LabeledWorkload) -> EnvSnapshots {
        (0..w.environments.len())
            .map(|env| {
                let executions: Vec<ExecutedQuery> = w
                    .for_environment(env)
                    .into_iter()
                    .map(|q| q.executed.clone())
                    .collect();
                Some(FeatureSnapshot::fit_from_executions(&executions))
            })
            .collect()
    }

    #[test]
    fn training_arena_encodes_each_plan_under_its_own_snapshot() {
        let (w, _, encoder_fs) = workload();
        let snapshots = env_snapshots(&w);
        let coefficients = |env: usize| {
            let snapshot = snapshots[env].as_ref().expect("fitted");
            OperatorKind::ALL.map(|k| snapshot.coefficients(k))
        };
        assert_ne!(
            coefficients(0),
            coefficients(1),
            "the environments must differ"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let qpp = QppNetEstimator::new(encoder_fs.clone(), None, &mut rng);
        let arena = TrainArena::flatten(&qpp, &w, Some(&snapshots));
        fn post_order<'a>(node: &'a PlanNode, depth: usize, out: &mut Vec<(&'a PlanNode, usize)>) {
            for child in &node.children {
                post_order(child, depth + 1, out);
            }
            out.push((node, depth));
        }
        let dim = qpp.node_dim();
        for (q, ids) in w.queries.iter().zip(&arena.plans) {
            let mut nodes = Vec::new();
            post_order(&q.executed.root, 0, &mut nodes);
            assert_eq!(nodes.len(), ids.len());
            let snapshot = snapshot_for(Some(&snapshots), q.env_index);
            for ((node, depth), id) in nodes.into_iter().zip(ids.clone()) {
                let expected = encoder_fs.encode_node(node, depth, snapshot);
                assert_eq!(&arena.features[id * dim..(id + 1) * dim], &expected[..]);
                assert_eq!(
                    arena.nodes[id].actual_ms.to_bits(),
                    node.actual_total_ms.to_bits()
                );
            }
        }
    }

    #[test]
    fn qppnet_training_is_deterministic_per_seed() {
        let (w, _, encoder_fs) = workload();
        let snapshots = env_snapshots(&w);
        let train = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut qpp = QppNetEstimator::new(encoder_fs.clone(), None, &mut rng);
            qpp.train(&w, Some(&snapshots), 3, &mut rng);
            qpp.to_weight_bytes()
        };
        assert_eq!(train(21), train(21));
        assert_ne!(train(21), train(22));
    }

    #[test]
    fn a_nan_prediction_is_not_floored() {
        let (w, encoder, _) = workload();
        let dim = encoder.plan_dim();
        let nan_layer = |rows: usize, cols: usize, activation| {
            let weights = Matrix::from_vec(rows, cols, vec![f64::NAN; rows * cols]);
            DenseLayer::with_parameters(weights, vec![0.0; cols], activation)
        };
        let mlp = Mlp::from_layers(vec![
            nan_layer(dim, 4, Activation::Tanh),
            nan_layer(4, 1, Activation::Identity),
        ]);
        let mscn =
            MscnEstimator::from_parts(encoder, (0..dim).collect(), mlp).expect("valid parts");
        let plans: Vec<&PlanNode> = w.queries.iter().map(|q| &q.executed.root).collect();
        assert!(mscn.predict(plans[0], None).is_nan());
        assert!(mscn.predict_batch(&plans, None).iter().all(|p| p.is_nan()));
        let rows: Vec<Vec<f64>> = plans
            .iter()
            .map(|p| crate::CostModel::encode_plan(&mscn, p, None).expect("flat encoding"))
            .collect();
        assert!(crate::CostModel::predict_encoded(&mscn, &rows)
            .iter()
            .all(|p| p.is_nan()));
        assert!(mscn.evaluate(&w, None).mean_q_error.is_nan());
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
