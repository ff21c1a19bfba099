//! Estimator-level payloads of the versioned `QCFW` weight codec.
//!
//! `qcfe_nn::codec` owns the `QCFW` framing (magic, version, length,
//! CRC-32) and the raw [`Mlp`] record; this module composes full trained
//! estimators on top of it, so a serving node can persist everything it
//! needs to answer without retraining:
//!
//! * **MSCN** ([`PAYLOAD_MSCN`]): the [`FeatureEncoder`] (tables, columns,
//!   snapshot flag), the plan-level feature mask from feature reduction,
//!   and the trained network;
//! * **QPPNet** ([`PAYLOAD_QPPNET`]): the encoder plus, per operator kind,
//!   its feature mask and neural unit.
//!
//! # Payload layouts (all little-endian, inside a `QCFW` frame)
//!
//! Encoder record (shared prefix of all payloads):
//!
//! ```text
//! u8  include_snapshot (0 or 1)
//! u32 table count;   per table:  u32 byte length + UTF-8 bytes
//! u32 column count;  per column: table string + column string
//! ```
//!
//! MSCN payload: encoder record, `u32` mask length + that many `u32`
//! feature indices, one Mlp record.
//!
//! QPPNet payload: encoder record, `u32` unit count, then per unit one
//! `u8` operator index ([`OperatorKind::index`]), a mask (as above over the
//! *node* encoding) and one Mlp record. Units are written in
//! [`OperatorKind::ALL`] order, so encoding is deterministic.
//!
//! Every decode path is validated structurally ([`MscnEstimator::from_parts`]
//! / [`QppNetEstimator::from_parts`]), so a corrupted-but-checksum-colliding
//! buffer still cannot produce an estimator that panics at inference time.
//! Coefficients round-trip bit-exactly: a reloaded estimator produces
//! *identical* estimates.

use crate::cost_model::CostModel;
use crate::encoding::FeatureEncoder;
use crate::estimators::{MscnEstimator, QppNetEstimator};
use qcfe_db::plan::OperatorKind;
use qcfe_nn::codec::{frame, read_mlp, unframe, write_mlp, Reader, WeightsCodecError};
use qcfe_nn::Mlp;
use std::collections::HashMap;
use std::sync::Arc;

/// `QCFW` payload kind of a persisted [`MscnEstimator`].
pub const PAYLOAD_MSCN: u8 = 1;

/// `QCFW` payload kind of a persisted [`QppNetEstimator`].
pub const PAYLOAD_QPPNET: u8 = 2;

/// Errors produced when decoding persisted estimator weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCodecError {
    /// Framing or Mlp-record failure from the underlying `QCFW` codec.
    Weights(WeightsCodecError),
    /// An operator index outside [`OperatorKind::ALL`].
    UnknownOperator(u8),
    /// The frame decodes but holds a different payload kind than asked for.
    UnexpectedPayload(u8),
    /// The content decoded but violates a structural invariant.
    Malformed(String),
}

impl std::fmt::Display for ModelCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCodecError::Weights(e) => write!(f, "{e}"),
            ModelCodecError::UnknownOperator(i) => {
                write!(f, "unknown operator index {i} in QCFW model payload")
            }
            ModelCodecError::UnexpectedPayload(k) => {
                write!(f, "unexpected QCFW payload kind {k} for this estimator")
            }
            ModelCodecError::Malformed(what) => write!(f, "malformed QCFW model payload: {what}"),
        }
    }
}

impl std::error::Error for ModelCodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelCodecError::Weights(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WeightsCodecError> for ModelCodecError {
    fn from(e: WeightsCodecError) -> Self {
        ModelCodecError::Weights(e)
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut Reader<'_>) -> Result<String, ModelCodecError> {
    let len = r.u32()? as usize;
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ModelCodecError::Malformed("invalid UTF-8 in encoder string".into()))
}

fn write_encoder(encoder: &FeatureEncoder, out: &mut Vec<u8>) {
    out.push(encoder.includes_snapshot() as u8);
    out.extend_from_slice(&(encoder.tables().len() as u32).to_le_bytes());
    for table in encoder.tables() {
        put_str(out, table);
    }
    out.extend_from_slice(&(encoder.columns().len() as u32).to_le_bytes());
    for (table, column) in encoder.columns() {
        put_str(out, table);
        put_str(out, column);
    }
}

fn read_encoder(r: &mut Reader<'_>) -> Result<FeatureEncoder, ModelCodecError> {
    let include_snapshot = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(ModelCodecError::Malformed(format!(
                "snapshot flag must be 0 or 1, got {other}"
            )))
        }
    };
    let table_count = r.u32()? as usize;
    let mut tables = Vec::with_capacity(table_count.min(1024));
    for _ in 0..table_count {
        tables.push(read_str(r)?);
    }
    let column_count = r.u32()? as usize;
    let mut columns = Vec::with_capacity(column_count.min(4096));
    for _ in 0..column_count {
        let table = read_str(r)?;
        let column = read_str(r)?;
        columns.push((table, column));
    }
    Ok(FeatureEncoder::from_parts(
        tables,
        columns,
        include_snapshot,
    ))
}

fn write_mask(mask: &[usize], out: &mut Vec<u8>) {
    out.extend_from_slice(&(mask.len() as u32).to_le_bytes());
    for &index in mask {
        out.extend_from_slice(&(index as u32).to_le_bytes());
    }
}

fn read_mask(r: &mut Reader<'_>) -> Result<Vec<usize>, ModelCodecError> {
    let len = r.u32()? as usize;
    // Bound the declared count by what the buffer can still hold before
    // allocating (4 bytes per index).
    if len > r.remaining() / 4 {
        return Err(WeightsCodecError::Truncated.into());
    }
    let mut mask = Vec::with_capacity(len);
    for _ in 0..len {
        mask.push(r.u32()? as usize);
    }
    Ok(mask)
}

impl MscnEstimator {
    /// Serialise the trained estimator — encoder, feature mask and network
    /// — into a framed `QCFW` buffer ([`PAYLOAD_MSCN`]).
    pub fn to_weight_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        write_encoder(self.encoder(), &mut payload);
        write_mask(self.mask(), &mut payload);
        write_mlp(self.model(), &mut payload);
        frame(PAYLOAD_MSCN, &payload)
    }

    /// Parse a framed `QCFW` buffer written by
    /// [`MscnEstimator::to_weight_bytes`]. The reloaded estimator predicts
    /// bit-identically to the one that was saved.
    pub fn from_weight_bytes(bytes: &[u8]) -> Result<Self, ModelCodecError> {
        let (kind, payload) = unframe(bytes)?;
        if kind != PAYLOAD_MSCN {
            return Err(ModelCodecError::UnexpectedPayload(kind));
        }
        decode_mscn_payload(payload)
    }
}

/// Decode an already-unframed [`PAYLOAD_MSCN`] payload.
fn decode_mscn_payload(payload: &[u8]) -> Result<MscnEstimator, ModelCodecError> {
    let mut r = Reader::new(payload);
    let encoder = read_encoder(&mut r)?;
    let mask = read_mask(&mut r)?;
    let mlp = read_mlp(&mut r)?;
    r.finish().map_err(ModelCodecError::Weights)?;
    MscnEstimator::from_parts(encoder, mask, mlp)
}

impl QppNetEstimator {
    /// Serialise the trained estimator — encoder plus every operator's
    /// mask and neural unit — into a framed `QCFW` buffer
    /// ([`PAYLOAD_QPPNET`]). Units are written in [`OperatorKind::ALL`]
    /// order, so the encoding is deterministic.
    pub fn to_weight_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        write_encoder(self.encoder(), &mut payload);
        payload.extend_from_slice(&(OperatorKind::ALL.len() as u32).to_le_bytes());
        for kind in OperatorKind::ALL {
            payload.push(kind.index() as u8);
            write_mask(&self.masks()[&kind], &mut payload);
            write_mlp(&self.units()[&kind], &mut payload);
        }
        frame(PAYLOAD_QPPNET, &payload)
    }

    /// Parse a framed `QCFW` buffer written by
    /// [`QppNetEstimator::to_weight_bytes`]. The reloaded estimator
    /// predicts bit-identically to the one that was saved.
    pub fn from_weight_bytes(bytes: &[u8]) -> Result<Self, ModelCodecError> {
        let (kind, payload) = unframe(bytes)?;
        if kind != PAYLOAD_QPPNET {
            return Err(ModelCodecError::UnexpectedPayload(kind));
        }
        decode_qppnet_payload(payload)
    }
}

/// Decode an already-unframed [`PAYLOAD_QPPNET`] payload.
fn decode_qppnet_payload(payload: &[u8]) -> Result<QppNetEstimator, ModelCodecError> {
    let mut r = Reader::new(payload);
    let encoder = read_encoder(&mut r)?;
    let unit_count = r.u32()? as usize;
    // Duplicates are rejected below, so any declared count beyond the
    // operator alphabet is guaranteed-malformed — bail before the count
    // can size an allocation.
    if unit_count > OperatorKind::ALL.len() {
        return Err(ModelCodecError::Malformed(format!(
            "{unit_count} neural units declared, but only {} operator kinds exist",
            OperatorKind::ALL.len()
        )));
    }
    let mut masks: HashMap<OperatorKind, Vec<usize>> = HashMap::with_capacity(unit_count);
    let mut units: HashMap<OperatorKind, Mlp> = HashMap::with_capacity(unit_count);
    for _ in 0..unit_count {
        let index = r.u8()?;
        let kind = *OperatorKind::ALL
            .get(index as usize)
            .ok_or(ModelCodecError::UnknownOperator(index))?;
        let mask = read_mask(&mut r)?;
        let unit = read_mlp(&mut r)?;
        if masks.insert(kind, mask).is_some() {
            return Err(ModelCodecError::Malformed(format!(
                "duplicate neural unit for {kind:?}"
            )));
        }
        units.insert(kind, unit);
    }
    r.finish().map_err(ModelCodecError::Weights)?;
    QppNetEstimator::from_parts(encoder, masks, units)
}

/// A decoded model-weight file: whichever trained estimator the `QCFW`
/// payload held. This is what the serving store hands back on load — ready
/// to be registered behind `Arc<dyn CostModel>` without retraining.
#[derive(Debug, Clone)]
pub enum PersistedModel {
    /// An MSCN-style flat estimator (plain or QCFE variant).
    Mscn(MscnEstimator),
    /// A QPPNet-style plan-structured estimator (plain or QCFE variant).
    QppNet(QppNetEstimator),
}

impl PersistedModel {
    /// The `QCFW` payload kind this model serialises as.
    pub fn payload_kind(&self) -> u8 {
        match self {
            PersistedModel::Mscn(_) => PAYLOAD_MSCN,
            PersistedModel::QppNet(_) => PAYLOAD_QPPNET,
        }
    }

    /// Display name of the contained estimator family.
    pub fn name(&self) -> &'static str {
        match self {
            PersistedModel::Mscn(_) => "MSCN",
            PersistedModel::QppNet(_) => "QPPNet",
        }
    }

    /// Serialise into a framed `QCFW` buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PersistedModel::Mscn(m) => m.to_weight_bytes(),
            PersistedModel::QppNet(q) => q.to_weight_bytes(),
        }
    }

    /// Parse any estimator-bearing `QCFW` buffer, dispatching on the
    /// frame's payload kind. The frame is validated (including its CRC)
    /// exactly once.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelCodecError> {
        let (kind, payload) = unframe(bytes)?;
        match kind {
            PAYLOAD_MSCN => Ok(PersistedModel::Mscn(decode_mscn_payload(payload)?)),
            PAYLOAD_QPPNET => Ok(PersistedModel::QppNet(decode_qppnet_payload(payload)?)),
            other => Err(ModelCodecError::Weights(WeightsCodecError::UnknownPayload(
                other,
            ))),
        }
    }

    /// Hand the model to the serving layer as a shared [`CostModel`].
    pub fn into_cost_model(self) -> Arc<dyn CostModel> {
        match self {
            PersistedModel::Mscn(m) => Arc::new(m),
            PersistedModel::QppNet(q) => Arc::new(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::collect_workload;
    use crate::estimators::EnvSnapshots;
    use crate::snapshot::FeatureSnapshot;
    use qcfe_db::env::{DbEnvironment, HardwareProfile};
    use qcfe_db::plan::PlanNode;
    use qcfe_workloads::BenchmarkKind;
    use rand::SeedableRng;

    fn fixture() -> (
        crate::collect::LabeledWorkload,
        EnvSnapshots,
        FeatureEncoder,
    ) {
        let bench = BenchmarkKind::Sysbench.build(0.0005, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let envs = DbEnvironment::sample_knob_configs(2, HardwareProfile::h1(), &mut rng);
        let workload = collect_workload(&bench, &envs, 25, 9);
        let snapshots: EnvSnapshots = (0..envs.len())
            .map(|env_index| {
                let executions: Vec<_> = workload
                    .for_environment(env_index)
                    .iter()
                    .map(|q| q.executed.clone())
                    .collect();
                Some(FeatureSnapshot::fit_from_executions(&executions))
            })
            .collect();
        let encoder = FeatureEncoder::new(&bench.catalog, true);
        (workload, snapshots, encoder)
    }

    #[test]
    fn mscn_weights_roundtrip_bit_exactly() {
        let (workload, snapshots, encoder) = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (mscn, _) =
            MscnEstimator::train(encoder, &workload, Some(&snapshots), None, 6, &mut rng);
        let bytes = mscn.to_weight_bytes();
        let back = MscnEstimator::from_weight_bytes(&bytes).expect("decodes");
        assert_eq!(back.encoder(), mscn.encoder());
        assert_eq!(back.mask(), mscn.mask());
        let snapshot = snapshots[0].as_ref();
        for q in &workload.queries {
            let a = mscn.predict(&q.executed.root, snapshot);
            let b = back.predict(&q.executed.root, snapshot);
            assert_eq!(a.to_bits(), b.to_bits(), "reloaded MSCN must be bit-exact");
        }
    }

    #[test]
    fn qppnet_weights_roundtrip_bit_exactly() {
        let (workload, snapshots, encoder) = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut qpp = QppNetEstimator::new(encoder, None, &mut rng);
        qpp.train(&workload, Some(&snapshots), 1, &mut rng);
        let bytes = qpp.to_weight_bytes();
        let back = QppNetEstimator::from_weight_bytes(&bytes).expect("decodes");
        assert_eq!(back.encoder(), qpp.encoder());
        assert_eq!(back.masks(), qpp.masks());
        let snapshot = snapshots[1].as_ref();
        let plans: Vec<&PlanNode> = workload.queries.iter().map(|q| &q.executed.root).collect();
        let a = qpp.predict_batch(&plans, snapshot);
        let b = back.predict_batch(&plans, snapshot);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "reloaded QPPNet must be bit-exact"
            );
        }
    }

    #[test]
    fn persisted_model_dispatches_on_payload_kind() {
        let (workload, snapshots, encoder) = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let (mscn, _) = MscnEstimator::train(
            encoder.clone(),
            &workload,
            Some(&snapshots),
            None,
            3,
            &mut rng,
        );
        let qpp = QppNetEstimator::new(encoder, None, &mut rng);

        let mscn_bytes = PersistedModel::Mscn(mscn).to_bytes();
        let qpp_bytes = PersistedModel::QppNet(qpp).to_bytes();
        assert!(matches!(
            PersistedModel::from_bytes(&mscn_bytes).expect("mscn decodes"),
            PersistedModel::Mscn(_)
        ));
        assert!(matches!(
            PersistedModel::from_bytes(&qpp_bytes).expect("qpp decodes"),
            PersistedModel::QppNet(_)
        ));
        // Asking a specific estimator to decode the other family fails
        // typed.
        assert_eq!(
            MscnEstimator::from_weight_bytes(&qpp_bytes).unwrap_err(),
            ModelCodecError::UnexpectedPayload(PAYLOAD_QPPNET)
        );
        assert_eq!(
            QppNetEstimator::from_weight_bytes(&mscn_bytes).unwrap_err(),
            ModelCodecError::UnexpectedPayload(PAYLOAD_MSCN)
        );
        // Kinds 3–5 (int8 payloads of older writers) are undefined: even
        // behind a valid checksum they fail typed by kind.
        let (_, payload) = unframe(&mscn_bytes).expect("valid frame");
        for kind in 3..=5 {
            assert_eq!(
                PersistedModel::from_bytes(&frame(kind, payload)).unwrap_err(),
                ModelCodecError::Weights(WeightsCodecError::UnknownPayload(kind))
            );
        }
        // The cost-model adapter serves predictions without retraining.
        let model = PersistedModel::from_bytes(&mscn_bytes)
            .expect("decodes")
            .into_cost_model();
        let pred = model.predict_plan(&workload.queries[0].executed.root, None);
        assert!(pred.is_finite() && pred > 0.0);
    }

    #[test]
    fn estimator_payload_corruption_is_rejected_with_typed_errors() {
        let (workload, snapshots, encoder) = fixture();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let (mscn, _) =
            MscnEstimator::train(encoder, &workload, Some(&snapshots), None, 3, &mut rng);
        let bytes = mscn.to_weight_bytes();

        // Framing-level corruption surfaces the underlying QCFW error.
        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() / 2);
        assert_eq!(
            MscnEstimator::from_weight_bytes(&truncated).unwrap_err(),
            ModelCodecError::Weights(WeightsCodecError::Truncated)
        );
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        assert_eq!(
            PersistedModel::from_bytes(&flipped).unwrap_err(),
            ModelCodecError::Weights(WeightsCodecError::BadMagic)
        );
        let mid = bytes.len() / 2;
        let mut corrupt = bytes.clone();
        corrupt[mid] ^= 0x01;
        assert!(matches!(
            PersistedModel::from_bytes(&corrupt).unwrap_err(),
            ModelCodecError::Weights(WeightsCodecError::Checksum { .. })
        ));

        // Structural corruption behind a *valid* checksum (re-framed) is
        // still rejected: an out-of-range mask index cannot reach
        // inference.
        let (_, payload) = unframe(&bytes).expect("valid frame");
        let mut r = Reader::new(payload);
        let encoder = read_encoder(&mut r).expect("encoder decodes");
        let mask_offset = payload.len() - r.remaining();
        let mut rigged = payload.to_vec();
        // First mask index lives right after its u32 length.
        rigged[mask_offset + 4..mask_offset + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        let reframed = frame(PAYLOAD_MSCN, &rigged);
        match MscnEstimator::from_weight_bytes(&reframed).unwrap_err() {
            ModelCodecError::Malformed(msg) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        let _ = encoder;
    }

    #[test]
    fn qppnet_huge_unit_count_is_rejected_before_allocating() {
        use qcfe_db::catalog::{Catalog, TableBuilder};
        use qcfe_db::types::DataType;
        let mut catalog = Catalog::new();
        catalog.add_table(
            TableBuilder::new("t")
                .column("x", DataType::Int)
                .primary_key("x"),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let qpp = QppNetEstimator::new(FeatureEncoder::new(&catalog, true), None, &mut rng);
        let bytes = qpp.to_weight_bytes();
        let (_, payload) = unframe(&bytes).expect("valid frame");
        // Locate the unit-count field (right after the encoder record) and
        // rig it to u32::MAX behind a fresh, *valid* checksum.
        let mut r = Reader::new(payload);
        let _ = read_encoder(&mut r).expect("encoder decodes");
        let offset = payload.len() - r.remaining();
        let mut rigged = payload.to_vec();
        rigged[offset..offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let reframed = frame(PAYLOAD_QPPNET, &rigged);
        match QppNetEstimator::from_weight_bytes(&reframed).unwrap_err() {
            ModelCodecError::Malformed(msg) => {
                assert!(msg.contains("operator kinds"), "{msg}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn encoder_record_roundtrips_through_from_parts() {
        let bench = BenchmarkKind::Tpch.build(0.001, 2);
        for include_snapshot in [false, true] {
            let encoder = FeatureEncoder::new(&bench.catalog, include_snapshot);
            let mut payload = Vec::new();
            write_encoder(&encoder, &mut payload);
            let mut r = Reader::new(&payload);
            let back = read_encoder(&mut r).expect("decodes");
            r.finish().expect("no trailing bytes");
            assert_eq!(back, encoder);
            assert_eq!(back.node_dim(), encoder.node_dim());
            assert_eq!(back.feature_names(), encoder.feature_names());
        }
    }
}
