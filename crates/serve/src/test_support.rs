//! Shared test-only fixtures for the serving crate.

use qcfe_core::encoding::FeatureEncoder;
use qcfe_core::estimators::MscnEstimator;
use qcfe_core::model_codec::PersistedModel;
use qcfe_db::catalog::{Catalog, TableBuilder};
use qcfe_db::types::DataType;
use qcfe_nn::{Activation, Mlp};
use rand::SeedableRng;
use std::path::PathBuf;

/// A per-process directory under the system temp dir, emptied when created
/// and removed when dropped — also while a failed assertion unwinds.
pub(crate) struct TempDir(PathBuf);

impl TempDir {
    /// `<temp dir>/<name>-<pid>`.
    pub(crate) fn new(name: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    pub(crate) fn path(&self) -> PathBuf {
        self.0.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deterministic, training-free MSCN estimator assembled from parts
/// (tiny single-table catalog, seeded random weights) — real persistable
/// weights without paying for training.
pub(crate) fn tiny_mscn(seed: u64) -> PersistedModel {
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableBuilder::new("t")
            .column("x", DataType::Int)
            .primary_key("x"),
    );
    let encoder = FeatureEncoder::new(&catalog, false);
    let dim = encoder.plan_dim();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mlp = Mlp::new(&[dim, 6, 1], Activation::Relu, &mut rng);
    PersistedModel::Mscn(
        MscnEstimator::from_parts(encoder, (0..dim).collect(), mlp).expect("consistent parts"),
    )
}
