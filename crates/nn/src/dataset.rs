//! Dataset container with column projection and subsampling. Training
//! ([`crate::mlp::Mlp::train`]) shuffles an index permutation and gathers
//! each mini-batch straight into its workspace, so the dataset itself is
//! never copied or reordered.

use crate::NnError;
use rand::seq::SliceRandom;
use rand::Rng;

/// A supervised regression dataset: feature vectors with scalar targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl Dataset {
    /// Construct a dataset, validating that it is non-empty and rectangular.
    pub fn new(features: Vec<Vec<f64>>, targets: Vec<f64>) -> Result<Self, NnError> {
        if features.is_empty() {
            return Err(NnError::InvalidDataset("no samples".into()));
        }
        if features.len() != targets.len() {
            return Err(NnError::InvalidDataset(format!(
                "{} feature rows but {} targets",
                features.len(),
                targets.len()
            )));
        }
        let dim = features[0].len();
        if dim == 0 {
            return Err(NnError::InvalidDataset("zero-dimensional features".into()));
        }
        if features.iter().any(|f| f.len() != dim) {
            return Err(NnError::InvalidDataset("ragged feature rows".into()));
        }
        Ok(Dataset { features, targets })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when the dataset holds no samples (cannot happen after `new`).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features[0].len()
    }

    /// Borrow the feature rows.
    pub fn features(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Borrow the targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// Build a new dataset keeping only the listed feature columns
    /// (the core operation performed by feature reduction).
    pub fn project_columns(&self, keep: &[usize]) -> Result<Dataset, NnError> {
        if keep.is_empty() {
            return Err(NnError::InvalidDataset(
                "cannot project to zero columns".into(),
            ));
        }
        let dim = self.dim();
        if let Some(&bad) = keep.iter().find(|&&c| c >= dim) {
            return Err(NnError::InvalidDataset(format!(
                "column {bad} out of range (dim {dim})"
            )));
        }
        let features = self
            .features
            .iter()
            .map(|row| keep.iter().map(|&c| row[c]).collect())
            .collect();
        Dataset::new(features, self.targets.clone())
    }

    /// Take a random subsample of `n` rows (used for reference sets in
    /// difference propagation and for scale sweeps).
    pub fn subsample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Dataset {
        let n = n.min(self.len()).max(1);
        let mut indices: Vec<usize> = (0..self.len()).collect();
        indices.shuffle(rng);
        indices.truncate(n);
        Dataset {
            features: indices.iter().map(|&i| self.features[i].clone()).collect(),
            targets: indices.iter().map(|&i| self.targets[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::new(
            vec![
                vec![1.0, 10.0, 0.0],
                vec![2.0, 20.0, 1.0],
                vec![3.0, 30.0, 0.0],
                vec![4.0, 40.0, 1.0],
            ],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Dataset::new(vec![], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0]], vec![]).is_err());
        assert!(Dataset::new(vec![vec![1.0], vec![1.0, 2.0]], vec![0.0, 1.0]).is_err());
        assert!(Dataset::new(vec![vec![]], vec![0.0]).is_err());
        assert!(toy().len() == 4 && toy().dim() == 3);
    }

    #[test]
    fn project_columns_selects_the_right_values() {
        let d = toy();
        let p = d.project_columns(&[2, 0]).unwrap();
        assert_eq!(p.dim(), 2);
        assert_eq!(p.features()[1], vec![1.0, 2.0]);
        assert_eq!(p.targets(), d.targets());
        assert!(d.project_columns(&[]).is_err());
        assert!(d.project_columns(&[7]).is_err());
    }

    #[test]
    fn subsample_is_bounded() {
        let d = toy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        assert_eq!(d.subsample(2, &mut rng).len(), 2);
        assert_eq!(d.subsample(100, &mut rng).len(), d.len());
    }
}
