//! Online snapshot refinement: the label buffer and policy knobs behind
//! [`crate::QcfeGateway::record_execution`].
//!
//! The paper's transfer workflow (Table VII) is a loop: a cold environment
//! warm-starts from the nearest neighbour's feature snapshot, then keeps
//! collecting its *own* labeled operator executions and refits from them
//! until the snapshot is as good as a locally trained one. This module
//! holds the serving-side state of that loop — a bounded per-shard
//! [`LabelBuffer`] of observed [`OperatorSample`]s, the
//! [`RefinementConfig`] that decides when enough labels have accumulated to
//! refit, and the [`FeedbackOutcome`] each feedback call reports back. The
//! refit itself (fit, persist, live snapshot swap, `Transferred →
//! TrainedHere` promotion) lives in the gateway.

use qcfe_core::snapshot::OperatorSample;
use std::collections::VecDeque;

/// Policy knobs of the gateway's online refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementConfig {
    /// Observed operator samples that must accumulate (since the last refit
    /// attempt) before a refit is triggered. Minimum 1.
    pub refit_threshold: usize,
    /// Most recent samples the per-shard [`LabelBuffer`] retains (older
    /// labels fall off the front). Refits always fit over the whole
    /// retained window. Minimum [`RefinementConfig::refit_threshold`].
    pub buffer_capacity: usize,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            refit_threshold: 256,
            buffer_capacity: 4096,
        }
    }
}

impl RefinementConfig {
    /// The configuration with its invariants applied (threshold ≥ 1,
    /// capacity ≥ threshold).
    pub(crate) fn normalized(self) -> Self {
        let refit_threshold = self.refit_threshold.max(1);
        RefinementConfig {
            refit_threshold,
            buffer_capacity: self.buffer_capacity.max(refit_threshold),
        }
    }
}

/// A bounded sliding window of observed operator labels for one shard.
///
/// Feedback pushes samples at the back; once the window exceeds its
/// capacity the oldest labels fall off the front, so a long-running shard
/// refits from its *recent* behaviour. The buffer also counts samples
/// accumulated since the last refit attempt — the trigger the gateway's
/// [`RefinementConfig::refit_threshold`] compares against.
#[derive(Debug)]
pub struct LabelBuffer {
    samples: VecDeque<OperatorSample>,
    capacity: usize,
    since_refit: usize,
    total: u64,
}

impl LabelBuffer {
    /// An empty buffer retaining at most `capacity` samples (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LabelBuffer {
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            since_refit: 0,
            total: 0,
        }
    }

    /// Append observed samples, dropping the oldest beyond capacity.
    pub fn push(&mut self, samples: &[OperatorSample]) {
        self.samples.extend(samples.iter().copied());
        while self.samples.len() > self.capacity {
            self.samples.pop_front();
        }
        self.since_refit += samples.len();
        self.total += samples.len() as u64;
    }

    /// Samples accumulated since the last [`LabelBuffer::take_window`].
    pub fn since_refit(&self) -> usize {
        self.since_refit
    }

    /// Samples ever pushed (monotonic, unaffected by the window bound).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retained window as a fitting set, resetting the since-refit
    /// counter (the samples stay in the window — refinement is a sliding
    /// fit, not a drain).
    pub fn take_window(&mut self) -> Vec<OperatorSample> {
        self.since_refit = 0;
        self.samples.iter().copied().collect()
    }
}

/// What one [`crate::QcfeGateway::record_execution`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackOutcome {
    /// Operator samples extracted from the executed query.
    pub samples: usize,
    /// Resident shards of the `(benchmark, fingerprint)` that received the
    /// samples. Zero means the labels had no owner (no shard running) and
    /// were dropped — feed labels to environments you are serving.
    pub shards: usize,
    /// Refits this call performed (fitted, persisted and swapped live).
    pub refits: usize,
    /// `Transferred → TrainedHere` promotions this call performed.
    pub promotions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcfe_db::plan::OperatorKind;

    fn sample(n1: f64) -> OperatorSample {
        OperatorSample {
            kind: OperatorKind::SeqScan,
            n1,
            n2: 0.0,
            self_ms: 0.001 * n1,
        }
    }

    #[test]
    fn buffer_bounds_retention_and_counts_pushes() {
        let mut buffer = LabelBuffer::new(3);
        assert!(buffer.is_empty());
        buffer.push(&[sample(1.0), sample(2.0)]);
        buffer.push(&[sample(3.0), sample(4.0)]);
        assert_eq!(buffer.len(), 3, "oldest sample fell off");
        assert_eq!(
            buffer.since_refit(),
            4,
            "trigger counts pushes, not retention"
        );
        assert_eq!(buffer.total(), 4);
        let window = buffer.take_window();
        assert_eq!(
            window.iter().map(|s| s.n1).collect::<Vec<_>>(),
            vec![2.0, 3.0, 4.0],
            "window keeps the most recent samples in order"
        );
        assert_eq!(
            buffer.since_refit(),
            0,
            "taking the window resets the trigger"
        );
        assert_eq!(buffer.len(), 3, "the window is not drained");
        buffer.push(&[sample(5.0)]);
        assert_eq!(buffer.since_refit(), 1);
        assert_eq!(buffer.total(), 5);
    }

    #[test]
    fn config_normalization_applies_floors() {
        let cfg = RefinementConfig {
            refit_threshold: 0,
            buffer_capacity: 0,
        }
        .normalized();
        assert_eq!(cfg.refit_threshold, 1);
        assert_eq!(cfg.buffer_capacity, 1);
        let cfg = RefinementConfig {
            refit_threshold: 100,
            buffer_capacity: 10,
        }
        .normalized();
        assert_eq!(cfg.buffer_capacity, 100, "window always covers a trigger");
    }
}
