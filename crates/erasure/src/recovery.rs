//! Erasure patterns, decode errors and recovery planning.
//!
//! Besides decoding, ERMS needs to *plan* recoveries: when a stripe
//! degrades, the Condor substrate schedules a decode task whose I/O cost
//! depends on how many surviving shards must be read. For Reed–Solomon,
//! the only code ERMS runs, any `k` survivors do.

use serde::{Deserialize, Serialize};

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Caller passed the wrong number of shard slots.
    WrongShardCount { expected: usize, actual: usize },
    /// Shards in one stripe must all have the same length.
    ShardLengthMismatch,
    /// Fewer survivors than data shards.
    TooFewShards { needed: usize, available: usize },
    /// The survivor-selection matrix failed to invert (cannot happen for
    /// the Vandermonde-derived generator; kept for defensive decoding).
    SingularDecodeMatrix,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::WrongShardCount { expected, actual } => {
                write!(f, "expected {expected} shards, got {actual}")
            }
            DecodeError::ShardLengthMismatch => write!(f, "shard lengths differ"),
            DecodeError::TooFewShards { needed, available } => {
                write!(
                    f,
                    "need {needed} shards to decode, only {available} survive"
                )
            }
            DecodeError::SingularDecodeMatrix => write!(f, "decode matrix is singular"),
        }
    }
}
impl std::error::Error for DecodeError {}

/// Which shards of a stripe are erased.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErasurePattern {
    total: usize,
    erased: Vec<bool>,
}

impl ErasurePattern {
    pub fn none(total: usize) -> Self {
        ErasurePattern {
            total,
            erased: vec![false; total],
        }
    }

    pub fn from_indices(total: usize, erased: &[usize]) -> Self {
        let mut p = ErasurePattern::none(total);
        for &i in erased {
            assert!(i < total, "erasure index out of range");
            p.erased[i] = true;
        }
        p
    }

    pub fn total(&self) -> usize {
        self.total
    }
    pub fn is_erased(&self, i: usize) -> bool {
        self.erased[i]
    }
    pub fn erase(&mut self, i: usize) {
        self.erased[i] = true;
    }
    pub fn erased_count(&self) -> usize {
        self.erased.iter().filter(|&&e| e).count()
    }
    pub fn erased_indices(&self) -> Vec<usize> {
        (0..self.total).filter(|&i| self.erased[i]).collect()
    }
    pub fn surviving_indices(&self) -> Vec<usize> {
        (0..self.total).filter(|&i| !self.erased[i]).collect()
    }

    /// Can an `RS(k, m)` stripe with this pattern still decode?
    pub fn recoverable_with(&self, k: usize) -> bool {
        self.total - self.erased_count() >= k
    }
}

/// A plan for recovering one erased shard: which survivors to read and
/// the (simulated) bytes of I/O that implies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPlan {
    /// Index of the shard being rebuilt.
    pub target: usize,
    /// Survivor shard indices that must be read.
    pub read_from: Vec<usize>,
}

impl RecoveryPlan {
    /// Bytes read from survivors to rebuild one shard of `shard_len` bytes.
    pub fn read_bytes(&self, shard_len: u64) -> u64 {
        self.read_from.len() as u64 * shard_len
    }
}

/// Reed–Solomon's (trivial) recovery plan: read any `k` survivors —
/// we pick the lowest-indexed ones, matching what the decoder does.
pub fn rs_recovery_plan(pattern: &ErasurePattern, k: usize, target: usize) -> Option<RecoveryPlan> {
    if !pattern.is_erased(target) || !pattern.recoverable_with(k) {
        return None;
    }
    let read_from: Vec<usize> = pattern.surviving_indices().into_iter().take(k).collect();
    Some(RecoveryPlan { target, read_from })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_accounting() {
        let mut p = ErasurePattern::none(6);
        assert_eq!(p.erased_count(), 0);
        p.erase(1);
        p.erase(4);
        assert!(p.is_erased(1));
        assert!(!p.is_erased(0));
        assert_eq!(p.erased_indices(), vec![1, 4]);
        assert_eq!(p.surviving_indices(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn from_indices_matches_manual() {
        let p = ErasurePattern::from_indices(5, &[0, 3]);
        assert_eq!(p.erased_indices(), vec![0, 3]);
        assert_eq!(p.total(), 5);
    }

    #[test]
    fn recoverability_threshold() {
        // RS(4,2): survive >= 4 of 6
        let p = ErasurePattern::from_indices(6, &[0, 5]);
        assert!(p.recoverable_with(4));
        let p = ErasurePattern::from_indices(6, &[0, 1, 5]);
        assert!(!p.recoverable_with(4));
    }

    #[test]
    fn rs_plan_reads_exactly_k() {
        let p = ErasurePattern::from_indices(6, &[2]);
        let plan = rs_recovery_plan(&p, 4, 2).unwrap();
        assert_eq!(plan.read_from.len(), 4);
        assert!(!plan.read_from.contains(&2));
        assert_eq!(plan.read_bytes(1024), 4096);
    }

    #[test]
    fn rs_plan_refuses_bad_targets() {
        let p = ErasurePattern::from_indices(6, &[2]);
        assert!(rs_recovery_plan(&p, 4, 3).is_none(), "target not erased");
        let p = ErasurePattern::from_indices(6, &[0, 1, 2]);
        assert!(rs_recovery_plan(&p, 4, 0).is_none(), "unrecoverable");
    }

    #[test]
    fn decode_error_display() {
        let e = DecodeError::TooFewShards {
            needed: 3,
            available: 1,
        };
        assert!(e.to_string().contains("need 3"));
    }
}
