//! ERMS configuration.

use crate::replication::IncreaseStrategy;
use crate::thresholds::Thresholds;
use erasure::StripeLayout;
use hdfs_sim::NodeId;
use simcore::SimDuration;
use std::fmt;

/// Why an [`ErmsConfig`] (or its [`Thresholds`]) was rejected.
///
/// Marked `#[non_exhaustive]`: later validation rules (the standby
/// checks arrived after the threshold ones) add variants without a
/// breaking release, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The ordering `0 < τ_m < τ_d < τ_M` does not hold.
    ThresholdOrdering {
        tau_cold: f64,
        tau_cooled: f64,
        tau_hot: f64,
    },
    /// ε must lie strictly inside `(0, 1)`.
    EpsilonOutOfRange(f64),
    /// The soft per-block bound `M_m` must be below the burst bound `M_M`.
    BlockBoundsInverted { warm: f64, burst: f64 },
    /// The CEP window `t_w` must be positive.
    ZeroWindow,
    /// The replication ceiling must be positive.
    ZeroMaxReplication,
    /// A Condor concurrency/retry knob must be positive.
    ZeroCondorKnob(&'static str),
    /// Self-healing needs a positive task timeout.
    ZeroTaskTimeout,
    /// The scrubber is enabled with a zero per-tick block budget, so it
    /// would never scan anything.
    ZeroScrubBudget,
    /// A configured standby node id does not exist in the cluster.
    UnknownStandbyNode { node: u32, datanodes: u32 },
    /// A configured standby node already holds block replicas, so
    /// designating it would silently mis-park data on a node about to
    /// power off.
    StandbyHoldsReplicas { node: u32, blocks: usize },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ThresholdOrdering {
                tau_cold,
                tau_cooled,
                tau_hot,
            } => write!(
                f,
                "need 0 < τ_m({tau_cold}) < τ_d({tau_cooled}) < τ_M({tau_hot})"
            ),
            ConfigError::EpsilonOutOfRange(e) => write!(f, "ε {e} outside (0, 1)"),
            ConfigError::BlockBoundsInverted { warm, burst } => {
                write!(f, "M_m {warm} must be below M_M {burst}")
            }
            ConfigError::ZeroWindow => write!(f, "CEP window must be positive"),
            ConfigError::ZeroMaxReplication => write!(f, "max_replication must be positive"),
            ConfigError::ZeroCondorKnob(knob) => write!(f, "{knob} must be positive"),
            ConfigError::ZeroTaskTimeout => {
                write!(f, "task_timeout must be positive when self-healing")
            }
            ConfigError::ZeroScrubBudget => {
                write!(f, "scrub_blocks_per_tick must be positive when scrubbing")
            }
            ConfigError::UnknownStandbyNode { node, datanodes } => {
                write!(
                    f,
                    "standby node dn{node} outside cluster of {datanodes} datanodes"
                )
            }
            ConfigError::StandbyHoldsReplicas { node, blocks } => write!(
                f,
                "standby node dn{node} already holds {blocks} block replica(s)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything the manager needs to know at construction.
#[derive(Debug, Clone)]
pub struct ErmsConfig {
    pub thresholds: Thresholds,
    /// Nodes designated standby (empty = all-active baseline model).
    pub standby: Vec<NodeId>,
    /// Erasure layout applied to cold files.
    pub cold_stripe: StripeLayout,
    /// Ceiling on any file's replication factor.
    pub max_replication: usize,
    /// How replica increases approach the optimum (Fig. 7; the paper
    /// concludes Direct and ERMS uses it).
    pub strategy: IncreaseStrategy,
    /// Master switch for cold-data encoding.
    pub enable_encode: bool,
    /// Condor concurrency / retry knobs.
    pub max_concurrent_tasks: usize,
    pub max_task_attempts: u32,
    /// Consecutive Cooled verdicts required before a boosted file is
    /// demoted (hysteresis: prevents boost/shed thrash when a hot file's
    /// demand briefly dips between job waves, which would re-copy every
    /// extra replica).
    pub cooled_patience: u32,
    /// Self-healing: repair under-replication, reconstruct dark encoded
    /// shards, evict crashed standby nodes and time out stuck tasks on
    /// every tick. Off by default — the figure harness flips it to show
    /// the durability delta under identical churn.
    pub enable_self_healing: bool,
    /// Fail an ERMS task whose replica copies have been in flight
    /// longer than this (stalled behind a dead endpoint or a downed
    /// rack uplink); Condor's retry/backoff then takes over.
    pub task_timeout: SimDuration,
    /// Background scrubber: checksum-verify a budgeted slice of the
    /// namespace on every tick, quarantine corrupt copies and schedule
    /// verified repair through Condor. Off by default — corruption-free
    /// runs stay byte-identical.
    pub enable_scrubber: bool,
    /// Scrub budget: blocks checksummed per tick (≥ 1 when scrubbing).
    /// The budget is shed — halved, then dropped to zero — while the
    /// scheduler is saturated, so a corruption storm can never stall
    /// the control loop behind an unbounded repair backlog.
    pub scrub_blocks_per_tick: u32,
    /// Classify every namespace file on every tick instead of only the
    /// dirty/active subset. The incremental visit set is semantically
    /// equivalent (skipped files are exactly those a full scan would
    /// judge Normal with zero windowed demand and no pending task), so
    /// this knob exists for A/B verification and benchmarking, not
    /// correctness.
    pub full_rescan: bool,
}

impl ErmsConfig {
    /// The paper's deployment shape on an 18-node cluster: 10 active,
    /// 8 standby, RS(10,4) cold code, τ_M = 8.
    pub fn paper_default() -> Self {
        ErmsConfig {
            thresholds: Thresholds::default(),
            standby: (10..18).map(NodeId).collect(),
            cold_stripe: StripeLayout::paper_default(),
            max_replication: 18,
            strategy: IncreaseStrategy::Direct,
            enable_encode: true,
            max_concurrent_tasks: 8,
            max_task_attempts: 10,
            cooled_patience: 3,
            enable_self_healing: false,
            task_timeout: SimDuration::from_mins(30),
            enable_scrubber: false,
            scrub_blocks_per_tick: 16,
            full_rescan: false,
        }
    }

    /// ERMS logic over an all-active cluster (ablation baseline).
    pub fn all_active() -> Self {
        ErmsConfig {
            standby: Vec::new(),
            ..Self::paper_default()
        }
    }

    /// Start a fluent [`ErmsConfigBuilder`] seeded from
    /// [`paper_default`](Self::paper_default).
    pub fn builder() -> ErmsConfigBuilder {
        ErmsConfigBuilder::paper_default()
    }

    pub fn validate(&self) -> Result<(), ConfigError> {
        self.thresholds.validate()?;
        if self.max_replication == 0 {
            return Err(ConfigError::ZeroMaxReplication);
        }
        if self.max_concurrent_tasks == 0 {
            return Err(ConfigError::ZeroCondorKnob("max_concurrent_tasks"));
        }
        if self.max_task_attempts == 0 {
            return Err(ConfigError::ZeroCondorKnob("max_task_attempts"));
        }
        if (self.enable_self_healing || self.enable_scrubber) && self.task_timeout.is_zero() {
            return Err(ConfigError::ZeroTaskTimeout);
        }
        if self.enable_scrubber && self.scrub_blocks_per_tick == 0 {
            return Err(ConfigError::ZeroScrubBudget);
        }
        Ok(())
    }
}

/// Fluent builder for [`ErmsConfig`].
///
/// Starts from a preset ([`paper_default`](Self::paper_default) or
/// [`all_active`](Self::all_active)), lets callers override individual
/// knobs, and validates the result once in [`build`](Self::build) —
/// call sites no longer spell out every field with a struct literal and
/// cannot skip validation.
///
/// ```
/// use erms::{ErmsConfig, Thresholds};
///
/// let cfg = ErmsConfig::builder()
///     .thresholds(Thresholds::default().with_tau_hot(12.0))
///     .max_replication(12)
///     .self_healing(true)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.max_replication, 12);
/// ```
#[derive(Debug, Clone)]
pub struct ErmsConfigBuilder {
    cfg: ErmsConfig,
}

impl ErmsConfigBuilder {
    /// Builder seeded with the paper's 18-node deployment shape.
    pub fn paper_default() -> Self {
        ErmsConfigBuilder {
            cfg: ErmsConfig::paper_default(),
        }
    }

    /// Builder seeded with the all-active ablation baseline.
    pub fn all_active() -> Self {
        ErmsConfigBuilder {
            cfg: ErmsConfig::all_active(),
        }
    }

    pub fn thresholds(mut self, t: Thresholds) -> Self {
        self.cfg.thresholds = t;
        self
    }

    pub fn standby<I: IntoIterator<Item = NodeId>>(mut self, nodes: I) -> Self {
        self.cfg.standby = nodes.into_iter().collect();
        self
    }

    pub fn cold_stripe(mut self, layout: StripeLayout) -> Self {
        self.cfg.cold_stripe = layout;
        self
    }

    pub fn max_replication(mut self, r: usize) -> Self {
        self.cfg.max_replication = r;
        self
    }

    pub fn strategy(mut self, s: IncreaseStrategy) -> Self {
        self.cfg.strategy = s;
        self
    }

    pub fn encode(mut self, on: bool) -> Self {
        self.cfg.enable_encode = on;
        self
    }

    pub fn max_concurrent_tasks(mut self, n: usize) -> Self {
        self.cfg.max_concurrent_tasks = n;
        self
    }

    pub fn max_task_attempts(mut self, n: u32) -> Self {
        self.cfg.max_task_attempts = n;
        self
    }

    pub fn cooled_patience(mut self, ticks: u32) -> Self {
        self.cfg.cooled_patience = ticks;
        self
    }

    pub fn self_healing(mut self, on: bool) -> Self {
        self.cfg.enable_self_healing = on;
        self
    }

    pub fn task_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.task_timeout = d;
        self
    }

    pub fn full_rescan(mut self, on: bool) -> Self {
        self.cfg.full_rescan = on;
        self
    }

    pub fn scrubber(mut self, on: bool) -> Self {
        self.cfg.enable_scrubber = on;
        self
    }

    pub fn scrub_blocks_per_tick(mut self, blocks: u32) -> Self {
        self.cfg.scrub_blocks_per_tick = blocks;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ErmsConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let c = ErmsConfig::paper_default();
        assert!(c.validate().is_ok());
        assert_eq!(c.standby.len(), 8);
        assert_eq!(c.cold_stripe, StripeLayout::new(10, 4));
        assert_eq!(c.strategy, IncreaseStrategy::Direct);
    }

    #[test]
    fn all_active_has_no_standby() {
        let c = ErmsConfig::all_active();
        assert!(c.standby.is_empty());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_zeroes() {
        let mut c = ErmsConfig::paper_default();
        c.max_replication = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxReplication));
        let mut c = ErmsConfig::paper_default();
        c.max_concurrent_tasks = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroCondorKnob("max_concurrent_tasks"))
        );
    }

    #[test]
    fn builder_overrides_and_validates() {
        let cfg = ErmsConfig::builder()
            .max_replication(12)
            .standby([NodeId(8), NodeId(9)])
            .self_healing(true)
            .build()
            .expect("valid");
        assert_eq!(cfg.max_replication, 12);
        assert_eq!(cfg.standby, vec![NodeId(8), NodeId(9)]);
        assert!(cfg.enable_self_healing);
    }

    #[test]
    fn scrubber_needs_a_positive_budget() {
        let cfg = ErmsConfig::builder()
            .scrubber(true)
            .scrub_blocks_per_tick(8)
            .build()
            .expect("valid");
        assert!(cfg.enable_scrubber);
        assert_eq!(cfg.scrub_blocks_per_tick, 8);

        let err = ErmsConfig::builder()
            .scrubber(true)
            .scrub_blocks_per_tick(0)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroScrubBudget);

        // budget only matters when the scrubber is on
        assert!(ErmsConfig::builder()
            .scrub_blocks_per_tick(0)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_presets_match_constructors() {
        let built = ErmsConfigBuilder::all_active().build().unwrap();
        assert!(built.standby.is_empty());
        let paper = ErmsConfig::builder().build().unwrap();
        assert_eq!(paper.standby.len(), 8);
    }

    #[test]
    fn config_error_displays_and_is_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(ConfigError::UnknownStandbyNode {
            node: 30,
            datanodes: 18,
        });
        let msg = err.to_string();
        assert!(msg.contains("dn30"), "{msg}");
        assert!(msg.contains("18"), "{msg}");
    }
}
