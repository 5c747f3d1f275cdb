//! Hidden-Markov hot/cold judge.
//!
//! Three hidden states — Cold, Warm, Hot — with fixed, hand-set
//! transition and emission matrices (no Baum–Welch re-estimation: the
//! matrices are part of the model, only the per-file posterior is
//! learner state). Each judge pass contributes one observation per
//! file: its per-replica demand pressure, bucketed on the same
//! cold/cooled/hot fences the rules use. The posterior is advanced by
//! forward filtering,
//!
//! ```text
//! b' ∝ E[:, o] ⊙ (Tᵀ b)
//! ```
//!
//! and the verdict follows the decoded (argmax) state: decoded Hot →
//! boost; a boosted file whose demand fell below the cooled bound →
//! shed; decoded Cold past the cold age → encode; otherwise Normal.
//!
//! The sticky transitions are the point of using an HMM at all: a
//! single bursty window is enough evidence to enter Hot (the Hot column
//! of the emission matrix is lopsided), but a single quiet window is
//! *not* enough to leave it — demand has to stay low for a few passes
//! before the posterior drains back through Warm, which debounces
//! boost/shed flapping that threshold rules are prone to.
//!
//! Each file's belief depends only on that file's own observation
//! stream, so the backend is trivially visit-order independent and
//! needs no RNG; determinism is plain IEEE-754 arithmetic.

use crate::features::{Discretizer, Features};
use crate::{
    CepProbe, DataClass, FileSnapshot, JudgeBackend, JudgePolicy, JudgeRule, Judgment, RewardMeters,
};
use checkpoint::codec as c;
use checkpoint::{CheckpointError, Checkpointable, Value};
use hdfs_sim::FileId;
use simcore::SimTime;
use std::collections::BTreeMap;

const NUM_HIDDEN: usize = 3;
const NUM_OBS: usize = 4;

const COLD: usize = 0;
const WARM: usize = 1;
const HOT: usize = 2;

/// Row-stochastic transition matrix `T[from][to]`. Diagonal-heavy so
/// state changes need sustained evidence.
const TRANSITION: [[f64; NUM_HIDDEN]; NUM_HIDDEN] = [
    [0.90, 0.09, 0.01], // Cold
    [0.10, 0.80, 0.10], // Warm
    [0.02, 0.18, 0.80], // Hot
];

/// Emission matrix `E[state][obs]` over the four demand buckets
/// (idle, low, medium, burst). Hot is lopsided toward burst so one
/// bursty window flips the decode; Warm owns the medium bucket so
/// moderate demand does not boost.
const EMISSION: [[f64; NUM_OBS]; NUM_HIDDEN] = [
    [0.850, 0.120, 0.025, 0.005], // Cold
    [0.250, 0.350, 0.350, 0.050], // Warm
    [0.200, 0.150, 0.150, 0.500], // Hot
];

/// Prior belief for a file never seen before (mostly cold, as fresh
/// namespaces are).
const PRIOR: [f64; NUM_HIDDEN] = [0.60, 0.30, 0.10];

/// Configuration for [`HmmJudge`] — just the shared feature fences;
/// the matrices are part of the model.
#[derive(Debug, Clone, Copy)]
pub struct HmmConfig {
    pub disc: Discretizer,
}

impl HmmConfig {
    pub fn new(disc: Discretizer) -> HmmConfig {
        HmmConfig { disc }
    }
}

/// Forward-filtering hot/cold classifier. See the module docs.
pub struct HmmJudge {
    cfg: HmmConfig,
    /// Per-file posterior over {Cold, Warm, Hot}.
    beliefs: BTreeMap<FileId, [f64; NUM_HIDDEN]>,
}

impl HmmJudge {
    pub fn new(cfg: HmmConfig) -> HmmJudge {
        HmmJudge {
            cfg,
            beliefs: BTreeMap::new(),
        }
    }

    /// Demand observation: per-replica pressure bucketed on the rules'
    /// cold/cooled/hot fences (`1.0` = the hot boundary).
    fn observation(&self, pressure: f64) -> usize {
        let d = &self.cfg.disc;
        let cold = d.tau_cold / d.tau_hot;
        let cooled = d.tau_cooled / d.tau_hot;
        if pressure < cold {
            0
        } else if pressure < cooled {
            1
        } else if pressure <= 1.0 {
            2
        } else {
            3
        }
    }

    /// One forward-filter step: predict through `T`, reweigh by the
    /// observation likelihood, renormalise.
    fn advance(belief: &[f64; NUM_HIDDEN], obs: usize) -> [f64; NUM_HIDDEN] {
        let mut next = [0.0f64; NUM_HIDDEN];
        for (to, slot) in next.iter_mut().enumerate() {
            let mut pred = 0.0;
            for from in 0..NUM_HIDDEN {
                pred += TRANSITION[from][to] * belief[from];
            }
            *slot = EMISSION[to][obs] * pred;
        }
        let norm: f64 = next.iter().sum();
        if norm > 0.0 {
            for slot in &mut next {
                *slot /= norm;
            }
        } else {
            next = PRIOR;
        }
        next
    }

    fn decode(belief: &[f64; NUM_HIDDEN]) -> usize {
        let mut best = 0;
        for s in 1..NUM_HIDDEN {
            if belief[s] > belief[best] {
                best = s;
            }
        }
        best
    }

    #[cfg(test)]
    fn belief(&self, file: FileId) -> Option<[f64; NUM_HIDDEN]> {
        self.beliefs.get(&file).copied()
    }
}

impl JudgePolicy for HmmJudge {
    fn backend(&self) -> JudgeBackend {
        JudgeBackend::Hmm
    }

    fn classify(
        &mut self,
        now: SimTime,
        file: &FileSnapshot<'_>,
        fresh: bool,
        probe: &mut dyn CepProbe,
    ) -> Judgment {
        let d = &self.cfg.disc;
        let feats = Features::observe(probe, now, file, fresh, d.tau_hot, d.block_burst);
        // A fresh-spike pattern counts as at least medium demand even
        // before the window fills — the create→open correlation is the
        // paper's early-boost signal.
        let obs = self
            .observation(feats.pressure)
            .max(if feats.fresh { 2 } else { 0 });

        let prev = self.beliefs.get(&file.id).copied().unwrap_or(PRIOR);
        let belief = Self::advance(&prev, obs);
        self.beliefs.insert(file.id, belief);

        let r = file.replication.max(1) as f64;
        let per_replica = feats.n_d / r;
        let decoded = Self::decode(&belief);
        let class = if decoded == HOT {
            DataClass::Hot
        } else if file.boosted && per_replica < d.tau_cooled {
            DataClass::Cooled
        } else if decoded == COLD
            && !file.encoded
            && per_replica < d.tau_cold
            && feats.age_secs > d.cold_age_secs
        {
            DataClass::Cold
        } else {
            DataClass::Normal
        };

        Judgment {
            class,
            n_d: feats.n_d,
            n_b_max: feats.n_b_max,
            rule: JudgeRule::Learned(JudgeBackend::Hmm),
        }
    }

    fn begin_pass(&mut self, _now: SimTime, _meters: &RewardMeters) {}

    fn forget_file(&mut self, file: FileId) {
        self.beliefs.remove(&file);
    }
}

/// One file's belief as the wire names it.
struct Belief {
    file: FileId,
    cold: f64,
    warm: f64,
    hot: f64,
}
checkpoint::ck_record!(Belief {
    file,
    cold,
    warm,
    hot
});

impl Checkpointable for HmmJudge {
    fn save_state(&self) -> Value {
        let beliefs: Vec<Belief> = (self.beliefs.iter())
            .map(|(&file, b)| Belief {
                file,
                cold: b[COLD],
                warm: b[WARM],
                hot: b[HOT],
            })
            .collect();
        c::MapBuilder::new().put("beliefs", &beliefs).build()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
        self.beliefs = c::get::<Vec<Belief>>(state, "beliefs")?
            .into_iter()
            .map(|b| (b.file, [b.cold, b.warm, b.hot]))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdfs_sim::BlockId;
    use simcore::SimDuration;

    struct FakeProbe {
        opens: f64,
        per_block: f64,
    }

    impl CepProbe for FakeProbe {
        fn file_accesses(&mut self, _now: SimTime, _path: &str) -> f64 {
            self.opens
        }
        fn block_accesses(&mut self, _now: SimTime, _block: BlockId) -> f64 {
            self.per_block
        }
    }

    fn disc() -> Discretizer {
        Discretizer {
            tau_hot: 4.0,
            block_burst: 6.0,
            block_warm: 3.0,
            tau_cooled: 2.0,
            tau_cold: 0.5,
            window_secs: 600.0,
            cold_age_secs: 1800.0,
            default_replication: 3,
        }
    }

    fn judge() -> HmmJudge {
        HmmJudge::new(HmmConfig::new(disc()))
    }

    /// Every test file has one block; its id is irrelevant to the
    /// fake probe.
    const BLOCKS: [BlockId; 1] = [BlockId(0)];

    fn snap(id: u64, path: &str, repl: usize, last: SimTime) -> FileSnapshot<'_> {
        FileSnapshot {
            id: FileId(id),
            path,
            replication: repl,
            blocks: &BLOCKS,
            last_access: last,
            boosted: repl > 3,
            encoded: false,
        }
    }

    #[test]
    fn matrices_are_row_stochastic() {
        for row in TRANSITION {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        for row in EMISSION {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert!((PRIOR.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_single_burst_decodes_hot() {
        let mut j = judge();
        let now = SimTime::from_secs(600);
        let f = snap(1, "/burst", 3, now);
        let mut p = FakeProbe {
            opens: 100.0, // pressure 100/12 ≫ 1
            per_block: 0.0,
        };
        let v = j.classify(now, &f, false, &mut p);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::Learned(JudgeBackend::Hmm));
    }

    #[test]
    fn medium_demand_stays_normal() {
        let mut j = judge();
        let now = SimTime::from_secs(600);
        let f = snap(1, "/warm", 3, now);
        // pressure 9/12 = 0.75: above cooled, below hot
        let mut p = FakeProbe {
            opens: 9.0,
            per_block: 0.0,
        };
        let v = j.classify(now, &f, false, &mut p);
        assert_eq!(v.class, DataClass::Normal);
    }

    #[test]
    fn leaving_hot_takes_sustained_quiet() {
        let mut j = judge();
        let mut t = SimTime::from_secs(600);
        let mut p = FakeProbe {
            opens: 100.0,
            per_block: 0.0,
        };
        let f = snap(1, "/f", 3, t);
        assert_eq!(j.classify(t, &f, false, &mut p).class, DataClass::Hot);
        // demand disappears; the first quiet window must NOT drop the
        // decode out of Hot (that is the debounce)
        let mut quiet = FakeProbe {
            opens: 0.0,
            per_block: 0.0,
        };
        t += SimDuration::from_secs(60);
        let f = snap(1, "/f", 3, t);
        let first = j.classify(t, &f, false, &mut quiet).class;
        assert_eq!(first, DataClass::Hot, "one quiet window should not unboost");
        // but several quiet windows drain the posterior
        let mut last = first;
        for _ in 0..6 {
            t += SimDuration::from_secs(60);
            let f = snap(1, "/f", 3, t);
            last = j.classify(t, &f, false, &mut quiet).class;
        }
        assert_ne!(last, DataClass::Hot);
    }

    #[test]
    fn boosted_file_with_fallen_demand_sheds() {
        let mut j = judge();
        let mut t = SimTime::from_secs(600);
        let mut p = FakeProbe {
            opens: 100.0,
            per_block: 0.0,
        };
        let f = snap(1, "/f", 9, t);
        j.classify(t, &f, false, &mut p);
        let mut quiet = FakeProbe {
            opens: 0.0,
            per_block: 0.0,
        };
        let mut classes = Vec::new();
        for _ in 0..8 {
            t += SimDuration::from_secs(60);
            let f = snap(1, "/f", 9, t);
            classes.push(j.classify(t, &f, false, &mut quiet).class);
        }
        assert!(
            classes.contains(&DataClass::Cooled),
            "a boosted, quiet file must eventually judge Cooled: {classes:?}"
        );
    }

    #[test]
    fn long_idle_decodes_cold_for_encoding() {
        let mut j = judge();
        let mut t = SimTime::from_secs(600);
        let created = SimTime::from_secs(0);
        let mut quiet = FakeProbe {
            opens: 0.0,
            per_block: 0.0,
        };
        let mut last = DataClass::Normal;
        for _ in 0..10 {
            t += SimDuration::from_secs(600);
            let f = snap(1, "/idle", 3, created);
            last = j.classify(t, &f, false, &mut quiet).class;
        }
        assert_eq!(last, DataClass::Cold);
    }

    #[test]
    fn fresh_spike_counts_as_demand_evidence() {
        let mut a = judge();
        let mut b = judge();
        let now = SimTime::from_secs(600);
        let f = snap(1, "/new", 3, now);
        let mut p1 = FakeProbe {
            opens: 0.0,
            per_block: 0.0,
        };
        let mut p2 = FakeProbe {
            opens: 0.0,
            per_block: 0.0,
        };
        a.classify(now, &f, true, &mut p1);
        b.classify(now, &f, false, &mut p2);
        let ba = a.belief(FileId(1)).unwrap();
        let bb = b.belief(FileId(1)).unwrap();
        assert!(ba[HOT] > bb[HOT], "freshness must raise the hot belief");
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        let mut j = judge();
        let mut t = SimTime::from_secs(600);
        for i in 0..20u64 {
            t += SimDuration::from_secs(60);
            let path = format!("/f{}", i % 4);
            let f = snap(i % 4, &path, 3, t);
            let mut p = FakeProbe {
                opens: (i % 7) as f64 * 15.0,
                per_block: 1.0,
            };
            j.classify(t, &f, false, &mut p);
        }
        let saved = j.save_state();
        let mut fresh = judge();
        fresh.load_state(&saved).unwrap();
        assert_eq!(j.beliefs.len(), fresh.beliefs.len());
        for (file, b) in &j.beliefs {
            let fb = fresh.beliefs.get(file).unwrap();
            for s in 0..NUM_HIDDEN {
                assert_eq!(b[s].to_bits(), fb[s].to_bits(), "{file:?}[{s}]");
            }
        }
    }

    #[test]
    fn forgetting_a_file_resets_its_belief() {
        let mut j = judge();
        let now = SimTime::from_secs(600);
        let f = snap(1, "/gone", 3, now);
        let mut p = FakeProbe {
            opens: 50.0,
            per_block: 0.0,
        };
        j.classify(now, &f, false, &mut p);
        assert!(j.belief(FileId(1)).is_some());
        j.forget_file(FileId(1));
        assert!(j.belief(FileId(1)).is_none());
    }
}
