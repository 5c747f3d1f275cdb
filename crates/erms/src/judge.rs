//! The Data Judge Module.
//!
//! "The Data Judge Module obtains system metrics from HDFS clusters and
//! uses CEP to distinguish current data types in real-time." Audit-log
//! text goes in; per-file classifications come out. The module keeps
//! three continuous queries over the sliding window `t_w`:
//!
//! * accesses per file (`N_d`, from namenode `open` records),
//! * accesses per block (`N_b`, from datanode client-trace records),
//! * accesses per datanode (Formula (4)'s left-hand side), with a
//!   nested count per file inside each node's group (`top_by: "src"`)
//!   so an overloaded node can name "the data D that contributes the
//!   largest access" to it.
//!
//! Classification implements Formulas (1)–(6) verbatim in
//! [`DataJudge::classify`]; thresholds come from
//! [`crate::thresholds::Thresholds`]. Each [`Judgment`] also carries the
//! demand a hot file's replicas must sustain, `max(N_d, N_b,max)`, which
//! sizes its boost: one replica holds one block, so the busiest block
//! sets the factor, not the per-block average `N_d`.

use crate::config::ConfigError;
use crate::thresholds::Thresholds;
use cep::audit::{AUDIT_EVENT, BLOCK_EVENT};
use cep::{CepEngine, QuerySpec};
use simcore::telemetry::TelemetrySink;
use simcore::{SimDuration, SimTime};

/// The four data classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClass {
    Hot,
    Cooled,
    Normal,
    Cold,
}

/// Which formula produced a verdict.
///
/// The numeric codes of the former `rule: u8` (0–6) are preserved
/// through [`code`](Self::code) so anything that serialized the old byte
/// keeps its wire encoding.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JudgeRule {
    /// No formula fired (code 0).
    Normal,
    /// Formula (1): per-replica file pressure `N_d / r > τ_M` (code 1).
    FilePressure,
    /// Formula (2): a single block bursting past `M_M` (code 2).
    BlockBurst,
    /// Formula (3): warm-block fraction above ε (code 3).
    WarmFraction,
    /// Formula (4): promoted as an overloaded datanode's top file
    /// (code 4).
    NodeOverload,
    /// Formula (5): boosted file whose demand fell away (code 5).
    Cooled,
    /// Formula (6): quiet past the cold age (code 6).
    ColdAge,
}

impl JudgeRule {
    /// The stable numeric code (the pre-enum `rule: u8` values 0–6).
    pub fn code(self) -> u8 {
        match self {
            JudgeRule::Normal => 0,
            JudgeRule::FilePressure => 1,
            JudgeRule::BlockBurst => 2,
            JudgeRule::WarmFraction => 3,
            JudgeRule::NodeOverload => 4,
            JudgeRule::Cooled => 5,
            JudgeRule::ColdAge => 6,
        }
    }
}

/// What the judge needs to know about a file to classify it: a view
/// borrowed from the namespace's own record for the length of one
/// `classify` call, so judging a file copies neither its path nor its
/// block list.
#[derive(Debug, Clone, Copy)]
pub struct FileSnapshot<'a> {
    /// Dense namespace id — the sort key that keeps the judge pass in
    /// namespace-walk order.
    pub id: hdfs_sim::FileId,
    /// The CEP group key of the file's `open` records.
    pub path: &'a str,
    /// Current replication factor `r` of the file's data blocks.
    pub replication: usize,
    /// Data block ids; rendered to their client-trace names (`blk_N`)
    /// only at query time.
    pub blocks: &'a [hdfs_sim::BlockId],
    pub last_access: SimTime,
    /// Whether ERMS has boosted this file above the default factor.
    pub boosted: bool,
    /// Whether the file is already erasure-encoded.
    pub encoded: bool,
}

/// A classification result (of the file the caller passed in).
#[derive(Debug, Clone, Copy)]
pub struct Judgment {
    pub class: DataClass,
    /// Windowed access count `N_d`.
    pub n_d: f64,
    /// Largest windowed per-block count `N_b` seen while classifying
    /// (0 when Formula (1) short-circuited before the block scan).
    pub n_b_max: f64,
    /// The accesses a hot file's replicas must sustain,
    /// `max(N_d, N_b,max)`: one replica holds one block, so the busiest
    /// block the scan saw, not the per-block average, sizes the factor
    /// (see [`optimal_replication`](crate::optimal_replication)).
    pub demand: f64,
    /// Which formula produced the verdict.
    pub rule: JudgeRule,
}

/// CEP-backed data-type judge.
pub struct DataJudge {
    engine: CepEngine,
    q_file: cep::QueryId,
    q_block: cep::QueryId,
    /// Reads per datanode, each node's reads also counted per file.
    q_node: cep::QueryId,
    thresholds: Thresholds,
    parse_errors: usize,
    /// Interning audit-line parser, persistent so field keys and the
    /// recurring path/node strings are shared across the whole stream.
    parser: cep::audit::LineParser,
    /// Scratch for rendering `BlockId`s to their client-trace names in
    /// [`classify`](Self::classify); excluded from checkpoints.
    blk_key: String,
}

impl DataJudge {
    /// Build a judge, panicking on invalid thresholds. Thin wrapper
    /// over [`try_new`](Self::try_new) for tests and callers holding
    /// already-validated thresholds; the manager goes through the
    /// fallible path.
    pub fn new(thresholds: Thresholds) -> Self {
        Self::try_new(thresholds).expect("valid thresholds")
    }

    /// Build a judge, returning the typed [`ConfigError`] when the
    /// thresholds are inconsistent instead of panicking.
    pub fn try_new(thresholds: Thresholds) -> Result<Self, ConfigError> {
        thresholds.validate()?;
        let w = thresholds.window;
        let mut engine = CepEngine::new();
        let q_file = engine.register(count_query(AUDIT_EVENT, "src", w));
        let q_block = engine.register(count_query(BLOCK_EVENT, "blk", w));
        let q_node = engine.register(QuerySpec {
            top_by: Some("src".into()),
            ..count_query(BLOCK_EVENT, "dn", w)
        });
        Ok(DataJudge {
            engine,
            q_file,
            q_block,
            q_node,
            thresholds,
            parse_errors: 0,
            parser: {
                let mut p = cep::audit::LineParser::new();
                // Projection pushdown: the queries above read exactly
                // these audit fields; skip materializing the rest.
                p.project(&["blk", "dn", "src"]);
                p
            },
            blk_key: String::new(),
        })
    }

    /// Install a telemetry sink on the underlying CEP engine so every
    /// fired window row is traced.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.engine.set_telemetry(sink);
    }

    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }
    pub fn parse_errors(&self) -> usize {
        self.parse_errors
    }
    pub fn events_seen(&self) -> u64 {
        self.engine.events_seen()
    }

    /// Feed raw audit-log lines (the paper's log-parser → CEP pipeline).
    ///
    /// One scratch event is refilled per line (`LineParser::parse_into`
    /// keeps the field vector's allocation), so the drain allocates
    /// nothing per line at steady state.
    pub fn observe_lines<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) {
        let mut event = cep::Event::new_interned(SimTime::ZERO, std::sync::Arc::from(""), 8);
        for line in lines {
            match self.parser.parse_into(line, &mut event) {
                Ok(()) => self.engine.push(&event),
                Err(_) => self.parse_errors += 1,
            }
        }
    }

    /// Classify one file per Formulas (1)–(3), (5), (6).
    ///
    /// The CEP engine is queried lazily and in a fixed order — file
    /// count first, then each block in order, stopping at the first
    /// formula that fires — because each query emits `WindowEmit`
    /// telemetry and the query order is part of the byte-identical
    /// trace contract.
    pub fn classify(&mut self, now: SimTime, file: &FileSnapshot<'_>) -> Judgment {
        use std::fmt::Write as _;
        let t = &self.thresholds;
        let r = file.replication.max(1) as f64;
        // N_d is the file's windowed access count. MapReduce inflates the
        // raw open count by the file's block count (every map task opens
        // the file to read its split), so normalise per block: the result
        // counts *whole-file accesses* (jobs/clients) in the window, which
        // is the concurrency Formula (1) compares against per-replica
        // session capacity.
        let raw_opens = self.engine.value_for(self.q_file, now, file.path);
        let n_d = raw_opens / file.blocks.len().max(1) as f64;

        // Formula (1): per-replica file pressure
        if n_d / r > t.tau_hot {
            return judgment(DataClass::Hot, n_d, 0.0, JudgeRule::FilePressure);
        }
        // Formulas (2) and (3): per-block pressure
        let n_blocks = file.blocks.len();
        let mut n_b_max = 0.0f64;
        if n_blocks > 0 {
            let mut warm_blocks = 0usize;
            for &b in file.blocks {
                self.blk_key.clear();
                write!(self.blk_key, "{b}").expect("writing to a String cannot fail");
                let n_b = self.engine.value_for(self.q_block, now, &self.blk_key);
                n_b_max = n_b_max.max(n_b);
                if n_b / r > t.block_burst {
                    return judgment(DataClass::Hot, n_d, n_b_max, JudgeRule::BlockBurst);
                }
                if n_b / r > t.block_warm {
                    warm_blocks += 1;
                }
            }
            if warm_blocks as f64 / n_blocks as f64 > t.epsilon {
                return judgment(DataClass::Hot, n_d, n_b_max, JudgeRule::WarmFraction);
            }
        }
        // Formula (5): boosted file whose demand fell away
        if file.boosted && n_d / r < t.tau_cooled {
            return judgment(DataClass::Cooled, n_d, n_b_max, JudgeRule::Cooled);
        }
        // Formula (6): quiet and old → cold
        if !file.encoded && n_d / r < t.tau_cold && now.since(file.last_access) > t.cold_age {
            return judgment(DataClass::Cold, n_d, n_b_max, JudgeRule::ColdAge);
        }
        judgment(DataClass::Normal, n_d, n_b_max, JudgeRule::Normal)
    }

    /// Formula (4): datanodes whose windowed session count exceeds τ_DN,
    /// with the file contributing the most accesses on each ("ERMS could
    /// choose the data D that contributes the largest access to DN").
    ///
    /// `q_node` counts each node's reads per file inside the node's
    /// group, so a node's top file (largest count, ties to the smaller
    /// path) is one look at that group. The result comes out in `q_node`
    /// row order (sorted by node name).
    pub fn overloaded_nodes(&mut self, now: SimTime) -> Vec<(String, String, f64)> {
        let tau = self.thresholds.tau_datanode;
        let nodes = self.engine.rows(self.q_node, now);
        nodes
            .into_iter()
            .filter(|row| row.value > tau)
            .filter_map(|row| {
                let (file, _) = self.engine.top_of(self.q_node, now, &row.key)?;
                Some((row.key.to_string(), file.to_string(), row.value))
            })
            .collect()
    }
}

impl checkpoint::Checkpointable for DataJudge {
    // Thresholds and the query registrations are constructor config: a
    // restored judge is built by `DataJudge::new` first (which
    // re-registers the three queries in the same deterministic order,
    // yielding identical ids), then hydrated.
    // Only the CEP engine's runtime state and the parse-error counter
    // are dynamic.
    checkpoint::ck_fields!(engine: state, parse_errors);
}

fn count_query(event_type: &str, field: &str, window: SimDuration) -> QuerySpec {
    QuerySpec::count_per_group(event_type, field, window)
}

fn judgment(class: DataClass, n_d: f64, n_b_max: f64, rule: JudgeRule) -> Judgment {
    Judgment {
        class,
        n_d,
        n_b_max,
        demand: n_d.max(n_b_max),
        rule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cep::audit::{format_audit_line, format_block_line};
    use hdfs_sim::{BlockId, NodeId};

    fn snapshot<'a>(path: &'a str, r: usize, blocks: &'a [BlockId]) -> FileSnapshot<'a> {
        FileSnapshot {
            id: hdfs_sim::FileId(0),
            path,
            replication: r,
            blocks,
            last_access: SimTime::ZERO,
            boosted: false,
            encoded: false,
        }
    }

    fn open_line(t: u64, path: &str) -> String {
        format_audit_line(SimTime::from_secs(t), "u", "/10.0.0.1", "open", path, None)
    }

    fn block_line(t: u64, blk: u64, dn: u32, path: &str) -> String {
        format_block_line(
            SimTime::from_secs(t),
            &BlockId(blk).to_string(),
            &NodeId(dn).to_string(),
            path,
            64 << 20,
        )
    }

    fn judge() -> DataJudge {
        DataJudge::new(Thresholds::calibrate(4.0)) // τ_M=4, M_M=6, M_m=3, τ_d=2, τ_m=0.5
    }

    #[test]
    fn rule_codes_are_wire_stable() {
        // the pre-enum u8 values, byte for byte
        assert_eq!(JudgeRule::Normal.code(), 0);
        assert_eq!(JudgeRule::FilePressure.code(), 1);
        assert_eq!(JudgeRule::BlockBurst.code(), 2);
        assert_eq!(JudgeRule::WarmFraction.code(), 3);
        assert_eq!(JudgeRule::NodeOverload.code(), 4);
        assert_eq!(JudgeRule::Cooled.code(), 5);
        assert_eq!(JudgeRule::ColdAge.code(), 6);
    }

    /// Observe `lines`, then classify `file` at t=30 s with a recording
    /// sink installed: the verdict and the `(query, group)` of every
    /// `WindowEmit` the classification caused, in emission order.
    fn classify_recording(lines: &[String], file: &FileSnapshot<'_>) -> (Judgment, Vec<String>) {
        use simcore::telemetry::Event;
        let mut j = judge();
        j.observe_lines(lines.iter().map(String::as_str));
        let sink = TelemetrySink::recording();
        j.set_telemetry(sink.clone());
        let verdict = j.classify(SimTime::from_secs(30), file);
        let queries = sink
            .drain_events()
            .into_iter()
            .map(|ev| match ev.event {
                Event::WindowEmit { query, group, .. } => format!("{query}:{group}"),
                other => panic!("classify emitted {other:?}"),
            })
            .collect();
        (verdict, queries)
    }

    #[test]
    fn classify_queries_the_file_then_its_blocks_and_stops_at_the_first_rule() {
        let blocks = [BlockId(5), BlockId(9), BlockId(2)];
        let file = snapshot("/f", 1, &blocks);
        let file_query = format!("{AUDIT_EVENT}:/f");
        let block_query = |b: BlockId| format!("{BLOCK_EVENT}:{b}");

        // Formula (1) hot: 15 opens / 3 blocks / r=1 = 5 > τ_M=4 — the
        // file query alone, no block scan
        let opens: Vec<String> = (0..15).map(|i| open_line(1 + i, "/f")).collect();
        let (v, queries) = classify_recording(&opens, &file);
        assert_eq!(v.rule, JudgeRule::FilePressure);
        assert_eq!(v.n_b_max, 0.0);
        assert_eq!(queries, [file_query.as_str()]);

        // quiet: the file, then every block in `FileMeta::blocks` order
        let (v, queries) = classify_recording(&[], &file);
        assert_eq!(v.rule, JudgeRule::Normal);
        assert_eq!(
            queries,
            [
                file_query.clone(),
                block_query(blocks[0]),
                block_query(blocks[1]),
                block_query(blocks[2]),
            ]
        );

        // Formula (2) burst on the second block (7 reads > M_M=6): the
        // third block is never asked about
        let burst: Vec<String> = (0..7).map(|i| block_line(1 + i, 9, 0, "/f")).collect();
        let (v, queries) = classify_recording(&burst, &file);
        assert_eq!(v.rule, JudgeRule::BlockBurst);
        assert_eq!(v.n_b_max, 7.0);
        assert_eq!(
            queries,
            [file_query, block_query(blocks[0]), block_query(blocks[1])]
        );
    }

    #[test]
    fn rule1_file_pressure_makes_hot() {
        let mut j = judge();
        let file = snapshot("/hot", 3, &[BlockId(1)]);
        // 13 whole-file opens / r=3 ≈ 4.3 > τ_M=4 → hot via (1)
        let lines: Vec<String> = (0..13).map(|i| open_line(10 + i, "/hot")).collect();
        j.observe_lines(lines.iter().map(String::as_str));
        let v = j.classify(SimTime::from_secs(30), &file);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::FilePressure);
        assert_eq!(v.n_d, 13.0);
    }

    #[test]
    fn rule2_block_burst_makes_hot() {
        let mut j = judge();
        let file = snapshot("/f", 1, &[BlockId(7), BlockId(8)]);
        // 2 opens (N_d/r = 2, not hot by (1)); block 7 bursts: 7 reads > M_M=6
        let mut lines = vec![open_line(1, "/f"), open_line(2, "/f")];
        for i in 0..7 {
            lines.push(block_line(3 + i, 7, 0, "/f"));
        }
        j.observe_lines(lines.iter().map(String::as_str));
        let v = j.classify(SimTime::from_secs(20), &file);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::BlockBurst);
    }

    #[test]
    fn rule3_many_warm_blocks_make_hot() {
        let mut j = judge();
        let file = snapshot("/f", 1, &[BlockId(1), BlockId(2), BlockId(3)]);
        // two of three blocks get 4 reads each (> M_m=3, ≤ M_M=6);
        // 2/3 > ε=0.3 → hot via (3)
        let mut lines = Vec::new();
        for blk in [1u64, 2] {
            for i in 0..4 {
                lines.push(block_line(1 + i, blk, 0, "/f"));
            }
        }
        j.observe_lines(lines.iter().map(String::as_str));
        let v = j.classify(SimTime::from_secs(20), &file);
        assert_eq!(v.class, DataClass::Hot);
        assert_eq!(v.rule, JudgeRule::WarmFraction);
    }

    #[test]
    fn rule5_boosted_quiet_file_cools() {
        let mut j = judge();
        let mut file = snapshot("/f", 6, &[BlockId(1)]);
        file.boosted = true;
        // 2 accesses / r=6 = 0.33 < τ_d=2 → cooled
        j.observe_lines(
            [open_line(1, "/f"), open_line(2, "/f")]
                .iter()
                .map(String::as_str),
        );
        let v = j.classify(SimTime::from_secs(10), &file);
        assert_eq!(v.class, DataClass::Cooled);
        assert_eq!(v.rule, JudgeRule::Cooled);
        // the same traffic on an unboosted file is just normal
        let plain = snapshot("/f", 6, &[BlockId(1)]);
        let v = j.classify(SimTime::from_secs(10), &plain);
        assert_eq!(v.class, DataClass::Normal);
    }

    #[test]
    fn rule6_old_quiet_file_is_cold() {
        let mut j = judge();
        let mut file = snapshot("/f", 3, &[BlockId(1)]);
        file.last_access = SimTime::from_secs(0);
        // no accesses in window, last touch 2h ago (> cold_age 1h)
        let v = j.classify(SimTime::from_secs(7200), &file);
        assert_eq!(v.class, DataClass::Cold);
        assert_eq!(v.rule, JudgeRule::ColdAge);
        // recently-touched quiet file is NOT cold
        file.last_access = SimTime::from_secs(7000);
        let v = j.classify(SimTime::from_secs(7200), &file);
        assert_eq!(v.class, DataClass::Normal);
        // already-encoded file is never re-classified cold
        file.last_access = SimTime::ZERO;
        file.encoded = true;
        let v = j.classify(SimTime::from_secs(7200), &file);
        assert_eq!(v.class, DataClass::Normal);
    }

    #[test]
    fn window_decay_returns_file_to_normal() {
        let mut j = judge();
        let file = snapshot("/f", 1, &[BlockId(1)]);
        let lines: Vec<String> = (0..10).map(|i| open_line(i, "/f")).collect();
        j.observe_lines(lines.iter().map(String::as_str));
        assert_eq!(
            j.classify(SimTime::from_secs(10), &file).class,
            DataClass::Hot
        );
        // 300s window: by t=400 the burst has expired (file still young
        // enough not to be cold)
        let v = j.classify(SimTime::from_secs(400), &file);
        assert_eq!(v.class, DataClass::Normal);
        assert_eq!(v.n_d, 0.0);
    }

    #[test]
    fn rule4_overloaded_node_names_top_file() {
        let mut j = judge();
        // τ_DN = 8; dn0 serves 6 reads of /a and 4 of /b → overloaded,
        // top contributor /a
        let mut lines = Vec::new();
        for i in 0..6 {
            lines.push(block_line(1 + i, 100 + i, 0, "/a"));
        }
        for i in 0..4 {
            lines.push(block_line(10 + i, 200 + i, 0, "/b"));
        }
        // dn1 only serves 2 reads → not overloaded
        lines.push(block_line(20, 300, 1, "/c"));
        lines.push(block_line(21, 301, 1, "/c"));
        j.observe_lines(lines.iter().map(String::as_str));
        let over = j.overloaded_nodes(SimTime::from_secs(30));
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, "dn0");
        assert_eq!(over[0].1, "/a");
        assert_eq!(over[0].2, 10.0);
    }

    /// Formula (4) recounted from the raw client-trace lines, with no
    /// CEP involved: split each line on spaces and `=`, keep the reads
    /// inside the window at `now` (the window has also seen every line,
    /// so it ends no earlier than the last one), sum each node's reads
    /// and each `(dn, src)` pair's, and name every node above τ_DN with
    /// its largest pair (ties to the smaller path), in node-name order.
    fn overloaded_nodes_recount(
        lines: &[String],
        now: SimTime,
        j: &DataJudge,
    ) -> Vec<(String, String, f64)> {
        use std::collections::BTreeMap;
        let reads: Vec<(f64, &str, &str)> = lines
            .iter()
            .filter_map(|line| {
                let mut words = line.split(' ');
                let t: f64 = words.next()?.parse().ok()?;
                if words.next()? != "datanode.clienttrace:" {
                    return None;
                }
                let field = |name: &str| {
                    line.split(' ')
                        .find_map(|w| w.split_once('=').filter(|(k, _)| *k == name))
                        .map(|(_, v)| v)
                };
                Some((t, field("dn")?, field("src")?))
            })
            .collect();
        let last = reads.iter().map(|r| r.0).fold(0.0, f64::max);
        let horizon = now.as_secs_f64().max(last);
        let window = j.thresholds().window.as_secs_f64();
        let mut load: BTreeMap<&str, f64> = BTreeMap::new();
        let mut pairs: BTreeMap<(&str, &str), f64> = BTreeMap::new();
        for &(t, dn, src) in &reads {
            if t + window >= horizon {
                *load.entry(dn).or_default() += 1.0;
                *pairs.entry((dn, src)).or_default() += 1.0;
            }
        }
        let mut out = Vec::new();
        for (dn, n) in load {
            if n <= j.thresholds().tau_datanode {
                continue;
            }
            let mut top: Option<(&str, f64)> = None;
            for (&(d, src), &count) in &pairs {
                // pairs iterate by path within a node, so `>` keeps the
                // smaller path on a tie
                if d == dn && top.is_none_or(|(_, best)| count > best) {
                    top = Some((src, count));
                }
            }
            let (src, _) = top.expect("a loaded node has a pair");
            out.push((dn.to_string(), src.to_string(), n));
        }
        out
    }

    /// `overloaded_nodes` against the raw-line recount over random
    /// windows: few files per node so counts tie, `dn1` beside `dn12`
    /// and `dn120` so a node name prefixes another, a node and a path
    /// that contain `|`, and node loads on both sides of τ_DN.
    #[test]
    fn overloaded_nodes_match_the_per_node_scan() {
        let nodes = ["dn1", "dn12", "dn120", "dn2", "dn1|7"];
        let paths = ["/a", "/a|b", "/b", "/dn1", "/z"];
        let line = |t: u64, blk: u64, dn: &str, path: &str| {
            format_block_line(
                SimTime::from_secs(t),
                &BlockId(blk).to_string(),
                dn,
                path,
                64 << 20,
            )
        };
        let mut rng = simcore::rng::DetRng::new(0xF04);
        let mut overloaded_seen = 0usize;
        for case in 0..200 {
            let mut j = judge();
            let mut times: Vec<u64> = (0..rng.gen_range(0, 120))
                .map(|_| rng.gen_range(0, 500) as u64)
                .collect();
            times.sort_unstable();
            let busy = rng.gen_range(1, nodes.len() + 1);
            let lines: Vec<String> = times
                .iter()
                .map(|&t| {
                    let dn = nodes[rng.gen_range(0, busy)];
                    let path = paths[rng.gen_range(0, paths.len())];
                    line(t, rng.gen_range(0, 9) as u64, dn, path)
                })
                .collect();
            j.observe_lines(lines.iter().map(String::as_str));
            // inside the 300 s window, and while it drains
            for now in [250, 500, 650, 790] {
                let now = SimTime::from_secs(now);
                let got = j.overloaded_nodes(now);
                assert_eq!(
                    got,
                    overloaded_nodes_recount(&lines, now, &j),
                    "case {case}"
                );
                overloaded_seen += got.len();
            }
        }
        assert!(overloaded_seen > 100, "the cases must overload nodes");

        // `|` inside a node name and a path: attribution follows the
        // fields, not a split of a `dn|src` string
        let mut j = judge();
        let mut lines = Vec::new();
        for i in 0..9 {
            lines.push(line(1 + i, i, "dn1|x", "/p|q"));
            lines.push(line(1 + i, i, "dn1", "/x|/p"));
        }
        lines.push(line(10, 0, "dn1", "/y"));
        j.observe_lines(lines.iter().map(String::as_str));
        let now = SimTime::from_secs(30);
        let got = j.overloaded_nodes(now);
        assert_eq!(got, overloaded_nodes_recount(&lines, now, &j));
        let row = |dn: &str, src: &str, n: f64| (dn.to_string(), src.to_string(), n);
        assert_eq!(got, [row("dn1", "/x|/p", 10.0), row("dn1|x", "/p|q", 9.0)]);

        // equal top counts on one node: the tie goes to the smaller key
        let mut j = judge();
        let lines: Vec<String> = (0..10)
            .map(|i| block_line(1 + i, i, 3, if i % 2 == 0 { "/y" } else { "/x" }))
            .collect();
        j.observe_lines(lines.iter().map(String::as_str));
        let got = j.overloaded_nodes(now);
        assert_eq!(got, overloaded_nodes_recount(&lines, now, &j));
        assert_eq!(got, [row("dn3", "/x", 10.0)]);

        // scale: 12 nodes × 100 files, one to three reads per pair, so
        // 1 200 live (dn, file) pairs with many tied top counts
        let mut j = judge();
        let mut lines = Vec::new();
        let mut pairs = std::collections::BTreeSet::new();
        for k in 0..3u64 {
            for f in 0..100u64 {
                for dn in 0..12u32 {
                    if k <= (f + u64::from(dn)) % 3 {
                        lines.push(block_line(1 + k, f, dn, &format!("/f{f}")));
                        pairs.insert((dn, f));
                    }
                }
            }
        }
        assert_eq!(pairs.len(), 1200);
        j.observe_lines(lines.iter().map(String::as_str));
        // the window holding every read, then losing the first second's
        for now in [30, 302] {
            let now = SimTime::from_secs(now);
            let got = j.overloaded_nodes(now);
            assert_eq!(got.len(), 12, "every node is overloaded");
            assert_eq!(got, overloaded_nodes_recount(&lines, now, &j));
        }
    }

    #[test]
    fn parse_errors_are_counted_not_fatal() {
        let mut j = judge();
        j.observe_lines(["garbage", &open_line(1, "/f")]);
        assert_eq!(j.parse_errors(), 1);
        assert!(j.events_seen() >= 1);
    }

    #[test]
    fn checkpoint_round_trip_preserves_windows() {
        use checkpoint::Checkpointable;
        let mut j = judge();
        let mut lines = vec!["garbage".to_string()];
        for i in 0..9 {
            lines.push(open_line(2 + i, "/hot"));
            lines.push(block_line(2 + i, 7, 0, "/hot"));
        }
        j.observe_lines(lines.iter().map(String::as_str));

        let json = serde_json::to_string(&j.save_state()).unwrap();
        let back = serde_json::parse_value(&json).unwrap();
        let mut fresh = judge();
        fresh.load_state(&back).unwrap();

        // identical classification and parse accounting after restore
        let file = snapshot("/hot", 1, &[BlockId(7)]);
        let now = SimTime::from_secs(20);
        let a = j.classify(now, &file);
        let b = fresh.classify(now, &file);
        assert_eq!((a.class, a.rule), (b.class, b.rule));
        assert_eq!(a.n_d.to_bits(), b.n_d.to_bits());
        assert_eq!(fresh.parse_errors(), 1);
        assert_eq!(fresh.events_seen(), j.events_seen());
    }
}
