//! Hierarchical wall-clock self-profiler for the control loop's hot path.
//!
//! The simulator's correctness story is sim-time-deterministic, but its
//! *cost* story is wall-clock: how many microseconds one control tick
//! burns, and in which phase. This module answers that with RAII scoped
//! timers ([`prof_scope!`](crate::prof_scope)) kept on a thread-local
//! frame stack: entering a scope pushes a frame, dropping the guard pops
//! it and charges the elapsed wall-ns (plus an optional
//! allocation-count delta) to the node addressed by the stack of scope
//! names above it. The result is a tree — `tick` → `judge` —
//! mirroring the phase structure of the code. A scope's `wall_ns`
//! includes its own entry bookkeeping (the frame lookup, stack push and
//! allocation probe run after its clock starts), so a parent's time
//! not covered by its children is the parent's own work plus the
//! children's exit bookkeeping, not their entry.
//!
//! Determinism discipline (same rules as [`trace!`](crate::trace)):
//!
//! * **Zero cost when disabled.** [`prof_scope!`](crate::prof_scope)
//!   compiles to one branch on a thread-local flag; the scope-name
//!   expression is not evaluated and no guard is created. The profiler
//!   never touches telemetry, so enabling it cannot perturb traces,
//!   metrics or resume equivalence.
//! * **Deterministic shape, nondeterministic weights.** Snapshot
//!   ([`snapshot`]) children are sorted by name, and `calls` counts are
//!   a pure function of the run, so two same-seed runs produce
//!   identically *shaped* trees. `wall_ns` / `max_ns` / `alloc` are
//!   host-dependent and must never feed a byte-identity or
//!   resume-equivalence comparison — downstream consumers (the
//!   scorecard's regression gate) classify them as wall-clock metrics
//!   with a tolerance, never exact-match.
//!
//! ```
//! use simcore::{profiler, prof_scope};
//!
//! profiler::reset();
//! profiler::set_enabled(true);
//! {
//!     prof_scope!("tick");
//!     prof_scope!("audit"); // nested: addressed as tick/audit
//! }
//! profiler::set_enabled(false);
//! let root = profiler::snapshot();
//! assert_eq!(root.find("tick/audit").unwrap().calls, 1);
//! ```

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<ProfilerState> = RefCell::new(ProfilerState::new());
}

/// Optional allocation-count probe (e.g. a counting global allocator's
/// monotone allocation counter). When set, every scope also records the
/// probe delta between entry and exit as its `alloc` column.
#[derive(Debug)]
struct ProfilerState {
    nodes: Vec<NodeSlot>,
    stack: Vec<usize>,
    alloc_probe: Option<fn() -> u64>,
}

#[derive(Debug)]
struct NodeSlot {
    name: String,
    calls: u64,
    wall_ns: u64,
    max_ns: u64,
    alloc: u64,
    children: Vec<usize>,
}

impl ProfilerState {
    fn new() -> Self {
        ProfilerState {
            nodes: vec![NodeSlot::root()],
            stack: Vec::new(),
            alloc_probe: None,
        }
    }
}

impl NodeSlot {
    fn root() -> Self {
        NodeSlot {
            name: "root".into(),
            calls: 0,
            wall_ns: 0,
            max_ns: 0,
            alloc: 0,
            children: Vec::new(),
        }
    }
}

/// Whether [`prof_scope!`](crate::prof_scope) records anything on this
/// thread. One thread-local load — the whole disabled-path cost.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turn recording on or off for this thread. Scopes already on the
/// stack keep recording until their guards drop.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Drop all recorded frames and the live stack (guards from before the
/// reset become inert). Enabled state and the allocation probe are
/// unchanged.
pub fn reset() {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        p.nodes = vec![NodeSlot::root()];
        p.stack.clear();
    });
}

/// Install (or clear) the allocation-count probe used for the `alloc`
/// column. The probe must be monotone (e.g. total allocations since
/// process start).
pub fn set_alloc_probe(probe: Option<fn() -> u64>) {
    PROF.with(|p| p.borrow_mut().alloc_probe = probe);
}

/// Enter a named scope under the current stack top, returning the RAII
/// guard that charges the frame on drop. Prefer
/// [`prof_scope!`](crate::prof_scope), which skips this entirely (name
/// expression included) when the profiler is disabled.
pub fn enter(name: &str) -> ScopeGuard {
    // The clock starts before the frame bookkeeping below, so that
    // cost lands on this scope rather than on its parent.
    let start = Instant::now();
    PROF.with(|p| {
        let mut prof = p.borrow_mut();
        let parent = prof.stack.last().copied().unwrap_or(0);
        let node = match prof.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| prof.nodes[c].name == name)
        {
            Some(existing) => existing,
            None => {
                let idx = prof.nodes.len();
                prof.nodes.push(NodeSlot {
                    name: name.to_owned(),
                    calls: 0,
                    wall_ns: 0,
                    max_ns: 0,
                    alloc: 0,
                    children: Vec::new(),
                });
                prof.nodes[parent].children.push(idx);
                idx
            }
        };
        prof.stack.push(node);
        let depth = prof.stack.len();
        let alloc_start = prof.alloc_probe.map(|f| f());
        ScopeGuard {
            node,
            depth,
            start,
            alloc_start,
        }
    })
}

/// RAII frame: charges elapsed wall time (and the allocation delta) to
/// its node when dropped. Robust to [`reset`] happening underneath it —
/// a guard whose frame is gone records nothing.
#[derive(Debug)]
pub struct ScopeGuard {
    node: usize,
    depth: usize,
    start: Instant,
    alloc_start: Option<u64>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        PROF.with(|p| {
            let mut prof = p.borrow_mut();
            // Validate the frame is still ours (reset() or a leaked
            // guard dropped out of order makes the stack disagree).
            if prof.stack.len() != self.depth || prof.stack.last() != Some(&self.node) {
                return;
            }
            prof.stack.pop();
            let alloc_delta = match (self.alloc_start, prof.alloc_probe) {
                (Some(at_entry), Some(f)) => f().saturating_sub(at_entry),
                _ => 0,
            };
            let slot = &mut prof.nodes[self.node];
            slot.calls += 1;
            slot.wall_ns += elapsed;
            slot.max_ns = slot.max_ns.max(elapsed);
            slot.alloc += alloc_delta;
        });
    }
}

/// One node of a profile snapshot: a named phase with accumulated
/// weights and name-sorted children.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    pub name: String,
    /// Completed entries of this scope (deterministic per seed).
    pub calls: u64,
    /// Total wall time charged to this scope, nanoseconds (host-dependent).
    pub wall_ns: u64,
    /// Longest single entry, nanoseconds (host-dependent).
    pub max_ns: u64,
    /// Allocation-probe delta summed over entries (0 without a probe).
    pub alloc: u64,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Look up a descendant by `/`-joined path of scope names
    /// (`"tick/judge"`), starting below this node.
    pub fn find(&self, path: &str) -> Option<&ProfileNode> {
        let mut cur = self;
        for part in path.split('/') {
            cur = cur.children.iter().find(|c| c.name == part)?;
        }
        Some(cur)
    }

    /// Total completed scope entries in this subtree, excluding this
    /// node itself.
    pub fn total_calls(&self) -> u64 {
        self.children
            .iter()
            .map(|c| c.calls + c.total_calls())
            .sum()
    }

    /// Deterministically ordered JSON encoding (children sorted by name
    /// at snapshot time; key order fixed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":\"");
        for c in self.name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        let _ = write!(
            out,
            "\",\"calls\":{},\"wall_ns\":{},\"max_ns\":{},\"alloc\":{},\"children\":[",
            self.calls, self.wall_ns, self.max_ns, self.alloc
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.write_json(out);
        }
        out.push_str("]}");
    }
}

/// Snapshot the recorded tree for this thread. Children are sorted by
/// name at every level, so the snapshot's *shape* is a pure function of
/// the scopes entered (the wall-clock weights are not). Frames still on
/// the stack are not included until their guards drop.
pub fn snapshot() -> ProfileNode {
    PROF.with(|p| {
        let prof = p.borrow();
        build_node(&prof, 0)
    })
}

fn build_node(prof: &ProfilerState, idx: usize) -> ProfileNode {
    let slot = &prof.nodes[idx];
    let mut children: Vec<ProfileNode> =
        slot.children.iter().map(|&c| build_node(prof, c)).collect();
    children.sort_by(|a, b| a.name.cmp(&b.name));
    ProfileNode {
        name: slot.name.clone(),
        calls: slot.calls,
        wall_ns: slot.wall_ns,
        max_ns: slot.max_ns,
        alloc: slot.alloc,
        children,
    }
}

/// Render a snapshot as a flame-style indented text tree with per-node
/// call counts, total/mean/max wall time and the share of the parent's
/// wall time.
pub fn render_text(root: &ProfileNode) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<40} {:>10} {:>12} {:>12} {:>12} {:>10} {:>7}",
        "phase", "calls", "total", "mean", "max", "alloc", "parent%"
    );
    for child in &root.children {
        render_node(&mut out, child, 0, root_wall(root));
    }
    out
}

fn root_wall(root: &ProfileNode) -> u64 {
    root.children.iter().map(|c| c.wall_ns).sum()
}

fn render_node(out: &mut String, node: &ProfileNode, depth: usize, parent_wall: u64) {
    let label = format!("{}{}", "  ".repeat(depth), node.name);
    let mean = node.wall_ns.checked_div(node.calls).unwrap_or(0);
    let pct = if parent_wall == 0 {
        100.0
    } else {
        node.wall_ns as f64 / parent_wall as f64 * 100.0
    };
    let _ = writeln!(
        out,
        "{:<40} {:>10} {:>12} {:>12} {:>12} {:>10} {:>6.1}%",
        label,
        node.calls,
        fmt_ns(node.wall_ns),
        fmt_ns(mean),
        fmt_ns(node.max_ns),
        node.alloc,
        pct
    );
    for child in &node.children {
        render_node(out, child, depth + 1, node.wall_ns);
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Open a named profiler scope for the rest of the enclosing block.
///
/// Mirrors the [`trace!`](crate::trace) discipline: on a disabled
/// profiler this is a single thread-local branch and the name
/// expression is **not** evaluated, so dynamic names
/// (`&format!("phase{i}")`) cost nothing unless profiling is on.
///
/// ```
/// use simcore::{profiler, prof_scope};
///
/// profiler::reset();
/// profiler::set_enabled(true);
/// for i in 0..2 {
///     prof_scope!(&format!("phase{i}"));
/// }
/// profiler::set_enabled(false);
/// assert_eq!(profiler::snapshot().find("phase1").unwrap().calls, 1);
/// ```
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        let _prof_guard = if $crate::profiler::is_enabled() {
            Some($crate::profiler::enter($name))
        } else {
            None
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing_and_skips_name_evaluation() {
        reset();
        set_enabled(false);
        let mut evaluated = false;
        let mut name = || {
            evaluated = true;
            "never"
        };
        {
            prof_scope!(name());
        }
        assert!(!evaluated, "disabled profiler must not evaluate names");
        let root = snapshot();
        assert!(root.children.is_empty());
        assert_eq!(root.total_calls(), 0);
    }

    #[test]
    fn nested_scopes_build_a_tree_with_sorted_children() {
        reset();
        set_enabled(true);
        {
            prof_scope!("tick");
            {
                prof_scope!("zeta");
            }
            {
                prof_scope!("audit");
            }
            {
                prof_scope!("audit");
            }
        }
        set_enabled(false);
        let root = snapshot();
        let tick = root.find("tick").expect("tick node");
        assert_eq!(tick.calls, 1);
        let names: Vec<&str> = tick.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["audit", "zeta"], "children sort by name");
        assert_eq!(root.find("tick/audit").unwrap().calls, 2);
        assert!(tick.wall_ns >= tick.children.iter().map(|c| c.wall_ns).sum());
        assert!(tick.max_ns >= tick.children.iter().map(|c| c.max_ns).max().unwrap());
        assert_eq!(root.total_calls(), 4);
    }

    #[test]
    fn snapshot_shape_is_stable_across_same_scope_sequences() {
        let run = || {
            reset();
            set_enabled(true);
            for _ in 0..3 {
                prof_scope!("tick");
                for shard in 0..2 {
                    prof_scope!(&format!("shard{shard}"));
                }
            }
            set_enabled(false);
            let mut snap = snapshot();
            strip_weights(&mut snap);
            snap.to_json()
        };
        assert_eq!(run(), run(), "shape + calls are deterministic");
    }

    fn strip_weights(node: &mut ProfileNode) {
        node.wall_ns = 0;
        node.max_ns = 0;
        node.alloc = 0;
        for c in &mut node.children {
            strip_weights(c);
        }
    }

    #[test]
    fn reset_makes_live_guards_inert() {
        reset();
        set_enabled(true);
        let guard = enter("orphan");
        reset();
        drop(guard); // must not panic or resurrect the frame
        set_enabled(false);
        assert!(snapshot().children.is_empty());
    }

    #[test]
    fn reset_keeps_the_alloc_probe() {
        thread_local!(static TICKS: Cell<u64> = const { Cell::new(0) });
        fn probe() -> u64 {
            TICKS.with(|t| {
                t.set(t.get() + 1);
                t.get()
            })
        }
        set_alloc_probe(Some(probe));
        reset();
        set_enabled(true);
        {
            prof_scope!("tick");
        }
        set_enabled(false);
        set_alloc_probe(None);
        assert!(
            snapshot().find("tick").unwrap().alloc > 0,
            "a probe installed before reset() still feeds the alloc column"
        );
    }

    #[test]
    fn json_roundtrips_shape_and_counts() {
        reset();
        set_enabled(true);
        {
            prof_scope!("tick");
            prof_scope!("cep/parse");
        }
        set_enabled(false);
        let json = snapshot().to_json();
        assert!(json.starts_with("{\"name\":\"root\""));
        assert!(json.contains("\"name\":\"cep/parse\""));
        assert!(json.contains("\"calls\":1"));
    }

    #[test]
    fn render_text_lists_phases_indented() {
        reset();
        set_enabled(true);
        {
            prof_scope!("tick");
            prof_scope!("audit");
        }
        set_enabled(false);
        let text = render_text(&snapshot());
        assert!(text.contains("tick"));
        assert!(text.contains("  audit"), "children indent: {text}");
    }
}
