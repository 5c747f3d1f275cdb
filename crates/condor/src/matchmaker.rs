//! Symmetric ClassAd matchmaking.
//!
//! ERMS registers one machine ad per datanode (updated on heartbeat) and
//! builds a request ad per replication task. A match requires **both**
//! sides' `Requirements` to evaluate true against the other; candidates
//! are ordered by the request's `Rank` expression (higher is better) with
//! the ad name as a deterministic tiebreak. Commission/decommission
//! detection falls out of the ad registry: a node that stops advertising
//! is decommissioned.

use crate::classad::{CVal, ClassAd, Expr};
use std::collections::BTreeMap;

/// Attribute holding each side's match constraint.
pub const REQUIREMENTS: &str = "Requirements";
/// Attribute holding the requester's preference expression.
pub const RANK: &str = "Rank";

/// A registry of named machine ads plus matching logic.
#[derive(Debug, Default, PartialEq)]
pub struct Matchmaker {
    machines: BTreeMap<String, (ClassAd, Option<Expr>)>,
}

impl Matchmaker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advertise (or refresh) a machine ad. `requirements` is the
    /// machine-side constraint, if any.
    pub fn advertise(&mut self, name: impl Into<String>, ad: ClassAd, requirements: Option<Expr>) {
        self.machines.insert(name.into(), (ad, requirements));
    }

    /// Withdraw an ad (node decommissioned / died).
    pub fn withdraw(&mut self, name: &str) -> bool {
        self.machines.remove(name).is_some()
    }

    pub fn is_advertised(&self, name: &str) -> bool {
        self.machines.contains_key(name)
    }

    pub fn machine_names(&self) -> impl Iterator<Item = &str> {
        self.machines.keys().map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.machines.len()
    }
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&ClassAd> {
        self.machines.get(name).map(|(ad, _)| ad)
    }

    /// All machines matching the request, best-ranked first.
    ///
    /// `request` carries its constraint in `Requirements` (an [`Expr`]
    /// passed separately since ads store values, not expressions) and its
    /// preference in `rank`.
    pub fn matches(
        &self,
        request: &ClassAd,
        requirements: &Expr,
        rank: Option<&Expr>,
    ) -> Vec<(&str, f64)> {
        let mut out: Vec<(&str, f64)> = Vec::new();
        for (name, (machine, machine_req)) in &self.machines {
            // request side: my = request, target = machine
            if requirements.eval(request, Some(machine)).as_bool() != Some(true) {
                continue;
            }
            // machine side (if present): my = machine, target = request
            if let Some(mreq) = machine_req {
                if mreq.eval(machine, Some(request)).as_bool() != Some(true) {
                    continue;
                }
            }
            let r = rank
                .map(|r| match r.eval(request, Some(machine)) {
                    CVal::Int(i) => i as f64,
                    CVal::Float(f) => f,
                    CVal::Bool(true) => 1.0,
                    _ => 0.0,
                })
                .unwrap_or(0.0);
            out.push((name.as_str(), r));
        }
        // higher rank first; name ascending as deterministic tiebreak
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        });
        out
    }

    /// Best single match, if any.
    pub fn best_match(
        &self,
        request: &ClassAd,
        requirements: &Expr,
        rank: Option<&Expr>,
    ) -> Option<&str> {
        self.matches(request, requirements, rank)
            .first()
            .map(|&(n, _)| n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn node(rack: &str, free_gb: i64, standby: bool, blocks: i64) -> ClassAd {
        ClassAd::new()
            .with("Rack", rack)
            .with("FreeDisk", free_gb)
            .with("Standby", standby)
            .with("Blocks", blocks)
    }

    fn mm() -> Matchmaker {
        let mut m = Matchmaker::new();
        m.advertise("dn1", node("r1", 100, false, 50), None);
        m.advertise("dn2", node("r1", 10, true, 5), None);
        m.advertise("dn3", node("r2", 200, true, 20), None);
        m.advertise("dn4", node("r2", 80, false, 90), None);
        m
    }

    #[test]
    fn requirements_filter() {
        let m = mm();
        let req = parse_expr("target.Standby == true && target.FreeDisk >= 50").unwrap();
        let request = ClassAd::new();
        let names: Vec<&str> = m
            .matches(&request, &req, None)
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(names, vec!["dn3"]);
    }

    #[test]
    fn rank_orders_candidates() {
        let m = mm();
        let req = parse_expr("target.FreeDisk > 0").unwrap();
        let rank = parse_expr("target.FreeDisk").unwrap();
        let got = m.matches(&ClassAd::new(), &req, Some(&rank));
        let names: Vec<&str> = got.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["dn3", "dn1", "dn4", "dn2"]);
        assert_eq!(got[0].1, 200.0);
    }

    #[test]
    fn rank_ties_break_by_name() {
        let mut m = Matchmaker::new();
        m.advertise("b", node("r1", 50, false, 0), None);
        m.advertise("a", node("r1", 50, false, 0), None);
        let req = parse_expr("true").unwrap();
        let rank = parse_expr("target.FreeDisk").unwrap();
        let names: Vec<&str> = m
            .matches(&ClassAd::new(), &req, Some(&rank))
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn request_attributes_visible_via_my() {
        let m = mm();
        // ask for a node in the same rack as the request
        let req = parse_expr("target.Rack == my.Rack").unwrap();
        let request = ClassAd::new().with("Rack", "r2");
        let names: Vec<&str> = m
            .matches(&request, &req, None)
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(names, vec!["dn3", "dn4"]);
    }

    #[test]
    fn machine_side_requirements_are_enforced() {
        let mut m = Matchmaker::new();
        // machine only accepts small jobs
        let machine_req = parse_expr("target.NeedDisk <= 10").unwrap();
        m.advertise("picky", node("r1", 500, true, 0), Some(machine_req));
        let req = parse_expr("target.FreeDisk > 100").unwrap();
        let small = ClassAd::new().with("NeedDisk", 5i64);
        let big = ClassAd::new().with("NeedDisk", 50i64);
        assert_eq!(m.best_match(&small, &req, None), Some("picky"));
        assert_eq!(m.best_match(&big, &req, None), None);
    }

    #[test]
    fn withdraw_models_decommission() {
        let mut m = mm();
        assert!(m.is_advertised("dn2"));
        assert!(m.withdraw("dn2"));
        assert!(!m.is_advertised("dn2"));
        assert!(!m.withdraw("dn2"), "second withdraw is a no-op");
        assert_eq!(m.len(), 3);
        let req = parse_expr("target.Standby == true").unwrap();
        let names: Vec<&str> = m
            .matches(&ClassAd::new(), &req, None)
            .iter()
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(names, vec!["dn3"]);
    }

    #[test]
    fn undefined_requirement_never_matches() {
        let m = mm();
        let req = parse_expr("target.NoSuchAttr > 5").unwrap();
        assert!(m.matches(&ClassAd::new(), &req, None).is_empty());
    }
}
