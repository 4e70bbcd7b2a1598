//! Transaction specifications and acceptance criteria.
//!
//! A [`TxnSpec`] is the *input-parameter capture* of a transaction: the
//! transformations it applies, in order. Two-tier replication re-runs
//! exactly this specification at the base ("sends all its tentative
//! transactions and all their input parameters to the base node"), then
//! judges the re-execution with an [`Criterion`].

use crate::op::Operation;
use repl_storage::{ObjectId, Value};
use serde::{Deserialize, Serialize};

/// The acceptance criteria of §7 — "a test the resulting outputs must
/// pass for the slightly different base transaction results to be
/// acceptable". The paper's examples: the bank balance must not go
/// negative; the price quote cannot exceed the tentative quote; the
/// seats must be aisle seats.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum Criterion {
    /// Accept whatever the base execution produces (pure convergence,
    /// no semantic guard).
    #[default]
    AlwaysAccept,
    /// Every written object's final integer value must be ≥ 0 — the
    /// checking-account rule.
    NonNegative,
    /// Every written object's final integer value must be ≤ this bound
    /// — the "price quote cannot exceed the tentative quote" rule.
    AtMost(i64),
    /// The base execution must produce exactly the same values the
    /// tentative execution produced — the strictest test; the paper
    /// notes it is "probably too pessimistic".
    ExactMatch,
}

impl Criterion {
    /// Judge a base re-execution.
    ///
    /// * `base` — `(object, final value)` pairs the base transaction
    ///   produced;
    /// * `tentative` — the values the tentative execution produced for
    ///   the same objects (same order), used by [`Criterion::ExactMatch`].
    pub fn accepts(&self, base: &[(ObjectId, Value)], tentative: &[(ObjectId, Value)]) -> bool {
        match self {
            Criterion::AlwaysAccept => true,
            Criterion::NonNegative => base.iter().all(|(_, v)| v.as_int().is_none_or(|i| i >= 0)),
            Criterion::AtMost(bound) => base
                .iter()
                .all(|(_, v)| v.as_int().is_none_or(|i| i <= *bound)),
            Criterion::ExactMatch => base == tentative,
        }
    }
}

/// A transaction's full specification: its operations in execution
/// order plus the acceptance criterion used if it is re-executed as a
/// base transaction.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TxnSpec {
    /// The updates, in order. The model's `Actions` is `ops.len()`.
    pub ops: Vec<Operation>,
    /// Acceptance test for two-tier re-execution.
    pub criterion: Criterion,
}

impl TxnSpec {
    /// A spec with the default [`Criterion::AlwaysAccept`].
    pub fn new(ops: Vec<Operation>) -> Self {
        TxnSpec {
            ops,
            criterion: Criterion::AlwaysAccept,
        }
    }

    /// Attach an acceptance criterion.
    #[must_use]
    pub fn with_criterion(mut self, criterion: Criterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// The objects this transaction updates, in access order.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.ops.iter().map(|o| o.object)
    }

    /// Number of actions (the model's `Actions`).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the spec performs no updates.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether every operation is commutative — §7: "if all
    /// transactions commute, there are no reconciliations".
    pub fn is_commutative(&self) -> bool {
        self.ops.iter().all(|o| o.op.is_commutative())
    }

    /// Whether this spec commutes with another (pairwise operation
    /// check on shared objects; disjoint object sets always commute).
    pub fn commutes_with(&self, other: &TxnSpec) -> bool {
        for a in &self.ops {
            for b in &other.ops {
                if a.object == b.object && !a.op.commutes_with(&b.op) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn set(obj: u64, v: i64) -> Operation {
        Operation::new(ObjectId(obj), Op::Set(Value::Int(v)))
    }
    fn add(obj: u64, v: i64) -> Operation {
        Operation::new(ObjectId(obj), Op::Add(v))
    }

    #[test]
    fn always_accept_accepts() {
        assert!(Criterion::AlwaysAccept.accepts(&[], &[]));
        assert!(Criterion::AlwaysAccept.accepts(
            &[(ObjectId(0), Value::Int(-5))],
            &[(ObjectId(0), Value::Int(1))]
        ));
    }

    #[test]
    fn non_negative_rejects_overdraft() {
        let ok = [(ObjectId(0), Value::Int(0)), (ObjectId(1), Value::Int(7))];
        let bad = [(ObjectId(0), Value::Int(-1))];
        assert!(Criterion::NonNegative.accepts(&ok, &[]));
        assert!(!Criterion::NonNegative.accepts(&bad, &[]));
    }

    #[test]
    fn non_negative_ignores_text() {
        let vals = [(ObjectId(0), Value::from("doc"))];
        assert!(Criterion::NonNegative.accepts(&vals, &[]));
    }

    #[test]
    fn at_most_enforces_price_ceiling() {
        let quote = [(ObjectId(0), Value::Int(120))];
        assert!(!Criterion::AtMost(100).accepts(&quote, &[]));
        assert!(Criterion::AtMost(150).accepts(&quote, &[]));
    }

    #[test]
    fn exact_match_compares_outputs() {
        let a = [(ObjectId(0), Value::Int(5))];
        let b = [(ObjectId(0), Value::Int(6))];
        assert!(Criterion::ExactMatch.accepts(&a, &a));
        assert!(!Criterion::ExactMatch.accepts(&a, &b));
    }

    #[test]
    fn spec_objects_and_len() {
        let spec = TxnSpec::new(vec![add(3, 1), add(7, 2)]);
        assert_eq!(spec.len(), 2);
        assert!(!spec.is_empty());
        assert_eq!(
            spec.objects().collect::<Vec<_>>(),
            vec![ObjectId(3), ObjectId(7)]
        );
    }

    #[test]
    fn commutative_spec_detection() {
        assert!(TxnSpec::new(vec![add(0, 1), add(1, -2)]).is_commutative());
        assert!(!TxnSpec::new(vec![add(0, 1), set(1, 5)]).is_commutative());
    }

    #[test]
    fn specs_commute_on_disjoint_objects() {
        let a = TxnSpec::new(vec![set(0, 1)]);
        let b = TxnSpec::new(vec![set(1, 2)]);
        assert!(a.commutes_with(&b));
    }

    #[test]
    fn specs_conflict_on_shared_noncommutative_object() {
        let a = TxnSpec::new(vec![set(0, 1)]);
        let b = TxnSpec::new(vec![add(0, 2)]);
        assert!(!a.commutes_with(&b));
        let c = TxnSpec::new(vec![add(0, 5)]);
        assert!(b.commutes_with(&c));
    }

    #[test]
    fn criterion_travels_with_spec() {
        let spec = TxnSpec::new(vec![add(0, 1)]).with_criterion(Criterion::NonNegative);
        assert_eq!(spec.criterion, Criterion::NonNegative);
    }
}
