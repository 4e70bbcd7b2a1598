//! Update operations.
//!
//! §6 of the paper observes that real replicated systems express updates
//! as *transformations* ("debit the account by $50") rather than value
//! assignments ("change account from $200 to $150"), because
//! transformations can **commute**. The two-tier scheme relies on this:
//! "if all transactions commute, there are no reconciliations".

use repl_storage::{ObjectId, Value};
use serde::{Deserialize, Serialize};

/// A single-object update transformation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Blind assignment — the classic *record-value* update. Never
    /// commutes with anything (except an identical assignment being
    /// idempotent, which we do not exploit).
    Set(Value),
    /// Add a constant to an integer value — commutative (§6's "adding
    /// and subtracting constants from an integer value").
    Add(i64),
    /// Debit: subtract `amount`. Commutative with other `Add`/`Debit`
    /// as a transformation; whether the *result* is acceptable (e.g.
    /// non-negative balance) is the acceptance criterion's job.
    Debit(i64),
}

impl Op {
    /// Apply the transformation to a current value, yielding the new
    /// value.
    pub fn apply(&self, current: &Value) -> Value {
        let current = current.as_int();
        match *self {
            Op::Set(v) => v,
            Op::Add(d) => Value::Int(current.wrapping_add(d)),
            Op::Debit(d) => Value::Int(current.wrapping_sub(d)),
        }
    }

    /// Whether this operation commutes with `other` — i.e. applying
    /// them in either order yields the same value on every start state.
    ///
    /// `Add`/`Debit` commute among themselves. `Set` commutes with
    /// nothing.
    pub fn commutes_with(&self, other: &Op) -> bool {
        matches!(
            (self, other),
            (Op::Add(_) | Op::Debit(_), Op::Add(_) | Op::Debit(_))
        )
    }

    /// Whether the operation is a pure increment/decrement
    /// transformation (safe for two-tier commutative re-execution).
    pub fn is_commutative(&self) -> bool {
        matches!(self, Op::Add(_) | Op::Debit(_))
    }
}

/// One step of a transaction: a transformation applied to an object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    /// The target object.
    pub object: ObjectId,
    /// The transformation.
    pub op: Op,
}

impl Operation {
    /// Convenience constructor.
    pub fn new(object: ObjectId, op: Op) -> Self {
        Operation { object, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites() {
        let op = Op::Set(Value::Int(9));
        assert_eq!(op.apply(&Value::Int(1)), Value::Int(9));
    }

    #[test]
    fn add_and_debit_arithmetic() {
        assert_eq!(Op::Add(5).apply(&Value::Int(10)), Value::Int(15));
        assert_eq!(Op::Debit(4).apply(&Value::Int(10)), Value::Int(6));
    }

    #[test]
    fn commutativity_table() {
        assert!(Op::Add(1).commutes_with(&Op::Add(2)));
        assert!(Op::Add(1).commutes_with(&Op::Debit(2)));
        assert!(Op::Debit(1).commutes_with(&Op::Debit(2)));
        assert!(!Op::Set(Value::Int(0)).commutes_with(&Op::Add(1)));
        assert!(!Op::Add(1).commutes_with(&Op::Set(Value::Int(0))));
        assert!(!Op::Set(Value::Int(0)).commutes_with(&Op::Set(Value::Int(1))));
    }

    #[test]
    fn commutative_ops_actually_commute() {
        // Semantic check behind `commutes_with`: order irrelevant.
        let start = Value::Int(100);
        let ab = Op::Debit(30).apply(&Op::Add(7).apply(&start));
        let ba = Op::Add(7).apply(&Op::Debit(30).apply(&start));
        assert_eq!(ab, ba);
    }

    #[test]
    fn set_does_not_commute_semantically() {
        let start = Value::Int(0);
        let ab = Op::Set(Value::Int(5)).apply(&Op::Add(3).apply(&start));
        let ba = Op::Add(3).apply(&Op::Set(Value::Int(5)).apply(&start));
        assert_ne!(ab, ba);
    }

    #[test]
    fn is_commutative_flags() {
        assert!(Op::Add(1).is_commutative());
        assert!(Op::Debit(1).is_commutative());
        assert!(!Op::Set(Value::Int(1)).is_commutative());
    }
}
