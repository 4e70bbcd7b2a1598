//! Generic transaction-specification generators, used by examples and
//! integration tests to drive the public protocol APIs with realistic
//! operation mixes.

use repl_core::{Criterion, Op, Operation, TxnSpec};
use repl_sim::{AccessPattern, Sampler, SimRng};
use repl_storage::{ObjectId, Value};

/// The operation mix of a generated transaction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpMix {
    /// Blind `Set` writes of random integers (record-value updates —
    /// the §6 anti-pattern).
    BlindWrites,
    /// Commutative `Add`/`Debit` with amounts in `[1, max_amount]`
    /// (transformation updates — the §6 recommendation).
    Commutative {
        /// Largest single amount.
        max_amount: i64,
    },
}

/// A deterministic stream of [`TxnSpec`]s.
#[derive(Debug)]
pub struct SpecGenerator {
    sampler: Sampler,
    rng: SimRng,
    actions: usize,
    mix: OpMix,
    criterion: Criterion,
}

impl SpecGenerator {
    /// A generator over `db_size` objects producing `actions`-operation
    /// transactions with the given mix and acceptance criterion.
    pub fn new(
        db_size: u64,
        actions: usize,
        pattern: AccessPattern,
        mix: OpMix,
        criterion: Criterion,
        seed: u64,
    ) -> Self {
        SpecGenerator {
            sampler: Sampler::new(pattern, db_size),
            rng: SimRng::stream(seed, "spec-generator"),
            actions,
            mix,
            criterion,
        }
    }

    /// Produce the next transaction specification.
    pub fn next_spec(&mut self) -> TxnSpec {
        let objects = self.sampler.sample_distinct(&mut self.rng, self.actions);
        let ops = objects
            .into_iter()
            .map(|o| {
                let obj = ObjectId(o);
                let op = match self.mix {
                    OpMix::BlindWrites => Op::Set(Value::Int(self.rng.next_u64() as i64)),
                    OpMix::Commutative { max_amount } => {
                        let amount = 1 + self.rng.gen_range(max_amount.max(1) as u64) as i64;
                        if self.rng.chance(0.5) {
                            Op::Add(amount)
                        } else {
                            Op::Debit(amount)
                        }
                    }
                };
                Operation::new(obj, op)
            })
            .collect();
        TxnSpec::new(ops).with_criterion(self.criterion.clone())
    }

    /// Produce `n` specifications.
    pub fn take_specs(&mut self, n: usize) -> Vec<TxnSpec> {
        (0..n).map(|_| self.next_spec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(mix: OpMix) -> SpecGenerator {
        SpecGenerator::new(
            100,
            4,
            AccessPattern::Uniform,
            mix,
            Criterion::AlwaysAccept,
            7,
        )
    }

    #[test]
    fn specs_have_requested_shape() {
        let mut g = generator(OpMix::BlindWrites);
        let s = g.next_spec();
        assert_eq!(s.len(), 4);
        let objs: Vec<_> = s.objects().collect();
        let mut dedup = objs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 4, "objects must be distinct");
    }

    #[test]
    fn commutative_mix_is_commutative() {
        let mut g = generator(OpMix::Commutative { max_amount: 10 });
        for _ in 0..20 {
            assert!(g.next_spec().is_commutative());
        }
    }

    #[test]
    fn blind_writes_are_not_commutative() {
        let mut g = generator(OpMix::BlindWrites);
        assert!(!g.next_spec().is_commutative());
    }

    #[test]
    fn deterministic_streams() {
        let mut a = generator(OpMix::Commutative { max_amount: 5 });
        let mut b = generator(OpMix::Commutative { max_amount: 5 });
        assert_eq!(a.take_specs(10), b.take_specs(10));
    }

    #[test]
    fn criterion_propagates() {
        let mut g = SpecGenerator::new(
            50,
            2,
            AccessPattern::Uniform,
            OpMix::Commutative { max_amount: 5 },
            Criterion::NonNegative,
            1,
        );
        assert_eq!(g.next_spec().criterion, Criterion::NonNegative);
    }

    #[test]
    fn zipf_pattern_skews_objects() {
        let mut g = SpecGenerator::new(
            1000,
            1,
            AccessPattern::Zipf { theta: 0.9 },
            OpMix::BlindWrites,
            Criterion::AlwaysAccept,
            3,
        );
        let hot = (0..500)
            .filter(|_| g.next_spec().objects().next().unwrap().0 < 10)
            .count();
        assert!(hot > 100, "Zipf head share too small: {hot}/500");
    }
}
