//! Property tests for [`FaultPlan::parse`], the hand-typed input in
//! front of every chaos campaign: no string panics it, and a plan it
//! accepts cannot hang or overflow the run that takes it (probabilities
//! in [0, 1], a positive retransmit timeout, ordered windows, every
//! duration and window bound within [`FaultPlan::MAX_DURATION`]).

use proptest::prelude::*;
use repl_net::{CrashWindow, FaultPlan};
use repl_sim::{SimDuration, SimTime};

/// What every accepted plan must satisfy.
fn check_accepted(plan: &FaultPlan) -> Result<(), TestCaseError> {
    let latest = SimTime::ZERO + FaultPlan::MAX_DURATION;
    for p in [plan.drop_p, plan.dup_p, plan.delay_p] {
        prop_assert!((0.0..=1.0).contains(&p), "probability {p} in {plan:?}");
    }
    prop_assert!(plan.retransmit > SimDuration::ZERO, "{plan:?}");
    prop_assert!(plan.retransmit <= FaultPlan::MAX_DURATION, "{plan:?}");
    prop_assert!(plan.delay_spike <= FaultPlan::MAX_DURATION, "{plan:?}");
    for w in &plan.partitions {
        prop_assert!(w.start < w.heal && w.heal <= latest, "{w:?}");
        prop_assert!(!w.side_a.is_empty(), "{w:?}");
    }
    for &CrashWindow { at, restart, .. } in &plan.crashes {
        prop_assert!(at < restart && restart <= latest, "{at} .. {restart}");
    }
    Ok(())
}

/// Numbers as people type them when they get it wrong: signed zero,
/// negative, sub-microsecond, past the clock, past `f64`, not a
/// number, missing.
fn arb_odd_number() -> impl Strategy<Value = String> {
    const EDGES: [&str; 13] = [
        "-0",
        "2",
        "-1",
        "1e-9",
        "1e9",
        "1.0000001e9",
        "1e16",
        "1e19",
        "1e300",
        "1e999",
        "nan",
        "inf",
        "",
    ];
    (0usize..EDGES.len()).prop_map(|i| EDGES[i].to_owned())
}

/// Mostly a probability, sometimes not.
fn arb_prob() -> impl Strategy<Value = String> {
    let valid = || (0u32..=1000).prop_map(|m| format!("{}", f64::from(m) / 1000.0));
    prop_oneof![valid(), valid(), valid(), arb_odd_number()]
}

/// Mostly a sane number of seconds (zero included), sometimes not.
fn arb_secs() -> impl Strategy<Value = String> {
    let valid = || (0u64..100_000).prop_map(|ms| format!("{}", ms as f64 / 1000.0));
    prop_oneof![valid(), valid(), valid(), arb_odd_number()]
}

/// Mostly an ordered `S..E`, sometimes any two numbers.
fn arb_window() -> impl Strategy<Value = String> {
    let valid = || (0u64..1000, 1u64..1000).prop_map(|(s, len)| format!("{s}..{}", s + len));
    let any = (arb_secs(), arb_secs()).prop_map(|(s, e)| format!("{s}..{e}"));
    prop_oneof![valid(), valid(), valid(), any]
}

fn arb_node_list() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..12, 0..4).prop_map(|ids| {
        let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
        ids.join(",")
    })
}

/// One clause of the right shape.
fn arb_clause() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_prob().prop_map(|p| format!("drop={p}")),
        arb_prob().prop_map(|p| format!("dup={p}")),
        (arb_prob(), arb_secs()).prop_map(|(p, s)| format!("delay={p}:{s}")),
        arb_secs().prop_map(|s| format!("retransmit={s}")),
        (arb_window(), arb_node_list(), arb_node_list())
            .prop_map(|(w, a, b)| format!("part={w}:{a}/{b}")),
        (0u32..12, arb_window()).prop_map(|(n, w)| format!("crash={n}:{w}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic_the_parser(spec in "[ -~]{0,48}") {
        if let Ok(plan) = FaultPlan::parse(&spec, 1) {
            check_accepted(&plan)?;
        }
    }

    #[test]
    fn strings_over_the_grammar_alphabet_never_panic_the_parser(
        spec in "[a-z0-9=;:.,/ e+-]{0,48}",
    ) {
        if let Ok(plan) = FaultPlan::parse(&spec, 1) {
            check_accepted(&plan)?;
        }
    }

    #[test]
    fn clause_soups_are_refused_or_safe_to_run(
        clauses in prop::collection::vec(arb_clause(), 0..6),
        seed in 0u64..1000,
    ) {
        let spec = clauses.join("; ");
        match FaultPlan::parse(&spec, seed) {
            Ok(plan) => check_accepted(&plan)?,
            // Every refusal names the clause it is about.
            Err(e) => prop_assert!(clauses.iter().any(|c| e.contains(c.trim())), "{e}"),
        }
    }
}
