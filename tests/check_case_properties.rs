//! Property tests for the `CHECK_CASE` line, the hand-typed input in
//! front of every oracle repro: no string panics [`FuzzCase::parse`],
//! [`CrashPoint::parse`] or the harness's `parse_check_case`; a case or
//! crash point they accept round-trips through `encode`; and what they
//! accept is what was typed (no number wrapped to fit its field) and
//! fits the simulated clock (horizon and crash-point down time at most
//! [`FaultPlan::MAX_DURATION`]); and no accepted two-tier line carries a
//! fault plan, which that engine would ignore.

use dangers_of_replication::check::{FuzzCase, Scheme};
use dangers_of_replication::core::CrashPoint;
use dangers_of_replication::harness::experiments::check::parse_check_case;
use dangers_of_replication::net::FaultPlan;
use proptest::prelude::*;

const MAX_SECS: u64 = FaultPlan::MAX_DURATION.0 / 1_000_000;

/// What every accepted crash-point spec must satisfy.
fn check_crash_point(spec: &str) -> Result<(), TestCaseError> {
    if let Some(cp) = CrashPoint::parse(spec) {
        prop_assert!(cp.down_secs <= MAX_SECS, "{spec:?} -> {cp:?}");
        prop_assert_eq!(CrashPoint::parse(&cp.encode()), Some(cp));
    }
    Ok(())
}

/// What every accepted `CHECK_CASE` line must satisfy.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    if let Ok(case) = FuzzCase::parse(line) {
        prop_assert!(case.horizon_secs <= MAX_SECS, "{line:?} -> {case:?}");
        prop_assert_eq!(FuzzCase::parse(&case.encode()), Ok(case.clone()));
    }
    if let Ok(case) = parse_check_case(line) {
        prop_assert_eq!(FuzzCase::parse(line), Ok(case.clone()));
        if let Some(x) = &case.xpoint {
            prop_assert!(CrashPoint::parse(x).is_some(), "{line:?}");
        }
        if case.scheme == Scheme::TwoTier {
            prop_assert!(case.faults.is_none(), "{line:?}");
        }
    }
    Ok(())
}

/// Two-tier has no fault hook, so a fault plan on a two-tier line is
/// refused instead of running fault-free and reporting clean.
#[test]
fn a_two_tier_line_with_a_fault_plan_is_refused() {
    let line = "two-tier:seed=1,nodes=4,db=300,tps=10,actions=4,horizon=10|drop=0.5";
    let err = parse_check_case(line).expect_err("two-tier fault plan accepted");
    assert!(err.contains("two-tier takes no fault plan"), "{err}");
    assert!(parse_check_case(line.split('|').next().unwrap()).is_ok());
}

/// An accepted line keeps every number as typed: the last `KEY=N` of
/// each integer field is the case's value, not a wrapped one.
fn check_numbers_kept(line: &str) -> Result<(), TestCaseError> {
    let Ok(case) = FuzzCase::parse(line) else {
        return Ok(());
    };
    let head = line.split('|').next().unwrap_or("");
    let fields = head.split_once(':').map_or("", |(_, f)| f);
    let mut seen = Vec::new();
    for (key, typed) in fields.split(',').rev().filter_map(|f| f.split_once('=')) {
        let key = key.trim();
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let value = match key {
            "seed" => case.seed,
            "nodes" => u64::from(case.nodes),
            "db" => case.db_size,
            "tps" => u64::from(case.tps),
            "actions" => u64::from(case.actions),
            "horizon" => case.horizon_secs,
            "shards" => u64::from(case.shards),
            "rf" => u64::from(case.rf),
            _ => continue,
        };
        let typed = typed.trim().parse::<u128>().ok();
        prop_assert_eq!(typed, Some(u128::from(value)), "{line:?}");
    }
    Ok(())
}

/// One of `items`, as a string.
fn pick(items: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..items.len()).prop_map(move |i| items[i].to_owned())
}

/// Numbers as people type them when they get it wrong: past `u32`,
/// past `u64`, past the clock, signed, padded, missing.
fn arb_number() -> impl Strategy<Value = String> {
    const EDGES: &[&str] = &[
        "0",
        "1",
        "+3",
        " 7 ",
        "-1",
        "4294967295",
        "4294967296",
        "4294967297",
        "1000000000",
        "1000000001",
        "18446744073709551615",
        "18446744073709551616",
        "1e3",
        "",
    ];
    let valid = || (1u64..500).prop_map(|v| v.to_string());
    prop_oneof![valid(), valid(), pick(EDGES)]
}

fn arb_xpoint() -> impl Strategy<Value = String> {
    const KINDS: &[&str] = &[
        "coord-pre-prepare",
        "part-post-vote",
        "coord-post-declog",
        "nope",
    ];
    let shaped =
        || (pick(KINDS), arb_number(), arb_number()).prop_map(|(k, n, d)| format!("{k}:{n}:{d}"));
    prop_oneof![shaped(), shaped(), "[a-z0-9:+-]{0,24}"]
}

/// One `KEY=VALUE` field, mostly of a known key.
fn arb_field() -> impl Strategy<Value = String> {
    const INT_KEYS: &[&str] = &[
        "seed", "nodes", "db", "tps", "actions", "horizon", "shards", "rf", "bogus",
    ];
    const PROTOS: &[&str] = &["owner-order", "2pc", "o2pl", "3pc", ""];
    prop_oneof![
        (pick(INT_KEYS), arb_number()).prop_map(|(k, v)| format!("{k}={v}")),
        (pick(INT_KEYS), arb_number()).prop_map(|(k, v)| format!("{k}={v}")),
        pick(PROTOS).prop_map(|p| format!("proto={p}")),
        arb_xpoint().prop_map(|x| format!("xpoint={x}")),
    ]
}

/// A whole line: a scheme, a field soup that usually has every required
/// field, and sometimes a fault plan.
fn arb_line() -> impl Strategy<Value = String> {
    const SCHEMES: &[&str] = &[
        "eager",
        "lazy-group",
        "lazy-master",
        "contention",
        "two-tier",
        "warp",
    ];
    const FAULTS: &[&str] = &[
        "",
        "|drop=0.05; retransmit=0.25",
        "|drop=2",
        "|crash=1:3..9",
        "|",
    ];
    let required = "seed=1,nodes=4,db=300,tps=10,actions=4,horizon=20";
    (
        pick(SCHEMES),
        prop::collection::vec(arb_field(), 0..5),
        0u32..4,
        pick(FAULTS),
    )
        .prop_map(move |(scheme, fields, with_required, faults)| {
            let mut all = Vec::new();
            if with_required > 0 {
                all.push(required.to_owned());
            }
            all.extend(fields);
            format!("{scheme}:{}{faults}", all.join(","))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_never_panic_the_parsers(line in "[ -~]{0,64}") {
        check_line(&line)?;
        check_crash_point(&line)?;
    }

    #[test]
    fn strings_over_the_grammar_alphabet_never_panic_the_parsers(
        line in "[a-z0-9=:,|.; +-]{0,64}",
    ) {
        check_line(&line)?;
        check_crash_point(&line)?;
    }

    #[test]
    fn field_soups_are_refused_or_round_trip(line in arb_line()) {
        check_line(&line)?;
        check_numbers_kept(&line)?;
    }

    #[test]
    fn crash_points_are_refused_or_round_trip(spec in arb_xpoint()) {
        check_crash_point(&spec)?;
    }
}
