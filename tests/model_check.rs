//! Model-checker acceptance tests (the issue's acceptance criteria, pinned
//! as tier-1 tests so they never regress):
//!
//! * exhaustive exploration of the 2-node / 1-advancement scenario finishes
//!   inside the CI budget with zero violations and a healthy count of
//!   distinct schedules;
//! * a bounded random sweep over every sound scenario stays clean;
//! * the deliberately sabotaged build (`skip_p2_drain`) is caught and the
//!   counterexample shrinks to at most 25 choices.

use threev::check::{
    explore_exhaustive, explore_random, run_schedule, scenario, shrink, DEFAULT_MAX_STEPS,
};

/// Exhaustive DFS over the two-node basic scenario at the CI-pinned budget.
/// Must complete (the sleep-set-reduced space fits the budget), find no
/// violation, and report a non-trivial number of distinct schedules.
#[test]
fn exhaustive_two_node_basic_is_clean() {
    let sc = scenario::find("two-node-basic").expect("catalogue scenario");
    let out = explore_exhaustive(sc, 3, 2_000, 400);
    assert!(
        out.violation.is_none(),
        "exhaustive exploration found a violation: {:?}",
        out.violation
    );
    assert!(
        out.schedules >= 150,
        "expected >= 150 distinct schedules under the pinned budget, got {}",
        out.schedules
    );
}

/// Quick random gate across every sound scenario — the same sweep CI runs
/// in the main job, at a smaller per-scenario budget.
#[test]
fn random_sweep_over_sound_scenarios_is_clean() {
    for sc in scenario::sound() {
        let out = explore_random(sc, 3, 2_000, DEFAULT_MAX_STEPS);
        assert!(
            out.violation.is_none(),
            "{}: random sweep found a violation: {}",
            sc.name,
            out.violation.as_ref().unwrap().at.violation
        );
        assert!(out.runs > 0, "{}: no walks completed", sc.name);
    }
}

/// The planted Phase-2 drain skip must be caught by random exploration and
/// shrink to a small, replayable counterexample (acceptance: <= 25 steps).
#[test]
fn planted_p2_skip_bug_is_caught_and_shrinks() {
    let sc = scenario::find("p2-skip").expect("catalogue scenario");
    assert!(sc.sabotaged, "p2-skip must be marked sabotaged");

    let out = explore_random(sc, 5, 60_000, 200);
    let cex = out
        .violation
        .expect("random exploration must catch the planted Phase-2 drain skip");

    let shrunk = shrink(sc, 5, &cex.choices, 200).expect("counterexample must still reproduce");
    assert!(
        shrunk.choices.len() <= 25,
        "shrunk counterexample has {} choices, expected <= 25",
        shrunk.choices.len()
    );

    // The minimal schedule replays to the same class of violation.
    let replay = run_schedule(sc, 5, &shrunk.choices, 200);
    let v = replay
        .violation
        .expect("minimal schedule must still violate");
    assert_eq!(
        std::mem::discriminant(&v.violation),
        std::mem::discriminant(&shrunk.at.violation),
        "replayed violation {:?} differs in kind from shrunk {:?}",
        v.violation,
        shrunk.at.violation
    );
}
