//! A service configuration the engine cannot run as configured must come
//! back as an error, not as a hang, a process abort or a silently
//! ignored setting. A zero quantum never advances the scheduler's clock,
//! a zero-word nursery trips the heap's non-empty-nursery assertion, a
//! heap that grows past what the allocator can satisfy aborts the
//! process, and a heap maximum below the heap would never be reached, so
//! `tfgc::serve` refuses all of them up front. `tfml` checks `--heap`,
//! `--heap-max` and `--nursery-words` with the same `check_space_words`.

use tfgc::{check_space_words, serve, ServeConfig, Strategy, MAX_HEAP_WORDS};

fn small(strategy: Strategy) -> ServeConfig {
    let mut cfg = ServeConfig::new(strategy);
    cfg.requests = 8;
    cfg
}

#[test]
fn unrunnable_serve_configs_are_errors() {
    for s in Strategy::ALL {
        let mut zero_quantum = small(s);
        zero_quantum.quantum = 0;
        let err = serve(&zero_quantum).expect_err("quantum 0 must be refused");
        assert!(err.contains("quantum"), "{s}: {err}");

        let mut empty_nursery = small(s);
        empty_nursery.nursery_words = Some(0);
        let err = serve(&empty_nursery).expect_err("an empty nursery must be refused");
        assert!(err.contains("nursery"), "{s}: {err}");
    }
}

#[test]
fn oversized_heaps_are_errors_not_aborts() {
    let huge = 999_999_999_999;
    let mut heap = small(Strategy::Compiled);
    heap.heap_words = huge;
    let err = serve(&heap).expect_err("a 999999999999-word heap must be refused");
    assert!(err.contains("heap") && err.contains("cap"), "{err}");

    let mut nursery = small(Strategy::Compiled);
    nursery.nursery_words = Some(huge);
    let err = serve(&nursery).expect_err("a 999999999999-word nursery must be refused");
    assert!(err.contains("nursery") && err.contains("cap"), "{err}");

    let mut just_over = small(Strategy::Compiled);
    just_over.heap_words = MAX_HEAP_WORDS + 1;
    assert!(serve(&just_over).is_err(), "the cap is inclusive");

    assert!(check_space_words("--heap", MAX_HEAP_WORDS).is_ok());
    let err = check_space_words("--heap", huge).expect_err("above the cap");
    assert!(
        err.contains("--heap") && err.contains("999999999999"),
        "{err}"
    );
}

#[test]
fn smallest_runnable_serve_configs_still_run() {
    let mut cfg = small(Strategy::Compiled);
    cfg.quantum = 1;
    cfg.nursery_words = Some(1);
    let run = serve(&cfg).expect("quantum 1 with a one-word nursery runs");
    assert_eq!(run.report.outcomes.len(), cfg.requests);
}

#[test]
fn heap_max_below_the_heap_is_an_error() {
    let mut below = small(Strategy::Compiled);
    below.heap_words = 1 << 12;
    below.heap_max_words = Some(1 << 11);
    let err = serve(&below).expect_err("a heap max below the heap must be refused");
    assert!(err.contains("heap max") && err.contains("below"), "{err}");

    let mut over = small(Strategy::Compiled);
    over.heap_max_words = Some(MAX_HEAP_WORDS + 1);
    let err = serve(&over).expect_err("a heap max above the cap must be refused");
    assert!(err.contains("heap max") && err.contains("cap"), "{err}");

    let mut equal = small(Strategy::Compiled);
    equal.heap_max_words = Some(equal.heap_words);
    let run = serve(&equal).expect("a heap max equal to the heap runs (no growth)");
    assert_eq!(run.report.outcomes.len(), equal.requests);
}
