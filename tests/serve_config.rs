//! A service configuration the engine cannot run must come back as an
//! error, not as a hang or a process abort. A zero quantum never
//! advances the scheduler's clock, and a zero-word nursery trips the
//! heap's non-empty-nursery assertion, so `tfgc::serve` refuses both up
//! front.

use tfgc::{serve, ServeConfig, Strategy};

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
fn smallest_runnable_serve_configs_still_run() {
    let mut cfg = small(Strategy::Compiled);
    cfg.quantum = 1;
    cfg.nursery_words = Some(1);
    let run = serve(&cfg).expect("quantum 1 with a one-word nursery runs");
    assert_eq!(run.report.outcomes.len(), cfg.requests);
}
