//! Expected results, written down independently of the compiler.
//!
//! Nothing here runs TFML: the service handlers are checked against
//! their closed forms and the suite programs against values worked out
//! by hand (and re-derived outside this repository), so a miscompiled
//! program cannot vouch for itself.

/// The 17 `tfgc_workloads::suite()` programs at their default sizes and
/// the value each must print.
pub const SUITE_EXPECTED: [(&str, i64); 17] = [
    ("fib", 2584),             // fib 18
    ("sumlist", 1_005_000),    // 50 rounds of 1 + … + 200
    ("churn", 0),              // the garbage is discarded
    ("naive_rev", 60),         // length of the reversed list
    ("tree_insert", 150),      // one node per insertion
    ("pipeline", 7650),        // 2 · (3 + 6 + … + 150)
    ("nqueens", 4),            // solutions of 6 queens
    ("poly_depth", 200),       // length of the copied list
    ("live_and_dead", 200),    // 100 kept + 100 measured
    ("closure_farm", 173_000), // Σ_{k=1..40} (210 k + 20)
    ("poly_deep", 120),        // one pair per element
    ("poly_capture", 2),       // f 1 = 1 + 1
    ("ho_pure", 1328),         // Σ_{k=1..50} (k + 1) + 3
    ("mergesort", 1),          // the output is sorted
    ("sieve", 22),             // primes up to 80
    ("church", 30),            // Church numeral 30 applied to succ
    ("interp", 2720),          // 20 · (eval (mk 8) mod 1000)
];

/// What a service handler must answer for argument `n`, by handler
/// name; `None` for a handler the benchmark never sends.
pub fn handler_expected(entry: &str, n: i64) -> Option<i64> {
    Some(match entry {
        "req_churn" => n * (n + 1) / 2,
        // `table = build 48` sums to 48 · 49 / 2.
        "req_scan" => 1176 + n,
        "req_tree" => n,
        "req_close" => n * (n + 1),
        "req_spin" => n,
        // 60 tables of `build 100`, each headed by 100.
        "req_heads" => n + 6000,
        _ => return None,
    })
}

/// What `deep.tfml` prints for payload head `a`: 200 · (1 + … + 100)
/// from `churn`, plus one `keep` per level of the 20000-deep recursion,
/// plus the payload's head.
pub fn deep_expected(a: i64) -> i64 {
    200 * 5050 + 20_000 + a
}

/// Whether a rendered response is the expected one.
pub fn response_ok(entry: &str, n: i64, rendered: &str) -> bool {
    handler_expected(entry, n).is_some_and(|want| rendered == want.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms() {
        assert_eq!(handler_expected("req_churn", 10), Some(55));
        assert_eq!(handler_expected("req_scan", 4), Some(1180));
        assert_eq!(handler_expected("req_close", 3), Some(12));
        assert_eq!(handler_expected("req_heads", 7), Some(6007));
        assert_eq!(handler_expected("req_runaway", 1), None);
    }

    #[test]
    fn rejects_a_planted_wrong_response() {
        assert!(response_ok("req_churn", 10, "55"));
        assert!(!response_ok("req_churn", 10, "56"));
        assert!(!response_ok("req_tree", 9, "<error: out of memory>"));
        assert!(!response_ok("req_hog", 9, "9"));
    }

    #[test]
    fn covers_the_whole_suite_in_order() {
        let names: Vec<_> = tfgc::workloads::suite()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let expected: Vec<_> = SUITE_EXPECTED.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
    }
}
