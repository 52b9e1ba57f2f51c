//! The benchmark's contract: its workloads and every metric it reports,
//! with units. `BENCHMARK.json` at the repository root is generated
//! from these tables (`--write-spec`), and a test keeps the two equal.

use tfgc::obs::Json;

/// Seconds one run measures. Contended phases of the shared host last
/// up to a minute or more, so a run is as long as the time allowed for
/// all runs of two workloads permits, to contain some quiet moment.
pub const RUN_SECONDS: u64 = 55;

/// The workloads `BENCHMARK.json` lists, and why each was chosen.
/// Between them they exercise every layer. `serve` and `deep` still run
/// by name (`--workload`), but are not listed: four workloads would
/// allow only 30 s runs, which whole contended phases covered.
pub const WORKLOADS: [(&str, &str); 2] = [
    (
        "suite",
        "17 suite programs x 5 strategies at the default heap: front end and VM dispatch do the work, \
         nothing collects; tagged vs tag-free in wall clock",
    ),
    (
        "live",
        "E15 service, 4000 requests, 4 slots, fixed 16Ki-word heap, no nursery: each collection recopies \
         the ~12Ki-word live table, so the copy loop dominates GC",
    ),
];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; reported by every workload, never 0.
///
/// The time bounds are wide for a shared host. On a 2-vCPU Xeon VM,
/// contention from other tenants came in phases of seconds to over a
/// minute that slowed `suite` by up to 1.8×, and sometimes lasted whole
/// 30 s runs; sets of ten runs then showed quartile spreads of up to
/// 28% (`perfbench/README.md`).
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("compile_ms", "ms", Lower, 0.25),
    e2e("run_ms.compiled", "ms", Lower, 0.25),
    e2e("run_ms.interpreted", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("heap_words_allocated", "words", Lower, 0.15),
];

/// One layer at a time, named after the crates. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 28] = [
    layer("syntax.parse_us", "us", Lower),
    layer("types.elaborate_us", "us", Lower),
    layer("ir.lower_us", "us", Lower),
    layer("ir.instrs", "count", Lower),
    layer("analysis.compute_us", "us", Lower),
    layer("gc.meta_build_us", "us", Lower),
    layer("gc.metadata_bytes", "bytes", Lower),
    layer("vm.instructions", "count", Lower),
    layer("vm.ns_per_instr", "ns/instr", Lower),
    layer("tasking.ns_per_instr", "ns/instr", Lower),
    layer("tasking.suspension_events", "count", Lower),
    layer("tasking.max_suspension_latency", "instr", Lower),
    layer("tasking.park_wait_us_p99", "us", Lower),
    layer("gc.collections", "count", Lower),
    layer("gc.frames_visited", "count", Lower),
    layer("runtime.words_copied", "words", Lower),
    layer("runtime.allocations", "count", Lower),
    layer("gc.plan_hit_ratio", "ratio", Higher),
    layer("gc.pause_ms", "ms", Lower),
    layer("gc.pause_mean_us", "us", Lower),
    layer("gc.pause_p99_us", "us", Lower),
    layer("gc.ns_per_frame", "ns/frame", Lower),
    layer("gc.ns_per_word", "ns/word", Lower),
    layer("obs.trace_overhead_pct", "%", Lower),
    layer("obs.events_per_request", "events/request", Lower),
    layer("run_ms.compiled-nolive", "ms", Lower),
    layer("run_ms.appel", "ms", Lower),
    layer("run_ms.tagged", "ms", Lower),
];

/// The command that runs one workload, from the repository root.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", Json::arr(COMMAND.map(Json::str))),
        ("paths", Json::arr([Json::str("perfbench")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(WORKLOADS.map(|(name, why)| {
                Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
            })),
        ),
        ("end_to_end", Json::arr(END_TO_END.iter().map(metric))),
        ("per_layer", Json::arr(PER_LAYER.iter().map(metric))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "unit of {}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn committed_benchmark_json_round_trips() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let parsed = tfgc::obs::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            benchmark_json(),
            "regenerate with --write-spec BENCHMARK.json"
        );
        assert_eq!(parsed.to_json_pretty(), text);
    }
}
