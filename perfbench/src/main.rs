//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite|serve|live|deep|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-spec BENCHMARK.json
//! ```
//!
//! Prints every end-to-end and per-layer metric by name with its unit,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics. `--trace 1` also writes the last repetition's spans to
//! `perfbench/out/`. See `perfbench/README.md`.

mod oracle;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use tfgc::gc::Strategy;
use tfgc::obs::Json;

use spec::{Metric, END_TO_END, PER_LAYER};
use stats::{median, quantile, quartile_spread};
use trace::Tracer;
use workloads::{Rep, Workload};

/// Measured repetitions per run, at least, however long they take.
const MIN_REPS: usize = 5;
/// Fewest pooled pauses a p99 pause is reported from.
const MIN_PAUSES_FOR_P99: usize = 1000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_spec: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        write_spec: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--write-spec" => args.write_spec = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// A measured value and, when it summarises repetitions, how much the
/// repetitions differed (quartile spread as a share of their median).
#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    spread: Option<f64>,
}

fn fixed(value: f64) -> Value {
    Value {
        value,
        spread: None,
    }
}

/// The best (least) repetition. Other tenants of a shared machine only
/// ever add time, in phases that can last a whole run, so the fastest
/// repetition is the steadiest estimate of the code's own cost.
fn best(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Value {
    let v: Vec<f64> = reps.iter().map(f).collect();
    Value {
        value: v.iter().copied().reduce(f64::min).unwrap_or(0.0),
        spread: Some(quartile_spread(&v)),
    }
}

/// Element `i` is the least of element `i` over all repetitions: each
/// program's (or drain's) best run.
fn part_minima(reps: &[Rep], f: impl Fn(&Rep) -> &[f64]) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for r in reps {
        let parts = f(r);
        if best.is_empty() {
            best = parts.to_vec();
        }
        for (b, &p) in best.iter_mut().zip(parts) {
            *b = b.min(p);
        }
    }
    best
}

/// The sum of every part's best repetition, times `scale`. A `suite`
/// pass is 17 program runs of ~0.5 ms each: the fastest run of each
/// program is far likelier to have met a quiet moment of the machine
/// than the fastest whole pass. With one part (a drain, the one `deep`
/// run) this is the best repetition.
fn best_parts(reps: &[Rep], scale: f64, f: impl Fn(&Rep) -> &[f64]) -> Value {
    let totals: Vec<f64> = reps.iter().map(|r| f(r).iter().sum::<f64>()).collect();
    Value {
        value: part_minima(reps, f).iter().sum::<f64>() * scale,
        spread: Some(quartile_spread(&totals)),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The outcome of one workload run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, Value>,
}

fn run(name: &str, seed: u64, seconds: f64, write_trace: bool) -> Result<RunResult, String> {
    // Set-up is repeated before every repetition, so that `setup_s`, the
    // median, sees the same machine conditions as the timed work.
    let timed_setup = |setups: &mut Vec<f64>| {
        let t = Instant::now();
        let wl = workloads::setup(name, seed);
        setups.push(t.elapsed().as_secs_f64());
        wl
    };
    let mut setups = Vec::new();
    let wl = timed_setup(&mut setups)?;

    // The warm-up repetition fills caches and is the reference for the
    // same-program self-check; it is not measured.
    let mut tracer = Tracer::default();
    let warm = wl.rep(&mut tracer)?;
    tracer.reset();
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        std::hint::black_box(timed_setup(&mut setups)?);
        reps.push(wl.rep(&mut tracer)?);
    }

    let mismatches = self_check(&warm, &reps);
    for m in &mismatches {
        println!("self-check FAILED: {m}");
    }
    let all = || std::iter::once(&warm).chain(&reps);
    let execs = || all().flat_map(|r| r.untraced.iter().chain([&r.traced]));
    let attempted: u64 = execs().map(|e| e.attempted).sum();
    let failed: u64 = execs().map(|e| e.bad).sum();

    let values = metrics(&wl, &warm, &reps, &tracer, &setups);
    println!(
        "workload {name} seed {seed}: {} repetitions (+1 warm-up) in {:.1} s; {attempted} attempted, {failed} failed (failed_ratio {})",
        reps.len(),
        start.elapsed().as_secs_f64(),
        ratio(failed as f64, attempted as f64),
    );
    if mismatches.is_empty() {
        println!(
            "self-check: deterministic counters identical across all {} executions",
            execs().count()
        );
    }
    tracer.with_samples(|s| {
        println!(
            "samples: {} request latencies, {} pauses, {} park waits (traced, measured repetitions)",
            reps.iter().map(|r| r.latency_ns.len()).sum::<usize>(),
            s.pause_ns.len(),
            s.park_wait_ns.len()
        )
    });
    print_table("end-to-end", &END_TO_END, &values);
    print_table("per-layer", &PER_LAYER, &values);
    print_layers(&tracer);
    if write_trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{name}-seed{seed}.trace.json");
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(reps.len()).to_json()))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("trace: {path}");
    }
    Ok(RunResult {
        correct: failed == 0 && mismatches.is_empty(),
        attempted,
        failed,
        values,
    })
}

/// Compares every execution's deterministic counters with the warm-up
/// repetition's: a difference means two runs did not execute the same
/// program on the same inputs.
fn self_check(warm: &Rep, reps: &[Rep]) -> Vec<String> {
    let mut out = Vec::new();
    let compiled = &warm.compiled().counters;
    for (i, r) in std::iter::once(warm).chain(reps).enumerate() {
        for (e, w) in r.untraced.iter().zip(&warm.untraced) {
            if e.counters != w.counters {
                out.push(format!(
                    "repetition {i}, {}: {:?} != {:?}",
                    e.strategy.name(),
                    e.counters,
                    w.counters
                ));
            }
        }
        if r.traced.counters != *compiled {
            out.push(format!(
                "repetition {i}, traced: {:?} != {:?}",
                r.traced.counters, compiled
            ));
        }
        if (r.front.ir_instrs, r.front.metadata_bytes, r.events)
            != (warm.front.ir_instrs, warm.front.metadata_bytes, warm.events)
        {
            out.push(format!(
                "repetition {i}: front-end counts or sink events differ"
            ));
        }
    }
    out
}

fn metrics(
    wl: &Workload,
    warm: &Rep,
    reps: &[Rep],
    tracer: &Tracer,
    setups: &[f64],
) -> BTreeMap<&'static str, Value> {
    let mut m = BTreeMap::new();
    let lower = |f: &dyn Fn(&Rep) -> f64| best(reps, f);
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let c = warm.compiled().counters;
    let (pauses, parks) = tracer.with_samples(|s| (s.pause_ns.clone(), s.park_wait_ns.clone()));
    let traced_requests: u64 = reps.iter().map(|r| r.traced.attempted).sum();

    m.insert(
        "setup_s",
        Value {
            value: median(setups),
            spread: Some(quartile_spread(setups)),
        },
    );
    m.insert("compile_ms", best_parts(reps, 1e-6, |r| &r.compile_ns));
    for (name, s) in [
        ("run_ms.compiled", Strategy::Compiled),
        ("run_ms.interpreted", Strategy::Interpreted),
        ("run_ms.compiled-nolive", Strategy::CompiledNoLiveness),
        ("run_ms.appel", Strategy::AppelPerFn),
        ("run_ms.tagged", Strategy::Tagged),
    ] {
        m.insert(
            name,
            best_parts(reps, 1e-6, |r| r.untraced(s).map_or(&[], |e| &e.parts_ns)),
        );
    }
    // Correct requests (program runs) per second of the best drain (pass).
    let e = warm.compiled();
    let secs = best_parts(reps, 1e-9, |r| &r.compiled().parts_ns);
    m.insert(
        "throughput_rps",
        Value {
            value: (e.attempted - e.bad) as f64 / secs.value,
            spread: secs.spread,
        },
    );
    for (name, q) in [("latency_p50_us", 0.5), ("latency_p99_us", 0.99)] {
        let per_rep = |r: &Rep| quantile(&r.latency_ns, q) / 1e3;
        let v = if wl.is_service() {
            lower(&per_rep)
        } else {
            // A request is one program run: each program's best traced
            // run, as for the `run_ms` metrics.
            Value {
                value: quantile(&part_minima(reps, |r| &r.latency_ns), q) / 1e3,
                spread: Some(quartile_spread(
                    &reps.iter().map(per_rep).collect::<Vec<_>>(),
                )),
            }
        };
        m.insert(name, v);
    }
    m.insert("heap_words_allocated", fixed(c.words_allocated as f64));

    m.insert("syntax.parse_us", lower(&|r| us(r.front.parse_ns)));
    m.insert("types.elaborate_us", lower(&|r| us(r.front.elaborate_ns)));
    m.insert("ir.lower_us", lower(&|r| us(r.front.lower_ns)));
    m.insert("ir.instrs", fixed(warm.front.ir_instrs as f64));
    m.insert("analysis.compute_us", lower(&|r| us(r.front.analyses_ns)));
    m.insert("gc.meta_build_us", lower(&|r| us(r.front.meta_ns)));
    m.insert("gc.metadata_bytes", fixed(warm.front.metadata_bytes as f64));
    m.insert("vm.instructions", fixed(c.instructions as f64));
    let ns_per_instr = lower(&|r| {
        let e = r.compiled();
        ratio((e.wall_ns - e.pause_ns) as f64, c.instructions as f64)
    });
    let (vm, tasking) = if wl.is_service() {
        (fixed(0.0), ns_per_instr)
    } else {
        (ns_per_instr, fixed(0.0))
    };
    m.insert("vm.ns_per_instr", vm);
    m.insert("tasking.ns_per_instr", tasking);
    m.insert(
        "tasking.suspension_events",
        fixed(c.suspension_events as f64),
    );
    m.insert(
        "tasking.max_suspension_latency",
        fixed(c.max_suspension_latency as f64),
    );
    m.insert(
        "tasking.park_wait_us_p99",
        fixed(quantile(&parks, 0.99) / 1e3),
    );
    m.insert("gc.collections", fixed(c.collections as f64));
    m.insert("gc.frames_visited", fixed(c.frames_visited as f64));
    m.insert("runtime.words_copied", fixed(c.words_copied as f64));
    m.insert("runtime.allocations", fixed(c.allocations as f64));
    m.insert(
        "gc.plan_hit_ratio",
        fixed(ratio(c.plan_hits as f64, c.plan_lookups as f64)),
    );
    m.insert("gc.pause_ms", lower(&|r| ms(r.compiled().pause_ns)));
    m.insert(
        "gc.pause_mean_us",
        lower(&|r| ratio(us(r.compiled().pause_ns), c.collections as f64)),
    );
    let p99 = if pauses.len() >= MIN_PAUSES_FOR_P99 {
        quantile(&pauses, 0.99) / 1e3
    } else {
        0.0
    };
    m.insert("gc.pause_p99_us", fixed(p99));
    m.insert(
        "gc.ns_per_frame",
        lower(&|r| ratio(r.compiled().pause_ns as f64, c.frames_visited as f64)),
    );
    m.insert(
        "gc.ns_per_word",
        lower(&|r| ratio(r.compiled().pause_ns as f64, c.words_copied as f64)),
    );
    let traced = lower(&|r| r.traced.wall_ns as f64);
    let untraced = lower(&|r| r.compiled().wall_ns as f64);
    m.insert(
        "obs.trace_overhead_pct",
        fixed((traced.value / untraced.value - 1.0) * 100.0),
    );
    m.insert(
        "obs.events_per_request",
        fixed(ratio(tracer.events() as f64, traced_requests as f64)),
    );
    m
}

fn print_table(title: &str, specs: &[Metric], values: &BTreeMap<&'static str, Value>) {
    println!("{title}:");
    for s in specs {
        let v = values[s.name];
        let spread = v.spread.map_or(String::new(), |x| {
            format!("  (quartile spread {:.1}%)", x * 100.0)
        });
        println!("  {:<32} {:>16.4} {:<14}{spread}", s.name, v.value, s.unit);
    }
}

fn print_layers(tracer: &Tracer) {
    println!(
        "traced span time per layer (self = minus child spans; requests overlap across slots):"
    );
    for (name, l) in tracer.layers() {
        println!(
            "  {name:<20} {:>8} spans {:>12.3} ms total {:>12.3} ms self",
            l.spans,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
}

/// The last line of output.
fn result_line(r: &RunResult, specs: &[Metric]) -> String {
    let metrics = specs
        .iter()
        .map(|s| {
            (
                s.name.to_string(),
                Json::obj([
                    ("value", Json::Num(r.values[s.name].value)),
                    ("unit", Json::str(s.unit)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::from(r.attempted)),
        ("failed", Json::from(r.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_json()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_spec {
        return match std::fs::write(path, spec::benchmark_json().to_json_pretty()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing {path}: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut correct = true;
    for name in names {
        match run(name, args.seed, args.seconds, args.trace) {
            Ok(r) => {
                correct &= r.correct;
                println!(
                    "{}",
                    result_line(&r, if args.trace { &PER_LAYER } else { &END_TO_END })
                );
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Counters, Exec, FrontEnd};

    fn rep(instructions: u64, traced_digest: u64) -> Rep {
        let exec = |digest| Exec {
            strategy: Strategy::Compiled,
            wall_ns: 1,
            parts_ns: vec![1.0],
            pause_ns: 0,
            counters: Counters {
                instructions,
                digest,
                ..Counters::default()
            },
            attempted: 1,
            bad: 0,
        };
        Rep {
            compile_ns: vec![1.0],
            untraced: vec![exec(7)],
            traced: exec(traced_digest),
            front: FrontEnd::default(),
            events: 0,
            latency_ns: vec![1.0],
        }
    }

    #[test]
    fn self_check_flags_a_differing_counter() {
        let warm = rep(100, 7);
        assert!(self_check(&warm, &[rep(100, 7), rep(100, 7)]).is_empty());
        assert_eq!(
            self_check(&warm, &[rep(100, 7), rep(101, 7)]).len(),
            2,
            "untraced and traced both differ"
        );
        assert_eq!(
            self_check(&warm, &[rep(100, 8)]).len(),
            1,
            "tracing changed the results"
        );
    }

    #[test]
    fn best_parts_sums_each_parts_fastest_run() {
        let mut reps = vec![rep(1, 7), rep(1, 7)];
        reps[0].compile_ns = vec![5.0, 1.0, 4.0];
        reps[1].compile_ns = vec![2.0, 3.0, 6.0];
        assert_eq!(part_minima(&reps, |r| &r.compile_ns), [2.0, 1.0, 4.0]);
        assert_eq!(best_parts(&reps, 0.5, |r| &r.compile_ns).value, 3.5);
    }

    #[test]
    fn best_repetition_is_the_fastest() {
        let reps: Vec<Rep> = [3, 1, 2].iter().map(|&n| rep(n, 7)).collect();
        let n = |r: &Rep| r.compiled().counters.instructions as f64;
        assert_eq!(best(&reps, n).value, 1.0);
    }
}
