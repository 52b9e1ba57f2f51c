//! The VM's dispatch loop: every way of driving it must execute the same
//! program the same way.
//!
//! `Vm::exec` runs a budget of instructions in one loop; `step()` is a
//! budget of one and `run()` an unbounded budget. Single-stepping and
//! running must agree on every observable: the result, the printed
//! output, every mutator counter, the heap counters and the
//! deterministic collector counters. The instruction budget
//! (`max_steps`) must refuse exactly the instruction a one-at-a-time
//! check would, and the request engine's per-request fuel, which is
//! spent a straight-line stretch at a time, must be charged exactly as
//! one instruction at a time charged it.

use tfgc::gc::{GcStats, Strategy};
use tfgc::runtime::HeapStats;
use tfgc::tasking::{
    find_fn, serve_requests_overload, OverloadConfig, Request, ServeReport, SuspendPolicy,
    TaskConfig,
};
use tfgc::vm::{MutatorStats, StepEvent, Vm};
use tfgc::{Compiled, VmConfig, VmError};

/// Everything a run makes observable, with wall-clock time removed.
#[derive(Debug, PartialEq)]
struct Observed {
    result: String,
    printed: Vec<i64>,
    mutator: MutatorStats,
    heap: HeapStats,
    gc: GcStats,
    descs_interned: usize,
}

fn by_steps(c: &Compiled, cfg: VmConfig) -> Observed {
    let mut vm = Vm::new(&c.program, cfg);
    let w = loop {
        match vm.step().expect("step") {
            StepEvent::Done(w) => break w,
            StepEvent::Continue => {}
            StepEvent::AllocBlocked(_) => unreachable!("non-cooperative mode collects inline"),
        }
    };
    Observed {
        result: vm.render(w, &c.program.main_ty),
        printed: std::mem::take(&mut vm.printed),
        mutator: vm.mutator,
        heap: vm.heap.stats,
        gc: vm.gc_stats.deterministic(),
        descs_interned: vm.descs.len(),
    }
}

fn by_run(c: &Compiled, cfg: VmConfig) -> Observed {
    let out = c.run_with(cfg).expect("run");
    Observed {
        result: out.result,
        printed: out.printed,
        mutator: out.mutator,
        heap: out.heap,
        gc: out.gc.deterministic(),
        descs_interned: out.descs_interned,
    }
}

#[test]
fn single_stepping_and_running_agree_on_the_suite() {
    let mut collections = 0;
    for (name, src) in tfgc::workloads::suite() {
        let c = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in Strategy::ALL {
            let small = VmConfig::new(s)
                .heap_words(1 << 13)
                .heap_max_words(1 << 18)
                .force_gc_every(40);
            for (label, cfg) in [("default heap", VmConfig::new(s)), ("small heap", small)] {
                let stepped = by_steps(&c, cfg.clone());
                let ran = by_run(&c, cfg);
                assert_eq!(stepped, ran, "{name} under {s}, {label}");
                collections += ran.gc.collections;
            }
        }
    }
    assert!(collections > 0, "the small-heap runs must collect");
}

/// Instructions `run()` executes for `src` under `s`.
fn instructions(c: &Compiled, s: Strategy) -> u64 {
    c.run_with(VmConfig::new(s))
        .expect("run")
        .mutator
        .instructions
}

fn limited(s: Strategy, limit: u64) -> VmConfig {
    let mut cfg = VmConfig::new(s).heap_words(1 << 12).heap_max_words(1 << 16);
    cfg.max_steps = Some(limit);
    cfg
}

#[test]
fn step_limit_refuses_exactly_the_instruction_past_the_budget() {
    let suite = tfgc::workloads::suite();
    for (name, src) in suite.iter().take(6) {
        let c = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in [Strategy::Compiled, Strategy::Tagged] {
            let n = instructions(&c, s);
            let out = c
                .run_with(limited(s, n))
                .unwrap_or_else(|e| panic!("{name} under {s} with a budget of exactly {n}: {e}"));
            assert_eq!(out.mutator.instructions, n, "{name} under {s}");

            let mut vm = Vm::new(&c.program, limited(s, n - 1));
            let err = vm.run().expect_err("one instruction short");
            assert_eq!(err, VmError::StepLimit { limit: n - 1 }, "{name} under {s}");
            assert_eq!(vm.mutator.instructions, n - 1, "{name} under {s}");

            // Single-stepping fails at the same instruction.
            let mut vm = Vm::new(&c.program, limited(s, n - 1));
            let mut completed = 0;
            let err = loop {
                match vm.step() {
                    Ok(StepEvent::Continue) => completed += 1,
                    Ok(other) => panic!("{name} under {s}: {other:?} before the limit"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err, VmError::StepLimit { limit: n - 1 }, "{name} under {s}");
            assert_eq!(completed, n - 1, "{name} under {s}");
        }
    }
}

#[test]
fn exec_budgets_split_a_run_without_changing_it() {
    let (name, src) = &tfgc::workloads::suite()[2];
    let c = Compiled::compile(src).unwrap();
    let whole = by_run(&c, VmConfig::new(Strategy::Compiled));
    for budget in [1, 2, 7, 64, 1000] {
        for stop in [false, true] {
            let mut vm = Vm::new(&c.program, VmConfig::new(Strategy::Compiled));
            let mut completed = 0;
            let w = loop {
                let (res, ran) = vm.exec(budget, stop);
                assert!(ran <= budget, "{name}: ran {ran} of a budget of {budget}");
                completed += ran;
                match res.expect("exec") {
                    StepEvent::Done(w) => break w,
                    StepEvent::Continue if ran == 0 => {
                        assert!(stop, "an empty stretch only stops before a safe point");
                        assert!(
                            vm.current_site().is_some(),
                            "{name}: stopped off a safe point"
                        );
                        let (res, ran) = vm.exec(1, false);
                        completed += ran;
                        if let StepEvent::Done(w) = res.expect("exec") {
                            break w;
                        }
                    }
                    StepEvent::Continue => {}
                    StepEvent::AllocBlocked(_) => unreachable!(),
                }
            };
            assert_eq!(vm.render(w, &c.program.main_ty), whole.result);
            assert_eq!(
                vm.mutator, whole.mutator,
                "{name}: budget {budget}, stop {stop}"
            );
            assert_eq!(completed, whole.mutator.instructions);
        }
    }
}

/// FNV-1a over a rendering of everything deterministic in a service
/// report.
fn report_digest(r: &ServeReport) -> u64 {
    let mut s = String::new();
    for o in &r.outcomes {
        s.push_str(&format!("{}|{:?}|{:?}\n", o.result, o.error, o.shed));
    }
    s.push_str(&format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{} {} {} {}\n{} {} {}\n",
        r.printed,
        r.mutator,
        r.heap,
        r.gc.deterministic(),
        r.suspension_checks,
        r.suspension_events,
        r.total_suspension_latency,
        r.max_suspension_latency,
        r.completed,
        r.failed,
        r.shed,
    ));
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The service mix over a 2Ki-word heap, with every ninth request a
/// runaway and, when `fuel` is set, that per-request instruction budget.
/// Returns the `spent` of every request that ran out of fuel, in request
/// order, and the report digest.
fn service(strategy: Strategy, fuel: Option<u64>) -> (Vec<u64>, u64) {
    let c = Compiled::compile(tfgc::SERVICE_SRC).unwrap();
    let mut traffic = tfgc::serve::build_traffic(&c.program, 1, 200, &tfgc::serve::MIX);
    let runaway = find_fn(&c.program, "req_runaway").unwrap();
    for (i, r) in traffic.iter_mut().enumerate() {
        if i % 9 == 4 {
            *r = Request::new(runaway, 1, 9);
        }
        r.fuel = fuel;
    }
    let mut tc = TaskConfig::new(strategy);
    tc.heap_words = 1 << 11;
    tc.heap_max_words = Some(1 << 16);
    tc.policy = SuspendPolicy::EveryCall;
    let over = OverloadConfig {
        deadline_quanta: Some(400),
        ..OverloadConfig::none()
    };
    let (report, _) =
        serve_requests_overload(&c.program, &traffic, 4, 0, tc, over, tfgc::obs::Obs::null())
            .expect("serve");
    assert_eq!(
        report.completed + report.failed + report.shed,
        traffic.len() as u64,
        "conservation"
    );
    let spent = report
        .outcomes
        .iter()
        .filter_map(|o| match o.error {
            Some(VmError::DeadlineExceeded {
                spent,
                unit: "instructions",
                ..
            }) => Some(spent),
            _ => None,
        })
        .collect();
    (spent, report_digest(&report))
}

#[test]
fn service_runs_match_the_one_instruction_at_a_time_scheduler() {
    for (strategy, fuel, want_count, want_sum, want_digest) in PINNED_SERVICE {
        let (spent, digest) = service(strategy, fuel);
        if let Some(f) = fuel {
            assert!(f % 64 != 0, "the budget must run out mid-quantum");
            assert!(spent.iter().all(|s| *s >= f), "{strategy}: {spent:?}");
        }
        let sum: u64 = spent.iter().sum();
        assert_eq!(
            (spent.len(), sum),
            (want_count, want_sum),
            "{strategy} fuel {fuel:?}: spent values {spent:?}"
        );
        assert_eq!(
            digest, want_digest,
            "{strategy} fuel {fuel:?}: report digest"
        );
    }
}

/// `(strategy, per-request fuel, requests that ran dry, sum of their
/// spent instructions, report digest)`, as the scheduler produced them
/// when it executed one instruction per step. The digest covers every
/// outcome (each `DeadlineExceeded` with its `spent`), the mutator, heap
/// and deterministic collector counters, and the suspension statistics.
const PINNED_SERVICE: [(Strategy, Option<u64>, usize, u64, u64); 7] = [
    (Strategy::Compiled, None, 0, 0, 0xc980_2360_73da_4426),
    (Strategy::Tagged, None, 0, 0, 0x12cc_f336_10f3_ff92),
    (
        Strategy::Compiled,
        Some(1111),
        38,
        43752,
        0x864d_31ad_0fd8_255c,
    ),
    (
        Strategy::Tagged,
        Some(2222),
        22,
        49304,
        0x3127_c5fd_7ecd_e331,
    ),
    (
        Strategy::AppelPerFn,
        Some(999),
        43,
        44072,
        0x0c9f_9011_3a36_8547,
    ),
    (
        Strategy::CompiledNoLiveness,
        Some(1500),
        33,
        50703,
        0x1ff7_8674_a355_cdb0,
    ),
    (
        Strategy::Interpreted,
        Some(3333),
        22,
        74569,
        0x8bd3_7221_6ee8_ac8f,
    ),
];
