//! The VM's dispatch loop: every way of driving it must execute the same
//! program the same way.
//!
//! `Vm::exec` runs a budget of instructions in one loop; `step()` is a
//! budget of one and `run()` an unbounded budget. Single-stepping and
//! running must agree on every observable: the result, the printed
//! output, every mutator counter, the heap counters and the
//! deterministic collector counters. The instruction budget
//! (`max_steps`) must refuse exactly the instruction a one-at-a-time
//! check would. The request engine runs a whole quantum per `exec`, with
//! the §4 suspension test made inside the loop; its fuel, suspension
//! checks, parking and latency must come out exactly as the schedulers
//! that stepped one instruction, or one straight-line stretch, at a time
//! produced them.

use tfgc::gc::{GcStats, Strategy};
use tfgc::runtime::HeapStats;
use tfgc::tasking::{
    find_fn, serve_requests_overload, OverloadConfig, Request, ServeReport, SuspendPolicy,
    TaskConfig,
};
use tfgc::vm::{FaultPlan, MutatorStats, SafepointKinds, Safepoints, StepEvent, Vm};
use tfgc::{Compiled, MixEntry, VmConfig, VmError};

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
            StepEvent::Safepoint(_) => unreachable!("step() makes no safe-point stops"),
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
        for stop in [
            SafepointKinds::NONE,
            SafepointKinds::CALLS,
            SafepointKinds::ALL,
        ] {
            let sp = Safepoints {
                check: SafepointKinds::ALL,
                stop,
            };
            let mut vm = Vm::new(&c.program, VmConfig::new(Strategy::Compiled));
            let mut completed = 0;
            let mut checks = 0;
            let w = loop {
                let out = vm.exec(budget, sp);
                assert!(
                    out.ran <= budget,
                    "{name}: ran {} of a budget of {budget}",
                    out.ran
                );
                completed += out.ran;
                checks += out.checks;
                match out.event.expect("exec") {
                    StepEvent::Done(w) => break w,
                    StepEvent::Safepoint(site) => {
                        assert_ne!(stop, SafepointKinds::NONE, "{name}: stopped with no stops");
                        assert_eq!(
                            vm.current_site(),
                            Some(site),
                            "{name}: stopped off a safe point"
                        );
                        let out = vm.exec(1, Safepoints::NONE);
                        completed += out.ran;
                        if let StepEvent::Done(w) = out.event.expect("exec") {
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
                "{name}: budget {budget}, stop {stop:?}"
            );
            assert_eq!(completed, whole.mutator.instructions);
            // Every call and allocation is tested once: on the run that
            // reaches it with budget left, not again on the hop past a
            // stop.
            let m = &whole.mutator;
            assert_eq!(
                checks,
                m.calls + m.closure_calls + whole.heap.allocations,
                "{name}: budget {budget}, stop {stop:?}"
            );
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

/// Which service a pinned run drains.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The service mix, 200 requests over a 2Ki-word heap that may grow
    /// to 64Ki words, every ninth request a runaway, a 400-quantum
    /// deadline.
    Mix,
    /// Experiment E15's persistent-table service (the benchmark's `live`
    /// workload): 60 tables of 100 cells live for the whole run, 400
    /// churn/heads requests, a fixed 16Ki-word heap, quantum 64.
    Live,
}

/// One pinned service run and what it must report.
struct Pinned {
    strategy: Strategy,
    policy: SuspendPolicy,
    shape: Shape,
    /// Per-request instruction budget.
    fuel: Option<u64>,
    /// Soft heap-pressure watermark (proactive collections).
    soft_watermark_pct: Option<u32>,
    /// Allocation sequence number whose task starts spinning.
    stall_at: Option<u64>,
    /// Requests that ran out of fuel, and the sum of their `spent`.
    ran_dry: usize,
    spent_sum: u64,
    /// [`report_digest`] of the run.
    digest: u64,
}

/// The source of the E15 service.
fn live_src() -> String {
    let mut s = String::from(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;\n\
         fun sum xs = case xs of [] => 0 | x :: r => x + sum r ;\n",
    );
    for i in 0..60 {
        s.push_str(&format!("val t{i} = build 100 ;\n"));
    }
    s.push_str("fun req_churn n = sum (build n) ;\nfun req_heads n = n");
    for i in 0..60 {
        s.push_str(&format!(" + (case t{i} of [] => 0 | x :: _ => x)"));
    }
    s.push_str(" ;\n0");
    s
}

/// Drains `case`'s service. Returns the `spent` of every request that
/// ran out of fuel, in request order, and the report digest.
fn service(case: &Pinned) -> (Vec<u64>, u64) {
    let (src, traffic_of): (String, fn(&Compiled) -> Vec<Request>) = match case.shape {
        Shape::Mix => (tfgc::SERVICE_SRC.to_string(), |c| {
            let mut traffic = tfgc::serve::build_traffic(&c.program, 1, 200, &tfgc::serve::MIX);
            let runaway = find_fn(&c.program, "req_runaway").unwrap();
            for (i, r) in traffic.iter_mut().enumerate() {
                if i % 9 == 4 {
                    *r = Request::new(runaway, 1, 9);
                }
            }
            traffic
        }),
        Shape::Live => (live_src(), |c| {
            let mix = [
                MixEntry {
                    name: "churn",
                    entry: "req_churn",
                    weight: 4,
                    lo: 8,
                    hi: 40,
                },
                MixEntry {
                    name: "heads",
                    entry: "req_heads",
                    weight: 1,
                    lo: 1,
                    hi: 8,
                },
            ];
            tfgc::serve::build_traffic(&c.program, 1, 400, &mix)
        }),
    };
    let c = Compiled::compile(&src).unwrap();
    let mut traffic = traffic_of(&c);
    for r in &mut traffic {
        r.fuel = case.fuel;
    }
    let mut tc = TaskConfig::new(case.strategy);
    tc.policy = case.policy;
    tc.quantum = 64;
    let mut over = OverloadConfig {
        soft_watermark_pct: case.soft_watermark_pct,
        ..OverloadConfig::none()
    };
    match case.shape {
        Shape::Mix => {
            tc.heap_words = 1 << 11;
            tc.heap_max_words = Some(1 << 16);
            over.deadline_quanta = Some(400);
        }
        Shape::Live => tc.heap_words = 1 << 14,
    }
    if let Some(n) = case.stall_at {
        tc.fault_plan = Some(FaultPlan {
            stall_at: Some(n),
            ..FaultPlan::none()
        });
    }
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
    for case in &PINNED_SERVICE {
        let label = format!(
            "{} {} {:?} fuel {:?} soft {:?} stall {:?}",
            case.strategy,
            case.policy,
            case.shape,
            case.fuel,
            case.soft_watermark_pct,
            case.stall_at
        );
        let (spent, digest) = service(case);
        if let Some(f) = case.fuel {
            assert!(f % 64 != 0, "the budget must run out mid-quantum");
            assert!(spent.iter().all(|s| *s >= f), "{label}: {spent:?}");
        }
        let sum: u64 = spent.iter().sum();
        assert_eq!(
            (spent.len(), sum),
            (case.ran_dry, case.spent_sum),
            "{label}: spent values {spent:?}"
        );
        assert_eq!(digest, case.digest, "{label}: report digest");
    }
}

/// The every-call service mix under the tag-free compiled strategy, no
/// fuel, watermark or fault; each pinned run overrides what it varies.
const BASE: Pinned = Pinned {
    strategy: Strategy::Compiled,
    policy: SuspendPolicy::EveryCall,
    shape: Shape::Mix,
    fuel: None,
    soft_watermark_pct: None,
    stall_at: None,
    ran_dry: 0,
    spent_sum: 0,
    digest: 0,
};

/// The first seven runs are pinned as the scheduler produced them when
/// it executed one instruction per step; the rest as the scheduler that
/// left the dispatch loop before every call and allocation produced
/// them: the other two suspension policies, the E15 service, proactive
/// collections, and a task stalled at an allocation followed by a call
/// (a safe point under every-call, not under alloc-only). The digest
/// covers every outcome (each `DeadlineExceeded` with its `spent`), the
/// mutator, heap and deterministic collector counters, and the
/// suspension statistics.
const PINNED_SERVICE: [Pinned; 18] = [
    Pinned {
        digest: 0xc980_2360_73da_4426,
        ..BASE
    },
    Pinned {
        strategy: Strategy::Tagged,
        digest: 0x12cc_f336_10f3_ff92,
        ..BASE
    },
    Pinned {
        fuel: Some(1111),
        ran_dry: 38,
        spent_sum: 43752,
        digest: 0x864d_31ad_0fd8_255c,
        ..BASE
    },
    Pinned {
        strategy: Strategy::Tagged,
        fuel: Some(2222),
        ran_dry: 22,
        spent_sum: 49304,
        digest: 0x3127_c5fd_7ecd_e331,
        ..BASE
    },
    Pinned {
        strategy: Strategy::AppelPerFn,
        fuel: Some(999),
        ran_dry: 43,
        spent_sum: 44072,
        digest: 0x0c9f_9011_3a36_8547,
        ..BASE
    },
    Pinned {
        strategy: Strategy::CompiledNoLiveness,
        fuel: Some(1500),
        ran_dry: 33,
        spent_sum: 50703,
        digest: 0x1ff7_8674_a355_cdb0,
        ..BASE
    },
    Pinned {
        strategy: Strategy::Interpreted,
        fuel: Some(3333),
        ran_dry: 22,
        spent_sum: 74569,
        digest: 0x8bd3_7221_6ee8_ac8f,
        ..BASE
    },
    Pinned {
        policy: SuspendPolicy::AllocationOnly,
        digest: 0x936d_c793_7f67_1f0e,
        ..BASE
    },
    Pinned {
        policy: SuspendPolicy::EveryCallRgc,
        digest: 0xe528_bf30_d119_51b6,
        ..BASE
    },
    Pinned {
        strategy: Strategy::Tagged,
        policy: SuspendPolicy::AllocationOnly,
        fuel: Some(1111),
        ran_dry: 38,
        spent_sum: 43757,
        digest: 0xdeef_a2c8_09d3_9821,
        ..BASE
    },
    Pinned {
        strategy: Strategy::Interpreted,
        policy: SuspendPolicy::EveryCallRgc,
        fuel: Some(2222),
        ran_dry: 23,
        spent_sum: 51529,
        digest: 0x0259_3e11_dd09_fe65,
        ..BASE
    },
    Pinned {
        shape: Shape::Live,
        digest: 0x1963_b079_000f_1109,
        ..BASE
    },
    Pinned {
        strategy: Strategy::Interpreted,
        shape: Shape::Live,
        digest: 0xf607_eeae_9a24_66da,
        ..BASE
    },
    Pinned {
        policy: SuspendPolicy::AllocationOnly,
        shape: Shape::Live,
        digest: 0x5a7f_2f6a_b2c7_e1d9,
        ..BASE
    },
    Pinned {
        shape: Shape::Live,
        soft_watermark_pct: Some(80),
        digest: 0x2ec1_41df_4233_6f73,
        ..BASE
    },
    Pinned {
        soft_watermark_pct: Some(50),
        digest: 0xb3d8_4a2d_5ed4_2d24,
        ..BASE
    },
    Pinned {
        stall_at: Some(2000),
        digest: 0x890c_7c03_17e1_8aca,
        ..BASE
    },
    Pinned {
        policy: SuspendPolicy::AllocationOnly,
        stall_at: Some(2000),
        digest: 0x8fcb_8438_047b_c0da,
        ..BASE
    },
];
