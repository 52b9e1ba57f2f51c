//! The four workloads and one repetition of each.
//!
//! A repetition makes the untraced executions (every end-to-end number
//! except latency comes from them) and then a traced execution of the
//! compiled strategy, with the front-end phases timed one call at a
//! time around it. Each layer is measured from outside, by timing calls
//! into its public functions and reading the stats those calls return.

use std::time::Instant;

use tfgc::gc::{Analyses, GcMeta, Strategy};
use tfgc::obs::Obs;
use tfgc::tasking::{
    serve_requests_overload, OverloadConfig, Request, ServeReport, SuspendPolicy, TaskConfig,
};
use tfgc::vm::Vm;
use tfgc::workloads::{fnv1a64, SmallRng};
use tfgc::{Compiled, MixEntry, RunOutcome, VmConfig};

use crate::oracle;
use crate::trace::{SpanId, Tracer};

/// Requests per service execution (`serve` and `live`).
pub const REQUESTS: usize = 4_000;
/// Cooperative slots draining the queue.
pub const POOL: usize = 4;
/// Semispace size of `live` and `deep`, in words.
const FIXED_HEAP_WORDS: usize = 1 << 14;

/// Counters that depend only on the program and its inputs: every
/// repetition of one workload and seed must reproduce them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub instructions: u64,
    pub allocations: u64,
    pub words_allocated: u64,
    pub words_copied: u64,
    pub frames_visited: u64,
    pub collections: u64,
    pub plan_hits: u64,
    pub plan_lookups: u64,
    pub suspension_events: u64,
    pub max_suspension_latency: u64,
    /// FNV-1a over every rendered result, in order.
    pub digest: u64,
}

/// One timed execution call (a pass over the suite, one `deep` run, or
/// one service drain).
#[derive(Debug, Clone)]
pub struct Exec {
    pub strategy: Strategy,
    pub wall_ns: u64,
    /// Wall time of each program run (`suite`, `deep`) or of the one
    /// drain (service), in ns; they add up to `wall_ns`.
    pub parts_ns: Vec<f64>,
    pub pause_ns: u64,
    pub counters: Counters,
    /// Requests (service) or program runs (suite, `deep`) attempted.
    pub attempted: u64,
    /// Failed, shed, or answered wrongly.
    pub bad: u64,
}

/// Front-end work of the traced half, timed call by call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontEnd {
    pub parse_ns: u64,
    pub elaborate_ns: u64,
    pub lower_ns: u64,
    pub analyses_ns: u64,
    pub meta_ns: u64,
    /// Bytecode instructions emitted.
    pub ir_instrs: u64,
    /// Metadata footprint of the compiled strategy.
    pub metadata_bytes: u64,
}

/// Everything one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// `Compiled::compile` of each of the workload's sources, untraced.
    pub compile_ns: Vec<f64>,
    /// One execution per strategy, compiled first.
    pub untraced: Vec<Exec>,
    /// The compiled strategy again, with the tracer's sink attached.
    pub traced: Exec,
    pub front: FrontEnd,
    /// Sink events received during the traced execution.
    pub events: u64,
    /// Latency of each request of the traced execution, in ns.
    pub latency_ns: Vec<f64>,
}

impl Rep {
    /// The untraced execution under `compiled`.
    pub fn compiled(&self) -> &Exec {
        &self.untraced[0]
    }

    /// The untraced execution under `s`, if the workload runs it.
    pub fn untraced(&self, s: Strategy) -> Option<&Exec> {
        self.untraced.iter().find(|e| e.strategy == s)
    }
}

/// A workload after set-up, ready to repeat.
pub enum Workload {
    /// Whole programs, each run by `Vm::run` (`suite`, `deep`).
    Programs(Programs),
    /// One service drained by `serve_requests_overload` (`serve`, `live`).
    Service(Box<Service>),
}

pub struct Programs {
    /// Name, source and expected printed value, in the seeded run order.
    sources: Vec<(&'static str, String, i64)>,
    compiled: Vec<Compiled>,
    strategies: &'static [Strategy],
    /// Semispace words (`None` = the `VmConfig` default).
    heap_words: Option<usize>,
}

pub struct Service {
    src: String,
    compiled: Compiled,
    traffic: Vec<Request>,
    /// Handler name per request kind, for the oracle.
    handlers: Vec<&'static str>,
    heap_words: usize,
    heap_max_words: Option<usize>,
}

/// Names accepted by `--workload`.
pub const NAMES: [&str; 4] = ["suite", "serve", "live", "deep"];

const BOTH: [Strategy; 2] = [Strategy::Compiled, Strategy::Interpreted];

/// Builds a workload's inputs from `seed` and compiles its program(s):
/// everything before the first timed call.
pub fn setup(name: &str, seed: u64) -> Result<Workload, String> {
    let compile = |src: &str| Compiled::compile(src).map_err(|e| format!("{name}: {e}"));
    let mut rng = SmallRng::seed_from_u64(seed);
    match name {
        "suite" => {
            // The seed only permutes the run order; every program runs
            // at its default size.
            let mut sources: Vec<_> = tfgc::workloads::suite()
                .into_iter()
                .zip(oracle::SUITE_EXPECTED)
                .map(|((n, src), (_, want))| (n, src, want))
                .collect();
            for i in (1..sources.len()).rev() {
                let j = rng.gen_range(0, i as i64 + 1) as usize;
                sources.swap(i, j);
            }
            let compiled = sources
                .iter()
                .map(|(_, s, _)| compile(s))
                .collect::<Result<_, _>>()?;
            Ok(Workload::Programs(Programs {
                sources,
                compiled,
                strategies: &Strategy::ALL,
                heap_words: None,
            }))
        }
        "deep" => {
            let (a, b) = (rng.gen_range(1, 1000), rng.gen_range(1, 1000));
            let src = include_str!("../deep.tfml")
                .replace("$A", &a.to_string())
                .replace("$B", &b.to_string());
            let compiled = vec![compile(&src)?];
            Ok(Workload::Programs(Programs {
                sources: vec![("deep", src, oracle::deep_expected(a))],
                compiled,
                strategies: &BOTH,
                heap_words: Some(FIXED_HEAP_WORDS),
            }))
        }
        "serve" => service(
            tfgc::SERVICE_SRC.to_string(),
            &tfgc::serve::MIX,
            seed,
            1 << 11,
            Some(1 << 16),
        ),
        "live" => service(live_src(), &LIVE_MIX, seed, FIXED_HEAP_WORDS, None),
        _ => Err(format!(
            "unknown workload `{name}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn service(
    src: String,
    mix: &[MixEntry],
    seed: u64,
    heap_words: usize,
    heap_max_words: Option<usize>,
) -> Result<Workload, String> {
    let compiled = Compiled::compile(&src).map_err(|e| format!("service: {e}"))?;
    let traffic = tfgc::serve::build_traffic(&compiled.program, seed, REQUESTS, mix);
    Ok(Workload::Service(Box::new(Service {
        src,
        compiled,
        traffic,
        handlers: mix.iter().map(|m| m.entry).collect(),
        heap_words,
        heap_max_words,
    })))
}

/// The persistent-table service of experiment E15
/// (`crates/bench/src/export.rs`): 60 tables of 100 cells live for the
/// whole run, an allocation-churn handler, and a handler reading every
/// table's head.
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

/// E15's churn + heads mix.
const LIVE_MIX: [MixEntry; 2] = [
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

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Workload {
    /// Strategies whose untraced executions each repetition times.
    pub fn strategies(&self) -> &'static [Strategy] {
        match self {
            Workload::Programs(p) => p.strategies,
            Workload::Service(_) => &BOTH,
        }
    }

    /// Whether executions go through the request engine.
    pub fn is_service(&self) -> bool {
        matches!(self, Workload::Service(_))
    }

    /// One repetition: untraced executions, then the traced one.
    pub fn rep(&self, tracer: &mut Tracer) -> Result<Rep, String> {
        let sources: Vec<&str> = match self {
            Workload::Programs(p) => p.sources.iter().map(|(_, s, _)| s.as_str()).collect(),
            Workload::Service(s) => vec![s.src.as_str()],
        };
        let mut compile_ns = Vec::with_capacity(sources.len());
        for src in &sources {
            let t = Instant::now();
            std::hint::black_box(Compiled::compile(src).map_err(|e| e.to_string())?);
            compile_ns.push(elapsed_ns(t) as f64);
        }

        let untraced = self
            .strategies()
            .iter()
            .map(|&s| self.exec(s, None))
            .collect::<Result<Vec<_>, _>>()?;

        let rep = tracer.open("rep", None);
        let mut front = FrontEnd::default();
        for src in &sources {
            front_end(tracer, rep, src, self.is_service(), &mut front)?;
        }
        let events_before = tracer.events();
        let traced = self.exec(Strategy::Compiled, Some((tracer, rep)))?;
        let events = tracer.events() - events_before;
        tracer.close(rep);
        tracer.end_rep();
        Ok(Rep {
            compile_ns,
            untraced,
            traced,
            front,
            events,
            latency_ns: tracer.take_latency(),
        })
    }

    /// One execution under `s`; traced when given the tracer and the
    /// span to hang it under.
    fn exec(&self, s: Strategy, traced: Option<(&Tracer, SpanId)>) -> Result<Exec, String> {
        match self {
            Workload::Programs(p) => p.exec(s, traced),
            Workload::Service(v) => v.exec(s, traced),
        }
    }
}

/// Parses, elaborates, lowers, analyses and builds compiled-strategy
/// metadata for `src`, one timed span per call.
fn front_end(
    tracer: &Tracer,
    parent: SpanId,
    src: &str,
    multi_task: bool,
    front: &mut FrontEnd,
) -> Result<(), String> {
    use tfgc::ir::lower_full;
    use tfgc::syntax::parse_program;
    use tfgc::types::elaborate;
    let p = Some(parent);
    let (parsed, ns) = tracer.span("syntax.parse", p, || parse_program(src));
    front.parse_ns += ns;
    let (typed, ns) = tracer.span("types.elaborate", p, || {
        elaborate(&parsed.map_err(|e| e.to_string())?).map_err(|e| e.to_string())
    });
    front.elaborate_ns += ns;
    let typed = typed?;
    let (lowered, ns) = tracer.span("ir.lower", p, || lower_full(&typed));
    front.lower_ns += ns;
    let (program, _) = lowered.map_err(|e| e.to_string())?;
    let (an, ns) = tracer.span("analysis.compute", p, || Analyses::compute(&program));
    front.analyses_ns += ns;
    // The request engine keeps every gc_word (another task can collect
    // anywhere), so a service builds the multi-task metadata.
    let (meta, ns) = tracer.span("gc.meta_build", p, || {
        if multi_task {
            GcMeta::build_multi_task(&program, &an, Strategy::Compiled)
        } else {
            GcMeta::build(&program, &an, Strategy::Compiled)
        }
    });
    front.meta_ns += ns;
    front.ir_instrs += program.code_len() as u64;
    front.metadata_bytes += meta.metadata_bytes() as u64;
    Ok(())
}

impl Programs {
    fn config(&self, s: Strategy) -> VmConfig {
        let cfg = VmConfig::new(s);
        match self.heap_words {
            Some(w) => cfg.heap_words(w),
            None => cfg,
        }
    }

    fn exec(&self, s: Strategy, traced: Option<(&Tracer, SpanId)>) -> Result<Exec, String> {
        let mut exec = Exec {
            strategy: s,
            wall_ns: 0,
            parts_ns: Vec::with_capacity(self.sources.len()),
            pause_ns: 0,
            counters: Counters::default(),
            attempted: 0,
            bad: 0,
        };
        let mut results = String::new();
        for ((name, _, want), c) in self.sources.iter().zip(&self.compiled) {
            let (out, ns) = match traced {
                None => {
                    let t = Instant::now();
                    let out = c.run_with(self.config(s));
                    (out, elapsed_ns(t))
                }
                Some((tracer, parent)) => {
                    // The same work as `run_with` (metadata build included),
                    // with the sink attached.
                    let span = tracer.open("vm.run", Some(parent));
                    let mut vm = Vm::new(&c.program, self.config(s));
                    vm.obs = tracer.obs(span);
                    let out = vm.run();
                    let ns = tracer.close(span);
                    // Outside the request engine a request is one program
                    // run.
                    tracer.push_latency(ns);
                    (out, ns)
                }
            };
            let out: RunOutcome = out.map_err(|e| format!("{name} under {}: {e}", s.name()))?;
            exec.wall_ns += ns;
            exec.parts_ns.push(ns as f64);
            exec.pause_ns += out.gc.pause_nanos;
            exec.attempted += 1;
            if out.result != want.to_string() {
                exec.bad += 1;
            }
            let k = &mut exec.counters;
            k.instructions += out.mutator.instructions;
            k.allocations += out.heap.allocations;
            k.words_allocated += out.heap.words_allocated;
            k.words_copied += out.heap.words_copied;
            k.frames_visited += out.gc.frames_visited;
            k.collections += out.gc.collections;
            k.plan_hits += out.gc.plan_hits;
            k.plan_lookups += out.gc.plan_hits + out.gc.plan_misses;
            results.push_str(&out.result);
            results.push('\n');
        }
        exec.counters.digest = fnv1a64(results.as_bytes());
        Ok(exec)
    }
}

impl Service {
    fn config(&self, s: Strategy) -> TaskConfig {
        let mut tc = TaskConfig::new(s);
        tc.heap_words = self.heap_words;
        tc.heap_max_words = self.heap_max_words;
        tc.policy = SuspendPolicy::EveryCall;
        tc.quantum = 64;
        tc
    }

    /// Drains the whole traffic under `s` (a closed loop: every request
    /// offered at quantum 0, `POOL` slots).
    fn drain(&self, s: Strategy, obs: Obs) -> tfgc::vm::VmResult<(ServeReport, Obs)> {
        serve_requests_overload(
            &self.compiled.program,
            &self.traffic,
            POOL,
            0,
            self.config(s),
            OverloadConfig::none(),
            obs,
        )
    }

    fn exec(&self, s: Strategy, traced: Option<(&Tracer, SpanId)>) -> Result<Exec, String> {
        let (report, wall_ns) = match traced {
            None => {
                let t = Instant::now();
                let r = self.drain(s, Obs::null());
                (r, elapsed_ns(t))
            }
            Some((tracer, parent)) => {
                let span = tracer.open("tasking.serve", Some(parent));
                let r = self.drain(s, tracer.obs(span));
                (r, tracer.close(span))
            }
        };
        let (report, _) = report.map_err(|e| format!("{} serve: {e}", s.name()))?;
        Ok(self.judge(s, wall_ns, &report))
    }

    /// Checks every response against its handler's closed form.
    fn judge(&self, s: Strategy, wall_ns: u64, r: &ServeReport) -> Exec {
        let mut bad = 0;
        let mut results = String::new();
        for (req, o) in self.traffic.iter().zip(&r.outcomes) {
            let handler = self.handlers[req.kind as usize];
            if !o.is_completed() || !oracle::response_ok(handler, req.arg, &o.result) {
                bad += 1;
            }
            results.push_str(&o.result);
            results.push('\n');
        }
        bad += self.traffic.len().saturating_sub(r.outcomes.len()) as u64;
        Exec {
            strategy: s,
            wall_ns,
            parts_ns: vec![wall_ns as f64],
            pause_ns: r.gc.pause_nanos,
            counters: Counters {
                instructions: r.mutator.instructions,
                allocations: r.heap.allocations,
                words_allocated: r.heap.words_allocated,
                words_copied: r.heap.words_copied,
                frames_visited: r.gc.frames_visited,
                collections: r.gc.collections,
                plan_hits: r.gc.plan_hits,
                plan_lookups: r.gc.plan_hits + r.gc.plan_misses,
                suspension_events: r.suspension_events,
                max_suspension_latency: r.max_suspension_latency,
                digest: fnv1a64(results.as_bytes()),
            },
            attempted: self.traffic.len() as u64,
            bad,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_planted_wrong_response() {
        let Ok(Workload::Service(live)) = setup("live", 3) else {
            panic!("live is a service");
        };
        let (mut report, _) = live.drain(Strategy::Compiled, Obs::null()).expect("drains");
        assert_eq!(live.judge(Strategy::Compiled, 1, &report).bad, 0);
        report.outcomes[17].result.push('0');
        assert_eq!(live.judge(Strategy::Compiled, 1, &report).bad, 1);
        report.outcomes.pop();
        assert_eq!(
            live.judge(Strategy::Compiled, 1, &report).bad,
            2,
            "a missing response counts"
        );
    }

    #[test]
    fn a_wrong_program_result_counts_as_failed() {
        let Ok(Workload::Programs(mut deep)) = setup("deep", 5) else {
            panic!("deep runs a program");
        };
        assert_eq!(deep.exec(Strategy::Compiled, None).expect("runs").bad, 0);
        deep.sources[0].2 += 1;
        assert_eq!(deep.exec(Strategy::Compiled, None).expect("runs").bad, 1);
    }

    #[test]
    fn same_seed_same_inputs() {
        let traffic = |seed| match setup("serve", seed) {
            Ok(Workload::Service(s)) => s.traffic,
            _ => panic!("serve is a service"),
        };
        assert_eq!(traffic(9), traffic(9));
        assert_ne!(traffic(9), traffic(10));
    }
}
