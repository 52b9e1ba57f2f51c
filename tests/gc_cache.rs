//! GC-time metadata cache and trace plans: tracing must stay exact and
//! its cost bounded by shapes, not frames or objects.
//!
//! The collector traces every object through lowered trace plans over
//! the memoizing [`tfgc::gc::RtCache`]. Two independent references check
//! that one path: the tagged-collector oracle ([`tfgc::oracle_check`]),
//! which must see node-identical reachable graphs at every collection
//! under all five strategies, and pinned digests of the normalized
//! event streams, which fix copy order and addresses. The
//! deep-recursion tests then check the point of the cache:
//! routine-construction work per collection is proportional to the
//! number of distinct (site, environment) shapes, not to the number of
//! frames on the stack.

use std::fmt::Write as _;
use tfgc::workloads::programs::poly_deep_alloc;
use tfgc::{Compiled, Strategy, VmConfig};

/// Runs `src` against the tagged-collector oracle under every strategy:
/// results, printed output and the reachable graph at every collection
/// must match the tag-driven replay. Returns the fewest collections
/// compared by any strategy.
fn oracle_all_strategies(name: &str, src: &str, heap_words: usize, force: u64) -> usize {
    let c = Compiled::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    Strategy::ALL
        .iter()
        .map(|&s| {
            tfgc::oracle_check(&c, s, heap_words, force)
                .unwrap_or_else(|e| panic!("{name} under {s}: {e}"))
                .collections
        })
        .min()
        .expect("five strategies")
}

#[test]
fn oracle_agrees_polymorphic() {
    let n = oracle_all_strategies("poly_deep", &poly_deep_alloc(150), 1 << 14, 40);
    assert!(n > 0, "workload must collect for the comparison to bite");
}

#[test]
fn oracle_agrees_closures() {
    use tfgc::workloads::paper_examples as pe;
    let a = oracle_all_strategies("map_closure", &pe::map_closure(60), 1 << 13, 30);
    let b = oracle_all_strategies("higher_order_poly", &pe::higher_order_poly(20), 1 << 13, 25);
    let c = oracle_all_strategies("variant_records", &pe::variant_records(40), 1 << 13, 30);
    assert!(a > 0 && b > 0 && c > 0, "closure workloads must collect");
}

#[test]
fn oracle_agrees_suite() {
    for (name, src) in tfgc::workloads::suite() {
        oracle_all_strategies(name, &src, 1 << 15, 200);
    }
}

/// Deep recursion under the forward (§3) strategies: ≥10⁵ frames on the
/// stack during collections, yet routine construction stays bounded by
/// the number of distinct shapes.
#[test]
fn deep_recursion_builds_o_sites_not_o_frames() {
    const DEPTH: usize = 100_000;
    let c = Compiled::compile(&poly_deep_alloc(DEPTH)).expect("compiles");
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 21).force_gc_every(60_000))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert!(out.heap.collections > 0, "{s}: must collect");
        assert!(
            out.gc.frames_visited >= DEPTH as u64,
            "{s}: a collection saw the deep stack (visited {})",
            out.gc.frames_visited
        );
        assert!(
            out.gc.rt_cache_hits > 0,
            "{s}: repeated activations hit the cache"
        );
        // The headline bound: evaluating the same θ at 10⁵ activations
        // of the same call sites must not build 10⁵ routine trees.
        assert!(
            out.gc.rt_nodes_built * 100 < out.gc.frames_visited,
            "{s}: built {} nodes for {} frame visits — O(frames), not O(sites)",
            out.gc.rt_nodes_built,
            out.gc.frames_visited
        );
    }
}

/// Same check for Appel's backward scheme at a depth its O(depth²) chain
/// re-walking can afford. The cache memoizes each frame's θ evaluation,
/// so even the quadratic traversal builds O(distinct shapes) nodes.
#[test]
fn deep_recursion_appel_backward_scheme() {
    const DEPTH: usize = 2_000;
    let c = Compiled::compile(&poly_deep_alloc(DEPTH)).expect("compiles");
    let out = c
        .run_with(
            VmConfig::new(Strategy::AppelPerFn)
                .heap_words(1 << 18)
                .force_gc_every(1_500),
        )
        .expect("runs");
    assert!(out.heap.collections > 0);
    assert!(out.gc.chain_steps > out.gc.frames_visited, "quadratic term");
    assert!(out.gc.rt_cache_hits > 0);
    assert!(
        out.gc.rt_nodes_built * 100 < out.gc.chain_steps,
        "built {} nodes for {} chain steps",
        out.gc.rt_nodes_built,
        out.gc.chain_steps
    );
}

/// Strips wall-clock timestamps and plan/cache accounting from an event,
/// leaving copy order, addresses and collection facts.
fn normalize_event(ev: &tfgc::obs::GcEvent) -> tfgc::obs::GcEvent {
    use tfgc::obs::GcEvent;
    let mut e = ev.clone();
    match &mut e {
        GcEvent::CollectionBegin { t_ns, .. }
        | GcEvent::Alloc { t_ns, .. }
        | GcEvent::TaskParked { t_ns, .. }
        | GcEvent::TaskResumed { t_ns, .. }
        | GcEvent::VerificationEnd { t_ns, .. }
        | GcEvent::FaultInjected { t_ns, .. }
        | GcEvent::HeapGrown { t_ns, .. }
        | GcEvent::RequestStart { t_ns, .. }
        | GcEvent::RequestEnd { t_ns, .. }
        | GcEvent::HeapSample { t_ns, .. }
        | GcEvent::RequestShed { t_ns, .. }
        | GcEvent::DeadlineExceeded { t_ns, .. }
        | GcEvent::BreakerOpen { t_ns, .. }
        | GcEvent::BreakerHalfOpen { t_ns, .. }
        | GcEvent::BreakerClose { t_ns, .. }
        | GcEvent::BacklogSample { t_ns, .. } => *t_ns = 0,
        GcEvent::CollectionEnd {
            t_ns,
            pause_ns,
            rt_nodes_built,
            rt_cache_hits,
            rt_cache_misses,
            plan_hits,
            plan_misses,
            plans_compiled,
            ..
        } => {
            *t_ns = 0;
            *pause_ns = 0;
            *rt_nodes_built = 0;
            *rt_cache_hits = 0;
            *rt_cache_misses = 0;
            *plan_hits = 0;
            *plan_misses = 0;
            *plans_compiled = 0;
        }
        GcEvent::Phase {
            start_ns, dur_ns, ..
        } => {
            *start_ns = 0;
            *dur_ns = 0;
        }
        GcEvent::FrameVisit { .. } | GcEvent::RoutineRun { .. } | GcEvent::ObjectCopied { .. } => {}
    }
    e
}

/// Runs each workload under every strategy with trace plans (the
/// collector's only executor) and digests its normalized event stream —
/// every frame visit, routine run and object copy, in order, to the same
/// addresses. Returns the FNV-1a digest over the per-run digests, the
/// per-run listing (for the failure message), and the plans compiled
/// per workload so callers can assert the planned path actually engaged.
///
/// The oracle tests compare reachable graphs up to isomorphism; the
/// pinned digests additionally fix the copy order the plan executor
/// produces. They were taken from the closure-walk tracer the plans
/// replaced, so a planned collection must stay bit-identical to it.
fn planned_stream_digest(runs: Vec<(&str, String, usize, u64)>) -> (String, String, Vec<u64>) {
    use tfgc::workloads::fnv1a64;
    let mut per_run = String::new();
    let mut plans_compiled = Vec::new();
    for (name, src, heap_words, force) in runs {
        let mut plans = 0;
        let c = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in Strategy::ALL {
            let cfg = VmConfig::new(s)
                .heap_words(heap_words)
                .force_gc_every(force);
            let (out, rec) = c
                .run_profiled(cfg, 1 << 20)
                .unwrap_or_else(|e| panic!("{name} under {s}: {e}"));
            assert_eq!(rec.dropped(), 0, "{name} under {s}: ring large enough");
            let events: Vec<_> = rec.events().iter().map(normalize_event).collect();
            let digest = fnv1a64(format!("{events:?}").as_bytes());
            writeln!(per_run, "{name} {s} {digest:016x}").expect("write to String");
            plans += out.gc.plans_compiled;
        }
        plans_compiled.push(plans);
    }
    let digest = format!("{:016x}", fnv1a64(per_run.as_bytes()));
    (digest, per_run, plans_compiled)
}

#[test]
fn planned_collections_are_bit_identical_polymorphic() {
    let (digest, per_run, plans) =
        planned_stream_digest(vec![("poly_deep", poly_deep_alloc(150), 1 << 14, 40)]);
    assert_eq!(
        digest, "26abf79e4a949dfa",
        "normalized event streams changed:\n{per_run}"
    );
    assert!(plans[0] > 0, "polymorphic workload must lower plans");
}

#[test]
fn planned_collections_are_bit_identical_closures() {
    use tfgc::workloads::paper_examples as pe;
    let (digest, per_run, plans) = planned_stream_digest(vec![
        ("map_closure", pe::map_closure(60), 1 << 13, 30),
        ("higher_order_poly", pe::higher_order_poly(20), 1 << 13, 25),
        ("variant_records", pe::variant_records(40), 1 << 13, 30),
    ]);
    assert_eq!(
        digest, "599e0ce38fb213e2",
        "normalized event streams changed:\n{per_run}"
    );
    assert!(
        plans.iter().all(|&n| n > 0),
        "closure workloads must lower plans: {plans:?}"
    );
}

#[test]
fn planned_collections_are_bit_identical_suite() {
    let runs = tfgc::workloads::suite()
        .into_iter()
        .map(|(name, src)| (name, src, 1 << 15, 200))
        .collect();
    let (digest, per_run, plans) = planned_stream_digest(runs);
    assert_eq!(
        digest, "f2a6100655fc5128",
        "normalized event streams changed:\n{per_run}"
    );
    assert!(
        plans.iter().sum::<u64>() > 0,
        "the suite must lower plans somewhere"
    );
}

/// Plans are lowered per distinct routine shape, then hit: across a deep
/// recursion the hit count dwarfs compilation.
#[test]
fn plan_compilation_is_o_shapes_not_o_objects() {
    let c = Compiled::compile(&poly_deep_alloc(5_000)).expect("compiles");
    for s in [Strategy::Compiled, Strategy::Interpreted] {
        let out = c
            .run_with(VmConfig::new(s).heap_words(1 << 18).force_gc_every(3_000))
            .unwrap_or_else(|e| panic!("{s}: {e}"));
        assert!(out.heap.collections > 0, "{s}: must collect");
        assert!(out.gc.plans_compiled > 0, "{s}: plans lowered");
        assert_eq!(
            out.gc.plan_misses, out.gc.plans_compiled,
            "{s}: every miss compiles exactly one plan"
        );
        // Repeated collections re-trace the same shapes: lookups must
        // keep resolving from the store, not re-lowering.
        assert!(
            out.gc.plan_hits > out.gc.plans_compiled,
            "{s}: hits ({}) must exceed compilations ({}) — plans are per-shape",
            out.gc.plan_hits,
            out.gc.plans_compiled
        );
    }
}

/// The plan counters surface in the per-collection event stream.
#[test]
fn plan_counters_reach_the_event_stream() {
    let c = Compiled::compile(&poly_deep_alloc(150)).expect("compiles");
    let (out, rec) = c
        .run_profiled(
            VmConfig::new(Strategy::Compiled)
                .heap_words(1 << 14)
                .force_gc_every(40),
            1 << 12,
        )
        .expect("runs");
    assert!(out.heap.collections > 1);
    let hits: u64 = rec.collections().iter().map(|c| c.plan_hits).sum();
    let misses: u64 = rec.collections().iter().map(|c| c.plan_misses).sum();
    let comp: u64 = rec.collections().iter().map(|c| c.plans_compiled).sum();
    assert_eq!(hits, out.gc.plan_hits, "summaries sum to the total");
    assert_eq!(misses, out.gc.plan_misses);
    assert_eq!(comp, out.gc.plans_compiled);
    assert!(comp > 0, "a collecting polymorphic run lowers plans");
}

/// Suite-wide property test for the fingerprint fix: across randomized
/// `RtVal` graphs that aggressively share sub-`Rc`s (the `extract_path`
/// recombination shape), `RtCache::identity` aliases two values iff they
/// are structurally equal.
#[test]
fn identity_never_aliases_structurally_unequal_values() {
    use std::rc::Rc;
    use tfgc::gc::{RtCache, RtVal, TypeRtId};
    use tfgc::types::DataId;

    // Deterministic xorshift — no RNG dependencies.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut cache = RtCache::new();
    let mut pool: Vec<RtVal> = vec![RtVal::Const, RtVal::Ground(TypeRtId(0))];
    for _ in 0..600 {
        let r = next();
        let pick = |n: u64, pool: &[RtVal]| pool[(n % pool.len() as u64) as usize].clone();
        let v = match r % 4 {
            0 => RtVal::Arrow(Rc::new(pick(r >> 8, &pool)), Rc::new(pick(r >> 24, &pool))),
            1 => {
                // Recombine: reuse an existing Arrow's domain Rc under a
                // new codomain — the shape the old single-pointer key
                // collapsed.
                let donor = pool.iter().rev().find_map(|v| match v {
                    RtVal::Arrow(a, _) => Some(a.clone()),
                    _ => None,
                });
                match donor {
                    Some(a) => RtVal::Arrow(a, Rc::new(pick(r >> 16, &pool))),
                    None => RtVal::Tuple(Rc::new(vec![pick(r >> 16, &pool)])),
                }
            }
            2 => {
                let n = (r >> 8) % 3 + 1;
                let fs: Vec<RtVal> = (0..n).map(|i| pick(r >> (16 + i), &pool)).collect();
                RtVal::Tuple(Rc::new(fs))
            }
            _ => {
                // Rewrap: the same fields Rc under rotating datatype ids.
                let fields = pool.iter().rev().find_map(|v| match v {
                    RtVal::Tuple(fs) => Some(fs.clone()),
                    _ => None,
                });
                let d = DataId((r >> 8) as u32 % 5);
                match fields {
                    Some(fs) => RtVal::Data(d, fs),
                    None => RtVal::Data(d, Rc::new(vec![pick(r >> 16, &pool)])),
                }
            }
        };
        pool.push(v);
    }

    let ids: Vec<u32> = pool.iter().map(|v| cache.identity(v)).collect();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            assert_eq!(
                ids[i] == ids[j],
                pool[i] == pool[j],
                "identity aliases iff structurally equal (values {i} and {j}: {:?} vs {:?})",
                pool[i],
                pool[j]
            );
        }
    }
}

/// The cache's hit counters surface in the per-collection event stream.
#[test]
fn cache_counters_reach_the_event_stream() {
    let c = Compiled::compile(&poly_deep_alloc(150)).expect("compiles");
    let (out, rec) = c
        .run_profiled(
            VmConfig::new(Strategy::Compiled)
                .heap_words(1 << 14)
                .force_gc_every(40),
            1 << 12,
        )
        .expect("runs");
    assert!(out.heap.collections > 1);
    let summed: u64 = rec.collections().iter().map(|c| c.rt_cache_hits).sum();
    assert_eq!(summed, out.gc.rt_cache_hits, "summaries sum to the total");
    let summed_misses: u64 = rec.collections().iter().map(|c| c.rt_cache_misses).sum();
    assert_eq!(summed_misses, out.gc.rt_cache_misses);
    assert!(summed > 0, "a collecting polymorphic run hits the cache");
}
