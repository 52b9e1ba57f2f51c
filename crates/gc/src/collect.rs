//! The tag-free copying collector.
//!
//! Implements Figure 2's loop: walk the dynamic chain, select each frame's
//! `frame_gc_routine` through the return-address → gc_word mapping, and
//! run it. Three strategy families share this module:
//!
//! * **Compiled / Interpreted** (§2, §2.4): monomorphic frames trace with
//!   precompiled ground routines (or byte descriptors); polymorphic frames
//!   use §3's scheme — the dynamic chain is decoded in one pass (the
//!   paper does this by pointer-reversing the links; collecting frame
//!   records is the equivalent traversal, see DESIGN.md) and then walked
//!   **oldest → newest**, each frame routine evaluating the static θ of
//!   its call site to hand the next routine its type_gc_routine arguments.
//! * **Appel** (§1.1.1): one routine per procedure, traversal newest →
//!   oldest, re-descending the chain for every frame's type resolution
//!   with no caching — the cost Goldberg's forward scheme avoids;
//!   [`GcStats::chain_steps`] counts it.
//!
//! Every value is relocated by executing its lowered trace plan
//! (`plan.rs`): roots evaluate their routine, look up or lower its plan,
//! and run it; fields go through a worklist of `(address, offset, plan)`
//! items (no recursion in data depth), so million-element lists collect
//! in constant Rust stack space.
//!
//! Template evaluation, Figure-3 path extraction, and descriptor
//! conversion all route through the metadata's [`RtCache`], so a deep
//! chain of activations of the same call site evaluates each θ once
//! instead of once per frame. The worklist and the decoded-frame vector
//! live in [`CollectorScratch`] (owned by `GcMeta`) and are reused across
//! collections; the heap's forwarding bitmap is likewise allocated once
//! and only zeroed per collection (see `tfgc_runtime::Heap`).

use crate::bytes::{BytePool, DescView};
use crate::cache::RtCache;
use crate::desc::{DescArena, DescId};
use crate::ground::{GroundTable, TypeRt, TypeRtId};
use crate::meta::{CalleePlan, ClosParamSrc, FnGcMeta, FrameParamSrc, GcMeta, SiteMeta};
use crate::plan::{EnvEntryFp, EnvId, PlanId, PlanKind, PlanOp, PlanOps, VariantPlan, NOOP_PLAN};
use crate::routines::{RoutineTable, TraceOp};
use crate::rtval::{EvalCx, RtBuildStats, RtVal};
use crate::stack::{walk_frames_into, FrameInfo, FRAME_HDR};
use crate::stats::GcStats;
use crate::strategy::Strategy;
use crate::sx::{SxId, SxTable};
use std::rc::Rc;
use std::time::Instant;
use tfgc_ir::{CallSiteId, CtorRep, IrProgram};
use tfgc_obs::{CollectionKind, GcEvent, Obs};
use tfgc_runtime::{Addr, Encoding, Heap, HeapMode, Word, HEAP_BASE};

/// One task's activation-record stack (a single-task program has exactly
/// one; §4's shared-memory tasks each contribute one).
#[derive(Debug)]
pub struct StackRoots<'m> {
    /// The whole activation-record stack.
    pub stack: &'m mut [Word],
    /// Base of the newest frame.
    pub top_fp: usize,
    /// Site the newest frame is suspended at (the allocation that
    /// triggered this collection, or the call a task is parked at — §4
    /// suspends tasks only at procedure calls).
    pub current_site: CallSiteId,
}

/// The mutator state handed to the collector.
#[derive(Debug)]
pub struct MachineRoots<'m> {
    /// All task stacks ("garbage collection starts and the stack of each
    /// process is traversed in turn", §4).
    pub stacks: Vec<StackRoots<'m>>,
    /// Global variable words.
    pub globals: &'m mut [Word],
    /// Pending operand words of the allocation in progress — "the
    /// parameters of the allocation primitive", traced by the collector
    /// itself (§2.4). Typed by `stacks[operand_stack]`'s current site.
    pub operands: &'m mut [Word],
    /// Index of the stack whose suspension site types the operands.
    pub operand_stack: usize,
}

/// The input to trace-plan lowering: an evaluated routine value, or a
/// byte descriptor under an environment.
#[derive(Debug, Clone)]
enum WTy {
    Rt(RtVal),
    Bytes { pos: u32, env: Rc<Vec<WTy>> },
}

/// Fail-fast lookup for byte-descriptor parameter environments: a
/// too-short environment is a torn stack map (e.g. truncated frame
/// parameter sources), and tracing must stop with a structured panic
/// rather than an anonymous index error or a silent mistrace.
fn byte_param(env: &[WTy], i: u16) -> &WTy {
    env.get(i as usize).unwrap_or_else(|| {
        panic!(
            "type parameter {i} out of range: environment carries {} byte descriptor(s)",
            env.len()
        )
    })
}

#[derive(Debug, Clone)]
pub(crate) struct WorkItem {
    addr: Addr,
    off: u16,
    plan: PlanId,
    /// Root context the object was first reached from — reported by the
    /// heap-corruption panics so a bad word names its tracing origin.
    origin: EvalCx,
}

/// Persistent collector buffers, owned by `GcMeta` so one allocation
/// serves every collection of a run: the typed worklist and the decoded
/// dynamic-chain vector (a deep stack is decoded without growing a fresh
/// `Vec` each pause). The third reused structure — the forwarding side
/// bitmap — already lives in `tfgc_runtime::Heap`, sized once at heap
/// construction and zeroed (not reallocated) on each flip.
#[derive(Debug, Clone, Default)]
pub struct CollectorScratch {
    pub(crate) work: Vec<WorkItem>,
    pub(crate) frames: Vec<FrameInfo>,
}

/// Runs one tag-free collection. `minor` asks for a nursery-only cycle
/// on a generational heap: the same root walk and the same relocation
/// primitives run, but the heap's phase routes copies to the survivor
/// half (or tenured, on promotion) and treats every tenured address as
/// already relocated — tenured space is never touched, which is sound
/// precisely because the immutable heap has no tenured→nursery edges.
///
/// # Panics
///
/// Panics if a frame is suspended at a site whose gc_word was omitted —
/// that would falsify the §5.1 analysis — or on heap corruption.
#[allow(clippy::too_many_arguments)]
pub fn collect_tagfree(
    meta: &mut GcMeta,
    prog: &IrProgram,
    heap: &mut Heap,
    descs: &DescArena,
    stats: &mut GcStats,
    obs: &mut Obs,
    mut roots: MachineRoots<'_>,
    minor: bool,
) {
    assert_ne!(meta.strategy, Strategy::Tagged, "use collect_tagged");
    let strategy = meta.strategy;
    let kind = if minor {
        CollectionKind::Minor
    } else {
        CollectionKind::Major
    };
    let seq = stats.collections;
    // Snapshots so CollectionEnd reports this collection's work alone.
    let frames0 = stats.frames_visited;
    let routines0 = stats.routine_invocations;
    let nodes0 = stats.rt_nodes_built;
    let hits0 = meta.rt_cache.hits;
    let misses0 = meta.rt_cache.misses;
    let phits0 = meta.rt_cache.plans.hits;
    let pmisses0 = meta.rt_cache.plans.misses;
    let pcompiled0 = meta.rt_cache.plans.compiled;
    let copied0 = heap.stats.words_copied;
    let trigger_site = roots
        .stacks
        .get(roots.operand_stack)
        .map_or(0, |sr| sr.current_site.0);
    obs.emit(|t_ns| GcEvent::CollectionBegin {
        t_ns,
        seq,
        kind,
        strategy: strategy.name(),
        trigger_site,
        heap_used_before: heap.used() as u64,
    });
    // The pause clock starts *after* the begin event: sink time (snapshot
    // formatting, ring writes) is observer overhead, not collection work,
    // and must not skew pause statistics between sink configurations.
    let t0 = Instant::now();
    heap.begin_collection(minor);
    let frames_buf = &mut meta.scratch.frames;
    let mut cx = Collector {
        prog,
        heap,
        descs,
        ground: &mut meta.ground,
        routines: &meta.routines,
        pool: &meta.pool,
        sxs: &meta.sxs,
        sites: &meta.sites,
        fns: &meta.fns,
        data_variants: &meta.data_variants,
        cache: &mut meta.rt_cache,
        stats,
        obs,
        seq,
        strategy,
        cur: EvalCx::None,
        build: RtBuildStats::default(),
        work: &mut meta.scratch.work,
        enc: Encoding::new(HeapMode::TagFree),
    };

    // Globals first: their routines are known statically (§1.1).
    for (i, g) in meta.globals.iter().enumerate() {
        if let Some(sx) = g {
            cx.cur = EvalCx::Global(i as u32);
            let rt = cx.eval(*sx, &[]);
            roots.globals[i] = cx.reloc_rt_root(roots.globals[i], rt);
        }
    }

    // Each task's stack is traversed in turn (§4).
    let mut operand_env: Vec<RtVal> = Vec::new();
    let mut operand_site = None;
    for (ti, sr) in roots.stacks.iter_mut().enumerate() {
        walk_frames_into(frames_buf, sr.stack, sr.top_fp, sr.current_site, prog);
        cx.stats.frames_visited += frames_buf.len() as u64;
        if cx.obs.enabled() {
            for fr in frames_buf.iter() {
                cx.obs.emit(|_| GcEvent::FrameVisit {
                    seq,
                    fn_id: fr.fn_id.0,
                    site: fr.site.0,
                });
            }
        }
        let newest_env = match strategy {
            Strategy::AppelPerFn => cx.appel_walk(frames_buf, sr.stack),
            _ => cx.forward_walk(frames_buf, sr.stack),
        };
        if ti == roots.operand_stack {
            operand_env = newest_env;
            operand_site = Some(sr.current_site);
        }
    }

    // Pending allocation operands, typed by the triggering task's site,
    // traced under its newest frame's environment.
    // (`operands` may be empty even at an allocation site: §4 tasks
    // re-execute a blocked allocation after the collection.)
    if let Some(site) = operand_site {
        cx.cur = EvalCx::Operands { site: site.0 };
        let sites = cx.sites;
        let ops = &sites[site.0 as usize].operands;
        for (op, w) in ops.iter().zip(roots.operands.iter_mut()) {
            if let Some(sx) = op {
                let rt = cx.eval(*sx, &operand_env);
                *w = cx.reloc_rt_root(*w, rt);
            }
        }
    }

    cx.drain();
    let built = cx.build.nodes_built;
    stats.rt_nodes_built += built;
    stats.rt_cache_hits += meta.rt_cache.hits - hits0;
    stats.rt_cache_misses += meta.rt_cache.misses - misses0;
    stats.plan_hits += meta.rt_cache.plans.hits - phits0;
    stats.plan_misses += meta.rt_cache.plans.misses - pmisses0;
    stats.plans_compiled += meta.rt_cache.plans.compiled - pcompiled0;
    heap.finish_collection();
    stats.collections += 1;
    if minor {
        stats.minor_collections += 1;
        stats.promoted_words += heap.last_promoted_words();
        stats.died_young_words += heap.last_died_young_words();
    } else {
        stats.major_collections += 1;
    }
    let pause = t0.elapsed().as_nanos() as u64;
    stats.pause_nanos += pause;
    obs.emit(|t_ns| GcEvent::CollectionEnd {
        t_ns,
        seq,
        kind,
        pause_ns: pause,
        heap_used_after: heap.used() as u64,
        words_copied: heap.stats.words_copied - copied0,
        frames_visited: stats.frames_visited - frames0,
        routine_invocations: stats.routine_invocations - routines0,
        rt_nodes_built: stats.rt_nodes_built - nodes0,
        rt_cache_hits: meta.rt_cache.hits - hits0,
        rt_cache_misses: meta.rt_cache.misses - misses0,
        plan_hits: meta.rt_cache.plans.hits - phits0,
        plan_misses: meta.rt_cache.plans.misses - pmisses0,
        plans_compiled: meta.rt_cache.plans.compiled - pcompiled0,
    });
}

struct Collector<'c> {
    prog: &'c IrProgram,
    heap: &'c mut Heap,
    descs: &'c DescArena,
    ground: &'c mut GroundTable,
    routines: &'c RoutineTable,
    pool: &'c BytePool,
    sxs: &'c SxTable,
    sites: &'c [SiteMeta],
    fns: &'c [FnGcMeta],
    data_variants: &'c [Vec<Vec<SxId>>],
    cache: &'c mut RtCache,
    stats: &'c mut GcStats,
    obs: &'c mut Obs,
    seq: u64,
    strategy: Strategy,
    /// Context currently being traced from (frame, global, operand, …) —
    /// threaded into fail-fast panics and captured per work item.
    cur: EvalCx,
    build: RtBuildStats,
    work: &'c mut Vec<WorkItem>,
    enc: Encoding,
}

/// Head classification of a pointer-object relocation.
enum Head {
    /// Immediate value (or null-like): unchanged.
    Imm(Word),
    /// Already relocated: the new encoded word.
    Done(Word),
    /// Freshly copied to `new`; fields still need enqueueing.
    Copied(Addr),
}

impl Collector<'_> {
    /// Memoized template evaluation under the current tracing context.
    fn eval(&mut self, id: SxId, env: &[RtVal]) -> RtVal {
        self.cache
            .eval(self.sxs, id, env, &mut self.build, self.cur)
    }

    /// Memoized template evaluation under an explicit context (variant
    /// fields, closure captures — contexts finer than `self.cur`).
    fn eval_at(&mut self, id: SxId, env: &[RtVal], cx: EvalCx) -> RtVal {
        self.cache.eval(self.sxs, id, env, &mut self.build, cx)
    }

    /// Memoized Figure-3 path extraction.
    fn extract(&mut self, rt: &RtVal, path: &[u16], cx: EvalCx) -> RtVal {
        self.cache.extract(rt, path, self.prog, self.ground, cx)
    }

    /// Memoized descriptor → routine conversion.
    fn desc_rt(&mut self, id: DescId) -> RtVal {
        self.cache.desc(self.descs, id, &mut self.build)
    }

    /// §3's traversal: oldest to newest, propagating type routine
    /// environments through the recorded θ / closure-type plans. Returns
    /// the newest frame's environment.
    fn forward_walk(&mut self, frames: &[FrameInfo], stack: &mut [Word]) -> Vec<RtVal> {
        let mut theta_rts: Option<Vec<RtVal>> = None;
        let mut clos_rt: Option<RtVal> = None;
        let mut env: Vec<RtVal> = Vec::new();
        for fr in frames.iter().rev() {
            self.cur = EvalCx::Frame {
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            };
            env = self.frame_env(fr, stack, theta_rts.as_deref(), clos_rt.as_ref());
            self.run_frame_routine(fr, &env, stack);
            (theta_rts, clos_rt) = self.eval_plan(fr.site, &env);
        }
        env
    }

    /// Appel's traversal: newest to oldest, re-deriving each frame's
    /// environment by walking down the chain with no caching. Returns the
    /// newest frame's environment.
    fn appel_walk(&mut self, frames: &[FrameInfo], stack: &mut [Word]) -> Vec<RtVal> {
        let mut newest_env = Vec::new();
        for k in 0..frames.len() {
            let env = self.appel_env(frames, k, stack);
            self.cur = EvalCx::Frame {
                fn_id: frames[k].fn_id.0,
                site: frames[k].site.0,
            };
            self.run_frame_routine(&frames[k], &env, stack);
            if k == 0 {
                newest_env = env;
            }
        }
        newest_env
    }

    /// Re-derives frame `k`'s environment by descending to the bottom of
    /// the chain and evaluating plans back up — O(depth) per frame.
    fn appel_env(&mut self, frames: &[FrameInfo], k: usize, stack: &[Word]) -> Vec<RtVal> {
        let mut theta_rts: Option<Vec<RtVal>> = None;
        let mut clos_rt: Option<RtVal> = None;
        let mut env = Vec::new();
        for j in (k..frames.len()).rev() {
            self.stats.chain_steps += 1;
            let fr = &frames[j];
            self.cur = EvalCx::Frame {
                fn_id: fr.fn_id.0,
                site: fr.site.0,
            };
            env = self.frame_env(fr, stack, theta_rts.as_deref(), clos_rt.as_ref());
            if j == k {
                break;
            }
            (theta_rts, clos_rt) = self.eval_plan(fr.site, &env);
        }
        env
    }

    /// Evaluates a site's callee plan under the caller's environment —
    /// "the type_gc_routines passed to the next frame's frame_gc_routine
    /// correspond to the types of the arguments passed by f" (§3).
    fn eval_plan(
        &mut self,
        site: CallSiteId,
        env: &[RtVal],
    ) -> (Option<Vec<RtVal>>, Option<RtVal>) {
        let sites = self.sites;
        match &sites[site.0 as usize].plan {
            CalleePlan::Direct { theta } => (
                Some(theta.iter().map(|sx| self.eval(*sx, env)).collect()),
                None,
            ),
            CalleePlan::Closure { clos_ty } => (None, Some(self.eval(*clos_ty, env))),
            CalleePlan::None => (None, None),
        }
    }

    /// Builds a frame's type-routine environment from its parameter
    /// sources.
    fn frame_env(
        &mut self,
        fr: &FrameInfo,
        stack: &[Word],
        theta: Option<&[RtVal]>,
        clos_rt: Option<&RtVal>,
    ) -> Vec<RtVal> {
        let fns = self.fns;
        let fm = &fns[fr.fn_id.0 as usize];
        let cx = EvalCx::Frame {
            fn_id: fr.fn_id.0,
            site: fr.site.0,
        };
        fm.frame_param_src
            .iter()
            .enumerate()
            .map(|(i, src)| match src {
                FrameParamSrc::Opaque => RtVal::Const,
                FrameParamSrc::Theta => theta
                    .and_then(|t| t.get(i))
                    .cloned()
                    .unwrap_or(RtVal::Const),
                FrameParamSrc::ArrowPath(p) => match clos_rt {
                    Some(rt) => self.extract(rt, p, cx),
                    None => RtVal::Const,
                },
                FrameParamSrc::DescSlot(s) => {
                    let w = stack[fr.fp + FRAME_HDR + s.0 as usize];
                    self.desc_rt(DescId(w as u32))
                }
            })
            .collect()
    }

    /// Runs the frame routine selected by the frame's suspension site —
    /// the gc_word lookup of §2.1.
    fn run_frame_routine(&mut self, fr: &FrameInfo, env: &[RtVal], stack: &mut [Word]) {
        let sites = self.sites;
        let rid = sites[fr.site.0 as usize].routine.unwrap_or_else(|| {
            panic!(
                "collection while suspended at site {} whose gc_word was omitted \
                 (GC-point analysis would be unsound)",
                fr.site.0
            )
        });
        self.stats.routine_invocations += 1;
        let routines = self.routines;
        let ops = &routines.routine(rid).ops;
        let seq = self.seq;
        self.obs.emit(|_| GcEvent::RoutineRun {
            seq,
            site: fr.site.0,
            ops: ops.len() as u32,
        });
        for op in ops {
            self.stats.slots_traced += 1;
            match *op {
                TraceOp::Slot { slot, sx } => {
                    let rt = self.eval(sx, env);
                    let idx = fr.fp + FRAME_HDR + slot.0 as usize;
                    stack[idx] = self.reloc_rt_root(stack[idx], rt);
                }
                TraceOp::SlotBytes { slot, pos } => {
                    let benv: Rc<Vec<WTy>> = Rc::new(env.iter().cloned().map(WTy::Rt).collect());
                    let idx = fr.fp + FRAME_HDR + slot.0 as usize;
                    let p = self.plan_for_wty(&WTy::Bytes { pos, env: benv });
                    stack[idx] = self.reloc_plan(stack[idx], p, false);
                }
            }
        }
    }

    /// Relocates a root word typed by an evaluated routine value.
    fn reloc_rt_root(&mut self, w: Word, rt: RtVal) -> Word {
        let p = self.plan_for_rt(&rt);
        self.reloc_plan(w, p, false)
    }

    fn drain(&mut self) {
        while let Some(item) = self.work.pop() {
            self.cur = item.origin;
            let w = self.heap.read(item.addr, item.off);
            // A pop re-enters the plan interpreter with the spine loop
            // enabled: drain order is already the plan's order.
            let nw = self.reloc_plan(w, item.plan, true);
            self.heap.write(item.addr, item.off, nw);
        }
    }

    /// Collapses `Param` indirection chains eagerly. Without this, a
    /// recursive datatype's argument environment re-wraps the parent
    /// environment once per heap node (the tail of a list adds a layer
    /// per element), and both `Param` resolution and the `Rc` drop of
    /// the chain recurse O(list length) deep — a stack overflow on deep
    /// structures. Substituting `env[i]` directly is exactly `Param`'s
    /// defined meaning, and it bounds environment depth by the static
    /// type structure instead.
    fn collapse(&mut self, pos: u32, env: &Rc<Vec<WTy>>) -> WTy {
        let mut pos = pos;
        let mut env = env.clone();
        loop {
            match self.pool.parse(pos, &mut self.stats.desc_bytes_read) {
                DescView::Param(i) => match byte_param(&env, i).clone() {
                    WTy::Bytes { pos: p, env: e } => {
                        pos = p;
                        env = e;
                    }
                    rt => return rt,
                },
                _ => return WTy::Bytes { pos, env },
            }
        }
    }

    /// Converts a tracing type to a routine value (used when a byte
    /// descriptor meets a closure and needs Figure-3 extraction).
    fn wty_to_rt(&mut self, ty: &WTy) -> RtVal {
        match ty {
            WTy::Rt(rt) => rt.clone(),
            WTy::Bytes { pos, env } => {
                let env = env.clone();
                match self.pool.parse(*pos, &mut self.stats.desc_bytes_read) {
                    DescView::Prim => RtVal::Const,
                    DescView::Param(i) => {
                        let sub = byte_param(&env, i).clone();
                        self.wty_to_rt(&sub)
                    }
                    DescView::Tuple(fields) => {
                        self.build.nodes_built += 1;
                        let fs = fields
                            .iter()
                            .map(|p| {
                                self.wty_to_rt(&WTy::Bytes {
                                    pos: *p,
                                    env: env.clone(),
                                })
                            })
                            .collect();
                        RtVal::Tuple(Rc::new(fs))
                    }
                    DescView::Data(d, args) => {
                        self.build.nodes_built += 1;
                        let xs = args
                            .iter()
                            .map(|p| {
                                self.wty_to_rt(&WTy::Bytes {
                                    pos: *p,
                                    env: env.clone(),
                                })
                            })
                            .collect();
                        RtVal::Data(d, Rc::new(xs))
                    }
                    DescView::Arrow(a, b) => {
                        self.build.nodes_built += 1;
                        let ra = self.wty_to_rt(&WTy::Bytes {
                            pos: a,
                            env: env.clone(),
                        });
                        let rb = self.wty_to_rt(&WTy::Bytes { pos: b, env });
                        RtVal::Arrow(Rc::new(ra), Rc::new(rb))
                    }
                }
            }
        }
    }

    fn push(&mut self, addr: Addr, off: u16, plan: PlanId) {
        self.work.push(WorkItem {
            addr,
            off,
            plan,
            origin: self.cur,
        });
    }

    /// Head handling for fixed-size objects (tuples).
    fn head(&mut self, w: Word, size: usize) -> Head {
        if w < HEAP_BASE {
            return Head::Imm(w);
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return Head::Done(w);
        }
        if let Some(n) = self.heap.forward_of(a) {
            return Head::Done(self.enc.ptr(n));
        }
        let new = self.heap.copy_out(a, size);
        self.heap.set_forward(a, new);
        self.copied(a, new, size);
        Head::Copied(new)
    }

    /// Emits the per-object copy event (survivor attribution feeds on
    /// these).
    fn copied(&mut self, from: Addr, to: Addr, words: usize) {
        let seq = self.seq;
        self.obs.emit(|_| GcEvent::ObjectCopied {
            seq,
            from: from.0,
            to: to.0,
            words: words as u32,
        });
    }

    /// Relocates a closure value: follow the code pointer to the
    /// compiler-emitted closure routine (§2.2's word at `code − 4`),
    /// rebuild the environment's type routines (§3, Figure 4), trace the
    /// captures.
    fn reloc_closure(&mut self, w: Word, arrow_rt: RtVal) -> Word {
        if w < HEAP_BASE {
            return w;
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return w;
        }
        if let Some(n) = self.heap.forward_of(a) {
            return self.enc.ptr(n);
        }
        let fn_id = self.heap.read(a, 0) as usize;
        let fns = self.fns;
        let fm = &fns[fn_id];
        let size = fm.closure_size as usize;
        let new = self.heap.copy_out(a, size);
        self.heap.set_forward(a, new);
        self.copied(a, new, size);

        if !fm.closure_param_src.is_empty() {
            self.stats.closure_envs_built += 1;
        }
        let cx = EvalCx::Closure {
            fn_id: fn_id as u32,
        };
        let mut env: Vec<RtVal> = Vec::with_capacity(fm.closure_param_src.len());
        for src in &fm.closure_param_src {
            let rt = match src {
                ClosParamSrc::Opaque => RtVal::Const,
                ClosParamSrc::Path(p) => self.extract(&arrow_rt, p, cx),
                ClosParamSrc::DescField(off) => {
                    let dw = self.heap.read(new, *off);
                    self.desc_rt(DescId(dw as u32))
                }
            };
            env.push(rt);
        }
        for (off, sx) in &fm.closure_fields {
            let rt = self.eval_at(*sx, &env, cx);
            let p = self.plan_for_rt(&rt);
            if p != NOOP_PLAN {
                self.push(new, *off, p);
            }
        }
        self.enc.ptr(new)
    }

    // --- trace plans: lowering ---

    /// The plan for an evaluated routine value, lowering on first sight.
    /// Keyed on the cache's injective identity, so a plan is only ever
    /// shared between structurally equal routines.
    fn plan_for_rt(&mut self, rt: &RtVal) -> PlanId {
        match rt {
            RtVal::Const => NOOP_PLAN,
            RtVal::Ground(g) => self.plan_for_ground(*g),
            _ => {
                let fp = self.cache.identity(rt);
                if let Some(p) = self.cache.plans.find_rt(fp) {
                    return p;
                }
                let pid = self.cache.plans.reserve_rt(fp);
                let kind = self.lower_rt(rt, pid);
                self.cache.plans.fill(pid, kind);
                pid
            }
        }
    }

    fn lower_rt(&mut self, rt: &RtVal, self_id: PlanId) -> PlanKind {
        match rt {
            RtVal::Tuple(fs) => {
                let fs = fs.clone();
                let mut ops = PlanOps::new();
                for (i, f) in fs.iter().enumerate() {
                    let p = self.plan_for_rt(f);
                    ops.push(i as u16, p);
                }
                PlanKind::Tuple {
                    size: fs.len() as u32,
                    ops: ops.finish(),
                }
            }
            RtVal::Data(d, args) => {
                let args = args.clone();
                let reps = self.prog.ctor_reps[d.0 as usize].clone();
                let tagged = reps
                    .iter()
                    .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }));
                let cx = EvalCx::Data(d.0);
                let mut variants = Vec::new();
                for (ctor, rep) in reps.iter().enumerate() {
                    let CtorRep::Ptr { tag, .. } = rep else {
                        continue;
                    };
                    let templates = self.data_variants[d.0 as usize][ctor].clone();
                    let mut ops = PlanOps::new();
                    for (i, sx) in templates.iter().enumerate() {
                        let frt = self.eval_at(*sx, &args, cx);
                        let p = self.plan_for_rt(&frt);
                        ops.push(rep.field_offset(i as u16), p);
                    }
                    let (ops, self_tail) = ops.finish_with_tail(self_id);
                    variants.push(VariantPlan {
                        tag: *tag,
                        words: rep.heap_words() as u32,
                        ops,
                        self_tail,
                    });
                }
                PlanKind::Data {
                    data: d.0,
                    tagged,
                    variants: variants.into(),
                }
            }
            RtVal::Arrow(_, _) => PlanKind::Closure { rt: rt.clone() },
            RtVal::Const | RtVal::Ground(_) => unreachable!("leaves never reserve plans"),
        }
    }

    /// The plan for a compiled ground routine, lowering on first sight.
    fn plan_for_ground(&mut self, g: TypeRtId) -> PlanId {
        if self.ground.rt(g).is_prim() {
            return NOOP_PLAN;
        }
        if let Some(p) = self.cache.plans.find_ground(g.0) {
            return p;
        }
        let pid = self.cache.plans.reserve_ground(g.0);
        let kind = match self.ground.rt(g).clone() {
            TypeRt::Prim => PlanKind::Noop,
            TypeRt::Tuple(fields) => {
                let mut ops = PlanOps::new();
                for (i, f) in fields.iter().enumerate() {
                    let p = self.plan_for_ground(*f);
                    ops.push(i as u16, p);
                }
                PlanKind::Tuple {
                    size: fields.len() as u32,
                    ops: ops.finish(),
                }
            }
            TypeRt::Data { data, variants } => {
                let tagged = variants
                    .iter()
                    .any(|v| matches!(v.rep, CtorRep::Ptr { tag: Some(_), .. }));
                let mut vps = Vec::new();
                for v in variants.iter() {
                    let CtorRep::Ptr { tag, .. } = v.rep else {
                        continue;
                    };
                    let mut ops = PlanOps::new();
                    for (i, f) in v.fields.iter().enumerate() {
                        let p = self.plan_for_ground(*f);
                        ops.push(v.rep.field_offset(i as u16), p);
                    }
                    let (ops, self_tail) = ops.finish_with_tail(pid);
                    vps.push(VariantPlan {
                        tag,
                        words: v.rep.heap_words() as u32,
                        ops,
                        self_tail,
                    });
                }
                PlanKind::Data {
                    data: data.0,
                    tagged,
                    variants: vps.into(),
                }
            }
            TypeRt::Arrow(_) => PlanKind::Closure {
                rt: RtVal::Ground(g),
            },
        };
        self.cache.plans.fill(pid, kind);
        pid
    }

    /// The plan for any tracing type: routine values key on cache
    /// identity; byte descriptors collapse `Param` chains first, then
    /// key on `(position, environment fingerprint)`.
    fn plan_for_wty(&mut self, ty: &WTy) -> PlanId {
        match ty {
            WTy::Rt(rt) => self.plan_for_rt(rt),
            WTy::Bytes { pos, env } => match self.collapse(*pos, env) {
                WTy::Rt(rt) => self.plan_for_rt(&rt),
                WTy::Bytes { pos, env } => self.plan_for_bytes_head(pos, &env),
            },
        }
    }

    /// Lowers the (non-`Param`-headed) descriptor at `pos` under `env`.
    /// The descriptor is parsed once here — execution never re-reads it.
    fn plan_for_bytes_head(&mut self, pos: u32, env: &Rc<Vec<WTy>>) -> PlanId {
        let eid = self.env_fp(env);
        if let Some(p) = self.cache.plans.find_bytes(pos, eid) {
            return p;
        }
        let pid = self.cache.plans.reserve_bytes(pos, eid);
        let kind = match self.pool.parse(pos, &mut self.stats.desc_bytes_read) {
            DescView::Prim => PlanKind::Noop,
            DescView::Param(i) => {
                // `collapse` resolved parameter chains before keying; a
                // remaining Param can only mean a torn environment, which
                // `byte_param` turns into a fail-fast panic.
                let sub = byte_param(env, i).clone();
                let p = self.plan_for_wty(&sub);
                self.cache.plans.fill(pid, self.cache.plans.kind(p).clone());
                return pid;
            }
            DescView::Tuple(fields) => {
                let mut ops = PlanOps::new();
                for (i, p) in fields.iter().enumerate() {
                    let fp = self.plan_for_wty(&WTy::Bytes {
                        pos: *p,
                        env: env.clone(),
                    });
                    ops.push(i as u16, fp);
                }
                PlanKind::Tuple {
                    size: fields.len() as u32,
                    ops: ops.finish(),
                }
            }
            DescView::Data(d, arg_positions) => {
                let arg_env: Rc<Vec<WTy>> = Rc::new(
                    arg_positions
                        .iter()
                        .map(|p| self.collapse(*p, env))
                        .collect(),
                );
                let reps = self.prog.ctor_reps[d.0 as usize].clone();
                let tagged = reps
                    .iter()
                    .any(|r| matches!(r, CtorRep::Ptr { tag: Some(_), .. }));
                let mut variants = Vec::new();
                for (ctor, rep) in reps.iter().enumerate() {
                    let CtorRep::Ptr { tag, .. } = rep else {
                        continue;
                    };
                    let fields = self.pool.data_fields[d.0 as usize][ctor].clone();
                    let mut ops = PlanOps::new();
                    for (i, p) in fields.iter().enumerate() {
                        let fp = self.plan_for_wty(&WTy::Bytes {
                            pos: *p,
                            env: arg_env.clone(),
                        });
                        ops.push(rep.field_offset(i as u16), fp);
                    }
                    let (ops, self_tail) = ops.finish_with_tail(pid);
                    variants.push(VariantPlan {
                        tag: *tag,
                        words: rep.heap_words() as u32,
                        ops,
                        self_tail,
                    });
                }
                PlanKind::Data {
                    data: d.0,
                    tagged,
                    variants: variants.into(),
                }
            }
            DescView::Arrow(a, b) => {
                let ra = self.wty_to_rt(&WTy::Bytes {
                    pos: a,
                    env: env.clone(),
                });
                let rb = self.wty_to_rt(&WTy::Bytes {
                    pos: b,
                    env: env.clone(),
                });
                PlanKind::Closure {
                    rt: RtVal::Arrow(Rc::new(ra), Rc::new(rb)),
                }
            }
        };
        self.cache.plans.fill(pid, kind);
        pid
    }

    /// Interns a byte-descriptor environment's fingerprint.
    fn env_fp(&mut self, env: &[WTy]) -> EnvId {
        let entries: Vec<EnvEntryFp> = env
            .iter()
            .map(|e| match e {
                WTy::Rt(rt) => EnvEntryFp::Rt(self.cache.identity(rt)),
                WTy::Bytes { pos, env } => EnvEntryFp::Bytes(*pos, self.env_fp(env)),
            })
            .collect();
        self.cache.plans.intern_env(entries.into())
    }

    // --- trace plans: execution ---

    /// The plan interpreter — the collector's only tracing executor —
    /// relocates one word under a lowered plan. `spine` enables the
    /// iterative tail chase and is true only when entered from the
    /// worklist. At a root the first cell enqueues its tail like any other
    /// field, so the root phase copies exactly one object per root and
    /// every deeper copy happens in the drain. Chasing a spine at the root
    /// would instead copy a whole list before the next root's first
    /// object, changing the copy order and with it every to-space address
    /// (the event-stream digest in `tests/gc_cache.rs` pins that order).
    fn reloc_plan(&mut self, w: Word, pid: PlanId, spine: bool) -> Word {
        // Cheap head clone (payloads sit behind `Rc`) releasing the
        // store borrow before heap work.
        match self.cache.plans.kind(pid).clone() {
            PlanKind::Noop => w,
            PlanKind::Pending => unreachable!("executing a plan mid-lowering"),
            PlanKind::Tuple { size, ops } => match self.head(w, size as usize) {
                Head::Imm(w) | Head::Done(w) => w,
                Head::Copied(new) => {
                    self.push_plan_ops(new, &ops);
                    self.enc.ptr(new)
                }
            },
            PlanKind::Closure { rt } => self.reloc_closure(w, rt),
            PlanKind::Data {
                data,
                tagged,
                variants,
            } => self.reloc_plan_data(w, pid, data, tagged, &variants, spine),
        }
    }

    fn push_plan_ops(&mut self, new: Addr, ops: &[PlanOp]) {
        for op in ops {
            match *op {
                PlanOp::SlotAt { offset, plan } => self.push(new, offset, plan),
                PlanOp::Fields { base, n, plan } => {
                    for k in 0..n {
                        self.push(new, base + k, plan);
                    }
                }
            }
        }
    }

    /// Datatype relocation under a pre-resolved variant table; with
    /// `spine`, a self-recursive tail field is chased iteratively — the
    /// list loop — instead of round-tripping the worklist per cell.
    fn reloc_plan_data(
        &mut self,
        w: Word,
        pid: PlanId,
        data: u32,
        tagged: bool,
        variants: &[VariantPlan],
        spine: bool,
    ) -> Word {
        let (mut vi, first) = match self.data_head(w, data, tagged, variants) {
            DataHead::Imm(w) | DataHead::Done(w) => return w,
            DataHead::Copied { vi, new } => (vi, new),
        };
        let result = self.enc.ptr(first);
        let mut new = first;
        loop {
            let vp = &variants[vi];
            let ops = vp.ops.clone();
            let tail = vp.self_tail;
            self.push_plan_ops(new, &ops);
            let Some(tail_off) = tail else { break };
            if !spine {
                // Root position: enqueue the tail like any field; the pop
                // re-enters this plan with the loop enabled.
                self.push(new, tail_off, pid);
                break;
            }
            let tw = self.heap.read(new, tail_off);
            match self.data_head(tw, data, tagged, variants) {
                DataHead::Imm(x) | DataHead::Done(x) => {
                    self.heap.write(new, tail_off, x);
                    break;
                }
                DataHead::Copied { vi: nvi, new: nnew } => {
                    self.heap.write(new, tail_off, self.enc.ptr(nnew));
                    vi = nvi;
                    new = nnew;
                }
            }
        }
        result
    }

    /// Head handling for datatype values under a pre-resolved variant
    /// table: immediate test, discriminant read (§2.3), variant-sized
    /// copy.
    fn data_head(
        &mut self,
        w: Word,
        data: u32,
        tagged: bool,
        variants: &[VariantPlan],
    ) -> DataHead {
        if w < HEAP_BASE {
            return DataHead::Imm(w);
        }
        let a = self.enc.addr_of(w);
        if self.heap.in_to(a) {
            return DataHead::Done(w);
        }
        if let Some(n) = self.heap.forward_of(a) {
            return DataHead::Done(self.enc.ptr(n));
        }
        let vi = if tagged {
            let t = self.heap.read(a, 0) as u32;
            variants
                .iter()
                .position(|v| v.tag == Some(t))
                .unwrap_or_else(|| {
                    panic!(
                        "heap corruption: discriminant {} at address {} (word {:#x}) matches \
                         no variant of datatype {} — collection {}, strategy {}, reached \
                         tracing {}",
                        t,
                        a.0,
                        w,
                        data,
                        self.seq,
                        self.strategy.name(),
                        self.cur
                    )
                })
        } else if variants.is_empty() {
            panic!(
                "heap corruption: pointer word {:#x} (address {}) typed as datatype {} \
                 whose variants are all pointerless — collection {}, strategy {}, \
                 reached tracing {}",
                w,
                a.0,
                data,
                self.seq,
                self.strategy.name(),
                self.cur
            )
        } else {
            0
        };
        let vp = &variants[vi];
        let words = vp.words as usize;
        let new = self.heap.copy_out(a, words);
        self.heap.set_forward(a, new);
        self.copied(a, new, words);
        DataHead::Copied { vi, new }
    }
}

/// Head classification of a datatype relocation; the variant is resolved
/// to an index into the plan's variant table.
enum DataHead {
    Imm(Word),
    Done(Word),
    Copied { vi: usize, new: Addr },
}
