//! The TFML virtual machine.
//!
//! Executes the bytecode of [`tfgc_ir`] over the heap of
//! [`tfgc_runtime`], triggering the configured collector at allocation
//! sites — and only there: "garbage collection can only be initiated by a
//! call to a procedure that allocates memory" (§2.1). Activation records
//! live in one word array per thread, laid out per [`tfgc_gc::stack`]
//! (Figure 1); the return word pushed at each call is the gc_word key the
//! collector uses.
//!
//! The machine supports multiple threads of control over one shared heap
//! (§4's tasks); the cooperative scheduler lives in `tfgc-tasking`. A
//! single-task program uses thread 0 only.

use crate::error::{VmError, VmResult};
use crate::render::render_value;
use crate::stats::MutatorStats;
use tfgc_gc::{
    collect, pack_ret, Analyses, DescArena, DescId, GcMeta, GcStats, MachineRoots, StackRoots,
    Strategy, FRAME_HDR, MAIN_RET, NO_FP,
};
use tfgc_ir::{ArithOp, CallSiteId, CmpOp, CtorRep, FnId, Instr, IrProgram, Slot};
use tfgc_obs::{GcEvent, Obs};
use tfgc_runtime::{Addr, ArithKind, Encoding, Heap, HeapStats, Word, HEAP_BASE};
use tfgc_verify::{
    snapshot_tagfree, snapshot_tagged, verify_tagfree, verify_tagged, CanonHeap, FaultPlan,
    RootsView, StackView,
};

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Collection strategy (decides heap encoding and metadata).
    pub strategy: Strategy,
    /// Words per semispace.
    pub heap_words: usize,
    /// Force a collection every `n` allocations (used by the liveness
    /// precision experiment to compare retained bytes at identical
    /// program points).
    pub force_gc_every: Option<u64>,
    /// Instruction budget (`None` = unlimited).
    pub max_steps: Option<u64>,
    /// Maximum stack size in words (per thread).
    pub max_stack_words: usize,
    /// Cooperative mode (§4 tasking): an exhausted heap does not collect
    /// inline; the step reports [`StepEvent::AllocBlocked`] and the
    /// scheduler decides when every task is suspended.
    pub cooperative: bool,
    /// Walk and check the whole reachable graph after every collection
    /// (`tfml run --verify-heap`).
    pub verify_heap: bool,
    /// Deterministic fault schedule (`None` = no faults).
    pub fault_plan: Option<FaultPlan>,
    /// Bounded growth policy: grow each semispace up to this many words
    /// when a collection cannot satisfy an allocation (`None` = fixed
    /// heap, the historical behavior).
    pub heap_max_words: Option<usize>,
    /// Growth factor in percent (200 = double). Values ≤ 100 are treated
    /// as the minimum useful step.
    pub heap_growth_pct: u32,
    /// Generational tier: bump-pointer nursery size in words (`None` =
    /// classic single-generation semispace heap). Nursery exhaustion
    /// triggers a *minor* collection — roots only, tenured untouched —
    /// which is sound without write barriers because the heap is
    /// immutable (no tenured→nursery edge can exist).
    pub nursery_words: Option<usize>,
    /// Minor collections an object survives in the nursery before being
    /// promoted to tenured space (0 = promote on first survival; the
    /// nursery then has no survivor half).
    pub promote_after: u32,
}

impl VmConfig {
    /// A configuration with sensible defaults for `strategy`.
    pub fn new(strategy: Strategy) -> VmConfig {
        VmConfig {
            strategy,
            heap_words: 1 << 16,
            force_gc_every: None,
            max_steps: Some(200_000_000),
            max_stack_words: 1 << 22,
            cooperative: false,
            verify_heap: false,
            fault_plan: None,
            heap_max_words: None,
            heap_growth_pct: 200,
            nursery_words: None,
            promote_after: 0,
        }
    }

    /// Enables the generational tier: a `nursery_words` bump-pointer
    /// nursery with minor collections, promoting survivors after
    /// `promote_after` survivals (0 = first survival).
    pub fn generational(mut self, nursery_words: usize, promote_after: u32) -> VmConfig {
        self.nursery_words = Some(nursery_words);
        self.promote_after = promote_after;
        self
    }

    /// Sets the semispace size.
    pub fn heap_words(mut self, words: usize) -> VmConfig {
        self.heap_words = words;
        self
    }

    /// Forces a collection every `n` allocations.
    pub fn force_gc_every(mut self, n: u64) -> VmConfig {
        self.force_gc_every = Some(n);
        self
    }

    /// Enables the post-collection heap verifier.
    pub fn verify_heap(mut self, on: bool) -> VmConfig {
        self.verify_heap = on;
        self
    }

    /// Installs a deterministic fault schedule.
    pub fn fault_plan(mut self, plan: FaultPlan) -> VmConfig {
        self.fault_plan = Some(plan);
        self
    }

    /// Allows the heap to grow up to `words` per semispace.
    pub fn heap_max_words(mut self, words: usize) -> VmConfig {
        self.heap_max_words = Some(words);
        self
    }
}

/// Everything observable about a finished run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Values printed by `print`, in order.
    pub printed: Vec<i64>,
    /// The main expression's value, rendered.
    pub result: String,
    pub heap: HeapStats,
    pub gc: GcStats,
    pub mutator: MutatorStats,
    /// Distinct runtime type descriptors interned (RTTI completion cost).
    pub descs_interned: usize,
    /// Metadata footprint of the strategy, in bytes.
    pub metadata_bytes: usize,
    /// Heap backing store committed by the end of the run
    /// ([`Heap::committed_words`]): a diagnostic of memory touched, not
    /// a counter of work, so it is kept out of [`HeapStats`].
    pub committed_words: usize,
}

/// Compiles metadata and runs a program to completion (single thread).
///
/// # Errors
///
/// Returns a [`VmError`] on OOM, match failure, division by zero, or
/// exceeded limits.
pub fn run_program(prog: &IrProgram, config: VmConfig) -> VmResult<RunOutcome> {
    let mut vm = Vm::new(prog, config);
    vm.run()
}

/// One step's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Keep going.
    Continue,
    /// The current thread's bottom frame returned this word.
    Done(Word),
    /// Cooperative mode only: the heap is exhausted; the current thread
    /// is suspended at the allocation site and will re-execute the
    /// instruction after a collection.
    AllocBlocked(CallSiteId),
    /// The next instruction is a call or an allocation of a kind in the
    /// [`Safepoints::stop`] set, at this site; it has not run.
    Safepoint(CallSiteId),
}

/// A set of safe-point kinds: the two places §4 lets a task be
/// suspended for collection, procedure calls and allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafepointKinds(u8);

impl SafepointKinds {
    pub const NONE: SafepointKinds = SafepointKinds(0);
    /// `CallDirect` and `CallClosure`.
    pub const CALLS: SafepointKinds = SafepointKinds(1);
    /// `MakeTuple`, `MakeData` and `MakeClosure`.
    pub const ALLOCS: SafepointKinds = SafepointKinds(2);
    pub const ALL: SafepointKinds = SafepointKinds(3);

    fn has(self, kind: SafepointKinds) -> bool {
        self.0 & kind.0 != 0
    }
}

/// What [`Vm::exec`] does on reaching a safe point with budget left: the
/// suspension test of §4, which the paper makes "effectively free" by
/// adding the `Rgc` register to every call's target address. Here it is
/// a flag test inside the dispatch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Safepoints {
    /// Kinds whose arrival counts as one suspension check
    /// ([`ExecOutcome::checks`]).
    pub check: SafepointKinds,
    /// Kinds to stop before, with [`StepEvent::Safepoint`].
    pub stop: SafepointKinds,
}

impl Safepoints {
    /// No test at all: the plain dispatch loop of [`Vm::run`] and
    /// [`Vm::step`].
    pub const NONE: Safepoints = Safepoints {
        check: SafepointKinds::NONE,
        stop: SafepointKinds::NONE,
    };
}

/// The result of one [`Vm::exec`] run.
#[derive(Debug)]
pub struct ExecOutcome {
    /// How the run ended.
    pub event: VmResult<StepEvent>,
    /// Instructions completed — an instruction that blocks on the heap
    /// or fails is counted in [`MutatorStats::instructions`] but not
    /// here.
    pub ran: u64,
    /// Safe points of a [`Safepoints::check`] kind reached with budget
    /// left.
    pub checks: u64,
}

/// How a [`Vm::dispatch`] run ended.
#[derive(Debug)]
enum Exit {
    /// The budget ran out.
    Budget,
    /// The next instruction is a safe point of a stop kind, at this site.
    Safepoint(CallSiteId),
    /// The thread's bottom frame returned this word.
    Done(Word),
    /// Cooperative mode: the allocation at this site found the heap full.
    Blocked(CallSiteId),
    /// The last instruction counted failed.
    Fault(VmError),
}

/// One thread of control (§4's task).
#[derive(Debug, Clone)]
struct ThreadState {
    stack: Vec<Word>,
    fp: usize,
    fn_id: FnId,
    pc: u32,
    result: Option<Word>,
    /// Where the scheduler parked this thread (valid while suspended).
    parked_site: Option<CallSiteId>,
    /// Runaway fault ([`FaultPlan::stall_at`]): the thread spins — every
    /// step burns an instruction without advancing — until a budget ends
    /// it.
    stalled: bool,
}

/// The virtual machine.
#[derive(Debug)]
pub struct Vm<'p> {
    prog: &'p IrProgram,
    pub meta: GcMeta,
    pub heap: Heap,
    enc: Encoding,
    threads: Vec<ThreadState>,
    cur: usize,
    globals: Vec<Word>,
    pub descs: DescArena,
    pub printed: Vec<i64>,
    pub gc_stats: GcStats,
    pub mutator: MutatorStats,
    /// Event sink: [`Obs::null`] by default (one branch per emission
    /// site); swap in [`Obs::ring`] to record.
    pub obs: Obs,
    cfg: VmConfig,
    allocs_since_force: u64,
    /// Monotone allocation sequence number (fault-plan trigger key).
    alloc_seq: u64,
    /// Largest request a parked task is blocked on that a minor
    /// collection cannot satisfy (exceeds eden); forces the scheduler's
    /// next collection to be a major. Cleared by every major.
    pending_oversize: usize,
    /// Differential-oracle state, when snapshots are enabled.
    oracle: Option<Box<OracleState>>,
    /// Operand buffer of the collect-and-retry allocation path, reused
    /// across allocations (the collector relocates what it holds).
    operands: Vec<Word>,
}

/// Pre-collection snapshots for the tagged-oracle differential check.
#[derive(Debug)]
struct OracleState {
    /// The tag-free strategy's metadata whose routine positions define
    /// the root set. The tagged run walks the *same* slots by tags.
    root_meta: GcMeta,
    snapshots: Vec<CanonHeap>,
}

impl<'p> Vm<'p> {
    /// Creates a VM for `prog`, compiling the strategy's metadata. Thread
    /// 0 is set up to run `main`.
    pub fn new(prog: &'p IrProgram, cfg: VmConfig) -> Vm<'p> {
        Vm::with_analyses(prog, &Analyses::compute(prog), cfg)
    }

    /// Creates a VM for `prog` from analyses already computed for it
    /// (a compiled program keeps its own), building only the strategy's
    /// metadata.
    pub fn with_analyses(prog: &'p IrProgram, analyses: &Analyses, cfg: VmConfig) -> Vm<'p> {
        // Cooperative (multi-task) machines must keep every gc_word:
        // another task can trigger a collection anywhere.
        let meta = if cfg.cooperative {
            GcMeta::build_multi_task(prog, analyses, cfg.strategy)
        } else {
            GcMeta::build(prog, analyses, cfg.strategy)
        };
        Vm::with_meta(prog, cfg, meta)
    }

    /// Creates a VM with precompiled metadata (benchmarks reuse metadata
    /// across runs).
    pub fn with_meta(prog: &'p IrProgram, cfg: VmConfig, mut meta: GcMeta) -> Vm<'p> {
        // Truncated-stack-map fault: drop the function's frame
        // type-parameter sources so the first collection through one of
        // its polymorphic frames hits the fail-fast "type parameter N out
        // of range" panic instead of silently mistracing.
        if let Some(f) = cfg
            .fault_plan
            .as_ref()
            .and_then(|p| p.truncate_frame_params_of)
        {
            if let Some(fm) = meta.fns.get_mut(f as usize) {
                fm.frame_param_src.clear();
            }
        }
        let enc = Encoding::new(cfg.strategy.heap_mode());
        let heap = match cfg.nursery_words {
            Some(n) => Heap::new_generational(cfg.heap_words, n, cfg.promote_after),
            None => Heap::new(cfg.heap_words),
        };
        let globals = vec![enc.int(0); prog.globals.len()];
        let mut vm = Vm {
            prog,
            meta,
            heap,
            enc,
            threads: Vec::new(),
            cur: 0,
            globals,
            descs: DescArena::new(),
            printed: Vec::new(),
            gc_stats: GcStats::default(),
            mutator: MutatorStats::default(),
            obs: Obs::null(),
            cfg,
            allocs_since_force: 0,
            alloc_seq: 0,
            pending_oversize: 0,
            oracle: None,
            operands: Vec::new(),
        };
        vm.spawn_thread(prog.main, &[]);
        vm
    }

    /// Enables pre-collection canonical snapshots for the differential
    /// oracle. `root_meta` must be the *tag-free* strategy's metadata
    /// whose run this one is compared against (for a tag-free run, pass a
    /// clone of its own metadata).
    pub fn enable_snapshots(&mut self, root_meta: GcMeta) {
        self.oracle = Some(Box::new(OracleState {
            root_meta,
            snapshots: Vec::new(),
        }));
    }

    /// Takes the snapshots captured so far (empty if snapshots were never
    /// enabled).
    pub fn take_snapshots(&mut self) -> Vec<CanonHeap> {
        self.oracle
            .as_mut()
            .map(|o| std::mem::take(&mut o.snapshots))
            .unwrap_or_default()
    }

    /// Builds a fresh bottom frame running `f` with `args` already in
    /// its first slots, in `stack`'s buffer (shared by spawn and respawn;
    /// accounts the frame init stores identically in both).
    fn make_thread(&mut self, f: FnId, args: &[Word], mut stack: Vec<Word>) -> ThreadState {
        let fun = self.prog.fun(f);
        stack.clear();
        stack.reserve(FRAME_HDR + fun.slots.len());
        stack.push(NO_FP);
        stack.push(MAIN_RET);
        let init = self.frame_fill();
        for i in 0..fun.slots.len() {
            stack.push(if i < args.len() { args[i] } else { init });
        }
        if self.cfg.strategy.requires_frame_init() {
            self.mutator.frame_init_stores += (fun.slots.len() - args.len()) as u64;
        }
        ThreadState {
            stack,
            fp: 0,
            fn_id: f,
            pc: 0,
            result: None,
            parked_site: None,
            stalled: false,
        }
    }

    /// Spawns a new thread whose bottom frame runs `f` with `args` already
    /// in its first slots. Returns the thread index.
    pub fn spawn_thread(&mut self, f: FnId, args: &[Word]) -> usize {
        let t = self.make_thread(f, args, Vec::new());
        self.threads.push(t);
        self.threads.len() - 1
    }

    /// Reuses thread slot `i` for a fresh run of `f` (the serve
    /// scheduler's request-lifecycle hook): the previous request's stack
    /// and result are replaced in place, so the collector's root scan
    /// stays proportional to the pool size rather than the total request
    /// count, and the thread vector never grows during a service run.
    /// The new frame goes into the old stack's buffer, so a request
    /// allocates no stack of its own.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slot still holds a live
    /// (unfinished, unkilled) computation.
    pub fn respawn_thread(&mut self, i: usize, f: FnId, args: &[Word]) {
        assert!(i < self.threads.len(), "no thread {i}");
        let old = &self.threads[i];
        assert!(
            old.result.is_some() || old.stack.is_empty(),
            "thread {i} is still running; respawn would drop live frames"
        );
        let stack = std::mem::take(&mut self.threads[i].stack);
        self.threads[i] = self.make_thread(f, args, stack);
    }

    /// Number of threads (including finished ones).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Switches execution to thread `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_current_thread(&mut self, i: usize) {
        assert!(i < self.threads.len(), "no thread {i}");
        self.cur = i;
    }

    /// The currently executing thread.
    pub fn current_thread(&self) -> usize {
        self.cur
    }

    /// The result of thread `i`, if it finished.
    pub fn thread_result(&self, i: usize) -> Option<Word> {
        self.threads[i].result
    }

    /// Records where the scheduler parked thread `i` (§4: tasks suspend
    /// only at procedure calls / allocation sites).
    pub fn park_thread(&mut self, i: usize, site: CallSiteId) {
        self.threads[i].parked_site = Some(site);
    }

    /// Clears a thread's parked state (on resume).
    pub fn unpark_thread(&mut self, i: usize) {
        self.threads[i].parked_site = None;
    }

    /// Quarantines a failed thread: clears its stack so the collector
    /// stops tracing it (its heap data dies at the next collection) and
    /// drops its parked state. The scheduler uses this to let sibling
    /// tasks run on after one task errors.
    pub fn kill_thread(&mut self, i: usize) {
        let t = &mut self.threads[i];
        t.stack.clear();
        t.parked_site = None;
        t.stalled = false;
    }

    /// True while thread `i` is spinning under the `stall_at` runaway
    /// fault.
    pub fn thread_stalled(&self, i: usize) -> bool {
        self.threads[i].stalled
    }

    /// The configured strategy's name (for error reporting).
    pub fn strategy_name(&self) -> &'static str {
        self.cfg.strategy.name()
    }

    fn frame_fill(&self) -> Word {
        if self.cfg.strategy.requires_frame_init() {
            // Safe value under either encoding (tagged: int 0 is odd).
            self.enc.int(0)
        } else {
            // Never traced (live ⊆ assigned is validated at compile
            // time); zero keeps runs deterministic.
            0
        }
    }

    fn th(&self) -> &ThreadState {
        &self.threads[self.cur]
    }

    /// Runs thread 0 to completion.
    pub fn run(&mut self) -> VmResult<RunOutcome> {
        loop {
            match self.exec(u64::MAX, Safepoints::NONE).event? {
                StepEvent::Done(w) => {
                    let result =
                        render_value(self.prog, &self.heap, self.enc, w, &self.prog.main_ty);
                    return Ok(RunOutcome {
                        printed: std::mem::take(&mut self.printed),
                        result,
                        heap: self.heap.stats,
                        gc: self.gc_stats,
                        mutator: self.mutator,
                        descs_interned: self.descs.len(),
                        metadata_bytes: self.meta.metadata_bytes(),
                        committed_words: self.heap.committed_words(),
                    });
                }
                StepEvent::AllocBlocked(_) => {
                    unreachable!("non-cooperative mode collects inline")
                }
                StepEvent::Safepoint(_) => unreachable!("no safe point stops"),
                StepEvent::Continue => {}
            }
        }
    }

    /// Executes one instruction of the current thread.
    pub fn step(&mut self) -> VmResult<StepEvent> {
        self.exec(1, Safepoints::NONE).event
    }

    /// The dispatch loop: runs up to `budget` instructions of the current
    /// thread, making the suspension test `safepoints` asks for at every
    /// call and allocation reached with budget left.
    ///
    /// `Continue` means the budget ran out; `Safepoint` that the next
    /// instruction is a safe point of a stop kind, which has not run.
    /// `max_steps` is enforced as a remaining budget: the run fails with
    /// [`VmError::StepLimit`] at exactly the instruction a one-at-a-time
    /// check would refuse.
    pub fn exec(&mut self, budget: u64, safepoints: Safepoints) -> ExecOutcome {
        let allowed = match self.cfg.max_steps {
            Some(limit) => limit.saturating_sub(self.mutator.instructions),
            None => u64::MAX,
        };
        let capped = budget.min(allowed);
        // `run()` and `step()` pay no safe-point test: they get the
        // instance compiled without one.
        let (exit, counted, checks) = if safepoints == Safepoints::NONE {
            self.dispatch::<false>(capped, safepoints)
        } else {
            self.dispatch::<true>(capped, safepoints)
        };
        self.mutator.instructions += counted;
        let (event, ran) = match exit {
            Exit::Budget if counted < budget => {
                let limit = self.cfg.max_steps.unwrap_or(u64::MAX);
                (Err(VmError::StepLimit { limit }), counted)
            }
            Exit::Budget => (Ok(StepEvent::Continue), counted),
            Exit::Safepoint(site) => (Ok(StepEvent::Safepoint(site)), counted),
            Exit::Done(w) => (Ok(StepEvent::Done(w)), counted),
            Exit::Blocked(site) => (Ok(StepEvent::AllocBlocked(site)), counted - 1),
            Exit::Fault(e) => (Err(e), counted - 1),
        };
        ExecOutcome { event, ran, checks }
    }

    /// The body of [`Vm::exec`] with `budget` already capped by
    /// `max_steps`; `SAFEPOINTS` is false exactly when `sp` is
    /// [`Safepoints::NONE`]. The thread's registers live in locals; the
    /// frame is re-cached only on call and return, and the stack goes
    /// back into the thread only for the collect-and-retry path and on
    /// exit. Returns the exit, the instructions counted and the
    /// suspension checks made.
    fn dispatch<const SAFEPOINTS: bool>(
        &mut self,
        budget: u64,
        sp: Safepoints,
    ) -> (Exit, u64, u64) {
        let prog = self.prog;
        let enc = self.enc;
        let cur = self.cur;
        let t = &mut self.threads[cur];
        let mut stack = std::mem::take(&mut t.stack);
        let mut fp = t.fp;
        let mut fn_id = t.fn_id;
        let mut pc = t.pc as usize;
        let mut stalled = t.stalled;
        let mut base = fp + FRAME_HDR;
        let mut code: &[Instr] = &prog.fun(fn_id).code;
        let mut left = budget;
        let mut checks = 0u64;

        macro_rules! get {
            ($s:expr) => {
                stack[base + $s.0 as usize]
            };
        }
        macro_rules! set {
            ($d:expr, $w:expr) => {{
                let w = $w;
                stack[base + $d.0 as usize] = w;
            }};
        }
        // Allocates an object whose fields are frame slots. The fields
        // go straight into the heap when `Heap::alloc` succeeds; only a
        // full heap, a forced collection or a fault schedule takes the
        // buffered collect-and-retry path.
        macro_rules! alloc {
            ($dst:expr, $site:expr, $head:expr, $fields:expr, $disc:expr) => {{
                let head: Option<Word> = $head;
                let fields: &[Slot] = $fields;
                let total = enc.mode.header_words() + usize::from(head.is_some()) + fields.len();
                let fast = if self.cfg.force_gc_every.is_none() && self.cfg.fault_plan.is_none() {
                    self.heap.alloc(total)
                } else {
                    None
                };
                let ptr = match fast {
                    Some(addr) => {
                        self.alloc_seq += 1;
                        let slots = &stack[base..];
                        write_object(
                            &mut self.heap,
                            enc,
                            addr,
                            total,
                            head,
                            fields.iter().map(|s| slots[s.0 as usize]),
                        );
                        self.emit_alloc($site, total, addr);
                        enc.ptr(addr)
                    }
                    None => {
                        let t = &mut self.threads[cur];
                        t.fp = fp;
                        t.fn_id = fn_id;
                        t.pc = pc as u32;
                        let r = self.alloc_slow(&mut stack, base, $site, head, fields, $disc);
                        stalled = self.threads[cur].stalled;
                        match r {
                            Ok(Some(p)) => p,
                            Ok(None) => break Exit::Blocked($site),
                            Err(e) => break Exit::Fault(e),
                        }
                    }
                };
                set!($dst, ptr);
            }};
        }
        // §4's suspension test, made where the paper's `Rgc` makes it: at
        // the call or allocation itself, which has already been charged
        // to the budget. Stopping before it gives the charge back.
        macro_rules! safepoint {
            ($kind:expr, $site:expr) => {
                if SAFEPOINTS {
                    if sp.check.has($kind) {
                        checks += 1;
                    }
                    if sp.stop.has($kind) {
                        left += 1;
                        break Exit::Safepoint($site);
                    }
                }
            };
        }

        let exit = loop {
            if left == 0 {
                break Exit::Budget;
            }
            let ins = &code[pc];
            if stalled {
                // A runaway-fault thread burns its instructions without
                // making progress; only a deadline/fuel budget or the
                // step limit can end it. Stuck at a safe point, it makes
                // the suspension test once per burned instruction, as if
                // each had been the call or allocation.
                if SAFEPOINTS {
                    if let Some((kind, site)) = safepoint_of(ins) {
                        if sp.stop.has(kind) {
                            checks += u64::from(sp.check.has(kind));
                            break Exit::Safepoint(site);
                        }
                        if sp.check.has(kind) {
                            checks += left;
                        }
                    }
                }
                left = 0;
                break Exit::Budget;
            }
            left -= 1;
            match ins {
                Instr::LoadInt(d, n) => set!(d, enc.int(*n)),
                Instr::LoadBool(d, b) => set!(d, enc.bool(*b)),
                Instr::LoadUnit(d) => set!(d, enc.unit()),
                Instr::LoadGlobal(d, g) => set!(d, self.globals[g.0 as usize]),
                Instr::StoreGlobal(g, s) => self.globals[g.0 as usize] = get!(s),
                Instr::Move(d, s) => set!(d, get!(s)),
                Instr::Arith(d, op, a, b) => {
                    let x = enc.int_of(get!(a));
                    let y = enc.int_of(get!(b));
                    let (kind, val) = match op {
                        ArithOp::Add => (ArithKind::Add, Some(x.wrapping_add(y))),
                        ArithOp::Sub => (ArithKind::Sub, Some(x.wrapping_sub(y))),
                        ArithOp::Mul => (ArithKind::Mul, Some(x.wrapping_mul(y))),
                        ArithOp::Div => (ArithKind::Div, x.checked_div(y)),
                        ArithOp::Mod => (ArithKind::Mod, x.checked_rem(y)),
                    };
                    let Some(val) = val else {
                        break Exit::Fault(VmError::DivideByZero {
                            function: prog.fun(fn_id).name.clone(),
                        });
                    };
                    self.mutator.tag_ops += enc.arith_tag_ops(kind);
                    set!(d, enc.int(val));
                }
                Instr::Cmp(d, op, a, b) => {
                    let x = enc.int_of(get!(a));
                    let y = enc.int_of(get!(b));
                    let r = match op {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    };
                    self.mutator.tag_ops += enc.arith_tag_ops(ArithKind::Cmp);
                    set!(d, enc.bool(r));
                }
                Instr::Neg(d, a) => {
                    let x = enc.int_of(get!(a));
                    self.mutator.tag_ops += enc.arith_tag_ops(ArithKind::Neg);
                    set!(d, enc.int(x.wrapping_neg()));
                }
                Instr::Not(d, a) => set!(d, enc.bool(!enc.bool_of(get!(a)))),
                Instr::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Instr::BranchFalse(s, t) => {
                    if !enc.bool_of(get!(s)) {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::BranchIntNe(s, n, t) => {
                    if enc.int_of(get!(s)) != *n {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::BranchTagNe {
                    obj,
                    data,
                    ctor,
                    target,
                } => {
                    if !self.value_matches_ctor(get!(obj), prog.ctor_rep(*data, *ctor)) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::GetField(d, o, i) => set!(d, self.heap_field(get!(o), *i)),
                Instr::MakeTuple { dst, elems, site } => {
                    safepoint!(SafepointKinds::ALLOCS, *site);
                    alloc!(dst, *site, None, elems, false)
                }
                Instr::MakeData {
                    dst,
                    data,
                    ctor,
                    fields,
                    site,
                } => {
                    safepoint!(SafepointKinds::ALLOCS, *site);
                    let tag_word = match prog.ctor_rep(*data, *ctor) {
                        CtorRep::Ptr { tag: Some(t), .. } => Some(self.encode_tag(t)),
                        CtorRep::Ptr { tag: None, .. } => None,
                        CtorRep::Imm(_) => {
                            unreachable!("immediate constructors lower to LoadInt")
                        }
                    };
                    alloc!(dst, *site, tag_word, fields, tag_word.is_some())
                }
                Instr::MakeClosure {
                    dst,
                    f,
                    captures,
                    site,
                } => {
                    safepoint!(SafepointKinds::ALLOCS, *site);
                    alloc!(dst, *site, Some(self.encode_fn_id(*f)), captures, false)
                }
                Instr::EvalDesc { dst, template } => {
                    self.mutator.desc_evals += 1;
                    // Resolve parameter descriptors from this frame's
                    // descriptor slots.
                    let params = &prog.fun(fn_id).desc_param_slots;
                    let slots = &stack[base..];
                    let id = self.descs.eval_type(prog.desc_template(*template), &|p| {
                        params
                            .iter()
                            .find(|(q, _)| *q == p)
                            .map(|(_, s)| DescId(decode_desc_word(enc, slots[s.0 as usize])))
                    });
                    set!(dst, self.encode_desc_word(id.0));
                }
                Instr::CallDirect { dst, f, args, site } => {
                    safepoint!(SafepointKinds::CALLS, *site);
                    self.mutator.calls += 1;
                    // Arguments go from the caller's slots straight into
                    // the new frame.
                    let pushed =
                        self.push_frame(&mut stack, fp, *f, *site, *dst, args.len(), |st, i| {
                            st[base + args[i].0 as usize]
                        });
                    match pushed {
                        Ok(new_fp) => fp = new_fp,
                        Err(e) => break Exit::Fault(e),
                    }
                    base = fp + FRAME_HDR;
                    fn_id = *f;
                    code = &prog.fun(fn_id).code;
                    pc = 0;
                    continue;
                }
                Instr::CallClosure {
                    dst,
                    clos,
                    arg,
                    site,
                } => {
                    safepoint!(SafepointKinds::CALLS, *site);
                    self.mutator.closure_calls += 1;
                    let cw = get!(clos);
                    let aw = get!(arg);
                    let f = FnId(self.decode_fn_id(self.heap_field(cw, 0)));
                    let pushed = self.push_frame(&mut stack, fp, f, *site, *dst, 2, |_, i| {
                        if i == 0 {
                            cw
                        } else {
                            aw
                        }
                    });
                    match pushed {
                        Ok(new_fp) => fp = new_fp,
                        Err(e) => break Exit::Fault(e),
                    }
                    base = fp + FRAME_HDR;
                    fn_id = f;
                    code = &prog.fun(fn_id).code;
                    pc = 0;
                    continue;
                }
                Instr::Return(s) => {
                    let w = get!(s);
                    let saved = stack[fp];
                    if saved == NO_FP {
                        stack.clear();
                        self.threads[cur].result = Some(w);
                        break Exit::Done(w);
                    }
                    let (site, dst) = tfgc_gc::unpack_ret(stack[fp + 1]);
                    stack.truncate(fp);
                    fp = saved as usize;
                    base = fp + FRAME_HDR;
                    // Resume after the call — the paper's `jmpl %o7+12`
                    // skipping the gc_word (ours lives in a side table
                    // keyed by the site).
                    let cs = prog.site(site);
                    fn_id = cs.fn_id;
                    code = &prog.fun(fn_id).code;
                    pc = cs.pc as usize + 1;
                    set!(dst, w);
                    continue;
                }
                Instr::Print(s) => self.printed.push(enc.int_of(get!(s))),
                Instr::MatchFail => {
                    break Exit::Fault(VmError::MatchFailure {
                        function: prog.fun(fn_id).name.clone(),
                    })
                }
            }
            pc += 1;
        };
        let t = &mut self.threads[cur];
        t.stack = stack;
        t.fp = fp;
        t.fn_id = fn_id;
        t.pc = pc as u32;
        (exit, budget - left, checks)
    }

    /// Pushes a callee frame onto `stack` above the caller frame at `fp`:
    /// dynamic link, return word (the gc_word key), slots. Slot
    /// `i < n_args` receives `arg(stack, i)`, read before the push.
    /// Returns the new frame pointer.
    #[allow(clippy::too_many_arguments)]
    fn push_frame(
        &mut self,
        stack: &mut Vec<Word>,
        fp: usize,
        callee: FnId,
        site: CallSiteId,
        dst: Slot,
        n_args: usize,
        arg: impl Fn(&[Word], usize) -> Word,
    ) -> VmResult<usize> {
        let n_slots = self.prog.fun(callee).slots.len();
        let new_fp = stack.len();
        if new_fp + FRAME_HDR + n_slots > self.cfg.max_stack_words {
            return Err(VmError::StackOverflow { words: new_fp });
        }
        stack.push(fp as Word);
        stack.push(pack_ret(site, dst));
        for i in 0..n_args {
            let w = arg(stack, i);
            stack.push(w);
        }
        stack.resize(new_fp + FRAME_HDR + n_slots, self.frame_fill());
        if self.cfg.strategy.requires_frame_init() {
            self.mutator.frame_init_stores += (n_slots - n_args) as u64;
        }
        self.mutator.max_stack_words = self.mutator.max_stack_words.max(stack.len() as u64);
        Ok(new_fp)
    }

    /// The collect-and-retry path of an allocation inside the dispatch
    /// loop, entered with the thread's other registers already stored.
    /// The collector scans the running thread's stack and may relocate
    /// the operands, so the stack goes back into the thread and the
    /// operands into the reused buffer before [`Vm::alloc_object`] runs.
    fn alloc_slow(
        &mut self,
        stack: &mut Vec<Word>,
        base: usize,
        site: CallSiteId,
        head: Option<Word>,
        fields: &[Slot],
        head_is_discriminant: bool,
    ) -> VmResult<Option<Word>> {
        let mut ops = std::mem::take(&mut self.operands);
        ops.clear();
        ops.extend(fields.iter().map(|s| stack[base + s.0 as usize]));
        std::mem::swap(stack, &mut self.threads[self.cur].stack);
        let r = self.alloc_object(site, head, &mut ops, head_is_discriminant);
        std::mem::swap(stack, &mut self.threads[self.cur].stack);
        self.operands = ops;
        r
    }

    /// Allocates a heap object with optional head word (discriminant or
    /// closure code pointer) and the given payload. In cooperative mode an
    /// exhausted heap yields `Ok(None)` (the scheduler collects); otherwise
    /// it collects inline, growing under the bounded policy if configured.
    /// `operands` may be relocated by the collector.
    fn alloc_object(
        &mut self,
        site: CallSiteId,
        head: Option<Word>,
        operands: &mut [Word],
        head_is_discriminant: bool,
    ) -> VmResult<Option<Word>> {
        let total = self.enc.mode.header_words() + usize::from(head.is_some()) + operands.len();
        self.alloc_seq += 1;
        let seq = self.alloc_seq;

        // Runaway fault: the task thread that performs this allocation
        // starts spinning right after it completes. Task threads only —
        // stalling the main/globals phase (thread 0) or the batch
        // pipeline would hang setup instead of modeling a runaway
        // request handler.
        if self.cfg.cooperative
            && self.cur != 0
            && self.cfg.fault_plan.is_some_and(|p| p.stall_at == Some(seq))
        {
            self.threads[self.cur].stalled = true;
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "stall",
                seq,
            });
        }

        if !self.cfg.cooperative {
            if let Some(n) = self.cfg.force_gc_every {
                self.allocs_since_force += 1;
                if self.allocs_since_force >= n {
                    self.allocs_since_force = 0;
                    // Forced collections are always full: the liveness
                    // experiments compare retained bytes at identical
                    // program points, which a nursery-only cycle would
                    // understate.
                    self.collect_now(site, operands, false)?;
                }
            }
        }
        // Transient-failure fault: this allocation reports an exhausted
        // heap once even though space remains, forcing the
        // collect-and-retry path.
        let forced_fail = self
            .cfg
            .fault_plan
            .is_some_and(|p| p.alloc_fail_at == Some(seq));
        if forced_fail {
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "alloc-fail",
                seq,
            });
        }
        let first = if forced_fail {
            None
        } else {
            self.heap.alloc(total)
        };
        let addr = match first {
            Some(a) => a,
            None if self.cfg.cooperative => {
                if self.heap.generational() && total > self.heap.eden_capacity() {
                    // A minor cannot satisfy this request (it exceeds
                    // the eden); the scheduler's next collection must
                    // be a full one.
                    self.pending_oversize = self.pending_oversize.max(total);
                }
                return Ok(None);
            }
            None => {
                let minor = self.next_collection_is_minor(total);
                self.collect_now(site, operands, minor)?;
                match self.alloc_with_growth(site, operands, total, minor)? {
                    Some(a) => a,
                    None => {
                        return Err(VmError::OutOfMemory {
                            requested: total,
                            live: self.heap.used(),
                            site: site.0,
                            strategy: self.cfg.strategy.name(),
                        })
                    }
                }
            }
        };
        write_object(
            &mut self.heap,
            self.enc,
            addr,
            total,
            head,
            operands.iter().copied(),
        );
        // Discriminant-corruption fault: overwrite the freshly written
        // variant tag with a value matching no constructor. The next
        // trace through this object must fail fast, never mistrace.
        if head_is_discriminant
            && self
                .cfg
                .fault_plan
                .is_some_and(|p| p.corrupt_discriminant_at == Some(seq))
        {
            let tag_off = self.enc.mode.header_words() as u16;
            let bogus = self.encode_tag(u32::MAX);
            self.heap.write(addr, tag_off, bogus);
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "corrupt-discriminant",
                seq,
            });
        }
        self.emit_alloc(site, total, addr);
        Ok(Some(self.enc.ptr(addr)))
    }

    fn emit_alloc(&mut self, site: CallSiteId, total: usize, addr: Addr) {
        self.obs.emit(|t_ns| GcEvent::Alloc {
            t_ns,
            site: site.0,
            words: total as u32,
            addr: addr.0,
        });
    }

    /// True when the next collection can be a nursery-only (minor)
    /// cycle: the heap is generational, the blocked request fits the
    /// eden (a minor empties it), and tenured from-space has headroom
    /// for the worst case where every nursery word is promoted.
    fn next_collection_is_minor(&self, requested: usize) -> bool {
        self.heap.generational()
            && requested <= self.heap.eden_capacity()
            && self.heap.available() >= self.heap.nursery_used()
    }

    /// Retries a post-collection allocation under the bounded growth
    /// policy: grow the to-space, collect again (the flip relocates into
    /// the larger space — growth itself never moves an object), bring the
    /// new to-space up to the same capacity, retry. `after_minor` says
    /// the preceding collection was a nursery-only cycle: if the retry
    /// still fails, escalate to a full collection before growing.
    fn alloc_with_growth(
        &mut self,
        site: CallSiteId,
        operands: &mut [Word],
        total: usize,
        after_minor: bool,
    ) -> VmResult<Option<tfgc_runtime::Addr>> {
        if let Some(a) = self.heap.alloc(total) {
            return Ok(Some(a));
        }
        if after_minor {
            self.collect_now(site, operands, false)?;
            if let Some(a) = self.heap.alloc(total) {
                return Ok(Some(a));
            }
        }
        while self.try_grow(total) {
            self.collect_now(site, operands, false)?;
            let cap = self.heap.capacity();
            self.heap.reserve_to_space(cap);
            if let Some(a) = self.heap.alloc(total) {
                return Ok(Some(a));
            }
        }
        Ok(None)
    }

    /// One step of the bounded growth policy. Refused when growth is not
    /// configured, the hard cap is reached, or the exhaustion fault is
    /// active.
    fn try_grow(&mut self, needed: usize) -> bool {
        let Some(max) = self.cfg.heap_max_words else {
            return false;
        };
        let seq = self.alloc_seq;
        if self
            .cfg
            .fault_plan
            .is_some_and(|p| p.exhaust_at.is_some_and(|n| seq >= n))
        {
            self.obs.emit(|t_ns| GcEvent::FaultInjected {
                t_ns,
                kind: "exhaust",
                seq,
            });
            return false;
        }
        let cur = self.heap.capacity();
        if cur >= max {
            return false;
        }
        let pct = u128::from(self.cfg.heap_growth_pct.max(101));
        let mut target = ((cur as u128 * pct) / 100) as usize;
        target = target.clamp(cur + 1, max);
        let want = self.heap.used() + needed;
        if target < want {
            target = want.min(max);
        }
        if !self.heap.reserve_to_space(target) {
            return false;
        }
        self.heap.stats.grows += 1;
        self.obs.emit(|t_ns| GcEvent::HeapGrown {
            t_ns,
            from_words: cur as u64,
            to_words: target as u64,
        });
        true
    }

    /// Invokes the collector with every thread's stack as roots; captures
    /// an oracle snapshot first and verifies the heap afterwards when
    /// configured.
    ///
    /// # Errors
    ///
    /// [`VmError::VerificationFailed`] when a snapshot or post-collection
    /// walk finds a heap-invariant violation.
    ///
    /// # Panics
    ///
    /// Panics (structured: "collection while task …") if another live
    /// task is not parked at a call site — a scheduler invariant
    /// violation, not a recoverable error.
    fn collect_now(
        &mut self,
        site: CallSiteId,
        operands: &mut [Word],
        minor: bool,
    ) -> VmResult<()> {
        self.capture_snapshot(site, operands)?;
        self.run_collection(site, operands, minor);
        let mut major_ran = !minor;
        if minor && self.heap.minor_survivor_overflowed() {
            // The survivor half overflowed and a young object was
            // tenured out of age order, which can leave tenured→nursery
            // edges behind. Restore the barrier-free invariant before
            // the mutator (and the verifier) sees the heap: a full
            // collection in the same pause evacuates the whole nursery.
            self.run_collection(site, operands, false);
            major_ran = true;
        }
        if major_ran {
            // A major emptied the nursery; any blocked oversize request
            // can now take the direct-tenured path.
            self.pending_oversize = 0;
        }
        self.verify_now(site, operands)
    }

    /// Gathers every live thread's stack as roots and runs one
    /// collection cycle. Factored out of [`Vm::collect_now`] so a minor
    /// whose survivor half overflowed can escalate to a major within
    /// the same pause.
    fn run_collection(&mut self, site: CallSiteId, operands: &mut [Word], minor: bool) {
        let prog = self.prog;
        let cur = self.cur;
        let mut stacks = Vec::new();
        let mut operand_stack = 0;
        for (i, t) in self.threads.iter_mut().enumerate() {
            if t.result.is_some() || t.stack.is_empty() {
                continue;
            }
            let current_site = if i == cur {
                site
            } else {
                match t.parked_site {
                    Some(s) => s,
                    None => panic!(
                        "collection while task {i} (fn {} `{}`, pc {}) is not parked at a \
                         call site — scheduler invariant violated (trigger site {})",
                        t.fn_id.0,
                        prog.fun(t.fn_id).name,
                        t.pc,
                        site.0
                    ),
                }
            };
            if i == cur {
                operand_stack = stacks.len();
            }
            stacks.push(StackRoots {
                stack: &mut t.stack,
                top_fp: t.fp,
                current_site,
            });
        }
        collect(
            &mut self.meta,
            self.prog,
            &mut self.heap,
            &self.descs,
            &mut self.gc_stats,
            &mut self.obs,
            MachineRoots {
                stacks,
                globals: &mut self.globals,
                operands,
                operand_stack,
            },
            minor,
        );
    }

    /// Oracle hook: renders everything reachable from the collector's
    /// roots as a canonical snapshot *before* the collection mutates
    /// anything.
    fn capture_snapshot(&mut self, site: CallSiteId, operands: &[Word]) -> VmResult<()> {
        if self.oracle.is_none() {
            return Ok(());
        }
        let roots = build_roots_view(&self.threads, &self.globals, operands, self.cur, site);
        let snap = if self.cfg.strategy == Strategy::Tagged {
            let o = self.oracle.as_ref().expect("oracle checked above");
            snapshot_tagged(&o.root_meta, self.prog, &self.heap, &roots)
        } else {
            snapshot_tagfree(&mut self.meta, self.prog, &self.heap, &self.descs, &roots)
        };
        match snap {
            Ok(s) => {
                self.oracle
                    .as_mut()
                    .expect("oracle checked above")
                    .snapshots
                    .push(s);
                Ok(())
            }
            Err(e) => Err(VmError::VerificationFailed {
                collection: self.gc_stats.collections,
                strategy: self.cfg.strategy.name(),
                detail: e.to_string(),
            }),
        }
    }

    /// Post-collection verifier: walks the surviving reachable graph from
    /// the same roots the collector used, checking every heap invariant.
    fn verify_now(&mut self, site: CallSiteId, operands: &[Word]) -> VmResult<()> {
        if !self.cfg.verify_heap {
            return Ok(());
        }
        let seq = self.gc_stats.collections.saturating_sub(1);
        // Cheap structural invariants first (bump bounds, survivor-to
        // empty, no leaked forwarding state); the walk below then checks
        // every surviving pointer, including that no tenured object
        // points into the nursery.
        if let Err(detail) = self.heap.check_generational_invariants() {
            return Err(VmError::VerificationFailed {
                collection: seq,
                strategy: self.cfg.strategy.name(),
                detail,
            });
        }
        let roots = build_roots_view(&self.threads, &self.globals, operands, self.cur, site);
        let res = if self.cfg.strategy == Strategy::Tagged {
            verify_tagged(self.prog, &self.heap, &roots)
        } else {
            verify_tagfree(&mut self.meta, self.prog, &self.heap, &self.descs, &roots)
        };
        let strategy = self.cfg.strategy.name();
        match res {
            Ok(r) => {
                self.obs.emit(|t_ns| GcEvent::VerificationEnd {
                    t_ns,
                    seq,
                    strategy,
                    objects: r.objects,
                    words: r.words,
                    ok: true,
                });
                Ok(())
            }
            Err(e) => {
                self.obs.emit(|t_ns| GcEvent::VerificationEnd {
                    t_ns,
                    seq,
                    strategy,
                    objects: 0,
                    words: 0,
                    ok: false,
                });
                Err(VmError::VerificationFailed {
                    collection: seq,
                    strategy,
                    detail: e.to_string(),
                })
            }
        }
    }

    /// Runs a collection with the current thread suspended at `site`
    /// (tasking: all tasks parked).
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::VerificationFailed`] from the verifier or
    /// oracle, when enabled.
    pub fn collect_parked(&mut self, site: CallSiteId) -> VmResult<()> {
        let minor = self.pending_oversize == 0 && self.next_collection_is_minor(0);
        self.collect_now(site, &mut [], minor)
    }

    /// Tasking: one growth step with every task parked — grow the
    /// to-space, collect into it, then level the new to-space. Returns
    /// `Ok(false)` when the growth policy refuses (no cap configured, cap
    /// reached, or exhaustion fault active).
    pub fn grow_parked(&mut self, site: CallSiteId) -> VmResult<bool> {
        if !self.try_grow(0) {
            return Ok(false);
        }
        self.collect_now(site, &mut [], false)?;
        let cap = self.heap.capacity();
        self.heap.reserve_to_space(cap);
        Ok(true)
    }

    // ---- encoding helpers ----------------------------------------------

    fn heap_field(&self, w: Word, i: u16) -> Word {
        let a = self.enc.addr_of(w);
        let hdr = self.enc.mode.header_words() as u16;
        self.heap.read(a, i + hdr)
    }

    fn value_matches_ctor(&self, w: Word, rep: CtorRep) -> bool {
        let imm = match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => {
                if w < HEAP_BASE {
                    Some(w as u32)
                } else {
                    None
                }
            }
            tfgc_runtime::HeapMode::Tagged => {
                if self.enc.is_tagged_ptr(w) {
                    None
                } else {
                    Some(self.enc.int_of(w) as u32)
                }
            }
        };
        match (imm, rep) {
            (Some(k), CtorRep::Imm(i)) => k == i,
            (Some(_), CtorRep::Ptr { .. }) | (None, CtorRep::Imm(_)) => false,
            (None, CtorRep::Ptr { tag: None, .. }) => true,
            (None, CtorRep::Ptr { tag: Some(t), .. }) => {
                let stored = self.heap_field(w, 0);
                let raw = match self.enc.mode {
                    tfgc_runtime::HeapMode::TagFree => stored as u32,
                    tfgc_runtime::HeapMode::Tagged => self.enc.int_of(stored) as u32,
                };
                raw == t
            }
        }
    }

    fn encode_tag(&self, t: u32) -> Word {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => Word::from(t),
            tfgc_runtime::HeapMode::Tagged => self.enc.int(i64::from(t)),
        }
    }

    fn encode_fn_id(&self, f: FnId) -> Word {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => Word::from(f.0),
            tfgc_runtime::HeapMode::Tagged => self.enc.int(i64::from(f.0)),
        }
    }

    fn decode_fn_id(&self, w: Word) -> u32 {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => w as u32,
            tfgc_runtime::HeapMode::Tagged => self.enc.int_of(w) as u32,
        }
    }

    fn encode_desc_word(&self, d: u32) -> Word {
        match self.enc.mode {
            tfgc_runtime::HeapMode::TagFree => Word::from(d),
            tfgc_runtime::HeapMode::Tagged => self.enc.int(i64::from(d)),
        }
    }

    /// Encodes an integer under the VM's value encoding (for spawning
    /// tasks with arguments).
    pub fn encode_int(&self, i: i64) -> Word {
        self.enc.int(i)
    }

    /// Decodes an integer result word.
    pub fn decode_int(&self, w: Word) -> i64 {
        self.enc.int_of(w)
    }

    /// Current thread's stack depth in words.
    pub fn stack_words(&self) -> usize {
        self.th().stack.len()
    }

    /// The current instruction's call site, if it has one.
    pub fn current_site(&self) -> Option<CallSiteId> {
        let t = self.th();
        self.prog.fun(t.fn_id).code[t.pc as usize].site()
    }

    /// True once the current thread has returned from its bottom frame.
    pub fn is_done(&self) -> bool {
        self.th().result.is_some()
    }

    /// Renders a result word at the given type (task results).
    pub fn render(&self, w: Word, ty: &tfgc_types::Type) -> String {
        render_value(self.prog, &self.heap, self.enc, w, ty)
    }
}

/// Fills a freshly allocated object of `total` words: the size header
/// (tagged encoding only), the optional head word, then `fields`.
fn write_object(
    heap: &mut Heap,
    enc: Encoding,
    addr: Addr,
    total: usize,
    head: Option<Word>,
    fields: impl Iterator<Item = Word>,
) {
    let hdr = enc.mode.header_words();
    if hdr == 1 {
        heap.write(addr, 0, (total - 1) as Word);
    }
    let mut k = hdr as u16;
    if let Some(h) = head {
        heap.write(addr, k, h);
        k += 1;
    }
    for w in fields {
        heap.write(addr, k, w);
        k += 1;
    }
}

/// The safe-point kind and site of `ins`, if it is a call or an
/// allocation.
fn safepoint_of(ins: &Instr) -> Option<(SafepointKinds, CallSiteId)> {
    match ins {
        Instr::CallDirect { site, .. } | Instr::CallClosure { site, .. } => {
            Some((SafepointKinds::CALLS, *site))
        }
        Instr::MakeTuple { site, .. }
        | Instr::MakeData { site, .. }
        | Instr::MakeClosure { site, .. } => Some((SafepointKinds::ALLOCS, *site)),
        _ => None,
    }
}

fn decode_desc_word(enc: Encoding, w: Word) -> u32 {
    match enc.mode {
        tfgc_runtime::HeapMode::TagFree => w as u32,
        tfgc_runtime::HeapMode::Tagged => enc.int_of(w) as u32,
    }
}

/// Builds the verifier's read-only view of the collector's roots — the
/// same thread filtering and operand attribution as `collect_now`.
fn build_roots_view<'t>(
    threads: &'t [ThreadState],
    globals: &'t [Word],
    operands: &'t [Word],
    cur: usize,
    site: CallSiteId,
) -> RootsView<'t> {
    let mut stacks = Vec::new();
    let mut operand_stack = 0;
    for (i, t) in threads.iter().enumerate() {
        if t.result.is_some() || t.stack.is_empty() {
            continue;
        }
        let current_site = if i == cur {
            site
        } else {
            match t.parked_site {
                Some(s) => s,
                None => panic!(
                    "collection while task {i} is not parked at a call site — scheduler \
                     invariant violated (trigger site {})",
                    site.0
                ),
            }
        };
        if i == cur {
            operand_stack = stacks.len();
        }
        stacks.push(StackView {
            stack: &t.stack,
            top_fp: t.fp,
            current_site,
        });
    }
    RootsView {
        stacks,
        globals,
        operands,
        operand_stack,
    }
}
