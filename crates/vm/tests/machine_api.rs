//! Tests of the VM's thread/step API and value rendering.

use tfgc_gc::Strategy;
use tfgc_ir::{lower, IrProgram};
use tfgc_syntax::parse_program;
use tfgc_types::elaborate;
use tfgc_vm::{StepEvent, Vm, VmConfig};

fn compile(src: &str) -> IrProgram {
    lower(&elaborate(&parse_program(src).unwrap()).unwrap()).unwrap()
}

#[test]
fn single_stepping_reaches_done() {
    let prog = compile("1 + 2");
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let mut steps = 0;
    loop {
        match vm.step().unwrap() {
            StepEvent::Done(w) => {
                assert_eq!(vm.decode_int(w), 3);
                break;
            }
            StepEvent::Continue => steps += 1,
            StepEvent::AllocBlocked(_) | StepEvent::Safepoint(_) => unreachable!(),
        }
        assert!(steps < 100, "tiny program must finish quickly");
    }
    assert!(vm.is_done());
}

#[test]
fn spawned_threads_run_independently() {
    let prog = compile(
        "fun work n = if n = 0 then 0 else n + work (n - 1) ;
         0",
    );
    let work = tfgc_ir::FnId(0);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    // Finish main (thread 0) first.
    loop {
        if let StepEvent::Done(_) = vm.step().unwrap() {
            break;
        }
    }
    let a1 = vm.encode_int(3);
    let a2 = vm.encode_int(5);
    let t1 = vm.spawn_thread(work, &[a1]);
    let t2 = vm.spawn_thread(work, &[a2]);
    assert_eq!(vm.thread_count(), 3);
    // Interleave them manually.
    let mut done = [false, false];
    while !done[0] || !done[1] {
        for (k, t) in [t1, t2].into_iter().enumerate() {
            if done[k] {
                continue;
            }
            vm.set_current_thread(t);
            for _ in 0..5 {
                if let StepEvent::Done(_) = vm.step().unwrap() {
                    done[k] = true;
                    break;
                }
            }
        }
    }
    assert_eq!(vm.decode_int(vm.thread_result(t1).unwrap()), 6);
    assert_eq!(vm.decode_int(vm.thread_result(t2).unwrap()), 15);
}

#[test]
fn cooperative_alloc_block_reexecutes_cleanly() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         fun churn n = if n = 0 then 0 else (churn (n - 1); (build 10; 0)) ;
         churn 30",
    );
    let mut cfg = VmConfig::new(Strategy::Compiled).heap_words(256);
    cfg.cooperative = true;
    let mut vm = Vm::new(&prog, cfg);
    let mut blocks = 0;
    loop {
        match vm.step().unwrap() {
            StepEvent::Done(w) => {
                assert_eq!(vm.decode_int(w), 0);
                break;
            }
            StepEvent::AllocBlocked(site) => {
                blocks += 1;
                assert!(blocks < 10_000, "must make progress");
                vm.collect_parked(site).unwrap();
            }
            StepEvent::Continue => {}
            StepEvent::Safepoint(_) => unreachable!("step() makes no safe-point stops"),
        }
    }
    assert!(blocks > 0, "tiny heap must block at least once");
    assert_eq!(vm.gc_stats.collections, blocks);
}

#[test]
fn render_deep_and_cyclic_free_structures() {
    let prog = compile(
        "fun build n = if n = 0 then [] else n :: build (n - 1) ;
         build 5",
    );
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert_eq!(out.result, "[5, 4, 3, 2, 1]");
}

#[test]
fn render_truncates_very_deep_nesting() {
    // Nested tuples beyond the render depth print "..." instead of
    // overflowing.
    let mut src = String::from("1");
    for _ in 0..80 {
        src = format!("({src}, 2)");
    }
    let prog = compile(&src);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert!(out.result.contains("..."));
}

#[test]
fn max_stack_words_bounds_recursion() {
    let prog = compile("fun down n = if n = 0 then 0 else down (n - 1) ; down 100000");
    let mut cfg = VmConfig::new(Strategy::Compiled);
    cfg.max_stack_words = 4096;
    let mut vm = Vm::new(&prog, cfg);
    let err = vm.run().unwrap_err();
    assert!(matches!(err, tfgc_vm::VmError::StackOverflow { .. }));
}

#[test]
fn stats_track_calls_and_closure_calls() {
    let prog = compile(
        "fun apply f x = f x ;
         fun inc n = n + 1 ;
         apply (fn z => inc z) 1 + apply (fn z => z) 2",
    );
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert!(out.mutator.calls >= 3, "apply x2 + inc");
    assert_eq!(out.mutator.closure_calls, 2);
}

#[test]
fn desc_arena_stats_surface_in_outcome() {
    let src = "fun konst x = fn u => (let val probe = [x] in u end) ;
               (konst [1]) 5";
    let prog = compile(src);
    let mut vm = Vm::new(&prog, VmConfig::new(Strategy::Compiled));
    let out = vm.run().unwrap();
    assert!(out.descs_interned > 0, "hidden descriptors were interned");
    assert!(out.mutator.desc_evals > 0);
}
