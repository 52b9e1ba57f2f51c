//! A machine pays only for the heap it touches. A semispace's capacity
//! is an address range; its backing store is committed as the bump
//! pointer reaches it. So the same program must behave identically on
//! the default 64Ki-word heap and on the largest heap `tfml` accepts,
//! and in both cases commit no more than its allocation reached.

use tfgc::runtime::COMMIT_CHUNK;
use tfgc::vm::Vm;
use tfgc::{Compiled, RunOutcome, Strategy, VmConfig, MAX_HEAP_WORDS};

/// Runs `compiled` under `cfg`, returning the outcome plus the heap's
/// committed words and bump high-water mark at the end of the run.
fn run(compiled: &Compiled, cfg: VmConfig) -> (RunOutcome, usize, usize) {
    let mut vm = Vm::with_analyses(&compiled.program, &compiled.analyses, cfg);
    let out = vm.run().expect("suite programs run");
    (out, vm.heap.committed_words(), vm.heap.bump_high_water())
}

#[test]
fn committed_words_follow_the_bump_pointer_not_the_heap_size() {
    let mut allocated = 0;
    for (name, src) in tfgc::workloads::suite() {
        let compiled = Compiled::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in Strategy::ALL {
            let (small, small_committed, small_hw) = run(&compiled, VmConfig::new(s));
            let (huge, huge_committed, huge_hw) =
                run(&compiled, VmConfig::new(s).heap_words(MAX_HEAP_WORDS));
            assert_eq!(huge.result, small.result, "{name} under {s}: result");
            assert_eq!(huge.printed, small.printed, "{name} under {s}: printed");
            assert_eq!(huge.heap, small.heap, "{name} under {s}: heap counters");
            assert_eq!(
                huge.mutator, small.mutator,
                "{name} under {s}: mutator counters"
            );
            let untimed = |o: &RunOutcome| tfgc::gc::GcStats {
                pause_nanos: 0,
                ..o.gc
            };
            assert_eq!(
                untimed(&huge),
                untimed(&small),
                "{name} under {s}: gc counters"
            );
            assert_eq!(huge_hw, small_hw, "{name} under {s}: bump high-water mark");
            assert_eq!(small.committed_words, small_committed);
            for (heap, committed, hw) in [
                ("default", small_committed, small_hw),
                ("2^28-word", huge_committed, huge_hw),
            ] {
                let bound = 2 * hw.next_multiple_of(COMMIT_CHUNK);
                assert!(
                    committed <= bound,
                    "{name} under {s} on the {heap} heap: {committed} words committed, \
                     bump high-water {hw}, bound {bound}"
                );
            }
            allocated += small.heap.words_allocated;
        }
    }
    assert!(
        allocated > 0,
        "the suite must allocate or the bound is vacuous"
    );
}
