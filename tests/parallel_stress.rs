//! Concurrency stress tests for the new parallel-image runtime: padded signal lanes under
//! many threads, and pooled-runtime determinism across consecutive `execute` calls.
//!
//! The [`helix::runtime::SignalLanes`] test mirrors `sharded_stress.rs`'s style: it hammers
//! *one* dependence from N threads across a 10k-iteration window, with every iteration's
//! critical section writing an unprotected shared cell. If the lane protocol (windowed
//! `fetch_max` cells + the in-flight completion gate) ever let iteration `i` pass its `Wait`
//! before iteration `i-1`'s `Signal`, the cell updates would race and the final tally would
//! be wrong with overwhelming probability.

use helix::analysis::LoopNestingGraph;
use helix::core::{transform, Helix, HelixConfig, TransformedProgram};
use helix::ir::builder::{FunctionBuilder, ModuleBuilder};
use helix::ir::{BinOp, Machine, Operand};
use helix::profiler::profile_program_image;
use helix::runtime::{ParallelExecutor, ParallelImage, SignalLanes, WaitProfile, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const ITERATIONS: u64 = 10_000;
const THREADS: usize = 6;

/// One shared, deliberately unsynchronized cell: only the lane protocol orders access.
struct RacyCell(std::cell::UnsafeCell<u64>);
// SAFETY: the test's lane protocol serializes all access (that is the property under test;
// a protocol bug shows up as a corrupted tally, not as UB the test relies on).
unsafe impl Sync for RacyCell {}

#[test]
fn one_dependence_hammered_from_many_threads_across_a_10k_window() {
    // Window sized like the executor sizes it for THREADS workers.
    let window = (THREADS * 2).next_power_of_two().max(8);
    let lanes = Arc::new(SignalLanes::new(1, window));
    let next = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicU64::new(0));
    let cell = Arc::new(RacyCell(std::cell::UnsafeCell::new(0)));

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let (lanes, next, done, cell) = (
                Arc::clone(&lanes),
                Arc::clone(&next),
                Arc::clone(&done),
                Arc::clone(&cell),
            );
            scope.spawn(move || loop {
                // Claim the next iteration, bounded by the in-flight window (the same gate
                // the executor's completion ring provides).
                let i = next.load(Ordering::Acquire);
                if i >= ITERATIONS {
                    return;
                }
                if done.load(Ordering::Acquire) + window as u64 <= i {
                    std::hint::spin_loop();
                    continue;
                }
                if next
                    .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // Wait for the predecessor iteration's signal on the single dependence.
                while !lanes.poll(0, i) {
                    std::hint::spin_loop();
                }
                // The protected critical section: must be perfectly serialized in
                // iteration order by the lane protocol alone.
                unsafe {
                    let p = cell.0.get();
                    let seen = *p;
                    assert_eq!(seen, i, "iteration {i} entered before {seen} finished");
                    *p = i + 1;
                }
                lanes.signal(0, i);
                done.fetch_add(1, Ordering::AcqRel);
            });
        }
    });
    assert_eq!(next.load(Ordering::Relaxed), ITERATIONS);
    assert_eq!(unsafe { *cell.0.get() }, ITERATIONS);
    assert!(lanes.poll(0, ITERATIONS), "final signal published");
}

/// Builds an accumulator program whose loop carries a synchronized dependence.
fn accumulator(n: i64) -> (helix::ir::Module, helix::ir::FuncId, TransformedProgram) {
    let mut mb = ModuleBuilder::new("m");
    let acc = mb.add_global("acc", 1);
    let mut fb = FunctionBuilder::new("main", 0);
    let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
    let mixed = fb.binary_to_new(
        BinOp::Mul,
        Operand::Var(lh.induction_var),
        Operand::int(2654435761),
    );
    let x = fb.binary_to_new(BinOp::Xor, Operand::Var(mixed), Operand::int(0x9e37));
    let cur = fb.new_var();
    fb.load(cur, Operand::Global(acc), 0);
    let nextv = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(x));
    fb.store(Operand::Global(acc), 0, Operand::Var(nextv));
    fb.br(lh.latch);
    fb.switch_to(lh.exit);
    let out = fb.new_var();
    fb.load(out, Operand::Global(acc), 0);
    fb.ret(Some(Operand::Var(out)));
    let main = mb.add_function(fb.finish());
    let module = mb.finish();
    let nesting = LoopNestingGraph::new(&module);
    let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
    let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
    let plan = output
        .plans
        .values()
        .find(|p| p.synchronized_segments() > 0)
        .expect("synchronized plan")
        .clone();
    let transformed = transform::apply(&module, &plan);
    (module, main, transformed)
}

#[test]
fn pooled_runtime_stays_deterministic_across_consecutive_executes() {
    let (module, main, transformed) = accumulator(512);
    let mut machine = Machine::new(&module);
    let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
    let pimg = ParallelImage::lower(&transformed);
    // The dedicated profile forces the full multi-worker claim protocol (on this machine the
    // adaptive profile may run the loop solo), and the process-global pool is reused across
    // every call — the regression this guards is a stale counter or lane leaking from one
    // execute into the next.
    let executor = ParallelExecutor::new(4).with_wait_profile(WaitProfile::DEDICATED);
    let first = executor
        .run_parallel(&pimg, &[])
        .expect("first pooled run")
        .unwrap()
        .as_int();
    assert_eq!(first, expected);
    let helpers_after_first = WorkerPool::global().spawned_helpers();
    assert!(
        helpers_after_first >= 3,
        "the pooled run must have spawned persistent helpers"
    );
    for round in 0..5 {
        let got = executor
            .run_parallel(&pimg, &[])
            .unwrap_or_else(|e| panic!("round {round}: {e}"))
            .unwrap()
            .as_int();
        assert_eq!(got, expected, "round {round} diverged");
    }
    assert_eq!(
        WorkerPool::global().spawned_helpers(),
        helpers_after_first,
        "helpers are reused across executes, never respawned"
    );
}

#[test]
fn oversubscribed_and_dedicated_profiles_agree() {
    // The solo fast path (oversubscribed) and the full claim protocol (dedicated) must be
    // observationally identical.
    let (_module, _main, transformed) = accumulator(384);
    let pimg = ParallelImage::lower(&transformed);
    let dedicated = ParallelExecutor::new(4)
        .with_wait_profile(WaitProfile::DEDICATED)
        .run_parallel(&pimg, &[])
        .unwrap();
    let oversubscribed = ParallelExecutor::new(4)
        .with_wait_profile(WaitProfile::OVERSUBSCRIBED)
        .run_parallel(&pimg, &[])
        .unwrap();
    assert_eq!(dedicated, oversubscribed);
}

/// The checked-in repros of real-concurrency divergences (`corpus/regressions/concurrency/`),
/// each with the plan the fuzzing oracle runs: the hottest selected loop of `main`, else its
/// hottest candidate loop.
fn concurrency_repros() -> Vec<(String, helix::ir::Module, helix::core::ParallelizedLoop)> {
    let dir = helix::workloads::regressions_dir().join("concurrency");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("concurrency repros exist")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "hir"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 2, "expected the two checked-in repros");
    paths
        .into_iter()
        .map(|path| {
            let name = path.display().to_string();
            let source = std::fs::read_to_string(&path).expect("readable repro");
            let module = helix::frontend::parse_and_verify(&source).expect("repro parses");
            let main = module.function_by_name("main").expect("repro has main");
            let nesting = LoopNestingGraph::new(&module);
            let profile = profile_program_image(&module, &nesting, main, &[]).expect("profiles");
            let output = Helix::new(HelixConfig::default()).analyze(&module, &profile);
            let hottest = |plans: Vec<&helix::core::ParallelizedLoop>| {
                plans
                    .into_iter()
                    .filter(|p| p.func == main)
                    .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
                    .cloned()
            };
            let plan = hottest(output.selected_plans())
                .or_else(|| hottest(output.plans.values().collect()))
                .expect("repro has a candidate loop");
            (name, module, plan)
        })
        .collect()
}

#[test]
fn every_dependence_stays_synchronized_and_every_signal_follows_a_wait() {
    // Two structural invariants whose violations lost accumulator updates under real
    // concurrency: Theorem 1 may drop a dependence's own Wait/Signal only by folding it
    // into a synchronized segment, and a Signal — which tells the next iteration that
    // every earlier one is done — must be preceded by a Wait of its dependence on every
    // intra-iteration path.
    for (name, module, plan) in concurrency_repros() {
        let synchronized: Vec<_> = plan
            .segments
            .iter()
            .filter(|s| s.synchronized)
            .flat_map(|s| s.dependences.iter().map(|d| (d.src, d.dst)))
            .collect();
        for seg in &plan.segments {
            for d in &seg.dependences {
                assert!(
                    synchronized.contains(&(d.src, d.dst)),
                    "{name}: dependence {} -> {} lost its synchronization",
                    d.src,
                    d.dst
                );
            }
        }
        let transformed = transform::apply(&module, &plan);
        let clone = transformed.module.function(transformed.parallel_func);
        let cfg = helix::analysis::Cfg::new(clone);
        let in_loop = |b: &helix::ir::BlockId| {
            plan.prologue_blocks.contains(b) || plan.body_blocks.contains(b)
        };
        let blocks: Vec<_> = clone.blocks.iter().map(|b| b.id).filter(in_loop).collect();
        // Must-availability of "waited on dep d" at block exit, from the header (where an
        // iteration starts with nothing waited) to a fixpoint.
        let deps: Vec<_> = plan.segments.iter().map(|s| s.dep).collect();
        let waited_after = |b: helix::ir::BlockId, mut waited: Vec<bool>| {
            for instr in &clone.block(b).instrs {
                if let helix::ir::Instr::Wait { dep } = instr {
                    waited[deps.iter().position(|d| d == dep).unwrap()] = true;
                }
            }
            waited
        };
        let mut out: std::collections::BTreeMap<_, Vec<bool>> = blocks
            .iter()
            .map(|b| (*b, vec![true; deps.len()]))
            .collect();
        let entry_state = |out: &std::collections::BTreeMap<_, Vec<bool>>, b| {
            if b == plan.header {
                return vec![false; deps.len()];
            }
            let mut state = vec![true; deps.len()];
            for p in cfg.preds(b).iter().filter(|p| in_loop(p)) {
                for (s, o) in state.iter_mut().zip(&out[p]) {
                    *s &= *o;
                }
            }
            state
        };
        loop {
            let mut changed = false;
            for &b in &blocks {
                let next = waited_after(b, entry_state(&out, b));
                if out[&b] != next {
                    out.insert(b, next);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &b in &blocks {
            let mut waited = entry_state(&out, b);
            for instr in &clone.block(b).instrs {
                match instr {
                    helix::ir::Instr::Wait { dep } => {
                        waited[deps.iter().position(|d| d == dep).unwrap()] = true;
                    }
                    helix::ir::Instr::Signal { dep } => assert!(
                        waited[deps.iter().position(|d| d == dep).unwrap()],
                        "{name}: {b} signals {dep:?} on a path that never waited for it"
                    ),
                    _ => {}
                }
            }
        }
    }
}

#[test]
fn concurrency_repros_match_the_sequential_result_on_every_tier() {
    // The divergences these repros pin were intermittent (a few percent of 4-worker runs),
    // so each configuration runs many times; the dedicated wait profile keeps the full
    // multi-worker protocol even on a host with fewer hardware threads.
    use helix::runtime::DispatchTier;
    for (name, module, plan) in concurrency_repros() {
        let main = module.function_by_name("main").unwrap();
        let expected = Machine::new(&module).call(main, &[]).unwrap();
        let pimg = ParallelImage::lower(&transform::apply(&module, &plan));
        for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
            for threads in [2, 4] {
                let executor = ParallelExecutor::new(threads)
                    .with_wait_profile(WaitProfile::DEDICATED)
                    .with_dispatch_tier(tier);
                for run in 0..100 {
                    let got = executor.run_parallel(&pimg, &[]).unwrap();
                    assert_eq!(
                        got, expected,
                        "{name}: {tier} at {threads} workers, run {run}"
                    );
                }
            }
        }
    }
}
