//! Parallel-runtime benchmark: the lowered `ParallelImage` runtime against the sequential
//! bytecode engine — the wall-clock proof (or refutation) of the HELIX claim on this
//! machine.
//!
//! For every corpus program and synthetic SPEC stand-in whose entry function has a HELIX
//! plan, this harness:
//!
//! * micro-calibrates the machine once (`helix_runtime::CalibrationProfile`) and runs the
//!   HELIX analysis with *measured* costs — the calibrate→price→select loop, end to end;
//! * transforms the hottest calibrated-selection main-level plan and lowers it **once**
//!   into a [`helix_runtime::ParallelImage`];
//! * measures sequential wall-clock through `helix_ir::ImageMachine` (the engine every
//!   pipeline run uses);
//! * measures the pooled parallel runtime per requested worker count (pool warm, lowering
//!   amortized — the steady-state serving configuration). Requested counts that collapse
//!   to the same *effective* configuration on this machine (the executor clamps workers
//!   to the hardware thread count) share one measurement and are reported with their
//!   `effective_workers`, so "4 threads" vs "1 thread" on a 1-CPU host compares the same
//!   execution instead of two noise samples;
//! * when paper-constant pricing would have picked a *different* plan than measured-cost
//!   pricing (the selection flip the `nest_flip` corpus witness exists for), measures both
//!   plans and records which one actually wins;
//! * verifies every timed run returns the sequential result.
//!
//! Results go to stdout and `BENCH_parallel.json` at the repository root (the calibration
//! profile goes to `BENCH_calibration.txt`): per-program nanoseconds, per-thread-count
//! speedups over sequential bytecode, the 1-thread overhead, geomean scalability, worker
//! occupancy and telemetry overhead at the largest thread count, the per-thread-count
//! clamp reason (why `effective_workers` collapsed on this host), and any selection flips.
//! CI runs `--test` (smoke reps) with `--check-1t 1.25` (a 1-thread parallel run
//! regressing more than 25% against sequential bytecode fails the job), `--check-4t 0.10`
//! (the 4-thread geomean regressing more than 10% below the *committed*
//! BENCH_parallel.json value fails the job — the thread-scaling gate),
//! `--check-telemetry 0.02` (the sampled-telemetry geomean drifting more than 2% above
//! telemetry-disabled fails the job — the observability overhead gate), and
//! `--check-tier` (the 1-thread geomean of the tier the executor resolves to must not fall
//! below the direct-threaded tier's; see `docs/dispatch.md`).

use helix_analysis::LoopNestingGraph;
use helix_core::{transform, Helix, HelixConfig, ParallelizedLoop};
use helix_ir::{ExecImage, ImageMachine, Module};
use helix_profiler::profile_program_image;
use helix_runtime::{
    CalibrationProfile, DispatchTier, ParallelExecutor, ParallelImage, TelemetryMode,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 6];

/// Runs `f` (untimed setup returning a closure to time) `reps` times, returning the *best*
/// timed duration. Best-of-N filters scheduler and cache interference, which on shared
/// machines otherwise dominates the differences being measured.
fn best_time<S, R, F>(reps: usize, mut setup: S) -> Duration
where
    S: FnMut() -> F,
    F: FnOnce() -> R,
{
    setup()(); // warm-up
    (0..reps)
        .map(|_| {
            let run = setup();
            let start = Instant::now();
            std::hint::black_box(run());
            start.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO)
}

/// Wall-clock of one plan's parallel run on `executor`, verified against `expected`.
fn time_executor(
    pimg: &ParallelImage,
    executor: ParallelExecutor,
    reps: usize,
    expected: Option<helix_ir::Value>,
    name: &str,
) -> Duration {
    best_time(reps, || {
        let (executor, pimg) = (executor, pimg);
        move || {
            let (run, _) = executor.run_parallel_traced(pimg, &[]);
            let got = run.expect("parallel run");
            assert_eq!(got, expected, "{name}: parallel result diverged");
        }
    })
}

/// Wall-clock of one plan's parallel run at `threads` (telemetry disabled).
fn time_plan(
    pimg: &ParallelImage,
    threads: usize,
    reps: usize,
    expected: Option<helix_ir::Value>,
    name: &str,
) -> Duration {
    time_executor(pimg, ParallelExecutor::new(threads), reps, expected, name)
}

struct ProgramReport {
    name: String,
    instrs: u64,
    synchronized_segments: usize,
    private_words_per_iter: u64,
    sequential_ns: u128,
    /// `(threads, effective workers, ns, speedup over sequential bytecode)`.
    parallel: Vec<(usize, usize, u128, f64)>,
    /// Paper-constant pricing picked a different plan: `(paper loop, measured loop,
    /// paper-plan ns, measured-plan ns)` at the largest thread count.
    flip: Option<(String, String, u128, u128)>,
    /// Telemetry-disabled wall-clock at the largest thread count — the overhead baseline.
    telemetry_disabled_ns: u128,
    /// Same plan, same thread count, `TelemetryMode::Sampled(64)` — the mode CI gates on.
    telemetry_sampled_ns: u128,
    /// `sampled / disabled - 1`: fractional cost of leaving sampled telemetry on.
    telemetry_overhead: f64,
    /// Per-worker occupancy from one sampled traced run at the largest thread count.
    occupancy: Vec<f64>,
    /// 1-thread wall-clock with the dispatch tier pinned to direct threading.
    threaded_1t_ns: u128,
    /// 1-thread wall-clock with the dispatch tier pinned to the template JIT (degrades
    /// to threaded dispatch where the JIT cannot run).
    jit_1t_ns: u128,
}

impl ProgramReport {
    fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.parallel
            .iter()
            .find(|(t, _, _, _)| *t == threads)
            .map(|(_, _, _, s)| *s)
    }
}

/// The hottest main-level plan of a selection, falling back to the hottest candidate.
fn hottest_plan<'a>(
    output: &'a helix_core::HelixOutput,
    selected: &std::collections::BTreeSet<helix_profiler::LoopKey>,
    profile: &helix_profiler::ProgramProfile,
    main: helix_ir::FuncId,
) -> Option<&'a ParallelizedLoop> {
    selected
        .iter()
        .filter_map(|k| output.plans.get(k))
        .filter(|p| p.func == main)
        .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
        .or_else(|| {
            output
                .plans
                .values()
                .filter(|p| p.func == main)
                .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
        })
}

/// Benchmarks one program; returns `None` when its entry has no executable plan.
fn bench_program(
    name: &str,
    module: &Module,
    main: helix_ir::FuncId,
    reps: usize,
    calibration: &CalibrationProfile,
) -> Option<ProgramReport> {
    let image = ExecImage::lower(module);
    let nesting = LoopNestingGraph::new(module);
    let profile = profile_program_image(module, &nesting, main, &[]).ok()?;

    // The calibrate→price→select loop, priced for the configuration that will actually
    // run: on this machine the executor collapses requested workers to the hardware
    // thread count, and signal costs are measured accordingly (a 1-worker run pays local
    // publishes, not cross-thread handoffs).
    let effective =
        ParallelExecutor::new(*THREAD_COUNTS.last().expect("non-empty")).effective_workers();
    let paper_helix = Helix::new(HelixConfig::i7_980x());
    let paper = paper_helix.analyze(module, &profile);
    let suite_helix =
        Helix::new(calibration.helix_config_for_workers(HelixConfig::i7_980x(), effective))
            .with_cost_model(calibration.cost_model());
    let suite = suite_helix.analyze(module, &profile);
    let (suite_selection, _trace) = helix_simulator::feedback_selection(
        module,
        &profile,
        &suite_helix,
        &suite,
        &calibration.cost_model(),
    );
    let plan = hottest_plan(&suite, &suite_selection.selected, &profile, main)?.clone();

    // Flip detection uses the *cross-thread* measured pricing — the comparison the
    // `parallelize --calibrate` selection trace reports: which plan would paper constants
    // pick, which plan do measured signal costs pick?
    let measured_helix = Helix::new(calibration.helix_config(HelixConfig::i7_980x()))
        .with_cost_model(calibration.cost_model());
    let measured = measured_helix.analyze(module, &profile);
    let (measured_selection, _) = helix_simulator::feedback_selection(
        module,
        &profile,
        &measured_helix,
        &measured,
        &calibration.cost_model(),
    );
    let measured_plan =
        hottest_plan(&measured, &measured_selection.selected, &profile, main).cloned();
    let paper_plan = hottest_plan(&paper, &paper.selection.selected, &profile, main).cloned();

    let transformed = transform::apply(module, &plan);
    let pimg = ParallelImage::lower(&transformed);

    let expected = {
        let mut machine = ImageMachine::new(&image);
        machine.call(main, &[]).expect("sequential reference")
    };
    let instrs = {
        let mut machine = ImageMachine::new(&image);
        machine.call(main, &[]).expect("stats run");
        machine.stats().instrs
    };

    // The clock covers machine construction too (its per-run memory materialization), so
    // both sides are measured as "execute the program from pristine state".
    let sequential = best_time(reps, || {
        || {
            let mut machine = ImageMachine::new(&image);
            machine.call(main, &[]).expect("sequential run")
        }
    });

    // Requested thread counts that collapse to the same effective worker count on this
    // machine share one measurement (same execution, one number — not N noise samples).
    let mut parallel: Vec<(usize, usize, u128, f64)> = Vec::new();
    let mut measured_at: Vec<(usize, Duration)> = Vec::new();
    for threads in THREAD_COUNTS {
        let effective = ParallelExecutor::new(threads).effective_workers();
        let elapsed = match measured_at.iter().find(|(e, _)| *e == effective) {
            Some((_, d)) => *d,
            None => {
                let d = time_plan(&pimg, threads, reps, expected, name);
                measured_at.push((effective, d));
                d
            }
        };
        let speedup = sequential.as_secs_f64() / elapsed.as_secs_f64().max(1e-12);
        parallel.push((threads, effective, elapsed.as_nanos(), speedup));
    }

    // Telemetry overhead at the largest thread count: the identical plan timed with
    // telemetry disabled and with the sampled mode the `--json` runtime section defaults
    // to. The reps are *interleaved* (disabled, sampled, disabled, ...) so both sides see
    // the same scheduler and thermal conditions — two back-to-back best-of-N blocks on a
    // shared machine otherwise drift apart by more than the effect being measured — and
    // the comparison gets a higher rep floor than the throughput numbers for the same
    // reason.
    let top = *THREAD_COUNTS.last().expect("non-empty");
    let (telemetry_disabled, telemetry_sampled) = {
        let disabled = ParallelExecutor::new(top);
        let sampled = ParallelExecutor::new(top).with_telemetry(TelemetryMode::Sampled(64));
        let once = |ex: &ParallelExecutor| {
            let start = Instant::now();
            let (run, _) = ex.run_parallel_traced(&pimg, &[]);
            let got = run.expect("parallel run");
            assert_eq!(got, expected, "{name}: parallel result diverged");
            start.elapsed()
        };
        once(&disabled); // warm-up
        once(&sampled);
        let (mut d, mut s) = (Duration::MAX, Duration::MAX);
        for _ in 0..reps.max(9) {
            d = d.min(once(&disabled));
            s = s.min(once(&sampled));
        }
        (d, s)
    };
    let telemetry_overhead =
        telemetry_sampled.as_secs_f64() / telemetry_disabled.as_secs_f64().max(1e-12) - 1.0;
    // One extra traced run captures worker occupancy (fraction of wall-clock spent inside
    // iteration bodies, extrapolated from the sampled iterations).
    let occupancy = {
        let executor = ParallelExecutor::new(top).with_telemetry(TelemetryMode::Sampled(64));
        let (run, report) = executor.run_parallel_traced(&pimg, &[]);
        run.expect("occupancy run");
        report.map(|r| r.occupancy()).unwrap_or_default()
    };

    // Tier head-to-head at 1 thread: the same plan with each dispatch engine pinned.
    // One worker isolates dispatch cost (no claim protocol, no cross-thread signals), so
    // this is the wall-clock form of the calibrator's per-op numbers — and the
    // `--check-tier` gate compares the two geomeans.
    let time_tier = |tier: DispatchTier| {
        time_executor(
            &pimg,
            ParallelExecutor::new(1).with_dispatch_tier(tier),
            reps,
            expected,
            name,
        )
    };
    let threaded_1t_ns = time_tier(DispatchTier::Threaded).as_nanos();
    let jit_1t_ns = time_tier(DispatchTier::Jit).as_nanos();

    // Selection flip: paper-constant and cross-thread measured pricing picked different
    // plans — time them head-to-head at the largest thread count and record which choice
    // wins on the actual runtime.
    let flip = match (paper_plan, measured_plan) {
        (Some(pp), Some(mp)) if (pp.func, pp.loop_id) != (mp.func, mp.loop_id) => {
            let threads = *THREAD_COUNTS.last().expect("non-empty");
            let time_of = |p: &ParallelizedLoop| {
                // The suite plan is already lowered; reuse its image instead of
                // re-lowering and re-timing the identical plan.
                if (p.func, p.loop_id) == (plan.func, plan.loop_id) {
                    time_plan(&pimg, threads, reps, expected, name).as_nanos()
                } else {
                    let t = transform::apply(module, p);
                    let img = ParallelImage::lower(&t);
                    time_plan(&img, threads, reps, expected, name).as_nanos()
                }
            };
            Some((
                format!("{}", pp.loop_id),
                format!("{}", mp.loop_id),
                time_of(&pp),
                time_of(&mp),
            ))
        }
        _ => None,
    };

    Some(ProgramReport {
        name: name.to_string(),
        instrs,
        synchronized_segments: plan.synchronized_segments(),
        private_words_per_iter: pimg.loop_image().private_words_per_iter,
        sequential_ns: sequential.as_nanos(),
        parallel,
        flip,
        telemetry_disabled_ns: telemetry_disabled.as_nanos(),
        telemetry_sampled_ns: telemetry_sampled.as_nanos(),
        telemetry_overhead,
        occupancy,
        threaded_1t_ns,
        jit_1t_ns,
    })
}

/// Extracts a top-level numeric field from a previously committed BENCH_parallel.json.
fn committed_number(text: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The committed baseline for the thread-scaling gate: `(geomean_speedup_4t,
/// hardware_threads)`. The gate only fires when this machine's topology matches the one
/// the baseline was measured on — a single-worker baseline says nothing about a real
/// multi-worker run, and vice versa.
fn committed_baseline(path: &std::path::Path) -> Option<(f64, Option<f64>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let geomean = committed_number(&text, "geomean_speedup_4t")?;
    Some((geomean, committed_number(&text, "hardware_threads")))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    let flag_value = |flag: &str| -> Option<f64> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let check_1t = flag_value("--check-1t");
    let check_4t = flag_value("--check-4t");
    let check_telemetry = flag_value("--check-telemetry");
    let check_tier = args.iter().any(|a| a == "--check-tier");
    let reps = if smoke { 5 } else { 30 };

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let json_path = root.join("BENCH_parallel.json");
    let committed_4t = committed_baseline(&json_path);

    let calibration = CalibrationProfile::measure();
    let resolved_tier = ParallelExecutor::new(1).resolved_tier();
    println!(
        "parallel_runtime: calibrated — alu {:.1}ns threaded / {:.1}ns jit, load {:.1}ns \
         threaded, signal observe {:.0}ns ({} model cycles; paper: 110), poll {:.1}ns, pool \
         wake {:.0}ns, {} hardware thread(s)",
        calibration.alu_threaded_ns,
        calibration.alu_jit_ns,
        calibration.load_threaded_ns,
        calibration.signal_observe_ns,
        calibration
            .helix_config(HelixConfig::i7_980x())
            .signal_latency_unprefetched,
        calibration.signal_poll_ns,
        calibration.pool_wake_ns,
        calibration.hardware_threads,
    );
    println!("parallel_runtime: dispatch tier: {resolved_tier}");
    std::fs::write(root.join("BENCH_calibration.txt"), calibration.to_text())
        .expect("write BENCH_calibration.txt");

    let mut programs: Vec<(String, Module, helix_ir::FuncId)> = Vec::new();
    for (name, module, main) in helix_workloads::corpus::load_all().expect("corpus loads") {
        programs.push((name, module, main));
    }
    for bench in helix_workloads::all_benchmarks() {
        let (module, main) = bench.build();
        programs.push((format!("workload/{}", bench.name), module, main));
    }

    let mut reports = Vec::new();
    for (name, module, main) in &programs {
        let Some(report) = bench_program(name, module, *main, reps, &calibration) else {
            println!("parallel_runtime/{name}: no executable plan for the entry, skipped");
            continue;
        };
        print!(
            "parallel_runtime/{:<28} seq {:>9}ns |",
            report.name, report.sequential_ns
        );
        for (threads, effective, ns, speedup) in &report.parallel {
            print!(" {threads}t[{effective}w] {ns:>9}ns ({speedup:.2}x) |");
        }
        println!(
            " {} sync segs, {} private words/iter, {} instrs",
            report.synchronized_segments, report.private_words_per_iter, report.instrs
        );
        if let Some((paper_loop, measured_loop, paper_ns, measured_ns)) = &report.flip {
            println!(
                "parallel_runtime/{}: SELECTION FLIP paper={paper_loop} ({paper_ns}ns) vs \
                 measured={measured_loop} ({measured_ns}ns) -> measured choice is {} on this \
                 host",
                report.name,
                if measured_ns <= paper_ns {
                    "faster"
                } else {
                    "slower"
                }
            );
        }
        reports.push(report);
    }

    let geomean_at = |threads: usize| -> f64 {
        let logs: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.speedup_at(threads))
            .map(f64::ln)
            .collect();
        if logs.is_empty() {
            1.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    };
    for threads in THREAD_COUNTS {
        println!(
            "parallel_runtime: geomean speedup over sequential bytecode at {threads} threads: \
             {:.2}x",
            geomean_at(threads)
        );
    }
    let fast_at_4 = reports
        .iter()
        .filter(|r| r.speedup_at(4).unwrap_or(0.0) >= 1.2)
        .count();
    println!(
        "parallel_runtime: {fast_at_4}/{} programs reach >=1.2x over sequential bytecode at \
         4 threads",
        reports.len()
    );

    // Per-tier 1-thread geomeans from the pinned head-to-head runs: the wall-clock answer
    // to "did the JIT actually beat plain threaded dispatch on whole programs?".
    let tier_geomean = |ns_of: &dyn Fn(&ProgramReport) -> u128| -> f64 {
        let logs: Vec<f64> = reports
            .iter()
            .map(|r| (r.sequential_ns as f64 / (ns_of(r) as f64).max(1e-12)).ln())
            .collect();
        if logs.is_empty() {
            1.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp()
        }
    };
    let geomean_1t_threaded = tier_geomean(&|r| r.threaded_1t_ns);
    let geomean_1t_jit = tier_geomean(&|r| r.jit_1t_ns);
    println!(
        "parallel_runtime: 1-thread geomean over sequential bytecode by tier: threaded \
         {:.2}x, jit {:.2}x",
        geomean_1t_threaded, geomean_1t_jit
    );

    // Topology summary: why each requested thread count collapsed (or didn't) on this
    // host — the clamp reason the executor itself reports.
    let top_threads = *THREAD_COUNTS.last().expect("non-empty");
    for threads in THREAD_COUNTS {
        println!(
            "parallel_runtime: topology at {threads} threads: {}",
            ParallelExecutor::new(threads).clamp_reason()
        );
    }

    // Sampled-telemetry overhead: geomean of the per-program sampled/disabled ratios at
    // the largest thread count.
    let telemetry_geomean = {
        let logs: Vec<f64> = reports
            .iter()
            .map(|r| (1.0 + r.telemetry_overhead).max(1e-12).ln())
            .collect();
        if logs.is_empty() {
            0.0
        } else {
            (logs.iter().sum::<f64>() / logs.len() as f64).exp() - 1.0
        }
    };
    println!(
        "parallel_runtime: sampled-telemetry geomean overhead at {top_threads} threads: \
         {:+.2}% (Sampled(64) vs disabled)",
        telemetry_geomean * 100.0
    );

    // Emit the JSON summary at the repository root.
    let mut json = String::from("{\n  \"benchmark\": \"parallel_runtime\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"thread_counts\": [1, 2, 4, 6],");
    let _ = writeln!(
        json,
        "  \"hardware_threads\": {},",
        calibration.hardware_threads
    );
    let _ = writeln!(
        json,
        "  \"calibration\": {{ \
         \"alu_threaded_ns\": {:.3}, \"load_threaded_ns\": {:.3}, \
         \"alu_jit_ns\": {:.3}, \"load_jit_ns\": {:.3}, \
         \"signal_observe_ns\": {:.1}, \"signal_poll_ns\": {:.3}, \"pool_wake_ns\": {:.0}, \
         \"signal_latency_cycles\": {} }},",
        calibration.alu_threaded_ns,
        calibration.load_threaded_ns,
        calibration.alu_jit_ns,
        calibration.load_jit_ns,
        calibration.signal_observe_ns,
        calibration.signal_poll_ns,
        calibration.pool_wake_ns,
        calibration
            .helix_config(HelixConfig::i7_980x())
            .signal_latency_unprefetched,
    );
    let _ = writeln!(json, "  \"dispatch_tier\": \"{resolved_tier}\",");
    let _ = writeln!(
        json,
        "  \"geomean_speedup_1t_threaded\": {geomean_1t_threaded:.4},"
    );
    let _ = writeln!(json, "  \"geomean_speedup_1t_jit\": {geomean_1t_jit:.4},");
    json.push_str("  \"clamp_reasons\": {\n");
    for (i, threads) in THREAD_COUNTS.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{threads}t\": \"{}\"{}",
            ParallelExecutor::new(*threads).clamp_reason(),
            if i + 1 < THREAD_COUNTS.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n");
    for threads in THREAD_COUNTS {
        let _ = writeln!(
            json,
            "  \"geomean_speedup_{threads}t\": {:.4},",
            geomean_at(threads)
        );
    }
    let _ = writeln!(
        json,
        "  \"telemetry_overhead_geomean\": {telemetry_geomean:.4},"
    );
    let _ = writeln!(json, "  \"programs_at_least_1_2x_at_4t\": {fast_at_4},");
    json.push_str("  \"programs\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"instrs\": {},", r.instrs);
        let _ = writeln!(
            json,
            "      \"synchronized_segments\": {},",
            r.synchronized_segments
        );
        let _ = writeln!(
            json,
            "      \"private_words_per_iter\": {},",
            r.private_words_per_iter
        );
        let _ = writeln!(
            json,
            "      \"sequential_bytecode_ns\": {},",
            r.sequential_ns
        );
        for (threads, effective, ns, speedup) in &r.parallel {
            let _ = writeln!(json, "      \"parallel_{threads}t_ns\": {ns},");
            let _ = writeln!(json, "      \"effective_workers_{threads}t\": {effective},");
            let _ = writeln!(json, "      \"speedup_{threads}t\": {speedup:.4},");
        }
        let _ = writeln!(
            json,
            "      \"parallel_1t_threaded_ns\": {},",
            r.threaded_1t_ns
        );
        let _ = writeln!(
            json,
            "      \"speedup_1t_threaded\": {:.4},",
            r.sequential_ns as f64 / (r.threaded_1t_ns as f64).max(1e-12)
        );
        let _ = writeln!(json, "      \"parallel_1t_jit_ns\": {},", r.jit_1t_ns);
        let _ = writeln!(
            json,
            "      \"speedup_1t_jit\": {:.4},",
            r.sequential_ns as f64 / (r.jit_1t_ns as f64).max(1e-12)
        );
        if let Some((paper_loop, measured_loop, paper_ns, measured_ns)) = &r.flip {
            let _ = writeln!(
                json,
                "      \"selection_flip\": {{ \"paper_loop\": \"{paper_loop}\", \
                 \"measured_loop\": \"{measured_loop}\", \"paper_plan_ns\": {paper_ns}, \
                 \"measured_plan_ns\": {measured_ns}, \"measured_choice_faster\": {} }},",
                measured_ns <= paper_ns
            );
        }
        let _ = writeln!(
            json,
            "      \"telemetry_disabled_{top_threads}t_ns\": {},",
            r.telemetry_disabled_ns
        );
        let _ = writeln!(
            json,
            "      \"telemetry_sampled_{top_threads}t_ns\": {},",
            r.telemetry_sampled_ns
        );
        let _ = writeln!(
            json,
            "      \"telemetry_overhead_{top_threads}t\": {:.4},",
            r.telemetry_overhead
        );
        let occ = r
            .occupancy
            .iter()
            .map(|o| format!("{o:.4}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(json, "      \"occupancy_{top_threads}t\": [{occ}],");
        let overhead_1t = r
            .speedup_at(1)
            .map(|s| 1.0 / s.max(1e-12) - 1.0)
            .unwrap_or(0.0);
        let _ = writeln!(json, "      \"overhead_1t\": {overhead_1t:.4}");
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < reports.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&json_path, &json).expect("write BENCH_parallel.json");
    println!(
        "parallel_runtime: wrote BENCH_parallel.json ({} programs)",
        reports.len()
    );

    // Self-check against drift: re-read the file just written and recount the per-program
    // rows; the summary field must equal what the rows actually say (a stale or
    // hand-edited summary is exactly the kind of inconsistency this caught once already).
    {
        let written = std::fs::read_to_string(&json_path).expect("re-read BENCH_parallel.json");
        let rows_fast = written
            .lines()
            .filter_map(|l| l.trim().strip_prefix("\"speedup_4t\":"))
            .filter_map(|v| v.trim().trim_end_matches(',').parse::<f64>().ok())
            .filter(|s| *s >= 1.2)
            .count();
        let field = committed_number(&written, "programs_at_least_1_2x_at_4t")
            .expect("summary field present") as usize;
        assert_eq!(
            field, rows_fast,
            "BENCH_parallel.json drift: programs_at_least_1_2x_at_4t says {field} but the \
             per-program rows count {rows_fast}"
        );
    }

    // CI gates. The 1-thread overhead is the per-program floor; the 4-thread geomean is
    // the thread-scaling gate against the committed numbers.
    let mut failed = false;
    if let Some(limit) = check_1t {
        for r in &reports {
            let Some(s1) = r.speedup_at(1) else { continue };
            let ratio = 1.0 / s1.max(1e-12);
            if ratio > limit {
                eprintln!(
                    "parallel_runtime: FAIL {}: 1-thread parallel is {ratio:.2}x sequential \
                     (limit {limit:.2}x)",
                    r.name
                );
                failed = true;
            }
        }
        if !failed {
            println!("parallel_runtime: 1-thread overhead within {limit:.2}x on every program");
        }
    }
    if let Some(allowed_regression) = check_4t {
        match committed_4t {
            Some((_, Some(baseline_hw)))
                if baseline_hw as usize != calibration.hardware_threads =>
            {
                println!(
                    "parallel_runtime: thread-scaling gate skipped: committed baseline was \
                     measured with {} hardware thread(s), this machine has {} — the two \
                     configurations are not comparable",
                    baseline_hw as usize, calibration.hardware_threads
                );
            }
            Some((committed, _)) => {
                let now = geomean_at(4);
                let floor = committed * (1.0 - allowed_regression);
                if now < floor {
                    eprintln!(
                        "parallel_runtime: FAIL thread-scaling gate: geomean_speedup_4t \
                         {now:.4} fell more than {:.0}% below the committed {committed:.4} \
                         (floor {floor:.4})",
                        allowed_regression * 100.0
                    );
                    failed = true;
                } else {
                    println!(
                        "parallel_runtime: thread-scaling gate ok: geomean_speedup_4t \
                         {now:.4} vs committed {committed:.4} (floor {floor:.4})"
                    );
                }
            }
            None => println!(
                "parallel_runtime: thread-scaling gate skipped (no committed \
                 BENCH_parallel.json to compare against)"
            ),
        }
    }
    if check_tier {
        // The tier gate: the tier the executor resolves to (the JIT where it runs,
        // direct threading elsewhere) must post a 1-thread geomean at least as good as
        // plain threaded dispatch — native chunks that lose to the handlers they patch
        // are a regression.
        let resolved_geomean = match resolved_tier {
            DispatchTier::Jit => geomean_1t_jit,
            DispatchTier::Threaded => geomean_1t_threaded,
        };
        if resolved_geomean < geomean_1t_threaded {
            eprintln!(
                "parallel_runtime: FAIL tier gate: the resolved {resolved_tier} tier's \
                 1-thread geomean {resolved_geomean:.4}x fell below the threaded tier's \
                 {geomean_1t_threaded:.4}x",
            );
            failed = true;
        } else {
            println!(
                "parallel_runtime: tier gate ok: resolved tier {resolved_tier} at \
                 {resolved_geomean:.2}x 1-thread geomean (threaded {geomean_1t_threaded:.2}x, \
                 jit {geomean_1t_jit:.2}x)",
            );
        }
    }
    if let Some(limit) = check_telemetry {
        if telemetry_geomean > limit {
            eprintln!(
                "parallel_runtime: FAIL telemetry-overhead gate: sampled telemetry costs \
                 {:+.2}% geomean at {top_threads} threads (limit {:+.2}%)",
                telemetry_geomean * 100.0,
                limit * 100.0
            );
            failed = true;
        } else {
            println!(
                "parallel_runtime: telemetry-overhead gate ok: {:+.2}% geomean at \
                 {top_threads} threads (limit {:+.2}%)",
                telemetry_geomean * 100.0,
                limit * 100.0
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
