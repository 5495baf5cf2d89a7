//! The layer-by-layer ledger: the runtime sweep over the 25 named programs that every
//! run makes, and the per-layer metrics the traced run reports.

use std::collections::HashMap;
use std::time::Instant;

use helix_ir::{ExecImage, ImageMachine};
use helix_runtime::{ParallelExecutor, TelemetryMode, TelemetryReport};

use crate::check::Reference;
use crate::pipeline::{Compiled, Counts, FUEL};
use crate::programs::Program;
use crate::serve::ServeSample;
use crate::stats::{geomean, median, windows, WINDOWS};
use crate::trace::Tracer;
use crate::Checks;

/// The sweep makes whole rounds over the named programs until this much time has
/// passed: long enough to average over the host's second-scale speed swings.
pub const SWEEP_SECONDS: f64 = 4.0;
/// ... and at least this many rounds, so every window's medians have samples.
const SWEEP_MIN_ROUNDS: usize = 5 * WINDOWS;

/// Per-program medians of the sweep, in microseconds.
pub struct Times {
    /// `ImageMachine` on the untransformed module: the sequential baseline.
    pub seq_us: f64,
    /// `ParallelExecutor` with 1 worker, on the same tier as 2 workers (traced run only).
    pub w1_us: f64,
    pub w2_us: f64,
}

/// Runs each named program's sequential baseline and its 2-worker parallel image (and,
/// when `with_1w`, the 1-worker parallel image) in rounds, interleaved so all engines
/// see the same machine conditions, checking every run.
pub fn sweep(
    checks: &mut Checks,
    named: &[Program],
    refs: &[Reference],
    compiled: &[Compiled],
    with_1w: bool,
) -> Sweep {
    let programs: Vec<_> = named
        .iter()
        .zip(refs)
        .zip(compiled)
        .filter_map(|((p, r), c)| {
            c.pimg
                .as_ref()
                .map(|pimg| (p, r, pimg, ExecImage::lower(&p.module)))
        })
        .collect();
    let mut samples = vec![[Vec::new(), Vec::new(), Vec::new()]; programs.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < SWEEP_MIN_ROUNDS || start.elapsed().as_secs_f64() < SWEEP_SECONDS {
        rounds += 1;
        for ((program, reference, pimg, image), [seq, w1, w2]) in programs.iter().zip(&mut samples)
        {
            let mut machine = ImageMachine::new(image);
            machine.set_fuel(FUEL);
            let t = Instant::now();
            let ret = machine.call(program.entry, &[]);
            seq.push(t.elapsed().as_nanos() as f64 / 1e3);
            let result = ret
                .map_err(|e| format!("ImageMachine: {e}"))
                .and_then(|ret| reference.check(ret, machine.memory()));
            checks.record("sweep.seq", &program.name, result);
            for (threads, out) in [(2, &mut *w2), (1, &mut *w1)] {
                if threads == 1 && !with_1w {
                    continue;
                }
                let executor = ParallelExecutor::new(threads);
                let t = Instant::now();
                let run = executor.run_parallel_out(pimg, &[]);
                out.push(t.elapsed().as_nanos() as f64 / 1e3);
                let result = run
                    .result
                    .map_err(|e| e.to_string())
                    .and_then(|ret| reference.check_return(ret));
                let stage = if threads == 2 { "sweep.2w" } else { "sweep.1w" };
                checks.record(stage, &program.name, result);
            }
        }
    }
    Sweep { samples }
}

/// Per program, the sequential, 1-worker and 2-worker times of every round.
pub struct Sweep {
    samples: Vec<[Vec<f64>; 3]>,
}

impl Sweep {
    /// Per-program medians over all rounds.
    pub fn times(&self) -> Vec<Times> {
        self.samples
            .iter()
            .map(|[seq, w1, w2]| Times {
                seq_us: median(&mut seq.clone()),
                w1_us: median(&mut w1.clone()),
                w2_us: median(&mut w2.clone()),
            })
            .collect()
    }

    /// The paper's headline: geomean over programs of the sequential median over the
    /// 2-worker median, as the median over windows of rounds.
    pub fn speedup_geomean(&self) -> f64 {
        let rounds = self.samples.first().map_or(0, |s| s[0].len());
        let index: Vec<usize> = (0..rounds).collect();
        let mut per_window: Vec<f64> = windows(&index)
            .map(|w| {
                let ratios: Vec<f64> = self
                    .samples
                    .iter()
                    .map(|[seq, _, w2]| {
                        let pick = |v: &Vec<f64>| w.iter().map(|&r| v[r]).collect::<Vec<_>>();
                        median(&mut pick(seq)) / median(&mut pick(w2))
                    })
                    .collect();
                geomean(&ratios)
            })
            .collect();
        median(&mut per_window)
    }
}

/// Aggregated runtime telemetry of one fully traced run per named program.
#[derive(Default)]
pub struct Telemetry {
    programs: usize,
    workers_used: usize,
    iterations: u64,
    busy_ns: u64,
    run_ns: u64,
    wait_ns: u64,
    occupancy: f64,
    spins: u64,
    yields: u64,
    parks: u64,
    signals: u64,
    /// Sum over programs of a 1-worker run's wall time minus its busy time.
    non_iteration_us: f64,
}

fn busy_ns(report: &TelemetryReport) -> u64 {
    report
        .workers
        .iter()
        .map(|w| w.counters.run_ns.saturating_sub(w.counters.wait_ns))
        .sum()
}

/// One `TelemetryMode::Full` run per named program at 2 workers and at 1 worker.
pub fn telemetry(
    checks: &mut Checks,
    named: &[Program],
    refs: &[Reference],
    compiled: &[Compiled],
) -> Telemetry {
    let mut t = Telemetry::default();
    let with_plan = named
        .iter()
        .zip(refs)
        .zip(compiled)
        .filter_map(|((p, r), c)| c.pimg.as_ref().map(|pimg| (p, r, pimg)));
    for (program, reference, pimg) in with_plan {
        let mut wall_1w_us = 0.0;
        let mut reports = [1, 2].map(|threads| {
            let start = Instant::now();
            let run = ParallelExecutor::new(threads)
                .with_telemetry(TelemetryMode::Full)
                .run_parallel_out(pimg, &[]);
            if threads == 1 {
                wall_1w_us = start.elapsed().as_nanos() as f64 / 1e3;
            }
            let result = run
                .result
                .map_err(|e| e.to_string())
                .and_then(|ret| reference.check_return(ret));
            checks.record("telemetry", &program.name, result);
            run.report
        });
        let (Some(two), Some(one)) = (reports[1].take(), reports[0].take()) else {
            continue;
        };
        t.programs += 1;
        t.workers_used += two
            .workers
            .iter()
            .filter(|w| w.counters.iterations > 0)
            .count();
        t.iterations += two.total_iterations();
        t.busy_ns += busy_ns(&two);
        for w in &two.workers {
            t.run_ns += w.counters.run_ns;
            t.wait_ns += w.counters.wait_ns;
            t.spins += w.counters.spins;
            t.yields += w.counters.yields;
            t.parks += w.counters.parks;
            t.signals += w.counters.signals;
        }
        let occupancy = two.occupancy();
        t.occupancy += occupancy.iter().sum::<f64>() / occupancy.len().max(1) as f64;
        t.non_iteration_us += wall_1w_us - busy_ns(&one) as f64 / 1e3;
    }
    t
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub counts: &'a [Counts],
    pub calibrate_ms: f64,
    pub times: &'a [Times],
    pub telemetry: &'a Telemetry,
    pub serve: &'a [ServeSample],
    pub serve_stats: &'a HashMap<String, f64>,
    pub trace_overhead_pct: f64,
    pub faults_per_op: f64,
    pub system_share: f64,
}

/// `(name, unit, value)` of every per-layer metric.
pub fn layer_metrics(i: &LayerInputs<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let span = |name: &str| median(&mut i.tracer.durations_us(name));
    let sum = |f: fn(&Counts) -> usize| i.counts.iter().map(f).sum::<usize>() as f64;
    let programs = |f: fn(&Times) -> f64| geomean(&i.times.iter().map(f).collect::<Vec<_>>());
    let t = i.telemetry;
    let serve = |class: Option<&str>, f: fn(&ServeSample) -> f64| {
        let mut v: Vec<f64> = i
            .serve
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(f)
            .collect();
        median(&mut v)
    };
    let mut prep: Vec<f64> = i
        .serve
        .iter()
        .filter(|s| s.prep_us > 0.0)
        .map(|s| s.prep_us)
        .collect();
    let stat = |k: &str| i.serve_stats.get(k).copied().unwrap_or(f64::NAN);
    // Source throughput of the frontend: bytes parsed per span-microsecond.
    let parse_us: f64 = i.tracer.durations_us("frontend.parse_verify").iter().sum();
    let parse_bytes: f64 = i
        .tracer
        .spans
        .iter()
        .filter(|s| s.name == "frontend.parse_verify")
        .map(|s| s.note.parse::<f64>().unwrap_or(0.0))
        .sum();
    vec![
        (
            "frontend.parse_verify_us",
            "us",
            span("frontend.parse_verify"),
        ),
        (
            "frontend.source_kb_per_ms",
            "kB/ms",
            parse_bytes / 1e3 / (parse_us / 1e3),
        ),
        ("analysis.nesting_us", "us", span("analysis.nesting")),
        ("ir.exec_lower_us", "us", span("ir.exec_lower")),
        ("ir.static_instrs", "count", sum(|c| c.static_instrs)),
        (
            "ir.transformed_instrs",
            "count",
            sum(|c| c.transformed_instrs),
        ),
        ("profiler.training_us", "us", span("profiler.training")),
        (
            "profiler.dynamic_instrs",
            "count",
            i.counts.iter().map(|c| c.dynamic_instrs).sum::<u64>() as f64,
        ),
        ("core.analyze_us", "us", span("core.analyze")),
        ("core.transform_us", "us", span("core.transform")),
        ("core.candidate_plans", "count", sum(|c| c.candidate_plans)),
        ("core.selected_loops", "count", sum(|c| c.selected_loops)),
        (
            "core.fallback_programs",
            "count",
            sum(|c| usize::from(c.fallback)),
        ),
        ("core.sync_segments", "count", sum(|c| c.sync_segments)),
        ("core.waits", "count", sum(|c| c.waits)),
        ("core.signals", "count", sum(|c| c.signals)),
        ("runtime.calibrate_ms", "ms", i.calibrate_ms),
        ("runtime.image_lower_us", "us", span("runtime.image_lower")),
        ("runtime.seq_us", "us", programs(|t| t.seq_us)),
        ("runtime.run_1w_us", "us", programs(|t| t.w1_us)),
        ("runtime.run_2w_us", "us", programs(|t| t.w2_us)),
        ("runtime.engine_gain", "x", programs(|t| t.seq_us / t.w1_us)),
        (
            "runtime.parallel_gain",
            "x",
            programs(|t| t.w1_us / t.w2_us),
        ),
        (
            "runtime.workers_used",
            "count",
            t.workers_used as f64 / t.programs.max(1) as f64,
        ),
        ("runtime.iterations", "count", t.iterations as f64),
        ("runtime.busy_us", "us", t.busy_ns as f64 / 1e3),
        ("runtime.wait_us", "us", t.wait_ns as f64 / 1e3),
        (
            "runtime.wait_share",
            "ratio",
            t.wait_ns as f64 / t.run_ns.max(1) as f64,
        ),
        (
            "runtime.occupancy",
            "ratio",
            t.occupancy / t.programs.max(1) as f64,
        ),
        ("runtime.spins", "count", t.spins as f64),
        ("runtime.yields", "count", t.yields as f64),
        ("runtime.parks", "count", t.parks as f64),
        ("runtime.signals", "count", t.signals as f64),
        ("runtime.non_iteration_us", "us", t.non_iteration_us),
        (
            "service.latency_hit_us",
            "us",
            serve(Some("hit"), |s| s.latency_us),
        ),
        (
            "service.latency_variant_us",
            "us",
            serve(Some("variant"), |s| s.latency_us),
        ),
        (
            "service.latency_miss_us",
            "us",
            serve(Some("miss"), |s| s.latency_us),
        ),
        ("service.prep_us", "us", median(&mut prep)),
        ("service.exec_us", "us", serve(None, |s| s.exec_us)),
        (
            "service.overhead_us",
            "us",
            serve(None, |s| s.latency_us - s.prep_us - s.exec_us),
        ),
        (
            "service.cache_hit_ratio",
            "ratio",
            stat("cache_hits") / (stat("cache_hits") + stat("cache_misses")),
        ),
        ("service.evictions", "count", stat("cache_evictions")),
        ("service.cache_entries", "count", stat("cache_entries")),
        ("service.jobs_failed", "count", stat("jobs_failed")),
        ("trace.overhead_pct", "%", i.trace_overhead_pct),
        ("process.minor_faults_per_op", "count", i.faults_per_op),
        ("process.system_time_share", "ratio", i.system_share),
    ]
}
