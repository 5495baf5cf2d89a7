//! The HELIX benchmark: one command, four workloads, every operation checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path helixbench/Cargo.toml -- \
//!     --workload exec-2w|compile-cold|serve-mixed|serve-hits --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of standard output is a
//! JSON object carrying every end-to-end metric; with `--trace 1` it carries every
//! per-layer metric, and the run's spans go to `helixbench/traces/`. See
//! `helixbench/README.md` for what each workload and metric is for.

mod alloc;
mod check;
mod ledger;
mod pipeline;
mod programs;
mod serve;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use helix_ir::{ExecImage, ImageMachine};
use helix_runtime::CalibrationProfile;

use check::Reference;
use pipeline::{calibrated_helix, compile, compile_traced, label, two_workers, Compiled, FUEL};
use programs::{named_programs, Program, ServeOp};
use serve::{Expect, ServeSample};
use stats::{geomean, median, quantile, windows};
use trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The untraced phase runs on until it has this many ops, so the `latency_p99_ms` of
/// each of its windows has at least ten samples above it.
const MIN_OPS: usize = 1000 * stats::WINDOWS;
/// Requests the serve probe of the traced exec-2w and compile-cold runs sends after
/// its warm-up, to give the service layer metrics.
const PROBE_OPS: usize = 100;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Exec2w,
    CompileCold,
    ServeMixed,
    ServeHits,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Exec2w => "exec-2w",
            Workload::CompileCold => "compile-cold",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeHits => "serve-hits",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "exec-2w" => Workload::Exec2w,
                    "compile-cold" => Workload::CompileCold,
                    "serve-mixed" => Workload::ServeMixed,
                    "serve-hits" => Workload::ServeHits,
                    _ => return Err(format!("unknown workload {value:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
    })
}

/// One timed operation as a workload reports it.
pub struct OpResult {
    /// Groups ops by distinct program for `program_geomean_ms`.
    pub program: u64,
    pub name: String,
    pub ns: f64,
    pub check: Result<(), String>,
    /// Benchmark-side work done for this op (reference runs) that the phase's time
    /// must not count.
    pub excluded: Duration,
}

/// Every checked operation of the run, and the failing ones by program.
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, stage: &str, program: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(reason) => {
                self.failed += 1;
                self.failures
                    .push(format!("{stage} program={program}: {reason}"));
                false
            }
        }
    }
}

/// One timed op of a phase.
struct Op {
    program: u64,
    ns: f64,
    ok: bool,
    /// Phase time at which it completed, without the benchmark's own reference work.
    done_s: f64,
}

/// The samples of one timed phase.
struct Phase {
    ops: Vec<Op>,
    /// Peak live heap once the phase had `min_ops` ops: a peak over set-up and a fixed
    /// amount of work, so it does not grow with how many ops a fast host fits in.
    peak_heap_mb: f64,
    /// Minor page faults of the whole process per op over the phase.
    faults_per_op: f64,
    /// Kernel share of the process's CPU time over the phase.
    system_share: f64,
}

/// `(minor faults, user ticks, system ticks)` of this process so far, from
/// `/proc/self/stat`; `None` where there is no such file.
fn process_counters() -> Option<[f64; 3]> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, counted from field 3 (`state`).
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<f64>().ok();
    Some([field(10)?, field(14)?, field(15)?])
}

/// Runs ops in a closed loop until `seconds` of phase time and `min_ops` ops are done.
fn run_phase(
    checks: &mut Checks,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(u64) -> OpResult,
) -> Phase {
    let start = Instant::now();
    let cap = Duration::from_secs_f64(seconds * 4.0 + 30.0);
    let mut excluded = Duration::ZERO;
    let mut ops = Vec::new();
    let mut peak_heap_mb = f64::NAN;
    let before = process_counters();
    while (start.elapsed() - excluded).as_secs_f64() < seconds || ops.len() < min_ops {
        if start.elapsed() > cap {
            break;
        }
        let i = ops.len() as u64;
        let r = op(i);
        excluded += r.excluded;
        let ok = checks.record(&format!("op#{i}"), &r.name, r.check);
        ops.push(Op {
            program: r.program,
            ns: r.ns,
            ok,
            done_s: (start.elapsed() - excluded).as_secs_f64(),
        });
        if ops.len() == min_ops {
            peak_heap_mb = alloc::peak_heap_mb();
        }
    }
    let (faults_per_op, system_share) = match (before, process_counters()) {
        (Some([f0, u0, s0]), Some([f1, u1, s1])) => (
            (f1 - f0) / ops.len().max(1) as f64,
            (s1 - s0) / ((u1 - u0) + (s1 - s0)).max(1.0),
        ),
        _ => (f64::NAN, f64::NAN),
    };
    Phase {
        ops,
        peak_heap_mb,
        faults_per_op,
        system_share,
    }
}

/// Fractional cost of tracing: traced over untraced latency over the ops both phases
/// ran, in percent.
fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    let n = untraced.ops.len().min(traced.ops.len());
    let total = |p: &Phase| p.ops[..n].iter().map(|o| o.ns).sum::<f64>();
    100.0 * (total(traced) / total(untraced) - 1.0)
}

/// Calibration as one set-up pays it: the first set-up of the process fills the
/// process-wide profile everything later prices with; the others measure afresh.
fn calibrate(rep: usize) -> f64 {
    let start = Instant::now();
    if rep == 0 {
        CalibrationProfile::cached();
    } else {
        std::hint::black_box(CalibrationProfile::measure());
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// What a workload hands to the reporting.
struct Run {
    setup_s: Vec<f64>,
    calibrate_ms: Vec<f64>,
    /// The untraced phase, and in a traced run the traced phase after it.
    phases: Vec<Phase>,
    /// The named programs, compiled as the workload's system compiles them.
    compiled: Vec<Compiled>,
    serve: Vec<ServeSample>,
    serve_stats: HashMap<String, f64>,
}

struct Bench<'a> {
    args: &'a Args,
    named: &'a [Program],
    refs: &'a [Reference],
    checks: Checks,
    tracer: Tracer,
}

impl Bench<'_> {
    /// Runs the untraced phase, then in a traced run the traced phase, each through
    /// `phase(tracer_on, seconds, min_ops)`.
    fn phases(
        &mut self,
        mut phase: impl FnMut(&mut Checks, &mut Tracer, f64, usize) -> Phase,
    ) -> Vec<Phase> {
        let a = self.args;
        if !a.trace {
            let mut off = Tracer::new(false);
            return vec![phase(&mut self.checks, &mut off, a.seconds, MIN_OPS)];
        }
        let mut off = Tracer::new(false);
        let untraced = phase(&mut self.checks, &mut off, a.seconds / 2.0, 1);
        let traced = phase(&mut self.checks, &mut self.tracer, a.seconds / 2.0, 1);
        vec![untraced, traced]
    }

    /// Runs a compiled image once at 2 workers, capturing memory, and checks it.
    fn check_image(&mut self, stage: &str, program: &Program, reference: &Reference, c: &Compiled) {
        let result = match &c.pimg {
            Some(pimg) => reference.check_output(
                helix_runtime::ParallelExecutor::new(2)
                    .with_capture_memory(true)
                    .run_parallel_out(pimg, &[]),
            ),
            // No loop qualified: the program runs sequentially, as the daemon runs it.
            None => {
                let image = ExecImage::lower(&program.module);
                let mut machine = ImageMachine::new(&image);
                machine.set_fuel(FUEL);
                machine
                    .call(program.entry, &[])
                    .map_err(|e| e.to_string())
                    .and_then(|ret| reference.check(ret, machine.memory()))
            }
        };
        self.checks.record(stage, &program.name, result);
    }

    fn exec_2w(&mut self) -> Result<Run, String> {
        let executor = two_workers()?.with_capture_memory(true);
        let (mut setup_s, mut calibrate_ms, mut kept) = (Vec::new(), Vec::new(), None);
        for rep in 0..SETUP_REPS {
            let start = Instant::now();
            calibrate_ms.push(calibrate(rep));
            let helix = calibrated_helix();
            let compiled = self
                .named
                .iter()
                .map(|p| compile(&helix, &p.source).map_err(|e| format!("{}: {e}", p.name)))
                .collect::<Result<Vec<_>, _>>()?;
            setup_s.push(start.elapsed().as_secs_f64());
            kept.get_or_insert(compiled);
        }
        let compiled = kept.expect("at least one set-up");
        for ((p, r), c) in self.named.iter().zip(self.refs).zip(&compiled) {
            self.check_image("setup", p, r, c);
        }
        let (named, refs, seed) = (self.named, self.refs, self.args.seed);
        let phases = self.phases(|checks, tracer, seconds, min_ops| {
            let mut picks = programs::picks(seed, 1, named.len());
            run_phase(checks, seconds, min_ops, |i| {
                let p = picks.next().expect("endless picks");
                let mut op = OpResult {
                    program: p as u64,
                    name: named[p].name.clone(),
                    ns: 0.0,
                    check: Err("no parallel plan to run".to_string()),
                    excluded: Duration::ZERO,
                };
                if let Some(pimg) = &compiled[p].pimg {
                    let span = tracer.open("runtime.run_parallel_out", i, None);
                    let start = Instant::now();
                    let out = executor.run_parallel_out(pimg, &[]);
                    op.ns = start.elapsed().as_nanos() as f64;
                    tracer.close(span);
                    op.check = refs[p].check_output(out);
                }
                op
            })
        });
        Ok(Run {
            setup_s,
            calibrate_ms,
            phases,
            compiled,
            serve: Vec::new(),
            serve_stats: HashMap::new(),
        })
    }

    fn compile_cold(&mut self) -> Result<Run, String> {
        two_workers()?;
        let generated = programs::compile_pool_seeds()
            .into_iter()
            .map(programs::generated)
            .collect::<Result<Vec<_>, _>>()?;
        let pool: Vec<&Program> = self.named.iter().chain(&generated).collect();
        // Reference runs are the benchmark's own work: done before any set-up is timed.
        let generated_refs: Vec<Result<Reference, String>> = generated
            .iter()
            .map(|p| Reference::compute(&p.module, p.entry))
            .collect();
        let (mut setup_s, mut calibrate_ms) = (Vec::new(), Vec::new());
        // Per pool program, the transformed-module hash of the first set-up.
        let mut setup: Vec<Result<u64, String>> = Vec::new();
        let mut compiled = Vec::new();
        for rep in 0..SETUP_REPS {
            let start = Instant::now();
            let mut excluded = Duration::ZERO;
            calibrate_ms.push(calibrate(rep));
            let helix = calibrated_helix();
            for (i, p) in pool.iter().enumerate() {
                let c = compile(&helix, &p.source);
                if rep > 0 {
                    continue;
                }
                // The first set-up checks each image as it comes and keeps only the
                // named ones, so the pool's images never all live at once.
                let checking = Instant::now();
                let reference = match i.checked_sub(self.named.len()) {
                    None => Ok(&self.refs[i]),
                    Some(g) => generated_refs[g].as_ref(),
                };
                match (reference, &c) {
                    (Ok(r), Ok(c)) => self.check_image("setup", p, r, c),
                    (Err(e), _) | (_, Err(e)) => {
                        self.checks.record("setup", &p.name, Err(e.clone()));
                    }
                }
                setup.push(c.as_ref().map(|c| c.hash).map_err(Clone::clone));
                if i < self.named.len() {
                    compiled.push(c.map_err(|e| format!("{}: {e}", p.name))?);
                }
                excluded += checking.elapsed();
            }
            setup_s.push((start.elapsed() - excluded).as_secs_f64());
        }
        let seed = self.args.seed;
        let helix = calibrated_helix();
        let phases = self.phases(|checks, tracer, seconds, min_ops| {
            let mut picks = programs::picks(seed, 3, pool.len());
            run_phase(checks, seconds, min_ops, |i| {
                let p = picks.next().expect("endless picks");
                let source = &pool[p].source;
                let span = tracer.open("op.compile", i, None);
                let start = Instant::now();
                let compiled = if tracer.enabled() {
                    compile_traced(&helix, source, tracer, i, span)
                } else {
                    compile(&helix, source)
                };
                let ns = start.elapsed().as_nanos() as f64;
                tracer.close(span);
                let check = match (compiled, &setup[p]) {
                    (Ok(c), Ok(s)) if c.hash == *s => Ok(()),
                    (Ok(c), Ok(s)) => Err(format!(
                        "transformed module hash {:016x}, set-up recorded {s:016x}",
                        c.hash
                    )),
                    (Err(e), _) => Err(e),
                    (Ok(_), Err(e)) => Err(format!("set-up compile failed: {e}")),
                };
                OpResult {
                    program: p as u64,
                    name: pool[p].name.clone(),
                    ns,
                    check,
                    excluded: Duration::ZERO,
                }
            })
        });
        Ok(Run {
            setup_s,
            calibrate_ms,
            phases,
            compiled,
            serve: Vec::new(),
            serve_stats: HashMap::new(),
        })
    }

    /// Warms a fresh daemon with every named program (each a miss), checking each.
    fn warm(&mut self, client: &mut serve::UnixClient, expect: &mut Expect<'_>, next_id: &mut u64) {
        let mut off = Tracer::new(false);
        for i in 0..self.named.len() {
            *next_id += 1;
            let r = serve::serve_op(
                client,
                &ServeOp::Hit(i),
                *next_id,
                expect,
                &mut off,
                &mut Vec::new(),
            );
            self.checks.record("setup", &r.name, r.check);
        }
    }

    /// One phase of `ops` on `client`, appending what the daemon reported to `samples`.
    #[allow(clippy::too_many_arguments)]
    fn serve_phase(
        checks: &mut Checks,
        tracer: &mut Tracer,
        client: &mut serve::UnixClient,
        expect: &mut Expect<'_>,
        next_id: &mut u64,
        samples: &mut Vec<ServeSample>,
        mut ops: impl Iterator<Item = ServeOp>,
        seconds: f64,
        min_ops: usize,
    ) -> Phase {
        run_phase(checks, seconds, min_ops, |_| {
            *next_id += 1;
            let op = ops.next().expect("endless serve ops");
            serve::serve_op(client, &op, *next_id, expect, tracer, samples)
        })
    }

    /// serve-mixed, or serve-hits when `hits` is 1.
    fn serve(&mut self, hits: f64) -> Result<Run, String> {
        two_workers()?;
        let (mut setup_s, mut calibrate_ms) = (Vec::new(), Vec::new());
        let mut phases = Vec::new();
        let mut serve = Vec::new();
        let mut serve_stats = HashMap::new();
        let (named, refs, seed, seconds) =
            (self.named, self.refs, self.args.seed, self.args.seconds);
        let mut next_id = 0;
        for rep in 0..SETUP_REPS {
            let start = Instant::now();
            calibrate_ms.push(calibrate(rep));
            let last = rep + 1 == SETUP_REPS;
            serve::with_daemon(|client| {
                let mut expect = Expect::new(named, refs);
                self.warm(client, &mut expect, &mut next_id);
                setup_s.push(start.elapsed().as_secs_f64());
                if last {
                    let mut off = Tracer::new(false);
                    let (phase_s, min_ops) = if self.args.trace {
                        (seconds / 2.0, 1)
                    } else {
                        (seconds, MIN_OPS)
                    };
                    phases.push(Self::serve_phase(
                        &mut self.checks,
                        &mut off,
                        client,
                        &mut expect,
                        &mut next_id,
                        &mut Vec::new(),
                        programs::serve_ops(seed, named, hits),
                        phase_s,
                        min_ops,
                    ));
                }
            })?;
        }
        if self.args.trace {
            // The traced phase replays the same sequence on a daemon in the same state.
            serve::with_daemon(|client| -> Result<(), String> {
                let mut expect = Expect::new(named, refs);
                self.warm(client, &mut expect, &mut next_id);
                phases.push(Self::serve_phase(
                    &mut self.checks,
                    &mut self.tracer,
                    client,
                    &mut expect,
                    &mut next_id,
                    &mut serve,
                    programs::serve_ops(seed, named, hits),
                    seconds / 2.0,
                    1,
                ));
                serve_stats = serve::stats(client)?;
                Ok(())
            })??;
        }
        // The daemon's plans, as labels and for the runtime sweep: the same calibrated
        // pipeline `Server::new` builds, compiled here outside any timed region.
        let helix = calibrated_helix();
        let compiled = named
            .iter()
            .map(|p| compile(&helix, &p.source).map_err(|e| format!("{}: {e}", p.name)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Run {
            setup_s,
            calibrate_ms,
            phases,
            compiled,
            serve,
            serve_stats,
        })
    }

    /// The service layer metrics for a workload that has no daemon of its own: a short
    /// traced probe of the serve-mixed stream.
    fn serve_probe(&mut self) -> Result<(Vec<ServeSample>, HashMap<String, f64>), String> {
        let (named, refs, seed) = (self.named, self.refs, self.args.seed);
        let mut samples = Vec::new();
        let mut next_id = 0;
        let stats = serve::with_daemon(|client| {
            let mut expect = Expect::new(named, refs);
            self.warm(client, &mut expect, &mut next_id);
            Self::serve_phase(
                &mut self.checks,
                &mut Tracer::new(false),
                client,
                &mut expect,
                &mut next_id,
                &mut samples,
                programs::serve_ops(seed, named, programs::MIXED_HITS),
                0.0,
                PROBE_OPS,
            );
            serve::stats(client)
        })??;
        Ok((samples, stats))
    }
}

/// The end-to-end metrics of an untraced run: each phase figure is the median over the
/// run's windows (see [`stats::WINDOWS`]).
fn end_to_end(run: &Run, speedup: f64, checks: &Checks) -> Vec<(&'static str, &'static str, f64)> {
    let phase = &run.phases[0];
    let mut per_window: [Vec<f64>; 4] = Default::default();
    let mut since = 0.0;
    for w in windows(&phase.ops) {
        let Some(last) = w.last() else { continue };
        let ok = w.iter().filter(|o| o.ok).count();
        per_window[0].push(ok as f64 / (last.done_s - since));
        since = last.done_s;
        let mut latency_ms: Vec<f64> = w.iter().map(|o| o.ns / 1e6).collect();
        per_window[1].push(quantile(&mut latency_ms, 0.5));
        per_window[2].push(quantile(&mut latency_ms, 0.99));
        let mut by_program: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for o in w {
            by_program.entry(o.program).or_default().push(o.ns / 1e6);
        }
        let medians: Vec<f64> = by_program.values_mut().map(|v| median(v)).collect();
        per_window[3].push(geomean(&medians));
    }
    let [ops_per_s, p50, p99, program_geomean] = per_window.map(|mut v| median(&mut v));
    vec![
        ("setup_s", "s", median(&mut run.setup_s.clone())),
        ("ops_per_s", "1/s", ops_per_s),
        ("latency_p50_ms", "ms", p50),
        ("latency_p99_ms", "ms", p99),
        ("program_geomean_ms", "ms", program_geomean),
        ("speedup_geomean", "x", speedup),
        (
            "success_rate",
            "ratio",
            (checks.attempted - checks.failed) as f64 / checks.attempted.max(1) as f64,
        ),
        ("peak_heap_mb", "MiB", phase.peak_heap_mb),
    ]
}

fn json(checks: &Checks, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            // JSON has no NaN: a metric that could not be measured reads as -1.
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("helixbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("helixbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let named = named_programs()?;
    let refs = named
        .iter()
        .map(|p| Reference::compute(&p.module, p.entry).map_err(|e| format!("{}: {e}", p.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut bench = Bench {
        args,
        named: &named,
        refs: &refs,
        checks: Checks {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        },
        tracer: Tracer::new(args.trace),
    };
    let wl = args.workload.name();
    let run = match args.workload {
        Workload::Exec2w => bench.exec_2w(),
        Workload::CompileCold => bench.compile_cold(),
        Workload::ServeMixed => bench.serve(programs::MIXED_HITS),
        Workload::ServeHits => bench.serve(1.0),
    }?;
    for (p, c) in named.iter().zip(&run.compiled) {
        println!("{}", label(wl, &p.name, c));
    }
    let sweep = ledger::sweep(&mut bench.checks, &named, &refs, &run.compiled, args.trace);
    let metrics = if args.trace {
        // The ledger: every named program through the traced pipeline, its hash checked
        // against the workload's own compile of it.
        let helix = calibrated_helix();
        let mut counts = Vec::new();
        for (i, (p, c)) in named.iter().zip(&run.compiled).enumerate() {
            let op = 1_000_000 + i as u64;
            let result = compile_traced(&helix, &p.source, &mut bench.tracer, op, None);
            let result = result.and_then(|t| {
                counts.extend(t.counts);
                if t.hash == c.hash {
                    Ok(())
                } else {
                    Err("traced compile differs from Helix::prepare".to_string())
                }
            });
            bench.checks.record("ledger", &p.name, result);
        }
        let telemetry = ledger::telemetry(&mut bench.checks, &named, &refs, &run.compiled);
        let (serve, serve_stats) =
            if matches!(args.workload, Workload::ServeMixed | Workload::ServeHits) {
                (run.serve, run.serve_stats)
            } else {
                bench.serve_probe()?
            };
        let path = PathBuf::from(format!("helixbench/traces/{wl}-seed{}.jsonl", args.seed));
        bench
            .tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "trace {} spans -> {}",
            bench.tracer.spans.len(),
            path.display()
        );
        ledger::layer_metrics(&ledger::LayerInputs {
            tracer: &bench.tracer,
            counts: &counts,
            calibrate_ms: median(&mut run.calibrate_ms.clone()),
            times: &sweep.times(),
            telemetry: &telemetry,
            serve: &serve,
            serve_stats: &serve_stats,
            trace_overhead_pct: overhead_pct(&run.phases[0], &run.phases[1]),
            faults_per_op: run.phases[0].faults_per_op,
            system_share: run.phases[0].system_share,
        })
    } else {
        end_to_end(&run, sweep.speedup_geomean(), &bench.checks)
    };
    for failure in bench.checks.failures.iter().take(50) {
        println!("FAIL workload={wl} seed={} {failure}", args.seed);
    }
    println!(
        "{wl} seed={} ops={} attempted={} failed={}",
        args.seed,
        run.phases.iter().map(|p| p.ops.len()).sum::<usize>(),
        bench.checks.attempted,
        bench.checks.failed
    );
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    Ok(json(&bench.checks, &metrics))
}
