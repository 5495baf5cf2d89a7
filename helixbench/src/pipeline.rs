//! Compiling one program: source text to a lowered `ParallelImage`.
//!
//! Untraced, this is exactly the daemon's miss path: `parse_and_verify`, then
//! `Helix::prepare`, then `ParallelImage::lower`. Traced, the same work runs as the
//! individual public calls `Helix::prepare` is made of, each inside a span, and the
//! result is checked against the untraced one by its hash.

use helix_analysis::LoopNestingGraph;
use helix_core::{content_hash, transform, Helix, HelixConfig};
use helix_ir::{ExecImage, ImageMachine};
use helix_profiler::{ImageProfiler, LoopKey};
use helix_runtime::{CalibrationProfile, ParallelExecutor, ParallelImage};

use crate::stats::fnv1a;
use crate::trace::Tracer;

/// Fuel of the profiling run: the daemon's default.
pub const FUEL: u64 = 200_000_000;

/// What the compile of one program produced.
pub struct Compiled {
    /// Hash of the printed transformed module (0 when no loop qualified).
    pub hash: u64,
    pub pimg: Option<ParallelImage>,
    pub plan: Option<LoopKey>,
    pub plan_selected: bool,
    /// Layer counts, filled only by the traced compile.
    pub counts: Option<Counts>,
}

/// Work counts of one traced compile.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    pub static_instrs: usize,
    pub transformed_instrs: usize,
    pub dynamic_instrs: u64,
    pub candidate_plans: usize,
    pub selected_loops: usize,
    pub fallback: bool,
    pub sync_segments: usize,
    pub waits: usize,
    pub signals: usize,
}

/// The pipeline driver `Server::new` builds: calibrated pricing from the process-wide
/// calibration profile.
pub fn calibrated_helix() -> Helix {
    let calibration = CalibrationProfile::cached();
    Helix::new(calibration.helix_config(HelixConfig::default()))
        .with_cost_model(calibration.cost_model())
}

/// Compiles `source` through the system's public one-call path.
pub fn compile(helix: &Helix, source: &str) -> Result<Compiled, String> {
    let module = helix_frontend::parse_and_verify(source).map_err(|e| format!("parse: {e}"))?;
    let entry = module.function_by_name("main").ok_or("no main function")?;
    let prepared = helix
        .prepare(&module, entry, &[], FUEL)
        .map_err(|e| format!("prepare: {e}"))?;
    let pimg = prepared.transformed.as_ref().map(ParallelImage::lower);
    Ok(Compiled {
        hash: transformed_hash(prepared.transformed.as_ref()),
        pimg,
        plan: prepared.plan_key,
        plan_selected: prepared.plan_selected,
        counts: None,
    })
}

/// The benchmark's compile check key: computed outside any timed region.
pub fn transformed_hash(t: Option<&transform::TransformedProgram>) -> u64 {
    t.map_or(0, |t| fnv1a(&helix_ir::printer::format_module(&t.module)))
}

/// [`compile`] as its constituent layer calls, each in a span under `parent`.
pub fn compile_traced(
    helix: &Helix,
    source: &str,
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
) -> Result<Compiled, String> {
    let span = tracer.open("frontend.parse_verify", op, parent);
    let module = helix_frontend::parse_and_verify(source);
    tracer.close(span);
    // The note carries the bytes parsed, for the frontend's throughput.
    tracer.note(span, source.len().to_string());
    let module = module.map_err(|e| format!("parse: {e}"))?;
    let entry = module.function_by_name("main").ok_or("no main function")?;
    tracer.time("core.content_hash", op, parent, || {
        content_hash(&module, &module.function(entry).name)
    });
    let nesting = tracer.time("analysis.nesting", op, parent, || {
        LoopNestingGraph::new(&module)
    });
    let image = tracer.time("ir.exec_lower", op, parent, || ExecImage::lower(&module));
    let (profile, dynamic_instrs) = tracer
        .time("profiler.training", op, parent, || {
            let mut machine = ImageMachine::new(&image);
            machine.set_fuel(FUEL);
            let mut profiler = ImageProfiler::new(&image, &nesting);
            machine
                .call_observed(entry, &[], &mut profiler)
                .map(|_| (profiler.finish(), machine.stats().instrs))
        })
        .map_err(|e| format!("prepare: {e}"))?;
    let output = tracer.time("core.analyze", op, parent, || {
        helix.analyze(&module, &profile)
    });
    // `Helix::prepare`'s plan choice: the hottest selected loop of the entry function,
    // else its hottest candidate.
    let hottest = |keys: &mut dyn Iterator<Item = LoopKey>| {
        keys.filter(|(func, _)| *func == entry)
            .max_by_key(|k| profile.loop_profile(*k).cycles)
    };
    let selected = hottest(&mut output.selection.selected.iter().copied());
    let plan = selected.or_else(|| hottest(&mut output.plans.keys().copied()));
    let transformed = plan.map(|k| {
        tracer.time("core.transform", op, parent, || {
            transform::apply(&module, &output.plans[&k])
        })
    });
    let pimg = transformed.as_ref().map(|t| {
        tracer.time("runtime.image_lower", op, parent, || {
            ParallelImage::lower(t)
        })
    });
    let segments = plan.map_or(&[][..], |k| &output.plans[&k].segments[..]);
    let counts = Counts {
        static_instrs: module.instr_count(),
        transformed_instrs: transformed.as_ref().map_or(0, |t| t.module.instr_count()),
        dynamic_instrs,
        candidate_plans: output.plans.len(),
        selected_loops: output.selection.selected.len(),
        fallback: plan.is_some() && selected.is_none(),
        sync_segments: segments.iter().filter(|s| s.synchronized).count(),
        waits: transformed.as_ref().map_or(0, |t| t.wait_instr_count()),
        signals: transformed.as_ref().map_or(0, |t| t.signal_instr_count()),
    };
    Ok(Compiled {
        hash: transformed_hash(transformed.as_ref()),
        pimg,
        plan,
        plan_selected: selected.is_some(),
        counts: Some(counts),
    })
}

/// The 2-worker executor every workload runs, refusing a host that would clamp it.
pub fn two_workers() -> Result<ParallelExecutor, String> {
    let executor = ParallelExecutor::new(2);
    if executor.effective_workers() < 2 {
        return Err(format!(
            "host shape: a 2-worker measurement would run with {} effective worker(s) ({}); \
             refusing to measure a clamped run",
            executor.effective_workers(),
            executor.clamp_reason()
        ));
    }
    Ok(executor)
}

/// The per-program label line: what a calibration-driven flip would change.
pub fn label(workload: &str, program: &str, compiled: &Compiled) -> String {
    let executor = ParallelExecutor::new(2);
    let plan = compiled
        .plan
        .map_or("none".to_string(), |(f, l)| format!("{f}/{l}"));
    format!(
        "label workload={workload} program={program} plan={plan} plan_selected={} tier={} \
         jit_supported={} effective_workers={} hardware_threads={}",
        compiled.plan_selected,
        executor.resolved_tier(),
        helix_runtime::jit_supported(),
        executor.effective_workers(),
        executor.hardware
    )
}
