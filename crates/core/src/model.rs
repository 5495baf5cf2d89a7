//! The HELIX speedup model (Section 2.2, Equation 1).
//!
//! Amdahl's law extended with parallelization overhead:
//!
//! ```text
//! Speedup(P, N, O) = 1 / (1 - P + P/N + O)
//! ```
//!
//! where `P` is the fraction of sequential execution time spent in the parallel portion of the
//! chosen loops, `N` the core count and `O` the added overhead. Per loop `i`:
//!
//! ```text
//! O_i = Conf_i + Sig_i * S + ceil(Bytes_i / CPU_word) * M
//! Sig_i = C-Sig_i + D-Sig_i + (N - 1) * 2 * Invoc_i
//! ```
//!
//! `C-Sig_i` is the number of control signals (one per iteration), `D-Sig_i` the number of
//! data signals (iterations × synchronized sequential segments), `Invoc_i` the number of loop
//! invocations, `S` the per-signal latency and `M` the per-word transfer latency.

use crate::config::HelixConfig;
use crate::plan::ParallelizedLoop;
use helix_profiler::LoopProfile;

/// Which signal-latency assumption to use when evaluating the model (Section 3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchMode {
    /// No helper threads: every signal pays the full inter-core latency.
    None,
    /// Helper threads execute `Wait`s in the same order as the iteration thread; prefetching
    /// benefit is limited by the code spacing actually available (no balancing).
    Matched,
    /// Full HELIX: helper threads plus the Figure 6 balancing scheduler.
    Helix,
    /// Ideal: every signal is already in the L1 when the iteration thread needs it.
    Ideal,
}

/// Per-loop inputs to the speedup model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopModelInput {
    /// Cycles spent inside the loop during the sequential profiling run (inclusive).
    pub loop_cycles: f64,
    /// Cycles of the whole program.
    pub program_cycles: f64,
    /// Number of invocations of the loop (`Invoc_i`).
    pub invocations: f64,
    /// Total iterations across all invocations.
    pub iterations: f64,
    /// Fraction of an iteration spent in sequential code (prologue + synchronized segments).
    pub sequential_fraction: f64,
    /// Number of synchronized sequential segments per iteration.
    pub segments_per_iteration: f64,
    /// Bytes forwarded between cores per iteration (`Bytes_i`).
    pub bytes_per_iteration: f64,
    /// Average fraction of the signal latency hidden by prefetching (0–1, from Step 8).
    pub prefetched_fraction: f64,
}

impl LoopModelInput {
    /// Builds the model input from a plan and its profile.
    pub fn from_plan(plan: &ParallelizedLoop, profile: &LoopProfile, program_cycles: u64) -> Self {
        let synchronized: Vec<&crate::plan::SequentialSegment> =
            plan.segments.iter().filter(|s| s.synchronized).collect();
        let avg_prefetch = if synchronized.is_empty() {
            0.0
        } else {
            synchronized
                .iter()
                .map(|s| s.prefetched_fraction)
                .sum::<f64>()
                / synchronized.len() as f64
        };
        Self {
            loop_cycles: profile.cycles as f64,
            program_cycles: program_cycles as f64,
            invocations: profile.invocations as f64,
            iterations: profile.iterations as f64,
            sequential_fraction: plan.sequential_fraction(),
            segments_per_iteration: synchronized.len() as f64,
            bytes_per_iteration: plan.bytes_per_iteration,
            prefetched_fraction: avg_prefetch,
        }
    }
}

/// Evaluation of the model for one loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopModelOutput {
    /// `P_i`: fraction of program time in the loop's parallel code.
    pub parallel_fraction: f64,
    /// `O_i`: overhead as a fraction of program time.
    pub overhead_fraction: f64,
    /// Overhead in cycles.
    pub overhead_cycles: f64,
    /// Signals sent per whole-program run for this loop (`Sig_i`).
    pub signals: f64,
    /// Estimated cycles of the loop when parallelized on `N` cores.
    pub parallel_loop_cycles: f64,
    /// Saved time `T` in cycles (sequential − parallel, floored at zero).
    pub saved_cycles: f64,
}

/// The HELIX speedup model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedupModel {
    /// Platform and transformation configuration.
    pub config: HelixConfig,
}

impl SpeedupModel {
    /// Creates a model for the given configuration.
    pub fn new(config: HelixConfig) -> Self {
        Self { config }
    }

    /// Amdahl's law with overhead: `1 / (1 - P + P/N + O)`.
    pub fn speedup(&self, parallel_fraction: f64, cores: usize, overhead_fraction: f64) -> f64 {
        let p = parallel_fraction.clamp(0.0, 1.0);
        let n = cores.max(1) as f64;
        let denom = 1.0 - p + p / n + overhead_fraction.max(0.0);
        if denom <= 0.0 {
            n
        } else {
            1.0 / denom
        }
    }

    /// Effective per-signal latency under a prefetching mode.
    pub fn signal_latency(&self, mode: PrefetchMode, prefetched_fraction: f64) -> f64 {
        let hi = self.config.signal_latency_unprefetched as f64;
        let lo = self.config.signal_latency_prefetched as f64;
        match mode {
            PrefetchMode::None => hi,
            PrefetchMode::Ideal => lo,
            // Matched prefetching follows the iteration thread's own Wait order; it captures
            // most but not all of the benefit the balanced schedule gets (the paper measures a
            // 0.1 geomean gap). We model it as 85% of the scheduled prefetch benefit.
            PrefetchMode::Matched => hi - (hi - lo) * (prefetched_fraction * 0.85).clamp(0.0, 1.0),
            PrefetchMode::Helix => hi - (hi - lo) * prefetched_fraction.clamp(0.0, 1.0),
        }
    }

    /// Evaluates the model for one loop.
    pub fn evaluate_loop(&self, input: &LoopModelInput, mode: PrefetchMode) -> LoopModelOutput {
        let n = self.config.cores.max(1) as f64;
        if input.program_cycles <= 0.0 || input.loop_cycles <= 0.0 {
            return LoopModelOutput::default();
        }
        // Signals: one control signal per iteration, one data signal per synchronized segment
        // per iteration, plus 2*(N-1) start/stop signals per invocation.
        let c_sig = input.iterations;
        let d_sig = input.iterations * input.segments_per_iteration;
        let startup = (n - 1.0) * 2.0 * input.invocations;
        let signals = c_sig + d_sig + startup;
        let s = self.signal_latency(mode, input.prefetched_fraction);
        // Bytes_i in Equation 1 is the total data forwarded inside loop i; word-granular
        // transfers are paid once per transferred word, not once per iteration.
        let total_bytes = input.bytes_per_iteration * input.iterations;
        let words = (total_bytes / self.config.word_bytes as f64).ceil();
        let transfer = words * self.config.word_transfer_latency as f64;
        let conf = self.config.config_overhead as f64 * input.invocations;
        let overhead_cycles = conf + signals * s + transfer;

        // Split the loop's sequential-profile time into sequential and parallel parts.
        let seq_cycles = input.loop_cycles * input.sequential_fraction.clamp(0.0, 1.0);
        let par_cycles = input.loop_cycles - seq_cycles;
        let parallel_fraction = par_cycles / input.program_cycles;
        let overhead_fraction = overhead_cycles / input.program_cycles;

        // Parallel execution time of the loop: the sequential part still runs in iteration
        // order, the parallel part is divided across cores, and overhead is added.
        let parallel_loop_cycles = seq_cycles + par_cycles / n + overhead_cycles;
        let saved_cycles = (input.loop_cycles - parallel_loop_cycles).max(0.0);

        LoopModelOutput {
            parallel_fraction,
            overhead_fraction,
            overhead_cycles,
            signals,
            parallel_loop_cycles,
            saved_cycles,
        }
    }

    /// Whole-program speedup when the given loops are parallelized (their `P_i` and `O_i`
    /// sum, Section 2.2).
    pub fn program_speedup(&self, loops: &[LoopModelOutput]) -> f64 {
        let p: f64 = loops.iter().map(|l| l.parallel_fraction).sum();
        let o: f64 = loops.iter().map(|l| l.overhead_fraction).sum();
        self.speedup(p, self.config.cores, o)
    }
}

impl Default for SpeedupModel {
    fn default() -> Self {
        Self::new(HelixConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(seq_frac: f64, prefetch: f64) -> LoopModelInput {
        LoopModelInput {
            loop_cycles: 9_000_000.0,
            program_cycles: 10_000_000.0,
            invocations: 10.0,
            iterations: 10_000.0,
            sequential_fraction: seq_frac,
            segments_per_iteration: 2.0,
            bytes_per_iteration: 0.5,
            prefetched_fraction: prefetch,
        }
    }

    #[test]
    fn amdahl_limits() {
        let m = SpeedupModel::default();
        assert!((m.speedup(0.0, 6, 0.0) - 1.0).abs() < 1e-12);
        assert!((m.speedup(1.0, 6, 0.0) - 6.0).abs() < 1e-12);
        // Overhead reduces speedup below 1 when it exceeds the parallel benefit.
        assert!(m.speedup(0.1, 6, 0.5) < 1.0);
        // Monotone in P.
        assert!(m.speedup(0.8, 6, 0.01) > m.speedup(0.5, 6, 0.01));
        // Degenerate core count.
        assert!((m.speedup(0.9, 1, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn signal_latency_by_mode() {
        let m = SpeedupModel::default();
        assert_eq!(m.signal_latency(PrefetchMode::None, 1.0), 110.0);
        assert_eq!(m.signal_latency(PrefetchMode::Ideal, 0.0), 4.0);
        let helix = m.signal_latency(PrefetchMode::Helix, 1.0);
        let matched = m.signal_latency(PrefetchMode::Matched, 1.0);
        assert_eq!(helix, 4.0);
        assert!(matched > helix && matched < 110.0);
    }

    #[test]
    fn prefetching_improves_loop_speedup() {
        let m = SpeedupModel::default();
        let none = m.evaluate_loop(&input(0.1, 1.0), PrefetchMode::None);
        let helix = m.evaluate_loop(&input(0.1, 1.0), PrefetchMode::Helix);
        let ideal = m.evaluate_loop(&input(0.1, 1.0), PrefetchMode::Ideal);
        assert!(helix.overhead_cycles < none.overhead_cycles);
        assert!(ideal.overhead_cycles <= helix.overhead_cycles);
        assert!(helix.saved_cycles > none.saved_cycles);
        assert!(m.program_speedup(&[helix]) > m.program_speedup(&[none]));
    }

    #[test]
    fn large_sequential_fraction_kills_the_benefit() {
        let m = SpeedupModel::default();
        let mostly_seq = m.evaluate_loop(&input(0.95, 1.0), PrefetchMode::Helix);
        let mostly_par = m.evaluate_loop(&input(0.05, 1.0), PrefetchMode::Helix);
        assert!(mostly_par.saved_cycles > mostly_seq.saved_cycles);
        assert!(m.program_speedup(&[mostly_par]) > m.program_speedup(&[mostly_seq]));
    }

    #[test]
    fn signals_follow_equation_one() {
        let m = SpeedupModel::default();
        let out = m.evaluate_loop(&input(0.1, 0.0), PrefetchMode::None);
        // C-Sig = 10_000, D-Sig = 20_000, startup = (6-1)*2*10 = 100.
        assert!((out.signals - (10_000.0 + 20_000.0 + 100.0)).abs() < 1e-9);
        assert!(
            out.overhead_cycles > out.signals * 100.0,
            "110-cycle signals dominate the overhead"
        );
    }

    #[test]
    fn degenerate_inputs_produce_zero_output() {
        let m = SpeedupModel::default();
        let zero = m.evaluate_loop(&LoopModelInput::default(), PrefetchMode::Helix);
        assert_eq!(zero, LoopModelOutput::default());
        assert!((m.program_speedup(&[]) - 1.0).abs() < 1e-12);
    }
}
