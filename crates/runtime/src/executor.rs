//! The parallel loop executor.
//!
//! Execution follows the paper's three phases. Phase A runs the transformed function
//! sequentially from its entry to the parallelized loop's header; Phase B dispatches loop
//! iterations across workers; Phase C resumes sequentially from the earliest iteration's
//! exit. All three phases execute *lean* lowered bytecode (see [`crate::parallel_image`]):
//! no fuel, no statistics, no per-op cost charging — this is the production dispatch loop,
//! not the instrumented engine.
//!
//! Phase B's machinery, end to end:
//!
//! * the [`ParallelImage`] is lowered once per program (not per run) and shared immutably by
//!   every worker; iteration code carries pre-resolved signal-lane indices and sentinel
//!   back-edge/exit targets, so workers dispatch straight-line code. Its dispatch tables
//!   and JIT code are built on the first run of each tier kind and reused by every later
//!   run and worker;
//! * workers come from the process-wide persistent [`WorkerPool`] — no OS threads are
//!   spawned per run — and are only *activated* once iteration 0's prologue decides the
//!   loop actually continues: a zero-trip (Phase A/C-only) loop never wakes a single helper
//!   and runs purely sequentially on the calling thread;
//! * iterations are *claimed when ready* from one shared counter: a worker takes iteration
//!   `i` only once iteration `i-1`'s prologue has released the control lane and iteration
//!   `i - window` has fully completed (the completion ring that makes the windowed
//!   [`SignalLanes`] reuse safe). The claiming worker is usually the one that just released
//!   control, so on a loaded machine consecutive iterations run back-to-back on one core
//!   with no handoff, while idle workers sit in the adaptive spin→yield→park backoff;
//! * cross-iteration dependences synchronize through cache-line-padded, windowed
//!   [`SignalLanes`] instead of a dense false-sharing counter array;
//! * allocations proved iteration-private are served from each worker's
//!   [`PrivateArena`]; the words skipped in shared memory are re-reserved after the loop so
//!   every shared address stays bitwise-identical to a sequential run.

use crate::jit::{CachedTier, Compiled, DispatchCache};
use crate::lanes::{PaddedCounter, SignalLanes};
use crate::parallel_image::{
    FlatEnd, FlatError, IterEnd, IterError, IterSync, LocalTier, LoopImage, ParallelImage,
    SharedTier, Tier,
};
use crate::pool::{
    detect_hardware_threads, panic_message, AdaptiveWait, Sleepers, WaitProfile, WorkerPool,
};
use crate::sharded::{PrivateArena, ShardedMemory};
use crate::telemetry::{TelemetryMode, TelemetryReport, TelemetryRun, WorkerCtx, WorkerTail};
use crate::threaded::{run_flat_threaded, run_iteration_threaded, DispatchTier, FlatTables};
use helix_core::TransformedProgram;
use helix_ir::interp::ExecError;
use helix_ir::{DepId, ExecImage, Memory, Value};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default safety cap on the number of loop iterations dispatched.
pub const DEFAULT_MAX_ITERATIONS: u64 = 10_000_000;

/// Default deadlock budget of a blocked `Wait`, in yield-equivalent backoff units.
pub const DEFAULT_SPIN_BUDGET: u64 = 200_000_000;

/// Errors raised by the parallel executor.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// The underlying engine faulted.
    Exec(ExecError),
    /// The executor gave up waiting for a signal (likely a missing `Signal` on some path).
    /// The report pinpoints the blocked `Wait` in the lowered iteration bytecode: its owning
    /// sequential segment and the segment's flat pc range, so shrunk fuzz repros localize
    /// without re-deriving any analysis.
    Deadlock {
        /// The dependence being waited for.
        dep: DepId,
        /// The iteration that was waiting.
        iteration: u64,
        /// Index of the signal lane the dependence maps to.
        lane: usize,
        /// The last lane counter value observed before giving up (the waiter needed it to
        /// reach `iteration`).
        last_observed: u64,
        /// Index (in the plan's segment list) of the sequential segment that owns the
        /// blocked `Wait`.
        segment: usize,
        /// pc of the blocked `Wait` in the iteration bytecode ([`LoopImage::code`]).
        wait_pc: u32,
        /// The owning segment's `[first, last]` pc range in the iteration bytecode.
        segment_pc_range: (u32, u32),
        /// The telemetry tail: each worker's last events (which lane it was waiting on,
        /// the last counter it observed, the last signals it published). Empty when the
        /// run was not traced — enable telemetry on the repro to fill it in.
        tail: Vec<WorkerTail>,
    },
    /// The loop never terminated within the iteration budget.
    IterationBudgetExceeded,
    /// A worker thread panicked during the run. The panic payload is preserved (not
    /// re-raised): the run is cancelled, the pool poisons itself and respawns its helper
    /// cohort on the next submit, and the caller — a CLI invocation or a served daemon
    /// job — decides what the panic means. Long-lived servers keep serving.
    WorkerPanicked {
        /// Which worker the panic escaped from (0 is the submitting thread).
        worker: usize,
        /// The panic payload rendered as text.
        message: String,
        /// The telemetry tail: each worker's last events before the panic. Empty when
        /// the run was not traced.
        tail: Vec<WorkerTail>,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "execution error: {e}"),
            RuntimeError::Deadlock {
                dep,
                iteration,
                lane,
                last_observed,
                segment,
                wait_pc,
                segment_pc_range,
                tail,
            } => {
                write!(
                    f,
                    "deadlock waiting for {dep} in iteration {iteration}: signal lane {lane} \
                     last observed at {last_observed}, needed {iteration} (segment {segment}, \
                     wait at pc {wait_pc}, segment pc range {}..={})",
                    segment_pc_range.0, segment_pc_range.1
                )?;
                if !tail.is_empty() {
                    write!(f, "; last events per worker:")?;
                    for t in tail {
                        write!(f, " {t}")?;
                    }
                }
                Ok(())
            }
            RuntimeError::IterationBudgetExceeded => write!(f, "iteration budget exceeded"),
            RuntimeError::WorkerPanicked {
                worker,
                message,
                tail,
            } => {
                write!(
                    f,
                    "worker {worker} panicked during a parallel run: {message}"
                )?;
                if !tail.is_empty() {
                    write!(f, "; last events per worker:")?;
                    for t in tail {
                        write!(f, " {t}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}

impl From<FlatError> for RuntimeError {
    fn from(e: FlatError) -> Self {
        match e {
            FlatError::Exec(e) => RuntimeError::Exec(e),
            FlatError::BudgetExceeded => RuntimeError::IterationBudgetExceeded,
        }
    }
}

/// Everything one parallel run produced (see [`ParallelExecutor::run_parallel_out`]).
#[derive(Debug)]
pub struct RunOutput {
    /// The function's return value, or how the run failed.
    pub result: Result<Option<Value>, RuntimeError>,
    /// The run's telemetry report (`None` when telemetry is disabled or compiled out).
    pub report: Option<TelemetryReport>,
    /// The run's final memory, captured only when
    /// [`ParallelExecutor::capture_memory`] is set and the run succeeded. The service's
    /// differential check compares this bitwise between cold and warm runs.
    pub memory: Option<Memory>,
}

/// What one run executes: the whole-module bytecode, the loop, and the dispatch tables
/// built from the two.
#[derive(Clone, Copy)]
struct Lowered<'p> {
    image: &'p ExecImage,
    loop_image: &'p LoopImage,
    dispatch: &'p DispatchCache,
}

impl<'p> Lowered<'p> {
    fn of(pimg: &'p ParallelImage) -> Lowered<'p> {
        Lowered {
            image: pimg.exec(),
            loop_image: pimg.loop_image(),
            dispatch: pimg.dispatch(),
        }
    }

    /// The tables of tier kind `T` for `tier`, built on first use.
    fn tables<T: CachedTier>(&self, tier: DispatchTier) -> &'p Compiled<T> {
        self.dispatch.get(tier, self.image, self.loop_image)
    }
}

/// How the parallelized loop ended.
enum LoopExit {
    /// Control left the loop through an exit edge: resume Phase C at `block` with `regs`.
    Edge { block: u32, regs: Vec<Value> },
    /// A `Ret` inside the loop body ended the whole function with this value.
    Returned(Option<Value>),
}

/// The shared state of one Phase B: lanes, ordering counters, exit bookkeeping.
struct RunShared<'a> {
    image: &'a ExecImage,
    loop_image: &'a LoopImage,
    /// Padded signal lanes, one ring row per synchronized dependence.
    lanes: SignalLanes,
    /// The park pad of lane (`Wait`) waiters: signal publication wakes it.
    sleepers: Sleepers,
    /// The park pad of idle claimers and stall-watching helpers: woken on exit/error, on
    /// per-iteration progress only under a dedicated-hardware profile.
    claim_sleepers: Sleepers,
    /// Highest iteration whose prologue predecessor chain is complete (iteration `i` may
    /// start once `control >= i`).
    control: PaddedCounter,
    /// Next unclaimed iteration.
    next_claim: PaddedCounter,
    /// Lowest iteration that took a loop exit (`u64::MAX` while the loop runs).
    exited_at: PaddedCounter,
    /// Completion ring: slot `i % window` holds `i + 1` once iteration `i` fully completed.
    /// Gates claiming of iteration `i + window`, bounding lane-ring reuse.
    done_ring: Box<[PaddedCounter]>,
    /// In-flight window size (power of two, matches the lanes' ring width).
    window: u64,
    /// The exit taken by the *earliest* exiting iteration (sequential semantics pick the
    /// first iteration that leaves the loop, not the first worker to reach an exit).
    exit_state: Mutex<Option<(u64, LoopExit)>>,
    /// The earliest-iteration worker error, if any.
    error: Mutex<Option<(u64, RuntimeError)>>,
    /// Register file at loop entry; every iteration starts from this snapshot.
    snapshot: Vec<Value>,
    /// Words served from private arenas, re-reserved in shared memory after the loop.
    private_words: AtomicU64,
    max_iterations: u64,
    spin_budget: u64,
    /// Solo-mode heartbeat: the primary worker stores its iteration counter here once per
    /// iteration while the claim protocol is unpublished, so stall-watching helpers can tell
    /// progress from a stall without the primary paying any claim atomics.
    progress: PaddedCounter,
    /// Helpers wanting to join while the protocol is unpublished bump this; the primary
    /// checks it once per iteration boundary.
    join_requests: PaddedCounter,
    /// 0 while the primary runs the solo fast path; `u64::MAX` once the claim protocol
    /// (control / next_claim / completion ring) is published and every worker may race.
    published: PaddedCounter,
    /// Fault injection: the worker that claims this iteration panics before running it
    /// (see [`ParallelExecutor::with_injected_panic`]).
    panic_at: Option<u64>,
    /// Backoff shape of this run's wait sites (topology-dependent).
    profile: WaitProfile,
    /// Send wake-ups on per-iteration progress (claim availability)? Worth it only when
    /// waiters spin on dedicated hardware threads; on an oversubscribed machine parked
    /// helpers are left to their timed parks so they stop stealing the active worker's CPU.
    wake_on_progress: bool,
}

impl<'a> RunShared<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        image: &'a ExecImage,
        loop_image: &'a LoopImage,
        snapshot: Vec<Value>,
        threads: usize,
        max_iterations: u64,
        spin_budget: u64,
        panic_at: Option<u64>,
        profile: WaitProfile,
    ) -> Self {
        let window = (threads * 2).next_power_of_two().max(8);
        Self {
            image,
            loop_image,
            lanes: SignalLanes::new(loop_image.num_phys_lanes(), window),
            sleepers: Sleepers::new(),
            claim_sleepers: Sleepers::new(),
            control: PaddedCounter::new(),
            next_claim: PaddedCounter::new(),
            exited_at: PaddedCounter(AtomicU64::new(u64::MAX)),
            done_ring: (0..window).map(|_| PaddedCounter::new()).collect(),
            window: window as u64,
            exit_state: Mutex::new(None),
            error: Mutex::new(None),
            snapshot,
            private_words: AtomicU64::new(0),
            max_iterations,
            spin_budget,
            progress: PaddedCounter::new(),
            join_requests: PaddedCounter::new(),
            // With dedicated hardware the claim protocol is public from the start; on an
            // oversubscribed machine the primary begins in the solo fast path.
            published: PaddedCounter(AtomicU64::new(if profile.wakes_on_progress() {
                u64::MAX
            } else {
                0
            })),
            panic_at,
            profile,
            wake_on_progress: profile.wakes_on_progress(),
        }
    }

    /// Publishes the claim protocol after a solo prefix of `done` iterations: completion
    /// ring for the last window, control and claim frontiers, then the `published` flag
    /// (release order — joiners acquire the flag before touching the rest).
    fn publish_protocol(&self, done: u64) {
        let mask = self.window - 1;
        for k in done.saturating_sub(self.window)..done {
            self.done_ring[(k & mask) as usize]
                .0
                .store(k + 1, Ordering::Release);
        }
        self.control.0.store(done, Ordering::Release);
        self.next_claim.0.store(done, Ordering::Release);
        self.published.0.store(u64::MAX, Ordering::Release);
        self.claim_sleepers.wake_all();
    }

    /// Records `exit` for `iteration`, keeping the lowest-iteration exit seen so far.
    fn record_exit(&self, iteration: u64, exit: LoopExit) {
        self.exited_at.0.fetch_min(iteration, Ordering::AcqRel);
        let mut slot = self.exit_state.lock();
        match &*slot {
            Some((recorded, _)) if *recorded <= iteration => {}
            _ => *slot = Some((iteration, exit)),
        }
        drop(slot);
        self.sleepers.wake_all();
        self.claim_sleepers.wake_all();
    }

    /// Records a worker error, keeping the earliest-iteration one.
    fn record_error(&self, iteration: u64, error: RuntimeError) {
        self.exited_at.0.fetch_min(iteration, Ordering::AcqRel);
        let mut slot = self.error.lock();
        match &*slot {
            Some((recorded, _)) if *recorded <= iteration => {}
            _ => *slot = Some((iteration, error)),
        }
        drop(slot);
        self.sleepers.wake_all();
        self.claim_sleepers.wake_all();
    }

    /// Converts an iteration-runner error into the precise runtime error.
    fn convert_error(&self, iteration: u64, e: IterError) -> RuntimeError {
        convert_iter_error(self.loop_image, iteration, e)
    }
}

/// Converts an iteration-runner error into the precise runtime error, resolving the
/// blocked `Wait`'s *logical* lane through the image's side tables (the runner reports the
/// physical — possibly coalesced — lane row it was polling; `code[pc]` still carries the
/// logical lane of the owning segment).
fn convert_iter_error(loop_image: &LoopImage, iteration: u64, e: IterError) -> RuntimeError {
    match e {
        IterError::Exec(e) => RuntimeError::Exec(e),
        IterError::Deadlock { lane, pc, observed } => {
            // No fallback through the logical table: indexing it with a physical
            // (coalesced) row id would attribute the deadlock to an unrelated segment.
            match loop_image.lane_at(pc) {
                Some(info) => RuntimeError::Deadlock {
                    dep: info.dep,
                    iteration,
                    lane: lane as usize,
                    last_observed: observed,
                    segment: info.segment,
                    wait_pc: pc,
                    segment_pc_range: info.pc_range(),
                    tail: Vec::new(),
                },
                None => RuntimeError::Deadlock {
                    dep: DepId::new(lane),
                    iteration,
                    lane: lane as usize,
                    last_observed: observed,
                    segment: 0,
                    wait_pc: pc,
                    segment_pc_range: (pc, pc),
                    tail: Vec::new(),
                },
            }
        }
    }
}

/// Resets a worker's register file for `iteration` — restore-set registers back to the
/// loop-entry snapshot, privatized induction variables recomputed — and starts a fresh
/// arena. Shared by every Phase B flavour (claimed, solo, single-thread).
fn prepare_iteration<T: Tier>(
    loop_image: &LoopImage,
    snapshot: &[Value],
    regs: &mut [Value],
    iteration: u64,
    tier: &mut T,
) {
    for &r in &loop_image.restore_regs {
        regs[r as usize] = snapshot[r as usize];
    }
    for (reg, step) in &loop_image.induction_vars {
        let r = *reg as usize;
        if r < regs.len() {
            let base = snapshot[r].as_int();
            regs[r] = Value::Int(base + *step * iteration as i64);
        }
    }
    tier.reset_arena();
}

/// One worker's Phase B: claim ready iterations and run them until the loop ends.
/// `on_first_control` fires the first time any iteration of *this worker* releases control
/// (the executor's pool-activation hook; helpers pass a no-op).
///
/// On an oversubscribed machine a `helper` starts in *stall-watch* mode: it parks and only
/// joins the claim race once the claim frontier stops advancing between two parks. A lone
/// hardware thread is best used by letting the active worker run consecutive iterations
/// back-to-back; a helper that eagerly stole the next iteration would turn every iteration
/// boundary into a context switch.
/// Per-iteration telemetry counts (claims, iterations, private-arena words) accumulated
/// in the worker's own registers and flushed to its telemetry slot exactly once, on
/// whichever path the worker leaves its loop — `Drop` covers them all, including the
/// error and deadlock returns. A memory RMW per iteration on the hot claim loop is
/// measurable on short iteration bodies; a bulk add on exit is free.
struct CountFlush<'a> {
    telem: Option<WorkerCtx<'a>>,
    claims: u64,
    iterations: u64,
    arena_words: u64,
}

impl<'a> CountFlush<'a> {
    fn new(telem: Option<WorkerCtx<'a>>) -> CountFlush<'a> {
        CountFlush {
            telem,
            claims: 0,
            iterations: 0,
            arena_words: 0,
        }
    }
}

impl Drop for CountFlush<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.telem {
            t.add_iter_counts(self.claims, self.iterations, self.arena_words);
        }
    }
}

fn phase_b_worker<T: Tier>(
    shared: &RunShared<'_>,
    tier: &mut T,
    helper: bool,
    on_first_control: &mut dyn FnMut(),
    telem: Option<WorkerCtx<'_>>,
    tables: &Compiled<T>,
) {
    let sync = IterSync {
        lanes: &shared.lanes,
        sleepers: &shared.sleepers,
        exited_at: &shared.exited_at.0,
        spin_budget: shared.spin_budget,
        profile: shared.profile,
        #[cfg(feature = "telemetry")]
        telem,
    };
    #[cfg(not(feature = "telemetry"))]
    let _ = telem;
    let mask = shared.window - 1;
    let mut counts = CountFlush::new(telem);
    let mut regs: Vec<Value> = shared.snapshot.clone();
    let mut idle = AdaptiveWait::with_profile(&shared.claim_sleepers, shared.profile);
    let mut watching = helper && !shared.profile.wakes_on_progress();
    let mut watched_frontier = u64::MAX;
    loop {
        let i = shared.next_claim.0.load(Ordering::Acquire);
        let exited = shared.exited_at.0.load(Ordering::Acquire);
        if exited <= i || (exited != u64::MAX && shared.published.0.load(Ordering::Acquire) == 0) {
            // Past the exit — or the loop ended while the primary still ran solo, in which
            // case there is nothing a helper could ever claim.
            return;
        }
        if watching {
            // The progress indicator sums the solo heartbeat and the public claim
            // frontier: monotone, and advancing whenever any worker advances.
            let indicator = i.wrapping_add(shared.progress.0.load(Ordering::Relaxed));
            if indicator == watched_frontier {
                // No progress across a whole park: the active workers are stuck or
                // saturated — join in.
                watching = false;
                if shared.published.0.load(Ordering::Acquire) == 0 {
                    // The primary is still in the solo fast path: request the protocol
                    // and wait for it to be published (or for the loop to end).
                    shared.join_requests.0.fetch_add(1, Ordering::SeqCst);
                    while shared.published.0.load(Ordering::Acquire) == 0 {
                        if shared.exited_at.0.load(Ordering::Acquire) != u64::MAX {
                            return;
                        }
                        shared
                            .claim_sleepers
                            .sleep(std::time::Duration::from_millis(1));
                    }
                }
                continue;
            }
            watched_frontier = indicator;
            shared
                .claim_sleepers
                .sleep(std::time::Duration::from_millis(2));
            continue;
        }
        if i > shared.max_iterations {
            shared.record_error(i, RuntimeError::IterationBudgetExceeded);
            return;
        }
        let ready = shared.control.0.load(Ordering::Acquire) >= i
            && shared.done_ring[(i & mask) as usize]
                .0
                .load(Ordering::Acquire)
                >= (i + 1).saturating_sub(shared.window);
        if !ready {
            idle.wait();
            continue;
        }
        if shared
            .next_claim
            .0
            .compare_exchange(i, i + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        idle.reset();
        counts.claims += 1;
        if let Some(t) = telem {
            t.on_claim(i);
        }
        if shared.panic_at == Some(i) {
            panic!("injected fault: worker panic at iteration {i}");
        }

        prepare_iteration(shared.loop_image, &shared.snapshot, &mut regs, i, tier);

        let mut released = false;
        let mut on_control = |iteration: u64| {
            // A plain release store suffices: each iteration releases control exactly once,
            // and iteration i+1's releaser claimed only after observing iteration i's
            // release, so writes to the counter are totally ordered and monotone.
            shared.control.0.store(iteration + 1, Ordering::Release);
            if shared.wake_on_progress {
                shared.claim_sleepers.wake_all();
            }
            on_first_control();
        };
        let mut control_hook = || {
            if !released {
                released = true;
                on_control(i);
            }
        };
        let iter_start = telem.map(|t| t.on_iter_start(i));
        let outcome = run_iteration_threaded(
            shared.image,
            shared.loop_image,
            &tables.iter,
            &tables.flat,
            i,
            &mut regs,
            tier,
            &sync,
            &mut control_hook,
        );
        counts.iterations += 1;
        if let (Some(t), Some(t0)) = (telem, iter_start) {
            t.on_iter_finish(i, t0);
        }
        match outcome {
            Ok(IterEnd::Completed) => {
                if !released {
                    // The iteration never entered the body (prologue-only path): the back
                    // edge itself proves the next prologue may start.
                    on_control(i);
                }
                // Counting this iteration's private words is exact: exit edges originate
                // only in prologues (Step 1), and control for iteration i+1 is released
                // only after iteration i's prologue decided to continue — so a completed
                // iteration is never speculative work past the loop's end (and `Returned`
                // exits skip the reserve entirely).
                let words = tier.drain_private_words();
                counts.arena_words += words;
                shared.private_words.fetch_add(words, Ordering::Relaxed);
                shared.done_ring[(i & mask) as usize]
                    .0
                    .store(i + 1, Ordering::Release);
                if shared.wake_on_progress {
                    shared.claim_sleepers.wake_all();
                }
            }
            Ok(IterEnd::Exit { block }) => {
                let words = tier.drain_private_words();
                counts.arena_words += words;
                shared.private_words.fetch_add(words, Ordering::Relaxed);
                shared.record_exit(
                    i,
                    LoopExit::Edge {
                        block,
                        regs: regs.clone(),
                    },
                );
                return;
            }
            Ok(IterEnd::Returned(v)) => {
                let words = tier.drain_private_words();
                counts.arena_words += words;
                shared.private_words.fetch_add(words, Ordering::Relaxed);
                shared.record_exit(i, LoopExit::Returned(v));
                return;
            }
            Ok(IterEnd::Cancelled) => {
                // An earlier iteration exited while this one was blocked; its work is moot.
                return;
            }
            Err(e) => {
                let err = shared.convert_error(i, e);
                shared.record_error(i, err);
                return;
            }
        }
    }
}

/// The primary worker's solo fast path: while no helper has joined, iterations run
/// in order with *no* claim/control/completion atomics — just the lane counters (kept so a
/// missing `Signal` still deadlocks detectably and so late joiners inherit a consistent
/// ring) and one relaxed heartbeat store per iteration. Returns `Some(done)` with the
/// number of completed iterations when a helper requested the protocol (the caller
/// publishes happened already and continues in the shared claim loop), `None` when the
/// loop ended solo.
fn phase_b_solo<T: Tier>(
    shared: &RunShared<'_>,
    tier: &mut T,
    on_first_control: &mut dyn FnMut(),
    telem: Option<WorkerCtx<'_>>,
    tables: &Compiled<T>,
) -> Option<u64> {
    let sync = IterSync {
        lanes: &shared.lanes,
        sleepers: &shared.sleepers,
        exited_at: &shared.exited_at.0,
        spin_budget: shared.spin_budget,
        profile: shared.profile,
        #[cfg(feature = "telemetry")]
        telem,
    };
    #[cfg(not(feature = "telemetry"))]
    let _ = telem;
    let mut counts = CountFlush::new(telem);
    let mut regs: Vec<Value> = shared.snapshot.clone();
    let mut iteration = 0u64;
    loop {
        if iteration > shared.max_iterations {
            shared.record_error(iteration, RuntimeError::IterationBudgetExceeded);
            return None;
        }
        if shared.join_requests.0.load(Ordering::Relaxed) != 0 {
            let words = tier.drain_private_words();
            counts.arena_words += words;
            shared.private_words.fetch_add(words, Ordering::Relaxed);
            // Other workers are about to touch memory: re-establish locking before the
            // protocol (and with it this thread's writes) is published to them.
            tier.set_exclusive(false);
            shared.publish_protocol(iteration);
            return Some(iteration);
        }
        if shared.panic_at == Some(iteration) {
            panic!("injected fault: worker panic at iteration {iteration}");
        }
        prepare_iteration(
            shared.loop_image,
            &shared.snapshot,
            &mut regs,
            iteration,
            tier,
        );
        let mut control_hook = || on_first_control();
        counts.claims += 1;
        if let Some(t) = telem {
            t.on_claim(iteration);
        }
        let iter_start = telem.map(|t| t.on_iter_start(iteration));
        let outcome = run_iteration_threaded(
            shared.image,
            shared.loop_image,
            &tables.iter,
            &tables.flat,
            iteration,
            &mut regs,
            tier,
            &sync,
            &mut control_hook,
        );
        counts.iterations += 1;
        if let (Some(t), Some(t0)) = (telem, iter_start) {
            t.on_iter_finish(iteration, t0);
        }
        match outcome {
            Ok(IterEnd::Completed) => {
                shared.progress.0.store(iteration + 1, Ordering::Relaxed);
                iteration += 1;
            }
            Ok(IterEnd::Exit { block }) => {
                let words = tier.drain_private_words();
                counts.arena_words += words;
                shared.private_words.fetch_add(words, Ordering::Relaxed);
                shared.record_exit(
                    iteration,
                    LoopExit::Edge {
                        block,
                        regs: regs.clone(),
                    },
                );
                return None;
            }
            Ok(IterEnd::Returned(v)) => {
                let words = tier.drain_private_words();
                counts.arena_words += words;
                shared.private_words.fetch_add(words, Ordering::Relaxed);
                shared.record_exit(iteration, LoopExit::Returned(v));
                return None;
            }
            Ok(IterEnd::Cancelled) => {
                unreachable!("no other worker runs iterations before the protocol publishes")
            }
            Err(e) => {
                let err = shared.convert_error(iteration, e);
                shared.record_error(iteration, err);
                return None;
            }
        }
    }
}

/// Executes a HELIX-transformed program with real worker threads.
#[derive(Clone, Copy, Debug)]
pub struct ParallelExecutor {
    /// Number of worker threads ("cores"). The calling thread acts as one of them; helpers
    /// come from the persistent [`WorkerPool`].
    pub threads: usize,
    /// Safety cap on the number of loop iterations dispatched.
    pub max_iterations: u64,
    /// Deadlock budget of a blocked `Wait`, in yield-equivalent backoff units.
    pub spin_budget: u64,
    /// Overrides the topology-derived wait profile (tests and the fuzzing oracle force
    /// [`WaitProfile::DEDICATED`] so the full multi-worker claim protocol is exercised
    /// even on machines with fewer hardware threads than workers).
    pub wait_profile: Option<WaitProfile>,
    /// What the run records (see [`TelemetryMode`]); disabled by default. Reports come
    /// back through the `*_traced` entry points.
    pub telemetry: TelemetryMode,
    /// Which dispatch engine runs the bytecode (see [`DispatchTier`]). The default,
    /// [`DispatchTier::Jit`], runs as the threaded tier where the JIT is unsupported.
    pub dispatch_tier: DispatchTier,
    /// Hardware thread count, snapshotted once at construction. Every decision derived
    /// from the machine's topology — worker clamping, the clamp diagnostic, the wait
    /// profile — reads this snapshot, so a cgroup resize mid-run can never make them
    /// disagree with each other.
    pub hardware: usize,
    /// Fault injection for robustness tests: the worker that claims this iteration
    /// panics before running it. The panic surfaces as
    /// [`RuntimeError::WorkerPanicked`], never as a process abort.
    pub panic_at: Option<u64>,
    /// Capture the run's final memory into [`RunOutput::memory`] (the `*_out` entry
    /// points); off by default — snapshotting striped memory copies its live prefix.
    pub capture_memory: bool,
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self {
            threads: 4,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            spin_budget: DEFAULT_SPIN_BUDGET,
            wait_profile: None,
            telemetry: TelemetryMode::Disabled,
            dispatch_tier: DispatchTier::Jit,
            hardware: detect_hardware_threads(),
            panic_at: None,
            capture_memory: false,
        }
    }
}

impl ParallelExecutor {
    /// Creates an executor with `threads` workers and default budgets.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Creates an executor with `threads` workers and the budgets of a
    /// [`helix_core::HelixConfig`].
    pub fn from_config(threads: usize, config: &helix_core::HelixConfig) -> Self {
        Self {
            threads: threads.max(1),
            max_iterations: config.max_loop_iterations.max(1),
            spin_budget: config.spin_budget.max(1),
            telemetry: TelemetryMode::from_sample_period(config.telemetry_sample_period),
            ..Self::default()
        }
    }

    /// Overrides the deadlock spin budget.
    pub fn with_spin_budget(mut self, spins: u64) -> Self {
        self.spin_budget = spins.max(1);
        self
    }

    /// Overrides the loop iteration budget.
    pub fn with_max_iterations(mut self, iterations: u64) -> Self {
        self.max_iterations = iterations.max(1);
        self
    }

    /// Overrides the wait profile (see [`ParallelExecutor::wait_profile`]).
    pub fn with_wait_profile(mut self, profile: WaitProfile) -> Self {
        self.wait_profile = Some(profile);
        self
    }

    /// Sets the telemetry mode of subsequent runs (see [`TelemetryMode`]).
    pub fn with_telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Pins the dispatch engine (see [`DispatchTier`]).
    pub fn with_dispatch_tier(mut self, tier: DispatchTier) -> Self {
        self.dispatch_tier = tier;
        self
    }

    /// Injects a fault: the worker that claims `iteration` panics before running it (see
    /// [`ParallelExecutor::panic_at`]). For robustness tests and the service's
    /// fault-injection smoke requests.
    pub fn with_injected_panic(mut self, iteration: u64) -> Self {
        self.panic_at = Some(iteration);
        self
    }

    /// Captures the run's final memory into [`RunOutput::memory`] (see
    /// [`ParallelExecutor::capture_memory`]).
    pub fn with_capture_memory(mut self, capture: bool) -> Self {
        self.capture_memory = capture;
        self
    }

    /// The tier this executor will actually dispatch with: [`DispatchTier::effective`]
    /// of its [`ParallelExecutor::dispatch_tier`].
    pub fn resolved_tier(&self) -> DispatchTier {
        self.dispatch_tier.effective()
    }

    /// Runs the parallel clone of `program` from its entry with `args`, executing the
    /// parallelized loop's iterations across worker threads, and returns the function's
    /// return value. Lowers the program on every call; callers executing the same program
    /// repeatedly should lower once with [`ParallelImage::lower`] and use
    /// [`ParallelExecutor::run_parallel`], which also reuses the image's dispatch tables.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the engine faults, a signal never arrives, or the loop
    /// exceeds the iteration budget.
    pub fn run(
        &self,
        program: &TransformedProgram,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        let pimg = ParallelImage::lower(program);
        self.run_parallel(&pimg, args)
    }

    /// Same as [`ParallelExecutor::run`] with a pre-lowered whole-module image of
    /// `program.module` (the loop portion is lowered, and its dispatch tables built, on
    /// each call; prefer [`ParallelExecutor::run_parallel`] for fully amortized lowering).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the engine faults, a signal never arrives, or the loop
    /// exceeds the iteration budget.
    pub fn run_image(
        &self,
        image: &ExecImage,
        program: &TransformedProgram,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        let loop_image = LoopImage::build(image, program);
        self.run_lowered(image, &loop_image, args)
    }

    /// Runs a pre-lowered [`ParallelImage`]: the zero-per-run-lowering fast path.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if the engine faults, a signal never arrives, or the loop
    /// exceeds the iteration budget.
    pub fn run_parallel(
        &self,
        pimg: &ParallelImage,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        self.run_lowered_out(Lowered::of(pimg), args).result
    }

    /// The worker count the machine can actually run concurrently. When the caller did not
    /// override the wait profile (i.e. scheduling decisions are topology-derived), workers
    /// beyond the hardware thread count are pure overhead: they cannot execute
    /// concurrently, so every extra worker only adds claim traffic, stall-watch wakeups
    /// and striped-memory locking to the thread that has the CPU. This is the measured-cost
    /// feedback loop applied to the runtime itself — the calibrated cross-thread signal
    /// latency on a fully oversubscribed machine is effectively infinite, and the correct
    /// response is to run the cheap in-order path. Tests and the fuzzing oracle pin a
    /// profile explicitly and keep the full multi-worker protocol regardless.
    ///
    /// Public so callers (the parallel-runtime bench, diagnostics) can see which requested
    /// thread counts collapse to the same effective configuration on this machine.
    pub fn effective_workers(&self) -> usize {
        if self.wait_profile.is_some() {
            return self.threads;
        }
        self.threads.min(self.hardware.max(1))
    }

    /// Why [`ParallelExecutor::effective_workers`] is what it is, as a one-line
    /// diagnostic: whether the wait-profile pin kept the requested count, the topology
    /// fit, or the count was clamped to the hardware. Reported by the bench alongside
    /// `effective_workers` so a collapsed measurement explains itself.
    pub fn clamp_reason(&self) -> String {
        // The same snapshot `effective_workers` clamps with: the diagnostic can never
        // describe a different machine than the clamp acted on.
        let hardware = self.hardware;
        if self.wait_profile.is_some() {
            format!(
                "pinned wait profile keeps {} worker(s) on {} hardware thread(s)",
                self.threads, hardware
            )
        } else if self.threads <= hardware {
            format!(
                "{} worker(s) fit {} hardware thread(s)",
                self.threads, hardware
            )
        } else {
            format!(
                "clamped {} -> {}: only {} hardware thread(s) available",
                self.threads,
                self.effective_workers(),
                hardware
            )
        }
    }

    /// [`ParallelExecutor::run`] returning the run's [`TelemetryReport`] alongside the
    /// result (`None` when telemetry is disabled or compiled out).
    pub fn run_traced(
        &self,
        program: &TransformedProgram,
        args: &[Value],
    ) -> (Result<Option<Value>, RuntimeError>, Option<TelemetryReport>) {
        let pimg = ParallelImage::lower(program);
        self.run_parallel_traced(&pimg, args)
    }

    /// [`ParallelExecutor::run_parallel`] returning the run's [`TelemetryReport`]
    /// alongside the result (`None` when telemetry is disabled or compiled out).
    pub fn run_parallel_traced(
        &self,
        pimg: &ParallelImage,
        args: &[Value],
    ) -> (Result<Option<Value>, RuntimeError>, Option<TelemetryReport>) {
        let out = self.run_lowered_out(Lowered::of(pimg), args);
        (out.result, out.report)
    }

    /// [`ParallelExecutor::run_parallel`] with the full output: result, telemetry
    /// report, and — when [`ParallelExecutor::capture_memory`] is set — the run's final
    /// memory.
    pub fn run_parallel_out(&self, pimg: &ParallelImage, args: &[Value]) -> RunOutput {
        self.run_lowered_out(Lowered::of(pimg), args)
    }

    /// Runs a loop image outside any [`ParallelImage`]: its dispatch tables are built for
    /// this one run and dropped with it.
    pub(crate) fn run_lowered(
        &self,
        image: &ExecImage,
        loop_image: &LoopImage,
        args: &[Value],
    ) -> Result<Option<Value>, RuntimeError> {
        let dispatch = DispatchCache::default();
        let lowered = Lowered {
            image,
            loop_image,
            dispatch: &dispatch,
        };
        self.run_lowered_out(lowered, args).result
    }

    fn run_lowered_out(&self, lowered: Lowered<'_>, args: &[Value]) -> RunOutput {
        let workers = self.effective_workers();
        let telem = TelemetryRun::for_run(self.telemetry, lowered.loop_image, workers);
        // The whole run is a panic boundary: any panic that reaches the submitting
        // thread — a Phase A/C fault, the single-worker path, or a primary-worker panic
        // — becomes a recoverable `WorkerPanicked` instead of unwinding the caller.
        // (The pooled path additionally catches panics per worker, so helpers drain
        // promptly and the pool poisons itself; see `run_pooled_on`.)
        let run = catch_unwind(AssertUnwindSafe(|| {
            if workers == 1 {
                self.run_single(lowered, args, telem.as_ref())
            } else {
                self.run_pooled(lowered, args, telem.as_ref())
            }
        }));
        let (mut result, memory) = match run {
            Ok(Ok((value, memory))) => (Ok(value), memory),
            Ok(Err(e)) => (Err(e), None),
            Err(payload) => (
                Err(RuntimeError::WorkerPanicked {
                    worker: 0,
                    message: panic_message(payload.as_ref()),
                    tail: Vec::new(),
                }),
                None,
            ),
        };
        let report = telem.map(TelemetryRun::report);
        match (&mut result, &report) {
            // Satellite diagnosis: a traced failure carries every worker's last events.
            (Err(RuntimeError::Deadlock { tail, .. }), Some(rep))
            | (Err(RuntimeError::WorkerPanicked { tail, .. }), Some(rep)) => {
                *tail = rep.deadlock_tail(8);
            }
            _ => {}
        }
        RunOutput {
            result,
            report,
            memory,
        }
    }

    /// Seeds the entry register file for Phase A.
    fn entry_regs(image: &ExecImage, loop_image: &LoopImage, args: &[Value]) -> Vec<Value> {
        let fi = image.func(loop_image.func);
        let mut regs = vec![Value::default(); fi.num_regs.max(args.len())];
        for (slot, a) in regs.iter_mut().zip(args.iter()).take(fi.num_params) {
            *slot = *a;
        }
        regs
    }

    /// Single-worker execution: the whole run happens on the calling thread against plain
    /// (unstriped) memory — no locks, no atomic contention, no pool. Lane counters are still
    /// honoured so a missing `Signal` deadlocks (and is reported) exactly as with more
    /// threads.
    fn run_single(
        &self,
        lowered: Lowered<'_>,
        args: &[Value],
        telem_run: Option<&TelemetryRun>,
    ) -> Result<(Option<Value>, Option<Memory>), RuntimeError> {
        let Lowered {
            image, loop_image, ..
        } = lowered;
        let fi = image.func(loop_image.func);
        let tables = lowered.tables::<LocalTier>(self.dispatch_tier);
        let mut tier = LocalTier {
            memory: image.initial_memory.fresh_copy(),
            arena: PrivateArena::new(),
        };
        let mut regs = Self::entry_regs(image, loop_image, args);
        let phase_a = run_flat_threaded(
            image,
            &tables.flat,
            loop_image.func,
            fi.entry_block,
            Some(loop_image.header),
            &mut regs,
            &mut tier,
            self.max_iterations,
        )?;
        match phase_a {
            // The loop was never reached.
            FlatEnd::Returned(v) => {
                let memory = self.capture_memory.then_some(tier.memory);
                return Ok((v, memory));
            }
            FlatEnd::ReachedStop => {}
        }

        // Phase B, single worker: iterations run in order on the calling thread with no
        // claim counters, no completion ring and no parks. Lane counters are still
        // maintained so a missing `Signal` is detected — instantly, because with no other
        // worker an unsatisfied `Wait` can never become satisfied.
        let lanes = SignalLanes::new(loop_image.num_phys_lanes(), 1);
        let sleepers = Sleepers::new();
        let exited_at = AtomicU64::new(u64::MAX);
        let telem = telem_run.map(|r| r.ctx(0));
        let sync = IterSync {
            lanes: &lanes,
            sleepers: &sleepers,
            exited_at: &exited_at,
            spin_budget: 0,
            profile: WaitProfile::DEDICATED,
            #[cfg(feature = "telemetry")]
            telem,
        };
        #[cfg(not(feature = "telemetry"))]
        let _ = telem;
        let snapshot = regs;
        let mut counts = CountFlush::new(telem);
        let mut iter_regs = snapshot.clone();
        let mut iteration = 0u64;
        let exit = loop {
            if iteration > self.max_iterations {
                return Err(RuntimeError::IterationBudgetExceeded);
            }
            if self.panic_at == Some(iteration) {
                // Caught by `run_lowered_out`'s panic boundary on this same thread.
                panic!("injected fault: worker panic at iteration {iteration}");
            }
            prepare_iteration(loop_image, &snapshot, &mut iter_regs, iteration, &mut tier);
            // A single worker "claims" every iteration in order, so traced runs keep the
            // claims-are-a-permutation invariant at one thread too.
            counts.claims += 1;
            if let Some(t) = telem {
                t.on_claim(iteration);
            }
            let iter_start = telem.map(|t| t.on_iter_start(iteration));
            let outcome = run_iteration_threaded(
                image,
                loop_image,
                &tables.iter,
                &tables.flat,
                iteration,
                &mut iter_regs,
                &mut tier,
                &sync,
                &mut || {},
            );
            counts.iterations += 1;
            if let (Some(t), Some(t0)) = (telem, iter_start) {
                t.on_iter_finish(iteration, t0);
            }
            match outcome {
                Ok(IterEnd::Completed) => iteration += 1,
                Ok(IterEnd::Exit { block }) => {
                    break LoopExit::Edge {
                        block,
                        regs: iter_regs,
                    }
                }
                Ok(IterEnd::Returned(v)) => break LoopExit::Returned(v),
                Ok(IterEnd::Cancelled) => {
                    unreachable!("a single worker never observes a foreign exit")
                }
                Err(e) => {
                    return Err(convert_iter_error(loop_image, iteration, e));
                }
            }
        };
        let (block, mut regs) = match exit {
            LoopExit::Edge { block, regs } => (block, regs),
            LoopExit::Returned(v) => {
                let memory = self.capture_memory.then_some(tier.memory);
                return Ok((v, memory));
            }
        };
        let skipped = tier.drain_private_words();
        counts.arena_words += skipped;
        drop(counts);
        if skipped > 0 {
            tier.memory
                .alloc(skipped as usize)
                .map_err(ExecError::from)?;
        }
        let phase_c = run_flat_threaded(
            image,
            &tables.flat,
            loop_image.func,
            block,
            None,
            &mut regs,
            &mut tier,
            self.max_iterations,
        )?;
        match phase_c {
            FlatEnd::Returned(v) => {
                let memory = self.capture_memory.then_some(tier.memory);
                Ok((v, memory))
            }
            FlatEnd::ReachedStop => unreachable!("phase C has no stop block"),
        }
    }

    /// Multi-worker execution over striped shared memory, with helpers activated lazily
    /// from the persistent pool. The worker count is clamped to the hardware thread count
    /// (see [`ParallelExecutor::effective_workers`]); callers that pinned a wait profile
    /// keep their exact count.
    fn run_pooled(
        &self,
        lowered: Lowered<'_>,
        args: &[Value],
        telem: Option<&TelemetryRun>,
    ) -> Result<(Option<Value>, Option<Memory>), RuntimeError> {
        let clamped = ParallelExecutor {
            threads: self.effective_workers(),
            ..*self
        };
        clamped.run_pooled_on(WorkerPool::global(), lowered, args, telem)
    }

    /// [`ParallelExecutor::run_pooled`] against an explicit pool (tests use a private pool
    /// to observe activation behaviour). `telem`, when present, must hold at least
    /// `self.threads` worker slots.
    fn run_pooled_on(
        &self,
        pool: &WorkerPool,
        lowered: Lowered<'_>,
        args: &[Value],
        telem: Option<&TelemetryRun>,
    ) -> Result<(Option<Value>, Option<Memory>), RuntimeError> {
        let Lowered {
            image, loop_image, ..
        } = lowered;
        let fi = image.func(loop_image.func);
        let tables = lowered.tables::<SharedTier>(self.dispatch_tier);
        let memory = Arc::new(ShardedMemory::from_memory(&image.initial_memory));
        let mut tier = SharedTier {
            shared: Arc::clone(&memory),
            arena: PrivateArena::new(),
            // Phase A (and a solo Phase B prefix) run before any helper can touch memory.
            exclusive: true,
        };
        let mut regs = Self::entry_regs(image, loop_image, args);
        let phase_a = run_flat_threaded(
            image,
            &tables.flat,
            loop_image.func,
            fi.entry_block,
            Some(loop_image.header),
            &mut regs,
            &mut tier,
            self.max_iterations,
        )?;
        match phase_a {
            // The loop was never reached.
            FlatEnd::Returned(v) => {
                let captured = self
                    .capture_memory
                    .then(|| memory.snapshot(&image.initial_memory));
                return Ok((v, captured));
            }
            FlatEnd::ReachedStop => {}
        }

        let profile = self
            .wait_profile
            .unwrap_or_else(|| WaitProfile::for_threads_on(self.threads, self.hardware));
        let shared = RunShared::new(
            image,
            loop_image,
            regs,
            self.threads,
            self.max_iterations,
            self.spin_budget,
            self.panic_at,
            profile,
        );
        let helpers = self.threads - 1;
        let job = |worker: usize| {
            // Helper panic boundary: record the cancellation *before* re-raising into
            // the pool's own catch, so every other worker drains promptly (iteration 0
            // wins the earliest-error race and zeroes `exited_at`) instead of spinning
            // out its full deadlock budget on control that will never be released.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut tier = SharedTier {
                    shared: Arc::clone(&memory),
                    arena: PrivateArena::new(),
                    exclusive: false,
                };
                // Helpers run with pool indices 1..=helpers; slot 0 is the calling thread.
                phase_b_worker(
                    &shared,
                    &mut tier,
                    true,
                    &mut || {},
                    telem.map(|r| r.ctx(worker)),
                    tables,
                );
            }));
            if let Err(payload) = run {
                shared.record_error(
                    0,
                    RuntimeError::WorkerPanicked {
                        worker,
                        message: panic_message(payload.as_ref()),
                        tail: Vec::new(),
                    },
                );
                // Re-raise into the pool's catch: the pool poisons itself and respawns
                // its helper cohort on the next submit.
                resume_unwind(payload);
            }
        };
        {
            // The calling thread is worker 0; helpers are activated the first time worker
            // 0 releases control — a loop that exits from iteration 0's prologue never
            // wakes them (the zero-iteration short-circuit).
            let mut ticket = None;
            let mut activate = || {
                if ticket.is_none() && helpers > 0 {
                    ticket = Some(pool.submit(helpers, &job));
                }
            };
            // On an oversubscribed machine the primary starts in the solo fast path and
            // switches to the shared claim loop only if a helper asks to join.
            let primary_telem = telem.map(|r| r.ctx(0));
            // Primary panic boundary: a panic on the submitting thread mid-Phase-B must
            // record the cancellation before the ticket join below, or the helpers would
            // wait forever on control the primary can no longer release.
            let primary = catch_unwind(AssertUnwindSafe(|| {
                let solo_ended = if shared.published.0.load(Ordering::Acquire) == 0 {
                    phase_b_solo(&shared, &mut tier, &mut activate, primary_telem, tables).is_none()
                } else {
                    false
                };
                if !solo_ended {
                    // The claim protocol is public: helpers may be racing on shared memory.
                    tier.set_exclusive(false);
                    phase_b_worker(
                        &shared,
                        &mut tier,
                        false,
                        &mut activate,
                        primary_telem,
                        tables,
                    );
                }
            }));
            if let Err(payload) = primary {
                shared.record_error(
                    0,
                    RuntimeError::WorkerPanicked {
                        worker: 0,
                        message: panic_message(payload.as_ref()),
                        tail: Vec::new(),
                    },
                );
            }
            if let Some(t) = ticket {
                if let Err(p) = t.wait() {
                    // The helper's own boundary already recorded the structured error
                    // before re-raising; this fallback covers a panic that somehow
                    // escaped outside it (record_error keeps the earliest, so a
                    // duplicate is a no-op).
                    shared.record_error(
                        0,
                        RuntimeError::WorkerPanicked {
                            worker: p.worker,
                            message: p.message,
                            tail: Vec::new(),
                        },
                    );
                }
            }
            // Every helper has left the job (the ticket join is the barrier): this thread
            // owns memory again for Phase C.
            tier.set_exclusive(true);
        }
        let value = self.finish(shared, &mut tier, &tables.flat, |tier, words| {
            tier.shared.reserve(words).map_err(ExecError::from)
        })?;
        let captured = self
            .capture_memory
            .then(|| memory.snapshot(&image.initial_memory));
        Ok((value, captured))
    }

    /// Shared Phase B epilogue + Phase C: surface errors, re-reserve privately served
    /// words, resume from the earliest exit.
    fn finish<T: Tier>(
        &self,
        shared: RunShared<'_>,
        tier: &mut T,
        flat_tables: &FlatTables<T>,
        reserve: impl FnOnce(&mut T, usize) -> Result<(), ExecError>,
    ) -> Result<Option<Value>, RuntimeError> {
        let image = shared.image;
        let loop_image = shared.loop_image;
        // Sequential semantics pick whichever loop end comes first in *iteration* order: a
        // fault in a speculative iteration past an already-recorded exit is work sequential
        // execution never performs and must not mask the legitimate result. An error at or
        // before the earliest exit is real (sequential execution reaches it first).
        let error = shared.error.into_inner();
        let exit = shared.exit_state.into_inner();
        if let Some((err_iter, err)) = error {
            let exit_iter = exit.as_ref().map_or(u64::MAX, |(i, _)| *i);
            if err_iter <= exit_iter {
                return Err(err);
            }
        }
        let (block, mut regs) = match exit {
            Some((_, LoopExit::Edge { block, regs })) => (block, regs),
            Some((_, LoopExit::Returned(v))) => return Ok(v),
            None => return Err(RuntimeError::IterationBudgetExceeded),
        };
        // Re-reserve the privately served allocations so Phase C's shared addresses match
        // a sequential run of the loop.
        let skipped = shared.private_words.load(Ordering::Relaxed);
        if skipped > 0 {
            reserve(tier, skipped as usize)?;
        }
        let phase_c = run_flat_threaded(
            image,
            flat_tables,
            loop_image.func,
            block,
            None,
            &mut regs,
            tier,
            self.max_iterations,
        )?;
        match phase_c {
            FlatEnd::Returned(v) => Ok(v),
            FlatEnd::ReachedStop => unreachable!("phase C has no stop block"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::LoopNestingGraph;
    use helix_core::{transform, Helix, HelixConfig};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, FuncId, ImageMachine, Machine, Operand};
    use helix_profiler::profile_program_image;

    /// Builds a module whose main contains one parallelizable accumulator loop over an array,
    /// analyzes it, transforms the hottest plan and returns everything needed to execute it.
    fn build_accumulator(n: i64) -> (helix_ir::Module, FuncId, TransformedProgram) {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let arr = mb.add_global("arr", 1 + n as usize);
        let mut fb = FunctionBuilder::new("main", 0);
        // Fill the array with i*5 + 1.
        let init = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
        let a = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(init.induction_var),
        );
        let v = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(init.induction_var),
            Operand::int(5),
        );
        let v1 = fb.binary_to_new(BinOp::Add, Operand::Var(v), Operand::int(1));
        fb.store(Operand::Var(a), 0, Operand::Var(v1));
        fb.br(init.latch);
        fb.switch_to(init.exit);
        // Accumulate with extra per-iteration work.
        let lh = fb.counted_loop(Operand::int(0), Operand::int(n), 1);
        let addr = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(lh.induction_var),
        );
        let elt = fb.new_var();
        fb.load(elt, Operand::Var(addr), 0);
        let mixed = fb.binary_to_new(BinOp::Mul, Operand::Var(elt), Operand::int(3));
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(mixed));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
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
        // Transform the accumulator loop (the one with a data-transferring segment).
        let plan = output
            .plans
            .values()
            .find(|p| {
                p.segments
                    .iter()
                    .any(|s| s.transfers_data && s.synchronized)
            })
            .expect("accumulator plan")
            .clone();
        let transformed = transform::apply(&module, &plan);
        (module, main, transformed)
    }

    #[test]
    fn parallel_result_matches_sequential_result() {
        let (module, main, transformed) = build_accumulator(64);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        for threads in [1, 2, 4, 6] {
            let executor = ParallelExecutor::new(threads);
            let got = executor
                .run(&transformed, &[])
                .unwrap_or_else(|e| panic!("{threads} threads failed: {e}"))
                .unwrap()
                .as_int();
            assert_eq!(got, expected, "mismatch with {threads} threads");
        }
    }

    /// Transforms the hottest main-level loop of `module`, profiled with `profile_args`.
    fn transform_hottest(
        module: &helix_ir::Module,
        main: FuncId,
        profile_args: &[Value],
    ) -> TransformedProgram {
        let nesting = LoopNestingGraph::new(module);
        let profile = profile_program_image(module, &nesting, main, profile_args).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(module, &profile);
        let plan = output
            .plans
            .values()
            .filter(|p| p.func == main)
            .max_by_key(|p| profile.loop_profile((p.func, p.loop_id)).cycles)
            .expect("main-level plan");
        transform::apply(module, plan)
    }

    /// A loop whose body calls `helper(i, n)`, which stores `i * 7` to `scratch[i]` plus
    /// `(i / n) << 27` words: out of bounds from iteration `n` on, so with `n` below the
    /// trip count of 24 the callee faults mid-loop.
    fn build_faulting_callee() -> (helix_ir::Module, FuncId) {
        let mut mb = ModuleBuilder::new("callee_fault");
        let acc = mb.add_global("acc", 1);
        let scratch = mb.add_global("scratch", 32);
        let mut hb = FunctionBuilder::new("helper", 2);
        let (i, n) = (hb.param(0), hb.param(1));
        let page = hb.binary_to_new(BinOp::Div, Operand::Var(i), Operand::Var(n));
        let far = hb.binary_to_new(BinOp::Shl, Operand::Var(page), Operand::int(27));
        let slot = hb.binary_to_new(BinOp::Add, Operand::Global(scratch), Operand::Var(i));
        let addr = hb.binary_to_new(BinOp::Add, Operand::Var(slot), Operand::Var(far));
        let v = hb.binary_to_new(BinOp::Mul, Operand::Var(i), Operand::int(7));
        hb.store(Operand::Var(addr), 0, Operand::Var(v));
        hb.ret(Some(Operand::Var(v)));
        let helper = mb.add_function(hb.finish());
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(24), 1);
        let r = fb.new_var();
        fb.call(
            Some(r),
            helper,
            vec![Operand::Var(lh.induction_var), Operand::Var(n)],
        );
        let cur = fb.load_to_new(Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(r));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let out = fb.load_to_new(Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        (mb.finish(), main)
    }

    #[test]
    fn dispatch_tiers_agree_at_every_thread_count() {
        // Both tiers must be observationally identical to the sequential `ImageMachine`:
        // same result or same error, at every worker count, under the pinned DEDICATED
        // profile that keeps the full claim protocol alive. (On targets without JIT
        // support the `Jit` leg runs as threaded — still a valid leg.)
        let (_module, _main, transformed) = build_accumulator(96);
        let mut cases = vec![("accumulator", transformed, vec![], vec![1, 2, 4, 6])];
        // Loop bodies whose callee runs on the flat tables: one that returns, one whose
        // callee faults at iteration 20 (profiled with a bound that never faults).
        let (module, main) = helix_workloads::corpus::load("nested_helper").expect("corpus");
        let transformed = transform_hottest(&module, main, &[]);
        cases.push(("nested_helper", transformed, vec![], vec![1, 2, 4]));
        let (module, main) = build_faulting_callee();
        let transformed = transform_hottest(&module, main, &[Value::Int(32)]);
        cases.push((
            "callee_fault",
            transformed,
            vec![Value::Int(20)],
            vec![1, 2, 4],
        ));
        for (name, transformed, args, thread_counts) in cases {
            let image = ExecImage::lower(&transformed.module);
            let expected = ImageMachine::new(&image)
                .call(transformed.parallel_func, &args)
                .map_err(RuntimeError::Exec);
            assert_eq!(
                expected.is_err(),
                name == "callee_fault",
                "{name}: {expected:?}"
            );
            let pimg = ParallelImage::lower(&transformed);
            let calls = pimg
                .loop_image()
                .pcode
                .iter()
                .any(|p| matches!(p, crate::parallel_image::POp::CallB(_)));
            assert_eq!(calls, name != "accumulator", "{name}: loop-body calls");
            for threads in thread_counts {
                for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
                    let executor = ParallelExecutor::new(threads)
                        .with_wait_profile(WaitProfile::DEDICATED)
                        .with_dispatch_tier(tier);
                    let got = executor.run_parallel(&pimg, &args);
                    assert_eq!(got, expected, "{name}: {threads} threads, {tier} tier");
                }
            }
        }
    }

    #[test]
    fn default_tier_resolves_by_the_static_rule() {
        // Read-side of the env lock: `jit_supported()` must not flip between the calls.
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let executor = ParallelExecutor::new(2);
        assert_eq!(executor.dispatch_tier, DispatchTier::Jit);
        let expected = if crate::jit::jit_supported() {
            DispatchTier::Jit
        } else {
            DispatchTier::Threaded
        };
        assert_eq!(executor.resolved_tier(), expected);
        // The threaded pin always runs as itself.
        let pinned = executor.with_dispatch_tier(DispatchTier::Threaded);
        assert_eq!(pinned.resolved_tier(), DispatchTier::Threaded);
    }

    #[test]
    fn repeated_runs_are_deterministic_despite_threading() {
        let (_module, _main, transformed) = build_accumulator(48);
        let executor = ParallelExecutor::new(4);
        let pimg = ParallelImage::lower(&transformed);
        let first = executor.run_parallel(&pimg, &[]).unwrap().unwrap().as_int();
        for _ in 0..5 {
            let again = executor.run_parallel(&pimg, &[]).unwrap().unwrap().as_int();
            assert_eq!(again, first, "pool reuse must stay deterministic");
        }
        // The legacy pre-lowered-module entry point agrees.
        let image = ExecImage::lower(&transformed.module);
        let legacy = executor
            .run_image(&image, &transformed, &[])
            .unwrap()
            .unwrap()
            .as_int();
        assert_eq!(legacy, first);
    }

    #[test]
    fn executor_handles_zero_trip_loops() {
        let (_module, _main, transformed) = build_accumulator(64);
        // Check that a single-thread executor also works, which exercises the same exit path
        // on the first prologue evaluation for iteration == n.
        let executor = ParallelExecutor::new(1);
        assert!(executor.run(&transformed, &[]).unwrap().is_some());
    }

    #[test]
    fn budgets_are_configurable() {
        let config = HelixConfig::i7_980x()
            .with_spin_budget(1234)
            .with_max_loop_iterations(99);
        let executor = ParallelExecutor::from_config(3, &config);
        assert_eq!(executor.threads, 3);
        assert_eq!(executor.spin_budget, 1234);
        assert_eq!(executor.max_iterations, 99);
        let tuned = ParallelExecutor::new(2)
            .with_spin_budget(5)
            .with_max_iterations(7);
        assert_eq!(tuned.spin_budget, 5);
        assert_eq!(tuned.max_iterations, 7);
    }

    #[test]
    fn tiny_iteration_budget_aborts_the_run() {
        let (_module, _main, transformed) = build_accumulator(64);
        let executor = ParallelExecutor::new(2).with_max_iterations(3);
        match executor.run(&transformed, &[]) {
            Err(RuntimeError::IterationBudgetExceeded) => {}
            other => panic!("expected IterationBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_reports_segment_and_pc_range() {
        // Build a transformed program whose plan demands a synchronized segment, then corrupt
        // the clone by deleting every Signal instruction: iteration 1's Wait can never be
        // satisfied and must produce a precise deadlock report localized to its segment.
        let (_module, _main, mut transformed) = build_accumulator(32);
        let func = transformed.parallel_func;
        let f = transformed.module.function_mut(func);
        for block in &mut f.blocks {
            block
                .instrs
                .retain(|i| !matches!(i, helix_ir::Instr::Signal { .. }));
        }
        let executor = ParallelExecutor::new(2).with_spin_budget(50_000);
        match executor.run(&transformed, &[]) {
            Err(RuntimeError::Deadlock {
                dep,
                iteration,
                lane,
                last_observed,
                segment,
                wait_pc,
                segment_pc_range,
                tail,
            }) => {
                assert!(iteration >= 1, "iteration 0 never waits");
                assert!(last_observed < iteration);
                assert!(segment < transformed.plan.segments.len());
                assert_eq!(transformed.plan.segments[segment].dep, dep);
                assert!(
                    segment_pc_range.0 <= wait_pc && wait_pc <= segment_pc_range.1.max(wait_pc)
                );
                assert!(tail.is_empty(), "untraced runs carry no telemetry tail");
                let msg = RuntimeError::Deadlock {
                    dep,
                    iteration,
                    lane,
                    last_observed,
                    segment,
                    wait_pc,
                    segment_pc_range,
                    tail,
                }
                .to_string();
                assert!(msg.contains("segment"), "diagnostic lacks segment: {msg}");
                assert!(msg.contains("pc"), "diagnostic lacks pc info: {msg}");
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn traced_deadlocks_carry_the_event_tail() {
        // Same corrupted program as above, but run with telemetry: the deadlock report
        // must carry each worker's last events, including the blocked wait itself.
        let (_module, _main, mut transformed) = build_accumulator(32);
        let func = transformed.parallel_func;
        let f = transformed.module.function_mut(func);
        for block in &mut f.blocks {
            block
                .instrs
                .retain(|i| !matches!(i, helix_ir::Instr::Signal { .. }));
        }
        let executor = ParallelExecutor::new(2)
            .with_spin_budget(50_000)
            .with_telemetry(TelemetryMode::Full);
        let (result, report) = executor.run_traced(&transformed, &[]);
        assert!(report.is_some(), "traced runs produce a report");
        match result {
            Err(RuntimeError::Deadlock { tail, .. }) => {
                assert!(!tail.is_empty(), "traced deadlock must carry worker tails");
                let has_wait = tail.iter().any(|t| {
                    t.events
                        .iter()
                        .any(|e| matches!(e.kind, crate::telemetry::EventKind::WaitBegin))
                });
                assert!(
                    has_wait,
                    "some worker tail shows the blocked wait: {tail:?}"
                );
                let msg = RuntimeError::Deadlock {
                    dep: DepId::new(0),
                    iteration: 1,
                    lane: 0,
                    last_observed: 0,
                    segment: 0,
                    wait_pc: 0,
                    segment_pc_range: (0, 0),
                    tail,
                }
                .to_string();
                assert!(
                    msg.contains("last events per worker"),
                    "tail missing from diagnostic: {msg}"
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    /// Builds a program whose loop trip count is the function's parameter, so the same
    /// transformed program can be profiled with iterations and then run with zero.
    fn build_param_trip() -> TransformedProgram {
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::int(3));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        let out = fb.new_var();
        fb.load(out, Operand::Global(acc), 0);
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[Value::Int(16)]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let plan = output.plans.values().next().expect("loop plan").clone();
        transform::apply(&module, &plan)
    }

    #[test]
    fn injected_panic_surfaces_as_structured_error_and_next_run_succeeds() {
        // The prerequisite bugfix of the service work: a worker panic during a parallel
        // run must come back as `RuntimeError::WorkerPanicked` (payload preserved, no
        // process abort), and the *next* run on the same executor — same process-wide
        // pool — must succeed on a transparently respawned helper cohort. The DEDICATED
        // pin keeps the full multi-worker claim protocol alive on a 1-CPU host.
        let (_module, _main, transformed) = build_accumulator(64);
        let pimg = ParallelImage::lower(&transformed);
        let expected = ParallelExecutor::new(1)
            .run_parallel(&pimg, &[])
            .unwrap()
            .unwrap()
            .as_int();
        for threads in [1, 2, 4] {
            // Fault injection fires at claim time, ahead of dispatch, so every tier —
            // including JIT-patched tables, where the panic unwinds across only
            // interpreter frames, never native ones — must surface and recover alike.
            for tier in [DispatchTier::Threaded, DispatchTier::Jit] {
                let executor = ParallelExecutor::new(threads)
                    .with_wait_profile(WaitProfile::DEDICATED)
                    .with_dispatch_tier(tier);
                let faulty = executor.with_injected_panic(7);
                match faulty.run_parallel(&pimg, &[]) {
                    Err(RuntimeError::WorkerPanicked {
                        worker, message, ..
                    }) => {
                        assert!(worker < threads, "worker index in range ({worker})");
                        assert!(
                            message.contains("injected fault"),
                            "payload preserved: {message}"
                        );
                    }
                    other => panic!("{threads}t/{tier}: expected WorkerPanicked, got {other:?}"),
                }
                // Recovery: the same executor (minus the fault) runs to completion.
                let got = executor
                    .run_parallel(&pimg, &[])
                    .unwrap_or_else(|e| panic!("{threads}t/{tier} post-panic run failed: {e}"))
                    .unwrap()
                    .as_int();
                assert_eq!(got, expected, "{threads}t/{tier} post-panic result");
            }
        }
    }

    #[test]
    fn jit_tier_degrades_to_threaded_when_disabled() {
        // `HELIX_DISABLE_JIT=1` must turn the `Jit` tier into plain threaded execution —
        // correct results, no panic. The env flag is read on every `jit_supported()`
        // call, so flipping it mid-process works.
        let (module, main, transformed) = build_accumulator(48);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        let pimg = ParallelImage::lower(&transformed);
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::env::set_var("HELIX_DISABLE_JIT", "1");
        assert!(!crate::jit::jit_supported());
        let executor = ParallelExecutor::new(2)
            .with_wait_profile(WaitProfile::DEDICATED)
            .with_dispatch_tier(DispatchTier::Jit);
        assert_eq!(executor.resolved_tier(), DispatchTier::Threaded);
        let got = executor
            .run_parallel(&pimg, &[])
            .unwrap_or_else(|e| panic!("JIT disabled: {e}"))
            .unwrap()
            .as_int();
        assert_eq!(got, expected, "JIT disabled");
        std::env::remove_var("HELIX_DISABLE_JIT");
    }

    /// Runs `pimg` on `threads` workers of `tier` from four OS threads at once, five runs
    /// each, checking every result.
    fn run_from_four_threads(
        pimg: &ParallelImage,
        threads: usize,
        tier: DispatchTier,
        expected: i64,
    ) {
        let executor = ParallelExecutor::new(threads)
            .with_wait_profile(WaitProfile::DEDICATED)
            .with_dispatch_tier(tier);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        let got = executor.run_parallel(pimg, &[]).unwrap().unwrap();
                        assert_eq!(got.as_int(), expected, "{threads} worker(s) on {tier}");
                    }
                });
            }
        });
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn one_image_shares_its_jit_tables_across_threads_runs_and_workers() {
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(crate::jit::jit_supported());
        let (module, main, transformed) = build_accumulator(48);
        let expected = Machine::new(&module)
            .call(main, &[])
            .unwrap()
            .unwrap()
            .as_int();
        let pimg = ParallelImage::lower(&transformed);
        assert_eq!(pimg.table_builds(), 0, "tables are built lazily");
        // One worker: the local tier kind's tables, built once for 20 concurrent runs.
        run_from_four_threads(&pimg, 1, DispatchTier::Jit, expected);
        assert_eq!(pimg.table_builds(), 1);
        let chunks = pimg.jit_chunks();
        assert!(chunks > 0, "the accumulator has compilable data runs");
        // Two workers: the pool's tier kind adds exactly one build, shared by every
        // helper of every run.
        run_from_four_threads(&pimg, 2, DispatchTier::Jit, expected);
        assert_eq!(pimg.table_builds(), 2);
        run_from_four_threads(&pimg, 1, DispatchTier::Jit, expected);
        run_from_four_threads(&pimg, 2, DispatchTier::Jit, expected);
        assert_eq!(pimg.table_builds(), 2, "repeated runs build nothing");
        assert_eq!(pimg.jit_chunks(), 2 * chunks);
        // The threaded tier gets its own slots.
        run_from_four_threads(&pimg, 2, DispatchTier::Threaded, expected);
        assert_eq!(pimg.table_builds(), 3);
        assert_eq!(
            pimg.jit_chunks(),
            2 * chunks,
            "threaded tables compile nothing"
        );
        // A clone starts with no tables of its own.
        assert_eq!(pimg.clone().table_builds(), 0);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn disabling_the_jit_picks_the_threaded_slot() {
        let (_module, _main, transformed) = build_accumulator(48);
        let pimg = ParallelImage::lower(&transformed);
        let executor = ParallelExecutor::new(2)
            .with_wait_profile(WaitProfile::DEDICATED)
            .with_dispatch_tier(DispatchTier::Jit);
        let _env = crate::jit::TEST_ENV_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let native = executor.run_parallel(&pimg, &[]).unwrap();
        let chunks = pimg.jit_chunks();
        assert!(chunks > 0);
        std::env::set_var("HELIX_DISABLE_JIT", "1");
        let threaded = executor.run_parallel(&pimg, &[]).unwrap();
        std::env::remove_var("HELIX_DISABLE_JIT");
        assert_eq!(threaded, native);
        assert_eq!(pimg.table_builds(), 2, "the threaded slot was built");
        assert_eq!(pimg.jit_chunks(), chunks, "and compiled nothing");
        executor.run_parallel(&pimg, &[]).unwrap();
        assert_eq!(pimg.table_builds(), 2, "the JIT slot is still cached");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn dropping_the_image_unmaps_its_native_code() {
        let (_module, _main, transformed) = build_accumulator(48);
        let pimg = ParallelImage::lower(&transformed);
        {
            let _env = crate::jit::TEST_ENV_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for threads in [1, 2] {
                ParallelExecutor::new(threads)
                    .with_wait_profile(WaitProfile::DEDICATED)
                    .with_dispatch_tier(DispatchTier::Jit)
                    .run_parallel(&pimg, &[])
                    .unwrap();
            }
        }
        let regions = pimg.dispatch().regions();
        assert!(!regions.is_empty());
        for &region in &regions {
            let perms = crate::jit::perms_of(region).expect("code is mapped");
            assert!(perms.starts_with("r-x"), "sealed code: {perms}");
        }
        drop(pimg);
        for region in regions {
            assert_ne!(crate::jit::perms_of(region).as_deref(), Some("r-xp"));
        }
    }

    #[test]
    fn captured_memory_is_deterministic_across_runs() {
        let (_module, _main, transformed) = build_accumulator(48);
        let pimg = ParallelImage::lower(&transformed);
        let executor = ParallelExecutor::new(2)
            .with_wait_profile(WaitProfile::DEDICATED)
            .with_capture_memory(true);
        let first = executor.run_parallel_out(&pimg, &[]);
        let second = executor.run_parallel_out(&pimg, &[]);
        let a = first.memory.expect("captured");
        let b = second.memory.expect("captured");
        assert_eq!(first.result.unwrap(), second.result.unwrap());
        assert_eq!(a.heap_base(), b.heap_base());
        assert_eq!(a.heap_used(), b.heap_used());
        assert_eq!(
            a.words(),
            b.words(),
            "memory diverged between identical runs"
        );
        // Capture off → no snapshot.
        let off = ParallelExecutor::new(2).run_parallel_out(&pimg, &[]);
        assert!(off.memory.is_none());
    }

    #[test]
    fn hardware_snapshot_drives_clamp_and_its_diagnostic() {
        // The clamp and its explanation must read the same snapshot: override it and
        // both move together, regardless of what the machine reports right now.
        let mut executor = ParallelExecutor::new(8);
        executor.hardware = 2;
        assert_eq!(executor.effective_workers(), 2);
        assert!(
            executor.clamp_reason().contains("2 hardware thread(s)"),
            "diagnostic uses the snapshot: {}",
            executor.clamp_reason()
        );
        executor.hardware = 16;
        assert_eq!(executor.effective_workers(), 8);
        assert!(
            executor
                .clamp_reason()
                .contains("fit 16 hardware thread(s)"),
            "diagnostic uses the snapshot: {}",
            executor.clamp_reason()
        );
    }

    #[test]
    fn zero_trip_loops_never_wake_the_pool() {
        let transformed = build_param_trip();
        let pimg = ParallelImage::lower(&transformed);
        let executor = ParallelExecutor::new(4);
        let pool = WorkerPool::new();
        // Zero iterations: Phase A runs into the header, iteration 0's prologue exits
        // immediately, and no helper must ever be spawned or woken.
        let got = executor
            .run_pooled_on(&pool, Lowered::of(&pimg), &[Value::Int(0)], None)
            .unwrap()
            .0
            .unwrap()
            .as_int();
        assert_eq!(got, 0);
        assert_eq!(
            pool.spawned_helpers(),
            0,
            "a zero-iteration loop must short-circuit to sequential execution"
        );
        // With iterations to dispatch the same pool does get activated.
        let got = executor
            .run_pooled_on(&pool, Lowered::of(&pimg), &[Value::Int(12)], None)
            .unwrap()
            .0
            .unwrap()
            .as_int();
        assert_eq!(got, 36);
        assert_eq!(pool.spawned_helpers(), 3);
    }

    #[test]
    fn privatized_scratch_allocations_run_in_the_arena() {
        // A loop allocating a private scratch buffer per iteration: privatization must
        // apply, the parallel results must match sequential execution at every thread
        // count, and shared heap bookkeeping must stay bitwise-identical (checked through
        // the returned pointer-derived value).
        let mut mb = ModuleBuilder::new("m");
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("main", 0);
        let lh = fb.counted_loop(Operand::int(0), Operand::int(40), 1);
        let p = fb.new_var();
        fb.alloc(p, Operand::int(3));
        fb.store(Operand::Var(p), 0, Operand::Var(lh.induction_var));
        let sq = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(lh.induction_var),
            Operand::Var(lh.induction_var),
        );
        fb.store(Operand::Var(p), 1, Operand::Var(sq));
        let a = fb.new_var();
        fb.load(a, Operand::Var(p), 0);
        let b = fb.new_var();
        fb.load(b, Operand::Var(p), 1);
        let sum = fb.binary_to_new(BinOp::Add, Operand::Var(a), Operand::Var(b));
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(sum));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        // After the loop, allocate shared memory and fold its address into the result:
        // catches any divergence in the shared bump pointer caused by privatization.
        let q = fb.new_var();
        fb.alloc(q, Operand::int(2));
        let r = fb.new_var();
        fb.load(r, Operand::Global(acc), 0);
        let out = fb.binary_to_new(BinOp::Add, Operand::Var(r), Operand::Var(q));
        fb.ret(Some(Operand::Var(out)));
        let main = mb.add_function(fb.finish());
        let module = mb.finish();

        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let plan = output
            .plans
            .values()
            .find(|p| !p.private_allocs.is_empty())
            .expect("the scratch allocation must be privatized")
            .clone();
        let transformed = transform::apply(&module, &plan);
        assert!(!transformed.private_allocs.is_empty());
        let pimg = ParallelImage::lower(&transformed);
        assert!(pimg.loop_image().private_words_per_iter >= 3);

        // The parity target is a sequential run of the *clone* (the transform itself adds a
        // frame global, shifting the original module's heap base by design): privatization
        // must leave every shared address the clone can observe — including the post-loop
        // allocation folded into the result — bitwise-identical.
        let mut machine = Machine::new(&transformed.module);
        let expected = machine
            .call(transformed.parallel_func, &[])
            .unwrap()
            .unwrap()
            .as_int();
        let mut original = Machine::new(&module);
        let base = original.call(main, &[]).unwrap().unwrap().as_int();
        assert_eq!(
            expected - base,
            1,
            "clone differs only by the frame global's word"
        );
        for threads in [1, 2, 4] {
            let got = ParallelExecutor::new(threads)
                .run_parallel(&pimg, &[])
                .unwrap_or_else(|e| panic!("{threads} threads failed: {e}"))
                .unwrap()
                .as_int();
            assert_eq!(got, expected, "mismatch with {threads} threads");
        }
    }

    #[test]
    fn spec_benchmark_runs_in_parallel_with_matching_checksum() {
        // End-to-end: take a SPEC stand-in, pick its hottest selected loop, transform it and
        // execute with real threads; the program checksum must match sequential execution.
        let bench = helix_workloads::all_benchmarks()[0]; // gzip stand-in
        let (module, main) = bench.build();
        let nesting = LoopNestingGraph::new(&module);
        let profile = profile_program_image(&module, &nesting, main, &[]).unwrap();
        let output = Helix::new(HelixConfig::i7_980x()).analyze(&module, &profile);
        let Some(plan) = output.selected_plans().into_iter().max_by(|a, b| {
            let ka = profile.loop_profile((a.func, a.loop_id)).cycles;
            let kb = profile.loop_profile((b.func, b.loop_id)).cycles;
            ka.cmp(&kb)
        }) else {
            // Nothing selected for this benchmark under the default config: nothing to check.
            return;
        };
        // Only main-level loops are executable by the single-invocation executor.
        if plan.func != main {
            return;
        }
        let transformed = transform::apply(&module, plan);
        let mut machine = Machine::new(&module);
        let expected = machine.call(main, &[]).unwrap().unwrap().as_int();
        let got = ParallelExecutor::new(4)
            .run(&transformed, &[])
            .expect("parallel execution succeeds")
            .unwrap()
            .as_int();
        assert_eq!(got, expected);
    }
}
