//! Steps 5 and 6: minimizing sequential segments and minimizing signals.
//!
//! *Step 5* keeps sequential segments small: instructions inside a segment's span that do not
//! depend (directly or transitively, through registers) on the dependence endpoints are moved
//! out of the segment — they can run as parallel code. The paper implements this with method
//! inlining plus code scheduling; here the effect is applied to the segment's instruction set
//! and cycle estimate, which is what the timing model and the run-time executor consume.
//!
//! *Step 6* removes redundant synchronization:
//! * a `Wait` is redundant if every control path leading to it already contains another `Wait`
//!   of the same dependence (forward *must* availability);
//! * segments whose instruction ranges touch (no parallel code between them) are merged;
//! * the *data dependence redundancy graph* is built — an edge `d_j → d_i` means `Wait(d_j)`
//!   is available at every `Wait(d_i)` — and, per Theorem 1, only the dependences with no
//!   incoming edges plus one representative per cycle keep their own synchronization; each
//!   covered dependence is folded into a synchronized coverer, whose `Wait`/`Signal` points
//!   are recomputed so its segment spans the covered endpoints too.

use crate::plan::SequentialSegment;
use helix_analysis::{Cfg, LoopForest, LoopId};
use helix_ir::{Function, InstrRef, VarId};
use std::collections::BTreeSet;

/// Outcome summary of the Step 5 + Step 6 optimization pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Static `Wait` operations removed as redundant.
    pub waits_removed: usize,
    /// Segments merged into another segment.
    pub segments_merged: usize,
    /// Segments whose own synchronization Theorem 1 dropped (their dependences are folded
    /// into a synchronized coverer).
    pub dependences_covered: usize,
    /// Instructions moved out of segments by Step 5.
    pub instrs_moved_out: usize,
}

/// Step 5: shrink each segment to the instructions that actually depend on its endpoints.
pub fn minimize_segments(
    function: &Function,
    segments: &mut [SequentialSegment],
    cost: &helix_ir::CostModel,
) -> OptimizeStats {
    let mut stats = OptimizeStats::default();
    for seg in segments.iter_mut() {
        if seg.instrs.len() <= seg.wait_points.len() {
            continue;
        }
        let endpoints: BTreeSet<InstrRef> = seg
            .dependences
            .iter()
            .flat_map(|d| [d.src, d.dst])
            .collect();
        let ordered: Vec<InstrRef> = seg.instrs.iter().copied().collect();

        // An instruction must stay inside the segment only if it lies on a def-use chain from
        // an endpoint's result to an endpoint's input: everything else can be scheduled before
        // the `Wait` or after the `Signal` (the paper moves it after the segment). Calls are
        // pinned conservatively because they may touch the dependence's memory.
        //
        // Forward slice: values derived from the endpoints' results.
        let mut derived: BTreeSet<VarId> = endpoints
            .iter()
            .filter_map(|r| function.instr(*r).dst())
            .collect();
        let mut forward: BTreeSet<InstrRef> = BTreeSet::new();
        for r in &ordered {
            if endpoints.contains(r) {
                continue;
            }
            let instr = function.instr(*r);
            if instr.uses().iter().any(|u| derived.contains(u)) {
                forward.insert(*r);
                if let Some(d) = instr.dst() {
                    derived.insert(d);
                }
            }
        }
        // Backward slice: values the endpoints consume.
        let mut needed: BTreeSet<VarId> = endpoints
            .iter()
            .flat_map(|r| function.instr(*r).uses())
            .collect();
        let mut backward: BTreeSet<InstrRef> = BTreeSet::new();
        for r in ordered.iter().rev() {
            if endpoints.contains(r) {
                continue;
            }
            let instr = function.instr(*r);
            if instr.dst().map(|d| needed.contains(&d)).unwrap_or(false) {
                backward.insert(*r);
                needed.extend(instr.uses());
            }
        }
        let mut keep: BTreeSet<InstrRef> = endpoints.clone();
        for r in &ordered {
            let pinned = function.instr(*r).is_call();
            if pinned || (forward.contains(r) && backward.contains(r)) {
                keep.insert(*r);
            }
        }
        let moved = seg.instrs.len() - keep.len();
        if moved > 0 {
            stats.instrs_moved_out += moved;
            seg.instrs = keep;
            seg.cycles_per_iteration = seg
                .instrs
                .iter()
                .map(|r| cost.cost(function.instr(*r)))
                .sum::<u64>() as f64;
        }
    }
    stats
}

/// Step 6: remove redundant `Wait`s, merge adjacent segments, and apply Theorem 1.
pub fn minimize_signals(
    function: &Function,
    cfg: &Cfg,
    forest: &LoopForest,
    loop_id: LoopId,
    segments: &mut Vec<SequentialSegment>,
) -> OptimizeStats {
    minimize_signals_with(function, cfg, forest, loop_id, segments, false)
}

/// [`minimize_signals`] with the test-only fault switch exposed.
///
/// `unsound_union_merge` re-enables the pre-fix behaviour where merged segments union their
/// Wait/Signal points instead of recomputing them over the merged endpoints (see
/// [`helix_core::config::HelixConfig::unsound_union_merged_sync_points`](crate::HelixConfig)).
/// The fuzzing oracle uses it to prove that an injected soundness fault is detected and
/// shrunk to a minimal reproduction; production callers must pass `false`.
pub fn minimize_signals_with(
    function: &Function,
    cfg: &Cfg,
    forest: &LoopForest,
    loop_id: LoopId,
    segments: &mut Vec<SequentialSegment>,
    unsound_union_merge: bool,
) -> OptimizeStats {
    let mut stats = OptimizeStats::default();
    let natural = forest.get(loop_id);
    let in_loop = |b: helix_ir::BlockId| natural.contains(b);

    // --- Segment merging ---------------------------------------------------------------
    // Segments percolated next to each other (overlapping or adjacent instruction ranges in
    // the same block) are merged so a single Wait/Signal pair covers both. A merged segment's
    // Wait/Signal points are *recomputed* over the union of its dependence endpoints: taking
    // the union of the original points would keep a signal that fires before another merged
    // dependence's endpoint, releasing the successor iteration while this iteration is still
    // writing the carried value (observed as rare nondeterministic divergence on the
    // pointer-chasing workloads).
    let mut merged_away: BTreeSet<usize> = BTreeSet::new();
    let mut recompute: BTreeSet<usize> = BTreeSet::new();
    for i in 0..segments.len() {
        if merged_away.contains(&i) {
            continue;
        }
        for j in (i + 1)..segments.len() {
            if merged_away.contains(&j) {
                continue;
            }
            if ranges_touch(&segments[i].instrs, &segments[j].instrs) {
                let (left, right) = segments.split_at_mut(j);
                let a = &mut left[i];
                let b = &right[0];
                a.dependences.extend(b.dependences.iter().cloned());
                a.instrs.extend(b.instrs.iter().copied());
                a.cycles_per_iteration = a
                    .instrs
                    .iter()
                    .map(|r| helix_ir::CostModel::default().cost(function.instr(*r)))
                    .sum::<u64>() as f64;
                a.transfers_data |= b.transfers_data;
                if unsound_union_merge {
                    // Injected fault: keep the union of the original points. The earlier
                    // segment's signal can now fire before the later segment's endpoint.
                    let mut waits = b.wait_points.clone();
                    waits.retain(|w| !a.wait_points.contains(w));
                    a.wait_points.extend(waits);
                    let mut signals = b.signal_points.clone();
                    signals.retain(|s| !a.signal_points.contains(s));
                    a.signal_points.extend(signals);
                } else {
                    recompute.insert(i);
                }
                merged_away.insert(j);
                stats.segments_merged += 1;
            }
        }
    }
    for &i in &recompute {
        let endpoints: BTreeSet<InstrRef> = segments[i]
            .dependences
            .iter()
            .flat_map(|d| [d.src, d.dst])
            .collect();
        let (waits, signals) = crate::segments::sync_points(function, cfg, natural, &endpoints);
        segments[i].wait_points = waits;
        segments[i].signal_points = signals;
    }
    let mut idx = 0;
    segments.retain(|_| {
        let keep = !merged_away.contains(&idx);
        idx += 1;
        keep
    });

    // --- Redundant Wait elimination ---------------------------------------------------
    for seg in segments.iter_mut() {
        stats.waits_removed += drop_redundant_waits(seg, cfg, natural);
    }

    // --- Theorem 1 on the dependence redundancy graph -----------------------------------
    // Edge j -> i when Wait(d_j) is available at every Wait(d_i): approximated at block level
    // by "every wait block of i is also a wait block of j, or is reachable only through a wait
    // block of j". We use the containment test, which is exact for waits placed at the same
    // endpoints after merging.
    let n = segments.len();
    let wait_blocks: Vec<BTreeSet<helix_ir::BlockId>> = segments
        .iter()
        .map(|s| s.wait_points.iter().map(|w| w.block).collect())
        .collect();
    let mut incoming: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut outgoing: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for j in 0..n {
        for i in 0..n {
            if i == j || wait_blocks[i].is_empty() || wait_blocks[j].is_empty() {
                continue;
            }
            let covers = wait_blocks[i].iter().all(|wb| {
                wait_blocks[j].contains(wb)
                    || wait_blocks[j]
                        .iter()
                        .all(|jb| cfg.reaches_within(*jb, *wb, &in_loop, Some(natural.header)))
                        && !wait_blocks[j].is_empty()
            });
            if covers {
                incoming[i].insert(j);
                outgoing[j].insert(i);
            }
        }
    }
    // N_to_synch = nodes without incoming edges, plus one node per cycle. Cycles here are
    // mutual-coverage groups; pick the lowest index of each strongly connected component.
    let mut to_synch: BTreeSet<usize> = (0..n).filter(|i| incoming[*i].is_empty()).collect();
    let mut assigned: BTreeSet<usize> = to_synch.clone();
    for i in 0..n {
        if assigned.contains(&i) {
            continue;
        }
        // Find the mutual group of i (nodes that cover i and are covered by i).
        let group: BTreeSet<usize> = incoming[i]
            .intersection(&outgoing[i])
            .copied()
            .chain(std::iter::once(i))
            .collect();
        // If i is covered by some node already synchronized (directly or transitively), it
        // needs no representative of its own.
        let covered_by_synchronized = incoming[i].iter().any(|j| to_synch.contains(j));
        if !covered_by_synchronized {
            let representative = *group.iter().min().expect("group contains i");
            to_synch.insert(representative);
        }
        assigned.extend(group);
    }
    // Dropping Wait(d_i) is only sound if d_i's endpoints also run inside the covering
    // segment: the availability test above says nothing about where Signal(d_j) fires
    // (it may fire before d_i's endpoints, or on a path that never waited), so a covered
    // segment's dependences are folded into a synchronized coverer and the coverer's
    // points are recomputed over the union of endpoints, exactly as merging does.
    let mut folded: Vec<Vec<usize>> = vec![Vec::new(); n];
    let uncovered: Vec<usize> = (0..n).filter(|i| !to_synch.contains(i)).collect();
    for i in uncovered {
        // Walk coverers backwards to the nearest synchronized one (a member of a mutual
        // group whose representative is synchronized is covered by that representative).
        let mut seen: BTreeSet<usize> = BTreeSet::from([i]);
        let mut frontier: Vec<usize> = vec![i];
        let mut coverer = None;
        while coverer.is_none() && !frontier.is_empty() {
            let mut next = Vec::new();
            for k in frontier {
                for &j in &incoming[k] {
                    if to_synch.contains(&j) {
                        coverer = coverer.or(Some(j));
                    } else if seen.insert(j) {
                        next.push(j);
                    }
                }
            }
            frontier = next;
        }
        match coverer {
            Some(j) => folded[j].push(i),
            None => {
                to_synch.insert(i);
            }
        }
    }
    for (j, covered) in folded.iter().enumerate().filter(|(_, c)| !c.is_empty()) {
        let deps: Vec<_> = covered
            .iter()
            .flat_map(|&i| segments[i].dependences.clone())
            .collect();
        let instrs: Vec<InstrRef> = covered
            .iter()
            .flat_map(|&i| segments[i].instrs.iter().copied())
            .collect();
        let transfers_data = covered.iter().any(|&i| segments[i].transfers_data);
        let seg = &mut segments[j];
        seg.transfers_data |= transfers_data;
        seg.dependences.extend(deps);
        seg.instrs.extend(instrs);
        let endpoints: BTreeSet<InstrRef> = seg
            .dependences
            .iter()
            .flat_map(|d| [d.src, d.dst])
            .collect();
        let (waits, signals) = crate::segments::sync_points(function, cfg, natural, &endpoints);
        seg.wait_points = waits;
        seg.signal_points = signals;
        drop_redundant_waits(seg, cfg, natural);
    }
    for (i, seg) in segments.iter_mut().enumerate() {
        if !to_synch.contains(&i) {
            seg.synchronized = false;
            stats.dependences_covered += 1;
        }
    }
    stats
}

/// Removes the redundant waits of `seg` and returns how many. A wait point w is redundant
/// if another wait point of the segment dominates it along every intra-iteration path.
/// Block-level approximation: a wait in block B at index i is redundant if an earlier wait
/// of the same segment exists in B, or if every loop predecessor path into B must already
/// have passed a block containing a wait of the segment.
fn drop_redundant_waits(
    seg: &mut SequentialSegment,
    cfg: &Cfg,
    natural: &helix_analysis::NaturalLoop,
) -> usize {
    let in_loop = |b: helix_ir::BlockId| natural.contains(b);
    let mut removed = 0;
    let mut keep: Vec<InstrRef> = Vec::new();
    let wait_blocks: BTreeSet<helix_ir::BlockId> =
        seg.wait_points.iter().map(|w| w.block).collect();
    let mut sorted = seg.wait_points.clone();
    sorted.sort();
    for w in &sorted {
        let earlier_in_block = keep.iter().any(|k| k.block == w.block && k.index < w.index);
        // Predecessor coverage is an intra-iteration argument; every in-loop edge into the
        // header is a back edge (the *previous* iteration's wait), so a wait in the header
        // can never be covered by its predecessors.
        let covered_by_all_preds = w.block != natural.header
            && !cfg.preds(w.block).is_empty()
            && cfg
                .preds(w.block)
                .iter()
                .filter(|p| in_loop(**p) && **p != natural.header)
                .all(|p| wait_blocks.contains(p))
            && cfg
                .preds(w.block)
                .iter()
                .any(|p| in_loop(*p) && *p != natural.header);
        if earlier_in_block || covered_by_all_preds {
            removed += 1;
        } else {
            keep.push(*w);
        }
    }
    seg.wait_points = keep;
    removed
}

/// Privatization follow-up to Step 6: de-synchronizes segments whose every dependence runs
/// entirely between accesses the privatization analysis proved iteration-private. Such a
/// dependence cannot cross iterations once the storage is per-worker, so its `Wait`/`Signal`
/// pair is pure overhead. Returns the number of segments released.
pub fn release_privatized_segments(
    segments: &mut [SequentialSegment],
    info: &crate::privatize::PrivatizationInfo,
) -> usize {
    if !info.applies() {
        return 0;
    }
    let private =
        |r: &InstrRef| info.private_accesses.contains(r) || info.private_allocs.contains(r);
    let mut released = 0;
    for seg in segments.iter_mut() {
        if !seg.synchronized || seg.dependences.is_empty() {
            continue;
        }
        if seg
            .dependences
            .iter()
            .all(|d| d.via_memory && private(&d.src) && private(&d.dst))
        {
            seg.synchronized = false;
            released += 1;
        }
    }
    released
}

fn ranges_touch(a: &BTreeSet<InstrRef>, b: &BTreeSet<InstrRef>) -> bool {
    // Overlap, or adjacency within the same block (no instruction between the two ranges).
    if a.intersection(b).next().is_some() {
        return true;
    }
    for x in a {
        for y in b {
            if x.block == y.block && x.index.abs_diff(y.index) == 1 {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::NormalizedLoop;
    use crate::segments::build_segments;
    use helix_analysis::{DomTree, InductionInfo, LoopDdg, PointerAnalysis};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, CostModel, FuncId, Module, Operand};

    struct Setup {
        module: Module,
        func: FuncId,
        loop_id: LoopId,
        cfg: Cfg,
        forest: LoopForest,
    }

    fn setup(build: impl FnOnce(&mut ModuleBuilder) -> helix_ir::Function) -> Setup {
        let mut mb = ModuleBuilder::new("m");
        let function = build(&mut mb);
        let func = mb.add_function(function);
        let module = mb.finish();
        let cfg = Cfg::new(module.function(func));
        let dom = DomTree::new(module.function(func), &cfg);
        let forest = LoopForest::new(module.function(func), &cfg, &dom);
        let loop_id = forest.top_level()[0];
        Setup {
            module,
            func,
            loop_id,
            cfg,
            forest,
        }
    }

    fn initial_segments(s: &Setup) -> Vec<SequentialSegment> {
        let function = s.module.function(s.func);
        let pointers = PointerAnalysis::new(&s.module);
        let ddg = LoopDdg::compute(&s.module, s.func, &s.cfg, &s.forest, s.loop_id, &pointers);
        let induction = InductionInfo::compute(function, &s.cfg, &s.forest, s.loop_id);
        let norm = NormalizedLoop::compute(function, &s.cfg, &s.forest, s.loop_id);
        build_segments(
            function,
            &s.cfg,
            &s.forest,
            s.loop_id,
            &norm,
            &ddg,
            &induction,
            &CostModel::default(),
        )
    }

    /// Two independent global accumulators plus a chunk of independent parallel work in the
    /// middle of the loop body.
    fn two_accumulators(mb: &mut ModuleBuilder) -> helix_ir::Function {
        let acc1 = mb.add_global("acc1", 1);
        let acc2 = mb.add_global("acc2", 1);
        let arr = mb.add_global("arr", 128);
        let mut fb = FunctionBuilder::new("f", 1);
        let n = fb.param(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
        // Accumulator 1, with independent parallel work interleaved between its load and its
        // store (arr[i] = i*i feeds neither accumulator) so Step 5 has something to move.
        let c1 = fb.new_var();
        fb.load(c1, Operand::Global(acc1), 0);
        let addr = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(lh.induction_var),
        );
        let sq = fb.binary_to_new(
            BinOp::Mul,
            Operand::Var(lh.induction_var),
            Operand::Var(lh.induction_var),
        );
        fb.store(Operand::Var(addr), 0, Operand::Var(sq));
        let n1 = fb.binary_to_new(BinOp::Add, Operand::Var(c1), Operand::Var(lh.induction_var));
        fb.store(Operand::Global(acc1), 0, Operand::Var(n1));
        // Accumulator 2.
        let c2 = fb.new_var();
        fb.load(c2, Operand::Global(acc2), 0);
        let n2 = fb.binary_to_new(BinOp::Mul, Operand::Var(c2), Operand::int(3));
        fb.store(Operand::Global(acc2), 0, Operand::Var(n2));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn step5_moves_independent_work_out_of_segments() {
        let s = setup(two_accumulators);
        let function = s.module.function(s.func);
        let mut segments = initial_segments(&s);
        let before: usize = segments.iter().map(|x| x.instrs.len()).sum();
        let before_cycles: f64 = segments.iter().map(|x| x.cycles_per_iteration).sum();
        let stats = minimize_segments(function, &mut segments, &CostModel::default());
        let after: usize = segments.iter().map(|x| x.instrs.len()).sum();
        let after_cycles: f64 = segments.iter().map(|x| x.cycles_per_iteration).sum();
        assert!(
            stats.instrs_moved_out > 0,
            "independent work must leave the segments"
        );
        assert!(after < before);
        assert!(after_cycles < before_cycles);
        // Endpoints always remain inside.
        for seg in &segments {
            for d in &seg.dependences {
                assert!(seg.instrs.contains(&d.src) || seg.instrs.contains(&d.dst));
            }
        }
    }

    #[test]
    fn step6_reduces_signal_count() {
        let s = setup(two_accumulators);
        let function = s.module.function(s.func);
        let mut segments = initial_segments(&s);
        minimize_segments(function, &mut segments, &CostModel::default());
        let waits_before: usize = segments.iter().map(|x| x.wait_points.len()).sum();
        let synchronized_before = segments.iter().filter(|x| x.synchronized).count();
        let stats = minimize_signals(function, &s.cfg, &s.forest, s.loop_id, &mut segments);
        let waits_after: usize = segments.iter().map(|x| x.wait_points.len()).sum();
        let synchronized_after = segments.iter().filter(|x| x.synchronized).count();
        assert!(waits_after <= waits_before);
        assert!(synchronized_after <= synchronized_before);
        assert!(
            synchronized_after >= 1,
            "at least one dependence must stay synchronized"
        );
        // The stats record the dependences whose synchronization was dropped.
        assert_eq!(
            stats.dependences_covered,
            segments.iter().filter(|x| !x.synchronized).count()
        );
    }

    #[test]
    fn merging_applies_to_adjacent_segments() {
        // A single global read-modify-write produces several dependences (RAW, WAR, WAW) over
        // the same instructions; after grouping and merging they collapse into one segment.
        let s = setup(|mb| {
            let acc = mb.add_global("acc", 1);
            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            let c = fb.new_var();
            fb.load(c, Operand::Global(acc), 0);
            let v = fb.binary_to_new(BinOp::Add, Operand::Var(c), Operand::int(1));
            fb.store(Operand::Global(acc), 0, Operand::Var(v));
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(None);
            fb.finish()
        });
        let function = s.module.function(s.func);
        let mut segments = initial_segments(&s);
        minimize_segments(function, &mut segments, &CostModel::default());
        minimize_signals(function, &s.cfg, &s.forest, s.loop_id, &mut segments);
        let synchronized: Vec<&SequentialSegment> =
            segments.iter().filter(|s| s.synchronized).collect();
        assert_eq!(
            synchronized.len(),
            1,
            "the read-modify-write needs exactly one synchronized segment, got {}",
            synchronized.len()
        );
    }

    /// A pointer-chase-shaped loop: the carried pointer is re-defined at the very end of the
    /// body, *after* a carried accumulator read-modify-write. Merging the accumulator segment
    /// with the pointer segment must not keep the accumulator's (earlier) signal point — the
    /// merged signal may only fire after the pointer's new value is written.
    fn pointer_chase_like(mb: &mut ModuleBuilder) -> helix_ir::Function {
        use helix_ir::Pred;
        let nodes = mb.add_global("nodes", 64);
        let acc = mb.add_global("acc", 1);
        let mut fb = FunctionBuilder::new("f", 0);
        let v = fb.new_var();
        fb.copy(v, Operand::Global(nodes));
        let header = fb.new_block();
        let body = fb.new_block();
        let exit = fb.new_block();
        fb.br(header);
        fb.switch_to(header);
        let c = fb.cmp_to_new(Pred::Ne, Operand::Var(v), Operand::int(0));
        fb.cond_br(Operand::Var(c), body, exit);
        fb.switch_to(body);
        let payload = fb.new_var();
        fb.load(payload, Operand::Var(v), 0);
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let sum = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(payload));
        fb.store(Operand::Global(acc), 0, Operand::Var(sum));
        fb.load(v, Operand::Var(v), 1); // the carried pointer: defined last
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn merged_segments_signal_only_after_their_last_endpoint() {
        let s = setup(pointer_chase_like);
        let function = s.module.function(s.func);
        let mut segments = initial_segments(&s);
        minimize_segments(function, &mut segments, &CostModel::default());
        minimize_signals(function, &s.cfg, &s.forest, s.loop_id, &mut segments);
        for seg in segments.iter().filter(|s| s.synchronized) {
            let endpoints: BTreeSet<InstrRef> = seg
                .dependences
                .iter()
                .flat_map(|d| [d.src, d.dst])
                .collect();
            for sig in &seg.signal_points {
                let last_endpoint_in_block = endpoints
                    .iter()
                    .filter(|e| e.block == sig.block)
                    .map(|e| e.index)
                    .max();
                if let Some(last) = last_endpoint_in_block {
                    assert!(
                        sig.index > last,
                        "signal {sig} fires before endpoint index {last} of dep {:?}",
                        seg.dep
                    );
                }
            }
        }
    }

    #[test]
    fn unsound_union_merge_reintroduces_early_signals() {
        // The test-only fault switch must bring back the pre-fix behaviour: after merging,
        // some synchronized segment signals before its last dependence endpoint. This is the
        // property the fuzzing oracle's structural check detects and the shrinker preserves.
        let s = setup(pointer_chase_like);
        let function = s.module.function(s.func);
        let mut segments = initial_segments(&s);
        minimize_segments(function, &mut segments, &CostModel::default());
        minimize_signals_with(function, &s.cfg, &s.forest, s.loop_id, &mut segments, true);
        let mut early_signal = false;
        for seg in segments.iter().filter(|s| s.synchronized) {
            let endpoints: BTreeSet<InstrRef> = seg
                .dependences
                .iter()
                .flat_map(|d| [d.src, d.dst])
                .collect();
            for sig in &seg.signal_points {
                if endpoints
                    .iter()
                    .any(|e| e.block == sig.block && e.index >= sig.index)
                {
                    early_signal = true;
                }
            }
        }
        assert!(
            early_signal,
            "the injected fault must produce a signal that fires before a merged endpoint"
        );
    }

    #[test]
    fn header_waits_survive_wait_elimination() {
        // A wait in the loop header guards the carried value read by the *next* iteration's
        // prologue; treating the latch->header back edge as a covering predecessor used to
        // delete it (nondeterministic divergence on pointer_chase/mcf).
        let s = setup(pointer_chase_like);
        let function = s.module.function(s.func);
        let mut segments = initial_segments(&s);
        minimize_segments(function, &mut segments, &CostModel::default());
        minimize_signals(function, &s.cfg, &s.forest, s.loop_id, &mut segments);
        let header = s.forest.get(s.loop_id).header;
        let header_has_endpoint_user = segments.iter().filter(|x| x.synchronized).any(|x| {
            x.dependences
                .iter()
                .any(|d| d.src.block == header || d.dst.block == header)
        });
        if header_has_endpoint_user {
            assert!(
                segments
                    .iter()
                    .filter(|x| x.synchronized)
                    .any(|x| x.wait_points.iter().any(|w| w.block == header)),
                "the header's wait must survive"
            );
        }
    }

    #[test]
    fn ranges_touch_detects_overlap_and_adjacency() {
        use helix_ir::BlockId;
        let a: BTreeSet<InstrRef> = [InstrRef::new(BlockId::new(1), 2)].into_iter().collect();
        let b: BTreeSet<InstrRef> = [InstrRef::new(BlockId::new(1), 3)].into_iter().collect();
        let c: BTreeSet<InstrRef> = [InstrRef::new(BlockId::new(1), 5)].into_iter().collect();
        let d: BTreeSet<InstrRef> = [InstrRef::new(BlockId::new(2), 3)].into_iter().collect();
        assert!(ranges_touch(&a, &b));
        assert!(!ranges_touch(&a, &c));
        assert!(!ranges_touch(&b, &d));
        assert!(ranges_touch(&a, &a));
    }
}
