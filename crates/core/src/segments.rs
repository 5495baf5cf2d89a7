//! Steps 2–4: choosing the dependences to synchronize and building sequential segments.
//!
//! *Step 2* filters the loop's data dependence graph down to `D_data`, the set of loop-carried
//! dependences that actually require synchronization: false (WAW/WAR) dependences through
//! registers are excluded because every iteration runs on its own core with private registers,
//! and dependences on loop-invariant or basic induction variables are excluded because each
//! core can recompute those locally.
//!
//! *Step 4* then builds one sequential segment per synchronized dependence group: `Wait(d)` is
//! required before every occurrence of either endpoint, and `Signal(d)` is placed at the
//! earliest points at which neither endpoint can be reached in the remainder of the current
//! iteration (plus a catch-all signal at each latch so that every path through an iteration
//! signals every dependence, which Step 8's helper threads rely on).

use crate::normalize::NormalizedLoop;
use crate::plan::SequentialSegment;
use helix_analysis::{Cfg, DataDependence, DepKind, InductionInfo, LoopDdg, LoopForest, LoopId};
use helix_ir::{BlockId, CostModel, DepId, Function, InstrRef};
use std::collections::{BTreeMap, BTreeSet};

/// Selects `D_data`: the loop-carried dependences of `ddg` that must be synchronized.
pub fn dependences_to_synchronize<'a>(
    ddg: &'a LoopDdg,
    induction: &InductionInfo,
) -> Vec<&'a DataDependence> {
    ddg.deps
        .iter()
        .filter(|d| d.loop_carried)
        .filter(|d| {
            if d.via_memory {
                // All loop-carried memory dependences (RAW, WAR, WAW) need synchronization.
                true
            } else {
                // Register dependences: only true (RAW) dependences, and only when the carried
                // variable is neither loop-invariant nor a basic induction variable.
                d.kind == DepKind::Raw
                    && match d.var {
                        Some(v) => !induction.is_invariant(v) && !induction.is_induction(v),
                        None => true,
                    }
            }
        })
        .collect()
}

/// Computes the `Wait`/`Signal` insertion points for a set of dependence endpoints within a
/// loop: a `Wait` before every endpoint occurrence; `Signal`s right after the last endpoint
/// of a block whose remaining intra-iteration paths cannot reach an endpoint again, at the
/// entry of "frontier" clear blocks, and as a catch-all at every latch; and a `Wait` before
/// every `Signal` too.
///
/// The last rule keeps the signal chain transitive. Iteration `i`'s `Wait` only checks
/// iteration `i-1`'s `Signal`, so that signal must mean "every earlier iteration is done
/// with the segment". An iteration whose path skips every endpoint would otherwise signal
/// before its predecessor finished, and its successor would enter the segment while
/// iteration `i-2` is still inside it (observed as a lost accumulator update). Where a
/// `Wait` already dominates the signal, redundant-wait elimination removes the new one.
///
/// Both the initial segment construction and the Step 6 segment-merging pass derive points
/// from this single function: a merged segment must *recompute* its points over the union of
/// its endpoints (taking the union of the original points would keep a signal that fires
/// before another merged dependence's endpoint, releasing the successor iteration too early).
pub fn sync_points(
    function: &Function,
    cfg: &Cfg,
    natural: &helix_analysis::NaturalLoop,
    endpoints: &BTreeSet<InstrRef>,
) -> (Vec<InstrRef>, Vec<InstrRef>) {
    let in_loop = |b: BlockId| natural.contains(b);
    let endpoint_blocks: BTreeSet<BlockId> = endpoints.iter().map(|r| r.block).collect();

    // Wait before each endpoint occurrence.
    let wait_points: Vec<InstrRef> = endpoints.iter().copied().collect();

    // A block is "clear" when no endpoint can execute from its start in the rest of the
    // current iteration (not traversing the back edge into the header).
    let mut clear: BTreeMap<BlockId, bool> = BTreeMap::new();
    for &block in &natural.blocks {
        let reaches_endpoint = endpoint_blocks.iter().any(|&eb| {
            block == eb
                || cfg.succs(block).iter().any(|&s| {
                    s != natural.header
                        && in_loop(s)
                        && (s == eb || cfg.reaches_within(s, eb, &in_loop, Some(natural.header)))
                })
        });
        clear.insert(block, !reaches_endpoint);
    }

    // Signal points: right after the last endpoint of a block when nothing later in the
    // iteration can reach an endpoint again, and at the entry of "frontier" clear blocks.
    let mut signal_points: Vec<InstrRef> = Vec::new();
    for &eb in &endpoint_blocks {
        let last_endpoint_idx = endpoints
            .iter()
            .filter(|r| r.block == eb)
            .map(|r| r.index)
            .max()
            .expect("endpoint block has an endpoint");
        let successors_clear = cfg
            .succs(eb)
            .iter()
            .all(|&s| s == natural.header || !in_loop(s) || clear[&s]);
        if successors_clear {
            signal_points.push(InstrRef::new(eb, last_endpoint_idx + 1));
        }
    }
    for &block in &natural.blocks {
        if !clear[&block] || endpoint_blocks.contains(&block) {
            continue;
        }
        let frontier = cfg.preds(block).iter().any(|&p| in_loop(p) && !clear[&p]);
        if frontier {
            signal_points.push(InstrRef::new(block, 0));
        }
    }
    // Catch-all: every latch signals before branching back, so an iteration that skips
    // every endpoint still unblocks its successor.
    for &latch in &natural.latches {
        let end = function.block(latch).instrs.len().saturating_sub(1);
        let at = InstrRef::new(latch, end);
        if !signal_points.contains(&at) && !clear.get(&latch).copied().unwrap_or(false) {
            signal_points.push(at);
        }
    }
    signal_points.sort();
    signal_points.dedup();
    let mut wait_points = wait_points;
    wait_points.extend(signal_points.iter().copied());
    wait_points.sort();
    wait_points.dedup();
    (wait_points, signal_points)
}

/// Builds the initial sequential segments (one per distinct endpoint pair) for the
/// synchronized dependences of a loop.
#[allow(clippy::too_many_arguments)]
pub fn build_segments(
    function: &Function,
    cfg: &Cfg,
    forest: &LoopForest,
    loop_id: LoopId,
    norm: &NormalizedLoop,
    ddg: &LoopDdg,
    induction: &InductionInfo,
    cost: &CostModel,
) -> Vec<SequentialSegment> {
    let natural = forest.get(loop_id);
    let to_sync = dependences_to_synchronize(ddg, induction);

    // Group dependences by their unordered endpoint pair: RAW/WAR/WAW between the same two
    // instructions always produce the same Wait/Signal placement, so they share a segment.
    let mut groups: BTreeMap<(InstrRef, InstrRef), Vec<DataDependence>> = BTreeMap::new();
    for dep in to_sync {
        let key = if dep.src <= dep.dst {
            (dep.src, dep.dst)
        } else {
            (dep.dst, dep.src)
        };
        groups.entry(key).or_default().push(dep.clone());
    }

    let in_loop = |b: BlockId| natural.contains(b);
    let mut segments = Vec::new();
    for (dep_index, ((a, b), dependences)) in groups.into_iter().enumerate() {
        let endpoints: BTreeSet<InstrRef> = [a, b].into_iter().collect();
        let (wait_points, signal_points) = sync_points(function, cfg, natural, &endpoints);
        let endpoint_blocks: BTreeSet<BlockId> = endpoints.iter().map(|r| r.block).collect();

        // The segment body: instructions of endpoint blocks between the first and last
        // endpoint, plus whole blocks lying on an intra-iteration path between two endpoint
        // blocks.
        let mut instrs: BTreeSet<InstrRef> = BTreeSet::new();
        for &eb in &endpoint_blocks {
            let idxs: Vec<usize> = endpoints
                .iter()
                .filter(|r| r.block == eb)
                .map(|r| r.index)
                .collect();
            let first = *idxs.iter().min().expect("non-empty");
            let last = *idxs.iter().max().expect("non-empty");
            for i in first..=last {
                instrs.insert(InstrRef::new(eb, i));
            }
        }
        if endpoint_blocks.len() > 1 {
            for &block in &natural.blocks {
                if endpoint_blocks.contains(&block) {
                    continue;
                }
                let from_endpoint = endpoint_blocks.iter().any(|&eb| {
                    cfg.reaches_within(eb, block, &in_loop, Some(natural.header)) && eb != block
                });
                let to_endpoint = endpoint_blocks.iter().any(|&eb| {
                    cfg.reaches_within(block, eb, &in_loop, Some(natural.header)) && eb != block
                });
                if from_endpoint && to_endpoint {
                    for i in 0..function.block(block).instrs.len() {
                        instrs.insert(InstrRef::new(block, i));
                    }
                }
            }
        }

        // Static per-iteration cost of the segment (profile-weighted costs are recomputed by
        // the pipeline when a profile is available).
        let cycles: u64 = instrs.iter().map(|r| cost.cost(function.instr(*r))).sum();

        let transfers_data = dependences
            .iter()
            .any(|d| d.kind == DepKind::Raw && (d.via_memory || d.var.is_some()));

        let _ = norm;
        segments.push(SequentialSegment {
            dep: DepId::new(dep_index as u32),
            dependences,
            wait_points,
            signal_points,
            instrs,
            cycles_per_iteration: cycles as f64,
            transfers_data,
            synchronized: true,
            prefetched_fraction: 0.0,
        });
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::{DomTree, PointerAnalysis};
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, FuncId, Module, Operand};

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

    fn segments_of(s: &Setup) -> Vec<SequentialSegment> {
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

    /// A global accumulator loop: `for i in 0..n { acc_global += a[i] }`.
    fn accumulator_loop(mb: &mut ModuleBuilder) -> helix_ir::Function {
        let acc = mb.add_global("acc", 1);
        let arr = mb.add_global("a", 64);
        let mut fb = FunctionBuilder::new("f", 1);
        let n = fb.param(0);
        let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
        let addr = fb.binary_to_new(
            BinOp::Add,
            Operand::Global(arr),
            Operand::Var(lh.induction_var),
        );
        let elt = fb.new_var();
        fb.load(elt, Operand::Var(addr), 0);
        let cur = fb.new_var();
        fb.load(cur, Operand::Global(acc), 0);
        let next = fb.binary_to_new(BinOp::Add, Operand::Var(cur), Operand::Var(elt));
        fb.store(Operand::Global(acc), 0, Operand::Var(next));
        fb.br(lh.latch);
        fb.switch_to(lh.exit);
        fb.ret(None);
        fb.finish()
    }

    #[test]
    fn induction_variables_are_not_synchronized() {
        let s = setup(accumulator_loop);
        let function = s.module.function(s.func);
        let pointers = PointerAnalysis::new(&s.module);
        let ddg = LoopDdg::compute(&s.module, s.func, &s.cfg, &s.forest, s.loop_id, &pointers);
        let induction = InductionInfo::compute(function, &s.cfg, &s.forest, s.loop_id);
        let selected = dependences_to_synchronize(&ddg, &induction);
        // The induction variable's register dependence is excluded; the memory dependence on
        // the accumulator global remains.
        assert!(selected.iter().all(|d| d.via_memory || d.var.is_some()));
        assert!(selected.iter().any(|d| d.via_memory));
        let total_carried = ddg.loop_carried().count();
        assert!(selected.len() < total_carried || total_carried == selected.len());
    }

    #[test]
    fn accumulator_gets_a_segment_with_waits_and_signals() {
        let s = setup(accumulator_loop);
        let segments = segments_of(&s);
        assert!(!segments.is_empty());
        for seg in &segments {
            assert!(!seg.wait_points.is_empty(), "segment must wait somewhere");
            assert!(
                !seg.signal_points.is_empty(),
                "segment must signal somewhere"
            );
            assert!(seg.cycles_per_iteration > 0.0);
            assert!(seg.synchronized);
        }
        // The accumulator's load/store pair transfers actual data between iterations.
        assert!(segments.iter().any(|s| s.transfers_data));
        // Segment ids are unique.
        let ids: BTreeSet<DepId> = segments.iter().map(|s| s.dep).collect();
        assert_eq!(ids.len(), segments.len());
    }

    #[test]
    fn signal_points_cover_every_latch_path() {
        let s = setup(accumulator_loop);
        let segments = segments_of(&s);
        let natural = s.forest.get(s.loop_id);
        for seg in &segments {
            // Either a signal lies in a latch block or on the unique path into it, so every
            // completed iteration signals.
            let signals_reach_latch = seg
                .signal_points
                .iter()
                .any(|p| natural.latches.contains(&p.block) || natural.contains(p.block));
            assert!(signals_reach_latch);
        }
    }

    #[test]
    fn doall_style_loop_needs_no_segments() {
        // for i in 0..n { b[i] = i * 2 }  with b indexed by the induction variable and no
        // other shared state: the only loop-carried dependences involve the induction
        // variable (excluded) and the field-insensitive self-dependence of the store, which
        // still yields at most one segment. The point of this test is the register side: no
        // register segment may exist.
        let s = setup(|mb| {
            let arr = mb.add_global("b", 64);
            let mut fb = FunctionBuilder::new("f", 1);
            let n = fb.param(0);
            let lh = fb.counted_loop(Operand::int(0), Operand::Var(n), 1);
            let addr = fb.binary_to_new(
                BinOp::Add,
                Operand::Global(arr),
                Operand::Var(lh.induction_var),
            );
            let v = fb.binary_to_new(BinOp::Mul, Operand::Var(lh.induction_var), Operand::int(2));
            fb.store(Operand::Var(addr), 0, Operand::Var(v));
            fb.br(lh.latch);
            fb.switch_to(lh.exit);
            fb.ret(None);
            (fb.finish()) as _
        });
        let segments = segments_of(&s);
        for seg in &segments {
            for dep in &seg.dependences {
                assert!(
                    dep.via_memory,
                    "only memory dependences may be synchronized"
                );
            }
        }
    }
}
