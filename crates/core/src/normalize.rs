//! Step 1: loop normalization — splitting a loop into prologue and body.
//!
//! The paper defines the prologue as "the minimum set of instructions that must be executed to
//! determine whether the next iteration's prologue will be executed"; formally, the loop
//! instructions that are *not post-dominated by the loop's back edge*, and the only place loop
//! exits may originate. The body is everything else; it contains the sequential segments and
//! the code that can run in parallel.
//!
//! Operationally we classify a loop block as **prologue** when an exit edge of the loop is
//! reachable from it without first passing through a latch (the source of a back edge). The
//! header of a rotated `while` loop — where the exit test happens — is therefore always part
//! of the prologue, matching the paper.

use helix_analysis::{Cfg, LoopForest, LoopId};
use helix_ir::{BlockId, Function, InstrRef};
use std::collections::BTreeSet;

/// The prologue/body partition of one loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NormalizedLoop {
    /// The loop being normalized.
    pub loop_id: LoopId,
    /// The loop header.
    pub header: BlockId,
    /// Blocks in the prologue.
    pub prologue_blocks: BTreeSet<BlockId>,
    /// Blocks in the body.
    pub body_blocks: BTreeSet<BlockId>,
}

impl NormalizedLoop {
    /// Computes the prologue/body partition of loop `loop_id`.
    pub fn compute(function: &Function, cfg: &Cfg, forest: &LoopForest, loop_id: LoopId) -> Self {
        let natural = forest.get(loop_id);
        let latches: BTreeSet<BlockId> = natural.latches.iter().copied().collect();
        let mut prologue = BTreeSet::new();
        let mut body = BTreeSet::new();

        for &block in &natural.blocks {
            if Self::can_exit_before_latch(cfg, natural, &latches, block) {
                prologue.insert(block);
            } else {
                body.insert(block);
            }
        }
        // The header always belongs to the prologue: it is where the decision to run the next
        // iteration is made, even for loops whose exit test sits elsewhere.
        if body.remove(&natural.header) {
            prologue.insert(natural.header);
        }
        prologue.insert(natural.header);
        let _ = function;
        Self {
            loop_id,
            header: natural.header,
            prologue_blocks: prologue,
            body_blocks: body,
        }
    }

    /// Is an exit edge reachable from `from` without continuing past a latch?
    fn can_exit_before_latch(
        cfg: &Cfg,
        natural: &helix_analysis::loops::NaturalLoop,
        latches: &BTreeSet<BlockId>,
        from: BlockId,
    ) -> bool {
        let mut visited: BTreeSet<BlockId> = BTreeSet::new();
        let mut stack = vec![from];
        visited.insert(from);
        while let Some(b) = stack.pop() {
            // Does this block have an exit edge?
            if cfg.succs(b).iter().any(|s| !natural.contains(*s)) {
                return true;
            }
            // A latch commits to the next iteration: do not look past it.
            if latches.contains(&b) {
                continue;
            }
            for &s in cfg.succs(b) {
                if natural.contains(s) && s != natural.header && visited.insert(s) {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Returns `true` when `block` belongs to the prologue.
    pub fn is_prologue(&self, block: BlockId) -> bool {
        self.prologue_blocks.contains(&block)
    }

    /// Returns `true` when `block` belongs to the body.
    pub fn is_body(&self, block: BlockId) -> bool {
        self.body_blocks.contains(&block)
    }

    /// All instructions of the prologue.
    pub fn prologue_instrs(&self, function: &Function) -> Vec<InstrRef> {
        self.instrs_of(&self.prologue_blocks, function)
    }

    /// All instructions of the body.
    pub fn body_instrs(&self, function: &Function) -> Vec<InstrRef> {
        self.instrs_of(&self.body_blocks, function)
    }

    fn instrs_of(&self, blocks: &BTreeSet<BlockId>, function: &Function) -> Vec<InstrRef> {
        let mut out = Vec::new();
        for &b in blocks {
            for i in 0..function.block(b).instrs.len() {
                out.push(InstrRef::new(b, i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_analysis::DomTree;
    use helix_ir::builder::FunctionBuilder;
    use helix_ir::{BinOp, Operand, Pred};

    fn normalize(f: &Function) -> (NormalizedLoop, LoopForest) {
        let cfg = Cfg::new(f);
        let dom = DomTree::new(f, &cfg);
        let forest = LoopForest::new(f, &cfg, &dom);
        let lid = forest.top_level()[0];
        (NormalizedLoop::compute(f, &cfg, &forest, lid), forest)
    }

    #[test]
    fn counted_loop_prologue_is_header_only() {
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let s = b.new_var();
        b.const_int(s, 0);
        let lh = b.counted_loop(Operand::int(0), Operand::Var(n), 1);
        b.binary(
            s,
            BinOp::Add,
            Operand::Var(s),
            Operand::Var(lh.induction_var),
        );
        b.br(lh.latch);
        b.switch_to(lh.exit);
        b.ret(Some(Operand::Var(s)));
        let f = b.finish();
        let (norm, _) = normalize(&f);
        // The exit test lives in the header; body and latch cannot exit.
        assert!(norm.is_prologue(lh.header));
        assert!(norm.is_body(lh.body));
        assert!(norm.is_body(lh.latch));
        assert_eq!(norm.prologue_blocks.len(), 1);
        assert_eq!(norm.body_blocks.len(), 2);
        assert!(!norm.prologue_instrs(&f).is_empty());
        assert!(norm.body_instrs(&f).len() >= 4);
    }

    #[test]
    fn mid_loop_break_extends_the_prologue() {
        // while (i < n) { if (a[i] == 0) break; i += 1 }
        // The block testing the break condition can exit, so it is part of the prologue.
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let i = b.new_var();
        b.const_int(i, 0);
        let header = b.new_block();
        let check = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(i), Operand::Var(n));
        b.cond_br(Operand::Var(c), check, exit);
        b.switch_to(check);
        let v = b.new_var();
        b.load(v, Operand::Var(i), 100);
        let z = b.cmp_to_new(Pred::Eq, Operand::Var(v), Operand::int(0));
        b.cond_br(Operand::Var(z), exit, latch);
        b.switch_to(latch);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(1));
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Var(i)));
        let f = b.finish();
        let (norm, _) = normalize(&f);
        assert!(norm.is_prologue(header));
        assert!(norm.is_prologue(check));
        assert!(norm.is_body(latch));
        assert_eq!(norm.body_blocks.len(), 1);
    }

    #[test]
    fn blocks_after_the_last_exit_are_body() {
        // while (i < n) { work; if (cond) extra; i += 1 } — `work`, `extra` and the latch
        // cannot exit, so they are body even though `extra` is control dependent.
        let mut b = FunctionBuilder::new("f", 1);
        let n = b.param(0);
        let i = b.new_var();
        let s = b.new_var();
        b.const_int(i, 0);
        b.const_int(s, 0);
        let header = b.new_block();
        let work = b.new_block();
        let extra = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.cmp_to_new(Pred::Lt, Operand::Var(i), Operand::Var(n));
        b.cond_br(Operand::Var(c), work, exit);
        b.switch_to(work);
        b.binary(s, BinOp::Add, Operand::Var(s), Operand::Var(i));
        let odd = b.binary_to_new(BinOp::And, Operand::Var(i), Operand::int(1));
        b.cond_br(Operand::Var(odd), extra, latch);
        b.switch_to(extra);
        b.binary(s, BinOp::Mul, Operand::Var(s), Operand::int(2));
        b.br(latch);
        b.switch_to(latch);
        b.binary(i, BinOp::Add, Operand::Var(i), Operand::int(1));
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Var(s)));
        let f = b.finish();
        let (norm, _) = normalize(&f);
        assert!(norm.is_prologue(header));
        assert!(norm.is_body(work));
        assert!(norm.is_body(extra));
        assert!(norm.is_body(latch));
        // Prologue and body partition the loop.
        let total = norm.prologue_blocks.len() + norm.body_blocks.len();
        assert_eq!(total, 4);
        assert!(norm
            .prologue_blocks
            .intersection(&norm.body_blocks)
            .next()
            .is_none());
    }
}
