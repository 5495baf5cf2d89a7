//! Functions and basic blocks.

use crate::ids::{BlockId, InstrRef, VarId};
use crate::instr::Instr;
use std::collections::HashMap;

/// A basic block: a straight-line sequence of instructions ending in a terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct BasicBlock {
    /// The block's identifier within its function.
    pub id: BlockId,
    /// The instructions; the last one must be a terminator for a verified function.
    pub instrs: Vec<Instr>,
}

impl BasicBlock {
    /// Creates an empty block with the given id.
    pub fn new(id: BlockId) -> Self {
        Self {
            id,
            instrs: Vec::new(),
        }
    }

    /// Returns the terminator instruction, if the block has one.
    pub fn terminator(&self) -> Option<&Instr> {
        self.instrs.last().filter(|i| i.is_terminator())
    }

    /// Returns the successor blocks of this block.
    pub fn successors(&self) -> Vec<BlockId> {
        self.terminator().map(Instr::successors).unwrap_or_default()
    }

    /// Returns the instructions excluding the terminator.
    pub fn body(&self) -> &[Instr] {
        match self.instrs.last() {
            Some(last) if last.is_terminator() => &self.instrs[..self.instrs.len() - 1],
            _ => &self.instrs,
        }
    }

    /// Number of instructions including the terminator.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` when the block contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// A function: parameters, virtual registers and a control flow graph of basic blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Human-readable name, unique within a module.
    pub name: String,
    /// Number of parameters; parameters occupy registers `%v0..%v{num_params}`.
    pub num_params: usize,
    /// Total number of virtual registers used by the function.
    pub num_vars: usize,
    /// Basic blocks indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>, num_params: usize) -> Self {
        Self {
            name: name.into(),
            num_params,
            num_vars: num_params,
            blocks: vec![BasicBlock::new(BlockId::new(0))],
            entry: BlockId::new(0),
        }
    }

    /// Returns the register holding parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_params`.
    pub fn param(&self, index: usize) -> VarId {
        assert!(index < self.num_params, "parameter index out of range");
        VarId::new(index as u32)
    }

    /// Allocates a fresh virtual register.
    pub fn new_var(&mut self) -> VarId {
        let v = VarId::new(self.num_vars as u32);
        self.num_vars += 1;
        v
    }

    /// Appends a new empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId::new(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new(id));
        id
    }

    /// Returns a reference to the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Returns a mutable reference to the block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Iterates over all block ids in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().map(|b| b.id)
    }

    /// Returns the instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of bounds.
    pub fn instr(&self, r: InstrRef) -> &Instr {
        &self.blocks[r.block.index()].instrs[r.index]
    }

    /// Returns a mutable reference to the instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if the reference is out of bounds.
    pub fn instr_mut(&mut self, r: InstrRef) -> &mut Instr {
        &mut self.blocks[r.block.index()].instrs[r.index]
    }

    /// Iterates over every instruction with its [`InstrRef`], in block order.
    pub fn instr_refs(&self) -> impl Iterator<Item = (InstrRef, &Instr)> + '_ {
        self.blocks.iter().flat_map(|b| {
            b.instrs
                .iter()
                .enumerate()
                .map(move |(i, instr)| (InstrRef::new(b.id, i), instr))
        })
    }

    /// Total number of instructions across all blocks.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Computes the predecessor map of the control flow graph.
    pub fn predecessors(&self) -> HashMap<BlockId, Vec<BlockId>> {
        let mut preds: HashMap<BlockId, Vec<BlockId>> =
            self.block_ids().map(|b| (b, Vec::new())).collect();
        for b in &self.blocks {
            for s in b.successors() {
                preds.entry(s).or_default().push(b.id);
            }
        }
        preds
    }

    /// Computes the successor map of the control flow graph.
    pub fn successors(&self) -> HashMap<BlockId, Vec<BlockId>> {
        self.blocks.iter().map(|b| (b.id, b.successors())).collect()
    }

    /// Returns the blocks reachable from the entry, in reverse postorder.
    ///
    /// Reverse postorder is the canonical iteration order for forward data-flow analyses.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut postorder = Vec::with_capacity(self.blocks.len());
        // Iterative DFS to avoid recursion limits on large synthetic workloads.
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some((block, child_idx)) = stack.pop() {
            let succs = self.block(block).successors();
            if child_idx < succs.len() {
                stack.push((block, child_idx + 1));
                let child = succs[child_idx];
                if !visited[child.index()] {
                    visited[child.index()] = true;
                    stack.push((child, 0));
                }
            } else {
                postorder.push(block);
            }
        }
        postorder.reverse();
        postorder
    }

    /// Splits the block `at.block` right before the instruction at `at.index`.
    ///
    /// The original block keeps instructions `[0, at.index)` plus a new `Br` to a fresh block
    /// holding the rest. Returns the id of the new block. Branch targets elsewhere are
    /// unaffected because the original block id keeps the first half.
    pub fn split_block(&mut self, at: InstrRef) -> BlockId {
        let new_id = self.new_block();
        let old = &mut self.blocks[at.block.index()];
        let tail: Vec<Instr> = old.instrs.split_off(at.index);
        old.instrs.push(Instr::Br { target: new_id });
        self.blocks[new_id.index()].instrs = tail;
        new_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{BinOp, Operand};

    fn two_block_function() -> Function {
        let mut f = Function::new("f", 1);
        let t = f.new_var();
        let exit = f.new_block();
        let entry = f.entry;
        let p0 = f.param(0);
        f.block_mut(entry).instrs.push(Instr::Binary {
            dst: t,
            op: BinOp::Add,
            lhs: Operand::Var(p0),
            rhs: Operand::int(1),
        });
        f.block_mut(entry).instrs.push(Instr::Br { target: exit });
        f.block_mut(exit).instrs.push(Instr::Ret {
            value: Some(Operand::Var(t)),
        });
        f
    }

    #[test]
    fn params_and_vars() {
        let mut f = Function::new("f", 2);
        assert_eq!(f.param(0), VarId::new(0));
        assert_eq!(f.param(1), VarId::new(1));
        let v = f.new_var();
        assert_eq!(v, VarId::new(2));
        assert_eq!(f.num_vars, 3);
    }

    #[test]
    #[should_panic(expected = "parameter index out of range")]
    fn param_out_of_range_panics() {
        let f = Function::new("f", 1);
        let _ = f.param(1);
    }

    #[test]
    fn successors_and_predecessors() {
        let f = two_block_function();
        let succ = f.successors();
        assert_eq!(succ[&f.entry], vec![BlockId::new(1)]);
        let preds = f.predecessors();
        assert_eq!(preds[&BlockId::new(1)], vec![f.entry]);
        assert!(preds[&f.entry].is_empty());
    }

    #[test]
    fn reverse_postorder_starts_at_entry() {
        let f = two_block_function();
        let rpo = f.reverse_postorder();
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), 2);
    }

    #[test]
    fn instr_refs_iteration() {
        let f = two_block_function();
        let refs: Vec<_> = f.instr_refs().collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(f.instr_count(), 3);
        assert_eq!(refs[0].0, InstrRef::new(f.entry, 0));
    }

    #[test]
    fn split_block_moves_tail() {
        let mut f = two_block_function();
        let new = f.split_block(InstrRef::new(f.entry, 1));
        // Entry now holds the add plus a branch to the new block.
        assert_eq!(f.block(f.entry).instrs.len(), 2);
        assert_eq!(f.block(f.entry).successors(), vec![new]);
        // New block holds the original branch to the exit block.
        assert_eq!(f.block(new).successors(), vec![BlockId::new(1)]);
    }

    #[test]
    fn block_body_excludes_terminator() {
        let f = two_block_function();
        assert_eq!(f.block(f.entry).body().len(), 1);
        assert_eq!(f.block(f.entry).len(), 2);
        assert!(!f.block(f.entry).is_empty());
    }
}
