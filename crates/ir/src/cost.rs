//! Per-instruction cycle cost model.
//!
//! The HELIX evaluation is driven by cycle counts: how many cycles an iteration spends in
//! parallel code vs. sequential segments, how many cycles a signal takes to cross cores
//! (110 on the paper's i7-980X), and how many it takes when fully prefetched (4, an L1 hit).
//! This module provides the *intra-core* cost model used by the interpreter and profiler;
//! the *inter-core* latencies live in `helix-simulator`.

use crate::instr::Instr;

/// Cycle costs charged per executed instruction.
///
/// The defaults approximate a modern out-of-order core at the granularity the HELIX speedup
/// model needs: single-cycle ALU operations, a few cycles for multiplies and L1 hits, tens of
/// cycles for divisions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of simple ALU operations, copies, constants and comparisons.
    pub alu: u64,
    /// Cost of integer/float multiplication.
    pub mul: u64,
    /// Cost of division and remainder.
    pub div: u64,
    /// Cost of a load that hits in the first-level cache.
    pub load: u64,
    /// Cost of a store.
    pub store: u64,
    /// Fixed overhead of a call (argument setup + return).
    pub call: u64,
    /// Cost of an allocation request.
    pub alloc: u64,
    /// Cost of a branch.
    pub branch: u64,
    /// Cost of executing a `Wait` whose signal is already locally available (L1 hit).
    ///
    /// This is the paper's fully-prefetched signal latency (4 cycles).
    pub wait_local: u64,
    /// Cost of executing a `Signal` (a store into the successor's thread memory buffer).
    pub signal: u64,
}

impl CostModel {
    /// The cost model used throughout the evaluation, with the paper's measured constants
    /// where the paper reports them.
    pub const fn intel_i7_980x() -> Self {
        Self {
            alu: 1,
            mul: 3,
            div: 20,
            load: 4,
            store: 1,
            call: 10,
            alloc: 12,
            branch: 1,
            wait_local: 4,
            signal: 1,
        }
    }

    /// A uniform unit-cost model, useful for tests that count instructions rather than cycles.
    pub const fn unit() -> Self {
        Self {
            alu: 1,
            mul: 1,
            div: 1,
            load: 1,
            store: 1,
            call: 1,
            alloc: 1,
            branch: 1,
            wait_local: 1,
            signal: 1,
        }
    }

    /// Returns the cycle cost of one dynamic execution of `instr`.
    pub fn cost(&self, instr: &Instr) -> u64 {
        use crate::instr::BinOp;
        match instr {
            Instr::Const { .. }
            | Instr::Copy { .. }
            | Instr::Unary { .. }
            | Instr::Cmp { .. }
            | Instr::Select { .. } => self.alu,
            Instr::Binary { op, .. } => match op {
                BinOp::Mul => self.mul,
                BinOp::Div | BinOp::Rem => self.div,
                _ => self.alu,
            },
            Instr::Load { .. } => self.load,
            Instr::Store { .. } => self.store,
            Instr::Alloc { .. } => self.alloc,
            Instr::Call { .. } => self.call,
            Instr::Wait { .. } => self.wait_local,
            Instr::Signal { .. } => self.signal,
            Instr::Br { .. } | Instr::CondBr { .. } | Instr::Ret { .. } => self.branch,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::intel_i7_980x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DepId, VarId};
    use crate::instr::{BinOp, Operand};

    #[test]
    fn default_is_i7() {
        assert_eq!(CostModel::default(), CostModel::intel_i7_980x());
        assert_eq!(CostModel::default().wait_local, 4);
    }

    #[test]
    fn binary_costs_depend_on_operator() {
        let m = CostModel::intel_i7_980x();
        let add = Instr::Binary {
            dst: VarId::new(0),
            op: BinOp::Add,
            lhs: Operand::int(1),
            rhs: Operand::int(2),
        };
        let mul = Instr::Binary {
            dst: VarId::new(0),
            op: BinOp::Mul,
            lhs: Operand::int(1),
            rhs: Operand::int(2),
        };
        let div = Instr::Binary {
            dst: VarId::new(0),
            op: BinOp::Div,
            lhs: Operand::int(1),
            rhs: Operand::int(2),
        };
        assert!(m.cost(&add) < m.cost(&mul));
        assert!(m.cost(&mul) < m.cost(&div));
    }

    #[test]
    fn unit_model_charges_one_everywhere() {
        let m = CostModel::unit();
        let wait = Instr::Wait { dep: DepId::new(0) };
        let load = Instr::Load {
            dst: VarId::new(0),
            addr: Operand::int(1),
            offset: 0,
        };
        assert_eq!(m.cost(&wait), 1);
        assert_eq!(m.cost(&load), 1);
    }
}
