//! Instruction set of the HELIX IR.
//!
//! The IR is a classic register-based three-address code: each instruction reads
//! [`Operand`]s (virtual registers, immediates or globals) and optionally writes one virtual
//! register. Control flow is explicit via block terminators (`Br`, `CondBr`, `Ret`).
//!
//! Two pseudo-instructions, [`Instr::Wait`] and [`Instr::Signal`], implement the inter-core
//! synchronization HELIX inserts in Step 4 of its algorithm. In sequential execution they are
//! no-ops; the parallel runtime and the timing simulator give them their blocking/latency
//! semantics.

use crate::ids::{BlockId, DepId, FuncId, GlobalId, VarId};
use std::fmt;

/// Binary arithmetic and bitwise operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer or float addition.
    Add,
    /// Integer or float subtraction.
    Sub,
    /// Integer or float multiplication.
    Mul,
    /// Division; integer division by zero yields zero (the interpreter does not trap).
    Div,
    /// Remainder; remainder by zero yields zero.
    Rem,
    /// Bitwise and (integer only).
    And,
    /// Bitwise or (integer only).
    Or,
    /// Bitwise xor (integer only).
    Xor,
    /// Left shift (integer only, modulo 64).
    Shl,
    /// Arithmetic right shift (integer only, modulo 64).
    Shr,
    /// Minimum of the two operands.
    Min,
    /// Maximum of the two operands.
    Max,
}

impl BinOp {
    /// All binary operators, useful for randomized workload generation and property tests.
    pub const ALL: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Min,
        BinOp::Max,
    ];
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement (integer) / logical not for booleans.
    Not,
    /// Conversion to float.
    ToFloat,
    /// Conversion (truncation) to integer.
    ToInt,
}

impl UnOp {
    /// All unary operators, useful for randomized workload generation and property tests.
    pub const ALL: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::ToFloat, UnOp::ToInt];
}

/// Comparison predicates for [`Instr::Cmp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
}

impl Pred {
    /// All predicates.
    pub const ALL: [Pred; 6] = [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Le, Pred::Gt, Pred::Ge];
}

/// An instruction operand: a virtual register, an immediate, or the address of a global.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Read of a virtual register.
    Var(VarId),
    /// A 64-bit signed integer immediate.
    ConstInt(i64),
    /// A 64-bit float immediate.
    ConstFloat(f64),
    /// Base address of a global memory object.
    Global(GlobalId),
}

impl Operand {
    /// Shorthand for an integer immediate.
    pub const fn int(value: i64) -> Operand {
        Operand::ConstInt(value)
    }

    /// Shorthand for a float immediate.
    pub const fn float(value: f64) -> Operand {
        Operand::ConstFloat(value)
    }

    /// Returns the virtual register this operand reads, if any.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns `true` when this operand is a compile-time constant (immediate or global base).
    pub fn is_const(&self) -> bool {
        !matches!(self, Operand::Var(_))
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::ConstInt(i)
    }
}

impl From<f64> for Operand {
    fn from(f: f64) -> Self {
        Operand::ConstFloat(f)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::ConstInt(i) => write!(f, "{i}"),
            Operand::ConstFloat(x) => f.write_str(&crate::printer::format_float(*x)),
            Operand::Global(g) => write!(f, "{g}"),
        }
    }
}

/// One IR instruction.
///
/// The last instruction of every basic block must be a terminator (`Br`, `CondBr` or `Ret`);
/// terminators may not appear anywhere else. [`crate::verify::verify_function`] enforces this.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `dst = const`.
    Const {
        /// Destination register.
        dst: VarId,
        /// Immediate value.
        value: Operand,
    },
    /// `dst = src` register copy.
    Copy {
        /// Destination register.
        dst: VarId,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op src`.
    Unary {
        /// Destination register.
        dst: VarId,
        /// Operator.
        op: UnOp,
        /// Source operand.
        src: Operand,
    },
    /// `dst = lhs op rhs`.
    Binary {
        /// Destination register.
        dst: VarId,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = lhs pred rhs` producing 0 or 1.
    Cmp {
        /// Destination register.
        dst: VarId,
        /// Predicate.
        pred: Pred,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = cond ? on_true : on_false`.
    Select {
        /// Destination register.
        dst: VarId,
        /// Condition operand (non-zero selects `on_true`).
        cond: Operand,
        /// Value when the condition is true.
        on_true: Operand,
        /// Value when the condition is false.
        on_false: Operand,
    },
    /// `dst = mem[addr + offset]`.
    Load {
        /// Destination register.
        dst: VarId,
        /// Base address operand.
        addr: Operand,
        /// Constant word offset added to the base address.
        offset: i64,
    },
    /// `mem[addr + offset] = value`.
    Store {
        /// Base address operand.
        addr: Operand,
        /// Constant word offset added to the base address.
        offset: i64,
        /// Value to store.
        value: Operand,
    },
    /// `dst = alloc(words)` — bump-allocates `words` memory words and returns the base address.
    Alloc {
        /// Destination register receiving the base address.
        dst: VarId,
        /// Number of words to allocate.
        words: Operand,
    },
    /// Direct call: `dst = callee(args...)`.
    Call {
        /// Optional destination register for the return value.
        dst: Option<VarId>,
        /// Called function.
        callee: FuncId,
        /// Actual arguments.
        args: Vec<Operand>,
    },
    /// HELIX synchronization: block until the predecessor iteration signals dependence `dep`.
    ///
    /// Sequential semantics: no-op.
    Wait {
        /// The synchronized dependence.
        dep: DepId,
    },
    /// HELIX synchronization: signal dependence `dep` to the successor iteration.
    ///
    /// Sequential semantics: no-op.
    Signal {
        /// The synchronized dependence.
        dep: DepId,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch: jumps to `then_bb` when `cond` is non-zero, else to `else_bb`.
    CondBr {
        /// Condition operand.
        cond: Operand,
        /// Target when the condition is true.
        then_bb: BlockId,
        /// Target when the condition is false.
        else_bb: BlockId,
    },
    /// Return from the current function.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
}

impl Instr {
    /// Returns the register defined by this instruction, if any.
    pub fn dst(&self) -> Option<VarId> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Select { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Alloc { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Returns the operands read by this instruction.
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            Instr::Const { value, .. } => vec![*value],
            Instr::Copy { src, .. } | Instr::Unary { src, .. } => vec![*src],
            Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Instr::Select {
                cond,
                on_true,
                on_false,
                ..
            } => vec![*cond, *on_true, *on_false],
            Instr::Load { addr, .. } => vec![*addr],
            Instr::Store { addr, value, .. } => vec![*addr, *value],
            Instr::Alloc { words, .. } => vec![*words],
            Instr::Call { args, .. } => args.clone(),
            Instr::CondBr { cond, .. } => vec![*cond],
            Instr::Ret { value } => value.iter().copied().collect(),
            Instr::Wait { .. } | Instr::Signal { .. } | Instr::Br { .. } => Vec::new(),
        }
    }

    /// Returns the virtual registers read by this instruction.
    pub fn uses(&self) -> Vec<VarId> {
        self.operands().iter().filter_map(Operand::as_var).collect()
    }

    /// Applies `f` to every operand, allowing passes to rewrite register uses in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Instr::Const { value, .. } => f(value),
            Instr::Copy { src, .. } | Instr::Unary { src, .. } => f(src),
            Instr::Binary { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Instr::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            Instr::Load { addr, .. } => f(addr),
            Instr::Store { addr, value, .. } => {
                f(addr);
                f(value);
            }
            Instr::Alloc { words, .. } => f(words),
            Instr::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Instr::CondBr { cond, .. } => f(cond),
            Instr::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Instr::Wait { .. } | Instr::Signal { .. } | Instr::Br { .. } => {}
        }
    }

    /// Rewrites the destination register, if any.
    pub fn set_dst(&mut self, new_dst: VarId) {
        match self {
            Instr::Const { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Binary { dst, .. }
            | Instr::Cmp { dst, .. }
            | Instr::Select { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Alloc { dst, .. } => *dst = new_dst,
            Instr::Call { dst, .. } => *dst = Some(new_dst),
            _ => {}
        }
    }

    /// Returns `true` for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Br { .. } | Instr::CondBr { .. } | Instr::Ret { .. }
        )
    }

    /// Returns `true` for direct calls.
    pub fn is_call(&self) -> bool {
        matches!(self, Instr::Call { .. })
    }

    /// Returns `true` if the instruction may read program memory.
    pub fn may_read_memory(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Call { .. })
    }

    /// Returns `true` if the instruction may write program memory.
    pub fn may_write_memory(&self) -> bool {
        matches!(
            self,
            Instr::Store { .. } | Instr::Call { .. } | Instr::Alloc { .. }
        )
    }

    /// Returns `true` for the HELIX synchronization pseudo-instructions.
    pub fn is_sync(&self) -> bool {
        matches!(self, Instr::Wait { .. } | Instr::Signal { .. })
    }

    /// Returns the successor blocks when this instruction is a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Instr::Br { target } => vec![*target],
            Instr::CondBr {
                then_bb, else_bb, ..
            } => {
                if then_bb == else_bb {
                    vec![*then_bb]
                } else {
                    vec![*then_bb, *else_bb]
                }
            }
            _ => Vec::new(),
        }
    }

    /// Rewrites branch targets using `f`, used when cloning or splitting blocks.
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Instr::Br { target } => *target = f(*target),
            Instr::CondBr {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            _ => {}
        }
    }

    /// Returns `true` if the instruction has no side effects beyond defining its destination.
    ///
    /// Pure instructions may be freely reordered by the HELIX code scheduling passes as long
    /// as register data dependences are preserved.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Instr::Const { .. }
                | Instr::Copy { .. }
                | Instr::Unary { .. }
                | Instr::Binary { .. }
                | Instr::Cmp { .. }
                | Instr::Select { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn dst_and_uses() {
        let i = Instr::Binary {
            dst: v(3),
            op: BinOp::Add,
            lhs: Operand::Var(v(1)),
            rhs: Operand::int(4),
        };
        assert_eq!(i.dst(), Some(v(3)));
        assert_eq!(i.uses(), vec![v(1)]);
        assert!(i.is_pure());
        assert!(!i.is_terminator());
    }

    #[test]
    fn store_has_no_dst_and_writes_memory() {
        let s = Instr::Store {
            addr: Operand::Var(v(0)),
            offset: 2,
            value: Operand::Var(v(1)),
        };
        assert_eq!(s.dst(), None);
        assert!(s.may_write_memory());
        assert!(!s.may_read_memory());
        assert_eq!(s.uses(), vec![v(0), v(1)]);
    }

    #[test]
    fn terminator_successors() {
        let br = Instr::Br {
            target: BlockId::new(2),
        };
        assert_eq!(br.successors(), vec![BlockId::new(2)]);
        let cbr = Instr::CondBr {
            cond: Operand::Var(v(0)),
            then_bb: BlockId::new(1),
            else_bb: BlockId::new(2),
        };
        assert_eq!(cbr.successors().len(), 2);
        let same = Instr::CondBr {
            cond: Operand::Var(v(0)),
            then_bb: BlockId::new(1),
            else_bb: BlockId::new(1),
        };
        assert_eq!(same.successors(), vec![BlockId::new(1)]);
        let ret = Instr::Ret { value: None };
        assert!(ret.successors().is_empty());
        assert!(ret.is_terminator());
    }

    #[test]
    fn sync_instrs_are_recognized() {
        let w = Instr::Wait { dep: DepId::new(0) };
        let s = Instr::Signal { dep: DepId::new(0) };
        assert!(w.is_sync() && s.is_sync());
        assert!(!w.is_pure());
        assert!(w.uses().is_empty());
    }

    #[test]
    fn map_operands_rewrites_registers() {
        let mut i = Instr::Binary {
            dst: v(5),
            op: BinOp::Mul,
            lhs: Operand::Var(v(1)),
            rhs: Operand::Var(v(2)),
        };
        i.map_operands(|op| {
            if let Operand::Var(var) = op {
                *op = Operand::Var(VarId::new(var.0 + 10));
            }
        });
        assert_eq!(i.uses(), vec![v(11), v(12)]);
    }

    #[test]
    fn map_targets_rewrites_branches() {
        let mut i = Instr::CondBr {
            cond: Operand::int(1),
            then_bb: BlockId::new(0),
            else_bb: BlockId::new(1),
        };
        i.map_targets(|b| BlockId::new(b.0 + 5));
        assert_eq!(i.successors(), vec![BlockId::new(5), BlockId::new(6)]);
    }

    #[test]
    fn call_dst_rewrite() {
        let mut c = Instr::Call {
            dst: None,
            callee: FuncId::new(0),
            args: vec![Operand::int(1)],
        };
        assert!(c.is_call());
        assert!(c.may_read_memory() && c.may_write_memory());
        c.set_dst(v(9));
        assert_eq!(c.dst(), Some(v(9)));
    }

    #[test]
    fn operand_helpers() {
        assert!(Operand::int(3).is_const());
        assert!(Operand::Global(GlobalId::new(0)).is_const());
        assert_eq!(Operand::Var(v(2)).as_var(), Some(v(2)));
        assert_eq!(Operand::from(v(1)), Operand::Var(v(1)));
        assert_eq!(Operand::from(2i64), Operand::ConstInt(2));
        assert_eq!(Operand::from(2.0f64), Operand::ConstFloat(2.0));
    }
}
