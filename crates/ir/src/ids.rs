//! Strongly typed identifiers for IR entities.
//!
//! Each identifier is a thin newtype over `u32` so they are cheap to copy and hash while
//! statically distinguishing functions, blocks, virtual registers, globals and HELIX
//! synchronization dependences from one another (C-NEWTYPE).
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index backing this identifier.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self(index)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_type!(
    /// Identifies a function within a [`crate::module::Module`].
    FuncId,
    "fn"
);
id_type!(
    /// Identifies a basic block within a [`crate::function::Function`].
    BlockId,
    "bb"
);
id_type!(
    /// Identifies a virtual register (local variable) within a function.
    VarId,
    "%v"
);
id_type!(
    /// Identifies a global memory object within a module.
    GlobalId,
    "@g"
);
id_type!(
    /// Identifies a loop-carried data dependence synchronized with `Wait`/`Signal`.
    ///
    /// HELIX Step 4 assigns one `DepId` per dependence in `D_data`; Step 6 may later retire
    /// some of them when they are redundant (Theorem 1).
    DepId,
    "dep"
);

/// A stable reference to one instruction: the block it lives in plus its index inside that
/// block's instruction vector.
///
/// Instruction indices are invalidated by insertions/removals earlier in the same block, so
/// passes that rewrite code re-derive `InstrRef`s after each mutation phase.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstrRef {
    /// Block containing the instruction.
    pub block: BlockId,
    /// Index of the instruction within the block.
    pub index: usize,
}

impl InstrRef {
    /// Creates a reference to the instruction at `index` in `block`.
    pub const fn new(block: BlockId, index: usize) -> Self {
        Self { block, index }
    }
}

impl fmt::Display for InstrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.block, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_through_u32() {
        let f = FuncId::from(7u32);
        assert_eq!(u32::from(f), 7);
        assert_eq!(f.index(), 7);
        let b = BlockId::new(3);
        assert_eq!(b.index(), 3);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(FuncId::new(1).to_string(), "fn1");
        assert_eq!(BlockId::new(2).to_string(), "bb2");
        assert_eq!(VarId::new(3).to_string(), "%v3");
        assert_eq!(GlobalId::new(4).to_string(), "@g4");
        assert_eq!(DepId::new(5).to_string(), "dep5");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(VarId::new(0));
        set.insert(VarId::new(1));
        set.insert(VarId::new(0));
        assert_eq!(set.len(), 2);
        assert!(BlockId::new(1) < BlockId::new(2));
    }

    #[test]
    fn instr_ref_display() {
        let r = InstrRef::new(BlockId::new(4), 9);
        assert_eq!(r.to_string(), "bb4[9]");
        assert_eq!(r, InstrRef::new(BlockId::new(4), 9));
    }
}
