//! The program-wide *static loop nesting graph* (HELIX Section 2.2).
//!
//! The classic loop nesting tree is per-function. HELIX extends it to whole-program scope: a
//! loop inside a function called from within another loop is a subloop of the calling loop.
//! Because a function can have multiple callers, the result is a graph rather than a tree.
//! The *dynamic* loop nesting graph used by loop selection is the subgraph whose edges were
//! actually traversed during profiling; it is derived from this static graph plus profile data
//! in `helix-core`.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dominators::DomTree;
use crate::loops::{LoopForest, LoopId};
use helix_ir::{BlockId, FuncId, Module};
use std::collections::HashMap;
use std::fmt;

/// Identifies one loop in the program-wide nesting graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopNodeId(pub u32);

impl LoopNodeId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LoopNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LoopNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One loop of the program, as a node of the nesting graph.
#[derive(Clone, Debug)]
pub struct LoopNode {
    /// This node's id.
    pub id: LoopNodeId,
    /// The function containing the loop.
    pub func: FuncId,
    /// The loop within that function's [`LoopForest`].
    pub loop_id: LoopId,
    /// The loop's header block.
    pub header: BlockId,
    /// Children: loops directly nested inside this one, either syntactically (same function)
    /// or through a call made from inside this loop.
    pub children: Vec<LoopNodeId>,
    /// Parents: the inverse of `children` (multiple parents are possible).
    pub parents: Vec<LoopNodeId>,
    /// Nesting depth within the graph (roots = 1); for nodes reachable through several paths
    /// this is the minimum depth.
    pub depth: usize,
}

/// The static loop nesting graph plus the per-function loop forests it was built from.
#[derive(Clone, Debug)]
pub struct LoopNestingGraph {
    /// All loop nodes.
    pub nodes: Vec<LoopNode>,
    /// Per-function loop forests, keyed by function.
    pub forests: HashMap<FuncId, LoopForest>,
    node_of: HashMap<(FuncId, LoopId), LoopNodeId>,
}

impl LoopNestingGraph {
    /// Builds the static loop nesting graph of `module`.
    pub fn new(module: &Module) -> Self {
        let callgraph = CallGraph::new(module);
        let mut forests: HashMap<FuncId, LoopForest> = HashMap::new();
        for func in module.function_ids() {
            let function = module.function(func);
            let cfg = Cfg::new(function);
            let dom = DomTree::new(function, &cfg);
            forests.insert(func, LoopForest::new(function, &cfg, &dom));
        }

        // Create one node per natural loop.
        let mut nodes: Vec<LoopNode> = Vec::new();
        let mut node_of: HashMap<(FuncId, LoopId), LoopNodeId> = HashMap::new();
        for func in module.function_ids() {
            for l in forests[&func].iter() {
                let id = LoopNodeId(nodes.len() as u32);
                node_of.insert((func, l.id), id);
                nodes.push(LoopNode {
                    id,
                    func,
                    loop_id: l.id,
                    header: l.header,
                    children: Vec::new(),
                    parents: Vec::new(),
                    depth: 1,
                });
            }
        }

        // Intra-function nesting edges.
        let mut edges: Vec<(LoopNodeId, LoopNodeId)> = Vec::new();
        for func in module.function_ids() {
            for l in forests[&func].iter() {
                let parent_node = node_of[&(func, l.id)];
                for &child in &l.children {
                    edges.push((parent_node, node_of[&(func, child)]));
                }
            }
        }

        // Interprocedural edges: a call inside loop P of function F to function G makes G's
        // top-level loops children of P. Only the innermost loop containing the call gets the
        // edge (outer loops inherit transitively through the intra-function edges).
        for site in &callgraph.call_sites {
            let forest = &forests[&site.caller];
            if let Some(containing) = forest.innermost_containing(site.at.block) {
                let parent_node = node_of[&(site.caller, containing)];
                for top in forests[&site.callee].top_level() {
                    let child_node = node_of[&(site.callee, top)];
                    if parent_node != child_node {
                        edges.push((parent_node, child_node));
                    }
                }
            }
        }

        for (parent, child) in edges {
            if !nodes[parent.index()].children.contains(&child) {
                nodes[parent.index()].children.push(child);
            }
            if !nodes[child.index()].parents.contains(&parent) {
                nodes[child.index()].parents.push(parent);
            }
        }

        // Depths: BFS from the roots; minimum depth over all paths. Cycles (recursion) are
        // handled by only relaxing depths downward a bounded number of times.
        let mut graph = Self {
            nodes,
            forests,
            node_of,
        };
        graph.compute_depths();
        graph
    }

    fn compute_depths(&mut self) {
        let roots: Vec<LoopNodeId> = self.roots();
        let mut depth: Vec<usize> = vec![usize::MAX; self.nodes.len()];
        let mut queue: std::collections::VecDeque<LoopNodeId> = std::collections::VecDeque::new();
        for r in roots {
            depth[r.index()] = 1;
            queue.push_back(r);
        }
        while let Some(n) = queue.pop_front() {
            let d = depth[n.index()];
            for &c in &self.nodes[n.index()].children {
                if depth[c.index()] > d + 1 {
                    depth[c.index()] = d + 1;
                    queue.push_back(c);
                }
            }
        }
        for node in &mut self.nodes {
            node.depth = if depth[node.id.index()] == usize::MAX {
                1
            } else {
                depth[node.id.index()]
            };
        }
    }

    /// Number of loops in the program.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the program has no loops.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: LoopNodeId) -> &LoopNode {
        &self.nodes[id.index()]
    }

    /// Returns the node of a (function, loop) pair, if it exists.
    pub fn node_for(&self, func: FuncId, loop_id: LoopId) -> Option<LoopNodeId> {
        self.node_of.get(&(func, loop_id)).copied()
    }

    /// Nodes with no parents (outermost loops of the program).
    pub fn roots(&self) -> Vec<LoopNodeId> {
        self.nodes
            .iter()
            .filter(|n| n.parents.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Iterates over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = &LoopNode> {
        self.nodes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_ir::builder::{FunctionBuilder, ModuleBuilder};
    use helix_ir::{BinOp, Operand};

    /// Mirrors the paper's 179.art example in miniature: `main` has a loop that calls
    /// `reset_nodes` (which contains two loops), and `scan_recognize` has a loop that also
    /// calls `reset_nodes`. The nesting graph is therefore not a tree.
    fn art_like_module() -> (Module, FuncId, FuncId, FuncId) {
        let mut mb = ModuleBuilder::new("art");
        let reset_id = mb.declare_function("reset_nodes", 1);
        let scan_id = mb.declare_function("scan_recognize", 1);
        let main_id = mb.declare_function("main", 0);

        // reset_nodes: two sequential loops.
        let mut reset = FunctionBuilder::new("reset_nodes", 1);
        let n = reset.param(0);
        let acc = reset.new_var();
        reset.const_int(acc, 0);
        let l1 = reset.counted_loop(Operand::int(0), Operand::Var(n), 1);
        reset.binary(
            acc,
            BinOp::Add,
            Operand::Var(acc),
            Operand::Var(l1.induction_var),
        );
        reset.br(l1.latch);
        reset.switch_to(l1.exit);
        let l2 = reset.counted_loop(Operand::int(0), Operand::Var(n), 1);
        reset.binary(acc, BinOp::Add, Operand::Var(acc), Operand::int(1));
        reset.br(l2.latch);
        reset.switch_to(l2.exit);
        reset.ret(Some(Operand::Var(acc)));
        mb.define_function(reset_id, reset.finish());

        // scan_recognize: a loop calling reset_nodes.
        let mut scan = FunctionBuilder::new("scan_recognize", 1);
        let sn = scan.param(0);
        let r = scan.new_var();
        let l = scan.counted_loop(Operand::int(0), Operand::Var(sn), 1);
        scan.call(Some(r), reset_id, vec![Operand::Var(sn)]);
        scan.br(l.latch);
        scan.switch_to(l.exit);
        scan.ret(Some(Operand::Var(r)));
        mb.define_function(scan_id, scan.finish());

        // main: a loop calling reset_nodes, then a call to scan_recognize.
        let mut main = FunctionBuilder::new("main", 0);
        let r = main.new_var();
        let l = main.counted_loop(Operand::int(0), Operand::int(4), 1);
        main.call(Some(r), reset_id, vec![Operand::int(8)]);
        main.br(l.latch);
        main.switch_to(l.exit);
        main.call(Some(r), scan_id, vec![Operand::int(8)]);
        main.ret(Some(Operand::Var(r)));
        mb.define_function(main_id, main.finish());

        (mb.finish(), main_id, scan_id, reset_id)
    }

    #[test]
    fn graph_counts_all_loops() {
        let (m, _, _, _) = art_like_module();
        let g = LoopNestingGraph::new(&m);
        // reset_nodes has 2 loops, scan_recognize 1, main 1.
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.iter().count(), 4);
    }

    #[test]
    fn reset_loops_have_two_parents() {
        let (m, main_id, scan_id, reset_id) = art_like_module();
        let g = LoopNestingGraph::new(&m);
        // The loops of reset_nodes are children of both the main loop and the scan loop.
        let reset_loops: Vec<&LoopNode> = g.iter().filter(|n| n.func == reset_id).collect();
        assert_eq!(reset_loops.len(), 2);
        for node in &reset_loops {
            assert_eq!(node.parents.len(), 2, "called from two different loops");
            let parent_funcs: Vec<FuncId> = node.parents.iter().map(|p| g.node(*p).func).collect();
            assert!(parent_funcs.contains(&main_id));
            assert!(parent_funcs.contains(&scan_id));
        }
    }

    #[test]
    fn roots_and_depths() {
        let (m, main_id, scan_id, reset_id) = art_like_module();
        let g = LoopNestingGraph::new(&m);
        let roots = g.roots();
        // The main loop and the scan loop are roots (scan is called outside any loop).
        assert_eq!(roots.len(), 2);
        let root_funcs: Vec<FuncId> = roots.iter().map(|r| g.node(*r).func).collect();
        assert!(root_funcs.contains(&main_id));
        assert!(root_funcs.contains(&scan_id));
        // The reset loops sit at depth 2.
        for n in g.iter().filter(|n| n.func == reset_id) {
            assert_eq!(n.depth, 2);
        }
    }

    #[test]
    fn node_lookup_by_function_and_loop() {
        let (m, main_id, _, _) = art_like_module();
        let g = LoopNestingGraph::new(&m);
        let forest = &g.forests[&main_id];
        let top = forest.top_level()[0];
        let node = g.node_for(main_id, top).unwrap();
        assert_eq!(g.node(node).func, main_id);
        assert_eq!(g.node(node).loop_id, top);
    }

    #[test]
    fn loop_free_program_has_empty_graph() {
        let mut mb = ModuleBuilder::new("flat");
        let mut f = FunctionBuilder::new("main", 0);
        f.ret(None);
        mb.add_function(f.finish());
        let g = LoopNestingGraph::new(&mb.finish());
        assert!(g.is_empty());
        assert!(g.roots().is_empty());
    }
}
