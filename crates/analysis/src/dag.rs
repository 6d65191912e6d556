//! The loop-collapsed target-path DAG.
//!
//! "A TargetPath is a path in a UG that starts from StartNode, and ends at
//! either the ExitNode or a StopNode, where none of the intermediate nodes
//! are StopNodes." There are exponentially many of them in sequential
//! branches, so the analysis never lists them: it works on the graph they
//! live in. [`TargetDag`] is the Unit Graph as reached from the start
//! node, with no edge leaving a stop node and without the edges a
//! depth-first search finds retreating to a node still on its stack. In a
//! reducible graph (every loop entered through its header) those are the
//! loop back edges, which no simple path can take, so the DAG's paths from
//! the start node to a terminal are exactly the target paths — and a back
//! edge is never a candidate split edge.

use mpart_ir::instr::Pc;

use crate::cost::EdgePos;
use crate::stop::StopNodes;
use crate::ug::{Edge, UnitGraph};

/// The target paths of a handler, as a DAG.
#[derive(Debug, Clone)]
pub struct TargetDag {
    start: Pc,
    succs: Vec<Vec<Pc>>,
    /// Stop nodes and nodes without Unit Graph successors.
    terminal: Vec<bool>,
    /// Instructions on the longest path start..=node (0: unreachable).
    depth: Vec<u64>,
    /// Instructions on the longest path node..=terminal (0: none).
    height: Vec<u64>,
    /// Target paths, saturating.
    paths: u64,
}

impl TargetDag {
    /// Builds the DAG of `ug`'s target paths (`ug` must not be empty).
    pub fn build(ug: &UnitGraph, stops: &StopNodes) -> Self {
        let (n, start) = (ug.len(), ug.start());
        let terminal: Vec<bool> =
            (0..n).map(|pc| stops.is_stop(pc) || ug.succs(pc).is_empty()).collect();
        let (mut succs, mut postorder) = (vec![Vec::new(); n], Vec::with_capacity(n));
        let (mut height, mut paths) = (vec![0; n], vec![0u64; n]);
        // 0 = unvisited, 1 = on the DFS stack, 2 = finished.
        let mut state = vec![0u8; n];
        state[start] = 1;
        let mut stack = vec![(start, 0)];
        while let Some((u, next)) = stack.last_mut() {
            let u = *u;
            let out = if stops.is_stop(u) { &[][..] } else { ug.succs(u) };
            if let Some(&v) = out.get(*next) {
                *next += 1;
                match state[v] {
                    1 => {} // retreating: a loop back edge
                    0 => {
                        state[v] = 1;
                        succs[u].push(v);
                        stack.push((v, 0));
                    }
                    _ => succs[u].push(v),
                }
                continue;
            }
            // Every DAG successor of `u` has finished.
            let longest = succs[u].iter().map(|&v| height[v]).filter(|&h| h > 0).max();
            height[u] = if terminal[u] { 1 } else { longest.map_or(0, |h| h + 1) };
            paths[u] = if terminal[u] {
                1
            } else {
                succs[u].iter().map(|&v| paths[v]).fold(0, u64::saturating_add)
            };
            state[u] = 2;
            postorder.push(u);
            stack.pop();
        }
        let mut depth = vec![0; n];
        depth[start] = 1;
        for &u in postorder.iter().rev() {
            for &v in &succs[u] {
                depth[v] = depth[v].max(depth[u] + 1);
            }
        }
        TargetDag { start, succs, terminal, depth, height, paths: paths[start] }
    }

    /// The start node.
    pub fn start(&self) -> Pc {
        self.start
    }

    /// Whether target paths end at `pc`: a stop node or an exit.
    pub fn is_terminal(&self, pc: Pc) -> bool {
        self.terminal[pc]
    }

    /// Every edge on some target path — the synthetic entry edge and the
    /// DAG edges whose head reaches a terminal — in ascending order (the
    /// entry edge last).
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for (from, ss) in self.succs.iter().enumerate() {
            out.extend(ss.iter().filter(|&&to| self.height[to] > 0).map(|&to| Edge::new(from, to)));
        }
        out.sort_unstable();
        if self.height[self.start] > 0 {
            out.push(Edge::entry(self.start));
        }
        out
    }

    /// Where `edge` sits on its target paths: the longest instruction
    /// counts before and after it.
    pub fn position(&self, edge: Edge) -> EdgePos {
        let before = if edge.is_entry() { 0 } else { self.depth[edge.from] };
        EdgePos { before, after: self.height[edge.to] }
    }

    /// Number of target paths, saturating at `u64::MAX`.
    pub fn path_count(&self) -> u64 {
        self.paths
    }

    /// Whether a DAG path from `from` over edges `usable` accepts reaches
    /// a node `goal` accepts (`from` itself included).
    pub fn reaches(
        &self,
        from: Pc,
        mut usable: impl FnMut(Edge) -> bool,
        goal: impl Fn(Pc) -> bool,
    ) -> bool {
        let mut seen = vec![false; self.succs.len()];
        seen[from] = true;
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            if goal(u) {
                return true;
            }
            for &v in &self.succs[u] {
                if !seen[v] && usable(Edge::new(u, v)) {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpart_ir::parse::parse_program;

    fn dag(src: &str) -> TargetDag {
        let p = parse_program(src).unwrap();
        let f = p.function("f").unwrap();
        TargetDag::build(&UnitGraph::build(f), &StopNodes::mark(f))
    }

    #[test]
    fn push_example_has_two_target_paths() {
        // The paper's push(): one path takes the early return, the other
        // runs the full processing to the native display.
        let d = dag(r#"
            class ImageData { width: int, buff: ref }
            fn f(event) {
                z0 = event instanceof ImageData
                if z0 == 0 goto skip
                r2 = (ImageData) event
                r4 = call resize(r2, 100, 100)
                native display_image(r4)
                return
            skip:
                return
            }
        "#);
        assert_eq!(d.path_count(), 2);
        // The native call ends its path: nothing leaves it.
        assert!(d.is_terminal(4) && !d.edges().iter().any(|e| e.from == 4));
        assert_eq!(d.position(Edge::entry(0)), EdgePos { before: 0, after: 5 });
        assert_eq!(d.position(Edge::new(1, 6)), EdgePos { before: 2, after: 1 });
    }

    #[test]
    fn loop_back_edge_is_collapsed() {
        let d = dag(r#"
            fn f(n) {
                i = 0
            head:
                if i >= n goto done
                i = i + 1
                goto head
            done:
                return i
            }
        "#);
        // The walk through the body dies at the back edge (3,1), so the
        // only target path is the loop-exit branch.
        assert_eq!(d.path_count(), 1);
        assert!(!d.edges().contains(&Edge::new(3, 1)));
        assert!(!d.edges().contains(&Edge::new(1, 2)), "the body reaches no terminal");
        assert_eq!(d.edges(), vec![Edge::new(0, 1), Edge::new(1, 4), Edge::entry(0)]);
    }

    #[test]
    fn early_stop_cuts_path_short() {
        let d = dag("global g = 0\nfn f(x) {\n  a = global::g\n  b = a + x\n  return b\n}\n");
        // The global read at pc 0 is a stop node: the single target path
        // is just [0], whose only edge is the entry edge.
        assert_eq!(d.path_count(), 1);
        assert_eq!(d.edges(), vec![Edge::entry(0)]);
    }

    #[test]
    fn path_count_saturates_instead_of_enumerating() {
        let mut src = String::from("fn f(x) {\n");
        for i in 0..70 {
            src.push_str(&format!("  if x == {i} goto a{i}\n  t = {i}\na{i}:\n"));
        }
        src.push_str("  return x\n}\n");
        assert_eq!(dag(&src).path_count(), u64::MAX);
    }
}
