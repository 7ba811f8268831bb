//! Strongly connected components (iterative Tarjan).
//!
//! Every scheme in the paper requires a strongly connected input graph
//! (§1.1); `DiGraph::require_strongly_connected` uses the decomposition for
//! validation.

use crate::graph::DiGraph;
use crate::types::NodeId;

/// Computes the strongly connected components of `g`.
///
/// Returns the components as vectors of node ids, in Tarjan's completion
/// order (a component appears before every component that has an edge into
/// it). Each node appears in exactly one component.
///
/// The implementation is an iterative Tarjan so that large graphs do not
/// overflow the call stack.
pub fn strongly_connected_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut index_counter: u32 = 0;
    let mut index: Vec<Option<u32>> = vec![None; n];
    let mut lowlink: Vec<u32> = vec![0; n];
    let mut on_stack: Vec<bool> = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut components: Vec<Vec<NodeId>> = Vec::new();

    // Explicit DFS state: (node, next out-edge position to explore).
    let mut call_stack: Vec<(NodeId, usize)> = Vec::new();

    for start in g.nodes() {
        if index[start.index()].is_some() {
            continue;
        }
        call_stack.push((start, 0));
        while let Some(&mut (v, ref mut next_edge)) = call_stack.last_mut() {
            if *next_edge == 0 {
                // First visit of v.
                index[v.index()] = Some(index_counter);
                lowlink[v.index()] = index_counter;
                index_counter += 1;
                stack.push(v);
                on_stack[v.index()] = true;
            }
            let out = g.out_edges(v);
            if *next_edge < out.len() {
                let w = out[*next_edge].to;
                *next_edge += 1;
                match index[w.index()] {
                    None => call_stack.push((w, 0)),
                    Some(widx) => {
                        if on_stack[w.index()] {
                            lowlink[v.index()] = lowlink[v.index()].min(widx);
                        }
                    }
                }
            } else {
                // All successors explored: close v.
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent.index()] = lowlink[parent.index()].min(lowlink[v.index()]);
                }
                if Some(lowlink[v.index()]) == index[v.index()] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w.index()] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DiGraphBuilder;

    #[test]
    fn single_cycle_is_one_component() {
        let mut b = DiGraphBuilder::new(5);
        for i in 0..5u32 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 5), 1).unwrap();
        }
        let g = b.build().unwrap();
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 5);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn path_graph_has_n_components() {
        let mut b = DiGraphBuilder::new(4);
        for i in 0..3u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1).unwrap();
        }
        let g = b.build().unwrap();
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 4);
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn two_cycles_joined_by_one_edge() {
        let mut b = DiGraphBuilder::new(6);
        for i in 0..3u32 {
            b.add_edge(NodeId(i), NodeId((i + 1) % 3), 1).unwrap();
            b.add_edge(NodeId(3 + i), NodeId(3 + (i + 1) % 3), 1).unwrap();
        }
        b.add_edge(NodeId(0), NodeId(3), 1).unwrap();
        let g = b.build().unwrap();
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn components_partition_the_nodes() {
        let mut b = DiGraphBuilder::new(10);
        for i in 0..9u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1).unwrap();
        }
        b.add_edge(NodeId(4), NodeId(0), 1).unwrap();
        b.add_edge(NodeId(9), NodeId(5), 1).unwrap();
        let g = b.build().unwrap();
        let comps = strongly_connected_components(&g);
        let mut all: Vec<NodeId> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, g.nodes().collect::<Vec<_>>());
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn deep_path_does_not_overflow_stack() {
        // 50k-node path: a recursive Tarjan would overflow; the iterative one
        // must handle it.
        let n = 50_000usize;
        let mut b = DiGraphBuilder::new(n);
        for i in 0..(n - 1) as u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), 1).unwrap();
        }
        let g = b.build().unwrap();
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), n);
    }

    #[test]
    fn singleton_graph() {
        let b = DiGraphBuilder::new(1);
        let g = b.build().unwrap();
        let comps = strongly_connected_components(&g);
        assert_eq!(comps.len(), 1);
        assert!(g.is_strongly_connected());
    }
}
