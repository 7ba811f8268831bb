//! Graph import/export: Graphviz DOT, JSON, and a simple edge-list format.

use crate::graph::{DiGraph, DiGraphBuilder, PortAssignment};
use crate::json::JsonValue;
use crate::types::NodeId;
use crate::{GraphError, Result};
use std::fmt::Write as _;

/// Renders the graph in Graphviz DOT syntax (directed, weights as labels).
pub fn to_dot(g: &DiGraph) -> String {
    let mut out = String::new();
    out.push_str("digraph G {\n");
    for u in g.nodes() {
        let _ = writeln!(out, "  {};", u.0);
    }
    for u in g.nodes() {
        for e in g.out_edges(u) {
            let _ = writeln!(
                out,
                "  {} -> {} [label=\"{}\", port=\"{}\"];",
                u.0, e.to.0, e.weight, e.port.0
            );
        }
    }
    out.push_str("}\n");
    out
}

/// Serializes the graph to JSON.
///
/// The format is an object `{"n": <nodes>, "edges": [[from, to, weight,
/// port], …]}`, written by [`JsonValue`]. Ports are carried explicitly so
/// that a roundtrip through [`from_json`] reproduces the adversarial port
/// assignment bit for bit.
///
/// # Errors
///
/// Returns [`GraphError::Serde`] if serialization fails (it does not for valid graphs).
pub fn to_json(g: &DiGraph) -> Result<String> {
    let edges = g
        .nodes()
        .flat_map(|u| {
            g.out_edges(u).iter().map(move |e| {
                vec![u.0.into(), e.to.0.into(), e.weight.into(), e.port.0.into()].into()
            })
        })
        .collect::<Vec<JsonValue>>();
    Ok(JsonValue::object([("n", g.node_count().into()), ("edges", edges.into())]).to_string())
}

/// Deserializes a graph from JSON produced by [`to_json`].
///
/// # Errors
///
/// Returns [`GraphError::Serde`] if the JSON is malformed or a node id or
/// port does not fit in `u32`.
pub fn from_json(json: &str) -> Result<DiGraph> {
    let doc = JsonValue::parse(json).map_err(GraphError::Serde)?;
    let n = doc.field("n").and_then(JsonValue::as_u64).map_err(GraphError::Serde)?;
    let n = usize::try_from(n).map_err(|_| GraphError::Serde("node count out of range".into()))?;
    let narrow = |value: &JsonValue, what: &str| {
        let value = value.as_u64().map_err(GraphError::Serde)?;
        u32::try_from(value).map_err(|_| GraphError::Serde(format!("{what} {value} out of range")))
    };
    let mut edges: Vec<(u32, u32, u64, u32)> = Vec::new();
    for edge in doc.field("edges").and_then(JsonValue::as_array).map_err(GraphError::Serde)? {
        let [from, to, weight, port] = edge.as_array().map_err(GraphError::Serde)? else {
            return Err(GraphError::Serde(format!(
                "expected [from, to, weight, port], found {edge}"
            )));
        };
        let weight = weight.as_u64().map_err(GraphError::Serde)?;
        edges.push((
            narrow(from, "node id")?,
            narrow(to, "node id")?,
            weight,
            narrow(port, "port")?,
        ));
    }

    let mut b = DiGraphBuilder::new(n);
    // Build with consecutive ports first, then overwrite with the explicit
    // ports carried in the file via the builder's explicit-port hook.
    b.port_assignment(PortAssignment::Consecutive);
    for &(from, to, weight, _) in &edges {
        b.add_edge(NodeId(from), NodeId(to), weight)?;
    }
    let mut g = b.build()?;
    g.reassign_ports(edges.iter().map(|&(from, to, _, port)| (NodeId(from), NodeId(to), port)))?;
    Ok(g)
}

/// Renders the graph as a plain edge list: one `from to weight` triple per
/// line, preceded by a header line `n m`.
pub fn to_edge_list(g: &DiGraph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", g.node_count(), g.edge_count());
    for u in g.nodes() {
        for e in g.out_edges(u) {
            let _ = writeln!(out, "{} {} {}", u.0, e.to.0, e.weight);
        }
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`]. Ports are
/// assigned with [`PortAssignment::Consecutive`].
///
/// # Errors
///
/// Returns [`GraphError::Serde`] on malformed input, or the corresponding
/// builder error on invalid edges.
pub fn from_edge_list(text: &str) -> Result<DiGraph> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| GraphError::Serde("missing header".into()))?;
    let mut parts = header.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| GraphError::Serde("bad node count".into()))?;
    let m: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| GraphError::Serde("bad edge count".into()))?;
    let mut b = DiGraphBuilder::new(n);
    b.port_assignment(PortAssignment::Consecutive);
    let mut count = 0;
    for line in lines {
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| GraphError::Serde(format!("bad edge line: {line}")))?;
        let v: u32 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| GraphError::Serde(format!("bad edge line: {line}")))?;
        let w: u64 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| GraphError::Serde(format!("bad edge line: {line}")))?;
        b.add_edge(NodeId(u), NodeId(v), w)?;
        count += 1;
    }
    if count != m {
        return Err(GraphError::Serde(format!("expected {m} edges, found {count}")));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::strongly_connected_gnp;

    #[test]
    fn dot_contains_all_edges() {
        let g = strongly_connected_gnp(10, 0.2, 1).unwrap();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph G {"));
        assert_eq!(dot.matches("->").count(), g.edge_count());
    }

    #[test]
    fn json_roundtrip_preserves_structure() {
        let g = strongly_connected_gnp(20, 0.1, 2).unwrap();
        let json = to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for u in g.nodes() {
            assert_eq!(g.out_edges(u), g2.out_edges(u));
        }
        // Weights are exact over all of u64.
        let mut b = DiGraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), u64::MAX).unwrap();
        b.add_edge(NodeId(1), NodeId(0), (1 << 53) + 1).unwrap();
        let g = from_json(&to_json(&b.build().unwrap()).unwrap()).unwrap();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(u64::MAX));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some((1 << 53) + 1));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(matches!(from_json("not json"), Err(GraphError::Serde(_))));
    }

    #[test]
    fn from_json_rejects_out_of_range_ids() {
        // 2^32 + 1 must not silently wrap to node 1.
        let bad = "{\"n\":3,\"edges\":[[4294967297,1,5,0]]}";
        assert!(matches!(from_json(bad), Err(GraphError::Serde(_))));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = strongly_connected_gnp(15, 0.15, 3).unwrap();
        let text = to_edge_list(&g);
        let g2 = from_edge_list(&text).unwrap();
        assert_eq!(g.node_count(), g2.node_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        for u in g.nodes() {
            for e in g.out_edges(u) {
                assert_eq!(g2.edge_weight(u, e.to), Some(e.weight));
            }
        }
    }

    #[test]
    fn edge_list_rejects_bad_counts() {
        let text = "2 5\n0 1 1\n";
        assert!(matches!(from_edge_list(text), Err(GraphError::Serde(_))));
    }

    #[test]
    fn edge_list_rejects_missing_header() {
        assert!(matches!(from_edge_list("   \n"), Err(GraphError::Serde(_))));
    }
}
