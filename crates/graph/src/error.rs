//! Error type for graph construction and queries.

use crate::types::NodeId;
use std::error::Error;
use std::fmt;

/// Errors produced while building or querying a [`crate::DiGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node id referenced a node outside `0..n`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// An edge was added with weight zero (weights must be strictly positive).
    ZeroWeight {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// A duplicate directed edge `(from, to)` was added.
    DuplicateEdge {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
    },
    /// A self-loop was added; the routing model has no use for them.
    SelfLoop {
        /// The node with the loop.
        node: NodeId,
    },
    /// The graph is not strongly connected but the operation requires it.
    NotStronglyConnected {
        /// Number of strongly connected components found.
        components: usize,
    },
    /// The graph has no nodes.
    EmptyGraph,
    /// Port numbers assigned to a node's out-edges collide.
    DuplicatePort {
        /// The node whose ports collide.
        node: NodeId,
        /// The colliding port number.
        port: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::ZeroWeight { from, to } => {
                write!(f, "edge ({from}, {to}) has zero weight; weights must be positive")
            }
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "duplicate directed edge ({from}, {to})")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at {node} is not allowed"),
            GraphError::NotStronglyConnected { components } => write!(
                f,
                "graph is not strongly connected ({components} strongly connected components)"
            ),
            GraphError::EmptyGraph => write!(f, "graph has no nodes"),
            GraphError::DuplicatePort { node, port } => {
                write!(f, "duplicate out-port {port} at node {node}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = GraphError::ZeroWeight { from: NodeId(0), to: NodeId(1) };
        let msg = e.to_string();
        assert!(msg.contains("zero weight"));
        assert!(msg.starts_with(char::is_lowercase));

        let e = GraphError::NotStronglyConnected { components: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
