//! # mdbs-schedule
//!
//! Schedule theory for the MDBS reproduction: histories (operation logs),
//! conflict relations, serialization graphs, conflict-serializability (CSR)
//! testing, and brute-force serializability oracles used to validate the
//! linear checker in property and exhaustive small-scope tests.
//!
//! Terminology follows the paper and Papadimitriou's *The Theory of Database
//! Concurrency Control*:
//!
//! - A **history** ([`history::History`]) is a totally ordered sequence of
//!   data operations, as recorded by one local DBMS (a *local schedule*
//!   `S_k`).
//! - Two operations **conflict** iff they belong to different transactions,
//!   access the same item, and at least one is a write.
//! - The **serialization graph** has one node per committed transaction and
//!   an edge `T_i -> T_j` whenever some operation of `T_i` precedes and
//!   conflicts with an operation of `T_j`.
//! - A history is **CSR** iff its serialization graph is acyclic
//!   (Serializability Theorem).
//! - Acyclicity, reachability and the smallest witness serial order are
//!   properties of the graph's *transitive closure*, so what
//!   [`csr::serialization_graph`] builds is a reduction with the same
//!   closure: one linear sweep per history (per item, the last writer and
//!   the readers since it), `O(ops)` edges. The pair-by-pair relation is
//!   [`oracle::all_pairs_serialization_graph`], kept as the ground truth
//!   for tests, and every topological order in the workspace comes from
//!   one Kahn, [`graph::lex_topo_ranks`], which [`graph::lex_topo_order`]
//!   wraps for callers that hold node ids rather than ranks.
//! - The **global schedule** is the union of local schedules; the paper's
//!   Theorem 1 concern is the *quotient* graph where all subtransactions of
//!   one global transaction collapse into a single node
//!   ([`global::GlobalSerializationGraph`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csr;
pub mod dsu;
pub mod global;
pub mod graph;
pub mod history;
pub mod oracle;
pub mod ugraph;

pub use csr::{is_conflict_serializable, serialization_graph, CsrReport};
pub use dsu::UnionFind;
pub use global::{GlobalSerializability, GlobalSerializationGraph};
pub use graph::{lex_topo_order, lex_topo_ranks, DiGraph};
pub use history::History;
pub use oracle::{all_pairs_serialization_graph, is_serializable_by_enumeration};
pub use ugraph::UnGraph;
