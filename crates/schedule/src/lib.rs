//! # mdbs-schedule
//!
//! Schedule theory for the MDBS reproduction: histories (operation logs),
//! conflict relations, serialization graphs, conflict-serializability (CSR)
//! testing, and a brute-force serializability oracle used to validate the
//! polynomial checker in property tests.
//!
//! Terminology follows the paper and Papadimitriou's *The Theory of Database
//! Concurrency Control*:
//!
//! - A **history** ([`history::History`]) is a totally ordered sequence of
//!   data operations, as recorded by one local DBMS (a *local schedule*
//!   `S_k`).
//! - Two operations **conflict** iff they belong to different transactions,
//!   access the same item, and at least one is a write.
//! - The **serialization graph** ([`csr::serialization_graph`]) has one node
//!   per committed transaction and an edge `T_i -> T_j` whenever some
//!   operation of `T_i` precedes and conflicts with an operation of `T_j`.
//! - A history is **CSR** iff its serialization graph is acyclic
//!   (Serializability Theorem).
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
pub use graph::DiGraph;
pub use history::History;
pub use oracle::is_serializable_by_enumeration;
pub use ugraph::UnGraph;
