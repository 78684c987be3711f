//! SPJ query representation: table references, predicates, equi-join
//! conditions, join graphs and a small SQL-ish parser.

pub mod canonical;
pub mod expr;
pub mod join_graph;
pub mod parser;
pub mod spj;
pub mod table_set;

pub use canonical::CanonicalForm;
pub use expr::{CmpOp, ColRef, JoinCond, Predicate, TableRef};
pub use join_graph::JoinGraph;
pub use parser::parse_query;
pub use spj::SpjQuery;
pub use table_set::TableSet;
