//! The reference canonical sub-query key: every element formatted,
//! sorted and joined per call, the way `SpjQuery::canonical_key` was
//! first written. The engine cuts keys out of a per-query
//! [`lqo_engine::CanonicalForm`] instead; the plan cache, the inference
//! memo, the true-cardinality oracle and injected estimates all key on
//! these bytes, so the two must agree byte for byte.

use lqo_engine::{SpjQuery, TableSet};

/// The canonical key of the sub-query of `query` induced by `set`,
/// built from scratch.
pub fn reference_canonical_key(query: &SpjQuery, set: TableSet) -> String {
    let mut tables: Vec<String> = set
        .iter()
        .map(|p| format!("{} {}", query.tables[p].table, query.tables[p].alias))
        .collect();
    tables.sort();
    let mut preds: Vec<String> = set
        .iter()
        .flat_map(|p| query.predicates_on(p))
        .map(|p| p.to_string())
        .collect();
    preds.sort();
    let mut joins: Vec<String> = query
        .joins_within(set)
        .iter()
        .map(|j| {
            let a = j.left.to_string();
            let b = j.right.to_string();
            if a <= b {
                format!("{a}={b}")
            } else {
                format!("{b}={a}")
            }
        })
        .collect();
    joins.sort();
    format!(
        "F[{}]J[{}]P[{}]",
        tables.join(","),
        joins.join(","),
        preds.join(",")
    )
}
