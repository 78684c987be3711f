//! Canonical sub-query keys, built once per query.
//!
//! The canonical key of a sub-query is the sorted list of its tables,
//! its join conditions (sides ordered) and its predicates. Callers that
//! key many sub-queries of one query — learned-steering injection, the
//! oracle's intermediate labels — format and sort those elements once in
//! a [`CanonicalForm`] and then cut each sub-query's key out of it by
//! position mask, instead of re-formatting every element per key.

use crate::query::spj::SpjQuery;
use crate::query::table_set::TableSet;

/// The formatted, sorted elements of every sub-query inside one table set
/// of one query. [`CanonicalForm::key`] yields exactly the bytes
/// [`SpjQuery::canonical_key`] defines for any subset of that set.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    within: TableSet,
    /// `"table alias"` per position, sorted, with the position's bit.
    tables: Vec<(String, u64)>,
    /// `"a=b"` per resolvable join (sides ordered), sorted, with the
    /// bits of both sides.
    joins: Vec<(String, u64)>,
    /// Each predicate per position its alias names, sorted, with that
    /// position's bit.
    preds: Vec<(String, u64)>,
    /// No key of this form is longer.
    max_len: usize,
}

impl CanonicalForm {
    /// Format and sort the elements of `query` inside `within`.
    pub fn of(query: &SpjQuery, within: TableSet) -> CanonicalForm {
        let bit = |p: usize| TableSet::singleton(p).0;
        let mut tables: Vec<(String, u64)> = within
            .iter()
            .map(|p| {
                let t = &query.tables[p];
                (format!("{} {}", t.table, t.alias), bit(p))
            })
            .collect();
        tables.sort_unstable();
        let mut joins: Vec<(String, u64)> = query
            .joins
            .iter()
            .filter_map(|j| {
                let (Ok(l), Ok(r)) = (query.col_pos(&j.left), query.col_pos(&j.right)) else {
                    return None;
                };
                if !(within.contains(l) && within.contains(r)) {
                    return None;
                }
                let a = j.left.to_string();
                let b = j.right.to_string();
                let s = if a <= b {
                    format!("{a}={b}")
                } else {
                    format!("{b}={a}")
                };
                Some((s, bit(l) | bit(r)))
            })
            .collect();
        joins.sort_unstable();
        let mut preds: Vec<(String, u64)> = within
            .iter()
            .flat_map(|p| {
                query
                    .predicates_on(p)
                    .into_iter()
                    .map(move |pred| (pred.to_string(), bit(p)))
            })
            .collect();
        preds.sort_unstable();
        let max_len = [&tables, &joins, &preds]
            .iter()
            .flat_map(|part| part.iter())
            .map(|(s, _)| s.len() + 1)
            .sum::<usize>()
            + 9;
        CanonicalForm {
            within,
            tables,
            joins,
            preds,
            max_len,
        }
    }

    /// The canonical key of the sub-query induced by `set`, a subset of
    /// the set this form was built over.
    pub fn key(&self, set: TableSet) -> String {
        debug_assert!(set.is_subset_of(self.within), "{set:?} outside the form");
        let mut key = String::with_capacity(self.max_len);
        key.push_str("F[");
        push_joined(&mut key, &self.tables, set);
        key.push_str("]J[");
        push_joined(&mut key, &self.joins, set);
        key.push_str("]P[");
        push_joined(&mut key, &self.preds, set);
        key.push(']');
        key
    }
}

/// Append the elements whose positions all lie in `set`, comma-joined.
fn push_joined(key: &mut String, elems: &[(String, u64)], set: TableSet) {
    let mut first = true;
    for (s, mask) in elems {
        if mask & !set.0 != 0 {
            continue;
        }
        if !first {
            key.push(',');
        }
        key.push_str(s);
        first = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;

    #[test]
    fn one_form_keys_every_subset_like_a_fresh_one() {
        let q = parse_query(
            "SELECT COUNT(*) FROM users u, posts p, comments c \
             WHERE u.id = p.owner_user_id AND p.id = c.post_id AND p.score > 3 AND u.views < 9",
        )
        .unwrap();
        let form = CanonicalForm::of(&q, q.all_tables());
        for bits in 1..8u64 {
            let set = TableSet(bits);
            assert_eq!(form.key(set), CanonicalForm::of(&q, set).key(set));
        }
        assert_eq!(
            form.key(TableSet(0b011)),
            "F[posts p,users u]J[p.owner_user_id=u.id]P[p.score > 3,u.views < 9]"
        );
    }
}
