//! Query featurization for query-driven estimators: a flat vector encoding
//! (tables, joins, predicate ranges) plus the set-based encoding MSCN
//! consumes.

use std::collections::HashMap;

use lqo_engine::query::expr::CmpOp;
use lqo_engine::{Catalog, CatalogStats, SpjQuery, TableSet, Value};

/// Featurizes `(query, subset)` pairs against a fixed schema. Tables,
/// columns and join slots resolve by lookup on the query's own names, so
/// featurizing allocates no strings.
pub struct Featurizer {
    table_idx: HashMap<String, usize>,
    /// Per table: column name → global column id (schema order, tables
    /// in catalog order).
    col_idx: Vec<HashMap<String, usize>>,
    /// `(min, max)` of each column's numeric view, by global column id.
    col_range: Vec<(f64, f64)>,
    /// Join slot of each FK edge, keyed by its two global column ids in
    /// ascending order.
    join_idx: HashMap<(usize, usize), usize>,
    /// Distinct FK edges; the overflow slot follows them.
    num_join_slots: usize,
    /// log(nrows+1) per table, for the MSCN table features.
    log_rows: Vec<f64>,
}

impl Featurizer {
    /// Build from a catalog and its statistics. Join slots are taken from
    /// the declared foreign keys (the workload generators only join along
    /// FK edges, as JOB and STATS-CEB do).
    pub fn new(catalog: &Catalog, stats: &CatalogStats) -> Featurizer {
        let mut table_idx = HashMap::new();
        let mut col_idx = Vec::new();
        let mut col_range = Vec::new();
        let mut log_rows = Vec::new();
        for t in catalog.tables() {
            table_idx.insert(t.name().to_string(), log_rows.len());
            log_rows.push((t.nrows() as f64 + 1.0).ln());
            let ts = stats.table(t.name());
            let mut cols = HashMap::new();
            for (ci, def) in t.schema.columns.iter().enumerate() {
                cols.insert(def.name.clone(), col_range.len());
                let range = ts
                    .map(|s| (s.columns[ci].min, s.columns[ci].max))
                    .unwrap_or((0.0, 1.0));
                col_range.push(range);
            }
            col_idx.push(cols);
        }
        let mut featurizer = Featurizer {
            table_idx,
            col_idx,
            col_range,
            join_idx: HashMap::new(),
            num_join_slots: 0,
            log_rows,
        };
        // One slot per distinct `t1.c1=t2.c2` edge, numbered in FK order.
        let mut slot_of_edge: HashMap<String, usize> = HashMap::new();
        for fk in catalog.foreign_keys() {
            let (a, b) = (
                format!("{}.{}", fk.table, fk.column),
                format!("{}.{}", fk.ref_table, fk.ref_column),
            );
            let edge = if a <= b {
                format!("{a}={b}")
            } else {
                format!("{b}={a}")
            };
            let next = slot_of_edge.len();
            let slot = *slot_of_edge.entry(edge).or_insert(next);
            let ids = (
                featurizer.col_id(&fk.table, &fk.column),
                featurizer.col_id(&fk.ref_table, &fk.ref_column),
            );
            if let (Some(x), Some(y)) = ids {
                featurizer.join_idx.insert((x.min(y), x.max(y)), slot);
            }
        }
        featurizer.num_join_slots = slot_of_edge.len();
        featurizer
    }

    /// Dimension of the flat feature vector.
    pub fn dim(&self) -> usize {
        self.num_tables() + self.num_join_slots + 1 + 2 * self.num_columns()
    }

    /// Number of tables known to the featurizer.
    pub(crate) fn num_tables(&self) -> usize {
        self.log_rows.len()
    }

    /// Number of columns known to the featurizer.
    pub fn num_columns(&self) -> usize {
        self.col_range.len()
    }

    /// Number of named join slots (the overflow slot comes after them).
    pub(crate) fn num_join_slots(&self) -> usize {
        self.num_join_slots
    }

    /// Global id of `table.column`.
    fn col_id(&self, table: &str, column: &str) -> Option<usize> {
        let t = *self.table_idx.get(table)?;
        self.col_idx[t].get(column).copied()
    }

    fn normalize(&self, col: usize, v: f64) -> f64 {
        let (lo, hi) = self.col_range[col];
        if hi > lo {
            ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
        } else {
            0.5
        }
    }

    fn pred_value(&self, v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            // Text equality is featurized through a pseudo-range on the
            // dictionary-code axis; unresolvable here, so centre it.
            Value::Text(_) => None,
            Value::Null => None,
        }
    }

    /// The predicates of `set` over known columns with their global
    /// column ids, table by table in position order.
    fn preds<'q>(
        &'q self,
        query: &'q SpjQuery,
        set: TableSet,
    ) -> impl Iterator<Item = (usize, &'q lqo_engine::Predicate)> + 'q {
        set.iter().flat_map(move |pos| {
            let tname = &query.tables[pos].table;
            query
                .predicates_on(pos)
                .into_iter()
                .filter_map(move |pred| Some((self.col_id(tname, &pred.col.column)?, pred)))
        })
    }

    /// Column ranges `[lo, hi]` (normalized) implied by the predicates of
    /// `set`, indexed by global column id. Unconstrained columns are
    /// `(0, 1)`.
    fn ranges(&self, query: &SpjQuery, set: TableSet) -> Vec<(f64, f64)> {
        let mut ranges: Vec<(f64, f64)> = vec![(0.0, 1.0); self.num_columns()];
        for (col, pred) in self.preds(query, set) {
            let v = match self.pred_value(&pred.value) {
                Some(v) => self.normalize(col, v),
                None => 0.5,
            };
            let r = &mut ranges[col];
            match pred.op {
                CmpOp::Eq => {
                    r.0 = r.0.max(v);
                    r.1 = r.1.min(v);
                }
                CmpOp::Lt | CmpOp::Le => r.1 = r.1.min(v),
                CmpOp::Gt | CmpOp::Ge => r.0 = r.0.max(v),
                CmpOp::Neq => {}
            }
        }
        ranges
    }

    /// Table index of the table at `pos` (`None` when the catalog does
    /// not hold it).
    pub(crate) fn table_slot(&self, query: &SpjQuery, pos: usize) -> Option<usize> {
        self.table_idx
            .get(query.tables[pos].table.as_str())
            .copied()
    }

    /// Join-slot index of a join condition within the query (`None` when
    /// it does not correspond to a known FK edge; it then lands in the
    /// overflow slot).
    pub(crate) fn join_slot(&self, query: &SpjQuery, cond: &lqo_engine::JoinCond) -> Option<usize> {
        let lp = query.col_pos(&cond.left).ok()?;
        let rp = query.col_pos(&cond.right).ok()?;
        let a = self.col_id(&query.tables[lp].table, &cond.left.column)?;
        let b = self.col_id(&query.tables[rp].table, &cond.right.column)?;
        self.join_idx.get(&(a.min(b), a.max(b))).copied()
    }

    /// The flat feature vector of `(query, set)`:
    /// `[table one-hot | join-slot one-hot + overflow | per-column (lo, hi)]`.
    pub fn featurize(&self, query: &SpjQuery, set: TableSet) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        for pos in set.iter() {
            if let Some(t) = self.table_slot(query, pos) {
                x[t] += 1.0; // self-joins count twice
            }
        }
        let joins_off = self.num_tables();
        for cond in query.joins_within(set) {
            let slot = self.join_slot(query, cond).unwrap_or(self.num_join_slots);
            x[joins_off + slot] += 1.0;
        }
        let cols_off = joins_off + self.num_join_slots + 1;
        for (c, (lo, hi)) in self.ranges(query, set).into_iter().enumerate() {
            x[cols_off + 2 * c] = lo;
            x[cols_off + 2 * c + 1] = hi;
        }
        x
    }

    // ---- MSCN set encodings ----

    /// Per-item dimension of the table set.
    pub fn table_item_dim(&self) -> usize {
        self.num_tables() + 1
    }

    /// Per-item dimension of the join set.
    pub fn join_item_dim(&self) -> usize {
        self.num_join_slots + 1
    }

    /// Per-item dimension of the predicate set.
    pub fn pred_item_dim(&self) -> usize {
        self.num_columns() + CmpOp::ALL.len() + 1
    }

    /// The table-set item of table index `t` (all zeros for a table the
    /// catalog does not hold).
    pub(crate) fn table_item(&self, t: Option<usize>) -> Vec<f64> {
        let mut item = vec![0.0; self.table_item_dim()];
        if let Some(t) = t {
            item[t] = 1.0;
            item[self.num_tables()] = self.log_rows[t] / 20.0;
        }
        item
    }

    /// The join-set item of join slot `slot` (`None`: overflow).
    pub(crate) fn join_item(&self, slot: Option<usize>) -> Vec<f64> {
        let mut item = vec![0.0; self.join_item_dim()];
        item[slot.unwrap_or(self.num_join_slots)] = 1.0;
        item
    }

    /// The predicate-set items of `(query, set)`.
    pub(crate) fn pred_items(&self, query: &SpjQuery, set: TableSet) -> Vec<Vec<f64>> {
        self.preds(query, set)
            .map(|(col, pred)| {
                let mut item = vec![0.0; self.pred_item_dim()];
                item[col] = 1.0;
                item[self.num_columns() + pred.op.index()] = 1.0;
                let v = self
                    .pred_value(&pred.value)
                    .map(|v| self.normalize(col, v))
                    .unwrap_or(0.5);
                item[self.num_columns() + CmpOp::ALL.len()] = v;
                item
            })
            .collect()
    }

    /// MSCN-style encoding: three sets (tables, joins, predicates).
    pub fn featurize_sets(&self, query: &SpjQuery, set: TableSet) -> Vec<Vec<Vec<f64>>> {
        let tset = set
            .iter()
            .map(|pos| self.table_item(self.table_slot(query, pos)))
            .collect();
        let jset = query
            .joins_within(set)
            .into_iter()
            .map(|cond| self.join_item(self.join_slot(query, cond)))
            .collect();
        vec![tset, jset, self.pred_items(query, set)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::test_support::fixture;
    use lqo_engine::TableSet;

    #[test]
    fn dimensions_are_consistent() {
        let (ctx, _, queries) = fixture();
        let f = Featurizer::new(&ctx.catalog, &ctx.stats);
        let q = &queries[1];
        let x = f.featurize(q, q.all_tables());
        assert_eq!(x.len(), f.dim());
        let sets = f.featurize_sets(q, q.all_tables());
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 3); // three tables
        assert_eq!(sets[1].len(), 2); // two joins
        assert_eq!(sets[0][0].len(), f.table_item_dim());
        assert_eq!(sets[2][0].len(), f.pred_item_dim());
    }

    #[test]
    fn subset_features_differ_from_full() {
        let (ctx, _, queries) = fixture();
        let f = Featurizer::new(&ctx.catalog, &ctx.stats);
        let q = &queries[1];
        let full = f.featurize(q, q.all_tables());
        let single = f.featurize(q, TableSet::singleton(0));
        assert_ne!(full, single);
        // Table one-hot counts the subset size.
        assert_eq!(full.iter().take(8).sum::<f64>(), 3.0);
        assert_eq!(single.iter().take(8).sum::<f64>(), 1.0);
    }

    #[test]
    fn predicate_ranges_encoded() {
        let (ctx, _, queries) = fixture();
        let f = Featurizer::new(&ctx.catalog, &ctx.stats);
        // Query 4 filters badges.class = 1 (domain {0,1,2} => norm 0.5).
        let q = &queries[3];
        let x = f.featurize(q, q.all_tables());
        // Some (lo, hi) pair must be pinched to a point at 0.5.
        let cols_off = f.num_tables() + f.num_join_slots() + 1;
        let pinched = (0..f.num_columns())
            .any(|c| x[cols_off + 2 * c] == 0.5 && x[cols_off + 2 * c + 1] == 0.5);
        assert!(pinched);
    }

    #[test]
    fn fk_joins_use_named_slots_not_overflow() {
        let (ctx, _, queries) = fixture();
        let f = Featurizer::new(&ctx.catalog, &ctx.stats);
        let q = &queries[0];
        let x = f.featurize(q, q.all_tables());
        let joins_off = f.num_tables();
        let overflow = x[joins_off + f.num_join_slots()];
        assert_eq!(overflow, 0.0);
        let named: f64 = x[joins_off..joins_off + f.num_join_slots()].iter().sum();
        assert_eq!(named, 1.0);
    }
}
