//! Aggregated statistics per column, table and catalog.

use std::collections::HashMap;

use crate::column::Column;
use crate::error::Result;
use crate::query::expr::CmpOp;
use crate::stats::histogram::EquiDepthHistogram;
use crate::stats::hll::{ndv_f64, ndv_i64};
use crate::stats::mcv::Mcv;
use crate::stats::sample::reservoir_sample;
use crate::table::Table;
use crate::types::{DataType, Value};
use crate::Catalog;

/// Knobs for statistics collection.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Histogram buckets per numeric column.
    pub histogram_buckets: usize,
    /// MCV list length.
    pub mcv_entries: usize,
    /// Reservoir sample size per table.
    pub sample_size: usize,
    /// RNG seed for sampling.
    pub seed: u64,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            histogram_buckets: 64,
            mcv_entries: 16,
            sample_size: 1024,
            seed: 0x5EED,
        }
    }
}

/// Statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Logical type.
    pub dtype: DataType,
    /// Minimum (numeric view; text uses dictionary codes).
    pub min: f64,
    /// Maximum (numeric view).
    pub max: f64,
    /// Estimated number of distinct values.
    pub ndv: f64,
    /// Equi-depth histogram (numeric columns only).
    pub histogram: Option<EquiDepthHistogram>,
    /// Most common values.
    pub mcv: Mcv,
}

/// Default selectivity for predicates the statistics cannot reason about
/// (mirrors PostgreSQL's `DEFAULT_INEQ_SEL`).
const DEFAULT_SEL: f64 = 1.0 / 3.0;

impl ColumnStats {
    /// Build from a column.
    pub fn build(col: &Column, cfg: &StatsConfig) -> ColumnStats {
        match col {
            Column::Int(v) => {
                let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                ColumnStats {
                    dtype: DataType::Int,
                    min: f.iter().copied().fold(f64::INFINITY, f64::min),
                    max: f.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    ndv: ndv_i64(v).max(1.0),
                    histogram: EquiDepthHistogram::build(&f, cfg.histogram_buckets),
                    mcv: Mcv::build_i64(v, cfg.mcv_entries),
                }
            }
            Column::Float(v) => ColumnStats {
                dtype: DataType::Float,
                min: v.iter().copied().fold(f64::INFINITY, f64::min),
                max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                ndv: ndv_f64(v).max(1.0),
                histogram: EquiDepthHistogram::build(v, cfg.histogram_buckets),
                mcv: Mcv::build_i64(&[], 0), // floats rarely repeat; skip MCV
            },
            Column::Text { dict, codes } => ColumnStats {
                dtype: DataType::Text,
                min: 0.0,
                max: dict.len().saturating_sub(1) as f64,
                ndv: dict.len().max(1) as f64,
                histogram: None,
                mcv: Mcv::build_text(dict, codes, cfg.mcv_entries),
            },
        }
    }

    /// Estimated selectivity of `col OP value` under these statistics.
    pub fn selectivity(&self, op: CmpOp, value: &Value) -> f64 {
        match op {
            CmpOp::Eq => self.eq_selectivity(value),
            CmpOp::Neq => (1.0 - self.eq_selectivity(value)).clamp(0.0, 1.0),
            _ => {
                let Some(v) = value.as_f64() else {
                    return DEFAULT_SEL;
                };
                match &self.histogram {
                    Some(h) => h.selectivity(op, v),
                    None => DEFAULT_SEL,
                }
            }
        }
    }

    fn eq_selectivity(&self, value: &Value) -> f64 {
        if let Some(f) = self.mcv.frequency(value) {
            return f;
        }
        // Tail estimate: remaining mass spread over remaining distinct values.
        let tail_ndv = (self.ndv - self.mcv.len() as f64).max(1.0);
        ((1.0 - self.mcv.mass()) / tail_ndv).clamp(1e-9, 1.0)
    }
}

/// Statistics of one table: per-column stats plus a row-id sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Row count at collection time.
    pub nrows: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
    /// Reservoir sample of row ids.
    pub sample: Vec<u32>,
}

impl TableStats {
    /// Collect statistics over a table.
    pub fn build(table: &Table, cfg: &StatsConfig) -> TableStats {
        TableStats {
            nrows: table.nrows(),
            columns: table
                .columns()
                .iter()
                .map(|c| ColumnStats::build(c, cfg))
                .collect(),
            sample: reservoir_sample(table.nrows(), cfg.sample_size, cfg.seed),
        }
    }

    /// Stats for a column by name.
    pub fn column(&self, table: &Table, name: &str) -> Result<&ColumnStats> {
        let idx = table.schema.column_index(name).ok_or_else(|| {
            crate::error::EngineError::UnknownColumn {
                table: table.name().to_string(),
                column: name.to_string(),
            }
        })?;
        Ok(&self.columns[idx])
    }
}

/// Statistics for every table in a catalog.
#[derive(Debug, Clone)]
pub struct CatalogStats {
    tables: HashMap<String, TableStats>,
    /// Config used at build time (estimators read the sample size etc.).
    pub config: StatsConfig,
}

impl CatalogStats {
    /// Collect statistics for all tables.
    pub fn build(catalog: &Catalog, cfg: StatsConfig) -> CatalogStats {
        let tables = catalog
            .tables()
            .iter()
            .map(|t| (t.name().to_string(), TableStats::build(t, &cfg)))
            .collect();
        CatalogStats {
            tables,
            config: cfg,
        }
    }

    /// Collect with default config.
    pub fn build_default(catalog: &Catalog) -> CatalogStats {
        Self::build(catalog, StatsConfig::default())
    }

    /// Stats for a table by name.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        self.tables.get(name)
    }

    /// Re-collect statistics for a single table (after drift/appends).
    pub fn refresh_table(&mut self, catalog: &Catalog, name: &str) -> Result<()> {
        let table = catalog.table(name)?;
        self.tables
            .insert(name.to_string(), TableStats::build(table, &self.config));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn table() -> Table {
        TableBuilder::new("t")
            .int("id", (0..1000).collect())
            .int("grp", (0..1000).map(|i| i % 10).collect())
            .float("score", (0..1000).map(|i| (i as f64) / 10.0).collect())
            .text(
                "label",
                (0..1000)
                    .map(|i| if i % 4 == 0 { "hot" } else { "cold" }.to_string())
                    .collect(),
            )
            .primary_key("id")
            .build()
            .unwrap()
    }

    #[test]
    fn column_stats_basics() {
        let t = table();
        let ts = TableStats::build(&t, &StatsConfig::default());
        let id = ts.column(&t, "id").unwrap();
        assert_eq!(id.min, 0.0);
        assert_eq!(id.max, 999.0);
        assert!((id.ndv - 1000.0).abs() < 50.0);
        let grp = ts.column(&t, "grp").unwrap();
        assert_eq!(grp.ndv, 10.0);
    }

    #[test]
    fn eq_selectivity_uses_mcv() {
        let t = table();
        let ts = TableStats::build(&t, &StatsConfig::default());
        let grp = ts.column(&t, "grp").unwrap();
        let sel = grp.selectivity(CmpOp::Eq, &Value::Int(3));
        assert!((sel - 0.1).abs() < 1e-9, "sel = {sel}");
        let label = ts.column(&t, "label").unwrap();
        let sel = label.selectivity(CmpOp::Eq, &Value::Text("hot".into()));
        assert!((sel - 0.25).abs() < 1e-9);
    }

    #[test]
    fn range_selectivity_on_uniform() {
        let t = table();
        let ts = TableStats::build(&t, &StatsConfig::default());
        let score = ts.column(&t, "score").unwrap();
        let sel = score.selectivity(CmpOp::Lt, &Value::Float(50.0));
        assert!((sel - 0.5).abs() < 0.05, "sel = {sel}");
    }

    #[test]
    fn unknown_value_eq_uses_tail() {
        let t = table();
        let ts = TableStats::build(&t, &StatsConfig::default());
        let grp = ts.column(&t, "grp").unwrap();
        // 4242 never occurs; tail estimate must be small but positive.
        let sel = grp.selectivity(CmpOp::Eq, &Value::Int(4242));
        assert!(sel > 0.0 && sel < 0.2);
    }

    #[test]
    fn catalog_stats_built_twice_are_identical() {
        let catalog = crate::datagen::stats_like(200, 7).unwrap();
        let a = CatalogStats::build_default(&catalog);
        for _ in 0..3 {
            let b = CatalogStats::build_default(&catalog);
            for t in catalog.tables() {
                assert_eq!(a.table(t.name()), b.table(t.name()), "{}", t.name());
            }
        }
    }

    #[test]
    fn catalog_stats_refresh() {
        let mut catalog = Catalog::new();
        catalog.add_table(table());
        let mut stats = CatalogStats::build_default(&catalog);
        assert_eq!(stats.table("t").unwrap().nrows, 1000);

        let extra = TableBuilder::new("t")
            .int("id", vec![1000])
            .int("grp", vec![0])
            .float("score", vec![0.0])
            .text("label", vec!["hot".into()])
            .primary_key("id")
            .build()
            .unwrap();
        catalog.table_mut("t").unwrap().append(&extra).unwrap();
        stats.refresh_table(&catalog, "t").unwrap();
        assert_eq!(stats.table("t").unwrap().nrows, 1001);
    }

    #[test]
    fn text_range_predicate_falls_back_to_default() {
        let t = table();
        let ts = TableStats::build(&t, &StatsConfig::default());
        let label = ts.column(&t, "label").unwrap();
        let sel = label.selectivity(CmpOp::Lt, &Value::Text("m".into()));
        assert_eq!(sel, DEFAULT_SEL);
    }
}
