//! Seeded inputs: SQL text over a catalog's foreign-key graph, and
//! Poisson arrival schedules. The program only ever sees what these
//! produce.

use rand::rngs::StdRng;
use rand::Rng;

use lqo_engine::{Catalog, Value};

/// Size of the queries a workload draws.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Fewest joined tables.
    pub min_tables: usize,
    /// Most joined tables.
    pub max_tables: usize,
    /// Fewest filter predicates.
    pub min_preds: usize,
    /// Most filter predicates.
    pub max_preds: usize,
}

/// One random count-star query as SQL: a tree of foreign-key joins grown
/// from a random table, filtered by predicates whose literals are taken
/// from the data. `None` when the draw cannot reach the shape.
pub fn random_sql(catalog: &Catalog, shape: &Shape, rng: &mut StdRng) -> Option<String> {
    let fks = catalog.foreign_keys();
    if fks.is_empty() {
        return None;
    }
    let target = rng.gen_range(shape.min_tables..=shape.max_tables);
    let mut tables = vec![fks[rng.gen_range(0..fks.len())].table.clone()];
    let mut conds = Vec::new();
    while tables.len() < target {
        // Edges with exactly one endpoint inside keep the join graph a tree.
        let frontier: Vec<_> = fks
            .iter()
            .filter(|fk| tables.contains(&fk.table) != tables.contains(&fk.ref_table))
            .collect();
        if frontier.is_empty() {
            break;
        }
        let fk = frontier[rng.gen_range(0..frontier.len())];
        let new = if tables.contains(&fk.table) {
            &fk.ref_table
        } else {
            &fk.table
        };
        conds.push(format!(
            "{}.{} = {}.{}",
            fk.table, fk.column, fk.ref_table, fk.ref_column
        ));
        tables.push(new.clone());
    }
    if tables.len() < shape.min_tables {
        return None;
    }

    let npreds = rng.gen_range(shape.min_preds..=shape.max_preds);
    let mut preds = 0;
    for _ in 0..npreds * 8 {
        if preds == npreds {
            break;
        }
        let name = &tables[rng.gen_range(0..tables.len())];
        let table = catalog.table(name).ok()?;
        if table.nrows() == 0 {
            continue;
        }
        let ci = rng.gen_range(0..table.schema.arity());
        if table.schema.primary_key == Some(ci) {
            continue;
        }
        // Negative literals do not tokenize; text and floats do not occur
        // in the schemas used here.
        let Value::Int(v) = table.column(ci).value(rng.gen_range(0..table.nrows())) else {
            continue;
        };
        if v < 0 {
            continue;
        }
        let op = ["=", "<", "<=", ">", ">="][rng.gen_range(0..5)];
        conds.push(format!("{name}.{} {op} {v}", table.schema.columns[ci].name));
        preds += 1;
    }
    if preds < shape.min_preds {
        return None;
    }
    Some(format!(
        "SELECT COUNT(*) FROM {} WHERE {};",
        tables.join(", "),
        conds.join(" AND ")
    ))
}

/// The same query with its FROM list rotated by one table: equal as a
/// query, with every table at another position. `None` for fewer than two
/// tables or SQL not in the form [`random_sql`] writes.
pub fn rotate_from(sql: &str) -> Option<String> {
    let (head, rest) = sql.split_once(" FROM ")?;
    let (from, tail) = rest.split_once(" WHERE ")?;
    let mut tables: Vec<&str> = from.split(", ").collect();
    if tables.len() < 2 {
        return None;
    }
    tables.rotate_left(1);
    Some(format!("{head} FROM {} WHERE {tail}", tables.join(", ")))
}

/// Poisson arrival offsets in seconds over `[0, duration)` at `rate` per
/// second.
pub fn poisson_arrivals(rate: f64, duration: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 1);
    let mut t = 0.0;
    loop {
        // 1 - U lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqo_engine::datagen::stats_like;
    use lqo_engine::query::parse_query;
    use rand::SeedableRng;

    #[test]
    fn generated_sql_parses_validates_and_repeats_per_seed() {
        let catalog = stats_like(40, 3).unwrap();
        let shape = Shape {
            min_tables: 2,
            max_tables: 6,
            min_preds: 1,
            max_preds: 3,
        };
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..40)
                .filter_map(|_| random_sql(&catalog, &shape, &mut rng))
                .collect::<Vec<_>>()
        };
        let sqls = draw(11);
        assert!(sqls.len() >= 30, "{}", sqls.len());
        assert_eq!(sqls, draw(11));
        assert_ne!(sqls, draw(12));
        for sql in &sqls {
            let q = parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            q.validate(&catalog)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert!((2..=6).contains(&q.num_tables()), "{sql}");
            assert_eq!(q.joins.len(), q.num_tables() - 1, "{sql}");
            assert!(!q.predicates.is_empty(), "{sql}");
        }
    }

    #[test]
    fn a_rotated_from_list_is_the_same_query_at_other_positions() {
        let sql = "SELECT COUNT(*) FROM a, b, c WHERE a.x = b.id AND c.y = b.id AND a.z > 3;";
        let rotated = rotate_from(sql).unwrap();
        assert_eq!(
            rotated,
            "SELECT COUNT(*) FROM b, c, a WHERE a.x = b.id AND c.y = b.id AND a.z > 3;"
        );
        let (q, r) = (parse_query(sql).unwrap(), parse_query(&rotated).unwrap());
        assert_eq!(
            q.canonical_key(q.all_tables()),
            r.canonical_key(r.all_tables())
        );
        assert_ne!(q.tables[0].table, r.tables[0].table);
        assert_eq!(rotate_from("SELECT COUNT(*) FROM a WHERE a.z > 3;"), None);
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_its_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = poisson_arrivals(1000.0, 4.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(a, poisson_arrivals(1000.0, 4.0, &mut rng));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        assert!((3800..4200).contains(&a.len()), "{}", a.len());
    }
}
