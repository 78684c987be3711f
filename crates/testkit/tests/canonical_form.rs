//! Byte identity of the engine's canonical sub-query keys: one
//! `CanonicalForm` per query must key every subset exactly like the
//! from-scratch reference, on the golden workload, on random `sqlgen`
//! queries and on hand-written edge cases.

use lqo_bench_suite::workload::{generate_workload, WorkloadConfig};
use lqo_engine::datagen::stats_like;
use lqo_engine::query::parse_query;
use lqo_engine::{CanonicalForm, SpjQuery, TableSet};
use lqo_testkit::{random_query, reference_canonical_key, RandomQueryConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every subset of `query`'s tables, the empty one included.
fn assert_every_subset_matches(query: &SpjQuery) -> usize {
    let form = CanonicalForm::of(query, query.all_tables());
    let n = query.num_tables();
    for bits in 0..(1u64 << n) {
        let set = TableSet(bits);
        let want = reference_canonical_key(query, set);
        assert_eq!(form.key(set), want, "{query} {set:?}");
        assert_eq!(query.canonical_key(set), want, "{query} {set:?}");
    }
    1 << n
}

#[test]
fn golden_workload_keys_are_byte_identical() {
    let catalog = stats_like(60, 7).unwrap();
    let queries = generate_workload(
        &catalog,
        &WorkloadConfig {
            num_queries: 10,
            min_tables: 2,
            max_tables: 3,
            max_predicates: 3,
            seed: 0x601D_E001,
        },
    );
    assert_eq!(queries.len(), 10);
    for q in &queries {
        assert_every_subset_matches(q);
    }
}

#[test]
fn random_query_keys_are_byte_identical() {
    let catalog = stats_like(60, 7).unwrap();
    let mut rng = StdRng::seed_from_u64(0xCA70);
    let cfg = RandomQueryConfig {
        max_tables: 7,
        max_predicates: 5,
    };
    let mut subsets = 0;
    for _ in 0..60 {
        subsets += assert_every_subset_matches(&random_query(&catalog, &mut rng, &cfg));
    }
    assert!(subsets > 60 * 8, "{subsets} subsets checked");
}

#[test]
fn edge_case_keys_are_byte_identical() {
    for sql in [
        // Self-join: one table under two aliases, predicates on one column.
        "SELECT COUNT(*) FROM users a, users b, posts p \
         WHERE a.id = p.owner_user_id AND b.id = p.owner_user_id \
         AND a.views < 9 AND a.views > 2 AND b.views = 3",
        // Join sides given in both orders, text and float literals.
        "SELECT COUNT(*) FROM posts p, comments c, tags t \
         WHERE c.post_id = p.id AND t.excerpt_post_id = p.id \
         AND t.tag_name = 'rust' AND p.score >= 1.5",
        // No joins, no predicates.
        "SELECT COUNT(*) FROM users u, badges b",
    ] {
        assert_every_subset_matches(&parse_query(sql).unwrap());
    }
    // A join naming an alias the FROM list lacks never resolves, and a
    // duplicated alias resolves to its first position.
    let mut odd = parse_query(
        "SELECT COUNT(*) FROM users u, posts p, votes v \
         WHERE u.id = p.owner_user_id AND p.id = v.post_id AND u.views < 4",
    )
    .unwrap();
    odd.joins[1].right.alias = "w".into();
    odd.tables[2].alias = "u".into();
    assert_every_subset_matches(&odd);
}
