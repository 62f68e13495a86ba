//! Criterion micro-benchmarks for the engineering-critical paths:
//! lexing/parsing throughput, coverage-map operations, Algorithm 3
//! synthesis, single-case engine execution, and a small end-to-end
//! fuzzing campaign per engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lego::affinity::AffinityMap;
use lego::campaign::{run_campaign, Budget, CampaignOpts};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::gen::{gen_statement, SchemaModel};
use lego::instantiate::{instantiate, AstLibrary};
use lego::observe::Telemetry;
use lego::synthesis::SequenceStore;
use lego_baselines::engine_by_name;
use lego_coverage::{CovRecorder, GlobalCoverage, SiteId};
use lego_dbms::Dbms;
use lego_sqlast::Dialect;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

const SCRIPT: &str = "CREATE TABLE t1 (v1 INT, v2 INT, v3 VARCHAR(100));\n\
    CREATE INDEX i1 ON t1 (v1);\n\
    INSERT INTO t1 VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c');\n\
    UPDATE t1 SET v2 = v2 + 1 WHERE v1 > 1;\n\
    SELECT v3, COUNT(*) FROM t1 GROUP BY v3 HAVING COUNT(*) > 0;\n\
    SELECT * FROM t1 AS a JOIN t1 AS b ON a.v1 = b.v1 ORDER BY a.v1 DESC LIMIT 2;";

fn bench_parser(c: &mut Criterion) {
    c.bench_function("parse_6_statement_script", |b| {
        b.iter(|| lego_sqlparser::parse_script(black_box(SCRIPT)).unwrap())
    });
    let case = lego_sqlparser::parse_script(SCRIPT).unwrap();
    c.bench_function("render_6_statement_script", |b| b.iter(|| black_box(&case).to_sql()));
}

fn bench_coverage(c: &mut Criterion) {
    c.bench_function("coverage_record_1000_hits", |b| {
        b.iter(|| {
            let mut rec = CovRecorder::new();
            for i in 0..1000u64 {
                rec.hit(SiteId::from_raw(i * 2654435761));
            }
            rec.into_map()
        })
    });
    let mut rec = CovRecorder::new();
    for i in 0..500u64 {
        rec.hit(SiteId::from_raw(i * 2654435761));
    }
    let map = rec.into_map();
    c.bench_function("coverage_merge_500_edges", |b| {
        b.iter(|| {
            let mut g = GlobalCoverage::new();
            g.merge(black_box(&map))
        })
    });
}

fn bench_engine(c: &mut Criterion) {
    let case = lego_sqlparser::parse_script(SCRIPT).unwrap();
    c.bench_function("engine_execute_case_postgres", |b| {
        b.iter(|| {
            let mut db = Dbms::new(Dialect::Postgres);
            db.execute_case(black_box(&case))
        })
    });
    c.bench_function("engine_execute_script_parse_included", |b| {
        b.iter(|| {
            let mut db = Dbms::new(Dialect::MariaDb);
            db.execute_script(black_box(SCRIPT))
        })
    });
}

fn bench_synthesis(c: &mut Criterion) {
    let kinds = Dialect::Postgres.supported_kinds();
    c.bench_function("algorithm3_synthesis_20_affinities", |b| {
        b.iter(|| {
            let starters: Vec<_> =
                kinds.iter().copied().filter(|k| k.is_sequence_starter()).collect();
            let mut map = AffinityMap::new();
            let mut store = SequenceStore::new(5, &starters);
            for i in 0..20usize {
                let t1 = kinds[(i * 17) % kinds.len()];
                let t2 = kinds[(i * 31 + 7) % kinds.len()];
                if t1 != t2 && map.insert(t1, t2) {
                    store.on_new_affinity(t1, t2, &map, 64);
                }
            }
            store.len()
        })
    });
    c.bench_function("instantiate_len5_sequence", |b| {
        let lib = AstLibrary::new();
        let seq: Vec<_> = kinds.iter().copied().take(5).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        b.iter(|| instantiate(black_box(&seq), &lib, Dialect::Postgres, &mut rng))
    });
}

fn bench_generation(c: &mut Criterion) {
    let schema = {
        let mut m = SchemaModel::new();
        m.observe(&lego_sqlparser::parse_statement("CREATE TABLE t (a INT, b TEXT);").unwrap());
        m
    };
    let kinds = Dialect::MariaDb.supported_kinds();
    c.bench_function("generate_statement_all_kinds", |b| {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % kinds.len();
            gen_statement(kinds[i], &schema, Dialect::MariaDb, &mut rng)
        })
    });
}

fn bench_campaigns(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_10k_units");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for name in ["LEGO", "SQUIRREL", "SQLancer"] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine = engine_by_name(name, Dialect::MariaDb, 9);
                run_campaign(
                    engine.as_mut(),
                    Dialect::MariaDb,
                    Budget::units(10_000),
                    &CampaignOpts::default(),
                    &Telemetry::disabled(),
                )
                .unwrap()
                .branches
            })
        });
    }
    group.bench_function("LEGO_postgres", |b| {
        b.iter(|| {
            let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
            run_campaign(
                &mut fz,
                Dialect::Postgres,
                Budget::units(10_000),
                &CampaignOpts::default(),
                &Telemetry::disabled(),
            )
            .unwrap()
            .branches
        })
    });
    group.finish();
}

/// Short sampling windows: the default 5-second windows make the suite take
/// an hour on a shared single-core box without changing the conclusions.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_parser,
        bench_coverage,
        bench_engine,
        bench_synthesis,
        bench_generation,
        bench_campaigns
}
criterion_main!(benches);
