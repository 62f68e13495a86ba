//! Cross-crate integration tests: parser → engine → coverage → fuzzer →
//! campaign, plus the paper's case studies end to end.

use lego_fuzz::baselines::engine_by_name;
use lego_fuzz::prelude::*;
use lego_fuzz::sqlparser::parse_script;

#[test]
fn parse_execute_coverage_roundtrip() {
    let case = parse_script(
        "CREATE TABLE t (a INT, b TEXT);\n\
         INSERT INTO t VALUES (1, 'x'), (2, 'y');\n\
         SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 0;",
    )
    .unwrap();
    let mut db = Dbms::new(Dialect::Postgres);
    let report = db.execute_case(&case);
    assert!(matches!(report.outcome, Outcome::Ok), "{:?}", report.errors);
    assert!(report.errors.is_empty());
    assert!(report.coverage.edge_count() > 10);
}

#[test]
fn rendered_sql_reexecutes_identically() {
    // Display -> parse -> execute must behave like the original AST.
    let sql = "CREATE TABLE t (a INT);\n\
               INSERT INTO t VALUES (1), (2), (3);\n\
               SELECT * FROM t WHERE a > 1 ORDER BY a DESC LIMIT 1;";
    let case = parse_script(sql).unwrap();
    let rendered = case.to_sql();
    let case2 = parse_script(&rendered).unwrap();
    assert_eq!(case, case2);
    let r1 = Dbms::new(Dialect::MySql).execute_case(&case);
    let r2 = Dbms::new(Dialect::MySql).execute_case(&case2);
    assert_eq!(r1.coverage.digest(), r2.coverage.digest());
}

#[test]
fn case_study_sequence_only_crashes_with_all_four_statements() {
    let full = "CREATE TABLE v0 (v1 INT);\n\
         CREATE RULE r1 AS ON INSERT TO v0 DO INSTEAD NOTIFY compression;\n\
         COPY (SELECT 1) TO STDOUT;\n\
         WITH c AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v1 = 0;";
    let r = Dbms::new(Dialect::Postgres).execute_script(full);
    assert!(r.crash().is_some(), "full sequence must crash");

    // Dropping the rule, or replacing the data-modifying CTE, defuses it.
    let no_rule = "CREATE TABLE v0 (v1 INT);\n\
         COPY (SELECT 1) TO STDOUT;\n\
         WITH c AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v1 = 0;";
    assert!(Dbms::new(Dialect::Postgres).execute_script(no_rule).crash().is_none());

    let query_cte = "CREATE TABLE v0 (v1 INT);\n\
         CREATE RULE r1 AS ON INSERT TO v0 DO INSTEAD NOTIFY compression;\n\
         COPY (SELECT 1) TO STDOUT;\n\
         WITH c AS (SELECT 1) DELETE FROM v0 WHERE v1 = 0;";
    assert!(Dbms::new(Dialect::Postgres).execute_script(query_cte).crash().is_none());
}

#[test]
fn every_engine_runs_on_every_dialect() {
    for dialect in Dialect::ALL {
        for name in ["LEGO", "LEGO-", "SQUIRREL", "SQLancer", "SQLsmith"] {
            let mut engine = engine_by_name(name, dialect, 11);
            let stats = run_campaign(
                engine.as_mut(),
                dialect,
                Budget::units(2_000),
                &CampaignOpts::default(),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert!(stats.branches > 0, "{name} on {dialect:?} covered nothing");
            assert!(stats.execs > 0);
        }
    }
}

#[test]
fn campaigns_are_deterministic_given_a_seed() {
    let run = || {
        let mut fz =
            LegoFuzzer::new(Dialect::MariaDb, Config { rng_seed: 123, ..Config::default() });
        let stats = run_campaign(
            &mut fz,
            Dialect::MariaDb,
            Budget::units(20_000),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        (
            stats.branches,
            stats.execs,
            stats.corpus_affinities,
            stats.bugs.iter().map(|b| b.crash.bug_id).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn lego_discovers_the_mysql_trigger_window_cve_shape() {
    // CVE-2021-35643's trigger-then-window-select sequence must be reachable
    // by executing the figure-3-style synthesized seed.
    let synthesized = "CREATE TABLE v0 (v1 YEAR);\n\
         INSERT LOW_PRIORITY IGNORE INTO v0 VALUES (NULL), (2021), (1999);\n\
         CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0;\n\
         SELECT LEAD (v1) OVER (ORDER BY v1) AS v1 FROM v0;";
    let r = Dbms::new(Dialect::MySql).execute_script(synthesized);
    let crash = r.crash().expect("figure-3 sequence must crash");
    assert_eq!(crash.identifier, "CVE-2021-35643");
}

#[test]
fn coverage_feedback_actually_guides_lego() {
    // With feedback wired, the retained corpus grows beyond the seeds and
    // the affinity map grows beyond the seed affinities.
    let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
    let stats = run_campaign(
        &mut fz,
        Dialect::Postgres,
        Budget::units(40_000),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(stats.corpus_size > 10);
    assert!(stats.corpus_affinities > 30);
}

#[test]
fn crashing_case_sql_reproduces_its_bug() {
    // Every bug report carries a SQL reproducer; replaying it on a fresh
    // instance must re-trigger the same bug.
    let mut fz = LegoFuzzer::new(Dialect::MariaDb, Config::default());
    let stats = run_campaign(
        &mut fz,
        Dialect::MariaDb,
        Budget::units(300_000),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(!stats.bugs.is_empty(), "expected at least one MariaDB bug");
    for bug in stats.bugs.iter().take(3) {
        let r = Dbms::new(Dialect::MariaDb).execute_script(&bug.case_sql);
        let crash =
            r.crash().unwrap_or_else(|| panic!("reproducer did not crash:\n{}", bug.case_sql));
        assert_eq!(crash.bug_id, bug.crash.bug_id);
    }
}
