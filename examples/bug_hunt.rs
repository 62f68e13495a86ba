//! Bug hunt: reproduce the paper's § V.B case study by hand, then let LEGO
//! rediscover planted memory-safety bugs on MariaDB.
//!
//! ```sh
//! cargo run --release --example bug_hunt
//! ```

use lego_fuzz::prelude::*;

fn main() {
    // --- Part 1: the PostgreSQL case study (Figure 7), replayed verbatim. --
    // CREATE TABLE → CREATE RULE (DO INSTEAD NOTIFY) → COPY → WITH: the
    // rewriter replaces the data-modifying CTE with a NOTIFY it cannot plan,
    // and the optimizer dereferences a NULL jointree.
    let case_study = "\
        CREATE TABLE v0( v4 INT, v3 INT UNIQUE, v2 INT , v1 INT UNIQUE ) ;\n\
        CREATE OR REPLACE RULE v1 AS ON INSERT TO v0 DO INSTEAD NOTIFY COMPRESSION;\n\
        COPY ( SELECT 32 EXCEPT SELECT v3 + 16 FROM v0 ) TO STDOUT CSV HEADER ;\n\
        WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = - - - 48;";

    println!("=== Case study: CREATE RULE → NOTIFY → COPY → WITH ===\n{case_study}\n");
    let mut pg = Dbms::new(Dialect::Postgres);
    let report = pg.execute_script(case_study);
    match report.crash() {
        Some(crash) => {
            println!("server crashed: {} ({})", crash.identifier, crash.bug_type.name());
            println!("component     : {}", crash.component.name());
            println!("call stack    :");
            for frame in &crash.stack {
                println!("  {frame}");
            }
        }
        None => println!("no crash?! the case study should SEGV"),
    }

    // --- Part 2: let LEGO find sequence bugs in MariaDB on its own. --------
    println!("\n=== LEGO vs MariaDB (300k units) ===");
    let mut fuzzer = LegoFuzzer::new(Dialect::MariaDb, Config::default());
    let stats = run_campaign(
        &mut fuzzer,
        Dialect::MariaDb,
        Budget::units(300_000),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    println!("{} executions, {} branches, {} bugs:", stats.execs, stats.branches, stats.bugs.len());
    for bug in &stats.bugs {
        println!(
            "\n[{}] {} in {}, found at exec #{}; reproducer:",
            bug.crash.identifier,
            bug.crash.bug_type.name(),
            bug.crash.component.name(),
            bug.first_exec
        );
        for line in bug.case_sql.lines() {
            println!("  {line}");
        }
    }
}
