//! Compare all five engines (LEGO, LEGO-, SQUIRREL, SQLancer, SQLsmith) on
//! one simulated DBMS under identical budgets — a miniature Figure 9 cell.
//!
//! ```sh
//! cargo run --release --example compare_fuzzers [units] [pg|mysql|maria|comdb2]
//! ```

use lego_fuzz::baselines::engine_by_name;
use lego_fuzz::prelude::*;

fn main() {
    let units: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(150_000);
    let dialect = match std::env::args().nth(2).as_deref() {
        Some("mysql") => Dialect::MySql,
        Some("maria") => Dialect::MariaDb,
        Some("comdb2") => Dialect::Comdb2,
        _ => Dialect::Postgres,
    };
    println!("{} — {} statement units per engine\n", dialect.name(), units);
    println!("{:<9} {:>9} {:>9} {:>11} {:>6}", "fuzzer", "branches", "execs", "affinities", "bugs");
    let mut names = vec!["LEGO", "LEGO-", "SQUIRREL", "SQLancer"];
    if dialect == Dialect::Postgres {
        names.push("SQLsmith");
    }
    for name in names {
        let mut engine = engine_by_name(name, dialect, 0x1e60);
        let stats = run_campaign(
            engine.as_mut(),
            dialect,
            Budget::units(units),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        println!(
            "{:<9} {:>9} {:>9} {:>11} {:>6}",
            stats.fuzzer,
            stats.branches,
            stats.execs,
            stats.corpus_affinities,
            stats.bugs.len()
        );
    }
}
