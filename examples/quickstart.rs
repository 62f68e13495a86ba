//! Quickstart: fuzz a simulated PostgreSQL with LEGO for a small budget and
//! print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lego_fuzz::prelude::*;

fn main() {
    // 1. A fuzzer: LEGO with default configuration (LEN = 5).
    let mut fuzzer = LegoFuzzer::new(Dialect::Postgres, Config::default());

    // 2. A budget: 50k statement-execution units (a few seconds).
    let budget = Budget::units(50_000);

    // 3. Run the campaign. Each test case executes against a fresh simulated
    //    PostgreSQL; coverage feedback drives affinity analysis and
    //    progressive sequence synthesis.
    let stats = run_campaign(
        &mut fuzzer,
        Dialect::Postgres,
        budget,
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();

    println!("fuzzer            : {}", stats.fuzzer);
    println!("test cases run    : {}", stats.execs);
    println!("branches covered  : {}", stats.branches);
    println!("type-affinities   : {}", stats.corpus_affinities);
    println!("retained seeds    : {}", stats.corpus_size);
    println!("bugs found        : {}", stats.bugs.len());
    for bug in &stats.bugs {
        println!(
            "  [{}] {} in {} ({:?}) at exec #{}",
            bug.crash.identifier,
            bug.crash.bug_type.name(),
            bug.crash.component.name(),
            bug.crash.dialect,
            bug.first_exec
        );
    }

    // 4. The coverage curve, suitable for plotting.
    println!("\ncoverage over time (units, branches):");
    for (units, branches) in stats.coverage_curve.iter().step_by(5) {
        println!("  {units:>8}  {branches}");
    }
}
