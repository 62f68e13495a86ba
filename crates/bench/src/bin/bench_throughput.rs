//! Campaign throughput measurement on a budget ladder: executions per
//! second for the serial path and the sharded parallel path at each rung,
//! plus the resulting speedup and a per-stage wall-clock profile of each run.
//! A single small budget hides costs that grow with campaign length (the
//! sequence store fills between 200k and 400k units), so the default ladder
//! reaches the paper's scale.
//!
//! Usage: `bench_throughput [UNITS...] [--workers N] [--telemetry PATH]
//! [--heartbeat]`. The positional arguments are the rungs (default
//! 200000 800000 1600000); `--workers` sets the parallel rows' worker count
//! (default: the machine's parallelism, at least 2). Writes
//! `BENCH_throughput.json` at the repository root: one serial row and one
//! parallel row per rung, each with the core count and seed. With
//! `--telemetry ev.jsonl` each run's event stream lands at
//! `ev.<units>.serial.jsonl` / `ev.<units>.parallel.jsonl`.

use lego::campaign::{CampaignOpts, ParallelOpts};
use lego::observe::{StageProfile, Telemetry};
use lego_bench::grid::Cli;
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;
use std::path::Path;

const DEFAULT_LADDER: [usize; 3] = [200_000, 800_000, 1_600_000];

#[derive(Serialize)]
struct Row {
    budget_units: usize,
    workers: usize,
    cores: usize,
    seed: u64,
    execs: usize,
    units: usize,
    branches: usize,
    wall_ms: u64,
    execs_per_sec: f64,
    /// This row's execs/s over the serial row's at the same rung.
    speedup: f64,
    stage_profile: Option<StageProfile>,
}

#[derive(Serialize)]
struct Report {
    dialect: String,
    fuzzer: String,
    ladder: Vec<usize>,
    rows: Vec<Row>,
}

/// One fresh telemetry handle per measured run: stage accumulators are
/// cumulative per handle, so runs must not share one. With no telemetry
/// flags the handle still profiles (events discarded).
fn run_telemetry(cli: &Cli, tag: &str, workers: usize) -> (Telemetry, Option<TelemetryGuard>) {
    if cli.telemetry.is_none() && !cli.heartbeat {
        return (Telemetry::profile_only(), None);
    }
    let path = cli.telemetry.as_ref().map(|p| Path::new(p).with_extension(format!("{tag}.jsonl")));
    let guard = telemetry_to(path.as_deref(), cli.heartbeat, workers, DEFAULT_SEED);
    (guard.tel.clone(), Some(guard))
}

fn profiled(cli: &Cli, tag: &str, units: usize, workers: usize) -> lego::campaign::CampaignStats {
    let dialect = Dialect::Postgres;
    let (tel, guard) = run_telemetry(cli, tag, workers);
    let par = ParallelOpts { workers, ..ParallelOpts::default() };
    let stats = campaign("LEGO", dialect, units, DEFAULT_SEED, par, &CampaignOpts::default(), &tel);
    if let Some(mut g) = guard {
        g.finish();
    }
    stats
}

fn main() {
    let cli = Cli::parse();
    let mut ladder: Vec<usize> = cli.positional.iter().filter_map(|a| a.parse().ok()).collect();
    if ladder.is_empty() {
        ladder = DEFAULT_LADDER.to_vec();
    }
    let workers = cli.workers.max(2);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dialect = Dialect::Postgres;

    println!(
        "Campaign throughput — LEGO on {}, seed {DEFAULT_SEED}, {cores} core(s), ladder {ladder:?}",
        dialect.name()
    );
    let mut rows = Vec::new();
    for &units in &ladder {
        println!("\n{units} units");
        let serial = profiled(&cli, &format!("{units}.serial"), units, 1);
        let parallel = profiled(&cli, &format!("{units}.parallel"), units, workers);
        let speedup = if serial.execs_per_sec > 0.0 {
            parallel.execs_per_sec / serial.execs_per_sec
        } else {
            0.0
        };
        for (label, s, speedup) in [("serial", &serial, 1.0), ("parallel", &parallel, speedup)] {
            println!(
                "  {:>2} worker(s): {:>8} execs in {:>6} ms  ({:>8.0} execs/s)",
                s.workers, s.execs, s.wall_ms, s.execs_per_sec
            );
            if let Some(p) = &s.stage_profile {
                println!("  {label} stage profile: {}", p.summary());
            }
            rows.push(Row {
                budget_units: units,
                workers: s.workers,
                cores,
                seed: DEFAULT_SEED,
                execs: s.execs,
                units: s.units,
                branches: s.branches,
                wall_ms: s.wall_ms,
                execs_per_sec: s.execs_per_sec,
                speedup,
                stage_profile: s.stage_profile.clone(),
            });
        }
        println!("  throughput speedup at {workers} workers: {speedup:.2}x");
    }

    let report =
        Report { dialect: dialect.name().to_string(), fuzzer: "LEGO".into(), ladder, rows };
    let path = repo_root().join("BENCH_throughput.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    println!("\n[report written to {}]", path.display());
}
