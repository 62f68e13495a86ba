//! Determinism contracts of oracle-enabled campaigns (acceptance criteria):
//! same seed → same reports, and the parallel path stays byte-for-byte
//! reproducible with oracles on. Runs against the clean engine (no injected
//! fault), so these tests coexist with the default multithreaded runner.

use lego::campaign::{
    run_campaign, run_campaign_parallel, Budget, CampaignOpts, FuzzEngine, ParallelOpts,
};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::OracleConfig;
use lego_observe::Telemetry;
use lego_sqlast::Dialect;
use std::path::PathBuf;

fn lego_factory(
    dialect: Dialect,
    base_seed: u64,
) -> impl Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync {
    move |worker| {
        let rng_seed = base_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cfg = Config { rng_seed, ..Config::default() };
        Box::new(LegoFuzzer::new(dialect, cfg))
    }
}

fn opts(workers: usize) -> ParallelOpts {
    ParallelOpts { workers, sync_every: 4 }
}

const BUDGET: Budget = Budget { units: 20_000, snapshots: 10 };

#[test]
fn serial_oracle_campaign_is_deterministic() {
    let run = || {
        let cfg = Config { rng_seed: 0x0dac1e, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
        run_campaign(
            &mut engine,
            Dialect::Postgres,
            BUDGET,
            &CampaignOpts { oracles: OracleConfig::all(), ..CampaignOpts::default() },
            &Telemetry::disabled(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert!(a.oracle_checks > 0, "campaign never reached an oracle-eligible query");
}

#[test]
fn workers1_oracle_campaign_matches_serial() {
    let cfg = Config { rng_seed: 0x5eed, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::MySql, cfg);
    let serial = run_campaign(
        &mut engine,
        Dialect::MySql,
        BUDGET,
        &CampaignOpts { oracles: OracleConfig::all(), ..CampaignOpts::default() },
        &Telemetry::disabled(),
    )
    .unwrap();
    let parallel = run_campaign_parallel(
        lego_factory(Dialect::MySql, 0x5eed),
        Dialect::MySql,
        BUDGET,
        opts(1),
        &CampaignOpts { oracles: OracleConfig::all(), ..CampaignOpts::default() },
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
}

#[test]
fn three_worker_oracle_campaign_is_byte_for_byte_reproducible() {
    let run = || {
        run_campaign_parallel(
            lego_factory(Dialect::Postgres, 42),
            Dialect::Postgres,
            BUDGET,
            opts(3),
            &CampaignOpts { oracles: OracleConfig::all(), ..CampaignOpts::default() },
            &Telemetry::disabled(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.workers, 3);
}

/// Fresh per-test WAL directory: concurrent campaigns must never share
/// `worker00.wal`.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_odet_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All four oracles: the three logic oracles plus recovery.
fn all_plus_recovery() -> OracleConfig {
    OracleConfig { recovery: true, ..OracleConfig::all() }
}

#[test]
fn serial_recovery_campaign_is_deterministic() {
    let dir = wal_dir("serial");
    let run = || {
        let cfg = Config { rng_seed: 0x0dac1e, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
        run_campaign(
            &mut engine,
            Dialect::Postgres,
            BUDGET,
            &CampaignOpts {
                oracles: all_plus_recovery(),
                wal_dir: Some(dir.clone()),
                ..CampaignOpts::default()
            },
            &Telemetry::disabled(),
        )
        .expect("campaign completes")
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert!(a.oracle_checks > 0, "campaign never reached an oracle-eligible query");
    assert_eq!(a.durability_bugs, 0, "clean engine must report no durability bugs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workers1_recovery_campaign_matches_serial() {
    let dir = wal_dir("w1");
    let cfg = Config { rng_seed: 0x5eed, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::MySql, cfg);
    let serial = run_campaign(
        &mut engine,
        Dialect::MySql,
        BUDGET,
        &CampaignOpts {
            oracles: all_plus_recovery(),
            wal_dir: Some(dir.clone()),
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("serial campaign completes");
    let parallel = run_campaign_parallel(
        lego_factory(Dialect::MySql, 0x5eed),
        Dialect::MySql,
        BUDGET,
        opts(1),
        &CampaignOpts {
            oracles: all_plus_recovery(),
            wal_dir: Some(dir.clone()),
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("parallel campaign completes");
    assert_eq!(serial.deterministic_json(), parallel.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn three_worker_recovery_campaign_is_byte_for_byte_reproducible() {
    let dir = wal_dir("w3");
    let run = || {
        run_campaign_parallel(
            lego_factory(Dialect::Postgres, 42),
            Dialect::Postgres,
            BUDGET,
            opts(3),
            &CampaignOpts {
                oracles: all_plus_recovery(),
                wal_dir: Some(dir.clone()),
                ..CampaignOpts::default()
            },
            &Telemetry::disabled(),
        )
        .expect("campaign completes")
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.workers, 3);
    // Every worker journaled to its own file.
    for w in 0..3 {
        assert!(dir.join(format!("worker{w:02}.wal")).exists(), "worker {w} WAL missing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_location_never_influences_findings() {
    // The WAL path is environment, not input: an explicit --wal-dir and the
    // default temp-dir placement must produce byte-identical reports.
    let dir = wal_dir("loc");
    let run = |d: Option<&PathBuf>| {
        let cfg = Config { rng_seed: 0xd15c, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Comdb2, cfg);
        run_campaign(
            &mut engine,
            Dialect::Comdb2,
            BUDGET,
            &CampaignOpts {
                oracles: OracleConfig::recovery_only(),
                wal_dir: d.cloned(),
                ..CampaignOpts::default()
            },
            &Telemetry::disabled(),
        )
        .expect("campaign completes")
    };
    let explicit = run(Some(&dir));
    let default = run(None);
    assert_eq!(explicit.deterministic_json(), default.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oracles_disabled_is_byte_identical_to_the_plain_campaign() {
    // The oracle hook must be a strict no-op when disabled: the pre-oracle
    // entry points are wrappers passing `OracleConfig::disabled()`.
    let mk = || {
        let cfg = Config { rng_seed: 7, ..Config::default() };
        LegoFuzzer::new(Dialect::Comdb2, cfg)
    };
    let plain = lego::run_campaign(
        &mut mk(),
        Dialect::Comdb2,
        BUDGET,
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    let disabled = run_campaign(
        &mut mk(),
        Dialect::Comdb2,
        BUDGET,
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(plain.deterministic_json(), disabled.deterministic_json());
}
