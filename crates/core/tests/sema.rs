//! Contracts of the static sequence analyzer dimension (`--sema`).
//!
//! The tentpole promises:
//! * **Off is free** — with `sema == false` the `_sema` entry points are
//!   byte-identical to the pre-existing `_full` paths (same exploration
//!   order, same findings, same deterministic report).
//! * **On is deterministic** — serial reruns, `workers == 1` vs serial, and
//!   N-worker reruns are byte-identical; checkpoint/resume reproduces the
//!   uninterrupted run; resuming under a flipped flag is rejected.
//! * **On skips** — statically-rejected cases are charged to the budget but
//!   never executed (minus the 1-in-16 audit slice), and the skipped
//!   statements move `raw_validity_pct` below `validity_pct`.

use lego::campaign::{
    run_campaign, run_campaign_parallel, Budget, CampaignOpts, FuzzEngine, ParallelOpts,
};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::Telemetry;
use lego_sqlast::Dialect;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_sema_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serial campaign with the analyzer flag, everything else disabled.
fn serial(engine: &mut dyn FuzzEngine, sema: bool) -> lego::CampaignStats {
    run_campaign(
        engine,
        Dialect::Postgres,
        Budget::units(20_000),
        &CampaignOpts { sema, ..CampaignOpts::default() },
        &Telemetry::disabled(),
    )
    .expect("campaign without checkpointing cannot fail")
}

fn factory(base_seed: u64, sema: bool) -> impl Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync {
    move |worker| {
        let rng_seed = base_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cfg = Config { rng_seed, sema, ..Config::default() };
        Box::new(LegoFuzzer::new(Dialect::Postgres, cfg))
    }
}

#[test]
fn off_flag_is_byte_identical_to_the_full_path() {
    let cfg = Config { rng_seed: 0x1e60, ..Config::default() };
    let mut a = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let full = run_campaign(
        &mut a,
        Dialect::Postgres,
        Budget::units(20_000),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    let mut b = LegoFuzzer::new(Dialect::Postgres, cfg);
    let sema_off = serial(&mut b, false);
    assert_eq!(
        full.deterministic_json(),
        sema_off.deterministic_json(),
        "sema=false must be byte-identical to the pre-existing path"
    );
    assert_eq!(sema_off.sema_rejects, 0, "no analyzer runs when the dimension is off");
    assert_eq!(sema_off.sema_skipped_stmts, 0);
    assert_eq!(sema_off.sema_divergences, 0);
    // With nothing skipped the two validity views coincide.
    assert!((sema_off.validity_pct() - sema_off.raw_validity_pct()).abs() < f64::EPSILON);
}

#[test]
fn sema_campaigns_are_deterministic_and_skip_statically_invalid_cases() {
    let run = || {
        let cfg = Config { rng_seed: 0x5e3a, sema: true, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
        serial(&mut engine, true)
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json(), "serial rerun diverged");
    assert!(a.sema_rejects > 0, "the analyzer never rejected anything within the budget");
    assert!(a.sema_skipped_stmts > 0, "rejected cases must be skipped, not just counted");
    // Skipped statements enter only the raw denominator, so the raw view
    // can never exceed the attempted-statements view.
    assert!(
        a.raw_validity_pct() <= a.validity_pct(),
        "raw {} > attempted {}",
        a.raw_validity_pct(),
        a.validity_pct()
    );
    // The analyzer is sound on its Accept verdicts, so a campaign against
    // our own engine surfaces no conformance divergence.
    assert_eq!(a.sema_divergences, 0, "unexpected analyzer-vs-engine divergence");
}

#[test]
fn workers1_parallel_sema_is_byte_identical_to_serial_sema() {
    let cfg = Config { rng_seed: 0x5eed, sema: true, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
    let serial_stats = serial(&mut engine, true);
    let parallel = run_campaign_parallel(
        factory(0x5eed, true),
        Dialect::Postgres,
        Budget::units(20_000),
        ParallelOpts { workers: 1, sync_every: 4 },
        &CampaignOpts { sema: true, ..CampaignOpts::default() },
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(serial_stats.deterministic_json(), parallel.deterministic_json());
}

#[test]
fn three_worker_sema_rerun_is_byte_identical() {
    let run = |sema: bool| {
        run_campaign_parallel(
            factory(42, sema),
            Dialect::Postgres,
            Budget::units(24_000),
            ParallelOpts { workers: 3, sync_every: 4 },
            &CampaignOpts { sema, ..CampaignOpts::default() },
            &Telemetry::disabled(),
        )
        .unwrap()
    };
    let a = run(true);
    let b = run(true);
    assert_eq!(a.deterministic_json(), b.deterministic_json(), "3-worker rerun diverged");
    assert!(a.sema_rejects > 0, "no worker rejected anything within the budget");
    // And the off flag stays identical to the pre-existing parallel path.
    let off = run(false);
    let full = run_campaign_parallel(
        factory(42, false),
        Dialect::Postgres,
        Budget::units(24_000),
        ParallelOpts { workers: 3, sync_every: 4 },
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(off.deterministic_json(), full.deterministic_json());
}

fn truncate_checkpoints(dir: &std::path::Path, worker: usize, keep: usize) {
    for seq in (keep + 1).. {
        let path = dir.join(format!("worker{worker:02}_ckpt{seq:04}.json"));
        if !path.exists() {
            break;
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn serial_sema_resume_is_byte_identical() {
    let dir = tmpdir("resume");
    let budget = Budget::units(20_000);
    let cadence = 6_000;
    let cfg = Config { rng_seed: 0x1e60, sema: true, ..Config::default() };

    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let full = run_campaign(
        &mut engine,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: Some(dir.clone()), resume: None },
            sema: true,
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("full run completes");

    truncate_checkpoints(&dir, 0, 1);
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    assert!(resume.meta.sema, "meta must record the analyzer flag");

    // Resuming under the opposite flag would change both the unit accounting
    // and the exploration order; the campaign must refuse rather than
    // silently diverge.
    let mut wrong = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let err = run_campaign(
        &mut wrong,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect_err("flag mismatch must be rejected");
    assert!(err.contains("sema"), "unhelpful mismatch error: {err}");

    let resume = load_campaign_checkpoint(&dir).expect("checkpoint reloads");
    let mut fresh = LegoFuzzer::new(Dialect::Postgres, cfg);
    let resumed = run_campaign(
        &mut fresh,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
            sema: true,
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("resumed run completes");
    assert_eq!(
        full.deterministic_json(),
        resumed.deterministic_json(),
        "sema resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
