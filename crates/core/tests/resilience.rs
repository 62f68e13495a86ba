//! Fault-tolerance contracts of the campaign supervisor.
//!
//! Three promises are exercised end to end, against *actually* faulty
//! engines (via the `lego-dbms` planted-fault switches):
//!
//! 1. **Panic isolation** — an engine panic mid-case becomes a recorded,
//!    deduplicated crash finding; the campaign runs to budget exhaustion.
//! 2. **Hang guards** — a spinning case trips its per-case execution budget,
//!    is counted and reported, and is never admitted to the corpus.
//! 3. **Worker-death tolerance** — a worker thread dying outside the
//!    per-case isolation boundary forfeits only its own budget slice; the
//!    join merges the survivors.
//!
//! Plus the checkpoint/resume determinism guarantee: a campaign interrupted
//! at checkpoint N and resumed produces the byte-identical deterministic
//! report of an uninterrupted run with the same checkpoint cadence.
//!
//! The fault switches are process-global, so every test that flips one
//! holds `FAULT_LOCK` for its whole body (the cargo test harness runs tests
//! in this binary on multiple threads).

use lego::campaign::{
    run_campaign, run_campaign_parallel, Budget, CampaignOpts, FuzzEngine, ParallelOpts,
};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, Telemetry};
use lego_dbms::{ExecReport, PANIC_BUG_ID};
use lego_oracle::OracleConfig;
use lego_sqlast::{Dialect, TestCase};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    // A failed fault test must not wedge the others.
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic engine that cycles through a fixed script of cases and
/// records the admission verdict (`new_coverage`) each one received.
struct ScriptedEngine {
    cases: Vec<Arc<TestCase>>,
    next: usize,
    verdicts: Vec<(String, bool)>,
}

impl ScriptedEngine {
    fn new(scripts: &[&str]) -> Self {
        let cases = scripts
            .iter()
            .map(|s| Arc::new(lego_sqlparser::parse_script(s).expect("scripted case parses")))
            .collect();
        Self { cases, next: 0, verdicts: Vec::new() }
    }
}

impl FuzzEngine for ScriptedEngine {
    fn name(&self) -> &'static str {
        "SCRIPTED"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        let case = Arc::clone(&self.cases[self.next % self.cases.len()]);
        self.next += 1;
        case
    }

    fn feedback(&mut self, case: &Arc<TestCase>, _report: &ExecReport, new_coverage: bool) {
        self.verdicts.push((case.to_sql(), new_coverage));
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        Vec::new()
    }
}

/// An engine that panics on its `n`-th case — *outside* the per-case
/// isolation boundary, modelling a bug in the fuzzer itself rather than in
/// the DBMS under test.
struct DyingEngine {
    inner: ScriptedEngine,
    dies_at: usize,
}

impl FuzzEngine for DyingEngine {
    fn name(&self) -> &'static str {
        "DYING"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        if self.inner.next >= self.dies_at {
            panic!("injected worker death");
        }
        self.inner.next_case()
    }

    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        self.inner.feedback(case, report, new_coverage);
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        Vec::new()
    }
}

const SCRIPT: [&str; 4] = [
    "CREATE TABLE t (a INT);",
    "INSERT INTO t VALUES (1);",
    "CREATE TRIGGER x1 AFTER INSERT ON t FOR EACH ROW DELETE FROM t;",
    "SELECT * FROM t;",
];

#[test]
fn engine_panic_becomes_a_recorded_finding_and_campaign_survives() {
    let _lock = fault_lock();
    let _fault = lego_dbms::faults::FaultGuard::enable_panic_on_create_trigger();
    let mut engine = ScriptedEngine::new(&SCRIPT);
    let stats = run_campaign(
        &mut engine,
        Dialect::Postgres,
        Budget::units(150),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();

    // The campaign survived to budget exhaustion and recorded exactly one
    // deduplicated panic finding (the same panic re-fires every cycle).
    assert!(stats.units >= 150, "campaign stopped early: {} units", stats.units);
    assert_eq!(stats.bugs.len(), 1, "expected one deduplicated panic finding");
    let bug = &stats.bugs[0];
    assert_eq!(bug.crash.bug_id, PANIC_BUG_ID);
    assert!(bug.crash.identifier.contains("PANIC"), "identifier: {}", bug.crash.identifier);
    // Panic findings skip delta debugging: the reproducer is the whole case.
    assert_eq!(bug.reduced_sql, bug.case_sql);
    // A panicking case is never admitted.
    assert!(engine
        .verdicts
        .iter()
        .filter(|(sql, _)| sql.contains("TRIGGER"))
        .all(|&(_, admitted)| !admitted));
}

#[test]
fn panic_campaigns_are_deterministic_across_worker_counts() {
    let _lock = fault_lock();
    let _fault = lego_dbms::faults::FaultGuard::enable_panic_on_create_trigger();
    let factory =
        || |_w: usize| Box::new(ScriptedEngine::new(&SCRIPT)) as Box<dyn FuzzEngine + Send>;
    for workers in [1usize, 3] {
        let opts = ParallelOpts { workers, sync_every: 4 };
        let run = || {
            run_campaign_parallel(
                factory(),
                Dialect::Postgres,
                Budget::units(900),
                opts,
                &CampaignOpts::default(),
                &Telemetry::disabled(),
            )
            .expect("campaign completes")
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.deterministic_json(),
            b.deterministic_json(),
            "nondeterministic panic campaign at workers={workers}"
        );
        assert_eq!(a.bugs.len(), 1, "workers={workers}");
        assert_eq!(a.bugs[0].crash.bug_id, PANIC_BUG_ID);
        assert_eq!(a.workers_lost, 0);
    }
}

#[test]
fn hang_guard_aborts_spinning_cases_and_never_retains_them() {
    let _lock = fault_lock();
    let _fault = lego_dbms::faults::FaultGuard::enable_spin_on_create_trigger();
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let mut engine = ScriptedEngine::new(&SCRIPT);
    let stats = run_campaign(
        &mut engine,
        Dialect::Postgres,
        Budget::units(400),
        &CampaignOpts::default(),
        &tel,
    )
    .expect("campaign completes");

    assert!(stats.cases_aborted > 0, "hang guard never fired");
    assert!(stats.bugs.is_empty(), "a hang is not a crash");
    // Every abort surfaced in telemetry with its budget reason.
    let aborts: Vec<String> = mem
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::CaseAborted { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(aborts.len(), stats.cases_aborted);
    assert!(aborts.iter().all(|r| r == "row_budget"), "reasons: {aborts:?}");
    // Aborted cases are never admitted to the corpus.
    assert!(engine
        .verdicts
        .iter()
        .filter(|(sql, _)| sql.contains("TRIGGER"))
        .all(|&(_, admitted)| !admitted));
}

#[test]
fn dead_worker_forfeits_only_its_own_slice() {
    // No fault switch involved: the death is injected in the engine.
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let factory = |w: usize| -> Box<dyn FuzzEngine + Send> {
        if w == 1 {
            Box::new(DyingEngine { inner: ScriptedEngine::new(&SCRIPT), dies_at: 5 })
        } else {
            Box::new(ScriptedEngine::new(&SCRIPT))
        }
    };
    let stats = run_campaign_parallel(
        factory,
        Dialect::Postgres,
        Budget::units(900),
        ParallelOpts { workers: 3, sync_every: 2 },
        &CampaignOpts::default(),
        &tel,
    )
    .expect("campaign must survive a dead worker");

    assert_eq!(stats.workers_lost, 1);
    assert_eq!(stats.fuzzer, "SCRIPTED", "fuzzer name comes from a survivor");
    // Both survivors ran their full slices (300 units each).
    assert!(stats.units >= 600, "survivors forfeited work: {} units", stats.units);
    assert!(stats.branches > 0);
    let deaths: Vec<(usize, String)> = mem
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::WorkerDied { worker, error } => Some((*worker, error.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(deaths.len(), 1);
    assert_eq!(deaths[0].0, 1);
    assert!(deaths[0].1.contains("injected worker death"), "error: {}", deaths[0].1);
}

/// Delete every checkpoint file of `worker` with a sequence number above
/// `keep`, simulating a campaign killed shortly after checkpoint `keep`.
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
fn serial_resume_is_byte_identical_to_uninterrupted_run() {
    let dir = tmpdir("serial");
    let budget = Budget::units(20_000);
    let cfg = Config { rng_seed: 0x1e60, ..Config::default() };
    let cadence = 6_000;

    // Uninterrupted run, checkpointing as it goes.
    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let full = run_campaign(
        &mut engine,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: Some(dir.clone()), resume: None },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("full run completes");

    // Simulate a crash shortly after the first checkpoint, then resume.
    truncate_checkpoints(&dir, 0, 1);
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    assert_eq!(resume.workers[0].seq, 1);
    let mut fresh = LegoFuzzer::new(Dialect::Postgres, cfg);
    let resumed = run_campaign(
        &mut fresh,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("resumed run completes");

    assert_eq!(
        full.deterministic_json(),
        resumed.deterministic_json(),
        "resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_resume_is_byte_identical_to_uninterrupted_run() {
    let dir = tmpdir("parallel");
    let budget = Budget::units(30_000);
    let workers = 3;
    let opts = ParallelOpts { workers, sync_every: 4 };
    let cadence = 3_000;
    let factory = |w: usize| -> Box<dyn FuzzEngine + Send> {
        let rng_seed = 0x1e60 ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Box::new(LegoFuzzer::new(Dialect::Postgres, Config { rng_seed, ..Config::default() }))
    };

    let full = run_campaign_parallel(
        factory,
        Dialect::Postgres,
        budget,
        opts,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: Some(dir.clone()), resume: None },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("full run completes");

    // Kill the campaign "after" every worker's first checkpoint and resume.
    for w in 0..workers {
        truncate_checkpoints(&dir, w, 1);
    }
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    assert!(resume.workers.iter().all(|w| w.seq == 1));
    let resumed = run_campaign_parallel(
        factory,
        Dialect::Postgres,
        budget,
        opts,
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("resumed run completes");

    assert_eq!(
        full.deterministic_json(),
        resumed.deterministic_json(),
        "parallel resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serial_resume_with_recovery_oracle_is_byte_identical() {
    // Checkpoint/resume must be WAL-aware: a resumed recovery campaign
    // re-creates its per-worker WAL from scratch on every oracle check, so
    // the report is byte-identical to the uninterrupted run even though the
    // interruption discarded the WAL file mid-flight.
    let ckpt_dir = tmpdir("recovery_ckpt");
    let wal_a = tmpdir("recovery_wal_a");
    let wal_b = tmpdir("recovery_wal_b");
    let budget = Budget::units(20_000);
    let cfg = Config { rng_seed: 0x1e60, ..Config::default() };
    let cadence = 6_000;
    let oracles = OracleConfig::recovery_only();

    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let full = run_campaign(
        &mut engine,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            oracles,
            ckpt: CheckpointCfg { every_units: cadence, dir: Some(ckpt_dir.clone()), resume: None },
            wal_dir: Some(wal_a.clone()),
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("full run completes");

    // Simulate a crash shortly after the first checkpoint — which also
    // tears down the WAL directory — then resume into a fresh one.
    truncate_checkpoints(&ckpt_dir, 0, 1);
    let _ = std::fs::remove_dir_all(&wal_a);
    let resume = load_campaign_checkpoint(&ckpt_dir).expect("checkpoint loads");
    assert_eq!(resume.workers[0].seq, 1);
    // The checkpoint recorded that the recovery oracle was on.
    assert_eq!(resume.meta.oracles, (false, false, false, true));
    let mut fresh = LegoFuzzer::new(Dialect::Postgres, cfg);
    let resumed = run_campaign(
        &mut fresh,
        Dialect::Postgres,
        budget,
        &CampaignOpts {
            oracles,
            ckpt: CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
            wal_dir: Some(wal_b.clone()),
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("resumed run completes");

    assert_eq!(
        full.deterministic_json(),
        resumed.deterministic_json(),
        "recovery-oracle resume diverged from the uninterrupted run"
    );
    assert!(full.oracle_checks > 0, "campaign never reached an oracle-eligible query");
    for dir in [&ckpt_dir, &wal_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn resume_rejects_a_mismatched_worker_count() {
    let dir = tmpdir("mismatch");
    let factory = |w: usize| -> Box<dyn FuzzEngine + Send> {
        let rng_seed = 7 ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Box::new(LegoFuzzer::new(Dialect::Postgres, Config { rng_seed, ..Config::default() }))
    };
    run_campaign_parallel(
        factory,
        Dialect::Postgres,
        Budget::units(6_000),
        ParallelOpts { workers: 2, sync_every: 4 },
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: 2_000, dir: Some(dir.clone()), resume: None },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .expect("seeding run completes");
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    let err = run_campaign_parallel(
        factory,
        Dialect::Postgres,
        Budget::units(6_000),
        ParallelOpts { workers: 3, sync_every: 4 },
        &CampaignOpts {
            ckpt: CheckpointCfg { every_units: 2_000, dir: None, resume: Some(resume) },
            ..CampaignOpts::default()
        },
        &Telemetry::disabled(),
    )
    .unwrap_err();
    assert!(err.contains("worker count"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
