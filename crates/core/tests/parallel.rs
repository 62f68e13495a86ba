//! Determinism and soundness contracts of the parallel campaign path.
//!
//! The parallel runner promises that results depend only on the engine
//! seeds and the worker count — never on thread scheduling — and that the
//! single-worker path is *exactly* the serial campaign.

use lego::campaign::{
    run_campaign, run_campaign_parallel, Budget, CampaignOpts, CampaignStats, FuzzEngine,
    ParallelOpts,
};
use lego::checkpoint::CheckpointCfg;
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::Telemetry;
use lego_sqlast::Dialect;
use std::sync::atomic::{AtomicUsize, Ordering};

const ALL_DIALECTS: [Dialect; 4] =
    [Dialect::Postgres, Dialect::MySql, Dialect::MariaDb, Dialect::Comdb2];

/// Engine factory giving each worker shard its own RNG stream; worker 0
/// uses the base seed itself so `workers == 1` reproduces a serial run.
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

fn unique_stack_hashes(stats: &CampaignStats) -> bool {
    let mut hs: Vec<u64> = stats.bugs.iter().map(|b| b.crash.stack_hash()).collect();
    let n = hs.len();
    hs.sort_unstable();
    hs.dedup();
    hs.len() == n
}

#[test]
fn workers1_parallel_is_byte_identical_to_serial() {
    let budget = Budget::execs(150);
    for dialect in ALL_DIALECTS {
        let cfg = Config { rng_seed: 0x5eed, ..Config::default() };
        let mut engine = LegoFuzzer::new(dialect, cfg);
        let serial = run_campaign(
            &mut engine,
            dialect,
            budget,
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let parallel = run_campaign_parallel(
            lego_factory(dialect, 0x5eed),
            dialect,
            budget,
            opts(1),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(
            serial.deterministic_json(),
            parallel.deterministic_json(),
            "workers=1 diverged from serial on {dialect:?}"
        );
    }
}

#[test]
fn same_seed_and_worker_count_is_deterministic() {
    let budget = Budget::units(30_000);
    let run = || {
        run_campaign_parallel(
            lego_factory(Dialect::Postgres, 42),
            Dialect::Postgres,
            budget,
            opts(3),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.workers, 3);
}

#[test]
fn merged_coverage_is_sound() {
    let budget = Budget::units(60_000);
    let one = run_campaign_parallel(
        lego_factory(Dialect::Postgres, 7),
        Dialect::Postgres,
        budget,
        opts(1),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    let four = run_campaign_parallel(
        lego_factory(Dialect::Postgres, 7),
        Dialect::Postgres,
        budget,
        opts(4),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    // Splitting one budget across four shards trades per-shard depth for
    // seed diversity; the union must stay within a few percent of the
    // single deep run (the values are deterministic, the margin guards
    // against engine evolution).
    assert!(
        four.branches * 100 >= one.branches * 90,
        "4-worker merge lost too much coverage: {} vs {}",
        four.branches,
        one.branches
    );
    // At equal *wall-clock* — every worker gets the budget the single
    // worker had — parallelism must strictly add coverage.
    let wall = Budget { units: budget.units * 4, snapshots: budget.snapshots };
    let four_wall = run_campaign_parallel(
        lego_factory(Dialect::Postgres, 7),
        Dialect::Postgres,
        wall,
        opts(4),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(
        four_wall.branches >= one.branches,
        "equal-wall-clock parallel run lost coverage: {} < {}",
        four_wall.branches,
        one.branches
    );
    // The merged curve is monotone like the serial one.
    for w in four.coverage_curve.windows(2) {
        assert!(w[1].0 >= w[0].0 && w[1].1 >= w[0].1, "non-monotone curve: {w:?}");
    }
    assert_eq!(four.coverage_curve.len(), budget.snapshots + 1);
    // The last curve point accounts for the whole campaign: nothing any
    // worker observed is dropped by the merge.
    let last = *four.coverage_curve.last().unwrap();
    assert_eq!(last, (four.units, four.branches));
}

#[test]
fn bugs_are_deduplicated_across_workers() {
    let budget = Budget::units(40_000);
    let stats = run_campaign_parallel(
        lego_factory(Dialect::MariaDb, 1),
        Dialect::MariaDb,
        budget,
        opts(4),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(unique_stack_hashes(&stats), "duplicate bug report crossed the worker join");
}

/// Crash-free engine that always replays the same two-statement case, so
/// every execution costs exactly the same number of budget units.
struct FixedCase(std::sync::Arc<lego_sqlast::TestCase>);

impl FixedCase {
    fn new() -> Self {
        Self(std::sync::Arc::new(lego_sqlparser::parse_script("SELECT 1;\nSELECT 2;").unwrap()))
    }
}

impl FuzzEngine for FixedCase {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn next_case(&mut self) -> std::sync::Arc<lego_sqlast::TestCase> {
        std::sync::Arc::clone(&self.0)
    }
    fn feedback(
        &mut self,
        _case: &std::sync::Arc<lego_sqlast::TestCase>,
        _report: &lego_dbms::ExecReport,
        _new: bool,
    ) {
    }
    fn corpus(&self) -> Vec<std::sync::Arc<lego_sqlast::TestCase>> {
        vec![std::sync::Arc::clone(&self.0)]
    }
}

#[test]
fn budget_overshoot_is_at_most_one_case_per_worker() {
    // Fixed-cost, crash-free cases make the overshoot exactly measurable:
    // each worker may only exceed its slice by its final in-flight case.
    let budget = Budget::units(10_001);
    let per_case = {
        // Measure the actual unit cost of one case via a tiny serial run.
        let mut probe = FixedCase::new();
        let one = run_campaign(
            &mut probe,
            Dialect::Postgres,
            Budget::units(1),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        one.units
    };
    let factory = |_worker: usize| -> Box<dyn FuzzEngine + Send> { Box::new(FixedCase::new()) };
    let stats = run_campaign_parallel(
        factory,
        Dialect::Postgres,
        budget,
        opts(4),
        &CampaignOpts::default(),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(stats.units >= budget.units, "budget underrun: {}", stats.units);
    assert!(
        stats.units < budget.units + 4 * per_case,
        "overshoot beyond one case per worker: {} (per-case cost {per_case})",
        stats.units
    );
}

#[test]
fn factory_runs_once_per_worker_with_a_checkpoint_dir() {
    // The checkpoint meta records the engine name. It must come from the
    // workers' own engines, not from an extra factory call whose engine is
    // built only to be thrown away.
    let dir = std::env::temp_dir().join(format!("lego_parallel_factory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let calls = AtomicUsize::new(0);
    let inner = lego_factory(Dialect::Postgres, 11);
    let factory = |w: usize| {
        calls.fetch_add(1, Ordering::SeqCst);
        inner(w)
    };
    let ckpt = CheckpointCfg { every_units: 1_000, dir: Some(dir.clone()), resume: None };
    run_campaign_parallel(
        factory,
        Dialect::Postgres,
        Budget::units(3_000),
        opts(3),
        &CampaignOpts { ckpt, ..CampaignOpts::default() },
        &Telemetry::disabled(),
    )
    .unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 3, "one factory call per worker");
    assert!(dir.join("meta.json").is_file(), "checkpoint meta missing");
    let _ = std::fs::remove_dir_all(&dir);
}
