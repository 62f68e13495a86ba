//! Campaign benchmark for the LEGO reproduction.
//!
//! Drives the public campaign API (`run_campaign_sema` /
//! `run_campaign_parallel_sema` with `LegoFuzzer`) on one of three
//! workloads and prints its metrics:
//!
//! ```text
//! perfbench --workload NAME [--seed N | --seeds A,B,..] [--seconds S]
//!           [--trace 0|1] [--wal-root DIR]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics of untraced
//! campaigns; `--trace 1` adds a traced pass (a `FuzzEngine` decorator plus
//! the stage profiler) and corpus replays through each layer, and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. A run whose
//! campaign fails its correctness checks prints `"correct": false` and exits
//! with status 1. See `README.md` next to this package.

mod layers;
mod sys;

use lego::campaign::{
    run_campaign_parallel_sema, run_campaign_sema, Budget, CampaignStats, FuzzEngine, ParallelOpts,
};
use lego::checkpoint::CheckpointCfg;
use lego::observe::Telemetry;
use lego::{Config, LegoFuzzer, OracleConfig};
use lego_dbms::{Dbms, PANIC_BUG_ID};
use lego_sqlast::Dialect;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One benchmark workload: a fixed campaign configuration. A *pass* runs
/// `seeds_per_pass` campaigns of `units` each, back to back; every pass of a
/// run does identical work.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dialect: Dialect,
    /// Statement-unit budget of one campaign (split over the workers).
    pub units: usize,
    pub workers: usize,
    pub seeds_per_pass: usize,
    pub sema: bool,
    pub rule_cov: bool,
    /// Oracles of the timed campaigns.
    pub oracles: OracleConfig,
    /// Measure the WAL recovery oracle, in traced runs only: its WAL lives
    /// under `--wal-root`, and on a disk-backed file system its I/O waits
    /// make wall time too unsteady for the timed campaigns.
    pub recovery: bool,
}

const NO_ORACLES: OracleConfig =
    OracleConfig { tlp: false, norec: false, differential: false, recovery: false };

pub const WORKLOADS: [Workload; 3] = [
    // Past the sequence-store saturation onset (250k-400k units on PG):
    // feedback/synthesis does most of the work.
    Workload {
        name: "pg-serial-saturated",
        dialect: Dialect::Postgres,
        units: 800_000,
        workers: 1,
        seeds_per_pass: 4,
        sema: false,
        rule_cov: false,
        oracles: NO_ORACLES,
        recovery: false,
    },
    // The parallel path with each worker's shard at 150k units, below the
    // onset; many seeds make the pass long without saturating.
    Workload {
        name: "pg-2workers-fresh",
        dialect: Dialect::Postgres,
        units: 300_000,
        workers: 2,
        seeds_per_pass: 48,
        sema: false,
        rule_cov: false,
        oracles: NO_ORACLES,
        recovery: false,
    },
    // Every optional layer on: analyzer, rule coverage and logic oracles,
    // plus the WAL recovery oracle in traced runs.
    Workload {
        name: "maria-all-layers",
        dialect: Dialect::MariaDb,
        units: 400_000,
        workers: 1,
        seeds_per_pass: 14,
        sema: true,
        rule_cov: true,
        oracles: OracleConfig { tlp: true, norec: true, differential: true, recovery: false },
        recovery: true,
    },
];

/// Seed used when neither `--seed` nor `--seeds` is given.
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 30.0;
/// Fresh processes whose set-up is timed per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 41;
/// Budget of a set-up probe campaign: enough for every worker's first case.
const PROBE_UNITS: usize = 64;

impl Workload {
    fn config(&self, seed: u64) -> Config {
        Config { rng_seed: seed, rule_cov: self.rule_cov, sema: self.sema, ..Config::default() }
    }

    /// Worker `w`'s engine seed, as in the experiment binaries: worker 0
    /// runs the campaign seed itself.
    fn worker_seed(seed: u64, w: usize) -> u64 {
        seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Builds worker `w`'s engine from its configuration.
pub type MakeEngine<'a> = &'a (dyn Fn(usize, Config) -> Box<dyn FuzzEngine + Send> + Sync);

fn plain_engine(dialect: Dialect) -> impl Fn(usize, Config) -> Box<dyn FuzzEngine + Send> + Sync {
    move |_, cfg| Box::new(LegoFuzzer::new(dialect, cfg))
}

/// One campaign call and its wall time. Only the campaign call is timed:
/// serial engine construction happens before the timer and the engine is
/// dropped after it (the parallel API builds its engines inside the call).
pub struct Run {
    pub seed: u64,
    pub stats: CampaignStats,
    pub secs: f64,
    /// Process CPU seconds (user + system) over the call.
    pub cpu_s: f64,
}

/// Runs `f`, returning its result, its wall seconds and the process CPU
/// seconds (user + system) it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (user0, sys0) = sys::cpu_times();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let (user1, sys1) = sys::cpu_times();
    (out, secs, user1 - user0 + sys1 - sys0)
}

fn campaign(
    w: &Workload,
    seed: u64,
    units: usize,
    wal: Option<&Path>,
    tel: &Telemetry,
    make: MakeEngine,
) -> Result<Run, String> {
    let budget = Budget::units(units);
    let ckpt = CheckpointCfg::disabled();
    let (out, secs, cpu_s) = if w.workers == 1 {
        let mut engine = make(0, w.config(seed));
        timed(|| {
            run_campaign_sema(
                engine.as_mut(),
                w.dialect,
                budget,
                tel,
                w.oracles,
                &ckpt,
                wal,
                w.rule_cov,
                w.sema,
            )
        })
    } else {
        let opts = ParallelOpts { workers: w.workers, ..ParallelOpts::default() };
        let factory = |i: usize| make(i, w.config(Workload::worker_seed(seed, i)));
        timed(|| {
            run_campaign_parallel_sema(
                factory, w.dialect, budget, opts, tel, w.oracles, &ckpt, wal, w.rule_cov, w.sema,
            )
        })
    };
    let stats = out.map_err(|e| format!("seed {seed}: campaign returned Err: {e}"))?;
    Ok(Run { seed, stats, secs, cpu_s })
}

/// The correctness rules every measured campaign must pass.
fn check_campaign(w: &Workload, seed: u64, s: &CampaignStats) -> Result<(), String> {
    let fail = |why: String| Err(format!("seed {seed}: {why}"));
    if s.workers_lost > 0 {
        return fail(format!("{} worker(s) lost", s.workers_lost));
    }
    if s.units < w.units || s.execs == 0 || s.branches == 0 {
        return fail(format!(
            "budget not spent or no coverage: {} units, {} execs, {} branches",
            s.units, s.execs, s.branches
        ));
    }
    if s.coverage_curve.windows(2).any(|p| p[1].1 < p[0].1) {
        return fail("coverage curve decreases".into());
    }
    // Every reported crash must re-trigger from its reduced reproducer on a
    // fresh engine instance.
    for b in s.bugs.iter().filter(|b| b.crash.bug_id != PANIC_BUG_ID) {
        let case = lego_sqlparser::parse_script(&b.reduced_sql).map_err(|e| {
            format!("seed {seed}: reproducer of {} does not parse: {e:?}", b.crash.identifier)
        })?;
        let got = Dbms::new(w.dialect).execute_case(&case).crash().map(|c| c.bug_id);
        if got != Some(b.crash.bug_id) {
            return fail(format!("reproducer of {} does not re-trigger it", b.crash.identifier));
        }
    }
    Ok(())
}

/// FNV-1a over the deterministic outcome of every campaign of a pass.
fn digest(runs: &[Run]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in runs {
        for b in r.stats.deterministic_json().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// One pass: every seed's campaign, back to back.
pub struct Pass {
    pub runs: Vec<Run>,
    pub secs: f64,
    pub digest: u64,
}

impl Pass {
    pub fn execs(&self) -> usize {
        self.runs.iter().map(|r| r.stats.execs).sum()
    }

    /// Mean over the pass's campaigns of a per-campaign count.
    pub fn mean(&self, f: impl Fn(&CampaignStats) -> usize) -> f64 {
        self.runs.iter().map(|r| f(&r.stats) as f64).sum::<f64>() / self.runs.len() as f64
    }
}

fn pass(
    w: &Workload,
    seeds: &[u64],
    traced: bool,
    make: MakeEngine,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let mut runs = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        tally.attempted += 1;
        let tel = if traced { Telemetry::profile_only() } else { Telemetry::disabled() };
        let run = campaign(w, seed, w.units, None, &tel, make)?;
        check_campaign(w, seed, &run.stats)?;
        runs.push(run);
    }
    let secs = runs.iter().map(|r| r.secs).sum();
    Ok(Pass { digest: digest(&runs), runs, secs })
}

/// Time from the start of engine construction to the first `next_case`
/// call (the slowest worker's), which covers all campaign pre-loop work.
/// Measured on a probe campaign of [`PROBE_UNITS`], never on a timed one.
fn setup_probe(w: &Workload, seed: u64) -> Result<f64, String> {
    let sink = layers::Sink::default();
    let make = |_, cfg: Config| layers::Traced::boxed(w.dialect, cfg, &sink);
    let t0 = Instant::now();
    campaign(w, seed, PROBE_UNITS, None, &Telemetry::disabled(), &make)?;
    let finished = layers::take(&sink);
    let firsts: Option<Vec<Instant>> = finished.iter().map(|f| f.rec.first_case).collect();
    match firsts.and_then(|v| v.into_iter().max()) {
        Some(first) if finished.len() == w.workers => Ok((first - t0).as_secs_f64()),
        _ => Err("set-up probe: a worker never asked for a case".into()),
    }
}

/// [`setup_probe`] in a fresh process of this program, as a user starting
/// a campaign pays it: first-touch page faults and one-time initialisation
/// included.
fn fresh_setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name, "--seeds", &args.seeds[0].to_string()])
        .arg("--setup-probe")
        .output()
        .map_err(|e| format!("set-up probe process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "set-up probe process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (`q` in 0..=1).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

struct Args {
    workload: &'static Workload,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    wal_root: PathBuf,
    /// Internal: time one set-up probe, print its seconds and exit.
    setup_probe: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME [--seed N | --seeds A,B,..] [--seconds S] \
[--trace 0|1] [--wal-root DIR]";

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seeds: Option<Vec<u64>> = None;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut wal_root = PathBuf::from(".perfbench-wal");
        let mut setup_probe = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value '{v}' for {flag}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == v)
                            .ok_or(format!("unknown workload '{v}'"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seeds" => {
                    let v = value()?;
                    let list = v.split(',').map(str::parse).collect::<Result<Vec<u64>, _>>();
                    seeds = Some(list.map_err(|_| bad(v))?);
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(|| bad(v))?;
                }
                "--trace" => {
                    let v = value()?;
                    trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(v)),
                    };
                }
                "--wal-root" => wal_root = PathBuf::from(value()?),
                "--setup-probe" => setup_probe = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        // Seed `n` names campaign seeds `n*k .. n*k+k-1` for a pass of `k`
        // campaigns, so distinct seeds share no campaign.
        let k = workload.seeds_per_pass as u64;
        let seeds =
            seeds.unwrap_or_else(|| (0..k).map(|i| seed.wrapping_mul(k).wrapping_add(i)).collect());
        Ok(Args { workload, seeds, seconds, trace, wal_root, setup_probe })
    }
}

fn measure(args: &Args, wal: Option<&Path>, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let plain = plain_engine(w.dialect);

    let setups =
        (0..SETUP_REPEATS).map(|_| fresh_setup_probe(args)).collect::<Result<Vec<_>, _>>()?;
    // Timed passes until the window is spent. A traced run gives half the
    // window to untraced passes over the first half of the seeds, and the
    // other half to one traced pass over the same seeds.
    let (window, seeds) = if args.trace {
        (args.seconds / 2.0, &args.seeds[..args.seeds.len().div_ceil(2)])
    } else {
        (args.seconds, &args.seeds[..])
    };
    let window = Duration::from_secs_f64(window);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let t = Instant::now();
        let p = pass(w, seeds, false, &plain, tally)?;
        if let Some(d) = passes.first().map(|p| p.digest).filter(|&d| d != p.digest) {
            return Err(format!("outcome digest {:016x} differs from {d:016x}", p.digest));
        }
        passes.push(p);
        // Stop when one more pass would end past the window by more than
        // half a pass.
        if start.elapsed() + t.elapsed() / 2 >= window {
            break;
        }
    }
    for p in &passes {
        for r in &p.runs {
            println!(
                "campaign seed {}: {:.4} s wall, {:.2} s cpu, {} execs, {} branches",
                r.seed, r.secs, r.cpu_s, r.stats.execs, r.stats.branches
            );
        }
    }
    let times: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let campaign_s = median(&times);
    let first = &passes[0];
    println!("digest: {:016x}", first.digest);
    println!(
        "passes: {} | pass seconds: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        times.len(),
        quantile(&times, 0.0),
        quantile(&times, 0.25),
        campaign_s,
        quantile(&times, 0.75),
        quantile(&times, 1.0)
    );
    println!(
        "set-up probes: {} | seconds: q1 {:.6} median {:.6} q3 {:.6}",
        setups.len(),
        quantile(&setups, 0.25),
        median(&setups),
        quantile(&setups, 0.75)
    );
    println!(
        "bugs per campaign: {} | cases aborted per campaign: {} | execs per pass: {}",
        first.mean(|s| s.bugs.len() + s.logic_bugs.len()),
        first.mean(|s| s.cases_aborted),
        first.execs()
    );

    Ok(if args.trace {
        let sink = layers::Sink::default();
        let make = |_, cfg: Config| layers::Traced::boxed(w.dialect, cfg, &sink);
        let cpu0 = sys::cpu_times();
        let traced = pass(w, seeds, true, &make, tally)?;
        let cpu1 = sys::cpu_times();
        if traced.digest != first.digest {
            return Err(format!(
                "traced outcome digest {:016x} differs from untraced {:016x}",
                traced.digest, first.digest
            ));
        }
        // The recovery oracle, off in the timed campaigns: one campaign
        // with it on gives its stage share.
        let recovery = match wal {
            Some(dir) => {
                let with = Workload { oracles: OracleConfig { recovery: true, ..w.oracles }, ..*w };
                tally.attempted += 1;
                let run = campaign(
                    &with,
                    seeds[0],
                    w.units,
                    Some(dir),
                    &Telemetry::profile_only(),
                    &plain,
                )?;
                check_campaign(&with, seeds[0], &run.stats)?;
                Some(run)
            }
            None => None,
        };
        layers::per_layer(layers::TracedPass {
            w,
            pass: &traced,
            finished: layers::take(&sink),
            untraced_s: campaign_s,
            cpu: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
            wal,
            recovery: recovery.as_ref(),
        })
    } else {
        vec![
            metric("execs_per_s", first.execs() as f64 / campaign_s, "1/s"),
            metric("campaign_s", campaign_s, "s"),
            metric("branches", first.mean(|s| s.branches), "count"),
            metric("affinities", first.mean(|s| s.corpus_affinities), "count"),
            metric("peak_rss_mb", sys::peak_rss_mib(), "MiB"),
            metric("setup_s", median(&setups), "s"),
        ]
    })
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Runs `f` with a fresh recovery-oracle WAL directory under `--wal-root`
/// (none unless a traced run measures the recovery oracle), removed
/// afterwards.
fn in_wal_dir<T>(
    args: &Args,
    f: impl FnOnce(Option<&Path>) -> Result<T, String>,
) -> Result<T, String> {
    if !(args.trace && args.workload.recovery) {
        return f(None);
    }
    let dir = args.wal_root.join(format!("run-{}-{}", std::process::id(), sys::unix_nanos()));
    let out = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create WAL dir {}: {e}", dir.display()))
        .and_then(|_| f(Some(&dir)));
    let _ = std::fs::remove_dir_all(&dir);
    // Drop the root too when no other run is using it.
    let _ = std::fs::remove_dir(&args.wal_root);
    out
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if args.setup_probe {
        return match setup_probe(w, args.seeds[0]) {
            Ok(secs) => {
                println!("{secs:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "meta: {}",
        sys::meta_json(&[
            ("workload", w.name.to_string()),
            ("dialect", w.dialect.name().to_string()),
            ("units_per_campaign", w.units.to_string()),
            ("workers", w.workers.to_string()),
            ("seeds", format!("{:?}", args.seeds)),
            ("default_seed", DEFAULT_SEED.to_string()),
            ("sema", w.sema.to_string()),
            ("rule_cov", w.rule_cov.to_string()),
            ("oracles", format!("{:?}", w.oracles)),
            ("seconds", args.seconds.to_string()),
            ("trace", args.trace.to_string()),
            ("nproc", sys::nproc().to_string()),
            ("cpu_model", sys::cpu_model()),
            ("commit", sys::git_commit()),
            ("source_digest", format!("{:016x}", sys::source_digest())),
            (
                "wal_root",
                if args.trace && w.recovery {
                    format!("{} ({})", args.wal_root.display(), sys::fs_type(&args.wal_root))
                } else {
                    "none".into()
                },
            ),
        ])
    );
    let mut tally = Tally::default();
    let out = in_wal_dir(&args, |wal| measure(&args, wal, &mut tally));
    match out {
        Ok(metrics) => {
            for m in &metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", json_line(true, &tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            tally.failed += 1;
            println!("{}", json_line(false, &tally, &[]));
            ExitCode::FAILURE
        }
    }
}
