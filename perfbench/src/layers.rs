//! Per-layer measurement from outside each layer: a [`FuzzEngine`]
//! decorator that times the engine's generation and feedback calls, and
//! replays of the campaign's final corpus through each layer's public
//! functions.

use crate::{metric, quantile, Metric, Pass, Run, Workload};
use lego::campaign::FuzzEngine;
use lego::observe::Telemetry;
use lego::oracle::OracleSuite;
use lego::{Config, LegoFuzzer, OracleConfig};
use lego_coverage::{CovRecorder, GlobalCoverage};
use lego_dbms::{Dbms, ExecReport};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::Sema;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the decorator saw of one engine.
#[derive(Default)]
pub struct Record {
    /// When construction of the engine started.
    pub created: Option<Instant>,
    pub first_case: Option<Instant>,
    pub next_case_ns: Vec<u64>,
    pub feedback_ns: Vec<u64>,
    pub rule_feedback_ns: u64,
    /// `feedback` calls with `new_coverage == true`.
    pub admitted: usize,
}

/// An engine whose campaign has finished, with the decorator's record.
pub struct Finished {
    pub engine: LegoFuzzer,
    pub rec: Record,
}

/// Where decorators leave their engine when the campaign drops them, so
/// engine state is read only after the campaign call has returned.
pub type Sink = Arc<Mutex<Vec<Finished>>>;

pub fn take(sink: &Sink) -> Vec<Finished> {
    std::mem::take(&mut *sink.lock().expect("no decorator panics while holding the sink"))
}

/// Forwards every [`FuzzEngine`] method to a [`LegoFuzzer`], timing
/// `next_case`, `feedback` and `rule_feedback`.
pub struct Traced {
    inner: Option<LegoFuzzer>,
    rec: Record,
    sink: Sink,
}

impl Traced {
    pub fn boxed(dialect: Dialect, cfg: Config, sink: &Sink) -> Box<dyn FuzzEngine + Send> {
        let created = Instant::now();
        Box::new(Traced {
            inner: Some(LegoFuzzer::new(dialect, cfg)),
            rec: Record { created: Some(created), ..Record::default() },
            sink: sink.clone(),
        })
    }

    fn engine(&self) -> &LegoFuzzer {
        self.inner.as_ref().expect("engine present until drop")
    }

    fn engine_mut(&mut self) -> &mut LegoFuzzer {
        self.inner.as_mut().expect("engine present until drop")
    }
}

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl FuzzEngine for Traced {
    fn name(&self) -> &'static str {
        self.engine().name()
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        let t = Instant::now();
        self.rec.first_case.get_or_insert(t);
        let case = self.engine_mut().next_case();
        self.rec.next_case_ns.push(nanos_since(t));
        case
    }

    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        let t = Instant::now();
        self.engine_mut().feedback(case, report, new_coverage);
        self.rec.feedback_ns.push(nanos_since(t));
        self.rec.admitted += usize::from(new_coverage);
    }

    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        let t = Instant::now();
        self.engine_mut().rule_feedback(case, new_rule_edges);
        self.rec.rule_feedback_ns += nanos_since(t);
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.engine().corpus()
    }

    fn attach_telemetry(&mut self, tel: Telemetry) {
        self.engine_mut().attach_telemetry(tel);
    }

    fn checkpoint(&mut self) -> Option<String> {
        self.engine_mut().checkpoint()
    }

    fn restore(&mut self, snapshot: &str) -> Result<(), String> {
        self.engine_mut().restore(snapshot)
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        if let (Some(engine), Ok(mut done)) = (self.inner.take(), self.sink.lock()) {
            done.push(Finished { engine, rec: std::mem::take(&mut self.rec) });
        }
    }
}

/// The traced pass and what it left behind.
pub struct TracedPass<'a> {
    pub w: &'a Workload,
    pub pass: &'a Pass,
    pub finished: Vec<Finished>,
    /// Median untraced pass time of the same run.
    pub untraced_s: f64,
    /// Process (user, system) CPU seconds spent over the traced pass.
    pub cpu: (f64, f64),
    /// WAL directory for the recovery oracle's replay and campaign.
    pub wal: Option<&'a Path>,
    /// The campaign run with the recovery oracle on, when measured.
    pub recovery: Option<&'a Run>,
}

fn secs(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e9
}

fn percentile_us(ns: &[u64], q: f64) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    quantile(&us, q)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `store_truncated` from an engine snapshot (a top-level field).
fn store_truncated(engine: &mut LegoFuzzer) -> usize {
    let snap = engine.checkpoint().expect("LEGO supports checkpoints");
    let key = "\"store_truncated\":";
    let at = snap.find(key).expect("snapshot has store_truncated") + key.len();
    let digits: String = snap[at..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("store_truncated is a count")
}

/// Accumulates time per replayed unit of work.
#[derive(Default)]
struct Replay {
    ns: u64,
    units: usize,
}

impl Replay {
    fn time<T>(&mut self, units: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        self.ns += nanos_since(t);
        self.units += units;
        out
    }

    fn us_per_unit(&self) -> f64 {
        ratio(self.ns as f64 / 1e3, self.units as f64)
    }
}

/// Each stage's share of the summed top-level stage time of `stats`.
fn stage_shares<'a>(stats: impl Iterator<Item = &'a lego::CampaignStats>) -> BTreeMap<String, f64> {
    let mut ms = BTreeMap::<String, f64>::new();
    for s in stats {
        for e in s.stage_profile.iter().flat_map(|p| p.stages.iter()) {
            *ms.entry(e.stage.clone()).or_default() += e.total_ms;
        }
    }
    let top: f64 = ms.iter().filter(|(k, _)| *k != "mutation").map(|(_, v)| v).sum();
    ms.values_mut().for_each(|v| *v = ratio(*v, top));
    ms
}

pub fn per_layer(t: TracedPass) -> Vec<Metric> {
    let TracedPass { w, pass, mut finished, untraced_s, cpu, wal, recovery } = t;
    let stats: Vec<_> = pass.runs.iter().map(|r| &r.stats).collect();
    let execs = pass.execs() as f64;
    let sum = |f: &dyn Fn(&lego::CampaignStats) -> usize| {
        stats.iter().map(|s| f(s)).sum::<usize>() as f64
    };
    // Busy time available to the engines: every worker for the whole call.
    let worker_s: f64 = pass.runs.iter().map(|r| r.secs * w.workers as f64).sum();

    let next_ns: Vec<u64> =
        finished.iter().flat_map(|f| f.rec.next_case_ns.iter().copied()).collect();
    let fb_ns: Vec<u64> = finished.iter().flat_map(|f| f.rec.feedback_ns.iter().copied()).collect();
    let rule_fb_s = finished.iter().map(|f| f.rec.rule_feedback_ns).sum::<u64>() as f64 / 1e9;
    let feedback_s = secs(&fb_ns) + rule_fb_s;
    let next_case_s = secs(&next_ns);
    let admitted = finished.iter().map(|f| f.rec.admitted).sum::<usize>() as f64;
    let truncated: usize = finished.iter_mut().map(|f| store_truncated(&mut f.engine)).sum();
    let engine_sum = |f: &dyn Fn(&lego::fuzzer::LegoStats) -> usize| {
        finished.iter().map(|e| f(&e.engine.stats)).sum::<usize>() as f64
    };
    // Per campaign, busiest over idlest worker by cases asked for. Engines
    // reach the sink campaign by campaign.
    let imbalance = finished
        .chunks(w.workers)
        .map(|c| {
            let n: Vec<f64> = c.iter().map(|f| f.rec.next_case_ns.len() as f64).collect();
            ratio(
                n.iter().cloned().fold(0.0, f64::max),
                n.iter().cloned().fold(f64::INFINITY, f64::min),
            )
        })
        .fold(0.0, f64::max);
    let setup = finished
        .iter()
        .filter_map(|f| Some((f.rec.first_case? - f.rec.created?).as_secs_f64()))
        .fold(0.0, f64::max);

    let shares = stage_shares(stats.iter().copied());
    let share = |stage: &str| shares.get(stage).copied().unwrap_or(0.0);
    let recovery_share = recovery.map_or(0.0, |r| {
        stage_shares(std::iter::once(&r.stats)).get("recovery").copied().unwrap_or(0.0)
    });

    // Replays of the first campaign's final corpus (all its workers').
    let corpus: Vec<Arc<TestCase>> =
        finished[..w.workers].iter().flat_map(|f| f.engine.corpus()).collect();
    let (mut exec, mut merge, mut parse, mut sema_r, mut logic, mut recov) = (
        Replay::default(),
        Replay::default(),
        Replay::default(),
        Replay::default(),
        Replay::default(),
        Replay::default(),
    );
    let mut dbms = Dbms::new(w.dialect);
    let mut global = GlobalCoverage::new();
    let sema = Sema::new(w.dialect);
    let logic_on = w.oracles.enabled();
    // A WAL directory is given exactly when the recovery oracle is measured.
    let recovery_on = wal.is_some();
    let mut suite = (logic_on || recovery_on).then(|| {
        let cfg = OracleConfig { recovery: recovery_on, ..w.oracles };
        OracleSuite::with_wal(w.dialect, cfg, wal, 0)
    });
    for case in &corpus {
        let n = case.statements.len();
        dbms.reset();
        let report = exec.time(0, || dbms.execute_case(case));
        exec.units += report.statements_executed;
        merge.time(1, || global.merge(&report.coverage));
        dbms.recycle(report.coverage);
        if w.rule_cov {
            let sql = case.to_sql();
            let _ = parse.time(n, || lego_sqlparser::parse_script_traced(&sql, CovRecorder::new()));
        }
        if w.sema {
            sema_r.time(n, || sema.check_sequence(&case.statements));
        }
        if let Some(suite) = suite.as_mut() {
            if logic_on {
                logic.time(1, || suite.check_case_logic(case));
            }
            if recovery_on {
                recov.time(1, || suite.check_case_recovery(case));
            }
        }
    }

    let attempted_stmts = sum(&|s| s.stmts_ok + s.stmts_err);
    let generated_stmts = attempted_stmts + sum(&|s| s.sema_skipped_stmts);
    vec![
        // lego::fuzzer feedback
        metric("fuzzer.feedback_s", feedback_s, "s"),
        metric("fuzzer.feedback_share", ratio(feedback_s, worker_s), "ratio"),
        metric("fuzzer.feedback_us_p50", percentile_us(&fb_ns, 0.5), "us"),
        metric("fuzzer.feedback_us_p99", percentile_us(&fb_ns, 0.99), "us"),
        metric("synthesis.store_truncated", truncated as f64, "count"),
        metric("synthesis.truncated_per_exec", ratio(truncated as f64, execs), "ratio"),
        metric("fuzzer.sequences_synthesized", engine_sum(&|s| s.sequences_synthesized), "count"),
        metric(
            "fuzzer.sequences_skipped_covered",
            engine_sum(&|s| s.sequences_skipped_covered),
            "count",
        ),
        // lego::fuzzer generation
        metric("fuzzer.next_case_s", next_case_s, "s"),
        metric("fuzzer.next_case_share", ratio(next_case_s, worker_s), "ratio"),
        metric("fuzzer.next_case_us_p99", percentile_us(&next_ns, 0.99), "us"),
        metric("fuzzer.cases_instantiated", engine_sum(&|s| s.cases_instantiated), "count"),
        metric("fuzzer.queue_dropped", engine_sum(&|s| s.queue_dropped), "count"),
        // lego::fuzzer admission
        metric("fuzzer.admit_ratio", ratio(admitted, execs), "ratio"),
        metric("fuzzer.affinities_found", engine_sum(&|s| s.affinities_found), "count"),
        // lego_dbms
        metric("dbms.replay_us_per_stmt", exec.us_per_unit(), "us"),
        metric("dbms.validity_pct", ratio(sum(&|s| s.stmts_ok) * 100.0, attempted_stmts), "%"),
        metric("dbms.stmts_per_exec", ratio(attempted_stmts, execs), "ratio"),
        metric("campaign.execution_share", share("execution"), "ratio"),
        // lego_coverage
        metric("coverage.merge_us", merge.us_per_unit(), "us"),
        metric("campaign.coverage_union_share", share("coverage_union"), "ratio"),
        // lego::campaign parallel path
        metric("process.cpu_per_wall", ratio(cpu.0 + cpu.1, pass.secs), "ratio"),
        metric("campaign.worker_imbalance", imbalance, "ratio"),
        // lego_sqlparser
        metric("sqlparser.parse_us_per_stmt", parse.us_per_unit(), "us"),
        metric("sqlparser.rule_edges", pass.mean(|s| s.rule_branches), "count"),
        // lego_sqlsema
        metric("sqlsema.check_us_per_stmt", sema_r.us_per_unit(), "us"),
        metric("sqlsema.reject_ratio", ratio(sum(&|s| s.sema_rejects), generated_stmts), "ratio"),
        metric(
            "sqlsema.skipped_stmt_share",
            ratio(sum(&|s| s.sema_skipped_stmts), generated_stmts),
            "ratio",
        ),
        metric("campaign.sema_share", share("sema"), "ratio"),
        // lego_oracle
        metric("oracle.check_us_per_case", logic.us_per_unit(), "us"),
        metric("oracle.recovery_us_per_case", recov.us_per_unit(), "us"),
        metric("oracle.checks_per_exec", ratio(sum(&|s| s.oracle_checks), execs), "ratio"),
        metric("campaign.oracle_share", share("oracle"), "ratio"),
        metric("campaign.recovery_share", recovery_share, "ratio"),
        // process
        metric("process.cpu_s", cpu.0, "s"),
        metric("process.sys_s", cpu.1, "s"),
        // cross-checks and campaign outcome
        metric("campaign.feedback_share", share("feedback"), "ratio"),
        metric("campaign.generation_share", share("generation"), "ratio"),
        metric("campaign.bugs", pass.mean(|s| s.bugs.len() + s.logic_bugs.len()), "count"),
        metric("campaign.failed_share", ratio(sum(&|s| s.cases_aborted), execs), "ratio"),
        metric("campaign.execs", execs, "count"),
        metric("trace.campaign_s", pass.secs, "s"),
        metric("trace.untraced_campaign_s", untraced_s, "s"),
        metric("trace.overhead_ratio", ratio(pass.secs, untraced_s), "ratio"),
        metric("trace.setup_s", setup, "s"),
        metric("trace.replayed_cases", corpus.len() as f64, "count"),
    ]
}
