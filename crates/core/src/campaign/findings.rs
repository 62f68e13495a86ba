//! The campaign's per-lane finding state: crash triage, the logic-bug oracle
//! and sema conformance runtimes (fingerprint dedup, ddmin reduction,
//! findings), the checkpoint form of their state, and the re-derivation of
//! checkpointed findings on resume.

use super::{execute_case_isolated, BugFinding, LogicBugFinding};
use crate::checkpoint::{FindingCk, LogicFindingCk};
use lego_dbms::{CrashReport, Dbms, ExecReport, Outcome, PANIC_BUG_ID};
use lego_observe::{Event, Stage, Telemetry};
use lego_oracle::{
    reduce::{reduce_logic_bug, reduce_with},
    LogicBug, OracleConfig, OracleKind, OracleSuite,
};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::{Sema, SeqReport, Verdict};
use std::collections::HashMap;
use std::path::Path;

/// Per-campaign (or per-worker) logic-bug oracle state: the replay suite,
/// fingerprint dedup, findings, and the check counter. With oracles disabled
/// every call is a no-op costing one branch, keeping the hot loop unchanged.
pub(super) struct OracleRuntime {
    pub(super) suite: Option<OracleSuite>,
    pub(super) seen: HashMap<u64, usize>,
    pub(super) findings: Vec<LogicBugFinding>,
    pub(super) checks: usize,
}

impl OracleRuntime {
    pub(super) fn new(
        dialect: Dialect,
        cfg: OracleConfig,
        wal_dir: Option<&Path>,
        worker: usize,
    ) -> Self {
        Self {
            suite: cfg.enabled().then(|| OracleSuite::with_wal(dialect, cfg, wal_dir, worker)),
            seen: HashMap::new(),
            findings: Vec::new(),
            checks: 0,
        }
    }

    /// Run the configured oracles over one corpus-accepted case. New
    /// (fingerprint-deduplicated) findings are reduced immediately, like
    /// crash triage. Returns the statement units consumed, which the caller
    /// charges to the campaign budget. The logic oracles are timed as
    /// [`Stage::Oracle`], the recovery oracle as [`Stage::Recovery`].
    pub(super) fn check(
        &mut self,
        case: &TestCase,
        worker: usize,
        exec: usize,
        tel: &Telemetry,
    ) -> usize {
        let Some(suite) = self.suite.as_mut() else { return 0 };
        let mut out = tel.time(Stage::Oracle, || suite.check_case_logic(case));
        let rec = tel.time(Stage::Recovery, || suite.check_case_recovery(case));
        out.bugs.extend(rec.bugs);
        out.checks += rec.checks;
        out.execs += rec.execs;
        let mut spent = out.execs;
        self.checks += out.checks;
        for bug in out.bugs {
            let fp = bug.fingerprint();
            if let std::collections::hash_map::Entry::Vacant(e) = self.seen.entry(fp) {
                e.insert(exec);
                let durability = bug.oracle == OracleKind::Recovery;
                let stage = if durability { Stage::Recovery } else { Stage::Oracle };
                let (reduced, evals) = tel.time(stage, || reduce_logic_bug(case, suite, &bug));
                spent += evals;
                if durability {
                    tel.emit(|| Event::DurabilityBugFound {
                        worker,
                        exec: exec as u64,
                        fingerprint: fp,
                    });
                } else {
                    tel.emit(|| Event::LogicBugFound {
                        worker,
                        exec: exec as u64,
                        oracle: bug.oracle.name().to_string(),
                        fingerprint: fp,
                    });
                }
                self.findings.push(LogicBugFinding {
                    bug,
                    first_exec: exec,
                    case_sql: case.to_sql(),
                    reduced_sql: reduced.to_sql(),
                });
            }
        }
        spent
    }
}

/// Per-campaign (or per-worker) static-analysis state for `--sema` runs:
/// the analyzer itself, the skip/audit counters, and the conformance-oracle
/// dedup + findings. The campaign holds it as an `Option` so a sema-less run
/// touches none of this.
pub(super) struct SemaRuntime {
    pub(super) sema: Sema,
    /// Statically-rejected cases seen so far; every
    /// [`super::SEMA_AUDIT_EVERY`]-th one executes anyway.
    pub(super) audit: usize,
    /// Statements proven invalid across the campaign.
    pub(super) rejects: usize,
    /// Statements of skipped cases — never attempted on the engine.
    pub(super) skipped_stmts: usize,
    /// Divergence fingerprint → first exec.
    pub(super) seen: HashMap<u64, usize>,
    pub(super) findings: Vec<LogicBugFinding>,
}

/// The first analyzer-vs-engine disagreement in an executed case, as
/// `(statement index, analyzer_accepted, engine error text)`. Only
/// meaningful when the case ran to completion (`Outcome::Ok`): parse errors,
/// crashes and aborted cases leave no trustworthy per-statement outcome.
pub(super) fn first_divergence(
    rep: &SeqReport,
    report: &ExecReport,
) -> Option<(usize, bool, String)> {
    for (i, v) in rep.verdicts.iter().enumerate() {
        if i >= report.statements_executed {
            break;
        }
        let engine_err = report.stmt_errors.iter().position(|&e| e == i);
        match (v.verdict, engine_err) {
            (Verdict::Accept, Some(k)) => {
                return Some((i, true, report.errors.get(k).cloned().unwrap_or_default()))
            }
            (Verdict::Reject, None) => {
                return Some((i, false, v.reason.unwrap_or("rejected").to_string()))
            }
            _ => {}
        }
    }
    None
}

/// Replay `case` through a fresh analyzer and a fresh engine: its first
/// divergence, if the case ran to completion. Deterministic, as
/// [`reduce_with`] and resume require.
pub(super) fn replay_divergence(
    dialect: Dialect,
    case: &TestCase,
) -> Option<(usize, bool, String)> {
    let rep = Sema::new(dialect).check_sequence(&case.statements);
    let out = Dbms::new(dialect).execute_case(case);
    first_divergence(&rep, &out).filter(|_| matches!(out.outcome, Outcome::Ok))
}

/// The conformance finding for the first divergence of `case`, at statement
/// `idx` (see [`first_divergence`]).
pub(super) fn sema_bug(
    dialect: Dialect,
    case: &TestCase,
    idx: usize,
    analyzer_accepted: bool,
    why: &str,
) -> LogicBug {
    LogicBug {
        oracle: OracleKind::Sema,
        dialect,
        statement: idx,
        query: case.statements[idx].to_string(),
        detail: if analyzer_accepted {
            format!("analyzer accepted statement {idx} but the engine rejected it: {why}")
        } else {
            format!("analyzer rejected statement {idx} ({why}) but the engine accepted it")
        },
    }
}

impl SemaRuntime {
    pub(super) fn new(dialect: Dialect) -> Self {
        Self {
            sema: Sema::new(dialect),
            audit: 0,
            rejects: 0,
            skipped_stmts: 0,
            seen: HashMap::new(),
            findings: Vec::new(),
        }
    }

    /// Conformance oracle over one *executed* case: compare the analyzer's
    /// per-statement verdicts with what the engine actually did. A fresh
    /// (fingerprint-deduplicated) divergence is ddmin-reduced immediately,
    /// like crash and logic-bug triage; returns the statement units the
    /// reduction consumed. Timed as [`Stage::Sema`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn conformance(
        &mut self,
        case: &TestCase,
        rep: &SeqReport,
        report: &ExecReport,
        dialect: Dialect,
        worker: usize,
        exec: usize,
        tel: &Telemetry,
    ) -> usize {
        if !matches!(report.outcome, Outcome::Ok) {
            return 0;
        }
        let Some((idx, analyzer_accepted, why)) = first_divergence(rep, report) else {
            return 0;
        };
        let bug = sema_bug(dialect, case, idx, analyzer_accepted, &why);
        let fp = bug.fingerprint();
        let std::collections::hash_map::Entry::Vacant(e) = self.seen.entry(fp) else {
            return 0;
        };
        e.insert(exec);
        let (reduced, evals) = tel.time(Stage::Sema, || {
            reduce_with(case, |cand| {
                replay_divergence(dialect, cand).is_some_and(|(_, acc, _)| acc == analyzer_accepted)
            })
        });
        tel.emit(|| Event::SemaDivergenceFound { worker, exec: exec as u64, fingerprint: fp });
        self.findings.push(LogicBugFinding {
            bug,
            first_exec: exec,
            case_sql: case.to_sql(),
            reduced_sql: reduced.to_sql(),
        });
        evals
    }
}

/// Crash triage for one deduplicated finding. Panic findings skip delta
/// debugging: re-executing prefixes of a panicking case would re-trip the
/// panic for *every* candidate, so the reproducer is kept whole.
pub(super) fn triage_crash(
    case: &TestCase,
    dialect: Dialect,
    crash: &CrashReport,
    tel: &Telemetry,
) -> (String, usize) {
    if crash.bug_id == PANIC_BUG_ID {
        return (case.to_sql(), 0);
    }
    let (reduced, spent) =
        tel.time(Stage::Dedup, || crate::reduce::reduce_case(case, dialect, crash));
    (reduced.to_sql(), spent)
}

/// Re-derive full [`BugFinding`]s from checkpointed reproducers by replaying
/// each stored case through the isolated executor. Fails loudly if a stored
/// crash no longer reproduces (the environment changed under the checkpoint).
/// Replay executions are bookkeeping, not campaign work — nothing is charged
/// to the unit budget.
pub(super) fn rebuild_bugs(
    dialect: Dialect,
    findings: &[FindingCk],
) -> Result<Vec<BugFinding>, String> {
    let mut db = Dbms::new(dialect);
    findings
        .iter()
        .map(|f| {
            let case = lego_sqlparser::parse_script(&f.case_sql)
                .map_err(|e| format!("checkpointed crash case re-parse: {e:?}"))?;
            db.reset();
            let report = execute_case_isolated(&mut db, dialect, &case);
            let crash = report.crash().cloned().ok_or_else(|| {
                format!("checkpointed crash no longer reproduces: {}", f.case_sql)
            })?;
            Ok(BugFinding {
                crash,
                first_exec: f.first_exec,
                case_sql: f.case_sql.clone(),
                reduced_sql: f.reduced_sql.clone(),
            })
        })
        .collect()
}

/// Re-derive [`LogicBugFinding`]s by replaying each stored case through
/// `replay` (the oracle suite, or analyzer + engine for sema divergences) and
/// matching the checkpointed fingerprint.
pub(super) fn rebuild_logic_bugs(
    findings: &[LogicFindingCk],
    mut replay: impl FnMut(&TestCase) -> Result<Vec<LogicBug>, String>,
) -> Result<Vec<LogicBugFinding>, String> {
    findings
        .iter()
        .map(|f| {
            let case = lego_sqlparser::parse_script(&f.case_sql)
                .map_err(|e| format!("checkpointed logic-bug case re-parse: {e:?}"))?;
            let bug = replay(&case)?.into_iter().find(|b| b.fingerprint() == f.fingerprint);
            let bug = bug.ok_or_else(|| {
                format!(
                    "checkpointed logic bug {:#x} no longer reproduces: {}",
                    f.fingerprint, f.case_sql
                )
            })?;
            Ok(LogicBugFinding {
                bug,
                first_exec: f.first_exec,
                case_sql: f.case_sql.clone(),
                reduced_sql: f.reduced_sql.clone(),
            })
        })
        .collect()
}

/// Findings in their checkpoint form (reproducers + fingerprint).
pub(super) fn logic_findings_out(findings: &[LogicBugFinding]) -> Vec<LogicFindingCk> {
    findings
        .iter()
        .map(|b| LogicFindingCk {
            first_exec: b.first_exec,
            fingerprint: b.fingerprint(),
            case_sql: b.case_sql.clone(),
            reduced_sql: b.reduced_sql.clone(),
        })
        .collect()
}

/// Hash-map dedup state as a deterministically ordered pair list.
pub(super) fn sorted_pairs(m: &HashMap<u64, usize>) -> Vec<(u64, usize)> {
    let mut v: Vec<(u64, usize)> = m.iter().map(|(&k, &e)| (k, e)).collect();
    v.sort_unstable();
    v
}
