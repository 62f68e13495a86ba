//! SQUIRREL-style fuzzing: coverage-guided, syntax-preserving and
//! semantics-guided mutation of the structure and data *within* individual
//! statements (Zhong et al., CCS 2020). The SQL Type Sequence of every
//! mutant equals its parent's — the paper's central criticism.

use lego::campaign::FuzzEngine;
use lego::fuzzer::{Config, LegoFuzzer};
use lego_dbms::ExecReport;
use lego_sqlast::{Dialect, TestCase};
use std::sync::Arc;

/// SQUIRREL = the shared mutation engine with both sequence-oriented
/// switches off (no substitution/insertion/deletion, no affinity analysis,
/// no synthesis) — only conventional within-statement mutations remain.
pub struct SquirrelFuzzer {
    inner: LegoFuzzer,
}

impl SquirrelFuzzer {
    pub fn new(dialect: Dialect, rng_seed: u64) -> Self {
        // SQUIRREL compensates for the missing sequence stage with more, and
        // more aggressive, within-statement mutants per seed (its IR mutator
        // stacks edits).
        let cfg = Config {
            rng_seed,
            seq_mutation: false,
            sequence_oriented: false,
            conventional_per_seed: 24,
            mutation_stack: 4,
            ..Config::default()
        };
        Self { inner: LegoFuzzer::new(dialect, cfg) }
    }
}

impl FuzzEngine for SquirrelFuzzer {
    fn name(&self) -> &'static str {
        "SQUIRREL"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        self.inner.next_case()
    }

    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        self.inner.feedback(case, report, new_coverage)
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego::affinity::corpus_affinities;
    use lego::campaign::{run_campaign, Budget, CampaignOpts};
    use lego::observe::Telemetry;

    #[test]
    fn squirrel_never_changes_type_sequences() {
        let mut fz = SquirrelFuzzer::new(Dialect::Postgres, 7);
        let stats = run_campaign(
            &mut fz,
            Dialect::Postgres,
            Budget::units(30_000),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        // Every retained case's type sequence must equal one of the seeds'.
        let seed_seqs: Vec<Vec<lego_sqlast::StmtKind>> =
            lego::seeds::initial_corpus(Dialect::Postgres)
                .iter()
                .map(|c| c.type_sequence())
                .collect();
        for case in fz.corpus() {
            assert!(
                seed_seqs.contains(&case.type_sequence()),
                "SQUIRREL changed a type sequence: {:?}",
                case.type_sequence()
            );
        }
        assert!(stats.branches > 0);
    }

    #[test]
    fn squirrel_corpus_affinities_stay_tiny() {
        let mut fz = SquirrelFuzzer::new(Dialect::MariaDb, 7);
        run_campaign(
            &mut fz,
            Dialect::MariaDb,
            Budget::units(30_000),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let aff = corpus_affinities(&fz.corpus()).len();
        assert!(aff < 60, "SQUIRREL found {aff} affinities — too many");
    }
}
