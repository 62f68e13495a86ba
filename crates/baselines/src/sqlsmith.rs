//! SQLsmith-style fuzzing: grammar-random *query* generation.
//!
//! SQLsmith (Seltenreich et al.) introspects an existing database and emits
//! endless syntactically-correct SELECT statements, deliberately leaving the
//! database unchanged; the paper notes it "mainly generates SELECT
//! statements" and officially supports PostgreSQL only. Since our harness
//! gives every test case a fresh empty instance, each case carries the same
//! fixed schema prologue (standing in for the pre-existing regression
//! database SQLsmith would introspect) followed by one generated query — so
//! its *generated* corpus is single-statement, exactly as the paper assumes
//! when excluding it from the affinity table.

use lego::campaign::FuzzEngine;
use lego::gen::{gen_query, SchemaModel};

use lego_dbms::ExecReport;
use lego_sqlast::ast::{SelectStmt, SelectVariant, Statement};
use lego_sqlast::{Dialect, TestCase};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The fixed schema prologue every SQLsmith case starts with. Ends with a
/// plain SELECT so the generated query never directly follows an INSERT.
const PROLOGUE: &str = "CREATE TABLE s1 (a INT, b INT, c VARCHAR(100));\n\
    CREATE TABLE s2 (x INT PRIMARY KEY, y TEXT);\n\
    INSERT INTO s1 VALUES (1, 10, 'alpha'), (2, 20, 'beta'), (3, 30, 'gamma');\n\
    INSERT INTO s2 VALUES (1, 'one'), (2, 'two');\n\
    SELECT a FROM s1;";

pub struct SqlsmithFuzzer {
    dialect: Dialect,
    rng: SmallRng,
    prologue: TestCase,
    schema: SchemaModel,
    /// Generated queries that produced new coverage (bounded).
    corpus: Vec<Arc<TestCase>>,
}

impl SqlsmithFuzzer {
    pub fn new(dialect: Dialect, rng_seed: u64) -> Self {
        let prologue = lego_sqlparser::parse_script(PROLOGUE).expect("valid prologue");
        let schema = SchemaModel::of_statements(&prologue.statements);
        Self {
            dialect,
            rng: SmallRng::seed_from_u64(rng_seed ^ 0x5417),
            prologue,
            schema,
            corpus: Vec::new(),
        }
    }
}

impl FuzzEngine for SqlsmithFuzzer {
    fn name(&self) -> &'static str {
        "SQLsmith"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        // Deep, feature-rich single query (SQLsmith's strength).
        let query = gen_query(&self.schema, self.dialect, &mut self.rng, 2);
        let select =
            Statement::Select(SelectStmt { query: Box::new(query), variant: SelectVariant::Plain });
        let mut statements = self.prologue.statements.clone();
        statements.push(select);
        Arc::new(TestCase::new(statements))
    }

    fn feedback(&mut self, case: &Arc<TestCase>, _report: &ExecReport, new_coverage: bool) {
        if new_coverage && self.corpus.len() < 4096 {
            // Record only the generated query — SQLsmith test cases are
            // single statements (paper § V-C, Table II footnote).
            if let Some(q) = case.statements.last() {
                self.corpus.push(Arc::new(TestCase::new(vec![q.clone()])));
            }
        }
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.corpus.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego::affinity::corpus_affinities;
    use lego::campaign::{run_campaign, Budget, CampaignOpts};
    use lego::observe::Telemetry;

    #[test]
    fn generates_only_selects() {
        let mut fz = SqlsmithFuzzer::new(Dialect::Postgres, 1);
        for _ in 0..50 {
            let case = fz.next_case();
            let last = case.statements.last().unwrap();
            assert_eq!(last.kind().name(), "SELECT");
        }
    }

    #[test]
    fn corpus_is_single_statement_and_affinity_free() {
        let mut fz = SqlsmithFuzzer::new(Dialect::Postgres, 1);
        run_campaign(
            &mut fz,
            Dialect::Postgres,
            Budget::units(20_000),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(!fz.corpus().is_empty());
        assert!(fz.corpus().iter().all(|c| c.len() == 1));
        assert_eq!(corpus_affinities(&fz.corpus()).len(), 0);
    }

    #[test]
    fn gains_decent_coverage_on_postgres() {
        let mut fz = SqlsmithFuzzer::new(Dialect::Postgres, 1);
        let stats = run_campaign(
            &mut fz,
            Dialect::Postgres,
            Budget::units(40_000),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(stats.branches > 300, "branches = {}", stats.branches);
        assert_eq!(stats.bugs.len(), 0, "SQLsmith should find no bugs");
    }

    #[test]
    fn prologue_is_never_mutated() {
        let mut fz = SqlsmithFuzzer::new(Dialect::Postgres, 2);
        let a = fz.next_case();
        let b = fz.next_case();
        assert_eq!(a.statements[..5], b.statements[..5]);
    }
}
