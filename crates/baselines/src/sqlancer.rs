//! SQLancer-style fuzzing: rule-based test-case generation.
//!
//! SQLancer (Rigger & Su) generates each test case from fixed pattern rules:
//! a randomized schema-setup phase drawn from a small statement-type
//! repertoire, followed by SELECT probes whose results it checks (PQS/TLP —
//! the logic-bug oracles themselves are irrelevant to the coverage/memory-bug
//! comparison). There is no coverage feedback: "SQLancer continuously
//! generates test cases for fuzzing based on custom pattern rules, while
//! only a limited number of SQL Type Sequences can be generated" (§ V-C).

use lego::campaign::FuzzEngine;
use lego::gen::{gen_expr, gen_statement, SchemaModel};
use lego::instantiate::fix_case;
use lego_dbms::ExecReport;
use lego_sqlast::ast::*;
use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind, StmtKind};
use lego_sqlast::{Dialect, TestCase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

pub struct SqlancerFuzzer {
    dialect: Dialect,
    rng: SmallRng,
    /// A sample of generated cases (SQLancer keeps no corpus; the paper's
    /// Table II analyzes the test cases each fuzzer produced, so we retain a
    /// bounded sample for that accounting).
    sample: Vec<Arc<TestCase>>,
}

impl SqlancerFuzzer {
    pub fn new(dialect: Dialect, rng_seed: u64) -> Self {
        Self { dialect, rng: SmallRng::seed_from_u64(rng_seed ^ 0x1a9c), sample: Vec::new() }
    }

    /// The setup-phase statement-type repertoire (fixed rules). SQLancer's
    /// database generators emit a moderate range of statement types in a
    /// randomized but template-bound order — richer than SQUIRREL's frozen
    /// seeds (Table II) yet far from LEGO's affinity-driven space.
    fn setup_kinds(&mut self) -> Vec<StmtKind> {
        use StandaloneKind as K;
        let mut kinds = Vec::new();
        if self.rng.gen_bool(0.3) {
            kinds.push(StmtKind::Other(K::Set));
        }
        kinds.push(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table));
        // Optionally a second table.
        if self.rng.gen_bool(0.4) {
            kinds.push(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table));
        }
        if self.rng.gen_bool(0.5) {
            kinds.push(StmtKind::Ddl(DdlVerb::Create, ObjectKind::Index));
        }
        if self.rng.gen_bool(0.25) && self.dialect != Dialect::Comdb2 {
            kinds.push(StmtKind::Ddl(DdlVerb::Create, ObjectKind::View));
        }
        for _ in 0..self.rng.gen_range(1..4) {
            kinds.push(StmtKind::Other(K::Insert));
        }
        if self.rng.gen_bool(0.3) {
            kinds.push(StmtKind::Other(K::Analyze));
        }
        if self.rng.gen_bool(0.2) && self.dialect != Dialect::Comdb2 {
            kinds.push(StmtKind::Other(K::Vacuum));
        }
        // Data churn between probes, always behind a SELECT so no seed pair
        // is reproduced: SELECT, then UPDATE/DELETE.
        if self.rng.gen_bool(0.35) {
            kinds.push(StmtKind::Other(K::Select));
            kinds.push(StmtKind::Other(if self.rng.gen_bool(0.6) { K::Update } else { K::Delete }));
        }
        if self.rng.gen_bool(0.1) {
            kinds.push(StmtKind::Ddl(DdlVerb::Drop, ObjectKind::Table));
        }
        kinds
    }
}

impl SqlancerFuzzer {
    /// A plain star-projection select with a simple (depth-1) predicate —
    /// PQS-style pivot probing: never ORDER BY / GROUP BY / DISTINCT /
    /// window functions, which would change the fetched pivot row set.
    fn plain_select(&mut self, schema: &SchemaModel) -> Statement {
        let (table, cols) = match schema.random_table(&mut self.rng) {
            Some(t) => (t.name.clone(), t.columns.clone()),
            None => ("t1".to_string(), vec![]),
        };
        let where_ = Some(gen_expr(&cols, &mut self.rng, 1));
        Statement::Select(SelectStmt {
            query: Box::new(Query {
                body: SetExpr::Select(Box::new(Select {
                    distinct: false,
                    projection: vec![SelectItem::Star],
                    from: vec![TableRef::named(table)],
                    where_,
                    group_by: vec![],
                    having: None,
                })),
                order_by: vec![],
                limit: None,
                offset: None,
            }),
            variant: SelectVariant::Plain,
        })
    }
}

impl FuzzEngine for SqlancerFuzzer {
    fn name(&self) -> &'static str {
        "SQLancer"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        let mut statements = Vec::new();
        let mut schema = SchemaModel::new();
        for kind in self.setup_kinds() {
            let kind = if self.dialect.supports(kind) {
                kind
            } else {
                StmtKind::Other(StandaloneKind::Insert)
            };
            // Rule-bound statement shapes: SQLancer's generators emit plain
            // setup statements (no IGNORE, no rich SELECT features) — its
            // oracles need predictable row sets.
            let mut stmt = match kind {
                StmtKind::Other(StandaloneKind::Select) => self.plain_select(&schema),
                other => gen_statement(other, &schema, self.dialect, &mut self.rng),
            };
            if let Statement::Insert(i) = &mut stmt {
                i.ignore = false;
                i.low_priority = false;
                i.source = match i.source.clone() {
                    InsertSource::Query(_) => {
                        InsertSource::Values(vec![vec![lego_sqlast::expr::Expr::Integer(1)]])
                    }
                    other => other,
                };
            }
            if let Statement::CreateView(v) = &mut stmt {
                // Views over plain projections only.
                if let Statement::Select(plain) = self.plain_select(&schema) {
                    v.query = plain.query;
                }
                v.materialized = false;
            }
            schema.observe(&stmt);
            statements.push(stmt);
        }
        // SELECT probes: pivot-style point queries.
        for _ in 0..self.rng.gen_range(1..4) {
            if schema.tables.is_empty() {
                break;
            }
            let probe = self.plain_select(&schema);
            statements.push(probe);
        }
        let mut case = TestCase::new(statements);
        fix_case(&mut case, &mut self.rng);
        Arc::new(case)
    }

    fn feedback(&mut self, case: &Arc<TestCase>, _report: &ExecReport, _new_coverage: bool) {
        // No coverage guidance; keep a bounded sample for Table II.
        if self.sample.len() < 2048 {
            self.sample.push(Arc::clone(case));
        }
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.sample.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego::affinity::corpus_affinities;
    use lego::campaign::{run_campaign, Budget, CampaignOpts};
    use lego::observe::Telemetry;

    #[test]
    fn cases_follow_the_template() {
        let mut fz = SqlancerFuzzer::new(Dialect::Postgres, 3);
        for _ in 0..30 {
            let case = fz.next_case();
            let first = case.statements[0].kind();
            assert!(
                matches!(first, StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table))
                    || first == StmtKind::Other(StandaloneKind::Set),
                "unexpected template head {first:?}"
            );
            // Probes are plain WHERE selects.
            let last = case.statements.last().unwrap();
            if let Statement::Select(s) = last {
                assert!(s.query.order_by.is_empty());
            }
        }
    }

    #[test]
    fn finds_no_bugs_in_a_budgeted_run() {
        for d in [Dialect::Postgres, Dialect::MySql, Dialect::MariaDb, Dialect::Comdb2] {
            let mut fz = SqlancerFuzzer::new(d, 3);
            let stats = run_campaign(
                &mut fz,
                d,
                Budget::units(30_000),
                &CampaignOpts::default(),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(stats.bugs.len(), 0, "SQLancer found bugs on {d:?}");
        }
    }

    #[test]
    fn affinity_count_is_moderate() {
        // More than SQUIRREL (whose sequences are frozen), far fewer than
        // LEGO — the Table II ordering.
        let mut fz = SqlancerFuzzer::new(Dialect::Postgres, 3);
        run_campaign(
            &mut fz,
            Dialect::Postgres,
            Budget::units(30_000),
            &CampaignOpts::default(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let aff = corpus_affinities(&fz.corpus()).len();
        assert!(aff > 5 && aff < 300, "affinities = {aff}");
    }
}
