//! Prepared statements (`PREPARE name AS …` / `EXECUTE name (…)`) and
//! the schema-epoch plan cache. See docs/VM.md.
//!
//! Covered here: parameter binding and its typed bind-time errors,
//! plan-cache transparency (same rows cold and warm), invalidation
//! across definitional statements (a schema change must never let a
//! stale plan execute), the interaction with `ROLLBACK WORK` (the
//! prepared map is transaction state), and crash recovery (prepared
//! names are session-local and never WAL-logged, so an `EXECUTE` after
//! recovery fails cleanly and the session stays usable).

use datagen::figure1_db;
use oodb::Database;
use std::path::Path;
use storage::{CrashMode, FaultFs};
use xsql::{EvalOptions, Outcome, Session, XsqlError};

/// A session with the planner pinned on.
fn vm_session(db: Database) -> Session {
    Session::with_options(
        db,
        EvalOptions {
            use_planner: true,
            ..EvalOptions::default()
        },
    )
}

fn rows(s: &mut Session, src: &str) -> relalg::Relation {
    match s.run(src).unwrap() {
        Outcome::Relation(r) => r,
        other => panic!("expected rows from `{src}`, got {other:?}"),
    }
}

fn counter(s: &Session, name: &str) -> u64 {
    s.registry().counter(name, &[]).get()
}

#[test]
fn execute_binds_parameters_and_matches_the_direct_query() {
    let mut s = vm_session(figure1_db());
    let out = s
        .run("PREPARE rich AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .unwrap();
    assert!(matches!(out, Outcome::Prepared { ref name } if name == "rich"));
    for threshold in [0, 30000, 100000, 10_000_000] {
        let got = rows(&mut s, &format!("EXECUTE rich ({threshold})"));
        let want = rows(
            &mut s,
            &format!("SELECT X FROM Employee X WHERE X.Salary > {threshold}"),
        );
        assert_eq!(got, want, "EXECUTE rich ({threshold}) disagrees");
    }
    // Multi-parameter, multi-variable statement through the join path.
    s.run(
        "PREPARE pair AS SELECT X, Y FROM Employee X, Employee Y \
         WHERE X.Salary > Y.Salary and X.Salary > ?1 and Y.Salary > ?2",
    )
    .unwrap();
    let got = rows(&mut s, "EXECUTE pair (20000, 0)");
    let want = rows(
        &mut s,
        "SELECT X, Y FROM Employee X, Employee Y \
         WHERE X.Salary > Y.Salary and X.Salary > 20000 and Y.Salary > 0",
    );
    assert_eq!(got, want);
}

#[test]
fn reexecution_reuses_the_compiled_plan() {
    let mut s = vm_session(figure1_db());
    s.run("PREPARE q AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .unwrap();
    let hits0 = counter(&s, "xsql_plan_cache_hits_total");
    let first = rows(&mut s, "EXECUTE q (30000)");
    let second = rows(&mut s, "EXECUTE q (30000)");
    assert_eq!(first, second);
    // Both EXECUTEs ran the program compiled at PREPARE (epoch
    // unchanged), and each counts as a plan-cache hit.
    assert_eq!(counter(&s, "xsql_plan_cache_hits_total"), hits0 + 2);
    assert_eq!(counter(&s, "xsql_plan_cache_stale_executions_total"), 0);
}

#[test]
fn mistyped_arguments_fail_at_bind_with_a_named_parameter() {
    let mut s = vm_session(figure1_db());
    s.run("PREPARE by_sal AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .unwrap();
    s.run("PREPARE by_name AS SELECT X FROM Employee X WHERE X.Name = ?1")
        .unwrap();

    // Numeral-family parameter bound to a string.
    let err = s.run("EXECUTE by_sal ('cheap')").unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, XsqlError::Resolve(_)), "got {err:?}");
    assert!(
        msg.contains("?1") && msg.contains("Salary"),
        "error must name the parameter and attribute: {msg}"
    );

    // String-family parameter bound to a numeral.
    let err = s.run("EXECUTE by_name (42)").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("?1") && msg.contains("Name"),
        "error must name the parameter and attribute: {msg}"
    );

    // Arity mismatches, both directions.
    let err = s.run("EXECUTE by_sal").unwrap_err();
    assert!(err.to_string().contains("1 parameter"), "got {err}");
    let err = s.run("EXECUTE by_sal (1, 2)").unwrap_err();
    assert!(err.to_string().contains("got 2"), "got {err}");

    // A failed bind must not poison the statement: a correct EXECUTE
    // still runs.
    let got = rows(&mut s, "EXECUTE by_sal (30000)");
    let want = rows(&mut s, "SELECT X FROM Employee X WHERE X.Salary > 30000");
    assert_eq!(got, want);
}

#[test]
fn parameters_are_rejected_outside_a_prepare_body() {
    let mut s = vm_session(figure1_db());
    let err = s
        .run("SELECT X FROM Employee X WHERE X.Salary > ?1")
        .unwrap_err();
    assert!(
        err.to_string().contains("PREPARE"),
        "error should point at PREPARE: {err}"
    );
}

#[test]
fn prepare_rejects_nested_prepare_and_explain() {
    let mut s = vm_session(figure1_db());
    assert!(s
        .run("PREPARE a AS PREPARE b AS SELECT X FROM Employee X")
        .is_err());
    assert!(s
        .run("PREPARE a AS EXPLAIN SELECT X FROM Employee X")
        .is_err());
    let err = s.run("EXECUTE nosuch (1)").unwrap_err();
    assert!(
        err.to_string().contains("unknown prepared statement"),
        "got {err}"
    );
}

#[test]
fn definitional_statements_invalidate_prepared_plans() {
    let mut s = vm_session(figure1_db());
    s.run("PREPARE q AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .unwrap();
    let before = rows(&mut s, "EXECUTE q (30000)");
    let inval0 = counter(&s, "xsql_plan_cache_invalidations_total");

    // A definitional statement bumps the schema epoch; the prepared
    // plan must be recompiled, never executed stale.
    s.run("CREATE CLASS Scratch").unwrap();
    let after = rows(&mut s, "EXECUTE q (30000)");
    assert_eq!(before, after, "recompiled plan changed the result");
    assert_eq!(
        counter(&s, "xsql_plan_cache_invalidations_total"),
        inval0 + 1,
        "epoch bump must be observed as an invalidation"
    );
    assert_eq!(counter(&s, "xsql_plan_cache_stale_executions_total"), 0);

    // A schema change that affects the statement itself: adding a
    // subclass changes the Employee extent's class closure.
    s.run("CREATE CLASS Intern AS SUBCLASS OF Employee")
        .unwrap();
    s.run("CREATE OBJECT intern1 CLASS Intern SET Salary = 99000")
        .unwrap();
    let got = rows(&mut s, "EXECUTE q (30000)");
    let want = rows(&mut s, "SELECT X FROM Employee X WHERE X.Salary > 30000");
    assert_eq!(got, want, "EXECUTE must see the post-DDL world");
    assert!(got.len() > before.len(), "the new Intern must be found");
    assert_eq!(counter(&s, "xsql_plan_cache_stale_executions_total"), 0);
}

#[test]
fn transparent_plan_cache_hits_on_warm_text_and_invalidates_on_ddl() {
    let mut s = vm_session(figure1_db());
    let src = "SELECT X FROM Employee X WHERE X.Salary > 30000";
    let m0 = counter(&s, "xsql_plan_cache_misses_total");
    let h0 = counter(&s, "xsql_plan_cache_hits_total");
    let cold = rows(&mut s, src);
    assert_eq!(counter(&s, "xsql_plan_cache_misses_total"), m0 + 1);
    // Warm: same statement, whitespace-normalized text.
    let warm = rows(&mut s, "SELECT X   FROM Employee X WHERE X.Salary > 30000");
    assert_eq!(cold, warm);
    assert_eq!(counter(&s, "xsql_plan_cache_hits_total"), h0 + 1);
    assert!(s.registry().gauge("xsql_plan_cache_size", &[]).get() >= 1);

    let i0 = counter(&s, "xsql_plan_cache_invalidations_total");
    s.run("CREATE CLASS Scratch2").unwrap();
    let again = rows(&mut s, src);
    assert_eq!(cold, again);
    assert_eq!(counter(&s, "xsql_plan_cache_invalidations_total"), i0 + 1);
    assert_eq!(counter(&s, "xsql_plan_cache_stale_executions_total"), 0);
}

#[test]
fn plan_cache_key_keeps_comment_line_breaks() {
    // The comment runs to the end of its line: with the line break the
    // WHERE clause is live (nobody is 41), without it the comment
    // swallows the clause.
    let filtered = "SELECT X FROM Person X -- note\nWHERE X.Age = 41";
    let swallowed = "SELECT X FROM Person X -- note WHERE X.Age = 41";
    let want = rows(&mut vm_session(figure1_db()), swallowed);
    assert_eq!(want.len(), 5, "every Person");
    let mut s = vm_session(figure1_db());
    assert_eq!(rows(&mut s, filtered).len(), 0);
    assert_eq!(rows(&mut s, swallowed), want);
}

#[test]
fn plan_cache_key_keeps_string_literals_verbatim() {
    let mut s = vm_session(figure1_db());
    s.run("UPDATE CLASS Person SET john13.Name = 'a  b'")
        .unwrap();
    let two_spaces = "SELECT X FROM Person X WHERE X.Name = 'a  b'";
    let one_space = "SELECT X FROM Person X WHERE X.Name = 'a b'";
    assert_eq!(rows(&mut s, one_space).len(), 0);
    assert_eq!(rows(&mut s, two_spaces).len(), 1);
}

#[test]
fn compiled_join_disassembles_to_the_chosen_plan() {
    let mut db = figure1_db();
    let src = "SELECT X, Y FROM Employee X, Employee Y \
               WHERE X.Salary > 30000 and X.Salary > Y.Salary";
    let stmt = xsql::resolve_stmt(&mut db, &xsql::parse(src).unwrap()).unwrap();
    let opts = EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    };
    let prog = xsql::vm::Program::compile(&db, &opts, stmt, 0);
    assert_eq!(
        prog.disassemble(),
        [
            "v0 = init X (1 filter(s), 1 probe(s))",
            "v1 = init Y (0 filter(s), 0 probe(s))",
            "c0 = columns X~Y",
            "scan v0",
            "thetajoin v1 [c0]",
            "emit 2 column(s)",
            "halt",
        ]
    );
}

#[test]
fn rollback_work_restores_the_prepared_map() {
    let mut s = vm_session(figure1_db());
    s.run("PREPARE keep AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .unwrap();
    let keep_before = rows(&mut s, "EXECUTE keep (30000)");

    s.run("BEGIN WORK").unwrap();
    s.run("PREPARE temp AS SELECT X FROM Person X WHERE X.Age >= ?1")
        .unwrap();
    // In-transaction EXECUTE of an in-transaction PREPARE works.
    let got = rows(&mut s, "EXECUTE temp (34)");
    let want = rows(&mut s, "SELECT X FROM Person X WHERE X.Age >= 34");
    assert_eq!(got, want);
    // Shadow an existing name inside the transaction.
    s.run("PREPARE keep AS SELECT X FROM Person X WHERE X.Age >= ?1")
        .unwrap();
    s.run("ROLLBACK WORK").unwrap();

    // The in-transaction PREPARE is gone …
    let err = s.run("EXECUTE temp (34)").unwrap_err();
    assert!(
        err.to_string().contains("unknown prepared statement"),
        "got {err}"
    );
    // … and the shadowed name is restored to its pre-transaction body.
    let keep_after = rows(&mut s, "EXECUTE keep (30000)");
    assert_eq!(keep_before, keep_after);

    // COMMIT keeps in-transaction preparations.
    s.run("BEGIN WORK").unwrap();
    s.run("PREPARE temp2 AS SELECT X FROM Person X WHERE X.Age >= ?1")
        .unwrap();
    s.run("COMMIT WORK").unwrap();
    let got = rows(&mut s, "EXECUTE temp2 (34)");
    let want = rows(&mut s, "SELECT X FROM Person X WHERE X.Age >= 34");
    assert_eq!(got, want);
}

const DIR: &str = "/db";

fn open(fs: &FaultFs) -> Result<Session, XsqlError> {
    Session::open_dir(
        Box::new(fs.clone()),
        Path::new(DIR),
        Database::new(),
        "empty",
        Default::default(),
    )
}

#[test]
fn execute_after_crash_recovery_fails_cleanly_and_session_stays_usable() {
    let fs = FaultFs::new();
    let mut s = open(&fs).unwrap();
    s.run("CREATE CLASS Thing").unwrap();
    s.run("ALTER CLASS Thing ADD SIGNATURE Num => Numeral")
        .unwrap();
    s.run("CREATE OBJECT t1 CLASS Thing SET Num = 7").unwrap();
    s.run("PREPARE q AS SELECT X FROM Thing X WHERE X.Num > ?1")
        .unwrap();
    assert_eq!(rows(&mut s, "EXECUTE q (0)").len(), 1);
    drop(s);

    fs.crash(CrashMode::TornTail);
    let mut recovered = open(&fs).unwrap();
    // Prepared statements are session-local and never WAL-logged: the
    // recovered session has no `q`, and says so without damage.
    let err = recovered.run("EXECUTE q (0)").unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("unknown prepared statement") && msg.contains("re-PREPARE"),
        "got {msg}"
    );
    // The data survived; the session is fully usable and re-preparing
    // works.
    assert_eq!(
        rows(&mut recovered, "SELECT X FROM Thing X WHERE X.Num > 0").len(),
        1
    );
    recovered
        .run("PREPARE q AS SELECT X FROM Thing X WHERE X.Num > ?1")
        .unwrap();
    assert_eq!(rows(&mut recovered, "EXECUTE q (0)").len(), 1);
}
