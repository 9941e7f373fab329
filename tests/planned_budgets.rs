//! Resource budgets inside planned joins. The planner's hash, theta and
//! cross joins run in the bytecode executor; the budgets (work limit,
//! materialized tuples, cancellation, deadline) must fail those joins
//! with the same typed errors as every other engine, whether the query
//! reaches the executor through `eval_select` (the planner) or through
//! `Session::run` (a cached program). A failed statement leaves the
//! session able to answer its next query.

use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use std::time::Instant;
use xsql::ast::Stmt;
use xsql::{eval_select, parse, resolve_stmt, EvalBudget, EvalOptions, Session, XsqlError};

/// A planned join over the 300 employees of the default scaled
/// database, with budgets chosen to trip inside its join operator.
struct Join {
    src: &'static str,
    work_limit: u64,
    max_tuples: usize,
}

/// Nested-theta join: ticks 1 800–91 800 are the 90 000 candidate pairs
/// (before them: candidate lists and edge columns; after them: 40 344
/// emitted cells), and tuples 300–20 472 are the scan plus the 20 172
/// joined pairs.
const THETA: Join = Join {
    src: "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Age < Y.Age",
    work_limit: 50_000,
    max_tuples: 10_000,
};

/// Equality hash join: ticks 1 200–3 856 are the hash build (300) and
/// the 2 356 probe hits, and tuples 300–2 656 are the scan plus the
/// joined pairs.
const HASH: Join = Join {
    src: "SELECT X, Y FROM Employee X, Employee Y WHERE X.Age = Y.Age",
    work_limit: 3_000,
    max_tuples: 1_500,
};

fn unbudgeted() -> EvalOptions {
    EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    }
}

/// The budgeted option sets, labelled. The expired deadline fires at
/// the executor's first poll; the others trip inside the join.
fn budgeted(j: &Join) -> Vec<(&'static str, EvalOptions)> {
    let with_budget = |budget: EvalBudget| EvalOptions {
        budget,
        ..unbudgeted()
    };
    vec![
        (
            "work limit",
            EvalOptions {
                work_limit: j.work_limit,
                ..unbudgeted()
            },
        ),
        (
            "tuple budget",
            with_budget(EvalBudget {
                max_tuples: j.max_tuples,
                ..EvalBudget::default()
            }),
        ),
        (
            "cancel at tick",
            with_budget(EvalBudget {
                cancel_at_tick: Some(j.work_limit),
                ..EvalBudget::default()
            }),
        ),
        (
            "expired deadline",
            with_budget(EvalBudget {
                deadline: Some(Instant::now()),
                ..EvalBudget::default()
            }),
        ),
    ]
}

fn assert_typed(label: &str, j: &Join, err: &XsqlError) {
    let ok = match label {
        "work limit" => matches!(err, XsqlError::WorkLimit(n) if *n == j.work_limit),
        "tuple budget" => matches!(
            err,
            XsqlError::Budget { resource: "materialized tuple", limit } if *limit == j.max_tuples
        ),
        _ => matches!(err, XsqlError::Cancelled { .. }),
    };
    assert!(ok, "{label} on `{}`: got {err:?}", j.src);
}

fn scaled() -> Database {
    figure1_scaled(&Figure1Params::default())
}

fn check_eval_select(j: &Join) {
    let mut db = scaled();
    let Stmt::Select(q) = resolve_stmt(&mut db, &parse(j.src).unwrap()).unwrap() else {
        panic!("not a select: {}", j.src)
    };
    let want = eval_select(&db, &q, &unbudgeted()).unwrap();
    assert!(!want.is_empty());
    for (label, opts) in budgeted(j) {
        let err = eval_select(&db, &q, &opts).unwrap_err();
        assert_typed(label, j, &err);
        assert_eq!(eval_select(&db, &q, &unbudgeted()).unwrap(), want);
    }
}

fn check_cached_program(j: &Join) {
    let mut s = Session::with_options(scaled(), unbudgeted());
    let hits = |s: &Session| {
        s.registry()
            .counter("xsql_plan_cache_hits_total", &[])
            .get()
    };
    let want = s.query(j.src).unwrap();
    for (label, opts) in budgeted(j) {
        s.set_options(opts);
        let before = hits(&s);
        let err = s.run(j.src).unwrap_err();
        assert_eq!(hits(&s), before + 1, "{label}: the cached program ran");
        assert_typed(label, j, &err);
        s.set_options(unbudgeted());
        assert_eq!(s.query(j.src).unwrap(), want, "{label}: next query");
    }
}

#[test]
fn theta_join_budgets_through_eval_select() {
    check_eval_select(&THETA);
}

#[test]
fn theta_join_budgets_through_the_cached_program() {
    check_cached_program(&THETA);
}

#[test]
fn hash_join_budgets_through_eval_select() {
    check_eval_select(&HASH);
}

#[test]
fn hash_join_budgets_through_the_cached_program() {
    check_cached_program(&HASH);
}
