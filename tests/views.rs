//! §4.2: the CompSalaries view — definition (9), querying through the
//! view (10), mixing views and non-views, view-update translation, and
//! the binding-set budget on scans over view (id-term) objects.

use datagen::{figure1_db, figure1_scaled, Figure1Params};
use xsql::{EvalBudget, EvalOptions, Outcome, Session, XsqlError};

const COMP_SALARIES: &str = "CREATE VIEW CompSalaries AS SUBCLASS OF Object \
     SIGNATURE CompName => String, DivName => String, Salary => Numeral \
     SELECT CompName = X.Name, DivName = Y.Name, Salary = W.Salary \
     FROM Company X OID FUNCTION OF X,W \
     WHERE X.Divisions[Y].Employees[W]";

#[test]
fn q09_view_definition() {
    let mut s = Session::new(figure1_db());
    let out = s.run(COMP_SALARIES).unwrap();
    let Outcome::ViewCreated { class, count } = out else {
        panic!()
    };
    assert_eq!(count, 2); // (uniSQL,john13), (uniSQL,kim1)
                          // The view is a subclass of Object with the declared signatures.
    assert!(s.db().is_class(class));
    let sigs = s.db().direct_signatures(class);
    assert_eq!(sigs.len(), 3);
    // The view objects contain no reference to the employees — only
    // company name, division name, salary (the security point of §4.2).
    let ext = s.db().instances_of(class);
    assert_eq!(ext.len(), 2);
}

#[test]
fn q10_query_through_view() {
    let mut s = Session::new(figure1_db());
    s.run(COMP_SALARIES).unwrap();
    // Query (10): names of automobile-manufacturing companies paying
    // someone over $35,000 — the view's id-function applied to
    // (X.Manufacturer, W), a view and base classes in one query.
    let r = s
        .query(
            "SELECT X.Manufacturer.Name FROM Automobile X, Employee W \
             WHERE CompSalaries(X.Manufacturer, W).Salary > 35000",
        )
        .unwrap();
    assert_eq!(r.len(), 1);
    let row = r.iter().next().unwrap();
    assert_eq!(s.db().render(row[0]), "'UniSQL'");
    // Raising the threshold above every salary empties the answer.
    let r = s
        .query(
            "SELECT X.Manufacturer.Name FROM Automobile X, Employee W \
             WHERE CompSalaries(X.Manufacturer, W).Salary > 95000",
        )
        .unwrap();
    assert!(r.is_empty());
}

#[test]
fn view_as_ordinary_class() {
    let mut s = Session::new(figure1_db());
    s.run(COMP_SALARIES).unwrap();
    let r = s
        .query("SELECT V FROM CompSalaries V WHERE V.Salary > 35000")
        .unwrap();
    assert_eq!(r.len(), 1);
    // Two view objects with equal attributes would still be distinct
    // objects (distinct id-terms) — the aggregate-information point.
    let r = s.query("SELECT V FROM CompSalaries V").unwrap();
    assert_eq!(r.len(), 2);
}

#[test]
fn view_update_translated_to_database() {
    // §4.2: a view keyed by the employee alone is in one-to-one
    // correspondence with Employee; updating Salary through it updates
    // the employee.
    let mut s = Session::new(figure1_db());
    s.run(
        "CREATE VIEW EmpSalaries AS SUBCLASS OF Object \
         SIGNATURE Salary => Numeral \
         SELECT Salary = W.Salary FROM Employee W OID FUNCTION OF W \
         WHERE W.Salary",
    )
    .unwrap();
    let kim = s.db().oids().find_sym("kim1").unwrap();
    let f = s.db().oids().find_sym("EmpSalaries").unwrap();
    let vobj = s.db().oids().find_func(f, &[kim]).unwrap();
    let raised = s.db_mut().oids_mut().int(33000);
    s.update_view("EmpSalaries", vobj, "Salary", raised)
        .unwrap();
    let sal = s.db().oids().find_sym("Salary").unwrap();
    let v = s.db().value(kim, sal, &[]).unwrap().unwrap();
    assert_eq!(
        s.db().oids().as_number(v.as_scalar().unwrap()),
        Some(33000.0)
    );
}

#[test]
fn view_update_rejected_without_correspondence() {
    // CompSalaries depends on (X, W): no one-to-one correspondence with
    // a single base class through CompName.
    let mut s = Session::new(figure1_db());
    s.run(COMP_SALARIES).unwrap();
    let uni = s.db().oids().find_sym("uniSQL").unwrap();
    let john = s.db().oids().find_sym("john13").unwrap();
    let f = s.db().oids().find_sym("CompSalaries").unwrap();
    let vobj = s.db().oids().find_func(f, &[uni, john]).unwrap();
    let v = s.db_mut().oids_mut().int(1);
    assert!(s.update_view("CompSalaries", vobj, "Salary", v).is_err());
}

#[test]
fn view_refresh_after_base_update() {
    let mut s = Session::new(figure1_db());
    s.run(
        "CREATE VIEW HighEarners AS SUBCLASS OF Object \
         SIGNATURE Name => String \
         SELECT Name = W.Name FROM Employee W OID FUNCTION OF W \
         WHERE W.Salary > 50000",
    )
    .unwrap();
    let cls = s.db().oids().find_sym("HighEarners").unwrap();
    assert_eq!(s.db().instances_of(cls).len(), 1); // john13 (90000)
    s.run("UPDATE CLASS Employee SET kim1.Salary = 120000")
        .unwrap();
    let n = s.refresh_view("HighEarners").unwrap();
    assert_eq!(n, 2);
    assert_eq!(s.db().instances_of(cls).len(), 2);
}

#[test]
fn view_over_view_hierarchy() {
    // The paper defers view hierarchies to [KSK92], but because views
    // are ordinary classes here, a view can be a subclass of another
    // view and instances are shared through IS-A.
    let mut s = Session::new(figure1_db());
    s.run(
        "CREATE VIEW Salaried AS SUBCLASS OF Object \
         SIGNATURE Pay => Numeral \
         SELECT Pay = W.Salary FROM Employee W OID FUNCTION OF W WHERE W.Salary",
    )
    .unwrap();
    s.run(
        "CREATE VIEW WellPaid AS SUBCLASS OF Salaried \
         SIGNATURE Pay => Numeral \
         SELECT Pay = W.Salary FROM Employee W OID FUNCTION OF W WHERE W.Salary > 50000",
    )
    .unwrap();
    // WellPaid objects are Salaried too (IS-A), so querying the
    // superview sees them.
    let r = s.query("SELECT V FROM Salaried V").unwrap();
    assert_eq!(r.len(), 3); // 2 Salaried(w) + 1 WellPaid(w) object
    let r = s
        .query("SELECT V FROM WellPaid V WHERE V.Pay > 50000")
        .unwrap();
    assert_eq!(r.len(), 1);
}

#[test]
fn anonymous_and_named_id_functions_coexist() {
    let mut s = Session::new(figure1_db());
    s.run(
        "CREATE VIEW EmpView AS SUBCLASS OF Object SIGNATURE Nm => String \
         SELECT Nm = W.Name FROM Employee W OID FUNCTION OF W",
    )
    .unwrap();
    // The view's id-function is its name: EmpView(john13) denotes the
    // view object in queries.
    let r = s
        .query("SELECT V FROM EmpView V WHERE EmpView(john13).Nm = V.Nm and V.Nm['John']")
        .unwrap();
    assert_eq!(r.len(), 1);
}

/// Regression test for the unbudgeted id-term head scan: the
/// `IdTerm::Func` branch of `walk_path` enumerates every id-term
/// object in the database when the head is not fully bound, and that
/// scan must be subject to `max_binding_set` exactly like the var-head
/// branch. A view materializing one object per employee makes the scan
/// large; a small budget must trip it instead of silently enumerating.
#[test]
fn partially_unbound_func_head_scan_is_budgeted() {
    let mut s = Session::new(figure1_scaled(&Figure1Params::default()));
    let out = s
        .run(
            "CREATE VIEW EmpSal AS SUBCLASS OF Object \
             SIGNATURE Salary => Numeral \
             SELECT Salary = W.Salary FROM Employee W OID FUNCTION OF W",
        )
        .unwrap();
    let Outcome::ViewCreated { count, .. } = out else {
        panic!("expected view creation, got {out:?}")
    };
    assert!(count > 100, "scaled db should give a large view extent");

    // `V` is bound by nothing but the id-term head itself, so the
    // evaluator must take the candidate-scan branch over every id-term
    // object. With the default (huge) budget the scan succeeds: every
    // employee's own salary appears in their view object.
    let full = s
        .query("SELECT W FROM Employee W WHERE EmpSal(V).Salary = W.Salary")
        .unwrap();
    assert_eq!(full.len(), count);

    // ...and with a budget smaller than the id-term object population
    // it must degrade into a clean Budget error, not an unbounded scan.
    s.set_options(EvalOptions {
        budget: EvalBudget {
            max_binding_set: 50,
            ..EvalBudget::default()
        },
        ..EvalOptions::default()
    });
    match s.query("SELECT W FROM Employee W WHERE EmpSal(V).Salary = W.Salary") {
        Err(XsqlError::Budget { resource, limit }) => {
            assert_eq!(resource, "binding set size");
            assert_eq!(limit, 50);
        }
        other => panic!("expected binding-set Budget error, got {other:?}"),
    }
}
