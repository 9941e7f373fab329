//! Integration tests reproducing §1–§3 of the paper: every numbered
//! query and every inline example, executed against the Figure 1
//! database (and the Nobel database for the §1 example), with the
//! answers the paper's prose implies.

use datagen::{figure1_db, nobel_db};
use oodb::Database;
use relalg::Relation;
use xsql::{EvalOptions, Session};

/// Runs `check` on a fresh session over `db()` once per engine leg: the
/// default options (cost-based planner on), then the pipelined engine
/// with the planner off, so every answer is checked on both paths.
fn each_leg(db: fn() -> Database, mut check: impl FnMut(&mut Session)) {
    for use_planner in [true, false] {
        eprintln!("leg: use_planner = {use_planner}");
        let opts = EvalOptions {
            use_planner,
            ..EvalOptions::default()
        };
        check(&mut Session::with_options(db(), opts));
    }
}

fn names(db: &Database, rel: &Relation) -> Vec<String> {
    let mut v: Vec<String> = rel.iter().map(|t| db.render(t[0])).collect();
    v.sort();
    v
}

/// (1) `mary123.Residence.City` — used as a filter in the first query
/// form of §3.1.
#[test]
fn q01_ground_path() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT Y FROM Person X WHERE X.Residence[Y].City['newyork']")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["addr_ny"]);
        // The ground path itself as a standalone truth test.
        let r = s
            .query(
                "SELECT X FROM Person X WHERE mary123.Residence.City['newyork'] and X.Name['Mary']",
            )
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["mary123"]);
    });
}

/// §1: `SELECT X WHERE X.WonNobelPrize` — "the answer would be all
/// objects for which WonNobelPrize is defined and its value is
/// nonempty", across classes (UNICEF included).
#[test]
fn q_nobel_prize() {
    each_leg(nobel_db, |s| {
        let r = s.query("SELECT X WHERE X.WonNobelPrize").unwrap();
        assert_eq!(names(s.db(), &r), vec!["marieCurie", "tagore", "unicef"]);
    });
}

/// §1: the engine-types example — in an OO database the engine types
/// live in the schema; both readings are expressible.
#[test]
fn q_engine_types() {
    each_leg(figure1_db, |s| {
        // All engine types that exist (schema query).
        let r = s.query("SELECT #X WHERE #X subclassOf Engines").unwrap();
        assert_eq!(
            names(s.db(), &r),
            vec![
                "DieselEngine",
                "FourStrokeEngine",
                "PistonEngine",
                "TurboEngine",
                "TwoStrokeEngine"
            ]
        );
        // Engine types currently installed in some vehicle (data+schema).
        let r = s
            .query(
                "SELECT #C FROM Vehicle V, #C E \
                 WHERE V.Drivetrain.Engine[E] and #C subclassOf PistonEngine",
            )
            .unwrap();
        let got = names(s.db(), &r);
        assert!(got.contains(&"TurboEngine".to_string()), "{got:?}");
        assert!(got.contains(&"DieselEngine".to_string()), "{got:?}");
        assert!(!got.contains(&"TwoStrokeEngine".to_string()), "{got:?}");
    });
}

/// §3.1: `uniSQL.President.FamlMembers.Name` — several database paths
/// when the president has several family members.
#[test]
fn q_unisql_president_fammembers() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT W FROM Person X WHERE uniSQL.President.FamMembers.Name[W]")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["'Anna'", "'Tim'"]);
    });
}

/// §3.1: engines installed in automobiles owned by employees; the
/// intermediate variable Y restricts the vehicles to automobiles.
#[test]
fn q_employee_automobile_engines() {
    each_leg(figure1_db, |s| {
        let r = s
            .query(
                "SELECT Z FROM Employee X, Automobile Y \
                 WHERE X.OwnedVehicles[Y].Drivetrain.Engine[Z]",
            )
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["engineD1", "engineT1"]);
    });
}

/// Query (3): attribute variables explore the schema — which attribute
/// leads from a person to 'newyork'? And without the selector, more
/// attributes qualify (the paper's Austin/San-Francisco discussion).
#[test]
fn q03_attribute_variables() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT Y FROM Person X WHERE X.\"Y.City['newyork']")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["Residence"]);
        // Dropping the selector admits every attribute reaching a city.
        let r2 = s.query("SELECT Y FROM Person X WHERE X.\"Y.City").unwrap();
        assert!(r2.len() >= r.len());
        assert!(names(s.db(), &r2).contains(&"Residence".to_string()));
    });
}

/// Query (4): `SELECT #X WHERE TurboEngine subclassOf #X` — the paper
/// gives the exact answer: FourStrokeEngine, PistonEngine, and Object.
/// (Figure 1 also draws the Engines root the arrows hang off.)
#[test]
fn q04_subclass_of() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT #X WHERE TurboEngine subclassOf #X")
            .unwrap();
        assert_eq!(
            names(s.db(), &r),
            vec!["Engines", "FourStrokeEngine", "Object", "PistonEngine"]
        );
    });
}

/// §3.2: `_john13.FamMembers.Age some> 20`.
#[test]
fn q_some_comparison() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT X FROM Employee X WHERE X.FamMembers.Age some> 20")
            .unwrap();
        // john has Anna (22); kim's family is mary (34).
        assert_eq!(names(s.db(), &r), vec!["john13", "kim1"]);
        let r = s
            .query("SELECT X FROM Employee X WHERE X.FamMembers.Age some> 30")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["kim1"]);
    });
}

/// §3.2: the blue-and-red query with `containsEq` and a set literal.
#[test]
fn q_contains_eq() {
    each_leg(figure1_db, |s| {
        // john owns car1 (red) and car2 (blue); make him young enough.
        s.run("UPDATE CLASS Person SET john13.Age = 29").unwrap();
        let r = s
            .query(
                "SELECT X FROM Automobile Y WHERE Y.Manufacturer[X] \
                 and X.President.OwnedVehicles.Color containsEq {'blue', 'red'} \
                 and X.President.Age < 30",
            )
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["uniSQL"]);
    });
}

/// §3.2: `=all` — all family members share the person's residence city.
#[test]
fn q_all_equality() {
    each_leg(figure1_db, |s| {
        let r = s
            .query(
                "SELECT X FROM Employee X \
                 WHERE X.Residence.City =all X.FamMembers.Residence.City",
            )
            .unwrap();
        // john: austin, family in austin -> yes. kim: sanfrancisco, mary in
        // newyork -> no.
        assert_eq!(names(s.db(), &r), vec!["john13"]);
    });
}

/// §3.2: `all<all` pairs of persons.
#[test]
fn q_all_less_all() {
    each_leg(figure1_db, |s| {
        let r = s
            .query(
                "SELECT X, Y FROM Employee X, Employee Y \
                 WHERE Y.FamMembers.Age all<all X.FamMembers.Age",
            )
            .unwrap();
        // john's family: 22, 17; kim's: 34. 22 and 17 all< 34: (X=kim, Y=john).
        assert_eq!(r.len(), 1);
        let row = r.iter().next().unwrap();
        assert_eq!(s.db().render(row[0]), "kim1");
        assert_eq!(s.db().render(row[1]), "john13");
    });
}

/// §3.2: the aggregate query (count, =all, salary threshold).
#[test]
fn q_aggregate_family() {
    each_leg(figure1_db, |s| {
        // Give kim a big family in one house to satisfy the query.
        let mut script = String::new();
        for i in 0..5 {
            script.push_str(&format!(
                "UPDATE CLASS Person SET bigfam{i}.Residence = addr_sf;"
            ));
        }
        {
            let db = s.db_mut();
            let person = db.oids().find_sym("Person").unwrap();
            for i in 0..5 {
                let o = db.new_individual(&format!("bigfam{i}"), &[person]).unwrap();
                let fam = db.oids_mut().sym("FamMembers");
                let kim = db.oids().find_sym("kim1").unwrap();
                db.insert_into_set(kim, fam, &[], o).unwrap();
            }
        }
        s.run_script(&script).unwrap();
        s.run("UPDATE CLASS Person SET kim1.Residence = addr_sf")
            .unwrap();
        // Drop mary from kim's family so all live together.
        {
            let db = s.db_mut();
            let kim = db.oids().find_sym("kim1").unwrap();
            let fam = db.oids().find_sym("FamMembers").unwrap();
            let mary = db.oids().find_sym("mary123").unwrap();
            let members: Vec<oodb::Oid> = db
                .value(kim, fam, &[])
                .unwrap()
                .unwrap()
                .members()
                .filter(|&m| m != mary)
                .collect();
            db.set_set(kim, fam, &[], members).unwrap();
        }
        let r = s
            .query(
                "SELECT X FROM Employee X WHERE count(X.FamMembers) > 4 \
                 and X.Residence =all X.FamMembers.Residence \
                 and X.Salary < 35000",
            )
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["kim1"]);
    });
}

/// Query (5): a two-column relation of company names and salaries.
#[test]
fn q05_relation_result() {
    each_leg(figure1_db, |s| {
        let r = s
            .query(
                "SELECT X.Name, W.Salary FROM Company X \
                 WHERE X.Divisions.Employees[W]",
            )
            .unwrap();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2); // (UniSQL, 90000), (UniSQL, 30000)
        assert_eq!(r.columns(), &["Name".to_string(), "Salary".to_string()]);
    });
}

/// Query (6): the explicit join — employee named like their company.
#[test]
fn q06_explicit_join() {
    each_leg(figure1_db, |s| {
        // Rename kim to match the company name.
        s.run("UPDATE CLASS Employee SET kim1.Name = 'UniSQL'")
            .unwrap();
        let r = s
            .query(
                "SELECT X, Y FROM Company X \
                 WHERE X.Name =some X.Divisions.Employees[Y].Name",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        let row = r.iter().next().unwrap();
        assert_eq!(s.db().render(row[0]), "uniSQL");
        assert_eq!(s.db().render(row[1]), "kim1");
    });
}

/// §3.1: the `FROM #X Y` template — classes of objects satisfying a
/// condition.
#[test]
fn q_class_variable_template() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT #X FROM #X Y WHERE Y.Name['UniSQL']")
            .unwrap();
        let got = names(s.db(), &r);
        assert!(got.contains(&"Company".to_string()), "{got:?}");
    });
}

/// §3.1: path variables (the sketched extension): reach a city without
/// knowing the distance.
#[test]
fn q_path_variable() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT X FROM Company X WHERE X.*P.City['austin']")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["uniSQL"]);
    });
}

/// Set operations over path expressions (§3.2) and relational algebra
/// over queries (§3.3).
#[test]
fn q_set_and_relational_ops() {
    each_leg(figure1_db, |s| {
        let r = s
            .query(
                "SELECT X FROM Person X WHERE X.Age > 30 \
                 INTERSECT SELECT X FROM Person X WHERE X.Residence.City['austin']",
            )
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["john13"]);
        let r = s
            .query(
                "SELECT X FROM Employee X \
                 MINUS SELECT X FROM Employee X WHERE X.Salary > 50000",
            )
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["kim1"]);
    });
}

/// The trivial path: a selector is a path expression (m = 0); a numeral
/// denotes the singleton of itself (§3.2's `20`).
#[test]
fn q_trivial_paths() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT X FROM Person X WHERE 20 < 30 and X.Name['Mary']")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["mary123"]);
        let r = s
            .query("SELECT X FROM Person X WHERE 20 > 30 and X.Name['Mary']")
            .unwrap();
        assert!(r.is_empty());
    });
}

/// §3.1: a path over a non-existent object describes the empty set —
/// not an error.
#[test]
fn q_missing_object_empty() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT X FROM Person X WHERE nosuchperson.Residence.City[X]")
            .unwrap();
        assert!(r.is_empty());
    });
}

/// Figure 1 declares an attribute literally named `Function`; the
/// grammar must accept it as an identifier (only `OID FUNCTION OF`
/// treats it as a keyword).
#[test]
fn q_function_attribute_usable() {
    each_leg(figure1_db, |s| {
        let r = s
            .query("SELECT X FROM Division X WHERE X.Function['sales']")
            .unwrap();
        assert_eq!(names(s.db(), &r), vec!["divSales"]);
        let r = s
            .query("SELECT W FROM Division X WHERE X.Function[W]")
            .unwrap();
        assert_eq!(r.len(), 2);
    });
}
