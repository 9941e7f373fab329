//! Differential testing of the evaluation engines: the pipelined
//! nested-loop engine must agree exactly with the naive §3.4
//! specification semantics — on hand-written queries over the Figure 1
//! instance and on property-generated queries over random databases.
//! Every query additionally runs with the method index disabled,
//! through the cost-based planner (with and without index probes), and
//! through the bytecode VM (a cold compile and a warm plan-cache hit),
//! which must all produce the same relation bit-for-bit.

use datagen::figure1_db;
use oodb::{Database, DbBuilder, Oid};
use proptest::prelude::*;
use xsql::ast::Stmt;
use xsql::{eval_select, parse, resolve_stmt, EvalOptions, Outcome, Session};

/// Evaluates `src` under every engine configuration that must agree:
/// the pipelined engine with the planner disabled, the naive §3.4
/// reference, the method index disabled (forcing active-domain
/// enumeration), and the cost-based planner with and without index
/// probes. The planner switch is pinned explicitly on every leg.
/// Returns labelled relations.
fn engines(db: &mut Database, src: &str) -> Vec<(&'static str, relalg::Relation)> {
    let stmt = parse(src).unwrap();
    let Stmt::Select(q) = resolve_stmt(db, &stmt).unwrap() else {
        panic!("not a select")
    };
    let base = EvalOptions {
        use_planner: false,
        ..EvalOptions::default()
    };
    let configs: Vec<(&'static str, EvalOptions)> = vec![
        ("pipelined", base.clone()),
        ("naive", EvalOptions::naive()),
        (
            "no-method-index",
            EvalOptions {
                use_method_index: false,
                ..base.clone()
            },
        ),
        (
            "planner",
            EvalOptions {
                use_planner: true,
                ..base.clone()
            },
        ),
        (
            "planner,no-method-index",
            EvalOptions {
                use_planner: true,
                use_method_index: false,
                ..base.clone()
            },
        ),
    ];
    let mut results: Vec<(&'static str, relalg::Relation)> = configs
        .into_iter()
        .map(|(label, opts)| (label, eval_select(db, &q, &opts).unwrap()))
        .collect();
    // Bytecode VM legs, driven through a session so the statement takes
    // the real compile → cache → execute path: a cold run (plan-cache
    // miss, fresh lowering) and a warm re-run of the same text (cache
    // hit, same Program object) must both agree bit-for-bit. The
    // session runs on a clone taken *after* the engine legs, so every
    // result value is already interned and OIDs line up exactly.
    let vm_opts = EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    };
    let mut sess = Session::with_options(db.clone(), vm_opts);
    let mut vm_run = |label: &'static str| {
        let Outcome::Relation(rel) = sess.run(src).unwrap() else {
            panic!("vm leg did not return a relation for {src}")
        };
        (label, rel)
    };
    let cold = vm_run("vm");
    let warm = vm_run("vm-warm");
    results.push(cold);
    results.push(warm);
    results
}

fn assert_all_agree(db: &mut Database, src: &str) {
    let results = engines(db, src);
    let (ref_label, ref_rel) = &results[0];
    for (label, rel) in &results[1..] {
        assert_eq!(rel, ref_rel, "{label} disagrees with {ref_label} on {src}");
    }
}

#[test]
fn figure1_engine_agreement() {
    let mut db = figure1_db();
    for src in [
        "SELECT X FROM Person X WHERE X.Age >= 34",
        "SELECT X, Y FROM Employee X, Automobile Y WHERE X.OwnedVehicles[Y]",
        "SELECT X FROM Person X WHERE X.Residence.City['austin'] or X.Residence.City['newyork']",
        "SELECT X FROM Employee X WHERE not X.OwnedVehicles",
        "SELECT Y FROM Person X WHERE X.\"Y.State['TX']",
        "SELECT #C FROM #C V WHERE V.Color['red']",
        "SELECT X FROM Company X WHERE X.Name =some X.Divisions.Employees.Name",
        "SELECT X FROM Employee X WHERE X.FamMembers.Age all< 30",
        "SELECT X FROM Person X WHERE X.OwnedVehicles.Color subsetEq {'green'}",
        "SELECT X FROM Vehicle X WHERE X.Manufacturer[M] and M.President.OwnedVehicles[X]",
        // Free variable inside a negation: §3.4 quantifies it at the
        // top level, so `not φ(V)` holds if SOME V falsifies φ.
        "SELECT X FROM Employee X WHERE not X.OwnedVehicles[V]",
        // Disjunction that binds different variables per branch.
        "SELECT X FROM Person X WHERE X.OwnedVehicles[V].Color['green'] or X.Salary[W]",
        // Planner-fragment joins: theta (two inequality edges), hash on
        // an equality edge, and hash on a set-membership link combined
        // with an index-range filter.
        "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary and X.Age < Y.Age",
        "SELECT X, Y FROM Person X, Person Y WHERE X.Age = Y.Age",
        "SELECT X, W FROM Company X, Employee W \
         WHERE X.Divisions.Employees[W] and W.Salary > 30000",
        "SELECT X, Y FROM Person X, Automobile Y WHERE X.OwnedVehicles[Y] and X.Age >= 34",
    ] {
        assert_all_agree(&mut db, src);
    }
}

fn random_db(edges: &[(u8, u8)], labels: &[(u8, bool)], ages: &[(u8, u8)]) -> Database {
    let mut b = DbBuilder::new();
    b.class("Node");
    b.subclass("Special", &["Node"]);
    b.attr("Node", "Age", "Numeral");
    b.set_attr("Node", "Next", "Node");
    b.attr("Node", "Tag", "String");
    let nodes: Vec<Oid> = (0..6)
        .map(|i| {
            let class = if labels.iter().any(|&(x, sp)| sp && x % 6 == i) {
                "Special"
            } else {
                "Node"
            };
            b.obj(&format!("n{i}"), class)
        })
        .collect();
    for &(x, y) in edges {
        b.add_to(nodes[(x % 6) as usize], "Next", nodes[(y % 6) as usize]);
    }
    for &(x, a) in ages {
        // Alternate the numeral spelling: even ages are stored as Ints,
        // odd ages as Reals. `X.Age[n]` must match either spelling, so
        // an anchored (method, value) index lookup keyed on the Int
        // literal would be unsound — this is the corner that forces
        // `head_candidates` onto the unanchored method-index fallback.
        let node = nodes[(x % 6) as usize];
        let age = a % 40;
        if age % 2 == 0 {
            b.set_int(node, "Age", i64::from(age));
        } else {
            let r = b.real(f64::from(age));
            b.set(node, "Age", r);
        }
    }
    for (i, &n) in nodes.iter().enumerate() {
        if i % 2 == 0 {
            b.set_str(n, "Tag", if i % 4 == 0 { "even4" } else { "even2" });
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn engines_agree_on_random_databases(
        edges in proptest::collection::vec((0u8..6, 0u8..6), 0..12),
        labels in proptest::collection::vec((0u8..6, any::<bool>()), 0..6),
        ages in proptest::collection::vec((0u8..6, 0u8..40), 0..6),
        qsel in 0usize..14,
        t in 0u8..40,
    ) {
        let mut db = random_db(&edges, &labels, &ages);
        let queries = [
            "SELECT X FROM Node X WHERE X.Next.Next".to_string(),
            "SELECT X, Y FROM Special X, Node Y WHERE X.Next[Y]".to_string(),
            format!("SELECT X FROM Node X WHERE X.Age some> {t} and X.Next"),
            "SELECT X FROM Node X WHERE not X.Next[X]".to_string(),
            format!("SELECT X FROM Node X WHERE X.Next.Age all>= {t}"),
            "SELECT X FROM Node X WHERE X.Tag['even4'] or X.Next.Tag['even2']".to_string(),
            "SELECT X FROM Node X WHERE X.Next.Next[Y] and Y.Next[X]".to_string(),
            format!("SELECT X FROM Node X WHERE count(X.Next) >= 2 and X.Age <= {t}"),
            // Ground numeral selectors, in both the Int and the Real
            // spelling: ages are stored under mixed spellings, so the
            // indexed engine must take the unanchored fallback to agree
            // with the naive and index-free engines.
            format!("SELECT X FROM Node X WHERE X.Age[{t}]"),
            format!("SELECT X FROM Node X WHERE X.Age[{t}.0] and X.Next"),
            // Planner-fragment joins over the mixed Int/Real numeral
            // spellings: the hash join's canonical key must collapse
            // `2` and `2.0` exactly like `elem_eq`, and the equality
            // probe must agree with the naive engine despite spelling.
            "SELECT X, Y FROM Node X, Node Y WHERE X.Age = Y.Age".to_string(),
            format!("SELECT X, Y FROM Special X, Node Y WHERE X.Next[Y] and Y.Age > {t}"),
            format!("SELECT X, Y FROM Node X, Node Y WHERE X.Age > Y.Age and X.Age <= {t}"),
            format!("SELECT X, Y FROM Node X, Special Y WHERE X.Next[Y] and X.Age = {t}.0"),
        ];
        let results = engines(&mut db, &queries[qsel]);
        let (ref_label, ref_rel) = &results[0];
        for (label, rel) in &results[1..] {
            prop_assert_eq!(
                rel, ref_rel,
                "{} disagrees with {} on {}", label, ref_label, &queries[qsel]
            );
        }
    }
}
