//! E16 — the bytecode VM and the schema-epoch plan cache.
//!
//! Splits one statement's cost into its phases over a scaled Figure 1
//! database: parse + resolve (what a cache hit skips), bytecode
//! compilation (what `PREPARE` pays once), and execution (what every
//! run pays). Then measures the statement end-to-end through a
//! session, cold (plan-cache miss: parse, resolve, compile, insert)
//! and warm (cache hit: normalized-text lookup, straight to the
//! dispatch loop), and the same through `PREPARE` / `EXECUTE` with a
//! bound parameter.
//!
//! The claim under test: a warm cached plan pays zero parse, resolve
//! or type cost — `warm_us` tracks `execute_us`, not
//! `parse_resolve_us + compile_us + execute_us`. The baseline is the
//! uncached `Session::execute(&parse(src)?)` path: every run re-parses,
//! re-resolves and re-plans, then runs the same bytecode executor.
//!
//! Results go to `BENCH_vm.json` at the repo root (hand-rendered JSON;
//! the offline criterion shim has no reporting). Wall-clock timing on
//! medians — phase costs are microsecond-scale, not nanosecond kernels.

use bench::provenance_json;
use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use xsql::vm::Program;
use xsql::{parse, resolve_stmt, EvalOptions, Outcome, Session};

const REPS: usize = 60;

fn scaled_db() -> Database {
    figure1_scaled(&Figure1Params::with_total_objects(200))
}

fn vm_opts() -> EvalOptions {
    EvalOptions {
        use_planner: true,
        ..EvalOptions::default()
    }
}

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Times one closure `REPS` times, reporting the median in µs.
fn time_us<F: FnMut()>(mut f: F) -> u128 {
    let lat: Vec<u128> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_micros()
        })
        .collect();
    median(lat)
}

fn rows(out: Outcome) -> usize {
    match out {
        Outcome::Relation(r) => r.len(),
        o => panic!("expected rows, got {o:?}"),
    }
}

fn run(s: &mut Session, src: &str) -> usize {
    rows(s.run(src).expect("statement"))
}

/// The uncached path: parse, then resolve, plan and execute.
fn execute(s: &mut Session, src: &str) -> usize {
    rows(s.execute(&parse(src).expect("parse")).expect("statement"))
}

struct Phases {
    parse_resolve_us: u128,
    compile_us: u128,
    baseline_us: u128,
    cold_us: u128,
    warm_us: u128,
    rows: usize,
}

/// Phase split for one statement text (no parameters).
fn phases(src: &'static str) -> Phases {
    // Phase timings on a standalone database.
    let mut db = scaled_db();
    let opts = vm_opts();
    let parse_resolve_us = time_us(|| {
        let stmt = parse(src).expect("parse");
        std::hint::black_box(resolve_stmt(&mut db, &stmt).expect("resolve"));
    });
    let stmt = parse(src).expect("parse");
    let resolved = resolve_stmt(&mut db, &stmt).expect("resolve");
    let compile_us = time_us(|| {
        std::hint::black_box(Program::compile(&db, &opts, resolved.clone(), 0));
    });

    // Baseline: the uncached path — every run re-parses, re-resolves
    // and re-plans before the dispatch loop.
    let mut base = Session::with_options(scaled_db(), vm_opts());
    execute(&mut base, src); // warm the OID interner
    let baseline_us = time_us(|| {
        execute(&mut base, src);
    });

    // Cold: a fresh session per iteration (prepared outside the timed
    // region) — the first run of the text is always a plan-cache miss:
    // parse, resolve, compile, insert, execute.
    let cold_db = scaled_db();
    let mut cold_sessions: Vec<Session> = (0..REPS)
        .map(|_| Session::with_options(cold_db.clone(), vm_opts()))
        .collect();
    let mut cold_iter = cold_sessions.iter_mut();
    let cold_us = time_us(|| {
        run(cold_iter.next().expect("one session per rep"), src);
    });

    // Warm: the same text every time — after the first run, every
    // iteration is a cache hit.
    let mut warm_sess = Session::with_options(scaled_db(), vm_opts());
    let rows = run(&mut warm_sess, src);
    let warm_us = time_us(|| {
        run(&mut warm_sess, src);
    });

    Phases {
        parse_resolve_us,
        compile_us,
        baseline_us,
        cold_us,
        warm_us,
        rows,
    }
}

fn main() {
    let queries: &[(&str, &str)] = &[
        (
            "employee_join2",
            "SELECT X, Y FROM Employee X, Employee Y \
             WHERE X.Salary > Y.Salary AND X.Age < Y.Age",
        ),
        (
            "salary_probe",
            "SELECT X FROM Employee X WHERE X.Salary > 30000",
        ),
    ];

    let mut json = String::from("{\n  \"experiment\": \"E16_vm_plan_cache\",\n");
    let _ = writeln!(json, "  {},", provenance_json());
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"db\": \"figure1 scaled to 200 objects\",");
    json.push_str("  \"queries\": [\n");
    for (i, (name, src)) in queries.iter().enumerate() {
        let p = phases(src);
        println!(
            "{name}: parse+resolve {} µs, compile {} µs, baseline {} µs, \
             cold {} µs, warm {} µs ({} rows)",
            p.parse_resolve_us, p.compile_us, p.baseline_us, p.cold_us, p.warm_us, p.rows
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"rows\": {}, \
             \"parse_resolve_us\": {}, \"compile_us\": {}, \
             \"baseline_us\": {}, \"cold_us\": {}, \"warm_us\": {}}}",
            p.rows, p.parse_resolve_us, p.compile_us, p.baseline_us, p.cold_us, p.warm_us
        );
        json.push_str(if i + 1 < queries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // PREPARE / EXECUTE with a bound parameter: compile once, bind and
    // run per EXECUTE. Compared with the warm transparent-cache run of
    // the equivalent constant text.
    let mut s = Session::with_options(scaled_db(), vm_opts());
    s.run("PREPARE rich AS SELECT X FROM Employee X WHERE X.Salary > ?1")
        .expect("prepare");
    run(&mut s, "EXECUTE rich (30000)");
    let execute_warm_us = time_us(|| {
        run(&mut s, "EXECUTE rich (30000)");
    });
    run(&mut s, "SELECT X FROM Employee X WHERE X.Salary > 30000");
    let plain_warm_us = time_us(|| {
        run(&mut s, "SELECT X FROM Employee X WHERE X.Salary > 30000");
    });
    println!("prepared EXECUTE warm {execute_warm_us} µs; plain text warm {plain_warm_us} µs");
    let _ = writeln!(
        json,
        "  \"prepared\": {{\"execute_warm_us\": {execute_warm_us}, \
         \"plain_warm_us\": {plain_warm_us}}}\n}}"
    );

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json");
    std::fs::write(&out, &json).expect("write BENCH_vm.json");
    println!("{json}");
}
