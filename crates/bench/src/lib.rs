//! # bench — shared helpers for the experiment harness (E1–E7).
//!
//! Each Criterion bench in `benches/` regenerates one experiment of
//! EXPERIMENTS.md; `src/bin/paper_examples.rs` replays every numbered
//! query of the paper against the Figure 1 database.

use datagen::{figure1_scaled, Figure1Params};
use oodb::Database;
use xsql::ast::{SelectQuery, Stmt};
use xsql::{parse, resolve_stmt};

/// Parses and resolves a SELECT query against a database (compile once,
/// evaluate many times in the timing loop).
pub fn compile(db: &mut Database, src: &str) -> SelectQuery {
    let stmt = parse(src).unwrap_or_else(|e| panic!("parse {src}: {e}"));
    match resolve_stmt(db, &stmt).unwrap_or_else(|e| panic!("resolve {src}: {e}")) {
        Stmt::Select(q) => q,
        s => panic!("expected SELECT, got {s:?}"),
    }
}

/// A scaled Figure 1 database with roughly `companies * 45` individuals
/// plus families.
pub fn scaled_db(companies: usize) -> Database {
    figure1_scaled(&Figure1Params {
        companies,
        ..Figure1Params::default()
    })
}

/// JSON fields naming where a result file was measured: the core count
/// (`std::thread::available_parallelism`) and the source revision
/// (`git describe --always --dirty`, `unknown` outside a checkout).
pub fn provenance_json() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("\"cores\": {cores}, \"git_commit\": \"{commit}\"")
}
