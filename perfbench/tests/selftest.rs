//! Self-test: a short, small-size run of every workload, untraced and
//! traced, must print every metric `BENCHMARK.json` names with its unit
//! and sample count, close with the JSON object of the right metric
//! set, and report every correctness check as run and passed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.
//! A debug build of the engine is too slow to reach the sample counts
//! the percentiles need, so the test skips itself there.

use std::process::Command;

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`, which
/// writes one metric object per line.
fn metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let field = |line: &str, key: &str| -> String {
        let at = line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        line[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    text.lines()
        .skip_while(|l| !l.contains(&format!("\"{section}\": [")))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with(']'))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn checks_for(workload: &str) -> &'static [&'static str] {
    match workload {
        "wide_read" => &["wide_read.rows_and_digest_vs_session_query"],
        "point_read" => &[
            "oracle.state_vs_session_query",
            "point_read.rows_vs_state_oracle",
        ],
        _ => &[
            "oracle.state_vs_session_query",
            "write_mix.rows_vs_state_oracle",
            "write_mix.acked_writes_after_recovery",
            "write_mix.recovered_fingerprint_vs_primary",
            "write_mix.replica_fingerprint_vs_primary",
        ],
    }
}

#[test]
fn every_workload_prints_every_metric_and_runs_every_check() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: the self-test needs a release build (cargo test --release)");
        return;
    }
    let (e2e, layer) = (metrics("end_to_end"), metrics("per_layer"));
    assert!(e2e.iter().any(|(n, _)| n == "setup_s"), "{e2e:?}");
    assert!(layer.len() > 40, "{layer:?}");
    for workload in ["wide_read", "point_read", "write_mix"] {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "5"])
                .args(["--trace", trace, "--small"])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let ctx = format!(
                "{workload} trace={trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{ctx}");
            let printed: Vec<&(String, String)> = match trace {
                "0" => e2e.iter().collect(),
                _ => e2e.iter().chain(&layer).collect(),
            };
            for (name, unit) in printed {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {name} = ")))
                    .unwrap_or_else(|| panic!("metric {name} not printed: {ctx}"));
                assert!(line.contains(&format!(" {unit} (n=")), "{line}: {ctx}");
            }
            let json = stdout.lines().last().expect("output");
            assert!(json.starts_with("{\"correct\":true,"), "{ctx}");
            let in_json = if trace == "0" { &e2e } else { &layer };
            for (name, unit) in in_json {
                let entry = format!("\"{name}\":{{\"value\":");
                assert!(json.contains(&entry), "{name} missing from JSON: {ctx}");
                assert!(json.contains(&format!("\"unit\":\"{unit}\"")), "{ctx}");
            }
            let other = if trace == "0" { &layer } else { &e2e };
            assert!(
                other
                    .iter()
                    .all(|(n, _)| !json.contains(&format!("\"{n}\":{{"))),
                "JSON carries the other metric set: {ctx}"
            );
            for check in checks_for(workload) {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("check {check}: ")))
                    .unwrap_or_else(|| panic!("check {check} did not run: {ctx}"));
                assert!(
                    line.contains(" 0 failed") && !line.contains(": 0 checked"),
                    "{line}"
                );
            }
        }
    }
}

#[test]
fn refuses_engine_switches() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "wide_read",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("XSQL_VM", "0")
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("XSQL_VM"));
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
