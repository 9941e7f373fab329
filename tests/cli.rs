//! End-to-end tests of the `xsql` CLI binary.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xsql-cli"))
}

#[test]
fn runs_a_script_against_figure1() {
    let dir = std::env::temp_dir().join("xsql_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("q.xsql");
    std::fs::write(
        &path,
        "SELECT X FROM Person X WHERE X.Residence.City['newyork'];",
    )
    .unwrap();
    let out = bin().args(["--db", "figure1"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("mary123"), "{stdout}");
}

#[test]
fn bootstraps_an_empty_database() {
    let dir = std::env::temp_dir().join("xsql_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("boot.xsql");
    std::fs::write(
        &path,
        "CREATE CLASS T; ALTER CLASS T ADD SIGNATURE V => Numeral; \
         CREATE OBJECT t1 CLASS T SET V = 7; \
         SELECT X FROM T X WHERE X.V[7];",
    )
    .unwrap();
    let out = bin().args(["--db", "empty"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("t1"), "{stdout}");
}

#[test]
fn interactive_mode_answers_and_quits() {
    let mut child = bin()
        .args(["--db", "nobel"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"SELECT X WHERE X.WonNobelPrize;\n\\q\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unicef"), "{stdout}");
}

#[test]
fn rejects_unknown_fixture_and_flag() {
    let out = bin().args(["--db", "nope"]).output().unwrap();
    assert!(!out.status.success());
    let out = bin().args(["--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

/// The engine reads no `XSQL_*` switches from the environment: a
/// Figure 1 join is planned whatever `XSQL_PLANNER` or
/// `XSQL_PARALLELISM` say, and `--parallel` is an unknown flag.
#[test]
fn engine_ignores_environment_switches() {
    let mut child = bin()
        .args(["--db", "figure1"])
        .env("XSQL_PLANNER", "0")
        .env("XSQL_PARALLELISM", "4")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"EXPLAIN SELECT X, Y FROM Person X, Person Y WHERE X.Age = Y.Age;\n\\q\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("strategy: planner\n"), "{stdout}");
    assert!(!stdout.contains("parallelism"), "{stdout}");

    let out = bin().args(["--parallel", "2"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--parallel`"), "{stderr}");
}

/// Durability end to end: a CLI session with `--open` is SIGKILLed with
/// a transaction still open; reopening the same directory recovers every
/// committed statement and none of the uncommitted work.
#[test]
fn committed_work_survives_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("xsql_cli_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut child = bin()
        .args(["--db", "empty", "--open"])
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"CREATE CLASS Thing;\n\
              ALTER CLASS Thing ADD SIGNATURE Num => Numeral;\n\
              CREATE OBJECT survivor CLASS Thing SET Num = 1;\n\
              BEGIN WORK;\n\
              CREATE OBJECT ghost CLASS Thing SET Num = 2;\n\
              SELECT X FROM Thing X;\n",
        )
        .unwrap();
    // Drain stdout until the in-transaction SELECT echoes `ghost` — at
    // that point every prior statement has been processed and the
    // committed ones fsync'd — then kill the process without warning.
    let mut seen = String::new();
    let stdout = child.stdout.as_mut().unwrap();
    let mut chunk = [0u8; 1024];
    while !seen.contains("ghost") {
        let n = stdout.read(&mut chunk).unwrap();
        assert!(n > 0, "CLI exited early; output so far:\n{seen}");
        seen.push_str(&String::from_utf8_lossy(&chunk[..n]));
    }
    child.kill().unwrap();
    child.wait().unwrap();

    // Reopen the directory: recovery replays the WAL.
    let script = dir.join("after.xsql");
    std::fs::write(&script, "SELECT X FROM Thing X;").unwrap();
    let out = bin()
        .args(["--db", "empty", "--open"])
        .arg(&dir)
        .arg(&script)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("survivor"), "committed row lost:\n{stdout}");
    assert!(
        !stdout.contains("ghost"),
        "uncommitted row survived the crash:\n{stdout}"
    );
    // Reopening printed a recovery report (on stderr, so script output
    // stays parseable).
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recovery:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--serve` runs each script on its own concurrent service session:
/// both scripts' outputs appear under their `[sN]` prefixes, and a
/// write committed by one session is visible to a later read (the reads
/// here are self-contained per script, so ordering doesn't matter).
#[test]
fn serve_mode_runs_scripts_concurrently() {
    let dir = std::env::temp_dir().join("xsql_cli_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.xsql");
    std::fs::write(
        &a,
        "CREATE CLASS FromA; \
         SELECT X FROM Person X WHERE X.Residence.City['newyork'];",
    )
    .unwrap();
    let b = dir.join("b.xsql");
    std::fs::write(
        &b,
        "BEGIN WORK; \
         CREATE CLASS FromB; \
         CREATE OBJECT fb CLASS FromB; \
         COMMIT WORK; \
         SELECT X FROM FromB X;",
    )
    .unwrap();
    let out = bin()
        .args(["--db", "figure1", "--serve", "--deadline-ms", "30000"])
        .arg(&a)
        .arg(&b)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[s1] "), "{stdout}");
    assert!(stdout.contains("[s2] "), "{stdout}");
    // Script 1's read found mary123; script 2's post-commit read sees
    // the object its own transaction created.
    assert!(stdout.contains("mary123"), "{stdout}");
    assert!(stdout.contains("fb"), "{stdout}");
}

#[test]
fn serve_mode_requires_scripts() {
    let out = bin().arg("--serve").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--serve"), "{err}");
}

#[test]
fn script_errors_set_exit_code() {
    let dir = std::env::temp_dir().join("xsql_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.xsql");
    std::fs::write(&path, "SELECT FROM WHERE;").unwrap();
    let out = bin().arg(&path).output().unwrap();
    assert!(!out.status.success());
}

/// `--stats` prints the telemetry exposition after a script run:
/// statement latency histogram samples, and — with `--open` — the WAL
/// fsync/append instrumentation from the attached store.
#[test]
fn stats_flag_prints_exposition() {
    let dir = std::env::temp_dir().join("xsql_cli_stats_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("q.xsql");
    std::fs::write(&path, "SELECT X FROM Person X;").unwrap();
    let out = bin()
        .args(["--db", "figure1", "--stats"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("xsql_stmt_latency_us_count "), "{stdout}");
    assert!(stdout.contains("xsql_stmt_latency_us_p50 "), "{stdout}");

    // With a durable store attached, WAL metrics join the exposition.
    let store_dir = dir.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let script = dir.join("w.xsql");
    std::fs::write(
        &script,
        "CREATE CLASS Thing; ALTER CLASS Thing ADD SIGNATURE Num => Numeral; \
         CREATE OBJECT t1 CLASS Thing SET Num = 1;",
    )
    .unwrap();
    let out = bin()
        .args(["--db", "empty", "--stats", "--open"])
        .arg(&store_dir)
        .arg(&script)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("storage_wal_fsync_latency_us_count "),
        "{stdout}"
    );
    assert!(stdout.contains("storage_wal_appends_total "), "{stdout}");
    assert!(
        stdout.contains("storage_wal_bytes_written_total "),
        "{stdout}"
    );
    // The store-health state machine is a gauge (0 = healthy).
    assert!(stdout.contains("store_health "), "{stdout}");
}
