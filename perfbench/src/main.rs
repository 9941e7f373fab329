//! End-to-end benchmark of the XSQL serving stack over loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide_read|point_read|write_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that splits request time across the modules.
//! `--capacity` runs the reads closed-loop, to measure the capacity the
//! fixed open-loop rates were set from. Every run checks the answers after the window and exits non-zero on
//! any violation. The last line of standard output is one JSON object.
//! See README.md for the workloads and metric definitions.

mod layers;
mod loadgen;
mod report;
mod stats;
mod workload;

use report::Metrics;
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use workload::{Done, Params, Population, Reply, Shape, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Self-test scale: small databases, high rates, short windows.
    small: bool,
    /// Calibration: run the reads closed-loop to measure capacity.
    capacity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut small, mut capacity) = (false, false);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    val()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            "--small" => small = true,
            "--capacity" => capacity = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        small,
        capacity,
    })
}

/// Engine switches must stay at their defaults, so every number
/// describes the default engine.
fn refuse_engine_env() -> Result<(), String> {
    for (k, _) in std::env::vars() {
        if ["XSQL_VM", "XSQL_PLANNER", "XSQL_PARALLELISM"].contains(&k.as_str())
            || k.starts_with("XSQL_TELEMETRY")
        {
            return Err(format!(
                "refusing to run with {k} set: unset it to measure the default engine"
            ));
        }
    }
    Ok(())
}

/// The checkout's commit, read from `.git` when there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch space next to the binary, i.e. inside the build directory.
fn work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Durable stores of one run; removed when the run ends, however it ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn ms(v: &[f64]) -> Vec<f64> {
    v.iter().map(|us| us / 1e3).collect()
}

/// Latencies of the window's completed reads, in µs.
fn read_latencies(w: &workload::Window) -> Vec<f64> {
    w.done
        .iter()
        .filter(|d| matches!(d.reply, Reply::Rows { .. }))
        .map(|d| d.timing.latency_us)
        .collect()
}

/// Latencies of the window's acknowledged writes, in µs.
fn write_latencies(w: &workload::Window) -> Vec<f64> {
    w.done
        .iter()
        .filter(|d| matches!(d.reply, Reply::Written { .. }))
        .map(|d| d.timing.latency_us)
        .collect()
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    refuse_engine_env()?;
    let mut p = Params::new(args.workload, args.small);
    if args.capacity {
        p.read_rate = None;
    }
    let wname = p.workload.name();
    let tmp = TmpDir(
        work_dir()
            .join("perfbench-tmp")
            .join(format!("{wname}-{}", std::process::id())),
    );
    let tmp = &tmp.0;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rate = |r: Option<f64>| r.map_or("closed".to_string(), |r| format!("{r}/s"));
    println!(
        "perfbench workload={wname} seed={} seconds={} trace={} cores={cores} commit={} \
         objects={} read_rate={} write_rate={} setups={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit(),
        p.objects,
        rate(p.read_rate),
        if p.workload == Workload::WriteMix {
            rate(Some(p.write_rate))
        } else {
            "none".into()
        },
        p.setups
    );

    // Set-up, several times; the last stack serves the window. A traced
    // run first measures an untraced reference window, half as
    // long, on the stack before it, for `trace.overhead_frac`.
    let mut times = Vec::new();
    let mut stack = None;
    let mut pop = None;
    let mut reference_p50_ms = None;
    for k in 0..p.setups {
        let dir = p.durable().then(|| tmp.join(format!("store{k}")));
        let (mut s, t) = workload::setup(&p, args.seed, dir)?;
        times.push(t);
        let pop = pop.get_or_insert_with(|| Population::of(&s.svc.epoch().db));
        if k + 1 < p.setups {
            if args.trace && k + 2 == p.setups {
                let w = workload::run_window(&p, &mut s, pop, args.seed, args.seconds / 2.0, None);
                reference_p50_ms = Some(percentile(&ms(&read_latencies(&w)), 50.0)?);
            }
            let dir = s.dir.clone();
            s.shutdown();
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(d);
            }
        } else {
            stack = Some(s);
        }
    }
    let mut stack = stack.expect("at least one set-up");
    let pop = pop.expect("at least one set-up");
    let retain_every = (args.trace && p.workload == Workload::WriteMix)
        .then(|| (p.read_rate.unwrap_or(0.0) * args.seconds / 10.0).max(1.0) as usize);
    let w = workload::run_window(&p, &mut stack, &pop, args.seed, args.seconds, retain_every);
    let peak_rss = peak_rss_mb();

    // End-to-end metrics.
    let (reads, writes) = (read_latencies(&w), write_latencies(&w));
    let attempted = w.done.len();
    let failed = w
        .done
        .iter()
        .filter(|d| matches!(d.reply, Reply::Failed(_)))
        .count();
    if let Some(Done {
        reply: Reply::Failed(e),
        ..
    }) = w.done.iter().find(|d| matches!(d.reply, Reply::Failed(_)))
    {
        println!("first failure: {e}");
    }
    for shape in Shape::ALL {
        let lat: Vec<f64> = w
            .done
            .iter()
            .filter(|d| d.req.as_ref().map_or(Shape::Join2, |r| r.shape) == shape)
            .filter(|d| !matches!(d.reply, Reply::Failed(_)))
            .map(|d| d.timing.latency_us / 1e3)
            .collect();
        if !lat.is_empty() {
            println!(
                "latency {}: median {:.3} ms (n={})",
                shape.name(),
                median(&lat),
                lat.len()
            );
        }
    }
    let setup_totals: Vec<f64> = times.iter().map(|t| t.total()).collect();
    let read_p50 = percentile(&ms(&reads), 50.0)?;
    let read_p99 = percentile(&ms(&reads), 99.0)?;
    let mut e2e = Metrics::default();
    e2e.push("setup_s", median(&setup_totals), "s", setup_totals.len());
    e2e.push(
        "reads_per_s",
        w.reads_per_s(p.read_rate.is_none()),
        "1/s",
        reads.len(),
    );
    e2e.push("read_p50_ms", read_p50.value, "ms", read_p50.samples);
    e2e.push("read_p99_ms", read_p99.value, "ms", read_p99.samples);
    e2e.push("peak_rss_mb", peak_rss, "MiB", 1);

    // Write-side and load-generator figures (per-layer rows; see README).
    let mut layer = Metrics::default();
    if p.workload == Workload::WriteMix {
        let w50 = percentile(&ms(&writes), 50.0)?;
        let w90 = percentile(&ms(&writes), 90.0)?;
        layer.push(
            "writes_per_s",
            writes.len() as f64 / w.span_s,
            "1/s",
            writes.len(),
        );
        layer.push("write_p50_ms", w50.value, "ms", w50.samples);
        layer.push("write_p90_ms", w90.value, "ms", w90.samples);
    } else {
        for (name, unit) in [
            ("writes_per_s", "1/s"),
            ("write_p50_ms", "ms"),
            ("write_p90_ms", "ms"),
        ] {
            layer.push(name, 0.0, unit, 0);
        }
    }
    layer.push(
        "failed_ops_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted,
    );
    let late: Vec<f64> = w.done.iter().map(|d| d.timing.late_us / 1e3).collect();
    match (p.read_rate, percentile(&late, 99.0)) {
        (Some(_), Ok(l)) => layer.push("loadgen.late_p99_ms", l.value, "ms", l.samples),
        _ => layer.push("loadgen.late_p99_ms", 0.0, "ms", 0),
    }
    layer.push(
        "workload.repeat_text_frac",
        workload::repeat_text_frac(&w, p.workload == Workload::WideRead),
        "ratio",
        reads.len(),
    );
    layer.push(
        "service.reads_on_new_epoch_frac",
        workload::new_epoch_frac(&w, &stack.warm_epoch),
        "ratio",
        reads.len(),
    );
    let med =
        |f: fn(&workload::SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    layer.push("datagen.build_s", med(|t| t.datagen), "s", times.len());
    layer.push("service.start_s", med(|t| t.service), "s", times.len());
    layer.push("storage.create_s", med(|t| t.storage), "s", times.len());
    if args.trace {
        layers::service_metrics(&stack, &mut layer);
    }
    let store_dir = stack.dir.clone();
    let last = stack.shutdown();

    // Correctness, outside the timed window.
    let base = match p.workload {
        Workload::WriteMix => datagen::figure1_scaled(&p.figure1(args.seed)),
        _ => (*last).clone(),
    };
    let mut checks = workload::check_reads(&p, &w, base, &pop);
    let (mut recovery_s, mut catchup_s, mut recovery_units) = (0.0, 0.0, 0.0);
    if let Some(dir) = &store_dir {
        let (c, r, u, units) = workload::check_durability(&p, &w, dir, &last, args.seed, &pop)?;
        checks.extend(c);
        (recovery_s, catchup_s, recovery_units) = (r, u, units as f64);
    }
    layer.push(
        "recovery_s",
        recovery_s,
        "s",
        usize::from(store_dir.is_some()),
    );
    layer.push(
        "replica_catchup_s",
        catchup_s,
        "s",
        usize::from(store_dir.is_some()),
    );
    layer.push("storage.recovery_units", recovery_units, "count", 1);

    if args.trace {
        let mut tracer = layers::Tracer::new();
        tracer.add_live(&w);
        layers::replay(&p, &w, &last, &mut tracer, &mut layer);
        layers::oodb_metrics(&last, &mut layer);
        layers::storage_metrics(&tmp.join("scratch"), args.seed, &mut layer)?;
        let reference = reference_p50_ms.ok_or("no reference window")?;
        layer.push(
            "trace.overhead_frac",
            read_p50.value / reference.value - 1.0,
            "ratio",
            reference.samples,
        );
        let spans = work_dir()
            .join("perfbench-spans")
            .join(format!("{wname}-seed{}.jsonl", args.seed));
        tracer
            .write(&spans)
            .map_err(|e| format!("write spans: {e}"))?;
        println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            spans.display()
        );
    }

    let mut correct = true;
    for c in &checks {
        println!(
            "check {}: {} checked, {} failed{}",
            c.name,
            c.checked,
            c.failed,
            c.first_failure
                .as_ref()
                .map_or(String::new(), |f| format!(" (first: {f})"))
        );
        correct &= c.failed == 0 && c.checked > 0;
    }
    e2e.print("end-to-end");
    layer.print("per-layer");
    let json = if args.trace { &layer } else { &e2e };
    println!("{}", json.json(correct, attempted, failed)?);
    Ok(correct)
}
