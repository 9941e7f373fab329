//! The traced run's per-layer split. After the window, sampled requests
//! are replayed through the public functions of each module on a
//! private copy of the request's snapshot, with a span around every
//! call; layer self times, exact counts and the program's own service
//! and storage histograms make up the per-layer metrics. Nothing is
//! traced inside the program.

use crate::report::Metrics;
use crate::stats::{bucket_quantile, median};
use crate::workload::{Done, Params, Reply, Shape, Stack, Window, Workload, BASE_TAG, JOIN2};
use net::frame::{self, Frame, FrameBuf};
use oodb::{Database, EpochCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use storage::RealFs;
use xsql::{EvalOptions, Outcome, Session};

/// Replayed requests per shape.
const PER_SHAPE: usize = 10;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: usize,
}

/// Spans of the whole run, kept in memory and written out at the end.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `name` of `request` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            end_us: (end - self.origin).as_secs_f64() * 1e6,
            parent,
            request,
        });
        (out, self.spans.len() - 1)
    }

    /// Adds a span per live request of the window, send to answer.
    pub fn add_live(&mut self, w: &Window) {
        let base = (w.origin - self.origin).as_secs_f64() * 1e6;
        for d in &w.done {
            self.spans.push(Span {
                name: if d.conn == 0 {
                    "live.request.conn0"
                } else {
                    "live.request.conn1"
                },
                start_us: base + d.timing.sent.as_secs_f64() * 1e6,
                end_us: base + d.timing.done.as_secs_f64() * 1e6,
                parent: None,
                request: d.timing.idx,
            });
        }
    }

    fn dur(&self, id: usize) -> f64 {
        self.spans[id].end_us - self.spans[id].start_us
    }

    /// A span's duration minus the part its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id))
            .map(|(c, _)| self.dur(c))
            .sum();
        self.dur(id) - children
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        f.flush()
    }
}

/// Per-shape samples of the xsql layer.
#[derive(Default)]
struct ShapeSamples {
    front: Vec<f64>,
    exec: Vec<f64>,
    ticks_per_row: Vec<f64>,
}

/// Per-read samples of the net layer and the attribution remainder.
#[derive(Default)]
struct NetSamples {
    frames: Vec<f64>,
    bytes: Vec<f64>,
    render: Vec<f64>,
    render_ratio: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    crc: Vec<f64>,
    unattributed: Vec<f64>,
}

fn med_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `cost: N ticks` and `rows out: M` from an EXPLAIN ANALYZE profile.
fn ticks_per_row(report: &str) -> Option<f64> {
    let num_after = |key: &str| -> Option<f64> {
        let rest = &report[report.find(key)? + key.len()..];
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    let ticks = num_after("cost:")?;
    let rows = num_after("rows out:").unwrap_or(0.0);
    Some(ticks / rows.max(1.0))
}

/// The sampled requests: up to [`PER_SHAPE`] completed requests per
/// shape, spread evenly over the window.
fn sample(w: &Window, has_snapshot: impl Fn(&Done) -> bool) -> Vec<&Done> {
    let mut by_shape: BTreeMap<Shape, Vec<&Done>> = BTreeMap::new();
    for d in &w.done {
        if matches!(d.reply, Reply::Failed(_)) || !has_snapshot(d) {
            continue;
        }
        let shape = d.req.as_ref().map_or(Shape::Join2, |r| r.shape);
        by_shape.entry(shape).or_default().push(d);
    }
    by_shape
        .into_values()
        .flat_map(|v| {
            let step = (v.len() / PER_SHAPE).max(1);
            v.into_iter()
                .step_by(step)
                .take(PER_SHAPE)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Replays the sampled requests layer by layer and returns the per-layer
/// metrics that depend on them.
pub fn replay(p: &Params, w: &Window, last: &Arc<Database>, tracer: &mut Tracer, m: &mut Metrics) {
    let retained: HashMap<(usize, usize), &Arc<Database>> =
        w.retained.iter().map(|(k, db)| (*k, db)).collect();
    let snapshot_of = |d: &Done| -> Option<&Arc<Database>> {
        match p.workload {
            Workload::WriteMix => retained.get(&(d.conn, d.timing.idx)).copied(),
            _ => Some(last),
        }
    };
    // Writes replay on the last snapshot: their front half and
    // in-memory execution do not depend on the epoch.
    let mut picked: Vec<(&Arc<Database>, &Done)> = sample(w, |d| {
        matches!(d.reply, Reply::Written { .. }) || snapshot_of(d).is_some()
    })
    .into_iter()
    .map(|d| (snapshot_of(d).unwrap_or(last), d))
    .collect();
    // One private session per snapshot, one at a time: resolution
    // interns symbols, so it must never touch the published copy.
    picked.sort_by_key(|(snap, _)| Arc::as_ptr(snap));
    let mut current: Option<(*const Database, Session)> = None;
    let mut shapes: BTreeMap<Shape, ShapeSamples> = BTreeMap::new();
    let mut net = NetSamples::default();
    for (rid, (snap, d)) in picked.into_iter().enumerate() {
        let (shape, text) = match &d.req {
            Some(r) => (r.shape, r.text.clone()),
            None => (Shape::Join2, JOIN2.to_string()),
        };
        if current
            .as_ref()
            .is_none_or(|(ptr, _)| *ptr != Arc::as_ptr(snap))
        {
            drop(current.take()); // before cloning the next copy
            let mut sess = Session::new((**snap).clone());
            // A fresh session's first statement pays one-off costs that
            // belong to no shape.
            sess.run(crate::workload::WARM_READ).expect("warm-up read");
            current = Some((Arc::as_ptr(snap), sess));
        }
        let sess = &mut current.as_mut().expect("just set").1;
        let ((), root) = tracer.span("request", rid, None, || {});
        let root_start = Instant::now();
        let acc = shapes.entry(shape).or_default();
        let ((), front) = tracer.span("xsql.front", rid, Some(root), || {
            let stmt = xsql::parse(&text).expect("replayed text parses");
            let resolved =
                xsql::resolve_stmt(sess.db_mut(), &stmt).expect("replayed text resolves");
            std::hint::black_box(xsql::vm::Program::compile(
                sess.db(),
                sess.options(),
                resolved,
                0,
            ));
        });
        acc.front.push(tracer.self_time(front));
        if shape == Shape::Update {
            // Not plan-cached: the timed run includes its own front half.
            let (r, exec) = tracer.span("xsql.execute", rid, Some(root), || sess.run(&text));
            r.expect("replayed update runs");
            acc.exec.push(tracer.self_time(exec));
            close_root(tracer, root, root_start);
            continue;
        }
        // The first run compiles and caches; the timed one is a plan
        // cache hit, i.e. execution only.
        sess.run(&text).expect("replayed read runs");
        let (out, exec) = tracer.span("xsql.execute", rid, Some(root), || sess.run(&text));
        acc.exec.push(tracer.self_time(exec));
        if let Ok(Outcome::Explained { report }) = sess.run(&format!("EXPLAIN ANALYZE {text}")) {
            acc.ticks_per_row.extend(ticks_per_row(&report));
        }
        let Ok(Outcome::Relation(rel)) = out else {
            panic!("replayed read did not return a relation");
        };
        // Net: what the server and client do with this result.
        let ((cells, calls, distinct), render) = tracer.span("net.render", rid, Some(root), || {
            let mut seen = HashSet::new();
            let mut calls = 0usize;
            let rows: Vec<Vec<String>> = rel
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|o| {
                            calls += 1;
                            seen.insert(*o);
                            snap.oids().render(*o)
                        })
                        .collect()
                })
                .collect();
            (rows, calls, seen.len())
        });
        let request = match &d.req {
            Some(_) => Frame::Execute {
                id: 1,
                deadline_ms: 0,
                src: text.clone(),
            },
            None => Frame::ExecutePrepared {
                id: 1,
                deadline_ms: 0,
                name: "join2".into(),
                args: Vec::new(),
            },
        };
        let mut frames = vec![Frame::RowsHeader {
            id: 1,
            epoch: 0,
            columns: rel.columns().to_vec(),
        }];
        let n_rows = cells.len() as u64;
        frames.extend(cells.into_iter().map(|c| Frame::Row { id: 1, cells: c }));
        frames.push(Frame::Done {
            id: 1,
            epoch: 0,
            rows: n_rows,
            info: String::new(),
        });
        let (wire, encode) = tracer.span("net.encode", rid, Some(root), || {
            let mut wire = frame::encode(&request);
            for f in &frames {
                wire.extend_from_slice(&frame::encode(f));
            }
            wire
        });
        let (decoded, decode) = tracer.span("net.decode", rid, Some(root), || {
            let mut buf = FrameBuf::new();
            let mut n = 0usize;
            for chunk in wire.chunks(8192) {
                buf.push(chunk);
                while let Some(_f) = buf.next_frame().expect("replayed frames decode") {
                    n += 1;
                }
            }
            n
        });
        assert_eq!(decoded, frames.len() + 1, "every encoded frame decodes");
        // The checksum both sides compute, over the same bytes; it is
        // part of encode and decode, so it is not added to the split.
        let ((), crc) = tracer.span("net.crc32", rid, Some(root), || {
            std::hint::black_box(storage::wal::crc32(0, &wire));
            std::hint::black_box(storage::wal::crc32(0, &wire));
        });
        close_root(tracer, root, root_start);
        let prepared = d.req.is_none();
        let attributed = tracer.self_time(exec)
            + tracer.self_time(render)
            + tracer.self_time(encode)
            + tracer.self_time(decode)
            + if prepared {
                0.0
            } else {
                tracer.self_time(front)
            };
        net.frames.push(decoded as f64);
        net.bytes.push(wire.len() as f64);
        net.render.push(tracer.self_time(render));
        net.render_ratio.push(calls as f64 / distinct.max(1) as f64);
        net.encode.push(tracer.self_time(encode));
        net.decode.push(tracer.self_time(decode));
        net.crc.push(tracer.self_time(crc));
        // Service time of the live request (its wait behind earlier
        // requests of an open loop is not any layer's work).
        net.unattributed
            .push(d.timing.latency_us - d.timing.late_us - attributed);
    }
    m.push(
        "net.frames_per_read",
        med_or_zero(&net.frames),
        "count",
        net.frames.len(),
    );
    m.push(
        "net.wire_bytes_per_read",
        med_or_zero(&net.bytes),
        "bytes",
        net.bytes.len(),
    );
    m.push(
        "net.render_us_per_read",
        med_or_zero(&net.render),
        "us",
        net.render.len(),
    );
    m.push(
        "net.render_calls_per_distinct_oid",
        med_or_zero(&net.render_ratio),
        "ratio",
        net.render_ratio.len(),
    );
    m.push(
        "net.encode_us_per_read",
        med_or_zero(&net.encode),
        "us",
        net.encode.len(),
    );
    m.push(
        "net.decode_us_per_read",
        med_or_zero(&net.decode),
        "us",
        net.decode.len(),
    );
    m.push(
        "net.crc32_us_per_read",
        med_or_zero(&net.crc),
        "us",
        net.crc.len(),
    );
    m.push(
        "net.unattributed_us_per_read",
        med_or_zero(&net.unattributed),
        "us",
        net.unattributed.len(),
    );
    for shape in Shape::ALL {
        let s = shapes.remove(&shape).unwrap_or_default();
        let n = shape.name();
        m.push(
            &format!("xsql.front_us.{n}"),
            med_or_zero(&s.front),
            "us",
            s.front.len(),
        );
        m.push(
            &format!("xsql.execute_us.{n}"),
            med_or_zero(&s.exec),
            "us",
            s.exec.len(),
        );
        if shape != Shape::Update {
            m.push(
                &format!("xsql.ticks_per_row.{n}"),
                med_or_zero(&s.ticks_per_row),
                "ticks/row",
                s.ticks_per_row.len(),
            );
        }
    }
}

fn close_root(tracer: &mut Tracer, root: usize, start: Instant) {
    let s = &mut tracer.spans[root];
    s.end_us = s.start_us + us_since(start);
}

/// p50 of one of the program's own latency histograms, interpolated
/// inside its bucket (0 when it recorded nothing).
fn hist_p50(reg: &telemetry::Registry, name: &str, labels: &[(&str, &str)]) -> (f64, usize) {
    let h = reg.latency(name, labels);
    (
        bucket_quantile(&h.cumulative_buckets(), 0.5).unwrap_or(0.0),
        h.count() as usize,
    )
}

/// Service-layer metrics from the program's `svc_*` histograms and the
/// store's counters, read through `Service::registry()`.
pub fn service_metrics(stack: &Stack, m: &mut Metrics) {
    let reg = stack.svc.registry();
    for (metric, name, labels) in [
        (
            "service.read_admission_wait_us",
            "svc_read_admission_latency_us",
            &[][..],
        ),
        (
            "service.read_exec_us",
            "svc_exec_latency_us",
            &[("kind", "read")][..],
        ),
        (
            "service.write_queue_wait_us",
            "svc_write_queue_latency_us",
            &[][..],
        ),
        (
            "service.epoch_publish_lag_us",
            "svc_epoch_publish_lag_us",
            &[][..],
        ),
    ] {
        let (v, n) = hist_p50(reg, name, labels);
        m.push(metric, v, "us", n);
    }
    let units = reg
        .counter("svc_completed_total", &[("kind", "write")])
        .get();
    let fsyncs = reg.latency("storage_wal_fsync_latency_us", &[]).count();
    m.push(
        "service.units_per_fsync",
        if fsyncs == 0 {
            0.0
        } else {
            units as f64 / fsyncs as f64
        },
        "count",
        fsyncs as usize,
    );
    let appends = reg.counter("storage_wal_appends_total", &[]).get();
    let bytes = reg.counter("storage_wal_bytes_written_total", &[]).get();
    m.push(
        "storage.wal_bytes_per_write",
        if appends == 0 {
            0.0
        } else {
            bytes as f64 / appends as f64
        },
        "bytes",
        appends as usize,
    );
    m.push(
        "storage.checkpoints",
        reg.counter_total("storage_checkpoints_total") as f64,
        "count",
        1,
    );
}

/// `Database::clone` and `EpochCell::publish` at the workload's size.
pub fn oodb_metrics(last: &Database, m: &mut Metrics) {
    let (mut clones, mut publishes) = (Vec::new(), Vec::new());
    let mut cell: Option<EpochCell> = None;
    // At most three copies live at once: `last`, the published one and
    // the next.
    for _ in 0..3 {
        let t = Instant::now();
        let copy = last.clone();
        clones.push(t.elapsed().as_secs_f64() * 1e3);
        let Some(cell) = &cell else {
            cell = Some(EpochCell::new(copy));
            continue;
        };
        // A reader holds the outgoing epoch, as in the service, so the
        // timed call does not include dropping it.
        let held = cell.load();
        let t = Instant::now();
        cell.publish(copy);
        publishes.push(us_since(t));
        drop(held);
    }
    m.push("oodb.clone_ms", median(&clones), "ms", clones.len());
    m.push("oodb.publish_us", median(&publishes), "us", publishes.len());
}

/// WAL append and fsync cost of one salary update, timed on a scratch
/// durable session: `run` with per-commit sync off, then `sync_wal`.
/// The append time is the store's own histogram; the fsync time is
/// measured here and cross-checked against the store's histogram.
pub fn storage_metrics(dir: &Path, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let base = datagen::figure1_scaled(&datagen::Figure1Params {
        seed,
        ..datagen::Figure1Params::with_total_objects(200)
    });
    let mut s = Session::open_dir(
        Box::new(RealFs),
        dir,
        base,
        BASE_TAG,
        EvalOptions::default(),
    )
    .map_err(|e| format!("scratch store: {e}"))?;
    s.set_sync_on_commit(false);
    let mut fsync = Vec::new();
    for i in 0..40 {
        s.run(&format!(
            "UPDATE CLASS Employee SET emp0_0_0.Salary = {}",
            5_000_000 + i
        ))
        .map_err(|e| format!("scratch update: {e}"))?;
        let t = Instant::now();
        s.sync_wal().map_err(|e| format!("scratch fsync: {e}"))?;
        fsync.push(us_since(t));
    }
    let (append, n) = hist_p50(s.registry(), "storage_wal_append_latency_us", &[]);
    m.push("storage.wal_append_us", append, "us", n);
    let fsync_us = median(&fsync);
    let (hist_fsync, _) = hist_p50(s.registry(), "storage_wal_fsync_latency_us", &[]);
    println!("cross-check storage.fsync_us: measured {fsync_us:.1} us, store histogram p50 {hist_fsync:.1} us");
    m.push("storage.fsync_us", fsync_us, "us", fsync.len());
    Ok(())
}
