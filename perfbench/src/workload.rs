//! The three workloads: set-up, seeded request streams, the measured
//! window over loopback TCP, and the correctness checks that run after
//! the window.

use crate::loadgen::{self, Timing, WallClock};
use crate::stats::{self, Rng};
use datagen::{figure1_scaled, Figure1Params};
use net::{Backend, Client, Server, ServerConfig};
use oodb::{Database, Oid, OidData, Val};
use service::{Service, ServiceConfig};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::RealFs;
use xsql::{EvalOptions, Session};

/// The 2-variable Employee join `wide_read` prepares once and re-runs.
/// It returns every pair of employees with distinct salaries, in
/// salary order: n(n-1)/2 rows less the few salary ties, so its size
/// hardly moves with the seed (3 969-3 999 rows at 90 employees).
pub const JOIN2: &str = "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary > Y.Salary";
/// Tag the durable store records for its base fixture.
pub const BASE_TAG: &str = "figure1_scaled";
/// The warm-up read of point-read connections and replay sessions.
pub const WARM_READ: &str = "SELECT Y WHERE company0.Headquarters.City[Y]";
/// Name `wide_read` prepares the join under.
const PREPARED: &str = "join2";
/// Salary values written by `write_mix` start here, above every
/// generated salary, so no write ever matches a `salary_probe`.
const WRITE_BASE: i64 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WideRead,
    PointRead,
    WriteMix,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "wide_read" => Some(Workload::WideRead),
            "point_read" => Some(Workload::PointRead),
            "write_mix" => Some(Workload::WriteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WideRead => "wide_read",
            Workload::PointRead => "point_read",
            Workload::WriteMix => "write_mix",
        }
    }
}

/// Request shapes, each with its own per-layer row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Shape {
    Join2,
    NameProbe,
    SalaryProbe,
    PathProbe,
    OidPath,
    Update,
}

impl Shape {
    pub const ALL: [Shape; 6] = [
        Shape::Join2,
        Shape::NameProbe,
        Shape::SalaryProbe,
        Shape::PathProbe,
        Shape::OidPath,
        Shape::Update,
    ];
    const PROBES: [Shape; 4] = [
        Shape::NameProbe,
        Shape::SalaryProbe,
        Shape::PathProbe,
        Shape::OidPath,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Join2 => "join2",
            Shape::NameProbe => "name_probe",
            Shape::SalaryProbe => "salary_probe",
            Shape::PathProbe => "path_probe",
            Shape::OidPath => "oid_path",
            Shape::Update => "update",
        }
    }
}

/// How one workload is sized and loaded.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    /// `Figure1Params::with_total_objects` target.
    pub objects: usize,
    /// Offered reads per second over all reading connections; `None`
    /// runs the reads closed-loop.
    pub read_rate: Option<f64>,
    /// Offered writes per second (`write_mix` only).
    pub write_rate: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Params {
    /// The benchmark's fixed sizes and rates. The read rates are 27%
    /// (`point_read`) and 37% (`write_mix`) of the capacity `--capacity`
    /// measured on the commit that introduced the benchmark; at half of
    /// it the latencies did not hold still (see README.md). `small` is
    /// the self-test scale.
    pub fn new(workload: Workload, small: bool) -> Params {
        let (objects, read_rate, write_rate) = match (workload, small) {
            // 150 objects: 3 companies, 90 employees.
            (Workload::WideRead, false) => (150, None, 0.0),
            (Workload::WideRead, true) => (100, None, 0.0),
            (Workload::PointRead, false) => (50_000, Some(30.0), 0.0),
            (Workload::PointRead, true) => (1_000, Some(400.0), 0.0),
            (Workload::WriteMix, false) => (10_000, Some(80.0), 3.0),
            (Workload::WriteMix, true) => (1_000, Some(300.0), 60.0),
        };
        Params {
            workload,
            objects,
            read_rate,
            write_rate,
            // A 50k-object set-up takes seconds and a 10k one a quarter
            // second; the in-memory 150-object one takes ~20 ms, most of
            // it two warm-up joins, and its median needs more samples.
            setups: match objects {
                50_000.. => 3,
                1_000.. => 7,
                _ => 15,
            },
        }
    }

    pub fn durable(&self) -> bool {
        self.workload == Workload::WriteMix
    }

    pub fn figure1(&self, seed: u64) -> Figure1Params {
        Figure1Params {
            seed,
            ..Figure1Params::with_total_objects(self.objects)
        }
    }
}

/// One employee as the request generator and the oracle see it.
#[derive(Debug, Clone)]
pub struct Emp {
    /// OID symbol, e.g. `emp3_1_4` (how responses render it).
    pub sym: String,
    /// `Name` attribute (raw string).
    pub name: String,
    pub salary: i64,
    /// Rendered `Residence.City`.
    pub city: String,
}

/// Every employee of a generated database, in symbol order.
pub struct Population {
    pub emps: Vec<Emp>,
    by_name: HashMap<String, Vec<usize>>,
    by_salary: HashMap<i64, Vec<usize>>,
}

fn sym(db: &Database, name: &str) -> Oid {
    db.oids()
        .find_sym(name)
        .unwrap_or_else(|| panic!("fixture lacks symbol `{name}`"))
}

fn scalar(db: &Database, recv: Oid, method: Oid) -> Option<Oid> {
    match db.value(recv, method, &[]) {
        Ok(Some(Val::Scalar(o))) => Some(o),
        _ => None,
    }
}

impl Population {
    pub fn of(db: &Database) -> Population {
        let (name_m, salary_m, res_m, city_m) = (
            sym(db, "Name"),
            sym(db, "Salary"),
            sym(db, "Residence"),
            sym(db, "City"),
        );
        let mut emps: Vec<Emp> = db
            .instances_of(sym(db, "Employee"))
            .into_iter()
            .map(|e| {
                let name = match scalar(db, e, name_m).map(|o| db.oids().get(o)) {
                    Some(OidData::Str(s)) => s.to_string(),
                    other => panic!("employee without a string Name: {other:?}"),
                };
                let salary = scalar(db, e, salary_m)
                    .and_then(|o| db.oids().as_number(o))
                    .expect("employee salary") as i64;
                let city = scalar(db, e, res_m)
                    .and_then(|a| scalar(db, a, city_m))
                    .map(|c| db.oids().render(c))
                    .expect("employee residence city");
                Emp {
                    sym: db.oids().render(e),
                    name,
                    salary,
                    city,
                }
            })
            .collect();
        emps.sort_by(|a, b| a.sym.cmp(&b.sym));
        let mut p = Population {
            by_name: HashMap::new(),
            by_salary: HashMap::new(),
            emps,
        };
        for (i, e) in p.emps.iter().enumerate() {
            p.by_name.entry(e.name.clone()).or_default().push(i);
            p.by_salary.entry(e.salary).or_default().push(i);
        }
        p
    }

    /// Distinct generated salaries, sorted.
    fn salaries(&self) -> Vec<i64> {
        let mut v: Vec<i64> = self.by_salary.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// One request of a connection's stream.
#[derive(Debug, Clone)]
pub struct Req {
    pub shape: Shape,
    pub text: String,
    /// Employee the literal names (index into `Population::emps`).
    pub emp: usize,
    /// Salary literal (`salary_probe`) or value written (`update`).
    pub value: i64,
}

/// A seeded stream of point reads in equal shares: each block of four
/// holds every probe shape once, in shuffled order.
pub fn read_stream(pop: &Population, rng: &mut Rng, n: usize) -> Vec<Req> {
    let salaries = pop.salaries();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block = Shape::PROBES;
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for shape in block {
            let emp = rng.below(pop.emps.len());
            let e = &pop.emps[emp];
            let value = salaries[rng.below(salaries.len())];
            let text = match shape {
                Shape::NameProbe => {
                    format!("SELECT X FROM Employee X WHERE X.Name = '{}'", e.name)
                }
                Shape::SalaryProbe => format!("SELECT X FROM Employee X WHERE X.Salary = {value}"),
                Shape::PathProbe => format!(
                    "SELECT X, C FROM Employee X WHERE X.Name = '{}' and X.Residence.City[C]",
                    e.name
                ),
                Shape::OidPath => format!("SELECT Y WHERE {}.Residence.City[Y]", e.sym),
                _ => unreachable!("not a probe shape"),
            };
            out.push(Req {
                shape,
                text,
                emp,
                value,
            });
        }
    }
    out.truncate(n);
    out
}

/// A seeded stream of salary updates; the `i`-th writes a unique value.
pub fn write_stream(pop: &Population, rng: &mut Rng, n: usize) -> Vec<Req> {
    (0..n)
        .map(|i| {
            let emp = rng.below(pop.emps.len());
            let value = WRITE_BASE + i as i64;
            Req {
                shape: Shape::Update,
                text: format!(
                    "UPDATE CLASS Employee SET {}.Salary = {value}",
                    pop.emps[emp].sym
                ),
                emp,
                value,
            }
        })
        .collect()
}

/// A running serving stack plus its client connections.
pub struct Stack {
    pub svc: Arc<Service>,
    server: Server,
    pub clients: Vec<Client>,
    pub dir: Option<PathBuf>,
    /// Epoch each connection's warm-up read saw.
    pub warm_epoch: Vec<u64>,
}

/// Durations of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub datagen: f64,
    pub storage: f64,
    pub service: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datagen + self.storage + self.service
    }
}

/// Builds the data, the store (durable workloads), the service and the
/// TCP server, connects two clients and sends each one warm-up request,
/// so lazy per-connection state exists before the window opens.
pub fn setup(p: &Params, seed: u64, dir: Option<PathBuf>) -> Result<(Stack, SetupTimes), String> {
    let t = Instant::now();
    let db = figure1_scaled(&p.figure1(seed));
    let datagen = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let session = match &dir {
        Some(d) => Session::open_dir(Box::new(RealFs), d, db, BASE_TAG, EvalOptions::default())
            .map_err(|e| format!("create store: {e}"))?,
        None => Session::new(db),
    };
    let storage = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let svc = Arc::new(Service::start(session, ServiceConfig::default()));
    let server = Server::start(
        Backend::Primary(Arc::clone(&svc)),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("listen: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut clients = Vec::new();
    let mut warm_epoch = Vec::new();
    for _ in 0..2 {
        let mut c = Client::connect(&addr, "").map_err(|e| format!("connect: {e}"))?;
        let r = match p.workload {
            Workload::WideRead => c
                .prepare(PREPARED, JOIN2)
                .and_then(|_| c.execute_prepared(PREPARED, &[])),
            _ => c.execute(WARM_READ),
        }
        .map_err(|e| format!("warm-up read: {e}"))?;
        warm_epoch.push(r.epoch);
        clients.push(c);
    }
    let service = t.elapsed().as_secs_f64();
    Ok((
        Stack {
            svc,
            server,
            clients,
            dir,
            warm_epoch,
        },
        SetupTimes {
            datagen,
            storage,
            service,
        },
    ))
}

impl Stack {
    /// Closes the connections, stops the server and the service, and
    /// returns the last published snapshot.
    pub fn shutdown(self) -> Arc<Database> {
        for c in self.clients {
            c.goodbye();
        }
        self.server.shutdown();
        let last = self.svc.epoch().db;
        if let Ok(svc) = Arc::try_unwrap(self.svc) {
            let _ = svc.shutdown();
        }
        last
    }
}

/// What one request returned.
#[derive(Debug, Clone)]
pub enum Reply {
    Failed(String),
    /// A result set: its epoch, row count and digest; `rows` is kept
    /// only for point reads, which are checked row by row.
    Rows {
        epoch: u64,
        count: usize,
        digest: u64,
        rows: Option<Vec<Vec<String>>>,
    },
    Written {
        epoch: u64,
    },
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Done {
    pub conn: usize,
    pub req: Option<Req>,
    pub timing: Timing,
    pub reply: Reply,
}

/// Snapshot retained for a traced replay: (connection, index) → db.
pub type Retained = Vec<((usize, usize), Arc<Database>)>;

/// The measured window's raw output.
pub struct Window {
    pub done: Vec<Done>,
    /// Start of the window to the last completion, in seconds.
    pub span_s: f64,
    /// Start of the window to each connection's last completion.
    pub conn_span_s: Vec<f64>,
    pub retained: Retained,
    pub streams: Vec<Vec<Req>>,
    /// When the window's clock started; `Timing::sent`/`done` count
    /// from here.
    pub origin: Instant,
}

impl Window {
    /// Completed reads per second. A closed loop's connections are
    /// each charged only the time they spent waiting on the server, so
    /// what the load thread does with an answer (`Timing::finish_us`)
    /// does not count against the program.
    pub fn reads_per_s(&self, closed: bool) -> f64 {
        let reads = |conn: Option<usize>| {
            self.done
                .iter()
                .filter(|d| conn.is_none_or(|c| d.conn == c))
                .filter(|d| matches!(d.reply, Reply::Rows { .. }))
                .count() as f64
        };
        if !closed {
            return reads(None) / self.span_s;
        }
        self.conn_span_s
            .iter()
            .enumerate()
            .map(|(conn, span)| {
                let finish: f64 = self
                    .done
                    .iter()
                    .filter(|d| d.conn == conn)
                    .map(|d| d.timing.finish_us / 1e6)
                    .sum();
                match reads(Some(conn)) {
                    0.0 => 0.0,
                    n => n / (span - finish),
                }
            })
            .sum()
    }
}

/// Request streams are generated up front; a closed loop gets this many
/// per second of window, more than any workload here completes.
const CLOSED_STREAM_RATE: f64 = 5_000.0;

/// Runs the measured window on the stack's two connections. Each load
/// thread takes a request's end stamp as soon as the answer is decoded;
/// digesting the rows and retaining snapshots for a traced replay run
/// after the stamp.
pub fn run_window(
    p: &Params,
    stack: &mut Stack,
    pop: &Population,
    seed: u64,
    seconds: f64,
    retain_every: Option<usize>,
) -> Window {
    let mut rng = Rng::new(seed ^ 0xa5a5);
    let n_req = |rate: f64| (rate * seconds).ceil() as usize + 1;
    let read_rate = p.read_rate.unwrap_or(CLOSED_STREAM_RATE);
    // Connection streams: wide_read needs none (one prepared read).
    let streams: Vec<Vec<Req>> = match p.workload {
        Workload::WideRead => vec![Vec::new(), Vec::new()],
        Workload::PointRead => {
            let per = n_req(read_rate / 2.0);
            (0..2).map(|_| read_stream(pop, &mut rng, per)).collect()
        }
        Workload::WriteMix => {
            let w = write_stream(pop, &mut rng, n_req(p.write_rate));
            vec![w, read_stream(pop, &mut rng, n_req(read_rate))]
        }
    };
    let origin = Instant::now();
    let clock = WallClock(origin);
    let start = Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let svc = &stack.svc;
    let results: Vec<(Vec<Done>, Retained, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(&streams)
            .enumerate()
            .map(|(conn, (client, stream))| {
                let clock = &clock;
                s.spawn(move || {
                    let send = |i: usize| -> Result<net::Response, String> {
                        match (p.workload, stream.get(i)) {
                            (Workload::WideRead, _) => client.execute_prepared(PREPARED, &[]),
                            (_, Some(req)) => client.execute(&req.text),
                            (_, None) => return Err("request stream exhausted".into()),
                        }
                        .map_err(|e| e.to_string())
                    };
                    let mut retained: Retained = Vec::new();
                    let mut distinct = 0usize;
                    let finish = |i: usize, r: Result<net::Response, String>| -> Reply {
                        let req = stream.get(i);
                        match r {
                            Err(e) => Reply::Failed(e),
                            Ok(resp) if req.is_some_and(|r| r.shape == Shape::Update) => {
                                Reply::Written { epoch: resp.epoch }
                            }
                            Ok(resp) => {
                                // Every k-th read starts retaining its snapshot,
                                // and the reads after it at the same epoch
                                // share it: at most 10 snapshots in memory.
                                if let Some(k) = retain_every {
                                    let ep = svc.epoch();
                                    let same = retained
                                        .last()
                                        .is_some_and(|(_, db)| Arc::ptr_eq(db, &ep.db));
                                    let start = i.is_multiple_of(k) && distinct < 10;
                                    if ep.seq == resp.epoch && (same || start) {
                                        distinct += usize::from(!same);
                                        retained.push(((conn, i), ep.db));
                                    }
                                }
                                let point = p.workload != Workload::WideRead;
                                Reply::Rows {
                                    epoch: resp.epoch,
                                    count: resp.rows.len(),
                                    digest: stats::rows_digest(&resp.rows),
                                    rows: point.then_some(resp.rows),
                                }
                            }
                        }
                    };
                    let rate = match (p.workload, conn) {
                        (Workload::WriteMix, 0) => Some(p.write_rate),
                        (Workload::WriteMix, _) => p.read_rate,
                        _ => p.read_rate.map(|r| r / 2.0),
                    };
                    let out = match rate {
                        Some(rate) => loadgen::open_loop(clock, rate, start, end, send, finish),
                        None => loadgen::closed_loop(clock, start, end, send, finish),
                    };
                    let last = out.last().map_or(start, |(t, _)| t.done);
                    let done = out
                        .into_iter()
                        .map(|(timing, reply)| Done {
                            conn,
                            req: stream.get(timing.idx).cloned(),
                            timing,
                            reply,
                        })
                        .collect();
                    (done, retained, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut done = Vec::new();
    let mut retained = Vec::new();
    let mut conn_span_s = Vec::new();
    for (d, r, last) in results {
        done.extend(d);
        retained.extend(r);
        conn_span_s.push(last.saturating_sub(start).as_secs_f64());
    }
    Window {
        done,
        span_s: conn_span_s.iter().copied().fold(0.0, f64::max),
        conn_span_s,
        retained,
        streams,
        origin,
    }
}

/// One correctness check: how many items it covered and how many failed.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub checked: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
}

impl Check {
    fn new(name: &str) -> Check {
        Check {
            name: name.to_string(),
            checked: 0,
            failed: 0,
            first_failure: None,
        }
    }

    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }
}

fn sorted(mut rows: Vec<Vec<String>>) -> Vec<Vec<String>> {
    rows.sort();
    rows
}

/// Rows a relation renders to.
pub fn rendered(db: &Database, rel: &relalg::Relation) -> Vec<Vec<String>> {
    rel.iter()
        .map(|t| t.iter().map(|o| db.oids().render(*o)).collect())
        .collect()
}

/// The state oracle: the expected rows of a probe, read straight from
/// the generated population rather than through the query engine.
/// `moved(emp)` says whether a write visible to the read changed that
/// employee's salary (written salaries never equal a probed one).
fn expected(pop: &Population, req: &Req, moved: impl Fn(usize) -> bool) -> Vec<Vec<String>> {
    let e = &pop.emps[req.emp];
    let named = || pop.by_name.get(&e.name).cloned().unwrap_or_default();
    sorted(match req.shape {
        Shape::NameProbe => named()
            .into_iter()
            .map(|i| vec![pop.emps[i].sym.clone()])
            .collect(),
        Shape::PathProbe => named()
            .into_iter()
            .map(|i| vec![pop.emps[i].sym.clone(), pop.emps[i].city.clone()])
            .collect(),
        Shape::OidPath => vec![vec![e.city.clone()]],
        Shape::SalaryProbe => pop
            .by_salary
            .get(&req.value)
            .into_iter()
            .flatten()
            .filter(|&&i| !moved(i))
            .map(|&i| vec![pop.emps[i].sym.clone()])
            .collect(),
        Shape::Join2 | Shape::Update => unreachable!("not a probe"),
    })
}

/// Checks every read of the window. `base` is a fresh copy of the
/// generated database (the state before any write).
pub fn check_reads(p: &Params, w: &Window, base: Database, pop: &Population) -> Vec<Check> {
    let mut checks = Vec::new();
    if p.workload == Workload::WideRead {
        let mut s = Session::new(base);
        let rel = s.query(JOIN2).expect("oracle join");
        let want = rendered(s.db(), &rel);
        let (count, digest) = (want.len(), stats::rows_digest(&want));
        let mut c = Check::new("wide_read.rows_and_digest_vs_session_query");
        for d in &w.done {
            if let Reply::Rows {
                count: n,
                digest: g,
                ..
            } = &d.reply
            {
                c.record(*n == count && *g == digest, || {
                    format!("read {}: {n} rows, want {count}", d.timing.idx)
                });
            }
        }
        checks.push(c);
        return checks;
    }
    // First acked epoch at which each employee's salary moved.
    let mut moved_at: HashMap<usize, u64> = HashMap::new();
    let mut ambiguous = false;
    for d in &w.done {
        match (&d.reply, &d.req) {
            (Reply::Written { epoch }, Some(r)) => {
                let e = moved_at.entry(r.emp).or_insert(*epoch);
                *e = (*e).min(*epoch);
            }
            (Reply::Failed(_), Some(r)) if r.shape == Shape::Update => ambiguous = true,
            _ => {}
        }
    }
    // The state oracle itself is spot-checked against the engine: the
    // first two requests of each shape, on the unwritten state.
    let mut spot = Check::new("oracle.state_vs_session_query");
    let mut s = Session::new(base);
    for shape in Shape::PROBES {
        for req in w
            .streams
            .iter()
            .flatten()
            .filter(|r| r.shape == shape)
            .take(2)
        {
            let got = s.query(&req.text).map(|rel| sorted(rendered(s.db(), &rel)));
            let want = expected(pop, req, |_| false);
            spot.record(got.as_ref() == Ok(&want), || {
                format!("{}: {got:?} vs {want:?}", req.text)
            });
        }
    }
    checks.push(spot);
    let mut c = Check::new(&format!("{}.rows_vs_state_oracle", p.workload.name()));
    let mut skipped = 0;
    for d in &w.done {
        let (
            Reply::Rows {
                epoch,
                rows: Some(rows),
                ..
            },
            Some(req),
        ) = (&d.reply, &d.req)
        else {
            continue;
        };
        if req.shape == Shape::SalaryProbe && ambiguous {
            skipped += 1;
            continue;
        }
        let want = expected(pop, req, |i| moved_at.get(&i).is_some_and(|&m| m <= *epoch));
        c.record(sorted(rows.clone()) == want, || {
            format!("{} at epoch {epoch}: got {rows:?}, want {want:?}", req.text)
        });
    }
    if skipped > 0 {
        c.name.push_str(&format!(
            " ({skipped} salary reads skipped: a write failed)"
        ));
    }
    checks.push(c);
    checks
}

/// Order-insensitive digest of a database's whole explicit state.
pub fn fingerprint(db: &Database) -> (usize, u64) {
    let o = db.oids();
    let mut n = 0;
    let mut acc = 0u64;
    for (recv, m, args, v) in db.state_entries() {
        let mut row = vec![o.render(recv), o.render(m)];
        row.extend(args.iter().map(|a| o.render(*a)));
        match v {
            Val::Scalar(x) => row.push(o.render(*x)),
            Val::Set(xs) => {
                let mut vs: Vec<String> = xs.iter().map(|x| o.render(*x)).collect();
                vs.sort();
                row.push(vs.join(","));
            }
        }
        acc = acc.wrapping_add(stats::rows_digest(&[row]));
        n += 1;
    }
    (n, acc)
}

/// `write_mix` after the window: reopen the store (timed as
/// `recovery_s`), check every acknowledged write's last value and the
/// recovered state's fingerprint, then catch a fresh replica up
/// (timed as `replica_catchup_s`) and compare its fingerprint.
pub fn check_durability(
    p: &Params,
    w: &Window,
    dir: &Path,
    primary: &Database,
    seed: u64,
    pop: &Population,
) -> Result<(Vec<Check>, f64, f64, usize), String> {
    let want = fingerprint(primary);
    let salary_m = sym(primary, "Salary");
    let mut last: HashMap<usize, i64> = HashMap::new();
    for d in &w.done {
        if let (Reply::Written { .. }, Some(r)) = (&d.reply, &d.req) {
            last.insert(r.emp, r.value);
        }
    }
    let base = figure1_scaled(&p.figure1(seed));
    let replica_base = base.clone();
    let t = Instant::now();
    let recovered = Session::open_dir(
        Box::new(RealFs),
        dir,
        base,
        BASE_TAG,
        EvalOptions::default(),
    )
    .map_err(|e| format!("reopen store: {e}"))?;
    let recovery_s = t.elapsed().as_secs_f64();
    let units = recovered.recovery_info().map_or(0, |r| r.wal_units);
    let db = recovered.db();
    let mut acked = Check::new("write_mix.acked_writes_after_recovery");
    let mut emps: Vec<_> = last.iter().collect();
    emps.sort();
    for (&emp, &value) in emps {
        let o = db
            .oids()
            .find_sym(&pop.emps[emp].sym)
            .expect("employee symbol");
        let got = scalar(db, o, salary_m).and_then(|v| db.oids().as_number(v));
        acked.record(got == Some(value as f64), || {
            format!("{}.Salary = {got:?}, last acked {value}", pop.emps[emp].sym)
        });
    }
    let mut fp = Check::new("write_mix.recovered_fingerprint_vs_primary");
    let got = fingerprint(db);
    fp.record(got == want, || format!("{got:?} vs {want:?}"));
    drop(recovered);

    let mut core = net::replica::ReplicaCore::new(
        Box::new(net::ship::DirSource::new(Box::new(RealFs), dir)),
        replica_base,
        net::replica::ReplicaConfig {
            base_tag: BASE_TAG.to_string(),
            opts: EvalOptions::default(),
        },
    );
    let shared = core.shared();
    let t = Instant::now();
    loop {
        let step = core.step().map_err(|e| format!("replica step: {e}"))?;
        if step.applied == 0 && shared.applied_seq() > 0 && shared.lag() == 0 {
            break;
        }
        if t.elapsed() > Duration::from_secs(60) {
            return Err("replica did not catch up within 60 s".into());
        }
    }
    let catchup_s = t.elapsed().as_secs_f64();
    let mut rfp = Check::new("write_mix.replica_fingerprint_vs_primary");
    let got = fingerprint(&shared.epoch().db);
    rfp.record(got == want, || format!("{got:?} vs {want:?}"));
    Ok((vec![acked, fp, rfp], recovery_s, catchup_s, units))
}

/// Share of reads whose exact text recurs within the connection's last
/// 64 texts at the same epoch (what a 64-entry plan cache could hit).
pub fn repeat_text_frac(w: &Window, wide: bool) -> f64 {
    if wide {
        return 1.0;
    }
    let (mut reads, mut repeats) = (0usize, 0usize);
    for conn in 0..2 {
        let mut recent: VecDeque<(&str, u64)> = VecDeque::new();
        for d in w.done.iter().filter(|d| d.conn == conn) {
            let (Reply::Rows { epoch, .. }, Some(req)) = (&d.reply, &d.req) else {
                continue;
            };
            reads += 1;
            if recent.iter().any(|&(t, e)| t == req.text && e == *epoch) {
                repeats += 1;
            }
            recent.push_back((&req.text, *epoch));
            if recent.len() > 64 {
                recent.pop_front();
            }
        }
    }
    repeats as f64 / reads.max(1) as f64
}

/// Share of reads that saw a different epoch than the connection's
/// previous read.
pub fn new_epoch_frac(w: &Window, warm: &[u64]) -> f64 {
    let (mut reads, mut fresh) = (0usize, 0usize);
    for (conn, &warm) in warm.iter().enumerate() {
        let mut prev = warm;
        for d in w.done.iter().filter(|d| d.conn == conn) {
            if let Reply::Rows { epoch, .. } = d.reply {
                reads += 1;
                fresh += usize::from(epoch != prev);
                prev = epoch;
            }
        }
    }
    fresh as f64 / reads.max(1) as f64
}
