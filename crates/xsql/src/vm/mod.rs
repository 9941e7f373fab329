//! Bytecode VM: compiled query programs, prepared statements, and the
//! schema-epoch plan cache.
//!
//! The statement pipeline (`parse → resolve → execute`) re-does its
//! front half on every invocation of the same query text. This module
//! compiles a *resolved* statement once into a [`Program`] — a compact
//! register-bytecode form when the statement fits the planner fragment
//! of [`crate::plan`], a stored-AST fallback otherwise — and executes
//! it through a dispatch loop ([`exec`]). That loop is the only
//! executor of the join fragment: the planner lowers the queries it
//! takes to the same bytecode and runs them there too, so result rows
//! are bit-identical to the naive and pipelined engines whichever way a
//! query arrives.
//!
//! Three consumers sit on top:
//!
//! * **`PREPARE name AS <stmt>` / `EXECUTE name (?1, …)`** — explicit
//!   prepared statements with typed positional parameters
//!   ([`crate::ast::IdTerm::Param`]). The body is resolved and compiled
//!   at PREPARE; EXECUTE substitutes bound argument OIDs into a clone
//!   of the template ([`Program::bind`]) and runs it, paying zero
//!   parse/resolve cost. Prepared statements are **session-local** and
//!   never WAL-logged: after a crash the client must re-PREPARE (an
//!   EXECUTE against a name prepared before the crash fails cleanly
//!   with *unknown prepared statement*).
//! * **The transparent plan cache** — [`Session::run`] keys compiled
//!   programs on the source text of the statement's tokens
//!   ([`normalize_src`]) and reuses them on repeats, with LRU eviction
//!   at [`PlanCache::CAPACITY`] entries.
//! * **The schema-epoch fence** — every [`Program`] records the
//!   [`oodb::Database::schema_epoch`] it was compiled under. Any
//!   definitional statement (class/signature/method/view definition,
//!   and conservatively any rollback that undid work) bumps the epoch,
//!   so cache lookup and EXECUTE both treat an epoch mismatch as an
//!   invalidation and recompile; a stale plan is structurally unable to
//!   execute. A defensive counter
//!   (`xsql_plan_cache_stale_executions_total`) counts the should-be-
//!   impossible case and is asserted zero by the chaos harness.
//!
//! See `docs/VM.md` for the bytecode format and opcode table.
//!
//! [`Session::run`]: crate::Session::run

pub mod exec;
pub(crate) mod lower;

use crate::ast::*;
use crate::error::{XsqlError, XsqlResult};
use crate::eval::EvalOptions;
use oodb::{Database, Oid};
use std::collections::HashMap;

/// One instruction of a compiled SELECT program.
///
/// The register file of the executing VM holds one *candidate-list
/// register* per FROM variable (`v<i>`), one *column register* per join
/// edge (`c<i>`), and a single flat tuple store that join opcodes
/// extend one variable at a time. Operands are indices into the
/// program's variable / filter / edge pools ([`CompiledSelect`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Load register `v[var]` with the filtered candidate list of the
    /// variable: class extent, narrowed through the attribute index
    /// when the filter's [`ProbeSpec`] applies, every survivor
    /// re-verified with the evaluator's own `holds`.
    InitVar {
        /// Variable pool index.
        var: u16,
    },
    /// Cache register `c[edge]` with the per-candidate element columns
    /// of both sides of the join edge.
    BuildColumns {
        /// Edge pool index.
        edge: u16,
    },
    /// Seed the tuple store from register `v[var]` (the driver scan).
    Scan {
        /// Variable pool index.
        var: u16,
    },
    /// Hash-join variable `v[var]` into the tuple store on edge
    /// `c[hash]`; the other `edges` are residual pair filters.
    HashJoin {
        /// Variable pool index of the new variable.
        var: u16,
        /// Edge pool index of the equality edge the hash table is
        /// built over.
        hash: u16,
        /// All edges between the new variable and the joined set
        /// (including `hash`).
        edges: Vec<u16>,
    },
    /// Nested theta-join variable `v[var]` into the tuple store,
    /// evaluating every listed edge per candidate pair.
    ThetaJoin {
        /// Variable pool index of the new variable.
        var: u16,
        /// All edges between the new variable and the joined set.
        edges: Vec<u16>,
    },
    /// Cross-product variable `v[var]` into the tuple store (no
    /// connecting edge).
    CrossJoin {
        /// Variable pool index of the new variable.
        var: u16,
    },
    /// Materialize the SELECT items of every tuple into result rows.
    Emit,
    /// End of program.
    Halt,
}

/// One FROM variable of a compiled SELECT (a candidate-list register).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmVar {
    /// Variable name (owned; the source query may be dropped).
    pub name: String,
    /// The class whose extent seeds the candidate set.
    pub class: Oid,
}

/// Where a probe key comes from at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KonstSrc {
    /// A constant interned at compile time.
    Oid(Oid),
    /// The OID bound to positional parameter `?n` at EXECUTE.
    Param(u32),
}

/// A deferred attribute-index probe: `attr op konst`, materialized into
/// a typed key probe ([`crate::plan::Probe`]) when the program runs.
/// Deferral keeps the probe sound across executions: index availability
/// (`attr_index_complete`) is re-checked at run time, and a parameter
/// key only exists at bind time. A probe that does not apply degrades
/// to the plain filtered extent scan — rows are identical either way,
/// because every probe survivor is re-verified with `holds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSpec {
    /// The stored attribute (0-ary method) the ordered index is over.
    pub method: Oid,
    /// Comparison, oriented as `attr op konst`.
    pub op: CmpOp,
    /// The key (constant or parameter position).
    pub konst: KonstSrc,
}

/// A single-variable conjunct of a compiled SELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmFilter {
    /// Variable pool index the filter constrains.
    pub var: u16,
    /// Index of the conjunct in the flattened WHERE clause (the
    /// executor re-flattens the bound statement; `flatten_and` order is
    /// deterministic).
    pub conj: u16,
    /// Attribute-index narrowing, when the conjunct has probe shape.
    pub probe: Option<ProbeSpec>,
}

/// A two-variable conjunct (join edge) of a compiled SELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmEdge {
    /// Variable pool index owning the left / head side.
    pub a: u16,
    /// Variable pool index owning the right / selector side.
    pub b: u16,
    /// Index of the conjunct in the flattened WHERE clause.
    pub conj: u16,
}

/// The compiled form of a planner-fragment SELECT: the pools the
/// opcodes index into, the instruction stream, and the emission
/// template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSelect {
    /// FROM variables, in FROM order.
    pub vars: Vec<VmVar>,
    /// Single-variable conjuncts.
    pub filters: Vec<VmFilter>,
    /// Two-variable conjuncts.
    pub edges: Vec<VmEdge>,
    /// The instruction stream: `InitVar*`, `BuildColumns*`, one join
    /// opcode per step of the cost-chosen order, `Emit`, `Halt`.
    pub ops: Vec<Op>,
    /// Output column names.
    pub columns: Vec<String>,
    /// When every SELECT item is a bare FROM variable: the variable
    /// pool indices per output column (direct row construction, no
    /// binding stack).
    pub atom_tpl: Option<Vec<u16>>,
}

/// How a [`Program`] executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Register bytecode for a planner-fragment SELECT, run by the
    /// dispatch loop of [`exec`].
    Select(CompiledSelect),
    /// Everything else: the stored resolved statement re-enters the
    /// stock execution path (`execute_resolved`). Still zero
    /// parse/resolve cost on reuse.
    Fallback,
}

/// Value family a typed parameter must belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamFamily {
    /// A numeral object (integer or real).
    Numeral,
    /// A string object.
    Str,
}

impl std::fmt::Display for ParamFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ParamFamily::Numeral => "Numeral",
            ParamFamily::Str => "String",
        })
    }
}

/// A bind-time type check recorded at compile time from a conjunct of
/// shape `V.Attr op ?n`, when every 0-ary signature of `Attr` results
/// in the named family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamCheck {
    /// Parameter position (1-based).
    pub param: u32,
    /// Attribute the parameter is compared against (for the error).
    pub attr: String,
    /// Required family.
    pub family: ParamFamily,
}

/// A compiled statement: the resolved template (parameter placeholders
/// intact), its execution body, and the schema epoch it is valid for.
#[derive(Debug, Clone)]
pub struct Program {
    /// The resolved statement template. Parameters remain as
    /// [`IdTerm::Param`] until [`Program::bind`].
    pub stmt: Stmt,
    /// Number of positional parameters (the highest `?n`).
    pub n_params: u32,
    /// [`oodb::Database::schema_epoch`] at compile time. The program
    /// must not execute under any other epoch: resolved OIDs and the
    /// compiled shape may reference definitions that no longer hold.
    pub epoch: u64,
    /// Execution body.
    pub body: Body,
    /// Bind-time parameter type checks.
    pub param_checks: Vec<ParamCheck>,
}

impl Program {
    /// Compiles a resolved statement under the given database and
    /// options. Statements inside the planner fragment lower to
    /// bytecode; everything else gets the [`Body::Fallback`] body.
    pub fn compile(db: &Database, opts: &EvalOptions, stmt: Stmt, n_params: u32) -> Program {
        lower::compile(db, opts, stmt, n_params)
    }

    /// Substitutes bound argument OIDs for the parameter placeholders,
    /// returning the executable statement. Checks arity and the
    /// recorded per-parameter family constraints; errors are typed and
    /// name the offending parameter.
    pub fn bind(&self, args: &[Oid], db: &Database) -> XsqlResult<Stmt> {
        if args.len() != self.n_params as usize {
            return Err(XsqlError::Resolve(format!(
                "EXECUTE: statement takes {} parameter(s), got {}",
                self.n_params,
                args.len()
            )));
        }
        for check in &self.param_checks {
            let o = args[(check.param - 1) as usize];
            let ok = match check.family {
                ParamFamily::Numeral => db.oids().as_number(o).is_some(),
                ParamFamily::Str => matches!(db.oids().get(o), oodb::OidData::Str(_)),
            };
            if !ok {
                return Err(XsqlError::Resolve(format!(
                    "EXECUTE: parameter ?{} is compared against `{}`, which is {}-valued, \
                     but the bound argument `{}` is not a {}",
                    check.param,
                    check.attr,
                    check.family,
                    db.render(o),
                    check.family
                )));
            }
        }
        let mut bound = self.stmt.clone();
        subst_stmt(&mut bound, args);
        Ok(bound)
    }

    /// Renders the instruction stream, one line per opcode (program
    /// disassembly — used by the profile hook and by tests).
    pub fn disassemble(&self) -> Vec<String> {
        let Body::Select(cs) = &self.body else {
            return vec!["fallback: stored resolved statement".to_string()];
        };
        let edge_list = |edges: &[u16]| {
            edges
                .iter()
                .map(|e| format!("c{e}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        cs.ops
            .iter()
            .map(|op| match op {
                Op::InitVar { var } => {
                    let v = &cs.vars[*var as usize];
                    let nf = cs.filters.iter().filter(|f| f.var == *var).count();
                    let np = cs
                        .filters
                        .iter()
                        .filter(|f| f.var == *var && f.probe.is_some())
                        .count();
                    format!(
                        "v{var} = init {} ({} filter(s), {} probe(s))",
                        v.name, nf, np
                    )
                }
                Op::BuildColumns { edge } => {
                    let e = &cs.edges[*edge as usize];
                    format!(
                        "c{edge} = columns {}~{}",
                        cs.vars[e.a as usize].name, cs.vars[e.b as usize].name
                    )
                }
                Op::Scan { var } => format!("scan v{var}"),
                Op::HashJoin { var, hash, edges } => {
                    format!("hashjoin v{var} on c{hash} [{}]", edge_list(edges))
                }
                Op::ThetaJoin { var, edges } => {
                    format!("thetajoin v{var} [{}]", edge_list(edges))
                }
                Op::CrossJoin { var } => format!("crossjoin v{var}"),
                Op::Emit => format!("emit {} column(s)", cs.columns.len()),
                Op::Halt => "halt".to_string(),
            })
            .collect()
    }
}

/// The highest parameter position `?n` occurring anywhere in the
/// statement (0 when parameter-free). Doubles as the arity: parameters
/// are positional `?1…?n`.
pub fn max_param(stmt: &Stmt) -> u32 {
    let mut max = 0;
    walk_stmt(stmt, &mut |t| {
        if let IdTerm::Param(n) = t {
            max = max.max(*n);
        }
    });
    max
}

/// True when `Session::run` may cache a compiled program for this
/// statement: plain SELECTs (no object creation — `OID FUNCTION OF`
/// mints fresh OIDs per run) and relational-algebra trees of such,
/// without parameter placeholders.
pub fn cacheable(stmt: &Stmt) -> bool {
    fn sel_ok(stmt: &Stmt) -> bool {
        match stmt {
            Stmt::Select(q) => q.oid_fn.is_none(),
            Stmt::RelOp { left, right, .. } => sel_ok(left) && sel_ok(right),
            _ => false,
        }
    }
    sel_ok(stmt) && max_param(stmt) == 0
}

/// The plan-cache key: the source text of each lexed token, joined by
/// single spaces. Whitespace and comments between tokens drop out, so
/// reformatting does not defeat the cache; string literals and case are
/// kept verbatim, so two texts share a key only when they lex to the
/// same tokens. Fails with the located lex error `parse` would report.
pub fn normalize_src(src: &str) -> XsqlResult<String> {
    let toks = crate::lex(src).map_err(|e| e.with_location(src))?;
    let texts: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind != crate::token::TokenKind::Eof)
        .map(|t| &src[t.offset..t.end])
        .collect();
    Ok(texts.join(" "))
}

// ---------------------------------------------------------------------
// AST walkers: parameter discovery and substitution
// ---------------------------------------------------------------------

fn walk_stmt(stmt: &Stmt, f: &mut dyn FnMut(&IdTerm)) {
    match stmt {
        Stmt::Select(q) => walk_query(q, f),
        Stmt::RelOp { left, right, .. } => {
            walk_stmt(left, f);
            walk_stmt(right, f);
        }
        Stmt::CreateView(v) => walk_query(&v.query, f),
        Stmt::AlterClass(a) => walk_query(&a.query, f),
        Stmt::Update(u) => walk_update(u, f),
        Stmt::CreateObject(o) => {
            for (_, op) in &o.sets {
                walk_operand(op, f);
            }
        }
        Stmt::Explain { stmt, .. } => walk_stmt(stmt, f),
        Stmt::Prepare { stmt, .. } => walk_stmt(stmt, f),
        Stmt::Execute { args, .. } => {
            for a in args {
                walk_idterm(a, f);
            }
        }
        Stmt::AddSignature { .. }
        | Stmt::CreateClass(_)
        | Stmt::Stats
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Rollback
        | Stmt::WalOn
        | Stmt::WalOff
        | Stmt::Checkpoint => {}
    }
}

fn walk_query(q: &SelectQuery, f: &mut dyn FnMut(&IdTerm)) {
    for item in &q.select {
        match item {
            SelectItem::Expr(op) => walk_operand(op, f),
            SelectItem::Named { value, .. } => match value {
                SelectValue::Expr(op) => walk_operand(op, f),
                SelectValue::Grouped(_) => {}
            },
            SelectItem::MethodResult { args, value, .. } => {
                for a in args {
                    walk_idterm(a, f);
                }
                walk_operand(value, f);
            }
        }
    }
    for fi in &q.from {
        walk_idterm(&fi.class, f);
    }
    walk_cond(&q.where_clause, f);
}

fn walk_cond(c: &Cond, f: &mut dyn FnMut(&IdTerm)) {
    match c {
        Cond::True => {}
        Cond::Path(p) => walk_path(p, f),
        Cond::Cmp { left, right, .. } => {
            walk_operand(left, f);
            walk_operand(right, f);
        }
        Cond::SetCmp { left, right, .. } => {
            walk_operand(left, f);
            walk_operand(right, f);
        }
        Cond::SubclassOf { sub, sup } => {
            walk_idterm(sub, f);
            walk_idterm(sup, f);
        }
        Cond::InstanceOf { obj, class } => {
            walk_idterm(obj, f);
            walk_idterm(class, f);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            walk_cond(a, f);
            walk_cond(b, f);
        }
        Cond::Not(a) => walk_cond(a, f),
        Cond::Update(u) => walk_update(u, f),
    }
}

fn walk_update(u: &UpdateStmt, f: &mut dyn FnMut(&IdTerm)) {
    for a in &u.assignments {
        walk_path(&a.target, f);
        walk_operand(&a.value, f);
    }
}

fn walk_operand(op: &Operand, f: &mut dyn FnMut(&IdTerm)) {
    match op {
        Operand::Path(p) => walk_path(p, f),
        Operand::Agg(_, p) => walk_path(p, f),
        Operand::SetLit(ts) => {
            for t in ts {
                walk_idterm(t, f);
            }
        }
        Operand::Subquery(q) => walk_query(q, f),
        Operand::Arith(a, _, b)
        | Operand::Union(a, b)
        | Operand::Intersection(a, b)
        | Operand::Difference(a, b) => {
            walk_operand(a, f);
            walk_operand(b, f);
        }
    }
}

fn walk_path(p: &PathExpr, f: &mut dyn FnMut(&IdTerm)) {
    walk_idterm(&p.head, f);
    for s in &p.steps {
        match s {
            Step::Method { args, selector, .. } => {
                for a in args {
                    walk_idterm(a, f);
                }
                if let Some(sel) = selector {
                    walk_idterm(sel, f);
                }
            }
            Step::PathVar { selector, .. } => {
                if let Some(sel) = selector {
                    walk_idterm(sel, f);
                }
            }
        }
    }
}

fn walk_idterm(t: &IdTerm, f: &mut dyn FnMut(&IdTerm)) {
    f(t);
    match t {
        IdTerm::Func(_, args) => {
            for a in args {
                walk_idterm(a, f);
            }
        }
        IdTerm::PathArg(p) => walk_path(p, f),
        _ => {}
    }
}

fn subst_stmt(stmt: &mut Stmt, args: &[Oid]) {
    match stmt {
        Stmt::Select(q) => subst_query(q, args),
        Stmt::RelOp { left, right, .. } => {
            subst_stmt(left, args);
            subst_stmt(right, args);
        }
        Stmt::CreateView(v) => subst_query(&mut v.query, args),
        Stmt::AlterClass(a) => subst_query(&mut a.query, args),
        Stmt::Update(u) => subst_update(u, args),
        Stmt::CreateObject(o) => {
            for (_, op) in &mut o.sets {
                subst_operand(op, args);
            }
        }
        Stmt::Explain { stmt, .. } => subst_stmt(stmt, args),
        Stmt::Prepare { stmt, .. } => subst_stmt(stmt, args),
        Stmt::Execute { args: eargs, .. } => {
            for a in eargs {
                subst_idterm(a, args);
            }
        }
        Stmt::AddSignature { .. }
        | Stmt::CreateClass(_)
        | Stmt::Stats
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Rollback
        | Stmt::WalOn
        | Stmt::WalOff
        | Stmt::Checkpoint => {}
    }
}

fn subst_query(q: &mut SelectQuery, args: &[Oid]) {
    for item in &mut q.select {
        match item {
            SelectItem::Expr(op) => subst_operand(op, args),
            SelectItem::Named { value, .. } => match value {
                SelectValue::Expr(op) => subst_operand(op, args),
                SelectValue::Grouped(_) => {}
            },
            SelectItem::MethodResult {
                args: margs, value, ..
            } => {
                for a in margs {
                    subst_idterm(a, args);
                }
                subst_operand(value, args);
            }
        }
    }
    for fi in &mut q.from {
        subst_idterm(&mut fi.class, args);
    }
    subst_cond(&mut q.where_clause, args);
}

fn subst_cond(c: &mut Cond, args: &[Oid]) {
    match c {
        Cond::True => {}
        Cond::Path(p) => subst_path(p, args),
        Cond::Cmp { left, right, .. } => {
            subst_operand(left, args);
            subst_operand(right, args);
        }
        Cond::SetCmp { left, right, .. } => {
            subst_operand(left, args);
            subst_operand(right, args);
        }
        Cond::SubclassOf { sub, sup } => {
            subst_idterm(sub, args);
            subst_idterm(sup, args);
        }
        Cond::InstanceOf { obj, class } => {
            subst_idterm(obj, args);
            subst_idterm(class, args);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            subst_cond(a, args);
            subst_cond(b, args);
        }
        Cond::Not(a) => subst_cond(a, args),
        Cond::Update(u) => subst_update(u, args),
    }
}

fn subst_update(u: &mut UpdateStmt, args: &[Oid]) {
    for a in &mut u.assignments {
        subst_path(&mut a.target, args);
        subst_operand(&mut a.value, args);
    }
}

fn subst_operand(op: &mut Operand, args: &[Oid]) {
    match op {
        Operand::Path(p) => subst_path(p, args),
        Operand::Agg(_, p) => subst_path(p, args),
        Operand::SetLit(ts) => {
            for t in ts {
                subst_idterm(t, args);
            }
        }
        Operand::Subquery(q) => subst_query(q, args),
        Operand::Arith(a, _, b)
        | Operand::Union(a, b)
        | Operand::Intersection(a, b)
        | Operand::Difference(a, b) => {
            subst_operand(a, args);
            subst_operand(b, args);
        }
    }
}

fn subst_path(p: &mut PathExpr, args: &[Oid]) {
    subst_idterm(&mut p.head, args);
    for s in &mut p.steps {
        match s {
            Step::Method {
                args: margs,
                selector,
                ..
            } => {
                for a in margs {
                    subst_idterm(a, args);
                }
                if let Some(sel) = selector {
                    subst_idterm(sel, args);
                }
            }
            Step::PathVar { selector, .. } => {
                if let Some(sel) = selector {
                    subst_idterm(sel, args);
                }
            }
        }
    }
}

fn subst_idterm(t: &mut IdTerm, args: &[Oid]) {
    match t {
        IdTerm::Param(n) => {
            // Arity was checked in `bind`; a placeholder beyond the
            // argument list cannot be reached from there.
            if let Some(&o) = args.get((*n - 1) as usize) {
                *t = IdTerm::Oid(o);
            }
        }
        IdTerm::Func(_, fargs) => {
            for a in fargs {
                subst_idterm(a, args);
            }
        }
        IdTerm::PathArg(p) => subst_path(p, args),
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// Cached handles for the plan-cache metrics, re-derived whenever the
/// session's registry is swapped.
#[derive(Debug)]
pub struct CacheMetrics {
    /// `xsql_plan_cache_hits_total`.
    pub hits: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_misses_total`.
    pub misses: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_evictions_total`.
    pub evictions: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_invalidations_total`.
    pub invalidations: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_stale_executions_total` — defensively counts a
    /// program reaching execution under a foreign schema epoch. The
    /// epoch fence makes this structurally unreachable; the chaos
    /// harness asserts it stays 0.
    pub stale_executions: std::sync::Arc<telemetry::Counter>,
    /// `xsql_plan_cache_size` gauge.
    pub size: std::sync::Arc<telemetry::Gauge>,
}

impl CacheMetrics {
    /// Derives the metric handles from a registry.
    pub fn new(registry: &telemetry::Registry) -> CacheMetrics {
        CacheMetrics {
            hits: registry.counter("xsql_plan_cache_hits_total", &[]),
            misses: registry.counter("xsql_plan_cache_misses_total", &[]),
            evictions: registry.counter("xsql_plan_cache_evictions_total", &[]),
            invalidations: registry.counter("xsql_plan_cache_invalidations_total", &[]),
            stale_executions: registry.counter("xsql_plan_cache_stale_executions_total", &[]),
            size: registry.gauge("xsql_plan_cache_size", &[]),
        }
    }
}

struct CacheEntry {
    prog: std::sync::Arc<Program>,
    /// LRU stamp: the cache tick of the last touch.
    stamp: u64,
}

impl std::fmt::Debug for CacheEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("epoch", &self.prog.epoch)
            .field("stamp", &self.stamp)
            .finish()
    }
}

/// The transparent, session-local plan cache: compiled programs keyed
/// on normalized statement text, fenced by schema epoch, evicted LRU.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<String, CacheEntry>,
    tick: u64,
}

impl PlanCache {
    /// Maximum number of cached programs; the least recently used entry
    /// is evicted beyond this.
    pub const CAPACITY: usize = 64;

    /// A fresh, empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key` under the current schema epoch. A hit bumps the
    /// LRU stamp and counts `hits`; an entry compiled under another
    /// epoch is dropped (counted as `invalidations` *and* the miss it
    /// becomes); a plain miss counts `misses`.
    pub fn lookup(
        &mut self,
        key: &str,
        epoch: u64,
        m: &CacheMetrics,
    ) -> Option<std::sync::Arc<Program>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) if entry.prog.epoch == epoch => {
                entry.stamp = self.tick;
                m.hits.inc();
                Some(std::sync::Arc::clone(&entry.prog))
            }
            Some(_) => {
                self.map.remove(key);
                m.invalidations.inc();
                m.misses.inc();
                m.size.set(self.map.len() as i64);
                None
            }
            None => {
                m.misses.inc();
                None
            }
        }
    }

    /// Inserts a freshly compiled program, evicting the least recently
    /// used entry when full.
    pub fn insert(&mut self, key: String, prog: std::sync::Arc<Program>, m: &CacheMetrics) {
        self.tick += 1;
        if self.map.len() >= Self::CAPACITY && !self.map.contains_key(&key) {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                m.evictions.inc();
            }
        }
        self.map.insert(
            key,
            CacheEntry {
                prog,
                stamp: self.tick,
            },
        );
        m.size.set(self.map.len() as i64);
    }

    /// Drops every cached program (used when the database is replaced
    /// wholesale, e.g. on replica catch-up resets).
    pub fn clear(&mut self, m: &CacheMetrics) {
        self.map.clear();
        m.size.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn max_param_walks_nested_positions() {
        let s = parse("SELECT X FROM Employee X WHERE X.Salary > ?2 AND X.Age < ?1").unwrap();
        assert_eq!(max_param(&s), 2);
        let s = parse("SELECT X FROM Employee X WHERE X.Name[?3]").unwrap();
        assert_eq!(max_param(&s), 3);
        let s = parse("SELECT X FROM Employee X").unwrap();
        assert_eq!(max_param(&s), 0);
    }

    #[test]
    fn normalizes_whitespace_and_comments_only() {
        let key = |src| normalize_src(src).unwrap();
        assert_eq!(
            key("SELECT   X\n  FROM Employee\tX -- all of them\n"),
            "SELECT X FROM Employee X"
        );
        // Case stays significant.
        assert_ne!(
            key("select x from Employee x"),
            key("SELECT X FROM Employee X")
        );
        // A comment swallowing the rest of its line is not a line break.
        assert_ne!(
            key("SELECT X FROM Person X -- note WHERE X.Age = 41"),
            key("SELECT X FROM Person X -- note\nWHERE X.Age = 41")
        );
        // String literals keep their spelling, inner whitespace included.
        assert_ne!(key("SELECT X WHERE 'a  b'"), key("SELECT X WHERE 'a b'"));
        assert_eq!(key("SELECT X WHERE 'a  b'"), "SELECT X WHERE 'a  b'");
        assert!(normalize_src("SELECT 'open").is_err());
    }

    #[test]
    fn cacheable_excludes_creation_and_params() {
        let ok = parse("SELECT X FROM Employee X").unwrap();
        assert!(cacheable(&ok));
        let relop = parse("SELECT X FROM Employee X UNION SELECT X FROM Employee X").unwrap();
        assert!(cacheable(&relop));
        let oid_fn = parse("SELECT Name = X.Name FROM Employee X OID FUNCTION OF X").unwrap();
        assert!(!cacheable(&oid_fn));
        let param = parse("SELECT X FROM Employee X WHERE X.Salary > ?1").unwrap();
        assert!(!cacheable(&param));
    }
}
