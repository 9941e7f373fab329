//! The dispatch loop: executes a [`CompiledSelect`]'s instruction
//! stream against a live database. It is the only executor of the join
//! fragment: the planner lowers every plan it takes to bytecode and runs
//! it here (`eval_select`, `EXPLAIN ANALYZE`, UNION operands, fallback
//! bodies), and so do cached and prepared programs.
//!
//! Everything semantic is delegated to the stock evaluator: candidates
//! come from the class extents filtered by `sort_ok` and `holds`, join
//! edges run through `compare`/`set_compare`/hash-key canonicalization
//! over cached columns, and emission goes through `emit_rows` (or a
//! bare-variable fast path). One tick is charged per candidate
//! examined, per hash probe hit, per theta pair and per emitted cell,
//! so budgets, deadlines and cancellation fire in proportion to work
//! done, and result rows are bit-identical to the naive and pipelined
//! engines. Tuple-budget charges are batched per driving tuple: same
//! totals, chunk-granular limit checks, far fewer atomic bumps on large
//! joins.
//!
//! Two properties let one compiled program serve many executions:
//!
//! * **Probes materialize at run time.** A compiled [`ProbeSpec`]
//!   becomes a typed key probe only if the attribute index is complete
//!   *now* (and the key may come from a bound parameter). A probe that
//!   does not apply degrades to the plain filtered scan — the rows are
//!   the same either way, because probes only narrow and every
//!   candidate is re-verified with `holds`.
//! * **Conjuncts are re-borrowed per execution.** Opcodes reference
//!   conjuncts by index into the flattened WHERE clause of the bound
//!   statement, so one compiled program serves every parameter binding.

use super::{CompiledSelect, KonstSrc, Op, ProbeSpec};
use crate::ast::{CmpOp, Cond, IdTerm, MethodTerm, Operand, Quant, SelectQuery, Step};
use crate::error::{XsqlError, XsqlResult};
use crate::eval::bindings::Bindings;
use crate::eval::cond::flatten_and;
use crate::eval::select::emit_rows;
use crate::eval::value::{Cell, Elem};
use crate::eval::Ctx;
use crate::plan::{probe_for, EdgeKind, Probe};
use oodb::Oid;
use std::collections::{BTreeSet, HashMap};

/// One all-`f64` theta edge for the tight loop (columns, comparator,
/// whether the new variable is the left side, other side's tuple slot).
type FastEdge<'a> = (&'a [f64], &'a [f64], CmpOp, bool, usize);

/// Hash key with exactly the equivalence of `elem_eq`: numeral elements
/// (computed numbers and numeral objects alike) collapse onto their
/// numeric value, everything else is object identity. `-0.0` is
/// normalized onto `0.0`; NaN elements are skipped by both build and
/// probe sides (`elem_eq` with NaN is always false).
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
enum CanonKey {
    Num(u64),
    Obj(Oid),
}

impl CanonKey {
    fn of(ctx: &Ctx<'_>, e: Elem) -> Option<CanonKey> {
        let num = match e {
            Elem::Num(n) => Some(n),
            Elem::Obj(o) => ctx.db.oids().as_number(o),
        };
        match (num, e) {
            (Some(n), _) if n.is_nan() => None,
            (Some(n), _) => Some(CanonKey::Num((if n == 0.0 { 0.0 } else { n }).to_bits())),
            (None, Elem::Obj(o)) => Some(CanonKey::Obj(o)),
            (None, Elem::Num(_)) => unreachable!("Elem::Num always yields a number"),
        }
    }
}

fn f64_cmp(op: CmpOp, x: f64, y: f64) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// A join edge re-borrowed from the bound statement: its endpoints'
/// variable pool indices and its operational shape.
struct Edge<'q> {
    a: usize,
    b: usize,
    kind: EdgeKind<'q>,
}

/// Cached per-candidate element columns of one edge.
struct EdgeColumns {
    a: Vec<Vec<Elem>>,
    b: Vec<Vec<Elem>>,
    /// `Some` when every element set on both sides is a singleton
    /// number and both quantifiers are existential: the edge can then
    /// be compared as raw `f64`s.
    fast: Option<(Vec<f64>, Vec<f64>)>,
}

/// Result rows of one program run.
///
/// The all-OID form is the fast exit: when every SELECT item is a bare
/// FROM variable *and* the template mentions every variable, join
/// tuples are distinct by construction, so the rows need neither
/// interning nor dedup — the caller bulk-builds the relation with one
/// sort instead of paying a `Cell` materialization, a sorted-set build
/// here, and a second tree descent per row there.
pub(crate) enum SelectRows {
    /// Distinct bare-variable rows, in tuple-store order, flattened:
    /// every `width` OIDs are one row.
    Atoms { width: usize, oids: Vec<Oid> },
    /// General emission: deduped, sorted cell rows.
    Cells(BTreeSet<Vec<Cell>>),
}

impl SelectRows {
    /// The rows as a sorted cell set (what `eval_select` returns).
    pub(crate) fn into_cells(self) -> BTreeSet<Vec<Cell>> {
        match self {
            SelectRows::Atoms { width, oids } => oids
                .chunks_exact(width)
                .map(|row| row.iter().map(|&o| Cell::Obj(o)).collect())
                .collect(),
            SelectRows::Cells(rows) => rows,
        }
    }
}

fn internal(msg: &str) -> XsqlError {
    XsqlError::Internal(format!("vm: {msg}"))
}

/// Runs a compiled SELECT over the (already parameter-bound) query,
/// returning the result rows and the tuple count after each join
/// opcode (one per step of the plan). The caller pairs the rows with
/// [`CompiledSelect::columns`].
pub(crate) fn run_select(
    ctx: &Ctx<'_>,
    cs: &CompiledSelect,
    q: &SelectQuery,
) -> XsqlResult<(SelectRows, Vec<usize>)> {
    let mut conjs: Vec<&Cond> = Vec::new();
    flatten_and(&q.where_clause, &mut conjs);
    let redges = runtime_edges(cs, &conjs)?;
    validate(cs)?;

    let nvars = cs.vars.len();
    // The register file: candidate lists, edge columns, tuple store.
    let mut cands: Vec<Vec<Oid>> = vec![Vec::new(); nvars];
    let mut columns: Vec<Option<EdgeColumns>> = (0..cs.edges.len()).map(|_| None).collect();
    let mut slot: Vec<usize> = vec![usize::MAX; nvars];
    let mut width = 0usize;
    let mut tuples: Vec<u32> = Vec::new();
    let mut ntuples = 0usize;
    let mut rows: BTreeSet<Vec<Cell>> = BTreeSet::new();
    let mut atoms: Option<Vec<Oid>> = None;
    let mut actuals = Vec::with_capacity(cs.vars.len());

    for op in &cs.ops {
        match op {
            Op::InitVar { var } => {
                let vi = *var as usize;
                cands[vi] = init_var(ctx, cs, &conjs, vi)?;
            }
            Op::BuildColumns { edge } => {
                let ei = *edge as usize;
                columns[ei] = Some(build_columns(ctx, cs, &redges[ei], &cands)?);
            }
            Op::Scan { var } => {
                let vi = *var as usize;
                tuples = (0..cands[vi].len() as u32).collect();
                width = 1;
                ntuples = tuples.len();
                ctx.count_tuples(ntuples)?;
                slot[vi] = width - 1;
                actuals.push(ntuples);
            }
            Op::CrossJoin { var } => {
                let vi = *var as usize;
                let ncand = cands[vi].len() as u32;
                let mut next = Vec::new();
                for t in tuples.chunks_exact(width.max(1)) {
                    for ci in 0..ncand {
                        ctx.tick()?;
                        next.extend_from_slice(t);
                        next.push(ci);
                    }
                    // One budget charge per driving tuple: totals are
                    // unchanged, the limit check just lands at chunk
                    // granularity instead of per pair.
                    ctx.count_tuples(ncand as usize)?;
                }
                tuples = next;
                width += 1;
                ntuples = tuples.len() / width;
                slot[vi] = width - 1;
                actuals.push(ntuples);
            }
            Op::HashJoin { var, hash, edges } => {
                let vi = *var as usize;
                let hei = *hash as usize;
                let e = &redges[hei];
                let new_is_a = e.a == vi;
                let cols = columns[hei].as_ref().expect("validated: columns built");
                let build_col = if new_is_a { &cols.a } else { &cols.b };
                let probe_col = if new_is_a { &cols.b } else { &cols.a };
                let other_slot = slot[if new_is_a { e.b } else { e.a }];
                let mut table: HashMap<CanonKey, Vec<u32>> = HashMap::new();
                for (ci, elems) in build_col.iter().enumerate() {
                    ctx.tick()?;
                    for &el in elems {
                        if let Some(k) = CanonKey::of(ctx, el) {
                            let bucket = table.entry(k).or_default();
                            if bucket.last() != Some(&(ci as u32)) {
                                bucket.push(ci as u32);
                            }
                        }
                    }
                }
                let residual: Vec<usize> = edges
                    .iter()
                    .map(|&e| e as usize)
                    .filter(|&ei| ei != hei)
                    .collect();
                let mut next = Vec::new();
                let mut count = 0usize;
                let mut matched: Vec<u32> = Vec::new();
                for t in tuples.chunks_exact(width) {
                    let probe_ci = t[other_slot] as usize;
                    matched.clear();
                    for &el in &probe_col[probe_ci] {
                        if let Some(k) = CanonKey::of(ctx, el) {
                            if let Some(bucket) = table.get(&k) {
                                matched.extend_from_slice(bucket);
                            }
                        }
                    }
                    matched.sort_unstable();
                    matched.dedup();
                    let before = count;
                    'new: for &ci in &matched {
                        ctx.tick()?;
                        for &ei in &residual {
                            let (ai, bi) = pair(&redges[ei], vi, ci, t, &slot);
                            if !edge_holds(ctx, &redges[ei], &columns[ei], ai, bi) {
                                continue 'new;
                            }
                        }
                        count += 1;
                        next.extend_from_slice(t);
                        next.push(ci);
                    }
                    if count > before {
                        ctx.count_tuples(count - before)?;
                    }
                }
                tuples = next;
                width += 1;
                ntuples = count;
                slot[vi] = width - 1;
                actuals.push(ntuples);
            }
            Op::ThetaJoin { var, edges } => {
                let vi = *var as usize;
                let ncand = cands[vi].len() as u32;
                // All-f64 edges: raw-number comparisons in a tight loop.
                let fast: Option<Vec<FastEdge>> = edges
                    .iter()
                    .map(|&eidx| {
                        let ei = eidx as usize;
                        let e = &redges[ei];
                        let cols = columns[ei].as_ref()?;
                        let (fa, fb) = cols.fast.as_ref()?;
                        let EdgeKind::Cmp { op, .. } = &e.kind else {
                            return None;
                        };
                        let new_is_a = e.a == vi;
                        let other_slot = slot[if new_is_a { e.b } else { e.a }];
                        Some((fa.as_slice(), fb.as_slice(), *op, new_is_a, other_slot))
                    })
                    .collect();
                let mut next = Vec::new();
                let mut count = 0usize;
                if let Some(fast) = fast {
                    let mut sides: Vec<(CmpOp, &[f64], f64, bool)> = Vec::with_capacity(fast.len());
                    for t in tuples.chunks_exact(width) {
                        sides.clear();
                        sides.extend(fast.iter().map(|&(fa, fb, op, new_is_a, os)| {
                            let other = t[os] as usize;
                            if new_is_a {
                                (op, fa, fb[other], true)
                            } else {
                                (op, fb, fa[other], false)
                            }
                        }));
                        let before = count;
                        'fcand: for ci in 0..ncand as usize {
                            ctx.tick()?;
                            for &(op, col, other, new_is_left) in &sides {
                                let ok = if new_is_left {
                                    f64_cmp(op, col[ci], other)
                                } else {
                                    f64_cmp(op, other, col[ci])
                                };
                                if !ok {
                                    continue 'fcand;
                                }
                            }
                            count += 1;
                            next.extend_from_slice(t);
                            next.push(ci as u32);
                        }
                        if count > before {
                            ctx.count_tuples(count - before)?;
                        }
                    }
                } else {
                    for t in tuples.chunks_exact(width) {
                        let before = count;
                        'cand: for ci in 0..ncand {
                            ctx.tick()?;
                            for &eidx in edges {
                                let ei = eidx as usize;
                                let (ai, bi) = pair(&redges[ei], vi, ci, t, &slot);
                                if !edge_holds(ctx, &redges[ei], &columns[ei], ai, bi) {
                                    continue 'cand;
                                }
                            }
                            count += 1;
                            next.extend_from_slice(t);
                            next.push(ci);
                        }
                        if count > before {
                            ctx.count_tuples(count - before)?;
                        }
                    }
                }
                tuples = next;
                width += 1;
                ntuples = count;
                slot[vi] = width - 1;
                actuals.push(ntuples);
            }
            Op::Emit => {
                if let Some(tpl) = &cs.atom_tpl {
                    // Does the template mention every FROM variable? If
                    // so the join tuples' distinctness carries over to
                    // the rows and the sorted-set dedup below is
                    // redundant.
                    let mut mentioned = vec![false; nvars];
                    for &vi in tpl {
                        mentioned[vi as usize] = true;
                    }
                    if mentioned.iter().all(|&m| m) {
                        let ncells = tpl.len() as u64;
                        let mut oids: Vec<Oid> = Vec::with_capacity(ntuples * tpl.len());
                        for t in tuples.chunks_exact(width.max(1)) {
                            if let Some(p) = &ctx.opts.profile {
                                p.count_solution();
                            }
                            ctx.tick_n(ncells)?;
                            ctx.check_binding_set(1)?;
                            oids.extend(tpl.iter().map(|&vi| {
                                let vi = vi as usize;
                                cands[vi][t[slot[vi]] as usize]
                            }));
                        }
                        ctx.count_tuples(ntuples)?;
                        atoms = Some(oids);
                        continue;
                    }
                    let mut out: Vec<Vec<Cell>> = Vec::with_capacity(ntuples);
                    for t in tuples.chunks_exact(width.max(1)) {
                        if let Some(p) = &ctx.opts.profile {
                            p.count_solution();
                        }
                        let mut row = Vec::with_capacity(tpl.len());
                        for &vi in tpl {
                            ctx.tick()?;
                            ctx.check_binding_set(1)?;
                            let vi = vi as usize;
                            row.push(Cell::Obj(cands[vi][t[slot[vi]] as usize]));
                        }
                        out.push(row);
                    }
                    rows = out.into_iter().collect();
                    ctx.count_tuples(rows.len())?;
                } else {
                    let mut bnd = Bindings::new();
                    let mark = bnd.mark();
                    for t in tuples.chunks_exact(width.max(1)) {
                        for (vi, v) in cs.vars.iter().enumerate() {
                            bnd.push(&v.name, cands[vi][t[slot[vi]] as usize]);
                        }
                        if let Some(p) = &ctx.opts.profile {
                            p.count_solution();
                        }
                        emit_rows(ctx, &q.select, &bnd, &mut rows)?;
                        bnd.truncate(mark);
                    }
                }
            }
            Op::Halt => break,
        }
    }
    let rows = match atoms {
        Some(oids) => SelectRows::Atoms {
            width: cs.atom_tpl.as_ref().map_or(1, Vec::len),
            oids,
        },
        None => SelectRows::Cells(rows),
    };
    Ok((rows, actuals))
}

/// Static sanity pass over the instruction stream: every register is
/// written before a join reads it, joins stay in-bounds. Compiled
/// programs always satisfy this; the check turns a compiler bug into a
/// typed error instead of a panic.
fn validate(cs: &CompiledSelect) -> XsqlResult<()> {
    let mut var_ok = vec![false; cs.vars.len()];
    let mut col_ok = vec![false; cs.edges.len()];
    let mut joined = vec![false; cs.vars.len()];
    let var_at = |v: u16, ok: &[bool]| -> XsqlResult<usize> {
        let vi = v as usize;
        if vi >= ok.len() || !ok[vi] {
            return Err(internal("join reads an uninitialized variable register"));
        }
        Ok(vi)
    };
    for op in &cs.ops {
        match op {
            Op::InitVar { var } => {
                *var_ok
                    .get_mut(*var as usize)
                    .ok_or_else(|| internal("InitVar out of bounds"))? = true;
            }
            Op::BuildColumns { edge } => {
                let ei = *edge as usize;
                let e = cs
                    .edges
                    .get(ei)
                    .ok_or_else(|| internal("BuildColumns out of bounds"))?;
                var_at(e.a, &var_ok)?;
                var_at(e.b, &var_ok)?;
                col_ok[ei] = true;
            }
            Op::Scan { var } | Op::CrossJoin { var } => {
                joined[var_at(*var, &var_ok)?] = true;
            }
            Op::HashJoin { var, hash, edges } => {
                joined[var_at(*var, &var_ok)?] = true;
                for e in edges.iter().chain(std::iter::once(hash)) {
                    let ei = *e as usize;
                    if ei >= col_ok.len() || !col_ok[ei] {
                        return Err(internal("join reads an unbuilt column register"));
                    }
                }
            }
            Op::ThetaJoin { var, edges } => {
                joined[var_at(*var, &var_ok)?] = true;
                for e in edges {
                    let ei = *e as usize;
                    if ei >= col_ok.len() || !col_ok[ei] {
                        return Err(internal("join reads an unbuilt column register"));
                    }
                }
            }
            Op::Emit => {
                if !joined.iter().all(|&j| j) {
                    return Err(internal("Emit before every variable is joined"));
                }
            }
            Op::Halt => {}
        }
    }
    Ok(())
}

/// Re-borrows the join edges from the bound statement's conjuncts.
fn runtime_edges<'q>(cs: &CompiledSelect, conjs: &[&'q Cond]) -> XsqlResult<Vec<Edge<'q>>> {
    cs.edges
        .iter()
        .map(|e| {
            let kind = conjs
                .get(e.conj as usize)
                .and_then(|c| EdgeKind::of(c))
                .ok_or_else(|| internal("edge conjunct is not a recognized join shape"))?;
            Ok(Edge {
                a: e.a as usize,
                b: e.b as usize,
                kind,
            })
        })
        .collect()
}

/// Access path for one variable: class extent, narrowed through any
/// applicable index probes, every survivor re-verified with `holds`.
fn init_var(
    ctx: &Ctx<'_>,
    cs: &CompiledSelect,
    conjs: &[&Cond],
    vi: usize,
) -> XsqlResult<Vec<Oid>> {
    let v = &cs.vars[vi];
    let base = ctx.db.instances_of(v.class);
    let mut narrowed: Option<BTreeSet<Oid>> = None;
    for f in cs.filters.iter().filter(|f| f.var as usize == vi) {
        let Some(spec) = &f.probe else { continue };
        let cond = conjs
            .get(f.conj as usize)
            .ok_or_else(|| internal("filter conjunct index out of bounds"))?;
        let Some(probe) = materialize_probe(ctx, spec, cond) else {
            continue;
        };
        let set = match probe {
            Probe::Eq { method, key } => ctx.db.attr_receivers_eq(method, &key),
            Probe::Range { method, lo, hi } => ctx.db.attr_receivers_range(method, (lo, hi)),
        };
        narrowed = Some(match narrowed {
            None => set,
            Some(prev) => prev.intersection(&set).copied().collect(),
        });
    }
    let mut kept = Vec::new();
    let mut bnd = Bindings::new();
    let mark = bnd.mark();
    'cand: for o in base {
        ctx.tick()?;
        if !ctx.sort_ok(crate::ast::VarSort::Individual, o) {
            continue;
        }
        if let Some(set) = &narrowed {
            if !set.contains(&o) {
                continue;
            }
        }
        bnd.push(&v.name, o);
        for f in cs.filters.iter().filter(|f| f.var as usize == vi) {
            let cond = conjs
                .get(f.conj as usize)
                .ok_or_else(|| internal("filter conjunct index out of bounds"))?;
            if !ctx.holds(cond, &bnd)? {
                bnd.truncate(mark);
                continue 'cand;
            }
        }
        bnd.truncate(mark);
        kept.push(o);
    }
    ctx.check_binding_set(kept.len())?;
    Ok(kept)
}

/// Turns a compiled probe spec into a typed key probe, if it applies
/// right now: the method index must be enabled and complete, and a
/// parameter key is read back from the bound conjunct. `None` degrades
/// to the plain scan (sound: probes only narrow).
pub(crate) fn materialize_probe(ctx: &Ctx<'_>, spec: &ProbeSpec, cond: &Cond) -> Option<Probe> {
    if !ctx.opts.use_method_index || !ctx.db.attr_index_complete(spec.method) {
        return None;
    }
    let konst = match spec.konst {
        KonstSrc::Oid(o) => o,
        KonstSrc::Param(_) => bound_konst(cond)?,
    };
    probe_for(ctx, spec.method, spec.op, konst)
}

/// The constant side of a bound probe conjunct (`bind` substituted the
/// parameter, so the bare-path side now heads with an OID). The
/// konst-first orientation matches `probe_spec`'s extraction order.
fn bound_konst(c: &Cond) -> Option<Oid> {
    let Cond::Cmp { left, right, .. } = c else {
        return None;
    };
    for side in [right, left] {
        let Operand::Path(k) = side else { continue };
        if let (IdTerm::Oid(o), []) = (&k.head, k.steps.as_slice()) {
            return Some(*o);
        }
    }
    None
}

/// `V.Attr` — a bare single-attribute path over `var` with no
/// arguments and no selector — resolved to the attribute's OID. The
/// shape the stored-state fast path in [`build_columns`] serves.
fn bare_attr(ctx: &Ctx<'_>, op: &Operand, var: &str) -> Option<Oid> {
    let Operand::Path(p) = op else { return None };
    let IdTerm::Var(v) = &p.head else { return None };
    if v.name != var {
        return None;
    }
    let [Step::Method {
        method: MethodTerm::Name(n),
        args,
        selector: None,
    }] = p.steps.as_slice()
    else {
        return None;
    };
    if !args.is_empty() {
        return None;
    }
    ctx.db.oids().find_sym(n)
}

/// Caches the per-candidate element columns of one edge. Bare `V.Attr`
/// operands read the stored state directly — symbol resolved once, no
/// value clone — and fall back to the full evaluator per candidate when
/// the attribute is inherited or computed; the produced elements are
/// identical either way, because `value_at_depth` consults explicit
/// state first.
fn build_columns(
    ctx: &Ctx<'_>,
    cs: &CompiledSelect,
    e: &Edge<'_>,
    cands: &[Vec<Oid>],
) -> XsqlResult<EdgeColumns> {
    let mut bnd = Bindings::new();
    let mark = bnd.mark();
    let mut side = |vi: usize, which_a: bool| -> XsqlResult<Vec<Vec<Elem>>> {
        let v = &cs.vars[vi];
        let mut col = Vec::with_capacity(cands[vi].len());
        let attr = match &e.kind {
            EdgeKind::Cmp { left, right, .. } | EdgeKind::SetCmp { left, right, .. } => {
                bare_attr(ctx, if which_a { left } else { right }, &v.name)
            }
            EdgeKind::SetLink { .. } => None,
        };
        for &o in &cands[vi] {
            ctx.tick()?;
            if let Some(m) = attr {
                if let Some(val) = ctx.db.stored_value(o, m, &[]) {
                    col.push(val.members().map(Elem::Obj).collect());
                    continue;
                }
            }
            bnd.push(&v.name, o);
            let elems = match &e.kind {
                EdgeKind::Cmp { left, right, .. } | EdgeKind::SetCmp { left, right, .. } => {
                    ctx.operand_value(if which_a { left } else { right }, &bnd)?
                }
                EdgeKind::SetLink { path } => {
                    if which_a {
                        ctx.path_value(path, &bnd)?
                            .into_iter()
                            .map(Elem::Obj)
                            .collect()
                    } else {
                        vec![Elem::Obj(o)]
                    }
                }
            };
            bnd.truncate(mark);
            col.push(elems);
        }
        Ok(col)
    };
    let a = side(e.a, true)?;
    let b = side(e.b, false)?;
    let singletons = |col: &[Vec<Elem>]| -> Option<Vec<f64>> {
        col.iter()
            .map(|es| match es.as_slice() {
                [Elem::Num(n)] => Some(*n),
                [Elem::Obj(o)] => ctx.db.oids().as_number(*o),
                _ => None,
            })
            .collect()
    };
    let fast = match &e.kind {
        EdgeKind::Cmp { lq, rq, .. } if *lq != Some(Quant::All) && *rq != Some(Quant::All) => {
            singletons(&a).zip(singletons(&b))
        }
        _ => None,
    };
    Ok(EdgeColumns { a, b, fast })
}

/// True iff the edge holds between candidate `ai` of its a-side and
/// candidate `bi` of its b-side.
fn edge_holds(
    ctx: &Ctx<'_>,
    e: &Edge<'_>,
    cols: &Option<EdgeColumns>,
    ai: usize,
    bi: usize,
) -> bool {
    let cols = cols.as_ref().expect("validated: columns built");
    match &e.kind {
        EdgeKind::Cmp { lq, op, rq, .. } => {
            if let Some((fa, fb)) = &cols.fast {
                return f64_cmp(*op, fa[ai], fb[bi]);
            }
            ctx.compare(&cols.a[ai], *lq, *op, *rq, &cols.b[bi])
        }
        EdgeKind::SetCmp { op, .. } => ctx.set_compare(&cols.a[ai], *op, &cols.b[bi]),
        EdgeKind::SetLink { .. } => ctx.compare(&cols.a[ai], None, CmpOp::Eq, None, &cols.b[bi]),
    }
}

/// Resolves an edge's endpoints into (a-side, b-side) candidate indices
/// given the new variable `vi` at candidate `ci` and an existing tuple.
fn pair(e: &Edge<'_>, vi: usize, ci: u32, t: &[u32], slot: &[usize]) -> (usize, usize) {
    if e.a == vi {
        (ci as usize, t[slot[e.b]] as usize)
    } else {
        (t[slot[e.a]] as usize, ci as usize)
    }
}
