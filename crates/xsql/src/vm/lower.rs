//! Lowering: resolved statements → [`Program`]s.
//!
//! The compiler reuses the planner's recognition and cost model
//! ([`crate::plan::plan_query`] runs the fragment checks and join
//! ordering), then flattens the borrowed [`crate::plan::Plan`] into the
//! owned pools and instruction stream of a [`CompiledSelect`]
//! ([`lower_plan`], which the planner also calls for the queries it
//! takes). Conjuncts are referenced by the index the planner recorded
//! in the deterministic `flatten_and` order, so the executor can
//! re-borrow them from the (possibly parameter-substituted) statement
//! at run time. Index probes are lowered to deferred [`ProbeSpec`]s:
//! key extraction and index-completeness checks happen at execution,
//! which both keeps probes sound across data changes and lets a probe
//! key be a `?n` parameter.

use super::{
    Body, CompiledSelect, KonstSrc, Op, ParamCheck, ParamFamily, ProbeSpec, Program, VmEdge,
    VmFilter, VmVar,
};
use crate::ast::*;
use crate::eval::cond::flatten_and;
use crate::eval::select::{column_names, prepare};
use crate::eval::{Ctx, EvalOptions};
use crate::plan::{flip, Plan, StepMethod};
use oodb::{Database, Oid};

/// See [`Program::compile`].
pub(super) fn compile(db: &Database, opts: &EvalOptions, stmt: Stmt, n_params: u32) -> Program {
    let epoch = db.schema_epoch();
    let mut param_checks = Vec::new();
    let mut body = Body::Fallback;
    if let Stmt::Select(q) = &stmt {
        param_checks = collect_param_checks(db, q);
        // Bytecode is the planned engine in compiled form; it only
        // engages where that engine would (pipelined strategy with the
        // planner on). Anything else falls back to the stored
        // statement, which re-enters the stock engines and keeps
        // option-selected behavior (e.g. naive's work accounting)
        // exactly as today.
        let planned_engine =
            opts.use_planner && matches!(opts.strategy, crate::eval::Strategy::Pipelined);
        if planned_engine && q.oid_fn.is_none() {
            let ctx = Ctx::new(db, opts);
            if let Some(plan) = crate::plan::plan_query(&ctx, q, &prepare(q)) {
                body = lower_plan(&plan, q).map_or(Body::Fallback, Body::Select);
            }
        }
    }
    Program {
        stmt,
        n_params,
        epoch,
        body,
        param_checks,
    }
}

/// Lowers a recognized plan of `q` to bytecode. `None` (more than
/// `u16::MAX` variables or conjuncts) leaves the query to the pipelined
/// engine.
pub(crate) fn lower_plan(plan: &Plan<'_>, q: &SelectQuery) -> Option<CompiledSelect> {
    // Every conjunct is a filter or an edge, so this bounds the indices.
    let nconj = plan.filters.len() + plan.edges.len();
    if plan.vars.len() > u16::MAX as usize || nconj > u16::MAX as usize {
        return None;
    }

    let vm_vars: Vec<VmVar> = plan
        .vars
        .iter()
        .map(|v| VmVar {
            name: v.name.to_string(),
            class: v.class,
        })
        .collect();
    let filters: Vec<VmFilter> = plan
        .filters
        .iter()
        .map(|f| VmFilter {
            var: f.var as u16,
            conj: f.conj as u16,
            probe: f.spec,
        })
        .collect();
    let edges: Vec<VmEdge> = plan
        .edges
        .iter()
        .map(|e| VmEdge {
            a: e.a as u16,
            b: e.b as u16,
            conj: e.conj as u16,
        })
        .collect();

    let mut ops = Vec::with_capacity(vm_vars.len() + edges.len() + plan.steps.len() + 2);
    for vi in 0..vm_vars.len() {
        ops.push(Op::InitVar { var: vi as u16 });
    }
    for ei in 0..edges.len() {
        ops.push(Op::BuildColumns { edge: ei as u16 });
    }
    for step in &plan.steps {
        let var = step.var as u16;
        let step_edges = |es: &[usize]| es.iter().map(|&e| e as u16).collect::<Vec<u16>>();
        ops.push(match &step.method {
            StepMethod::Scan => Op::Scan { var },
            StepMethod::Hash(h) => Op::HashJoin {
                var,
                hash: *h as u16,
                edges: step_edges(&step.edges),
            },
            StepMethod::Theta => Op::ThetaJoin {
                var,
                edges: step_edges(&step.edges),
            },
            StepMethod::Cross => Op::CrossJoin { var },
        });
    }
    ops.push(Op::Emit);
    ops.push(Op::Halt);

    // Emission template: every SELECT item a bare FROM variable →
    // direct row construction. Parameters never match `IdTerm::Var`, so
    // the template is bind-invariant.
    let atom_tpl: Option<Vec<u16>> = q
        .select
        .iter()
        .map(|item| {
            let op = match item {
                SelectItem::Expr(op) => op,
                SelectItem::Named {
                    value: SelectValue::Expr(op),
                    ..
                } => op,
                _ => return None,
            };
            let Operand::Path(p) = op else {
                return None;
            };
            if !p.steps.is_empty() {
                return None;
            }
            let IdTerm::Var(v) = &p.head else {
                return None;
            };
            vm_vars
                .iter()
                .position(|pv| pv.name == v.name)
                .map(|i| i as u16)
        })
        .collect();

    Some(CompiledSelect {
        vars: vm_vars,
        filters,
        edges,
        ops,
        columns: column_names(&q.select),
        atom_tpl,
    })
}

/// Recognizes the probe shape `V.Attr op konst` (either orientation)
/// with an existential path-side quantifier, where `konst` is a bare
/// constant or parameter. The option and index-completeness gates apply
/// when the spec is materialized (`exec::materialize_probe`), both for
/// the planner's estimates and at every run.
pub(crate) fn probe_spec(db: &Database, c: &Cond, var: &str) -> Option<ProbeSpec> {
    let Cond::Cmp {
        left,
        lq,
        op,
        rq,
        right,
    } = c
    else {
        return None;
    };
    let oriented = |path_op: &Operand, pq: Option<Quant>, cmp: CmpOp, konst: &Operand| {
        if pq == Some(Quant::All) {
            return None;
        }
        let Operand::Path(p) = path_op else {
            return None;
        };
        let IdTerm::Var(v) = &p.head else {
            return None;
        };
        if v.name != var {
            return None;
        }
        let [Step::Method {
            method: MethodTerm::Name(attr),
            args,
            selector: None,
        }] = p.steps.as_slice()
        else {
            return None;
        };
        if !args.is_empty() {
            return None;
        }
        let Operand::Path(k) = konst else {
            return None;
        };
        if !k.steps.is_empty() {
            return None;
        }
        let src = match &k.head {
            IdTerm::Oid(o) => KonstSrc::Oid(*o),
            IdTerm::Param(n) => KonstSrc::Param(*n),
            _ => return None,
        };
        let m = db.oids().find_sym(attr)?;
        Some(ProbeSpec {
            method: m,
            op: cmp,
            konst: src,
        })
    };
    oriented(left, *lq, *op, right).or_else(|| oriented(right, *rq, flip(*op), left))
}

/// Collects bind-time type checks: for every conjunct of shape
/// `path.Attr op ?n` (either orientation) where all 0-ary signatures of
/// `Attr` result in the numeral family or in `String`, the bound
/// argument must be of that family. A mis-typed argument can never
/// match (cross-family comparisons are false), so rejecting it at bind
/// turns a silent empty result into a typed error.
fn collect_param_checks(db: &Database, q: &SelectQuery) -> Vec<ParamCheck> {
    let mut conjs = Vec::new();
    flatten_and(&q.where_clause, &mut conjs);
    let class_named = |name: &str| db.oids().find_sym(name).filter(|&c| db.is_class(c));
    let num_classes: Vec<Oid> = ["Numeral", "Integer", "Real"]
        .iter()
        .filter_map(|n| class_named(n))
        .collect();
    let str_class = class_named("String");
    let mut out: Vec<ParamCheck> = Vec::new();
    for c in conjs {
        let Cond::Cmp { left, right, .. } = c else {
            continue;
        };
        for (attr_side, konst_side) in [(left, right), (right, left)] {
            let Operand::Path(p) = attr_side else {
                continue;
            };
            let [Step::Method {
                method: MethodTerm::Name(attr),
                args,
                selector: None,
            }] = p.steps.as_slice()
            else {
                continue;
            };
            if !args.is_empty() {
                continue;
            }
            let Operand::Path(k) = konst_side else {
                continue;
            };
            let (IdTerm::Param(n), []) = (&k.head, k.steps.as_slice()) else {
                continue;
            };
            let Some(m) = db.oids().find_sym(attr) else {
                continue;
            };
            let sigs = db.signatures_of_method(m, 0);
            if sigs.is_empty() {
                continue;
            }
            let family = if sigs.iter().all(|(_, s)| num_classes.contains(&s.result)) {
                ParamFamily::Numeral
            } else if sigs.iter().all(|(_, s)| Some(s.result) == str_class) {
                ParamFamily::Str
            } else {
                continue;
            };
            if out.iter().any(|pc| pc.param == *n) {
                continue;
            }
            out.push(ParamCheck {
                param: *n,
                attr: attr.clone(),
                family,
            });
        }
    }
    out
}
