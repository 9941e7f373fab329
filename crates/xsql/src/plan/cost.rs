//! Cardinality estimation and greedy join ordering.
//!
//! Estimates are deliberately coarse — their only job is to rank
//! alternatives, and soundness never depends on them (every access path
//! re-verifies with `holds`, every join edge is fully evaluated). The
//! inputs are the two statistics the database maintains for free:
//! per-class extent sizes and per-attribute index shape
//! ([`oodb::AttrStats`]: distinct keys and total postings).

use super::{Plan, PlanFilter, PlanStep, Probe, StepMethod};
use crate::eval::Ctx;

/// Selectivity of one filter on a variable with `extent` candidates.
fn selectivity(ctx: &Ctx<'_>, f: &PlanFilter, extent: usize) -> f64 {
    match &f.probe {
        // Equality through the index: the average bucket holds
        // postings/distinct receivers, so the filter keeps about that
        // fraction of the extent.
        Some(Probe::Eq { method, .. }) => match ctx.db.attr_stats(*method) {
            Some(s) if s.distinct_keys > 0 && extent > 0 => {
                ((s.postings as f64 / s.distinct_keys as f64) / extent as f64).min(1.0)
            }
            // Index exists but is empty: nothing can match the probe.
            _ => 0.0,
        },
        Some(Probe::Range { .. }) => 1.0 / 3.0,
        None => 1.0 / 2.0,
    }
}

/// Fills in extents and per-variable estimates, then chooses the join
/// order greedily: start from the smallest filtered extent, repeatedly
/// attach the connected variable with the cheapest predicted result
/// (hash joins are assumed to keep cardinality near the smaller input,
/// equality theta joins to keep ~1/10 of the product, other theta joins
/// ~1/3), falling back to a cross product only when nothing connects.
/// Fully deterministic: ties break toward the lower variable index.
pub(crate) fn order(ctx: &Ctx<'_>, plan: &mut Plan<'_>) {
    for (vi, v) in plan.vars.iter_mut().enumerate() {
        v.extent = ctx.db.instances_of(v.class).len();
        let mut est = v.extent as f64;
        for f in plan.filters.iter().filter(|f| f.var == vi) {
            est *= selectivity(ctx, f, v.extent);
        }
        v.est_rows = est;
    }

    let n = plan.vars.len();
    let mut joined = vec![false; n];
    let by_est = |a: &f64, b: &f64| a.partial_cmp(b).expect("estimates are finite");

    let driver = (0..n)
        .min_by(|&a, &b| by_est(&plan.vars[a].est_rows, &plan.vars[b].est_rows).then(a.cmp(&b)))
        .expect("plan has at least one FROM variable");
    joined[driver] = true;
    let mut cur = plan.vars[driver].est_rows;
    plan.steps.push(PlanStep {
        var: driver,
        method: StepMethod::Scan,
        edges: Vec::new(),
        est_rows: cur,
    });

    while joined.iter().any(|j| !j) {
        // For every not-yet-joined variable, the edges connecting it to
        // the joined set and the predicted cardinality of joining it.
        let mut best: Option<(f64, usize, Vec<usize>)> = None;
        for vi in (0..n).filter(|&vi| !joined[vi]) {
            let conn: Vec<usize> = plan
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| (e.a == vi && joined[e.b]) || (e.b == vi && joined[e.a]))
                .map(|(i, _)| i)
                .collect();
            if conn.is_empty() {
                continue;
            }
            let v_est = plan.vars[vi].est_rows;
            let est = if conn.iter().any(|&i| plan.edges[i].hashable()) {
                cur.min(v_est).max(1.0)
            } else if conn.iter().any(|&i| {
                matches!(
                    &plan.edges[i].kind,
                    super::EdgeKind::Cmp {
                        op: crate::ast::CmpOp::Eq,
                        ..
                    }
                )
            }) {
                cur * v_est / 10.0
            } else {
                cur * v_est / 3.0
            };
            if best
                .as_ref()
                .is_none_or(|(b, bv, _)| by_est(&est, b).then(vi.cmp(bv)).is_lt())
            {
                best = Some((est, vi, conn));
            }
        }
        let (est, vi, conn) = match best {
            Some(b) => b,
            None => {
                // Disconnected component: cross product with the
                // smallest remaining variable.
                let vi = (0..n)
                    .filter(|&vi| !joined[vi])
                    .min_by(|&a, &b| {
                        by_est(&plan.vars[a].est_rows, &plan.vars[b].est_rows).then(a.cmp(&b))
                    })
                    .expect("loop guard guarantees an unjoined variable");
                joined[vi] = true;
                cur *= plan.vars[vi].est_rows;
                plan.steps.push(PlanStep {
                    var: vi,
                    method: StepMethod::Cross,
                    edges: Vec::new(),
                    est_rows: cur,
                });
                continue;
            }
        };
        joined[vi] = true;
        cur = est;
        let method = match conn.iter().copied().find(|&i| plan.edges[i].hashable()) {
            Some(e) => StepMethod::Hash(e),
            None => StepMethod::Theta,
        };
        plan.steps.push(PlanStep {
            var: vi,
            method,
            edges: conn,
            est_rows: cur,
        });
    }
}
