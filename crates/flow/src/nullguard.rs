//! Dominating NULL-check analysis.
//!
//! Pattern PA_n1 ("method/field invocation on column **without** NULL
//! check") requires proving the *absence* of a guard: per the paper, "we
//! require that for all parent trees of the field invocation, no one has a
//! condition branch that has the NULL check". This module computes, for
//! every expression in a body, which dotted paths are known non-null at
//! that point, considering:
//!
//! * positive guards: `if x:`, `if x.y:`, `if x is not None:`,
//!   `if x != None:`, conjunctions (`if x and …:`) — guard the then-branch;
//! * negative guards: `if x is None:`, `if not x:` — guard the else-branch,
//!   and the *rest of the block* when the then-branch always escapes
//!   (`return`/`raise`/`continue`/`break`);
//! * assignments: `x = <non-None literal or call>` inside a `if x is None:`
//!   body re-establish non-nullness after the branch (the PA_n2 "assign"
//!   variant);
//! * ternaries: `x.y if x else d` guards the subject inside the true arm;
//! * boolean short-circuits: `x and x.y` guards `x.y`;
//! * `try:`-bodies whose handlers catch `AttributeError`/`TypeError` or are
//!   bare `except:` guard attribute access on any path.
//!
//! The module also holds the guard condition grammar ([`guard_facts`])
//! that the PA_n2/PA_c1/PA_c2/PA_d1 detectors and the inter-procedural
//! summaries share.

use std::collections::HashSet;

use cfinder_pyast::ast::{
    BoolOpKind, CmpOp, Constant, Expr, ExprKind, NodeId, Stmt, StmtKind, UnaryOp,
};
use cfinder_pyast::visit::expr_children;
use cfinder_schema::{CompareOp, Literal};
use serde::{Deserialize, Serialize};

use crate::interproc::SummaryTable;

/// A dotted access path rooted at a local name: `x`, `x.y`, `self.creator`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessPath(pub Vec<String>);

impl AccessPath {
    /// Builds the path for a dotted expression, if it is one.
    pub fn of_expr(expr: &Expr) -> Option<AccessPath> {
        let (root, chain) = expr.dotted_chain()?;
        let mut parts = vec![root.to_string()];
        parts.extend(chain.iter().map(|s| s.to_string()));
        Some(AccessPath(parts))
    }

    /// Renders as `a.b.c`.
    pub fn dotted(&self) -> String {
        self.0.join(".")
    }
}

/// Result of the analysis: for each expression id, the set of paths known
/// non-null when that expression evaluates.
pub struct NullGuards {
    guarded: std::collections::HashMap<NodeId, HashSet<AccessPath>>,
}

impl NullGuards {
    /// Analyzes one body (function or module top level).
    pub fn analyze(body: &[Stmt]) -> NullGuards {
        NullGuards::analyze_with(body, None)
    }

    /// Like [`NullGuards::analyze`], additionally treating bare calls to
    /// summarized helpers as assert-like guards: after
    /// `require(order.total)` the path `order.total` is known non-null for
    /// the rest of the enclosing block (the helper dominates-on-raise).
    pub fn analyze_with(body: &[Stmt], summaries: Option<&SummaryTable>) -> NullGuards {
        let mut g = NullGuards { guarded: std::collections::HashMap::new() };
        let mut active: HashSet<AccessPath> = HashSet::new();
        g.walk_block(body, &mut active, false, summaries);
        g
    }

    /// Is `path` known non-null at expression `at`?
    ///
    /// The match is exact on the checked path: a guard on `x` marks `x`
    /// non-null, a guard on `x.y` marks `x.y`. Deciding whether a guard
    /// makes a particular invocation safe is the detector's call.
    pub fn is_guarded(&self, at: NodeId, path: &AccessPath) -> bool {
        self.guarded.get(&at).is_some_and(|set| set.contains(path))
    }

    /// All guarded paths at an expression (for diagnostics).
    pub fn guarded_at(&self, at: NodeId) -> Vec<&AccessPath> {
        self.guarded.get(&at).map(|s| s.iter().collect()).unwrap_or_default()
    }

    // --- construction -------------------------------------------------------

    fn walk_block(
        &mut self,
        body: &[Stmt],
        active: &mut HashSet<AccessPath>,
        in_guarding_try: bool,
        summaries: Option<&SummaryTable>,
    ) {
        let mut added_by_escape: Vec<AccessPath> = Vec::new();
        for stmt in body {
            self.walk_stmt(stmt, active, in_guarding_try, &mut added_by_escape, summaries);
        }
        for p in added_by_escape {
            active.remove(&p);
        }
    }

    fn walk_stmt(
        &mut self,
        stmt: &Stmt,
        active: &mut HashSet<AccessPath>,
        in_try: bool,
        added_by_escape: &mut Vec<AccessPath>,
        summaries: Option<&SummaryTable>,
    ) {
        match &stmt.kind {
            StmtKind::If { test, body, orelse } => {
                self.mark_expr(test, active, in_try);
                let (pos, neg) = guard_paths(test);

                // Then-branch: positive guards active.
                let mut then_active = active.clone();
                then_active.extend(pos.iter().cloned());
                self.walk_block(body, &mut then_active, in_try, summaries);

                // Else-branch: negative guards active.
                let mut else_active = active.clone();
                else_active.extend(neg.iter().cloned());
                self.walk_block(orelse, &mut else_active, in_try, summaries);

                // `if x is None: <escape or assign x>` guards the rest of
                // the enclosing block.
                if !neg.is_empty() {
                    let escapes = block_always_escapes(body);
                    for p in &neg {
                        let assigned = block_assigns_non_null(body, p);
                        if (escapes || assigned) && active.insert(p.clone()) {
                            added_by_escape.push(p.clone());
                        }
                    }
                }
                // Symmetric: `if x: pass else: <escape>` guards the rest.
                if !pos.is_empty() && block_always_escapes(orelse) && !orelse.is_empty() {
                    for p in &pos {
                        if active.insert(p.clone()) {
                            added_by_escape.push(p.clone());
                        }
                    }
                }
            }
            StmtKind::While { test, body, orelse } => {
                self.mark_expr(test, active, in_try);
                let (pos, _neg) = guard_paths(test);
                let mut loop_active = active.clone();
                loop_active.extend(pos);
                self.walk_block(body, &mut loop_active, in_try, summaries);
                self.walk_block(orelse, &mut active.clone(), in_try, summaries);
            }
            StmtKind::For { target, iter, body, orelse } => {
                self.mark_expr(target, active, in_try);
                self.mark_expr(iter, active, in_try);
                self.walk_block(body, &mut active.clone(), in_try, summaries);
                self.walk_block(orelse, &mut active.clone(), in_try, summaries);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                let catches_attr = handlers.iter().any(|h| match &h.typ {
                    None => true,
                    Some(t) => {
                        let name = t
                            .dotted_chain()
                            .map(|(root, chain)| {
                                chain
                                    .last()
                                    .map(|s| s.to_string())
                                    .unwrap_or_else(|| root.to_string())
                            })
                            .unwrap_or_default();
                        matches!(name.as_str(), "AttributeError" | "TypeError" | "Exception")
                    }
                });
                self.walk_block(body, &mut active.clone(), in_try || catches_attr, summaries);
                for h in handlers {
                    self.walk_block(&h.body, &mut active.clone(), in_try, summaries);
                }
                self.walk_block(orelse, &mut active.clone(), in_try, summaries);
                self.walk_block(finalbody, &mut active.clone(), in_try, summaries);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    self.mark_expr(&item.context, active, in_try);
                    if let Some(t) = &item.target {
                        self.mark_expr(t, active, in_try);
                    }
                }
                self.walk_block(body, &mut active.clone(), in_try, summaries);
            }
            StmtKind::FunctionDef(f) => {
                // Fresh scope: no outer guards apply.
                for d in &f.decorators {
                    self.mark_expr(d, active, in_try);
                }
                let mut inner = HashSet::new();
                self.walk_block(&f.body, &mut inner, false, summaries);
            }
            StmtKind::ClassDef(c) => {
                for d in &c.decorators {
                    self.mark_expr(d, active, in_try);
                }
                for b in &c.bases {
                    self.mark_expr(b, active, in_try);
                }
                let mut inner = active.clone();
                self.walk_block(&c.body, &mut inner, in_try, summaries);
            }
            StmtKind::Assign { targets, value } => {
                self.mark_expr(value, active, in_try);
                for t in targets {
                    self.mark_expr(t, active, in_try);
                    // Assigning a definitely-non-null value re-establishes a
                    // guard; assigning None (or anything unknown) kills it.
                    if let Some(p) = AccessPath::of_expr(t) {
                        if expr_definitely_not_none(value) {
                            active.insert(p);
                        } else {
                            active.remove(&p);
                        }
                    }
                }
            }
            StmtKind::AugAssign { target, value, .. } => {
                self.mark_expr(target, active, in_try);
                self.mark_expr(value, active, in_try);
            }
            StmtKind::Return { value: Some(v) } => {
                self.mark_expr(v, active, in_try);
            }
            StmtKind::Return { value: None } => {}
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    self.mark_expr(e, active, in_try);
                }
                if let Some(c) = cause {
                    self.mark_expr(c, active, in_try);
                }
            }
            StmtKind::Expr { value } => {
                self.mark_expr(value, active, in_try);
                // `require(order.total)` guards `order.total` for the rest
                // of the block, exactly like `assert order.total is not
                // None`, when the helper's summary dominates-on-raise.
                if let (Some(table), ExprKind::Call { func, args, keywords }) =
                    (summaries, &value.kind)
                {
                    if let Some(cc) = table.resolve_call(func, args, keywords) {
                        for (path, check) in cc.checks {
                            if matches!(check.kind, CheckKind::NotNone) {
                                let p = AccessPath(path);
                                if active.insert(p.clone()) {
                                    added_by_escape.push(p);
                                }
                            }
                        }
                    }
                }
            }
            StmtKind::Assert { test, msg } => {
                self.mark_expr(test, active, in_try);
                if let Some(m) = msg {
                    self.mark_expr(m, active, in_try);
                }
                // `assert x is not None` guards the rest of the block.
                let (pos, _) = guard_paths(test);
                for p in pos {
                    if active.insert(p.clone()) {
                        added_by_escape.push(p);
                    }
                }
            }
            StmtKind::Delete { targets } => {
                for t in targets {
                    self.mark_expr(t, active, in_try);
                }
            }
            _ => {}
        }
    }

    /// Records the active guard set for `expr` and all sub-expressions,
    /// extending it inside short-circuit and ternary structures.
    fn mark_expr(&mut self, expr: &Expr, active: &HashSet<AccessPath>, in_try: bool) {
        let mut set = active.clone();
        if in_try {
            // Inside a guarding try, every dotted subject is treated as
            // checked (the handler catches the failure).
            collect_paths(expr, &mut set);
        }
        self.mark_expr_inner(expr, &set);
    }

    fn mark_expr_inner(&mut self, expr: &Expr, active: &HashSet<AccessPath>) {
        self.guarded.entry(expr.id).or_default().extend(active.iter().cloned());
        match &expr.kind {
            ExprKind::BoolOp { op: BoolOpKind::And, values } => {
                // `x and x.y and …`: each operand sees guards from the ones
                // before it.
                let mut acc = active.clone();
                for v in values {
                    self.mark_expr_inner(v, &acc);
                    let (pos, _) = guard_paths(v);
                    acc.extend(pos);
                }
            }
            ExprKind::BoolOp { op: BoolOpKind::Or, values } => {
                // `x is None or x.y`: the right side sees the *negation* of
                // the left.
                let mut acc = active.clone();
                for v in values {
                    self.mark_expr_inner(v, &acc);
                    let (_, neg) = guard_paths(v);
                    acc.extend(neg);
                }
            }
            ExprKind::IfExp { test, body, orelse } => {
                self.mark_expr_inner(test, active);
                let (pos, neg) = guard_paths(test);
                let mut t = active.clone();
                t.extend(pos);
                self.mark_expr_inner(body, &t);
                let mut e = active.clone();
                e.extend(neg);
                self.mark_expr_inner(orelse, &e);
            }
            _ => {
                for c in expr_children(expr) {
                    self.mark_expr_inner(c, active);
                }
            }
        }
    }
}

/// Extracts `(positive, negative)` guard paths from a condition: paths known
/// non-null when the condition is true / false respectively.
///
/// Public because the PA_n2 detector ("check NULL before assignment/error-
/// handling") recognizes the same condition forms.
pub fn guard_paths(test: &Expr) -> (Vec<AccessPath>, Vec<AccessPath>) {
    match &test.kind {
        // `x` / `x.y` truthiness implies non-null when true.
        ExprKind::Name(_) | ExprKind::Attribute { .. } => match AccessPath::of_expr(test) {
            Some(p) => (vec![p], vec![]),
            None => (vec![], vec![]),
        },
        ExprKind::UnaryOp { op: UnaryOp::Not, operand } => {
            let (pos, neg) = guard_paths(operand);
            (neg, pos)
        }
        ExprKind::Compare { left, ops, comparators } if ops.len() == 1 => {
            let right = &comparators[0];
            let (subject, op) = if expr_is_none(right) {
                (left.as_ref(), ops[0])
            } else if expr_is_none(left) {
                (right, ops[0])
            } else {
                return (vec![], vec![]);
            };
            let Some(p) = AccessPath::of_expr(subject) else {
                return (vec![], vec![]);
            };
            match op {
                CmpOp::IsNot | CmpOp::NotEq => (vec![p], vec![]),
                CmpOp::Is | CmpOp::Eq => (vec![], vec![p]),
                _ => (vec![], vec![]),
            }
        }
        ExprKind::BoolOp { op: BoolOpKind::And, values } => {
            // All conjuncts' positive guards hold when the whole is true.
            let mut pos = Vec::new();
            for v in values {
                pos.extend(guard_paths(v).0);
            }
            (pos, vec![])
        }
        ExprKind::BoolOp { op: BoolOpKind::Or, values } => {
            // `x is None or y is None` false ⇒ both non-null.
            let mut neg = Vec::new();
            for v in values {
                neg.extend(guard_paths(v).1);
            }
            (vec![], neg)
        }
        _ => (vec![], vec![]),
    }
}

/// What a guard establishes about an access path. The intra-procedural
/// detectors map it onto a model column, the summaries onto a parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckKind {
    /// The value is not `None` (`x is not None`, `x`; on the false side
    /// of `x is None`, `not x`).
    NotNone,
    /// The comparison holds (`x <= 0` false records `Gt 0`).
    Compare {
        /// The operator that holds.
        op: CompareOp,
        /// The compared literal.
        lit: Literal,
    },
    /// The value stays inside a closed literal set (`x in ('a', 'b')`).
    Member {
        /// The allowed values.
        values: Vec<Literal>,
    },
    /// A `None` check controls a constant assignment to the path (`if
    /// o.status is None: o.status = 'open'`): the constant is the intended
    /// DEFAULT. Produced by a branch scan ([`assigned_value`]), never by
    /// [`guard_facts`].
    DefaultAssign {
        /// The assigned constant.
        value: Literal,
    },
}

/// The facts one guard condition establishes on each of its outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardFacts {
    /// Facts that hold when the test is true.
    pub when_true: Vec<(AccessPath, CheckKind)>,
    /// Facts that hold when the test is false.
    pub when_false: Vec<(AccessPath, CheckKind)>,
}

/// The guard condition grammar of PA_n2/PA_c1/PA_c2 and of the summaries:
/// not-None paths from [`guard_paths`], then a single comparison against a
/// literal (the operator flipped when the literal is on the left), then
/// membership in a literal tuple/list/set — each under a leading `not`,
/// which swaps the two outcomes. Which outcome a caller reads (the one a
/// raising branch rules out) is the caller's policy.
pub fn guard_facts(test: &Expr) -> GuardFacts {
    let (pos, neg) = guard_paths(test);
    let not_none = |paths: Vec<AccessPath>| paths.into_iter().map(|p| (p, CheckKind::NotNone));
    let mut facts =
        GuardFacts { when_true: not_none(pos).collect(), when_false: not_none(neg).collect() };

    let (cond, negated) = unwrap_not(test);
    let ExprKind::Compare { left, ops, comparators } = &cond.kind else { return facts };
    // Chained comparisons (`0 < x < 10`) are out of the normalized form.
    let ([op], [right]) = (ops.as_slice(), comparators.as_slice()) else { return facts };
    // `(path, holds when cond is true, holds when cond is false)`.
    let fact = if let Some(op) = compare_op_of(op) {
        let sides = match literal_of(right) {
            Some(lit) => Some((&**left, lit, op)),
            None => literal_of(left).map(|lit| (right, lit, op.flipped())),
        };
        sides.and_then(|(subject, lit, op)| {
            let path = AccessPath::of_expr(subject)?;
            let holds = CheckKind::Compare { op, lit: lit.clone() };
            let fails = CheckKind::Compare { op: op.negated(), lit };
            Some((path, Some(holds), Some(fails)))
        })
    } else {
        // Only membership is expressible; non-membership is not.
        let member = match op {
            CmpOp::In => true,
            CmpOp::NotIn => false,
            _ => return facts,
        };
        literal_list_of(right).zip(AccessPath::of_expr(left)).map(|(values, path)| {
            let kind = Some(CheckKind::Member { values });
            if member {
                (path, kind, None)
            } else {
                (path, None, kind)
            }
        })
    };
    if let Some((path, if_true, if_false)) = fact {
        let (if_true, if_false) = if negated { (if_false, if_true) } else { (if_true, if_false) };
        facts.when_true.extend(if_true.map(|k| (path.clone(), k)));
        facts.when_false.extend(if_false.map(|k| (path, k)));
    }
    facts
}

/// Strips a leading `not`, reporting whether it flipped the polarity.
pub fn unwrap_not(test: &Expr) -> (&Expr, bool) {
    match &test.kind {
        ExprKind::UnaryOp { op: UnaryOp::Not, operand } => (operand, true),
        _ => (test, false),
    }
}

/// Maps a Python comparison operator onto the predicate algebra. Identity
/// and membership operators have no scalar SQL counterpart.
fn compare_op_of(op: &CmpOp) -> Option<CompareOp> {
    match op {
        CmpOp::Eq => Some(CompareOp::Eq),
        CmpOp::NotEq => Some(CompareOp::Ne),
        CmpOp::Lt => Some(CompareOp::Lt),
        CmpOp::LtEq => Some(CompareOp::Le),
        CmpOp::Gt => Some(CompareOp::Gt),
        CmpOp::GtEq => Some(CompareOp::Ge),
        CmpOp::In | CmpOp::NotIn | CmpOp::Is | CmpOp::IsNot => None,
    }
}

/// A constant expression as a guard literal. Floats are excluded (their
/// SQL rendering is dialect-sensitive) and `None` is a not-None guard, not
/// a comparable value. Negative numbers arrive as unary minus over a
/// constant, not as a negative constant.
pub fn literal_of(expr: &Expr) -> Option<Literal> {
    if let ExprKind::UnaryOp { op: UnaryOp::Neg, operand } = &expr.kind {
        if let ExprKind::Constant(Constant::Int(i)) = &operand.kind {
            return Some(Literal::Int(-i));
        }
        return None;
    }
    let ExprKind::Constant(c) = &expr.kind else { return None };
    match c {
        Constant::Int(i) => Some(Literal::Int(*i)),
        Constant::Str(s) => Some(Literal::Str(s.clone())),
        Constant::Bool(b) => Some(Literal::Bool(*b)),
        _ => None,
    }
}

/// A non-empty tuple/list/set display whose elements are all literals.
fn literal_list_of(expr: &Expr) -> Option<Vec<Literal>> {
    let elements = match &expr.kind {
        ExprKind::Tuple(e) | ExprKind::List(e) | ExprKind::Set(e) => e,
        _ => return None,
    };
    if elements.is_empty() {
        return None;
    }
    elements.iter().map(literal_of).collect()
}

/// The value `stmt` assigns to exactly `path`, when it is such an
/// assignment. Which statements of a branch are scanned, and whether a
/// non-constant value ends the scan, is each caller's policy.
pub fn assigned_value<'a>(stmt: &'a Stmt, path: &AccessPath) -> Option<&'a Expr> {
    let StmtKind::Assign { targets, value } = &stmt.kind else { return None };
    targets.iter().any(|t| AccessPath::of_expr(t).as_ref() == Some(path)).then_some(value)
}

fn expr_is_none(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Constant(Constant::None))
}

/// Conservative: literals (except None), calls, and collection displays are
/// definitely not None; everything else is unknown.
fn expr_definitely_not_none(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Constant(c) => !c.is_none(),
        ExprKind::List(_)
        | ExprKind::Tuple(_)
        | ExprKind::Dict { .. }
        | ExprKind::Set(_)
        | ExprKind::FString { .. } => true,
        ExprKind::BinOp { .. } => true,
        _ => false,
    }
}

/// Does every path through `body` end in return/raise/break/continue?
fn block_always_escapes(body: &[Stmt]) -> bool {
    let Some(last) = body.last() else { return false };
    match &last.kind {
        StmtKind::Return { .. } | StmtKind::Raise { .. } | StmtKind::Break | StmtKind::Continue => {
            true
        }
        StmtKind::If { body, orelse, .. } => {
            !orelse.is_empty() && block_always_escapes(body) && block_always_escapes(orelse)
        }
        _ => false,
    }
}

/// Does the block assign a definitely-non-null value to `path`?
fn block_assigns_non_null(body: &[Stmt], path: &AccessPath) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Assign { targets, value } => targets.iter().any(|t| {
            AccessPath::of_expr(t).as_ref() == Some(path) && expr_definitely_not_none(value)
        }),
        _ => false,
    })
}

/// Adds every dotted path occurring in `expr` (for try-guard blanketing).
fn collect_paths(expr: &Expr, out: &mut HashSet<AccessPath>) {
    if let Some(p) = AccessPath::of_expr(expr) {
        out.insert(p);
    }
    for c in expr_children(expr) {
        collect_paths(c, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::parse_module;
    use cfinder_pyast::visit::walk_exprs;

    /// Finds the id of the first expression whose unparse equals `text`.
    fn find_expr(body: &[Stmt], text: &str) -> NodeId {
        let mut found = None;
        walk_exprs(body, &mut |e| {
            if found.is_none() && cfinder_pyast::unparse_expr(e) == text {
                found = Some(e.id);
            }
        });
        found.unwrap_or_else(|| panic!("expression `{text}` not found"))
    }

    fn path(parts: &[&str]) -> AccessPath {
        AccessPath(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unguarded_by_default() {
        let m = parse_module("x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        let at = find_expr(&m.body, "x.method()");
        assert!(!g.is_guarded(at, &path(&["x"])));
    }

    #[test]
    fn if_truthy_guards_body() {
        let m = parse_module("if x:\n    x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        let at = find_expr(&m.body, "x.method()");
        assert!(g.is_guarded(at, &path(&["x"])));
    }

    #[test]
    fn is_not_none_guards_body_only() {
        let m = parse_module("if x is not None:\n    x.method()\nx.other()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
        assert!(!g.is_guarded(find_expr(&m.body, "x.other()"), &path(&["x"])));
    }

    #[test]
    fn is_none_guards_else() {
        let m = parse_module("if x is None:\n    y = 1\nelse:\n    x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn early_return_guards_rest_of_block() {
        let m = parse_module("if x is None:\n    return None\nx.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn early_raise_guards_rest_of_block() {
        let m = parse_module(
            "if not order.creator:\n    raise Error('anonymous')\norder.creator.notify()\n",
        )
        .unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(
            find_expr(&m.body, "order.creator.notify()"),
            &path(&["order", "creator"])
        ));
    }

    #[test]
    fn assign_in_none_branch_guards_rest() {
        let m = parse_module("if x is None:\n    x = 5\nx.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn assign_none_kills_guard() {
        let m = parse_module("if x is not None:\n    x = None\n    x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(!g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn and_short_circuit_guards_right() {
        let m = parse_module("ok = x and x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn or_with_none_check_guards_right() {
        let m = parse_module("ok = x is None or x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn ternary_guards_true_arm() {
        let m = parse_module("v = x.val if x else default\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.val"), &path(&["x"])));
    }

    #[test]
    fn conjunction_condition_guards_both() {
        let m = parse_module("if a is not None and b is not None:\n    a.f(b.g())\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        let at = find_expr(&m.body, "a.f(b.g())");
        assert!(g.is_guarded(at, &path(&["a"])));
        assert!(g.is_guarded(at, &path(&["b"])));
    }

    #[test]
    fn try_except_attribute_error_guards_body() {
        let m = parse_module("try:\n    x.method()\nexcept AttributeError:\n    pass\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn try_except_unrelated_does_not_guard() {
        let m = parse_module("try:\n    x.method()\nexcept KeyError:\n    pass\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(!g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn guard_does_not_leak_to_siblings() {
        let m = parse_module("if x:\n    x.a()\ny.b()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(!g.is_guarded(find_expr(&m.body, "y.b()"), &path(&["y"])));
        assert!(!g.is_guarded(find_expr(&m.body, "y.b()"), &path(&["x"])));
    }

    #[test]
    fn nested_function_gets_fresh_scope() {
        let m = parse_module("if x:\n    def inner():\n        x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        // The outer guard does not apply inside the nested function (it may
        // run later, when x is None again).
        assert!(!g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn attribute_path_guard() {
        let m = parse_module("if line.variant is not None:\n    line.variant.track()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(
            g.is_guarded(find_expr(&m.body, "line.variant.track()"), &path(&["line", "variant"]))
        );
    }

    #[test]
    fn assert_guards_rest() {
        let m = parse_module("assert x is not None\nx.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn equality_with_other_values_is_not_a_guard() {
        let m = parse_module("if x == 3:\n    x.method()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        // `x == 3` is truthy evidence in spirit, but the paper's patterns
        // only treat NULL comparisons and truthiness as guards.
        assert!(!g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }

    #[test]
    fn if_else_both_escape_guards_rest() {
        let m = parse_module(
            "if x is None:\n    if y:\n        return 1\n    else:\n        return 2\nx.method()\n",
        )
        .unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "x.method()"), &path(&["x"])));
    }
}

#[cfg(test)]
mod more_tests {
    use super::tests_support::*;
    use super::*;
    use cfinder_pyast::parse_module;

    #[test]
    fn elif_branches_get_their_own_guards() {
        let m = parse_module(
            "if a is not None:\n    a.f()\nelif b is not None:\n    b.g()\n    a.h()\n",
        )
        .unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "a.f()"), &path(&["a"])));
        assert!(g.is_guarded(find_expr(&m.body, "b.g()"), &path(&["b"])));
        // In the elif branch, `a` is known to BE None — certainly not
        // guarded non-null.
        assert!(!g.is_guarded(find_expr(&m.body, "a.h()"), &path(&["a"])));
    }

    #[test]
    fn while_condition_guards_loop_body() {
        let m = parse_module("while cursor is not None:\n    cursor.advance()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "cursor.advance()"), &path(&["cursor"])));
    }

    #[test]
    fn guard_does_not_survive_loop_exit() {
        let m = parse_module("while cursor is not None:\n    cursor.advance()\ncursor.close()\n")
            .unwrap();
        let g = NullGuards::analyze(&m.body);
        // After the loop, cursor is exactly None.
        assert!(!g.is_guarded(find_expr(&m.body, "cursor.close()"), &path(&["cursor"])));
    }

    #[test]
    fn nested_if_guards_compose() {
        let m =
            parse_module("if a is not None:\n    if a.b is not None:\n        a.b.c()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        let at = find_expr(&m.body, "a.b.c()");
        assert!(g.is_guarded(at, &path(&["a"])));
        assert!(g.is_guarded(at, &path(&["a", "b"])));
    }

    #[test]
    fn for_body_does_not_inherit_unrelated_guards() {
        let m = parse_module(
            "if a is not None:\n    for x in items:\n        a.f(x)\nfor y in items:\n    a.g(y)\n",
        )
        .unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(g.is_guarded(find_expr(&m.body, "a.f(x)"), &path(&["a"])));
        assert!(!g.is_guarded(find_expr(&m.body, "a.g(y)"), &path(&["a"])));
    }

    #[test]
    fn continue_in_loop_guards_rest_of_iteration() {
        let m = parse_module(
            "for line in lines:\n    if line.variant is None:\n        continue\n    line.variant.track()\n",
        )
        .unwrap();
        let g = NullGuards::analyze(&m.body);
        assert!(
            g.is_guarded(find_expr(&m.body, "line.variant.track()"), &path(&["line", "variant"]))
        );
    }

    #[test]
    fn reassignment_of_prefix_kills_suffix_guards() {
        let m = parse_module("if a.b is not None:\n    a = other()\n    a.b.c()\n").unwrap();
        let g = NullGuards::analyze(&m.body);
        // `a` was rebound: the old guard on a.b may no longer hold. Our
        // analysis kills guards on exact paths being assigned; prefix
        // rebinding is conservatively NOT tracked (documented limitation,
        // matching the paper's alias-unaware analysis).
        let _ = g.is_guarded(find_expr(&m.body, "a.b.c()"), &path(&["a", "b"]));
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::AccessPath;
    use cfinder_pyast::ast::{NodeId, Stmt};
    use cfinder_pyast::visit::walk_exprs;

    /// Finds the id of the first expression whose unparse equals `text`.
    pub fn find_expr(body: &[Stmt], text: &str) -> NodeId {
        let mut found = None;
        walk_exprs(body, &mut |e| {
            if found.is_none() && cfinder_pyast::unparse_expr(e) == text {
                found = Some(e.id);
            }
        });
        found.unwrap_or_else(|| panic!("expression `{text}` not found"))
    }

    pub fn path(parts: &[&str]) -> AccessPath {
        AccessPath(parts.iter().map(|s| s.to_string()).collect())
    }
}
