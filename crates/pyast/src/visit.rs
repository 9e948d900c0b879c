//! AST traversal utilities.
//!
//! Three complementary mechanisms:
//!
//! * [`Visit`] — a classic visitor trait with pre-order callbacks and
//!   default recursive walking, used by analyses that need full context.
//! * [`walk_exprs`] / [`walk_stmts`] — closure-based pre-order walks for
//!   one-off scans; [`walk_shallow`] / [`own_exprs`] restrict a walk to
//!   one function scope.
//! * [`bfs_exprs`] — breadth-first expression traversal, which is the order
//!   CFinder's pattern matcher uses when searching candidate subtrees
//!   (§3.4.2 of the paper: "performs a breadth-first traversal in T_body").

use std::collections::VecDeque;

use crate::ast::*;

/// Pre-order visitor over statements and expressions.
///
/// Override the hooks you need; call the `walk_*` free functions (or rely on
/// the provided defaults) to recurse.
pub trait Visit {
    /// Called for every statement, before its children.
    fn visit_stmt(&mut self, stmt: &Stmt) {
        walk_stmt(self, stmt);
    }

    /// Called for every expression, before its children.
    fn visit_expr(&mut self, expr: &Expr) {
        walk_expr(self, expr);
    }
}

/// Recurses into the children of `stmt`, invoking the visitor's hooks.
pub fn walk_stmt<V: Visit + ?Sized>(v: &mut V, stmt: &Stmt) {
    match &stmt.kind {
        StmtKind::FunctionDef(f) => {
            for d in &f.decorators {
                v.visit_expr(d);
            }
            for p in &f.params {
                if let Some(d) = &p.default {
                    v.visit_expr(d);
                }
            }
            for s in &f.body {
                v.visit_stmt(s);
            }
        }
        StmtKind::ClassDef(c) => {
            for d in &c.decorators {
                v.visit_expr(d);
            }
            for b in &c.bases {
                v.visit_expr(b);
            }
            for k in &c.keywords {
                v.visit_expr(&k.value);
            }
            for s in &c.body {
                v.visit_stmt(s);
            }
        }
        StmtKind::If { test, body, orelse } => {
            v.visit_expr(test);
            for s in body.iter().chain(orelse) {
                v.visit_stmt(s);
            }
        }
        StmtKind::For { target, iter, body, orelse } => {
            v.visit_expr(target);
            v.visit_expr(iter);
            for s in body.iter().chain(orelse) {
                v.visit_stmt(s);
            }
        }
        StmtKind::While { test, body, orelse } => {
            v.visit_expr(test);
            for s in body.iter().chain(orelse) {
                v.visit_stmt(s);
            }
        }
        StmtKind::Try { body, handlers, orelse, finalbody } => {
            for s in body {
                v.visit_stmt(s);
            }
            for h in handlers {
                if let Some(t) = &h.typ {
                    v.visit_expr(t);
                }
                for s in &h.body {
                    v.visit_stmt(s);
                }
            }
            for s in orelse.iter().chain(finalbody) {
                v.visit_stmt(s);
            }
        }
        StmtKind::With { items, body } => {
            for item in items {
                v.visit_expr(&item.context);
                if let Some(t) = &item.target {
                    v.visit_expr(t);
                }
            }
            for s in body {
                v.visit_stmt(s);
            }
        }
        StmtKind::Assign { targets, value } => {
            for t in targets {
                v.visit_expr(t);
            }
            v.visit_expr(value);
        }
        StmtKind::AugAssign { target, value, .. } => {
            v.visit_expr(target);
            v.visit_expr(value);
        }
        StmtKind::Return { value } => {
            if let Some(e) = value {
                v.visit_expr(e);
            }
        }
        StmtKind::Raise { exc, cause } => {
            if let Some(e) = exc {
                v.visit_expr(e);
            }
            if let Some(e) = cause {
                v.visit_expr(e);
            }
        }
        StmtKind::Expr { value } => v.visit_expr(value),
        StmtKind::Assert { test, msg } => {
            v.visit_expr(test);
            if let Some(m) = msg {
                v.visit_expr(m);
            }
        }
        StmtKind::Delete { targets } => {
            for t in targets {
                v.visit_expr(t);
            }
        }
        StmtKind::Import { .. }
        | StmtKind::ImportFrom { .. }
        | StmtKind::Global { .. }
        | StmtKind::Pass
        | StmtKind::Break
        | StmtKind::Continue => {}
    }
}

/// Recurses into the children of `expr`, invoking the visitor's hooks.
pub fn walk_expr<V: Visit + ?Sized>(v: &mut V, expr: &Expr) {
    for child in expr_children(expr) {
        v.visit_expr(child);
    }
}

/// Returns the direct expression children of `expr` in source order.
pub fn expr_children(expr: &Expr) -> Vec<&Expr> {
    match &expr.kind {
        ExprKind::Name(_) | ExprKind::Constant(_) => vec![],
        ExprKind::Attribute { value, .. } => vec![value],
        ExprKind::Call { func, args, keywords } => {
            let mut out: Vec<&Expr> = vec![func];
            out.extend(args.iter());
            out.extend(keywords.iter().map(|k| &k.value));
            out
        }
        ExprKind::Subscript { value, index } => vec![value, index],
        ExprKind::Tuple(v) | ExprKind::List(v) | ExprKind::Set(v) => v.iter().collect(),
        ExprKind::Dict { keys, values } => keys.iter().chain(values.iter()).collect(),
        ExprKind::BinOp { left, right, .. } => vec![left, right],
        ExprKind::UnaryOp { operand, .. } => vec![operand],
        ExprKind::BoolOp { values, .. } => values.iter().collect(),
        ExprKind::Compare { left, comparators, .. } => {
            let mut out: Vec<&Expr> = vec![left];
            out.extend(comparators.iter());
            out
        }
        ExprKind::IfExp { test, body, orelse } => vec![test, body, orelse],
        ExprKind::Lambda { params, body } => {
            let mut out: Vec<&Expr> = params.iter().filter_map(|p| p.default.as_ref()).collect();
            out.push(body);
            out
        }
        ExprKind::Starred(inner) => vec![inner],
        ExprKind::FString { parts, .. } => parts.iter().collect(),
        ExprKind::Slice { lower, upper, step } => {
            [lower, upper, step].into_iter().flatten().map(|b| b.as_ref()).collect()
        }
        ExprKind::Comprehension { element, value, generators, .. } => {
            let mut out: Vec<&Expr> = vec![element];
            if let Some(val) = value {
                out.push(val);
            }
            for g in generators {
                out.push(&g.target);
                out.push(&g.iter);
                out.extend(g.ifs.iter());
            }
            out
        }
        ExprKind::Yield(inner) => inner.iter().map(|b| b.as_ref()).collect(),
    }
}

/// Iterates `root` and all transitive sub-expressions breadth-first.
pub fn bfs_exprs(root: &Expr) -> impl Iterator<Item = &Expr> {
    let mut queue: VecDeque<&Expr> = VecDeque::new();
    queue.push_back(root);
    std::iter::from_fn(move || {
        let next = queue.pop_front()?;
        queue.extend(expr_children(next));
        Some(next)
    })
}

/// Calls `f` on every expression reachable from `stmts` (pre-order,
/// including expressions nested in sub-statements).
pub fn walk_exprs<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Expr)) {
    struct W<'f, 'a> {
        f: &'f mut dyn FnMut(&'a Expr),
    }
    // A manual pre-order walk that lends out `'a` references (the `Visit`
    // trait cannot, because its hooks take fresh lifetimes).
    fn expr<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
        f(e);
        for c in expr_children(e) {
            expr(c, f);
        }
    }
    fn stmts_walk<'a>(body: &'a [Stmt], w: &mut W<'_, 'a>) {
        for s in body {
            stmt(s, w);
        }
    }
    fn stmt<'a>(s: &'a Stmt, w: &mut W<'_, 'a>) {
        match &s.kind {
            StmtKind::FunctionDef(fun) => {
                for d in &fun.decorators {
                    expr(d, w.f);
                }
                for p in &fun.params {
                    if let Some(d) = &p.default {
                        expr(d, w.f);
                    }
                }
                stmts_walk(&fun.body, w);
            }
            StmtKind::ClassDef(c) => {
                for d in &c.decorators {
                    expr(d, w.f);
                }
                for b in &c.bases {
                    expr(b, w.f);
                }
                for k in &c.keywords {
                    expr(&k.value, w.f);
                }
                stmts_walk(&c.body, w);
            }
            StmtKind::If { test, body, orelse } => {
                expr(test, w.f);
                stmts_walk(body, w);
                stmts_walk(orelse, w);
            }
            StmtKind::For { target, iter, body, orelse } => {
                expr(target, w.f);
                expr(iter, w.f);
                stmts_walk(body, w);
                stmts_walk(orelse, w);
            }
            StmtKind::While { test, body, orelse } => {
                expr(test, w.f);
                stmts_walk(body, w);
                stmts_walk(orelse, w);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                stmts_walk(body, w);
                for h in handlers {
                    if let Some(t) = &h.typ {
                        expr(t, w.f);
                    }
                    stmts_walk(&h.body, w);
                }
                stmts_walk(orelse, w);
                stmts_walk(finalbody, w);
            }
            StmtKind::With { items, body } => {
                for item in items {
                    expr(&item.context, w.f);
                    if let Some(t) = &item.target {
                        expr(t, w.f);
                    }
                }
                stmts_walk(body, w);
            }
            StmtKind::Assign { targets, value } => {
                for t in targets {
                    expr(t, w.f);
                }
                expr(value, w.f);
            }
            StmtKind::AugAssign { target, value, .. } => {
                expr(target, w.f);
                expr(value, w.f);
            }
            StmtKind::Return { value } => {
                if let Some(e) = value {
                    expr(e, w.f);
                }
            }
            StmtKind::Raise { exc, cause } => {
                if let Some(e) = exc {
                    expr(e, w.f);
                }
                if let Some(e) = cause {
                    expr(e, w.f);
                }
            }
            StmtKind::Expr { value } => expr(value, w.f),
            StmtKind::Assert { test, msg } => {
                expr(test, w.f);
                if let Some(m) = msg {
                    expr(m, w.f);
                }
            }
            StmtKind::Delete { targets } => {
                for t in targets {
                    expr(t, w.f);
                }
            }
            StmtKind::Import { .. }
            | StmtKind::ImportFrom { .. }
            | StmtKind::Global { .. }
            | StmtKind::Pass
            | StmtKind::Break
            | StmtKind::Continue => {}
        }
    }
    let mut w = W { f };
    stmts_walk(stmts, &mut w);
}

/// Calls `f` on every statement reachable from `stmts` (pre-order).
pub fn walk_stmts<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match &s.kind {
            StmtKind::FunctionDef(fun) => walk_stmts(&fun.body, f),
            StmtKind::ClassDef(c) => walk_stmts(&c.body, f),
            StmtKind::If { body, orelse, .. }
            | StmtKind::For { body, orelse, .. }
            | StmtKind::While { body, orelse, .. } => {
                walk_stmts(body, f);
                walk_stmts(orelse, f);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                walk_stmts(body, f);
                for h in handlers {
                    walk_stmts(&h.body, f);
                }
                walk_stmts(orelse, f);
                walk_stmts(finalbody, f);
            }
            StmtKind::With { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

/// Calls `f` on every statement of one scope (pre-order): `stmts` and the
/// nested control-flow blocks, but NOT nested `def`/`class` bodies — those
/// are separate scopes, so their `return`s do not exit this function and
/// their assignments do not rebind its locals.
pub fn walk_shallow<'a>(stmts: &'a [Stmt], f: &mut dyn FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match &s.kind {
            StmtKind::If { body, orelse, .. }
            | StmtKind::For { body, orelse, .. }
            | StmtKind::While { body, orelse, .. } => {
                walk_shallow(body, f);
                walk_shallow(orelse, f);
            }
            StmtKind::Try { body, handlers, orelse, finalbody } => {
                walk_shallow(body, f);
                for h in handlers {
                    walk_shallow(&h.body, f);
                }
                walk_shallow(orelse, f);
                walk_shallow(finalbody, f);
            }
            StmtKind::With { body, .. } => walk_shallow(body, f),
            _ => {}
        }
    }
}

/// The expressions a statement directly owns, evaluated in the enclosing
/// scope (not those of nested statements). For a nested `def` that is its
/// decorators; for a nested `class`, its decorators and bases.
pub fn own_exprs(stmt: &Stmt) -> Vec<&Expr> {
    match &stmt.kind {
        StmtKind::Assign { targets, value } => {
            let mut v: Vec<&Expr> = targets.iter().collect();
            v.push(value);
            v
        }
        StmtKind::AugAssign { target, value, .. } => vec![target, value],
        StmtKind::If { test, .. } | StmtKind::While { test, .. } => vec![test],
        StmtKind::For { target, iter, .. } => vec![target, iter],
        StmtKind::With { items, .. } => {
            let mut v = Vec::new();
            for i in items {
                v.push(&i.context);
                if let Some(t) = &i.target {
                    v.push(t);
                }
            }
            v
        }
        StmtKind::Return { value } => value.iter().collect(),
        StmtKind::Raise { exc, cause } => exc.iter().chain(cause.iter()).collect(),
        StmtKind::Expr { value } => vec![value],
        StmtKind::Assert { test, msg } => {
            let mut v = vec![test];
            v.extend(msg.iter());
            v
        }
        StmtKind::Delete { targets } => targets.iter().collect(),
        StmtKind::FunctionDef(f) => f.decorators.iter().collect(),
        StmtKind::ClassDef(c) => c.decorators.iter().chain(c.bases.iter()).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_module};

    #[test]
    fn bfs_order_is_level_by_level() {
        // (a + b) * (c + d): BFS should see Mul, then both Adds, then leaves.
        let e = parse_expr("(a + b) * (c + d)").unwrap();
        let kinds: Vec<String> = bfs_exprs(&e)
            .map(|x| match &x.kind {
                ExprKind::BinOp { op, .. } => format!("{:?}", op),
                ExprKind::Name(n) => n.clone(),
                _ => "?".into(),
            })
            .collect();
        assert_eq!(kinds, vec!["Mul", "Add", "Add", "a", "b", "c", "d"]);
    }

    #[test]
    fn walk_exprs_sees_nested() {
        let m = parse_module("if a:\n    x = f(b.c)\n").unwrap();
        let mut names = Vec::new();
        walk_exprs(&m.body, &mut |e| {
            if let ExprKind::Name(n) = &e.kind {
                names.push(n.clone());
            }
        });
        assert_eq!(names, vec!["a", "x", "f", "b"]);
    }

    #[test]
    fn walk_stmts_counts_all() {
        let m = parse_module("def f():\n    if a:\n        pass\n    else:\n        return 1\n")
            .unwrap();
        let mut count = 0;
        walk_stmts(&m.body, &mut |_| count += 1);
        // FunctionDef, If, Pass, Return.
        assert_eq!(count, 4);
    }

    #[test]
    fn walk_shallow_stays_in_one_scope() {
        let m =
            parse_module("if a:\n    @deco\n    def f():\n        return 1\nelse:\n    x = 2\n")
                .unwrap();
        let mut owned = Vec::new();
        walk_shallow(&m.body, &mut |s| owned.push(own_exprs(s).len()));
        // If (its test), FunctionDef (its decorator), Assign (target and
        // value) — never the nested `return`.
        assert_eq!(owned, vec![1, 1, 2]);
    }

    #[test]
    fn visitor_default_recursion() {
        struct Counter {
            exprs: usize,
            stmts: usize,
        }
        impl Visit for Counter {
            fn visit_stmt(&mut self, s: &Stmt) {
                self.stmts += 1;
                walk_stmt(self, s);
            }
            fn visit_expr(&mut self, e: &Expr) {
                self.exprs += 1;
                walk_expr(self, e);
            }
        }
        let m = parse_module("x = a + b\n").unwrap();
        let mut c = Counter { exprs: 0, stmts: 0 };
        for s in &m.body {
            c.visit_stmt(s);
        }
        assert_eq!(c.stmts, 1);
        // x, a+b, a, b
        assert_eq!(c.exprs, 4);
    }

    #[test]
    fn expr_children_comprehension() {
        let e = parse_expr("[x for x in rows if x.ok]").unwrap();
        // element, target, iter, if
        assert_eq!(expr_children(&e).len(), 4);
    }

    #[test]
    fn walk_exprs_covers_try_and_with() {
        let m = parse_module(
            "try:\n    a\nexcept E as x:\n    b\nfinally:\n    c\nwith ctx() as t:\n    d\n",
        )
        .unwrap();
        let mut names = Vec::new();
        walk_exprs(&m.body, &mut |e| {
            if let ExprKind::Name(n) = &e.kind {
                names.push(n.clone());
            }
        });
        for expected in ["a", "E", "b", "c", "ctx", "t", "d"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected} in {names:?}");
        }
    }
}
