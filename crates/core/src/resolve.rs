//! Table identification (§3.5.1) and column extraction (§3.5.2).
//!
//! Given an expression like `to_wishlist.lines.filter(product=product)`,
//! the resolver determines which model (table) it denotes and which columns
//! a query over it constrains:
//!
//! 1. **Use-def chains** handle dynamic typing: `to_wishlist` is traced to
//!    its definition `WishList.objects.get(key=…)`, which returns a
//!    `WishList` instance.
//! 2. **Field-access chains** are walked with model metadata: `.lines` is a
//!    reverse foreign-key manager, so the final table is `WishListLine` —
//!    and the access implicitly filters on the FK column `wishlist`, which
//!    is why the inferred unique constraint is composite
//!    `(wishlist, product)`.
//! 3. **Fixed-value filters** (`filter(valid=True)`) become partial-unique
//!    conditions.
//!
//! The resolver is intra-procedural and alias-unaware, like the paper's.

use cfinder_flow::{DefKind, UseDefChains};
use cfinder_pyast::ast::{Constant, Expr, ExprKind, Keyword, NodeId};
use cfinder_schema::Literal;

use crate::models::{FieldKind, ModelRegistry};
use crate::syntax::api;

/// Maximum use-def hops while resolving a name, to bound pathological
/// chains.
const MAX_DEPTH: u32 = 16;

/// A column constrained by a query, with an optional fixed literal value
/// (`filter(valid=True)` → `valid` fixed to `TRUE`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColBinding {
    /// Column (field) name.
    pub column: String,
    /// Fixed literal, when the filter compares against a constant.
    pub fixed: Option<Literal>,
    /// True when the binding comes from an implicit related-manager join
    /// rather than an explicit keyword argument.
    pub implicit: bool,
}

impl ColBinding {
    fn explicit(column: impl Into<String>, fixed: Option<Literal>) -> Self {
        ColBinding { column: column.into(), fixed, implicit: false }
    }

    fn implicit_join(column: impl Into<String>) -> Self {
        ColBinding { column: column.into(), fixed: None, implicit: true }
    }
}

/// What an expression denotes, model-wise.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolution {
    /// The model class object itself.
    Class(String),
    /// A manager or queryset over a model, with accumulated column
    /// bindings (implicit joins + filter kwargs).
    Query {
        /// Model class name.
        model: String,
        /// Constrained columns, in accumulation order.
        cols: Vec<ColBinding>,
    },
    /// A single model instance.
    Instance(String),
    /// `instance.field` where `field` is a scalar column.
    Field {
        /// Model class name.
        model: String,
        /// Field name.
        field: String,
    },
}

impl Resolution {
    /// The model this resolution is about.
    pub fn model(&self) -> &str {
        match self {
            Resolution::Class(m)
            | Resolution::Instance(m)
            | Resolution::Query { model: m, .. }
            | Resolution::Field { model: m, .. } => m,
        }
    }
}

/// Expression resolver for one function body.
pub struct Resolver<'a> {
    registry: &'a ModelRegistry,
    chains: &'a UseDefChains<'a>,
    /// Enclosing model class, for `self` (None outside model methods).
    self_model: Option<String>,
    /// Top-level `resolve` calls served, for the observability layer
    /// (`Cell`: a resolver lives on exactly one worker thread).
    resolutions: std::cell::Cell<u64>,
}

impl<'a> Resolver<'a> {
    /// Creates a resolver.
    ///
    /// `self_model` names the enclosing class when the body is a method of
    /// a model class, binding `self`.
    pub fn new(
        registry: &'a ModelRegistry,
        chains: &'a UseDefChains<'a>,
        self_model: Option<String>,
    ) -> Self {
        Resolver { registry, chains, self_model, resolutions: std::cell::Cell::new(0) }
    }

    /// The model registry in use.
    pub fn registry(&self) -> &ModelRegistry {
        self.registry
    }

    /// Number of top-level [`Resolver::resolve`] calls served so far —
    /// a deterministic proxy for data-dependency work, exported as the
    /// `cfinder_resolutions_total` metric.
    pub fn resolution_count(&self) -> u64 {
        self.resolutions.get()
    }

    /// Resolves `expr` as used in the statement `at`.
    pub fn resolve(&self, expr: &Expr, at: NodeId) -> Option<Resolution> {
        self.resolutions.set(self.resolutions.get() + 1);
        self.resolve_depth(expr, at, 0)
    }

    /// Resolves a dotted access path (e.g. `["self", "creator"]`) as used in
    /// the statement `at`. Used by detectors that work with
    /// [`cfinder_flow::AccessPath`]s rather than expressions.
    pub fn resolve_path(&self, parts: &[String], at: NodeId) -> Option<Resolution> {
        let (first, rest) = parts.split_first()?;
        let mut res = self.resolve_name(first, at, 0)?;
        for attr in rest {
            res = self.resolve_attr(res, attr)?;
        }
        Some(res)
    }

    fn resolve_depth(&self, expr: &Expr, at: NodeId, depth: u32) -> Option<Resolution> {
        if depth > MAX_DEPTH {
            return None;
        }
        match &expr.kind {
            ExprKind::Name(name) => self.resolve_name(name, at, depth),
            ExprKind::Attribute { value, attr } => {
                let base = self.resolve_depth(value, at, depth + 1)?;
                self.resolve_attr(base, attr)
            }
            ExprKind::Call { func, args, keywords } => {
                self.resolve_call(func, args, keywords, at, depth)
            }
            _ => None,
        }
    }

    fn resolve_name(&self, name: &str, at: NodeId, depth: u32) -> Option<Resolution> {
        if self.registry.is_model(name) {
            return Some(Resolution::Class(name.to_string()));
        }
        if name == "self" {
            return self.self_model.clone().map(Resolution::Instance);
        }
        // Walk the use-def chain; only an unambiguous definition resolves
        // (two conflicting defs would make the type unknown).
        let def = self.chains.unique_def_of(at, name)?;
        match &def.kind {
            DefKind::Assign(rhs) => {
                let def_at = def.stmt.unwrap_or(at);
                self.resolve_depth(rhs, def_at, depth + 1)
            }
            DefKind::ForTarget(iter) => {
                let def_at = def.stmt.unwrap_or(at);
                // Iterating a queryset yields instances.
                match self.resolve_depth(iter, def_at, depth + 1)? {
                    Resolution::Query { model, .. } => Some(Resolution::Instance(model)),
                    _ => None,
                }
            }
            DefKind::WithAs(_) | DefKind::Param | DefKind::Import | DefKind::AugAssign(_) => None,
        }
    }

    fn resolve_attr(&self, base: Resolution, attr: &str) -> Option<Resolution> {
        match base {
            Resolution::Class(model) => {
                if attr == "objects" || attr.ends_with("_manager") || attr == "_default_manager" {
                    return Some(Resolution::Query { model, cols: Vec::new() });
                }
                None
            }
            Resolution::Instance(model) => {
                // The implicit surrogate primary key.
                if attr == "id" || attr == "pk" {
                    return Some(Resolution::Field { model, field: "id".to_string() });
                }
                // A declared field?
                if let Some((owner, field)) = self.registry.field_of(&model, attr) {
                    let owner_name = owner.name.clone();
                    return match &field.kind {
                        FieldKind::ForeignKey { to, .. } => {
                            // Instance access across the FK: new instance.
                            // Raw-id access (`x.voucher_id`) is the scalar
                            // column instead.
                            if attr.ends_with("_id") && field.name != attr {
                                Some(Resolution::Field {
                                    model: owner_name,
                                    field: attr.to_string(),
                                })
                            } else {
                                Some(Resolution::Instance(to.clone()))
                            }
                        }
                        FieldKind::Scalar(_) => {
                            Some(Resolution::Field { model: owner_name, field: attr.to_string() })
                        }
                    };
                }
                // A reverse relation (related manager)?
                if let Some((related_model, fk_field)) =
                    self.registry.reverse_relation(&model, attr)
                {
                    return Some(Resolution::Query {
                        model: related_model.to_string(),
                        cols: vec![ColBinding::implicit_join(fk_field)],
                    });
                }
                None
            }
            Resolution::Query { .. } | Resolution::Field { .. } => None,
        }
    }

    fn resolve_call(
        &self,
        func: &Expr,
        args: &[Expr],
        keywords: &[Keyword],
        at: NodeId,
        depth: u32,
    ) -> Option<Resolution> {
        // Free functions: `get_object_or_404(Model, col=v)`.
        if let ExprKind::Name(fname) = &func.kind {
            if matches!(fname.as_str(), "get_object_or_404" | "get_obj_or_404") {
                let first = args.first()?;
                if let Some(Resolution::Class(model)) = self.resolve_depth(first, at, depth + 1) {
                    return Some(Resolution::Instance(model));
                }
                return None;
            }
            // Constructor call: `WishListLine(...)`.
            if self.registry.is_model(fname) {
                return Some(Resolution::Instance(fname.clone()));
            }
            return None;
        }
        // Method calls.
        let ExprKind::Attribute { value: recv, attr: method } = &func.kind else {
            return None;
        };
        let base = self.resolve_depth(recv, at, depth + 1)?;
        match base {
            Resolution::Query { model, mut cols } => {
                let method = method.as_str();
                if api::FILTER.contains(&method) {
                    cols.extend(kwarg_bindings(keywords));
                    Some(Resolution::Query { model, cols })
                } else if method == "all"
                    || method == "order_by"
                    || method == "distinct"
                    || method == "select_related"
                    || method == "prefetch_related"
                {
                    Some(Resolution::Query { model, cols })
                } else if api::UNIQUE_GET.contains(&method) || api::FIRST.contains(&method) {
                    Some(Resolution::Instance(model))
                } else if api::SAVE.contains(&method) {
                    // create()/update() act on the same table.
                    Some(Resolution::Query { model, cols })
                } else {
                    None
                }
            }
            Resolution::Instance(model) => {
                if method == "save" || method == "delete" || method == "refresh_from_db" {
                    Some(Resolution::Instance(model))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// Extracts column bindings from call keyword arguments.
///
/// Django lookup suffixes (`email__iexact=…`) constrain the first segment's
/// column; `**kwargs` splats are opaque and skipped.
pub fn kwarg_bindings(keywords: &[Keyword]) -> Vec<ColBinding> {
    keywords
        .iter()
        .filter_map(|k| {
            let name = k.name.as_deref()?;
            let column = name.split("__").next().unwrap_or(name);
            let fixed = binding_literal_of(&k.value);
            Some(ColBinding::explicit(column, fixed))
        })
        .collect()
}

/// A constant keyword binding (`active=True`, `default=None`) as a schema
/// literal. Unlike a guard literal, `None` is a value here (`Null`) and
/// there is no unary minus.
pub fn binding_literal_of(expr: &Expr) -> Option<Literal> {
    match &expr.kind {
        ExprKind::Constant(Constant::Int(n)) => Some(Literal::Int(*n)),
        ExprKind::Constant(Constant::Str(s)) => Some(Literal::Str(s.clone())),
        ExprKind::Constant(Constant::Bool(b)) => Some(Literal::Bool(*b)),
        ExprKind::Constant(Constant::None) => Some(Literal::Null),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::ast::{Stmt, StmtKind};
    use cfinder_pyast::parse_module;

    const MODELS: &str = r#"
class WishList(models.Model):
    key = models.CharField(max_length=16)
    owner = models.CharField(max_length=64)


class Product(models.Model):
    title = models.CharField(max_length=100)


class WishListLine(models.Model):
    wishlist = models.ForeignKey(WishList, related_name='lines')
    product = models.ForeignKey(Product, null=True)
    quantity = models.IntegerField(default=1)
"#;

    fn registry() -> ModelRegistry {
        let m = parse_module(MODELS).unwrap();
        let mut r = ModelRegistry::new();
        r.add_module(&m, "models.py");
        r
    }

    /// Resolves the RHS value of the last assignment in `body_src`.
    fn resolve_last(
        registry: &ModelRegistry,
        body_src: &str,
        self_model: Option<&str>,
    ) -> Option<Resolution> {
        let m = Box::leak(Box::new(parse_module(body_src).unwrap()));
        let chains = Box::leak(Box::new(UseDefChains::compute(&m.body, &[])));
        let resolver = Resolver::new(registry, chains, self_model.map(String::from));
        let last: &Stmt = m.body.last().unwrap();
        let StmtKind::Assign { value, .. } = &last.kind else { panic!("expected assign") };
        resolver.resolve(value, last.id)
    }

    #[test]
    fn model_class_resolves() {
        let r = registry();
        let res = resolve_last(&r, "x = WishList\n", None).unwrap();
        assert_eq!(res, Resolution::Class("WishList".into()));
    }

    #[test]
    fn objects_manager_is_query() {
        let r = registry();
        let res = resolve_last(&r, "x = WishList.objects\n", None).unwrap();
        assert_eq!(res, Resolution::Query { model: "WishList".into(), cols: vec![] });
    }

    #[test]
    fn get_returns_instance_through_use_def() {
        let r = registry();
        let res = resolve_last(
            &r,
            "to_wishlist = WishList.objects.get(key=key)\nx = to_wishlist\n",
            None,
        )
        .unwrap();
        assert_eq!(res, Resolution::Instance("WishList".into()));
    }

    #[test]
    fn related_manager_carries_implicit_join() {
        let r = registry();
        let res =
            resolve_last(&r, "wl = WishList.objects.get(key=key)\nx = wl.lines\n", None).unwrap();
        let Resolution::Query { model, cols } = res else { panic!() };
        assert_eq!(model, "WishListLine");
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].column, "wishlist");
        assert!(cols[0].implicit);
    }

    #[test]
    fn filter_accumulates_columns_after_join() {
        // The paper's running example: wl.lines.filter(product=product)
        // constrains (wishlist, product).
        let r = registry();
        let res = resolve_last(
            &r,
            "wl = WishList.objects.get(key=key)\nx = wl.lines.filter(product=product)\n",
            None,
        )
        .unwrap();
        let Resolution::Query { model, cols } = res else { panic!() };
        assert_eq!(model, "WishListLine");
        let names: Vec<&str> = cols.iter().map(|c| c.column.as_str()).collect();
        assert_eq!(names, vec!["wishlist", "product"]);
    }

    #[test]
    fn fixed_value_filter_binding() {
        let r = registry();
        let res =
            resolve_last(&r, "x = WishListLine.objects.filter(quantity=1, product=p)\n", None)
                .unwrap();
        let Resolution::Query { cols, .. } = res else { panic!() };
        assert_eq!(cols[0].fixed, Some(Literal::Int(1)));
        assert_eq!(cols[1].fixed, None);
    }

    #[test]
    fn lookup_suffix_stripped() {
        let r = registry();
        let res = resolve_last(&r, "x = WishList.objects.filter(key__iexact=k)\n", None).unwrap();
        let Resolution::Query { cols, .. } = res else { panic!() };
        assert_eq!(cols[0].column, "key");
    }

    #[test]
    fn self_resolves_in_model_method() {
        let r = registry();
        let res = resolve_last(&r, "x = self.quantity\n", Some("WishListLine")).unwrap();
        assert_eq!(
            res,
            Resolution::Field { model: "WishListLine".into(), field: "quantity".into() }
        );
    }

    #[test]
    fn fk_instance_access_crosses_tables() {
        let r = registry();
        let res =
            resolve_last(&r, "line = WishListLine.objects.get(pk=pk)\nx = line.product\n", None)
                .unwrap();
        assert_eq!(res, Resolution::Instance("Product".into()));
        // …and further field access lands on the other table.
        let res = resolve_last(
            &r,
            "line = WishListLine.objects.get(pk=pk)\nx = line.product.title\n",
            None,
        )
        .unwrap();
        assert_eq!(res, Resolution::Field { model: "Product".into(), field: "title".into() });
    }

    #[test]
    fn fk_raw_id_is_field() {
        let r = registry();
        let res =
            resolve_last(&r, "line = WishListLine.objects.get(pk=pk)\nx = line.product_id\n", None)
                .unwrap();
        assert_eq!(
            res,
            Resolution::Field { model: "WishListLine".into(), field: "product_id".into() }
        );
    }

    #[test]
    fn for_loop_target_is_instance() {
        let r = registry();
        let m = Box::leak(Box::new(
            parse_module("for line in WishListLine.objects.all():\n    x = line\n").unwrap(),
        ));
        let chains = Box::leak(Box::new(UseDefChains::compute(&m.body, &[])));
        let resolver = Resolver::new(&r, chains, None);
        let StmtKind::For { body, .. } = &m.body[0].kind else { panic!() };
        let StmtKind::Assign { value, .. } = &body[0].kind else { panic!() };
        let res = resolver.resolve(value, body[0].id).unwrap();
        assert_eq!(res, Resolution::Instance("WishListLine".into()));
    }

    #[test]
    fn ambiguous_defs_do_not_resolve() {
        let r = registry();
        let res = resolve_last(
            &r,
            "if c:\n    x = WishList.objects.get(pk=1)\nelse:\n    x = Product.objects.get(pk=1)\ny = x\n",
            None,
        );
        assert!(res.is_none(), "conflicting defs must not resolve, got {res:?}");
    }

    #[test]
    fn params_do_not_resolve() {
        let r = registry();
        let m = Box::leak(Box::new(parse_module("y = request\n").unwrap()));
        let chains = Box::leak(Box::new(UseDefChains::compute(&m.body, &["request".to_string()])));
        let resolver = Resolver::new(&r, chains, None);
        let StmtKind::Assign { value, .. } = &m.body[0].kind else { panic!() };
        assert!(resolver.resolve(value, m.body[0].id).is_none());
    }

    #[test]
    fn constructor_call_is_instance() {
        let r = registry();
        let res = resolve_last(&r, "x = WishListLine(wishlist=wl, product=p)\n", None).unwrap();
        assert_eq!(res, Resolution::Instance("WishListLine".into()));
    }

    #[test]
    fn get_object_or_404_free_function() {
        let r = registry();
        let res = resolve_last(&r, "x = get_object_or_404(Product, pk=pk)\n", None).unwrap();
        assert_eq!(res, Resolution::Instance("Product".into()));
    }

    #[test]
    fn unknown_names_do_not_resolve() {
        let r = registry();
        assert!(resolve_last(&r, "x = mystery\n", None).is_none());
        assert!(resolve_last(&r, "x = mystery.objects.filter(a=1)\n", None).is_none());
    }

    #[test]
    fn first_returns_instance() {
        let r = registry();
        let res = resolve_last(&r, "x = WishList.objects.filter(key=k).first()\n", None).unwrap();
        assert_eq!(res, Resolution::Instance("WishList".into()));
    }
}
