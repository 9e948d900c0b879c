//! Django model extraction.
//!
//! CFinder needs the application's model metadata for two jobs:
//!
//! 1. **Table identification** (§3.5.1): resolving variables to model
//!    classes and following chains of field accesses across foreign-key
//!    references ("`to_wishlist.lines` retrieves the instance of a
//!    `WishListLine` class through the foreign key reference").
//! 2. **Pattern PA_n3** (field with default value): fields declared with a
//!    `default=` imply not-null unless code explicitly assigns `None`.
//!
//! This module parses `class X(models.Model)` definitions — field
//! declarations with their options, `Meta.unique_together`,
//! `Meta.constraints` with `UniqueConstraint`, and `abstract` flags — into a
//! [`ModelRegistry`].

use std::collections::BTreeMap;

use cfinder_pyast::ast::{ClassDef, Constant, Expr, ExprKind, Keyword, StmtKind};
use cfinder_pyast::Module;
use cfinder_schema::{ColumnType, Literal};
use serde::{Deserialize, Serialize};

/// How a model field maps to a column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FieldKind {
    /// A scalar column of the given type.
    Scalar(ColumnType),
    /// `ForeignKey` / `OneToOneField` to another model; the column is
    /// `<name>_id` in the database, but Django code addresses both `name`
    /// (the instance) and `name_id` (the raw key).
    ForeignKey {
        /// Target model class name.
        to: String,
        /// `related_name` for the reverse manager, if declared.
        related_name: Option<String>,
        /// True for `OneToOneField` (implies unique).
        one_to_one: bool,
    },
}

/// One declared model field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldInfo {
    /// Field (attribute) name as used in Python code.
    pub name: String,
    /// Column kind.
    pub kind: FieldKind,
    /// `null=True` was declared.
    pub null: bool,
    /// `unique=True` was declared.
    pub unique: bool,
    /// `default=` literal, when present and literal-valued.
    pub default: Option<Literal>,
    /// A `default=` of *any* form (including callables) was declared.
    pub has_default: bool,
}

impl FieldInfo {
    /// The database column name (`<name>_id` for foreign keys).
    pub fn column_name(&self) -> String {
        match &self.kind {
            FieldKind::ForeignKey { .. } => format!("{}_id", self.name),
            FieldKind::Scalar(_) => self.name.clone(),
        }
    }
}

/// One extracted class with model-shaped metadata.
///
/// Extraction is purely file-local ([`extract_classes`]), so these facts
/// are what the incremental analysis cache persists per file; whether a
/// class actually *is* a model (its base-class chain reaches
/// `models.Model`, possibly through classes defined in other files) is
/// decided later, when [`ModelRegistry::add_classes`] folds the per-file
/// facts together in file order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Class name; also used as the table name in reports, matching the
    /// paper's presentation (`WishListLine Unique (wishlist, product)`).
    pub name: String,
    /// Declared fields, in source order.
    pub fields: Vec<FieldInfo>,
    /// `Meta.unique_together` column groups.
    pub unique_together: Vec<Vec<String>>,
    /// `Meta.abstract = True` (no table exists for this class).
    pub abstract_model: bool,
    /// Base-class names (for inheritance-aware resolution).
    pub bases: Vec<String>,
    /// Source file the class was extracted from.
    pub file: String,
}

impl ModelInfo {
    /// Looks up a field by its Python attribute name.
    pub fn field(&self, name: &str) -> Option<&FieldInfo> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Looks up a field by either its attribute name or its `_id` column
    /// name (`voucher` or `voucher_id`).
    pub fn field_by_any_name(&self, name: &str) -> Option<&FieldInfo> {
        self.field(name).or_else(|| {
            name.strip_suffix("_id").and_then(|base| {
                self.field(base).filter(|f| matches!(f.kind, FieldKind::ForeignKey { .. }))
            })
        })
    }
}

/// All models of an application, plus reverse-relation lookup tables.
#[derive(Debug, Clone, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, ModelInfo>,
    /// (model, related_name) → (related model, fk field on the related model).
    reverse: BTreeMap<(String, String), (String, String)>,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts models from a parsed module and adds them. Equivalent to
    /// [`extract_classes`] followed by [`ModelRegistry::add_classes`].
    pub fn add_module(&mut self, module: &Module, file: &str) {
        self.add_classes(&extract_classes(module, file));
    }

    /// Folds file-local class facts into the registry, applying the
    /// is-a-model gate against the registry state accumulated so far
    /// (classes inherit model-ness from bases defined in earlier files or
    /// earlier in the same file, exactly as serial [`add_module`]
    /// extraction resolved it).
    ///
    /// [`add_module`]: ModelRegistry::add_module
    pub fn add_classes(&mut self, classes: &[ModelInfo]) {
        for info in classes {
            let is_model = info.bases.iter().any(|b| {
                b == "Model"
                    || b.ends_with("Model")
                    || b.ends_with("Mixin") && self.is_model(b)
                    || self.is_model(b)
            });
            if is_model {
                self.insert(info.clone());
            }
        }
    }

    fn insert(&mut self, info: ModelInfo) {
        for f in &info.fields {
            if let FieldKind::ForeignKey { to, related_name: Some(rn), .. } = &f.kind {
                self.reverse.insert((to.clone(), rn.clone()), (info.name.clone(), f.name.clone()));
            }
        }
        self.models.insert(info.name.clone(), info);
    }

    /// Looks up a model by class name.
    pub fn model(&self, name: &str) -> Option<&ModelInfo> {
        self.models.get(name)
    }

    /// True if the name denotes a known model class.
    pub fn is_model(&self, name: &str) -> bool {
        self.models.contains_key(name)
    }

    /// Iterates models in name order.
    pub fn models(&self) -> impl Iterator<Item = &ModelInfo> {
        self.models.values()
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no models were extracted.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Total number of fields across every model — the
    /// `cfinder_model_fields_total` metric.
    pub fn field_count(&self) -> usize {
        self.models.values().map(|m| m.fields.len()).sum()
    }

    /// Resolves a field on a model, walking base classes (single
    /// inheritance chains; first match wins).
    pub fn field_of(&self, model: &str, field: &str) -> Option<(&ModelInfo, &FieldInfo)> {
        let mut current = self.models.get(model)?;
        loop {
            if let Some(f) = current.field_by_any_name(field) {
                return Some((current, f));
            }
            let next = current.bases.iter().find_map(|b| self.models.get(b.as_str()))?;
            if std::ptr::eq(next, current) {
                return None;
            }
            current = next;
        }
    }

    /// Resolves a reverse relation: `(model, related_name)` →
    /// `(related model, fk field name on the related model)`.
    pub fn reverse_relation(&self, model: &str, related_name: &str) -> Option<(&str, &str)> {
        self.reverse
            .get(&(model.to_string(), related_name.to_string()))
            .map(|(m, f)| (m.as_str(), f.as_str()))
    }
}

/// Extracts the model-shaped facts of every top-level class in a module —
/// the file-local half of model extraction. No is-a-model judgement is
/// made here (that needs cross-file registry state); classes without
/// model-like bases simply carry empty or irrelevant facts and are
/// filtered out by [`ModelRegistry::add_classes`]. Being file-local and
/// deterministic, this is exactly the shape the incremental analysis
/// cache persists per file.
pub fn extract_classes(module: &Module, file: &str) -> Vec<ModelInfo> {
    module
        .body
        .iter()
        .filter_map(|stmt| match &stmt.kind {
            StmtKind::ClassDef(class) => Some(extract_class(class, file)),
            _ => None,
        })
        .collect()
}

/// Extracts one class definition's model-shaped facts unconditionally.
fn extract_class(class: &ClassDef, file: &str) -> ModelInfo {
    let bases: Vec<String> = class
        .bases
        .iter()
        .filter_map(|b| {
            b.dotted_chain().map(|(root, chain)| chain.last().copied().unwrap_or(root).to_string())
        })
        .collect();

    let mut fields = Vec::new();
    let mut unique_together = Vec::new();
    let mut abstract_model = false;

    for stmt in &class.body {
        match &stmt.kind {
            StmtKind::Assign { targets, value } => {
                let Some(name) = targets.first().and_then(Expr::as_name) else { continue };
                if let Some(field) = extract_field(name, value) {
                    fields.push(field);
                }
            }
            StmtKind::ClassDef(meta) if meta.name == "Meta" => {
                for ms in &meta.body {
                    if let StmtKind::Assign { targets, value } = &ms.kind {
                        match targets.first().and_then(Expr::as_name) {
                            Some("unique_together") => {
                                unique_together.extend(extract_unique_together(value));
                            }
                            Some("abstract") => {
                                abstract_model =
                                    matches!(value.kind, ExprKind::Constant(Constant::Bool(true)));
                            }
                            Some("constraints") => {
                                unique_together.extend(extract_constraints_list(value));
                            }
                            _ => {}
                        }
                    }
                }
            }
            _ => {}
        }
    }

    ModelInfo {
        name: class.name.clone(),
        fields,
        unique_together,
        abstract_model,
        bases,
        file: file.to_string(),
    }
}

/// Parses a field declaration RHS: `models.CharField(max_length=10, …)`.
fn extract_field(name: &str, value: &Expr) -> Option<FieldInfo> {
    let ExprKind::Call { func, args, keywords } = &value.kind else { return None };
    let (root, chain) = func.dotted_chain()?;
    let field_ty = chain.last().copied().unwrap_or(root);

    let null = kw_bool(keywords, "null");
    let unique = kw_bool(keywords, "unique");
    let (default, has_default) = kw_default(keywords);

    let kind = match field_ty {
        "ForeignKey" | "OneToOneField" => {
            let to = args.first().and_then(target_model_name)?;
            FieldKind::ForeignKey {
                to,
                related_name: kw_str(keywords, "related_name"),
                one_to_one: field_ty == "OneToOneField",
            }
        }
        "CharField" | "SlugField" | "EmailField" | "URLField" => {
            let max = keywords
                .iter()
                .find(|k| k.name.as_deref() == Some("max_length"))
                .and_then(|k| match k.value.kind {
                    ExprKind::Constant(Constant::Int(n)) => Some(n as u32),
                    _ => None,
                })
                .unwrap_or(255);
            FieldKind::Scalar(ColumnType::VarChar(max))
        }
        "TextField" => FieldKind::Scalar(ColumnType::Text),
        "IntegerField" | "PositiveIntegerField" | "SmallIntegerField" => {
            FieldKind::Scalar(ColumnType::Integer)
        }
        "BigIntegerField" | "AutoField" | "BigAutoField" => FieldKind::Scalar(ColumnType::BigInt),
        "FloatField" => FieldKind::Scalar(ColumnType::Float),
        "DecimalField" => {
            let digits = kw_int(keywords, "max_digits").unwrap_or(12) as u8;
            let places = kw_int(keywords, "decimal_places").unwrap_or(2) as u8;
            FieldKind::Scalar(ColumnType::Decimal(digits, places))
        }
        "BooleanField" => FieldKind::Scalar(ColumnType::Boolean),
        "DateTimeField" => FieldKind::Scalar(ColumnType::DateTime),
        "DateField" => FieldKind::Scalar(ColumnType::Date),
        "JSONField" => FieldKind::Scalar(ColumnType::Json),
        _ => return None,
    };

    Some(FieldInfo { name: name.to_string(), kind, null, unique, default, has_default })
}

/// The target of a ForeignKey first argument: `Order`, `'Order'`, or
/// `'app.Order'`.
fn target_model_name(expr: &Expr) -> Option<String> {
    match &expr.kind {
        ExprKind::Name(n) => Some(n.clone()),
        ExprKind::Constant(Constant::Str(s)) => Some(s.rsplit('.').next().unwrap_or(s).to_string()),
        ExprKind::Attribute { .. } => {
            expr.dotted_chain().map(|(_, chain)| chain.last().unwrap().to_string())
        }
        _ => None,
    }
}

fn kw_bool(keywords: &[Keyword], name: &str) -> bool {
    keywords.iter().any(|k| {
        k.name.as_deref() == Some(name)
            && matches!(k.value.kind, ExprKind::Constant(Constant::Bool(true)))
    })
}

fn kw_int(keywords: &[Keyword], name: &str) -> Option<i64> {
    keywords.iter().find(|k| k.name.as_deref() == Some(name)).and_then(|k| match k.value.kind {
        ExprKind::Constant(Constant::Int(n)) => Some(n),
        _ => None,
    })
}

fn kw_str(keywords: &[Keyword], name: &str) -> Option<String> {
    keywords.iter().find(|k| k.name.as_deref() == Some(name)).and_then(|k| match &k.value.kind {
        ExprKind::Constant(Constant::Str(s)) => Some(s.clone()),
        _ => None,
    })
}

fn kw_default(keywords: &[Keyword]) -> (Option<Literal>, bool) {
    let Some(k) = keywords.iter().find(|k| k.name.as_deref() == Some("default")) else {
        return (None, false);
    };
    // `None` for a callable/complex default.
    (crate::resolve::binding_literal_of(&k.value), true)
}

/// `unique_together = ('a', 'b')` or `(('a', 'b'), ('c', 'd'))` or lists.
fn extract_unique_together(value: &Expr) -> Vec<Vec<String>> {
    let elems = match &value.kind {
        ExprKind::Tuple(v) | ExprKind::List(v) => v,
        _ => return Vec::new(),
    };
    // Single flat group of strings?
    if elems.iter().all(|e| e.as_str().is_some()) {
        let group: Vec<String> =
            elems.iter().filter_map(|e| e.as_str()).map(String::from).collect();
        return if group.is_empty() { Vec::new() } else { vec![group] };
    }
    // Nested groups.
    elems
        .iter()
        .filter_map(|e| match &e.kind {
            ExprKind::Tuple(inner) | ExprKind::List(inner) => {
                let group: Vec<String> =
                    inner.iter().filter_map(|x| x.as_str()).map(String::from).collect();
                (!group.is_empty()).then_some(group)
            }
            _ => None,
        })
        .collect()
}

/// `constraints = [models.UniqueConstraint(fields=['a','b'], name='…')]`.
fn extract_constraints_list(value: &Expr) -> Vec<Vec<String>> {
    let ExprKind::List(items) = &value.kind else { return Vec::new() };
    items
        .iter()
        .filter_map(|item| {
            let ExprKind::Call { func, keywords, .. } = &item.kind else { return None };
            let (root, chain) = func.dotted_chain()?;
            if chain.last().copied().unwrap_or(root) != "UniqueConstraint" {
                return None;
            }
            let fields = keywords.iter().find(|k| k.name.as_deref() == Some("fields"))?;
            match &fields.value.kind {
                ExprKind::List(v) | ExprKind::Tuple(v) => {
                    let group: Vec<String> =
                        v.iter().filter_map(|x| x.as_str()).map(String::from).collect();
                    (!group.is_empty()).then_some(group)
                }
                _ => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_pyast::parse_module;

    fn registry_of(src: &str) -> ModelRegistry {
        let m = parse_module(src).unwrap();
        let mut r = ModelRegistry::new();
        r.add_module(&m, "models.py");
        r
    }

    const SHOP: &str = r#"
from django.db import models


class Product(models.Model):
    title = models.CharField(max_length=200)
    sku = models.CharField(max_length=64, unique=True)
    price = models.DecimalField(max_digits=12, decimal_places=2)


class Order(models.Model):
    number = models.CharField(max_length=32)
    total = models.DecimalField(max_digits=12, decimal_places=2, null=True)
    status = models.CharField(max_length=16, default='new')
    placed_at = models.DateTimeField()


class OrderLine(models.Model):
    order = models.ForeignKey(Order, on_delete=models.CASCADE, related_name='lines')
    product = models.ForeignKey('catalogue.Product', null=True, on_delete=models.SET_NULL)
    quantity = models.IntegerField(default=1)

    class Meta:
        unique_together = ('order', 'product')
"#;

    #[test]
    fn extracts_models_and_fields() {
        let r = registry_of(SHOP);
        assert_eq!(r.len(), 3);
        let order = r.model("Order").unwrap();
        assert_eq!(order.fields.len(), 4);
        let total = order.field("total").unwrap();
        assert!(total.null);
        assert!(!total.unique);
        assert_eq!(total.kind, FieldKind::Scalar(ColumnType::Decimal(12, 2)));
    }

    #[test]
    fn default_literal_captured() {
        let r = registry_of(SHOP);
        let status = r.model("Order").unwrap().field("status").unwrap();
        assert!(status.has_default);
        assert_eq!(status.default, Some(Literal::Str("new".into())));
        let qty = r.model("OrderLine").unwrap().field("quantity").unwrap();
        assert_eq!(qty.default, Some(Literal::Int(1)));
    }

    #[test]
    fn foreign_key_targets_and_related_names() {
        let r = registry_of(SHOP);
        let line = r.model("OrderLine").unwrap();
        let order_fk = line.field("order").unwrap();
        assert_eq!(
            order_fk.kind,
            FieldKind::ForeignKey {
                to: "Order".into(),
                related_name: Some("lines".into()),
                one_to_one: false
            }
        );
        // String target with app prefix resolves to the class name.
        let product_fk = line.field("product").unwrap();
        assert!(matches!(&product_fk.kind, FieldKind::ForeignKey { to, .. } if to == "Product"));
        assert_eq!(order_fk.column_name(), "order_id");
    }

    #[test]
    fn reverse_relation_lookup() {
        let r = registry_of(SHOP);
        let (model, fk) = r.reverse_relation("Order", "lines").unwrap();
        assert_eq!(model, "OrderLine");
        assert_eq!(fk, "order");
        assert!(r.reverse_relation("Order", "ghost").is_none());
    }

    #[test]
    fn unique_together_flat_tuple() {
        let r = registry_of(SHOP);
        assert_eq!(
            r.model("OrderLine").unwrap().unique_together,
            vec![vec!["order".to_string(), "product".to_string()]]
        );
    }

    #[test]
    fn unique_together_nested() {
        let r = registry_of(
            "class A(models.Model):\n    x = models.IntegerField()\n    y = models.IntegerField()\n    z = models.IntegerField()\n    class Meta:\n        unique_together = (('x', 'y'), ('y', 'z'))\n",
        );
        assert_eq!(r.model("A").unwrap().unique_together.len(), 2);
    }

    #[test]
    fn meta_constraints_unique_constraint() {
        let r = registry_of(
            "class A(models.Model):\n    code = models.CharField(max_length=8)\n    cls = models.CharField(max_length=8)\n    class Meta:\n        constraints = [models.UniqueConstraint(fields=['code', 'cls'], name='uniq_code')]\n",
        );
        assert_eq!(
            r.model("A").unwrap().unique_together,
            vec![vec!["code".to_string(), "cls".to_string()]]
        );
    }

    #[test]
    fn abstract_models_flagged() {
        let r = registry_of(
            "class Base(models.Model):\n    created = models.DateTimeField()\n    class Meta:\n        abstract = True\n",
        );
        assert!(r.model("Base").unwrap().abstract_model);
    }

    #[test]
    fn inheritance_field_resolution() {
        let r = registry_of(
            "class Base(models.Model):\n    created = models.DateTimeField()\nclass Child(Base):\n    extra = models.IntegerField()\n",
        );
        let (owner, f) = r.field_of("Child", "created").unwrap();
        assert_eq!(owner.name, "Base");
        assert_eq!(f.name, "created");
        let (owner, _) = r.field_of("Child", "extra").unwrap();
        assert_eq!(owner.name, "Child");
        assert!(r.field_of("Child", "ghost").is_none());
    }

    #[test]
    fn fk_column_alias_resolution() {
        let r = registry_of(SHOP);
        let line = r.model("OrderLine").unwrap();
        // Both `order` and `order_id` resolve to the FK field.
        assert!(line.field_by_any_name("order").is_some());
        assert!(line.field_by_any_name("order_id").is_some());
        assert!(line.field_by_any_name("quantity_id").is_none());
    }

    #[test]
    fn non_model_classes_ignored() {
        let r = registry_of(
            "class Helper:\n    x = models.IntegerField()\nclass Form(forms.Form):\n    y = models.CharField(max_length=5)\n",
        );
        assert!(r.is_empty());
    }

    #[test]
    fn non_field_assignments_ignored() {
        let r = registry_of(
            "class A(models.Model):\n    objects = CustomManager()\n    CONSTANT = 5\n    name = models.CharField(max_length=5)\n",
        );
        assert_eq!(r.model("A").unwrap().fields.len(), 1);
    }

    #[test]
    fn extract_classes_plus_add_classes_equals_add_module() {
        // The cache persists per-file class facts and replays them through
        // `add_classes`; the result must be indistinguishable from serial
        // `add_module` extraction, including cross-file base resolution.
        let base =
            parse_module("class Base(models.Model):\n    created = models.DateTimeField()\n")
                .unwrap();
        let child = parse_module("class Child(Base):\n    extra = models.IntegerField()\nclass Helper:\n    x = models.IntegerField()\n").unwrap();

        let mut serial = ModelRegistry::new();
        serial.add_module(&base, "base.py");
        serial.add_module(&child, "child.py");

        let base_facts = extract_classes(&base, "base.py");
        let child_facts = extract_classes(&child, "child.py");
        // Extraction is gate-free: the non-model Helper is still extracted…
        assert_eq!(child_facts.len(), 2);
        let mut replayed = ModelRegistry::new();
        replayed.add_classes(&base_facts);
        replayed.add_classes(&child_facts);

        // …but the gate filters it at fold time, and Child is recognized
        // through the cross-file Base chain.
        assert_eq!(replayed.len(), serial.len());
        assert!(replayed.is_model("Child") && !replayed.is_model("Helper"));
        assert_eq!(
            format!("{serial:?}"),
            format!("{replayed:?}"),
            "replayed registry must be byte-identical"
        );
    }

    #[test]
    fn class_facts_serde_round_trip() {
        let m = parse_module(SHOP).unwrap();
        let facts = extract_classes(&m, "models.py");
        let json = serde_json::to_string(&facts).unwrap();
        let back: Vec<ModelInfo> = serde_json::from_str(&json).unwrap();
        assert_eq!(facts, back);
    }

    #[test]
    fn email_field_is_varchar() {
        let r =
            registry_of("class U(models.Model):\n    email = models.EmailField(max_length=254)\n");
        assert_eq!(
            r.model("U").unwrap().field("email").unwrap().kind,
            FieldKind::Scalar(ColumnType::VarChar(254))
        );
    }
}
