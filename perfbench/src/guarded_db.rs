//! `guarded_db`: an enforcing minidb `Database` over one app's declared
//! schema plus the fix script the analyzer infers for it, parsed back with
//! `cfinder-sql`. Each request is a fixed mix of constraint-driven reads
//! and writes, a seeded share of which violate an inferred constraint and
//! must be rejected by exactly that constraint.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use cfinder_minidb::{
    execute, plan_naive, plan_with_constraints, ColRef, Database, DbError, JoinClause, Pred, Query,
    Row, RowId, Value,
};
use cfinder_schema::{
    ColumnType, CompareOp, Constraint, ConstraintSet, Literal, Predicate, Schema,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::{Calibrator, Series};
use crate::corpus::{seeded_profile, DiskApp, WorkDir};
use crate::report::Outcome;
use crate::spans::{NoProbe, Probe};
use crate::{serve_edit, sys, Args};

/// The app whose schema the database enforces.
pub const APP: &str = "oscar";

/// Rows loaded into every table; requests keep every table at this size.
/// The smallest size at which a prototype measured the cost of
/// `Database::check_row`'s scans (73 µs an insert at 1K rows, 1.3 ms at
/// 20K): the constraint checks are a visible share of a request, and a
/// run can still load the tables three times.
pub const ROWS: usize = 1000;

/// Tail percentile `tail_ms` reports, in tenths of a percent.
pub const TAIL_PERMILLE: u32 = 950;

/// Fresh set-ups (`from_schema` + enforced load) `setup_s` is the median of.
const SETUPS: usize = 3;

/// Distinct request payloads generated before timing; the run cycles
/// through them (each request deletes what it inserts, so replaying a
/// payload is always valid).
const POOL: usize = 2048;

/// Rows each request inserts, updates and deletes.
const WRITES: usize = 6;

/// Reads (plan + execute) per request.
const READS: usize = 8;

/// One in `VIOLATE_EVERY` requests carries a planted violation.
const VIOLATE_EVERY: u64 = 3;

/// Every rule `plan_with_constraints` can apply (`Rewrite::rule`).
pub const RULES: [&str; 7] = [
    "drop_distinct",
    "point_lookup",
    "drop_is_not_null",
    "impossible_is_null",
    "eliminate_join",
    "join_to_not_null_filter",
    "contradiction_prune",
];

/// How the generator fills one non-key column.
#[derive(Debug, Clone)]
enum Fill {
    /// Any value of the column's type.
    Plain,
    /// A value distinct per row (the column covers a unique key).
    Distinct,
    /// A value satisfying a CHECK.
    Check(Predicate),
    /// An existing key of the referenced table.
    Ref { table: String, column: String, distinct: bool },
}

#[derive(Debug, Clone)]
struct ColGen {
    name: String,
    ty: ColumnType,
    required: bool,
    fill: Fill,
}

/// Row generator for one table.
#[derive(Debug, Clone)]
struct TableGen {
    name: String,
    cols: Vec<ColGen>,
}

/// A planted violation: the row to write and the constraint that must
/// reject it.
#[derive(Debug, Clone)]
pub struct Violation {
    table: usize,
    row: Vec<(String, Value)>,
    target: Constraint,
    on_update: bool,
}

/// One request's payload, generated before timing.
#[derive(Debug, Clone)]
pub struct Request {
    /// (table index, row) inserted, then updated, then deleted.
    inserts: Vec<(usize, Vec<(String, Value)>)>,
    /// New values for each inserted row.
    updates: Vec<Vec<(String, Value)>>,
    /// Read templates to run.
    reads: Vec<usize>,
    /// The planted violation, if any.
    violation: Option<Violation>,
}

/// A read template and the row count it returns on the loaded data.
#[derive(Debug, Clone)]
pub struct Read {
    /// The query.
    pub query: Query,
    /// Rows the naive plan returns on the loaded tables.
    pub expected_rows: usize,
}

/// Everything the workload needs, built before any timing.
pub struct Prepared {
    /// Declared schema plus the parsed fix script.
    pub schema: Schema,
    gens: Vec<TableGen>,
    /// Table load order (referenced tables first).
    order: Vec<usize>,
    /// Tables requests write to.
    writable: Vec<usize>,
    /// Read templates.
    pub reads: Vec<Read>,
    /// Constraints the fix script added.
    pub inferred: usize,
}

/// Writes the app, runs the analyzer on it, and parses dump + fix script
/// into the schema the database will enforce. The schema is the same for
/// every seed (the app as the corpus defines it), so runs compare; the
/// seed picks the request payloads.
pub fn schema_for(cfinder: &Path, root: &Path) -> Result<(Schema, usize), String> {
    let app = DiskApp::write(&seeded_profile(APP, 0), root)?;
    let fix = app.dir.join("fix.sql");
    let status = Command::new(cfinder)
        .arg(app.src())
        .arg("--schema-sql")
        .arg(app.dir.join("schema.sql"))
        .arg("--fix-out")
        .arg(&fix)
        .arg("--no-cache")
        .env_remove("CFINDER_CACHE_DIR")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("running cfinder: {e}"))?;
    if status.code() != Some(1) {
        return Err(format!("cfinder on {APP} exited with {status}"));
    }
    let script = std::fs::read_to_string(&fix).map_err(|e| format!("reading fix script: {e}"))?;
    app.check_fix_script(&script)?;
    let dump = std::fs::read_to_string(app.dir.join("schema.sql")).map_err(|e| e.to_string())?;
    enforced_schema(&dump, &script)
}

/// The declared dump plus the fix script, parsed into one schema, and the
/// number of inferred constraints it enforces.
fn enforced_schema(dump: &str, script: &str) -> Result<(Schema, usize), String> {
    let fixes = cfinder_sql::parse_sql(script);
    let parsed = cfinder_sql::parse_sql(&format!("{dump}\n{script}"));
    if let Some(e) = parsed.errors.first() {
        return Err(format!("dump + fix script: {e}"));
    }
    // Constraints on classes without a table (planted wrong-table false
    // positives name abstract models) have nothing to enforce; every
    // other inferred constraint must reach the schema.
    let (schema, _dropped) = parsed.into_schema();
    let mut inferred = 0;
    for c in &fixes.constraints {
        if schema.table(c.constraint.table()).is_none() {
            continue;
        }
        if !schema.constraints().contains(&c.constraint) {
            return Err(format!("inferred constraint lost in parsing: {}", c.constraint));
        }
        inferred += 1;
    }
    Ok((schema, inferred))
}

impl Prepared {
    /// Plans row generation and read templates for `schema`.
    pub fn new(schema: Schema, inferred: usize) -> Result<Prepared, String> {
        let cs = schema.constraints();
        let tables: Vec<_> = schema.tables().cloned().collect();
        let index: BTreeMap<&str, usize> =
            tables.iter().enumerate().map(|(i, t)| (t.name.as_str(), i)).collect();
        let mut gens = Vec::new();
        let mut writable = Vec::new();
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); tables.len()];
        for (ti, t) in tables.iter().enumerate() {
            let mut cols = Vec::new();
            let mut ok = true;
            for col in t.columns.iter().filter(|c| c.name != t.primary_key) {
                let unique = cs.iter().any(|c| {
                    matches!(c, Constraint::Unique { table, columns, .. }
                        if *table == t.name && columns.contains(&col.name))
                });
                let checks = cs.checks_on(&t.name, &col.name);
                let fill = if let Some((rt, rc)) = cs.foreign_key_of(&t.name, &col.name) {
                    let r = *index.get(rt).ok_or(format!("FK to unknown table {rt}"))?;
                    if r == ti {
                        return Err(format!("self-referencing FK on {}", t.name));
                    }
                    deps[ti].push(r);
                    // A one-to-one reference needs a fresh target per row,
                    // which only the initial load can give.
                    ok &= !unique;
                    let pk = tables[r].primary_key == rc;
                    if !pk {
                        return Err(format!("FK {}.{} to a non-key column", t.name, col.name));
                    }
                    Fill::Ref { table: rt.to_string(), column: rc.to_string(), distinct: unique }
                } else if let Some(p) = checks.first() {
                    if checks.len() > 1 || unique {
                        return Err(format!("unsupported CHECK mix on {}.{}", t.name, col.name));
                    }
                    Fill::Check((*p).clone())
                } else if unique {
                    if col.ty == ColumnType::Boolean {
                        return Err(format!("unique boolean {}.{}", t.name, col.name));
                    }
                    Fill::Distinct
                } else {
                    Fill::Plain
                };
                let required = !col.nullable || cs.is_not_null(&t.name, &col.name);
                cols.push(ColGen { name: col.name.clone(), ty: col.ty.clone(), required, fill });
            }
            if ok {
                writable.push(ti);
            }
            gens.push(TableGen { name: t.name.clone(), cols });
        }
        let order = topo_order(&deps)?;
        Ok(Prepared { schema, gens, order, writable, reads: Vec::new(), inferred })
    }

    /// Builds and loads an enforcing database: `Database::from_schema`
    /// plus [`ROWS`] rows per table, every insert checked.
    pub fn load(&self) -> Result<Database, String> {
        self.load_with(&mut NoProbe)
    }

    /// [`Prepared::load`], timing `from_schema` and the load apart.
    pub fn load_with<P: Probe>(&self, probe: &mut P) -> Result<Database, String> {
        let mut db = probe
            .time("Database::from_schema", || Database::from_schema(&self.schema))
            .map_err(|e| e.to_string())?;
        probe.time("Database::load", || {
            for &t in &self.order {
                for seq in 0..ROWS {
                    let row = self.row(t, seq, seq as u64);
                    db.insert(&self.gens[t].name, pairs(&row))
                        .map_err(|e| format!("loading {}: {e}", self.gens[t].name))?;
                }
            }
            Ok::<(), String>(())
        })?;
        Ok(db)
    }

    /// Row `seq` of table `t`; `salt` varies the non-key references.
    fn row(&self, t: usize, seq: usize, salt: u64) -> Vec<(String, Value)> {
        self.gens[t]
            .cols
            .iter()
            .map(|c| {
                let v = match &c.fill {
                    Fill::Distinct => distinct_value(&c.ty, seq),
                    Fill::Check(p) => satisfying(p, seq),
                    // References point at primary keys, which the load
                    // assigns as 1..=ROWS.
                    Fill::Ref { distinct, .. } => {
                        let spread = (salt as usize).wrapping_mul(7).wrapping_add(3);
                        let target = if *distinct { seq } else { spread % ROWS };
                        Value::Int(target as i64 + 1)
                    }
                    Fill::Plain if !c.required && seq % 5 == 4 => Value::Null,
                    Fill::Plain => plain_value(&c.ty, seq),
                };
                (c.name.clone(), v)
            })
            .collect()
    }

    /// Query templates that exercise every rewrite rule the constraint
    /// set licenses, plus plain scans the rewriter leaves alone, with the
    /// row count each returns on the freshly loaded `db`. Each template's
    /// rewritten plan must return exactly what its naive plan returns.
    pub fn plan_reads(&mut self, db: &Database) -> Result<(), String> {
        let mut reads = Vec::new();
        for query in self.read_templates() {
            let naive = execute(db, &plan_naive(&query), 1).map_err(|e| e.to_string())?;
            check_rewrite(db, &query, &naive.stable_serialized())?;
            reads.push(Read { query, expected_rows: naive.len() });
        }
        self.reads = reads;
        Ok(())
    }

    fn read_templates(&self) -> Vec<Query> {
        let cs = self.schema.constraints();
        let mut out = Vec::new();
        for g in &self.gens {
            let t = g.name.as_str();
            let pk = self.schema.table(t).map(|x| x.primary_key.clone()).unwrap_or_default();
            for c in &g.cols {
                let col = c.name.as_str();
                match &c.fill {
                    Fill::Distinct if cs.has_single_column_unique(t, col) => {
                        let v = literal_of(&distinct_value(&c.ty, 17));
                        // DISTINCT over a point lookup is redundant too.
                        out.push(
                            Query::select(t, [col, pk.as_str()])
                                .filter(Pred::Compare {
                                    col: colref(t, col),
                                    op: CompareOp::Eq,
                                    value: v,
                                })
                                .distinct(),
                        );
                        out.push(Query::select(t, [col]).distinct());
                    }
                    Fill::Check(p) => out.push(
                        Query::select(t, [col, pk.as_str()])
                            .filter(contradicting(p, &colref(t, col))),
                    ),
                    Fill::Ref { table, column, .. } => {
                        out.push(Query::select(t, [pk.as_str()]).join(JoinClause::new(
                            table.clone(),
                            colref(t, col),
                            column.clone(),
                        )))
                    }
                    _ => {}
                }
                if cs.is_not_null(t, col) && matches!(c.fill, Fill::Plain) {
                    out.push(Query::select(t, [col]).filter(Pred::IsNull(colref(t, col))));
                    out.push(
                        Query::select(t, [col, pk.as_str()])
                            .filter(Pred::IsNotNull(colref(t, col))),
                    );
                }
            }
            for key in cs.full_unique_sets(t) {
                out.push(Query::select(t, key.iter().map(String::as_str)).distinct());
            }
            if let Some(c) = g.cols.iter().find(|c| matches!(c.fill, Fill::Plain)) {
                out.push(Query::select(t, [c.name.as_str()]).distinct());
            }
        }
        out
    }
}

fn colref(t: &str, c: &str) -> ColRef {
    ColRef::new(t, c)
}

/// Referenced tables before the tables that reference them.
fn topo_order(deps: &[Vec<usize>]) -> Result<Vec<usize>, String> {
    let mut state = vec![0u8; deps.len()];
    let mut order = Vec::new();
    fn visit(i: usize, deps: &[Vec<usize>], state: &mut [u8], order: &mut Vec<usize>) -> bool {
        match state[i] {
            2 => return true,
            1 => return false,
            _ => {}
        }
        state[i] = 1;
        for &d in &deps[i] {
            if !visit(d, deps, state, order) {
                return false;
            }
        }
        state[i] = 2;
        order.push(i);
        true
    }
    for i in 0..deps.len() {
        if !visit(i, deps, &mut state, &mut order) {
            return Err("foreign keys form a cycle".to_string());
        }
    }
    Ok(order)
}

/// Checks that the rewritten plan of `query` returns `naive` (the naive
/// plan's serialized result).
pub fn check_rewrite(db: &Database, query: &Query, naive: &str) -> Result<(), String> {
    let (plan, _) = plan_with_constraints(query, db.constraints());
    let rewritten = execute(db, &plan, 1).map_err(|e| e.to_string())?;
    if rewritten.stable_serialized() != naive {
        return Err(format!("rewritten plan disagrees with the naive plan: {}", query.describe()));
    }
    Ok(())
}

/// A value of type `ty` distinct for every `seq`.
fn distinct_value(ty: &ColumnType, seq: usize) -> Value {
    match ty {
        ColumnType::Integer | ColumnType::BigInt | ColumnType::Decimal(_, _) => {
            Value::Int(seq as i64 + 1)
        }
        ColumnType::Float => Value::Float(seq as f64 + 0.5),
        _ => Value::Str(format!("k{seq:x}")),
    }
}

/// An ordinary value of type `ty` (repeats across rows).
fn plain_value(ty: &ColumnType, seq: usize) -> Value {
    match ty {
        ColumnType::Integer | ColumnType::BigInt | ColumnType::Decimal(_, _) => {
            Value::Int((seq % 40) as i64)
        }
        ColumnType::Float => Value::Float((seq % 40) as f64),
        ColumnType::Boolean => Value::Bool(seq.is_multiple_of(2)),
        _ => Value::Str(format!("v{}", seq % 23)),
    }
}

/// A value satisfying `p`.
fn satisfying(p: &Predicate, seq: usize) -> Value {
    let bump = (seq % 30) as i64;
    match p {
        Predicate::In { values, .. } => Value::from(&values[seq % values.len()]),
        Predicate::Compare { op, value, .. } => match (op, value) {
            (CompareOp::Eq | CompareOp::Le | CompareOp::Ge, lit) => Value::from(lit),
            (CompareOp::Gt | CompareOp::Ne, Literal::Int(k)) => Value::Int(k + 1 + bump),
            (CompareOp::Lt, Literal::Int(k)) => Value::Int(k - 1 - bump),
            (CompareOp::Ne, Literal::Bool(b)) => Value::Bool(!b),
            (CompareOp::Ne, Literal::Str(s)) => Value::Str(format!("not-{s}")),
            // NULL satisfies every CHECK.
            _ => Value::Null,
        },
    }
}

/// A value violating `p` (`None` when the generator has no shape for it).
fn violating(p: &Predicate) -> Option<Value> {
    match p {
        Predicate::In { values, .. } => match values.first()? {
            Literal::Int(_) => {
                let max = values.iter().filter_map(|v| match v {
                    Literal::Int(i) => Some(*i),
                    _ => None,
                });
                Some(Value::Int(max.max()? + 1))
            }
            Literal::Str(_) => Some(Value::Str("zz-outside".to_string())),
            _ => None,
        },
        Predicate::Compare { op, value: Literal::Int(k), .. } => Some(Value::Int(match op {
            CompareOp::Gt | CompareOp::Ge => k - 1,
            CompareOp::Lt | CompareOp::Le | CompareOp::Eq => k + 1,
            CompareOp::Ne => *k,
        })),
        _ => None,
    }
}

/// A `WHERE` atom no row satisfying `p` can make true.
fn contradicting(p: &Predicate, col: &ColRef) -> Pred {
    let col = col.clone();
    match p {
        Predicate::In { values, .. } => match violating(p).map(|v| literal_of(&v)) {
            Some(value) => Pred::Compare { col, op: CompareOp::Eq, value },
            None => Pred::InList { col, values: values.clone() },
        },
        Predicate::Compare { op, value, .. } => {
            Pred::Compare { col, op: op.negated(), value: value.clone() }
        }
    }
}

fn literal_of(v: &Value) -> Literal {
    match v {
        Value::Int(i) => Literal::Int(*i),
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Bool(b) => Literal::Bool(*b),
        Value::Float(f) => Literal::Int(*f as i64),
        Value::Null => Literal::Null,
    }
}

/// The reference integrity check: every constraint of `cs` on `table`
/// that `row` (a prospective insert, or update of `exclude`) would break
/// against the rows now in `db`. Written independently of the
/// database's own enforcement, to hold it to account.
fn violated(
    db: &Database,
    cs: &ConstraintSet,
    table: &str,
    row: &Row,
    exclude: Option<RowId>,
) -> Vec<Constraint> {
    let value = |r: &Row, c: &str| r.get(c).cloned().unwrap_or(Value::Null);
    let mut out = Vec::new();
    for c in cs.iter().filter(|c| c.table() == table) {
        let broken = match c {
            Constraint::NotNull { column, .. } => value(row, column).is_null(),
            Constraint::Unique { columns, conditions, .. } => {
                let in_scope = |r: &Row| {
                    conditions.iter().all(|k| value(r, &k.column) == Value::from(&k.value))
                };
                let key: Vec<Value> = columns.iter().map(|k| value(row, k)).collect();
                in_scope(row)
                    && key.iter().all(|v| !v.is_null())
                    && db.select(table, &[]).unwrap_or_default().iter().any(|(id, other)| {
                        Some(*id) != exclude
                            && in_scope(other)
                            && columns.iter().zip(&key).all(|(k, v)| value(other, k) == *v)
                    })
            }
            Constraint::ForeignKey { column, ref_table, ref_column, .. } => {
                let v = value(row, column);
                !v.is_null()
                    && db
                        .select(ref_table, &[(ref_column.as_str(), v)])
                        .unwrap_or_default()
                        .is_empty()
            }
            Constraint::Check { predicate, .. } => {
                let v = value(row, predicate.column());
                !v.is_null() && !holds(predicate, &v)
            }
            Constraint::Default { .. } => false,
        };
        if broken {
            out.push(c.clone());
        }
    }
    out
}

/// Does non-NULL `v` satisfy `p`? A type mismatch does not.
fn holds(p: &Predicate, v: &Value) -> bool {
    let cmp = |lit: &Literal| match (v, lit) {
        (Value::Int(a), Literal::Int(b)) => Some(a.cmp(b)),
        (Value::Str(a), Literal::Str(b)) => Some(a.as_str().cmp(b)),
        (Value::Bool(a), Literal::Bool(b)) => Some(a.cmp(b)),
        _ => None,
    };
    match p {
        Predicate::In { values, .. } => values.iter().any(|l| cmp(l).is_some_and(|o| o.is_eq())),
        Predicate::Compare { op, value, .. } => cmp(value).is_some_and(|o| match op {
            CompareOp::Eq => o.is_eq(),
            CompareOp::Ne => o.is_ne(),
            CompareOp::Lt => o.is_lt(),
            CompareOp::Le => o.is_le(),
            CompareOp::Gt => o.is_gt(),
            CompareOp::Ge => o.is_ge(),
        }),
    }
}

/// A generated row as the column/value pairs the database API takes.
fn pairs(row: &[(String, Value)]) -> impl Iterator<Item = (&str, Value)> {
    row.iter().map(|(k, v)| (k.as_str(), v.clone()))
}

fn to_row(values: &[(String, Value)]) -> Row {
    values.iter().cloned().collect()
}

impl Prepared {
    /// Every planted violation the generator can build on `db` (freshly
    /// loaded) that breaks its target constraint and nothing else.
    fn violations(&self, db: &Database) -> Vec<Violation> {
        let cs = self.schema.constraints();
        let mut out = Vec::new();
        for &t in &self.writable {
            let g = &self.gens[t];
            let base = self.row(t, ROWS + 2 * WRITES, 1);
            let pk = self.schema.table(&g.name).map(|x| x.primary_key.clone()).unwrap_or_default();
            for c in cs.iter().filter(|c| c.table() == g.name) {
                let mut row = to_row(&base);
                // The key the insert would assign: fresh, never NULL.
                row.insert(pk.clone(), Value::Int(1_000_000_000));
                match c {
                    Constraint::NotNull { column, .. } if *column != pk => {
                        row.insert(column.clone(), Value::Null);
                    }
                    Constraint::Unique { columns, conditions, .. } => {
                        // Copy the key from a loaded row inside the
                        // constraint's scope.
                        let source =
                            (0..ROWS).map(|s| to_row(&self.row(t, s, s as u64))).find(|r| {
                                conditions
                                    .iter()
                                    .all(|k| r.get(&k.column) == Some(&Value::from(&k.value)))
                            });
                        let Some(source) = source else { continue };
                        for k in columns.iter().chain(conditions.iter().map(|k| &k.column)) {
                            match source.get(k) {
                                Some(v) => row.insert(k.clone(), v.clone()),
                                None => continue,
                            };
                        }
                    }
                    Constraint::ForeignKey { column, .. } => {
                        row.insert(column.clone(), Value::Int(1_000_000_007));
                    }
                    Constraint::Check { predicate, .. } => match violating(predicate) {
                        Some(v) => {
                            row.insert(predicate.column().to_string(), v);
                        }
                        None => continue,
                    },
                    _ => continue,
                }
                if violated(db, cs, &g.name, &row, None) == [c.clone()] {
                    row.remove(&pk);
                    let row: Vec<(String, Value)> = row.into_iter().collect();
                    out.push(Violation { table: t, row, target: c.clone(), on_update: false });
                }
            }
        }
        out
    }

    /// Generates the request pool (before timing).
    pub fn requests(&self, db: &Database, seed: u64) -> Result<Vec<Request>, String> {
        let candidates = self.violations(db);
        if candidates.is_empty() || self.writable.is_empty() || self.reads.is_empty() {
            return Err("the schema leaves nothing to write, violate or read".to_string());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A4D_0DB5);
        let pool = (0..POOL)
            .map(|_| {
                let violation = (rng.gen_range(0..VIOLATE_EVERY) == 0).then(|| {
                    let mut v = candidates[rng.gen_range(0..candidates.len())].clone();
                    v.on_update = rng.gen_bool(0.5);
                    v
                });
                let mut inserts = Vec::new();
                let mut updates = Vec::new();
                for i in 0..WRITES {
                    let t = match &violation {
                        Some(v) if v.on_update && i == 0 => v.table,
                        _ => self.writable[rng.gen_range(0..self.writable.len())],
                    };
                    inserts.push((t, self.row(t, ROWS + i, rng.next_u64())));
                    updates.push(self.row(t, ROWS + WRITES + i, rng.next_u64()));
                }
                let reads = (0..READS).map(|_| rng.gen_range(0..self.reads.len())).collect();
                Request { inserts, updates, reads, violation }
            })
            .collect();
        Ok(pool)
    }

    /// Runs one request. `Err` names the first wrong outcome; the rows
    /// the request inserted are deleted either way, so table sizes hold.
    pub fn run_request<P: Probe>(
        &self,
        db: &mut Database,
        req: &Request,
        probe: &mut P,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let mut first_error: Option<String> = None;
        let mut fail = |e: String| {
            first_error.get_or_insert(e);
        };
        for &r in &req.reads {
            let read = &self.reads[r];
            let (plan, rewrites) = probe.time("plan_with_constraints", || {
                plan_with_constraints(&read.query, db.constraints())
            });
            match probe.time("execute", || execute(db, &plan, 1)) {
                Ok(rs) => {
                    tally.note_read(&rewrites, rs.len());
                    if rs.len() != read.expected_rows {
                        fail(format!(
                            "{} returned {} rows, not {}",
                            read.query.describe(),
                            rs.len(),
                            read.expected_rows
                        ));
                    }
                }
                Err(e) => fail(format!("{}: {e}", read.query.describe())),
            }
        }
        let mut ids = Vec::with_capacity(WRITES);
        for ((t, row), update) in req.inserts.iter().zip(&req.updates) {
            let name = &self.gens[*t].name;
            match probe.time("Database::insert", || db.insert(name, pairs(row))) {
                Ok(id) => {
                    tally.inserts += 1;
                    ids.push((*t, id));
                    match probe.time("Database::update", || db.update(name, id, pairs(update))) {
                        Ok(()) => tally.updates += 1,
                        Err(e) => fail(format!("valid update of {name} rejected: {e}")),
                    }
                }
                Err(e) => fail(format!("valid insert into {name} rejected: {e}")),
            }
        }
        if let Some(v) = &req.violation {
            let name = &self.gens[v.table].name;
            let outcome = match ids.first() {
                Some(&(t, id)) if v.on_update && t == v.table => {
                    tally.update_rejected += 1;
                    probe
                        .time("Database::update", || db.update(name, id, pairs(&v.row)))
                        .map(|()| None)
                }
                _ => {
                    tally.insert_rejected += 1;
                    probe.time("Database::insert", || db.insert(name, pairs(&v.row))).map(Some)
                }
            };
            match outcome {
                Err(DbError::ConstraintViolation { constraint, .. }) if constraint == v.target => {}
                Ok(Some(id)) => {
                    ids.push((v.table, id));
                    fail(format!("violation of {} was accepted", v.target));
                }
                other => fail(format!("violation of {} answered {other:?}", v.target)),
            }
        }
        for &(t, id) in ids.iter().rev() {
            let name = &self.gens[t].name;
            match probe.time("Database::delete", || db.delete(name, id)) {
                Ok(()) => tally.deletes += 1,
                Err(e) => fail(format!("delete from {name} rejected: {e}")),
            }
        }
        first_error.map_or(Ok(()), Err)
    }

    /// Number of tables.
    pub fn tables(&self) -> usize {
        self.gens.len()
    }
}

/// Operation counts a run accumulates.
#[derive(Debug, Default)]
pub struct Tally {
    /// Accepted inserts.
    pub inserts: u64,
    /// Planted inserts (all must be rejected).
    pub insert_rejected: u64,
    /// Accepted updates.
    pub updates: u64,
    /// Planted updates (all must be rejected).
    pub update_rejected: u64,
    /// Deletes.
    pub deletes: u64,
    /// Applied rewrites per rule.
    pub rewrites: BTreeMap<&'static str, u64>,
    /// Rows the reads returned.
    pub rows_out: u64,
}

impl Tally {
    fn note_read(&mut self, rewrites: &[cfinder_minidb::Rewrite], rows: usize) {
        for r in rewrites {
            *self.rewrites.entry(r.rule()).or_default() += 1;
        }
        self.rows_out += rows as u64;
    }
}

/// Runs the workload.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (schema, inferred) = schema_for(&args.cfinder, work.path())?;
    let mut prep = Prepared::new(schema, inferred)?;
    // From here on the memory high-water mark covers the databases, the
    // request payloads and the loop, not the corpus generated above.
    sys::reset_self_hwm();
    let mut out = Outcome::default();
    let mut cal = Calibrator::new(1, 0.25);
    let mut setups = Series::default();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let start = Instant::now();
        let fresh = prep.load()?;
        setups.push(&mut cal, start.elapsed());
        db = Some(fresh);
    }
    let mut db = db.expect("at least one set-up");
    prep.plan_reads(&db)?;
    let pool = prep.requests(&db, args.seed)?;
    let sizes: Vec<usize> = prep.gens.iter().map(|g| db.row_count(&g.name)).collect();

    let min_samples = serve_edit::min_samples_for(TAIL_PERMILLE);
    let mut tally = Tally::default();
    let mut requests = Series::default();
    let window = Instant::now();
    for req in pool.iter().cycle() {
        let enough = window.elapsed() >= args.window && requests.len() >= min_samples;
        if enough || window.elapsed() >= 3 * args.window {
            break;
        }
        let start = Instant::now();
        let verdict = prep.run_request(&mut db, req, &mut NoProbe, &mut tally);
        requests.push(&mut cal, start.elapsed());
        out.op(verdict.is_ok(), || verdict.unwrap_err());
    }
    // Outside the window: sizes held, and every read template's rewritten
    // plan still agrees with its naive plan.
    let after: Vec<usize> = prep.gens.iter().map(|g| db.row_count(&g.name)).collect();
    if after != sizes {
        out.error("table sizes drifted during the run");
    }
    for read in &prep.reads {
        let naive = execute(&db, &plan_naive(&read.query), 1).map_err(|e| e.to_string())?;
        if let Err(e) = check_rewrite(&db, &read.query, &naive.stable_serialized()) {
            out.error(e);
        }
    }
    out.closed_loop_metrics(&cal, &requests, &setups, TAIL_PERMILLE);
    out.metric("peak_rss_mb", sys::self_hwm_mb().unwrap_or(0.0), "MB", 1);
    out.note("threads", 1);
    out.note("tables", prep.tables());
    out.note("rows_per_table", ROWS);
    out.note("inferred_constraints", prep.inferred);
    out.note("read_templates", prep.reads.len());
    out.note("rewrites", format!("{:?}", tally.rewrites));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfinder_core::{AppSource, CFinder, SourceFile};
    use cfinder_corpus::{generate, GenOptions};
    use cfinder_sql::Dialect;

    /// `oscar` at reduced scale, with the schema the workload enforces.
    fn prepared() -> Prepared {
        let app = generate(&seeded_profile(APP, 0), GenOptions::quick());
        let files = app.files.iter().map(|f| SourceFile::new(&f.path, &f.text)).collect();
        let report = CFinder::new().analyze(&AppSource::new(APP, files), &app.declared);
        let dump = cfinder_sql::schema_to_sql(&app.declared, Dialect::Postgres);
        let script = cfinder_sql::fix_script(
            report.missing.iter().map(|m| &m.constraint),
            Dialect::Postgres,
            Some(&app.declared),
            APP,
        );
        let (schema, inferred) = enforced_schema(&dump, &script).unwrap();
        assert!(inferred > 0);
        Prepared::new(schema, inferred).unwrap()
    }

    #[test]
    fn requests_keep_table_sizes_fixed_and_answer_correctly() {
        let mut prep = prepared();
        let mut db = prep.load().unwrap();
        prep.plan_reads(&db).unwrap();
        let sizes = |db: &Database| -> Vec<usize> {
            prep.gens.iter().map(|g| db.row_count(&g.name)).collect()
        };
        let before = sizes(&db);
        assert!(before.iter().all(|&n| n == ROWS));
        let pool = prep.requests(&db, 7).unwrap();
        let mut tally = Tally::default();
        for req in pool.iter().take(300) {
            prep.run_request(&mut db, req, &mut NoProbe, &mut tally).unwrap();
            assert_eq!(sizes(&db), before);
        }
        assert!(tally.insert_rejected + tally.update_rejected > 0, "violations were planted");
        assert_eq!(tally.inserts, tally.deletes);
    }
}
