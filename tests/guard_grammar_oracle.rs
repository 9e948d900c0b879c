//! Differential oracle over the guard grammar shared by the intra-procedural
//! detectors (PA_n2/PA_c1/PA_c2) and the inter-procedural summaries.
//!
//! The two consumers differ in policy — which branch counts as violating,
//! how deep a branch is scanned, whether `assert` is read — but agree on
//! the shape generated here: an `if` whose then-branch ends in `raise`,
//! with no error-log call. For every such guard, writing it inline on a
//! model field and writing it in a helper on a parameter (then calling the
//! helper with that field) must infer the same constraints in the same
//! pattern families; only the helper's detections carry a hop.

use cfinder::core::{AppSource, CFinder, CFinderOptions, PatternId, SourceFile};
use cfinder::schema::Schema;
use proptest::prelude::*;

const FIELDS: &str = "    total = models.IntegerField()\n    status = models.CharField(max_length=16)\n    paid = models.BooleanField()\n";

const INT_LITS: [&str; 4] = ["0", "1", "-3", "100"];
const STR_LITS: [&str; 3] = ["'open'", "'closed'", "''"];
const BOOL_LITS: [&str; 2] = ["True", "False"];
const OPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];

/// A generated guard: its condition with `{}` standing for the subject,
/// the field it is written on, and how many detections it must produce.
#[derive(Debug)]
struct Guard {
    cond: String,
    field: &'static str,
    fires: usize,
}

fn guard(form: usize, pick: usize, op: usize, len: usize) -> Guard {
    // Literal of the field's own type: int → total, str → status,
    // bool → paid.
    let (field, lits): (&str, &[&str]) = match pick % 3 {
        0 => ("total", &INT_LITS),
        1 => ("status", &STR_LITS),
        _ => ("paid", &BOOL_LITS),
    };
    let lit = lits[pick / 3 % lits.len()];
    let list = (0..len.max(1)).map(|i| lits[(pick + i) % lits.len()]).collect::<Vec<_>>();
    let tuple =
        if list.len() == 1 { format!("({},)", list[0]) } else { format!("({})", list.join(", ")) };
    let op = OPS[op % OPS.len()];
    let (cond, fires) = match form % 11 {
        0 => ("{} is None".to_string(), 1),
        1 => ("{} == None".to_string(), 1),
        2 => ("not {}".to_string(), 1),
        3 => ("{} is not None".to_string(), 0),
        4 => (format!("{{}} {op} {lit}"), 1),
        5 => (format!("{lit} {op} {{}}"), 1),
        6 => (format!("not {{}} {op} {lit}"), 1),
        7 => (format!("{{}} not in {tuple}"), 1),
        8 => (format!("{{}} in {tuple}"), 0),
        9 => (format!("not {{}} in {tuple}"), 1),
        _ => ("{} is None or flag".to_string(), 1),
    };
    Guard { cond, field, fires }
}

/// `(pattern, constraint, has hop)` for every guard-family detection.
fn guard_detections(files: Vec<SourceFile>) -> Vec<(PatternId, String, bool)> {
    let app = AppSource::new("g", files);
    let report = CFinder::with_options(CFinderOptions::default())
        .with_threads(1)
        .analyze(&app, &Schema::new());
    assert!(report.incidents.is_empty(), "{:?}", report.incidents);
    report
        .detections
        .iter()
        .filter(|d| matches!(d.pattern, PatternId::N2 | PatternId::C1 | PatternId::C2))
        .map(|d| (d.pattern, d.constraint.to_string(), d.via.is_some()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn inline_and_helper_guards_infer_the_same_constraints(
        form in 0usize..11,
        pick in 0usize..12,
        op in 0usize..6,
        len in 1usize..4,
        padded in 0u8..2,
    ) {
        let g = guard(form, pick, op, len);
        // An optional statement before the raise: both policies accept a
        // then-branch whose last statement raises.
        let pad = if padded == 1 { "            note = 'rejected'\n" } else { "" };
        let inline = format!(
            "class Order(models.Model):\n{FIELDS}    def validate(self, flag):\n        if {}:\n{}            raise ValueError('bad')\n",
            g.cond.replace("{}", &format!("self.{}", g.field)),
            pad,
        );
        let helper = format!(
            "def require(value, flag):\n    if {}:\n{}        raise ValueError('bad')\n",
            g.cond.replace("{}", "value"),
            pad.replacen("    ", "", 1),
        );
        let caller = format!(
            "class Order(models.Model):\n{FIELDS}    def validate(self, flag):\n        require(self.{}, flag)\n",
            g.field,
        );

        let direct = guard_detections(vec![SourceFile::new("models.py", inline)]);
        let wrapped = guard_detections(vec![
            SourceFile::new("models.py", caller),
            SourceFile::new("validators.py", helper),
        ]);

        prop_assert_eq!(direct.len(), g.fires, "inline detections {:?}", direct);
        let strip = |v: &[(PatternId, String, bool)]| {
            v.iter().map(|(p, c, _)| (*p, c.clone())).collect::<Vec<_>>()
        };
        prop_assert_eq!(strip(&direct), strip(&wrapped));
        prop_assert!(direct.iter().all(|(_, _, hop)| !hop), "inline hop {:?}", direct);
        prop_assert!(wrapped.iter().all(|(_, _, hop)| *hop), "helper without hop {:?}", wrapped);
    }
}
