//! # cfinder-flow
//!
//! Flow analyses over [`cfinder_pyast`] trees: statement-level control-flow
//! graphs, reaching definitions / use-def chains, and dominating NULL-check
//! detection.
//!
//! These are the "control and data flow analysis" (§3.2, step 2) and
//! "use-definition chain" (§3.5.1) machinery of the CFinder paper. The
//! analyses are flow-sensitive, field-sensitive (dotted access paths are
//! tracked verbatim), and alias-unaware — the same soundness envelope the
//! paper states for its implementation. The [`interproc`] module extends
//! this one bounded level beyond the paper: summary-based propagation of
//! dominated-on-raise checks through a def-site-resolved call graph,
//! recovering the helper-wrapped false negatives the paper's own error
//! analysis reports.
//!
//! ```
//! use cfinder_flow::UseDefChains;
//! use cfinder_pyast::parse_module;
//!
//! let m = parse_module("wl = WishList.objects.get(key=k)\nlines = wl.lines\n").unwrap();
//! let chains = UseDefChains::compute(&m.body, &[]);
//! let def = chains.unique_def_of(m.body[1].id, "wl").unwrap();
//! assert!(matches!(def.kind, cfinder_flow::DefKind::Assign(_)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cfg;
pub mod interproc;
pub mod nullguard;
pub mod reaching;

pub use cfg::{Cfg, CfgNodeId, CfgNodeKind};
pub use interproc::{
    CallChecks, DegradeReason, FnSummary, InterprocFacts, ParamCheck, SummaryBudget, SummaryStats,
    SummaryTable,
};
pub use nullguard::{guard_facts, AccessPath, CheckKind, GuardFacts, NullGuards};
pub use reaching::{Def, DefId, DefKind, UseDefChains};
