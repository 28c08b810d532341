//! Pairwise conflict decisions: routing between the PTIME detectors and
//! the NP-side fallbacks, with the decision provenance recorded.
//!
//! Routing rules (see `DESIGN.md`, "cxu-sched"):
//!
//! * **read–read** — never conflicts (reads do not mutate): trivial.
//! * **identical keys** — an operation always commutes with itself
//!   (both orders are literally the same sequence): trivial.
//! * **read–update, linear read** — the §4 PTIME detectors
//!   ([`cxu_core::detect`]), exact over all trees.
//! * **read–update, branching read** — NP-complete (§5); bounded
//!   exhaustive search up to the Lemma 11 witness bound
//!   ([`cxu_core::brute::decide`]). Exact when the candidate count fits
//!   the budget, otherwise *conservatively a conflict*.
//! * **update–update, both linear** — the §6 linear commutativity
//!   analysis ([`cxu_core::update_update_linear`]); `Unknown` verdicts
//!   are conservatively conflicts.
//! * **update–update, branching** — bounded witness search
//!   ([`cxu_core::update_update::find_noncommuting_witness`]). A found
//!   witness is a definite conflict; "no witness within budget" is never
//!   trusted (there is no Lemma 11 analogue for update pairs), so it is
//!   conservative.
//!
//! A pair is scheduled concurrently **only** when its verdict is a
//! proven non-conflict, so every conservative answer costs parallelism,
//! never correctness.

use crate::intern::OpInfo;
use crate::op::Op;
use crate::SchedConfig;
use cxu_automata::compiled::rigid_clash;
use cxu_core::update_update::{find_noncommuting_witness_deadline, Budget as UuBudget, Outcome};
use cxu_core::update_update_linear::{commutativity_deadline_compiled, Commutativity};
use cxu_core::{brute, detect};
use cxu_ops::{Read, Semantics, Update};
use cxu_runtime::Deadline;

/// Which detector decided a pair (provenance, surfaced per edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Detector {
    /// Read–read, or identical operation keys: no analysis needed.
    Trivial,
    /// Skipped by the sound batch pre-filter: the per-op summaries
    /// (rigid prefixes / depth intervals, computed at intern time)
    /// provably preclude any embedding overlap, so the pair is a
    /// **proven** non-conflict — no detector ever ran. See
    /// [`prefilter_no_conflict`].
    PrefilterNoConflict,
    /// §4 PTIME read–update detector (Theorems 1–2), exact.
    PtimeLinearRead,
    /// §6 linear update–update commutativity analysis, exact when it
    /// answers Commute/Conflict.
    PtimeLinearUpdates,
    /// Bounded NP-side witness search, exact within its budget
    /// (read–update: up to the Lemma 11 bound).
    WitnessSearch,
    /// The route itself is undecidable within the detectors' theory
    /// (linear update–update `Unknown`, or an untrusted bounded-search
    /// "no witness"); the pair is *assumed* to conflict (sound, never
    /// parallelized).
    ConservativeUndecided,
    /// The candidate-count budget ran out before the search finished.
    ConservativeBudget,
    /// The pair's deadline expired (or its cancel token fired)
    /// mid-analysis.
    ConservativeDeadline,
    /// The detector panicked; the engine's `catch_unwind` guard isolated
    /// it and assumed a conflict.
    ConservativePanic,
}

impl Detector {
    /// Stable kebab-case name, used by the CLI, DOT/JSON output, and
    /// the observability layer (`sched.route.*` counter suffixes use
    /// the same words with `-` as `_`).
    pub fn name(self) -> &'static str {
        match self {
            Detector::Trivial => "trivial",
            Detector::PrefilterNoConflict => "prefilter-no-conflict",
            Detector::PtimeLinearRead => "ptime-linear-read",
            Detector::PtimeLinearUpdates => "ptime-linear-updates",
            Detector::WitnessSearch => "witness-search",
            Detector::ConservativeUndecided => "conservative-undecided",
            Detector::ConservativeBudget => "conservative-budget",
            Detector::ConservativeDeadline => "conservative-deadline",
            Detector::ConservativePanic => "conservative-panic",
        }
    }

    /// Is this verdict an assumed conflict rather than a proven answer?
    pub fn is_conservative(self) -> bool {
        matches!(
            self,
            Detector::ConservativeUndecided
                | Detector::ConservativeBudget
                | Detector::ConservativeDeadline
                | Detector::ConservativePanic
        )
    }
}

/// The decision for one pair of operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Do the two operations conflict (must stay ordered)?
    pub conflict: bool,
    /// Which detector produced the answer.
    pub detector: Detector,
}

impl Verdict {
    pub(crate) fn trivial() -> Verdict {
        Verdict {
            conflict: false,
            detector: Detector::Trivial,
        }
    }

    /// An assumed conflict with the given (conservative) provenance.
    pub(crate) fn conservative(detector: Detector) -> Verdict {
        debug_assert!(detector.is_conservative());
        Verdict {
            conflict: true,
            detector,
        }
    }
}

/// Decides one pair, routing to the cheapest sound detector.
/// Symmetric: `analyze_pair(a, b, c)` ≡ `analyze_pair(b, a, c)`.
pub fn analyze_pair(a: &Op, b: &Op, cfg: &SchedConfig) -> Verdict {
    analyze_pair_deadline(a, b, cfg, &Deadline::never())
}

/// [`analyze_pair`] under a cooperative deadline: the NP-side searches
/// poll it and, on expiry, the pair degrades to
/// [`Detector::ConservativeDeadline`]. The PTIME routes never degrade —
/// they finish long before any reasonable slice.
pub fn analyze_pair_deadline(a: &Op, b: &Op, cfg: &SchedConfig, deadline: &Deadline) -> Verdict {
    let (ia, ib) = (OpInfo::of(a), OpInfo::of(b));
    analyze_pair_info(a, ia.as_ref(), b, ib.as_ref(), cfg, deadline)
}

/// [`analyze_pair_deadline`] over compiled forms ([`OpInfo::of`], or the
/// interner's cached copies): the PTIME routes run on the bitset product
/// directly, with no per-pair pattern lowering.
pub(crate) fn analyze_pair_info(
    a: &Op,
    ia: Option<&OpInfo>,
    b: &Op,
    ib: Option<&OpInfo>,
    cfg: &SchedConfig,
    deadline: &Deadline,
) -> Verdict {
    match (a, b) {
        (Op::Read(_), Op::Read(_)) => Verdict::trivial(),
        (Op::Read(r), Op::Update(u)) => read_update(r, ia, u, spine(ib), cfg, deadline),
        (Op::Update(u), Op::Read(r)) => read_update(r, ib, u, spine(ia), cfg, deadline),
        (Op::Update(u1), Op::Update(u2)) => {
            update_update(u1, spine(ia), u2, spine(ib), cfg, deadline)
        }
    }
}

fn spine(info: Option<&OpInfo>) -> &OpInfo {
    info.expect("an update always compiles its spine")
}

/// Can the pair be skipped without running **any** detector? Sound: a
/// `true` answer proves non-conflict under `sem` on every tree.
///
/// Two rules, both factoring through the §4 reduction (conflicts require
/// a prefix of the read chain and the update's spine chain to match
/// strongly or weakly — see DESIGN.md § Performance for the full
/// argument):
///
/// * **Rigid clash** — some position `t` lies before the first `(.)* `
///   gap of *both* chains and carries two different concrete symbols.
///   Every word of one language has symbol `x` at position `t`, every
///   word of the other has `y ≠ x`, so all the prefix languages the
///   detectors consult are disjoint. Applies to read–update with a
///   linear read (the update may branch: Lemmas 4/8 reduce it to its
///   spine) and to update–update with both patterns linear (the §6
///   cross-checks are two Node-semantics read–update questions).
/// * **Depth gap** (read–update, Node semantics only) — a gap-free read
///   is shorter than the update spine's minimum depth: every strong
///   prefix match is ruled out by length alone, and Node semantics
///   consults weak matches only on descendant edges, of which a gap-free
///   read has none.
///
/// `debug_assert` cross-checks in the engine plus the seeded
/// `prefilter_validation` suite verify the predicate against the full
/// detectors.
pub fn prefilter_no_conflict(
    a: &Op,
    ia: Option<&OpInfo>,
    b: &Op,
    ib: Option<&OpInfo>,
    sem: Semantics,
) -> bool {
    match (a, b) {
        // Read–read pairs are trivially non-conflicting; the engine's
        // trivial route owns them.
        (Op::Read(_), Op::Read(_)) => false,
        (Op::Read(_), Op::Update(_)) => read_update_prefilter(ia, ib, sem),
        (Op::Update(_), Op::Read(_)) => read_update_prefilter(ib, ia, sem),
        (Op::Update(_), Op::Update(_)) => match (ia, ib) {
            // Both-linear only: the soundness argument runs through the
            // §6 cross-checks, which exist only for linear patterns.
            (Some(x), Some(y)) if x.linear && y.linear => rigid_clash(&x.summary, &y.summary),
            _ => false,
        },
    }
}

fn read_update_prefilter(read: Option<&OpInfo>, upd: Option<&OpInfo>, sem: Semantics) -> bool {
    // A read's info exists iff its pattern is linear; branching reads
    // route to the NP search, where the prefilter does not apply.
    let (Some(r), Some(u)) = (read, upd) else {
        return false;
    };
    if rigid_clash(&r.summary, &u.summary) {
        return true;
    }
    sem == Semantics::Node && r.summary.is_rigid() && r.summary.min_depth < u.summary.min_depth
}

/// A linear read (it has a compiled chain) takes the §4 PTIME detector;
/// a branching one the Lemma 11 bounded search, exact when it finishes.
fn read_update(
    r: &Read,
    ri: Option<&OpInfo>,
    u: &Update,
    ui: &OpInfo,
    cfg: &SchedConfig,
    deadline: &Deadline,
) -> Verdict {
    if let Some(ri) = ri {
        let conflict =
            detect::read_update_conflict_compiled(r, &ri.chain, u, &ui.chain, cfg.semantics)
                .expect("a read's compiled info implies a linear read");
        return Verdict {
            conflict,
            detector: Detector::PtimeLinearRead,
        };
    }
    match brute::decide_outcome(r, u, cfg.semantics, cfg.np_max_trees, deadline) {
        brute::SearchOutcome::Conflict(_) => Verdict {
            conflict: true,
            detector: Detector::WitnessSearch,
        },
        // The Lemma 11 bound was searched exhaustively: exact.
        brute::SearchOutcome::NoConflictWithin(_) => Verdict {
            conflict: false,
            detector: Detector::WitnessSearch,
        },
        brute::SearchOutcome::BudgetExceeded(_) => {
            Verdict::conservative(Detector::ConservativeBudget)
        }
        brute::SearchOutcome::DeadlineExceeded => {
            Verdict::conservative(Detector::ConservativeDeadline)
        }
    }
}

/// Every update pair enters the §6 analysis, which answers `None` for a
/// branching pair before it reads the chains (so passing a branching
/// update's spine chain is harmless); those fall back to the bounded
/// witness search.
fn update_update(
    u1: &Update,
    i1: &OpInfo,
    u2: &Update,
    i2: &OpInfo,
    cfg: &SchedConfig,
    deadline: &Deadline,
) -> Verdict {
    let budget = UuBudget {
        max_nodes: cfg.np_max_nodes,
        max_trees: cfg.np_max_trees,
    };
    if let Some(c) = commutativity_deadline_compiled(u1, u2, &i1.chain, &i2.chain, budget, deadline)
    {
        return match c {
            Commutativity::Commute => Verdict {
                conflict: false,
                detector: Detector::PtimeLinearUpdates,
            },
            Commutativity::Conflict(_) => Verdict {
                conflict: true,
                detector: Detector::PtimeLinearUpdates,
            },
            Commutativity::Unknown => Verdict::conservative(Detector::ConservativeUndecided),
            Commutativity::DeadlineExceeded => {
                Verdict::conservative(Detector::ConservativeDeadline)
            }
        };
    }
    match find_noncommuting_witness_deadline(u1, u2, budget, deadline) {
        Outcome::Conflict(_) => Verdict {
            conflict: true,
            detector: Detector::WitnessSearch,
        },
        // "No witness within budget" proves nothing for an update pair:
        // an undecidable route, not a resource failure.
        Outcome::NoConflictWithin(_) => Verdict::conservative(Detector::ConservativeUndecided),
        Outcome::BudgetExceeded(_) => Verdict::conservative(Detector::ConservativeBudget),
        Outcome::DeadlineExceeded => Verdict::conservative(Detector::ConservativeDeadline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxu_ops::{Delete, Insert, Read};
    use cxu_pattern::xpath::parse;
    use cxu_tree::text;

    fn cfg() -> SchedConfig {
        SchedConfig::default()
    }

    fn read(p: &str) -> Op {
        Op::Read(Read::new(parse(p).unwrap()))
    }

    fn ins(p: &str, x: &str) -> Op {
        Op::Update(Update::Insert(Insert::new(
            parse(p).unwrap(),
            text::parse(x).unwrap(),
        )))
    }

    fn del(p: &str) -> Op {
        Op::Update(Update::Delete(Delete::new(parse(p).unwrap()).unwrap()))
    }

    #[test]
    fn reads_never_conflict() {
        let v = analyze_pair(&read("a//b"), &read("a[x][y]"), &cfg());
        assert!(!v.conflict);
        assert_eq!(v.detector, Detector::Trivial);
    }

    #[test]
    fn section1_pair_routes_ptime() {
        let v = analyze_pair(&read("x//C"), &ins("x/B", "C"), &cfg());
        assert!(v.conflict);
        assert_eq!(v.detector, Detector::PtimeLinearRead);
        let v2 = analyze_pair(&read("x//D"), &ins("x/B", "C"), &cfg());
        assert!(!v2.conflict);
    }

    #[test]
    fn symmetric_in_argument_order() {
        let (r, u) = (read("x//C"), ins("x/B", "C"));
        assert_eq!(analyze_pair(&r, &u, &cfg()), analyze_pair(&u, &r, &cfg()));
    }

    #[test]
    fn branching_read_routes_np_side() {
        let v = analyze_pair(&read("a[b][c]"), &ins("a[b]", "c"), &cfg());
        assert!(v.conflict);
        assert_eq!(v.detector, Detector::WitnessSearch);
        // Label-disjoint pair small enough for an exact search within
        // the Lemma 11 bound: independence is proven, not assumed.
        let v2 = analyze_pair(&read("a[b][c]"), &ins("d", "f"), &cfg());
        assert!(!v2.conflict);
        assert_eq!(v2.detector, Detector::WitnessSearch);
    }

    #[test]
    fn oversized_np_instance_is_conservative() {
        let mut c = cfg();
        c.np_max_trees = 10; // starve the search
        let v = analyze_pair(&read("a[b]//c//d"), &ins("a//x[y][z]", "w"), &c);
        assert!(v.conflict);
        assert_eq!(v.detector, Detector::ConservativeBudget);
        assert!(v.detector.is_conservative());
    }

    #[test]
    fn starved_branching_updates_report_budget() {
        let mut c = cfg();
        c.np_max_trees = 5;
        // Branching update pattern routes NP-side; 5 trees is nowhere
        // near enough, so the search refuses before enumerating.
        let v = analyze_pair(&ins("a/b[q]", "c"), &del("a/z/w"), &c);
        assert!(v.conflict);
        assert_eq!(v.detector, Detector::ConservativeBudget);
    }

    #[test]
    fn expired_deadline_degrades_np_routes_only() {
        let dl = cxu_runtime::Deadline::after(std::time::Duration::ZERO);
        // Branching read: NP-side search polls the deadline and trips.
        let v = analyze_pair_deadline(&read("a[b][c]"), &ins("a[b]", "c"), &cfg(), &dl);
        assert!(v.conflict);
        assert_eq!(v.detector, Detector::ConservativeDeadline);
        // Branching update pair: same degradation.
        let v2 = analyze_pair_deadline(&ins("a/b[q]", "c"), &del("a/z/w"), &cfg(), &dl);
        assert_eq!(v2.detector, Detector::ConservativeDeadline);
        // Linear routes are PTIME and never degrade, even at deadline 0.
        let v3 = analyze_pair_deadline(&read("x//C"), &ins("x/B", "C"), &cfg(), &dl);
        assert_eq!(v3.detector, Detector::PtimeLinearRead);
        let v4 = analyze_pair_deadline(&ins("a/b", "x"), &ins("a/c", "y"), &cfg(), &dl);
        assert_eq!(v4.detector, Detector::PtimeLinearUpdates);
        assert!(!v4.conflict);
    }

    #[test]
    fn cancel_token_degrades_like_a_deadline() {
        let token = cxu_runtime::CancelToken::new();
        token.cancel();
        let dl = cxu_runtime::Deadline::never().with_token(&token);
        let v = analyze_pair_deadline(&read("a[b][c]"), &ins("a[b]", "c"), &cfg(), &dl);
        assert_eq!(v.detector, Detector::ConservativeDeadline);
        assert!(v.conflict);
    }

    #[test]
    fn linear_updates_route_ptime() {
        let v = analyze_pair(&ins("a/b", "x"), &ins("a/c", "y"), &cfg());
        assert!(!v.conflict);
        assert_eq!(v.detector, Detector::PtimeLinearUpdates);
        let v2 = analyze_pair(&ins("a/b", "c"), &ins("a/b/c", "q"), &cfg());
        assert!(v2.conflict);
        assert_eq!(v2.detector, Detector::PtimeLinearUpdates);
    }

    #[test]
    fn disjoint_linear_deletes_commute() {
        let v = analyze_pair(&del("a/b"), &del("a/c"), &cfg());
        assert!(!v.conflict);
        assert_eq!(v.detector, Detector::PtimeLinearUpdates);
        // Nested deletes commute semantically, but the linear analysis
        // answers Unknown (cross-conflicts fire, no witness found), so
        // the scheduler stays conservative.
        let v2 = analyze_pair(&del("a/b"), &del("a/b/c"), &cfg());
        assert!(v2.conflict);
        assert_eq!(v2.detector, Detector::ConservativeUndecided);
    }

    #[test]
    fn branching_updates_bounded_search() {
        // A branching delete pattern forces the NP-side update-update
        // route. Non-commuting pair: found witness is definite.
        let v = analyze_pair(&ins("a/b[q]", "c"), &ins("a/b/c", "z"), &cfg());
        assert_eq!(v.detector, Detector::WitnessSearch);
        assert!(v.conflict);
        // A commuting-looking pair stays conservative: "no witness
        // within budget" is never trusted for an update pair.
        let v2 = analyze_pair(&ins("a/b[q]", "c"), &del("a/z/w"), &cfg());
        assert_eq!(v2.detector, Detector::ConservativeUndecided);
        assert!(v2.conflict);
    }
}
