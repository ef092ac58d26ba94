//! A Wing–Gong linearizability checker over virtual-time histories.
//!
//! ## The algorithm
//!
//! A history is a set of per-thread operation sequences, each operation an
//! interval `[inv, res]` in virtual time with a recorded return value. The
//! history linearizes iff some total order of the operations (a) respects
//! per-thread program order, (b) respects real-time precedence — if A's
//! response precedes B's invocation, A orders before B — and (c) replays
//! through the sequential spec with every recorded return matching.
//!
//! The checker is the classic Wing–Gong frontier search with Lowe's
//! memoization: a configuration is `(per-thread position vector, spec
//! state)`; from each configuration the candidates are the *minimal*
//! frontier operations (those not real-time-preceded by another frontier
//! operation); a candidate whose spec return matches the recorded return
//! advances its thread; configurations already proven dead are memoized by
//! `(positions, state_hash)` and never re-explored. With memoization the
//! search is near-linear on realistic histories because the frontier can
//! only spread as far as operations genuinely overlap.
//!
//! ## Why virtual-time precedence is sound
//!
//! The gate scheduler guarantees every running lane's clock is within
//! `quantum + g` of the minimum, where `g` is the largest single `charge`
//! granule (a lane only checks the gate *between* charges). So if
//! `A.res + margin < B.inv` with `margin ≥ quantum + g`, then at the
//! wallclock moment B invoked, A's lane had already passed `A.res` — A had
//! truly responded before B invoked, on every physical execution consistent
//! with the recorded clocks. Using a *larger* margin only deletes
//! precedence edges, which weakens constraint (b): the checker may accept
//! more orders, never reject a linearizable history. The checks here use a
//! deliberately generous margin (see [`CheckOpts::for_quantum`]).
//!
//! ## P-compositionality
//!
//! Set histories are checked per key ([`check_set_by_key`]): a set of
//! `u64` keys is the product of independent single-key registers, and a
//! history over a product object linearizes iff each per-key projection
//! linearizes (P-compositionality, Horn & Kroening). This turns one
//! exponential search over thousands of ops into hundreds of trivial
//! single-register checks.

use crate::spec::{Op, Ret, SeqSpec};
use std::collections::HashSet;

/// One operation in a checkable history, generic in the spec's operation
/// and return types so multi-object histories ([`crate::multi`]) reuse the
/// same search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GHistOp<O, R> {
    pub inv: u64,
    pub res: u64,
    pub op: O,
    pub ret: R,
}

/// The single-object history op every recorder produces.
pub type HistOp = GHistOp<Op, Ret>;

/// A complete history: per-thread operation sequences in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GHistory<O, R> {
    pub lanes: Vec<Vec<GHistOp<O, R>>>,
}

/// The single-object history every recorder produces.
pub type History = GHistory<Op, Ret>;

// Manual impl: `derive(Default)` would needlessly require `O: Default`.
impl<O, R> Default for GHistory<O, R> {
    fn default() -> Self {
        GHistory { lanes: Vec::new() }
    }
}

impl<O, R> GHistory<O, R> {
    pub fn ops(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }
}

impl History {
    /// The projection onto one set key (P-compositionality); lanes keep
    /// their identities, empty lanes are retained.
    pub fn project_key(&self, key: u64) -> History {
        History {
            lanes: self
                .lanes
                .iter()
                .map(|l| {
                    l.iter()
                        .filter(|o| o.op.set_key() == Some(key))
                        .copied()
                        .collect()
                })
                .collect(),
        }
    }

    /// Every distinct set key any operation addresses.
    pub fn set_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .lanes
            .iter()
            .flatten()
            .filter_map(|o| o.op.set_key())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// Checker knobs.
#[derive(Clone, Copy, Debug)]
pub struct CheckOpts {
    /// Cross-lane precedence slack in virtual cycles: A precedes B only if
    /// `A.res + margin < B.inv`. Must be at least the gate quantum plus the
    /// largest single charge granule; larger is sound (see module docs).
    pub margin: u64,
    /// Search budget: configurations explored before giving up with
    /// [`Verdict::Exhausted`]. Memoization makes realistic histories cost
    /// roughly one configuration per operation.
    pub max_nodes: u64,
}

/// Upper bound assumed for one `charge` granule when deriving a sound
/// margin from a quantum. The cost table's single events are two orders of
/// magnitude smaller; spin loops charge per iteration.
pub const MAX_CHARGE_GRANULE: u64 = 4096;

impl CheckOpts {
    /// A sound, comfortably slack margin for histories recorded under a
    /// gate with the given quantum.
    pub fn for_quantum(quantum: u64) -> Self {
        CheckOpts {
            margin: 2 * quantum + MAX_CHARGE_GRANULE,
            max_nodes: 20_000_000,
        }
    }
}

impl Default for CheckOpts {
    fn default() -> Self {
        CheckOpts::for_quantum(pto_sim::sched::DEFAULT_QUANTUM)
    }
}

/// A non-linearizability certificate: the offending history (possibly
/// minimized) plus the longest spec-consistent prefix the search reached.
#[derive(Clone, Debug)]
pub struct GWitness<O, R> {
    /// The history that fails to linearize.
    pub history: GHistory<O, R>,
    /// Operations (lane, op) of the deepest linearizable prefix found —
    /// everything the checker *could* explain before getting stuck.
    pub best_prefix: Vec<(usize, GHistOp<O, R>)>,
}

/// The single-object witness.
pub type Witness = GWitness<Op, Ret>;

impl<O: std::fmt::Debug, R: std::fmt::Debug> GWitness<O, R> {
    /// Render the witness for humans: one line per operation, program
    /// order per lane, with the stuck frontier called out.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "non-linearizable history ({} ops across {} lanes):",
            self.history.ops(),
            self.history.lanes.iter().filter(|l| !l.is_empty()).count(),
        );
        for (lane, ops) in self.history.lanes.iter().enumerate() {
            for o in ops {
                let _ = writeln!(
                    out,
                    "  lane {lane}: [{:>8}, {:>8}] {:?} -> {:?}",
                    o.inv, o.res, o.op, o.ret
                );
            }
        }
        let _ = writeln!(
            out,
            "  deepest linearizable prefix explains {} of {} ops",
            self.best_prefix.len(),
            self.history.ops()
        );
        out
    }
}

/// The checker's answer.
#[derive(Clone, Debug)]
pub enum GVerdict<O, R> {
    Linearizable,
    NonLinearizable(GWitness<O, R>),
    /// Node budget exceeded before a verdict; says nothing either way.
    Exhausted { explored: u64 },
}

/// The single-object verdict.
pub type Verdict = GVerdict<Op, Ret>;

impl<O, R> GVerdict<O, R> {
    pub fn is_linearizable(&self) -> bool {
        matches!(self, GVerdict::Linearizable)
    }
}

/// A frontier/order entry: one lane-tagged operation.
type LaneOp<S> = (usize, GHistOp<<S as SeqSpec>::Op, <S as SeqSpec>::Ret>);

struct Search<'h, S: SeqSpec> {
    lanes: &'h [Vec<GHistOp<S::Op, S::Ret>>],
    margin: u64,
    max_nodes: u64,
    explored: u64,
    memo: HashSet<(Vec<u32>, u64)>,
    order: Vec<LaneOp<S>>,
    best: Vec<LaneOp<S>>,
    _spec: std::marker::PhantomData<S>,
}

enum Found {
    Yes,
    No,
    OutOfBudget,
}

impl<S: SeqSpec> Search<'_, S> {
    fn run(&mut self, pos: &mut Vec<u32>, spec: &S) -> Found {
        if self.order.len() > self.best.len() {
            self.best = self.order.clone();
        }
        let total: usize = self.lanes.iter().map(|l| l.len()).sum();
        if self.order.len() == total {
            return Found::Yes;
        }
        self.explored += 1;
        if self.explored > self.max_nodes {
            return Found::OutOfBudget;
        }

        // Frontier: each lane's next operation, if any.
        let frontier: Vec<LaneOp<S>> = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(l, ops)| ops.get(pos[l] as usize).map(|&o| (l, o)))
            .collect();

        // Candidates: minimal elements of the real-time partial order
        // among frontier ops, tried in invocation order (the near-linear
        // fast path takes the earliest op first).
        let mut candidates: Vec<LaneOp<S>> = frontier
            .iter()
            .filter(|&&(l, ref o)| {
                !frontier
                    .iter()
                    .any(|&(m, p)| m != l && p.res.saturating_add(self.margin) < o.inv)
            })
            .copied()
            .collect();
        candidates.sort_by_key(|&(l, o)| (o.inv, l));

        for (l, o) in candidates {
            let mut next = spec.clone();
            if next.apply(l, o.op) != o.ret {
                continue;
            }
            pos[l] += 1;
            self.order.push((l, o));
            let unseen = self.memo.insert((pos.clone(), next.state_hash()));
            if unseen {
                match self.run(pos, &next) {
                    Found::Yes => return Found::Yes,
                    Found::OutOfBudget => return Found::OutOfBudget,
                    Found::No => {}
                }
            }
            self.order.pop();
            pos[l] -= 1;
        }
        Found::No
    }
}

/// Check one history against a spec's initial state.
pub fn check<S: SeqSpec>(
    history: &GHistory<S::Op, S::Ret>,
    initial: S,
    opts: CheckOpts,
) -> GVerdict<S::Op, S::Ret> {
    let mut search = Search::<S> {
        lanes: &history.lanes,
        margin: opts.margin,
        max_nodes: opts.max_nodes,
        explored: 0,
        memo: HashSet::new(),
        order: Vec::new(),
        best: Vec::new(),
        _spec: std::marker::PhantomData,
    };
    let mut pos = vec![0u32; history.lanes.len()];
    match search.run(&mut pos, &initial) {
        Found::Yes => GVerdict::Linearizable,
        Found::No => GVerdict::NonLinearizable(GWitness {
            history: history.clone(),
            best_prefix: search.best,
        }),
        Found::OutOfBudget => GVerdict::Exhausted {
            explored: search.explored,
        },
    }
}

/// Check a set history per key (P-compositionality): linearizable iff
/// every per-key projection linearizes against a single-key register
/// seeded from `prefill`.
pub fn check_set_by_key(history: &History, prefill: &[u64], opts: CheckOpts) -> Verdict {
    let mut explored_total = 0;
    for key in history.set_keys() {
        let proj = history.project_key(key);
        let initial = crate::spec::KeySpec::with_present(prefill.contains(&key));
        match check(&proj, initial, opts) {
            Verdict::Linearizable => {}
            Verdict::NonLinearizable(w) => return Verdict::NonLinearizable(w),
            Verdict::Exhausted { explored } => {
                explored_total += explored;
                if explored_total > opts.max_nodes {
                    return Verdict::Exhausted {
                        explored: explored_total,
                    };
                }
            }
        }
    }
    Verdict::Linearizable
}

// ---------------------------------------------------------------------------
// Witness minimization

/// What kind of object a history describes; drives the minimizer's
/// value-source guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecKind {
    Set,
    Fifo,
    Pq,
    Qui,
}

/// Whether an operation is *state-neutral*: removing it cannot change
/// what any other operation should have returned.
fn is_state_neutral(op: &HistOp) -> bool {
    match op.op {
        Op::Contains(_) | Op::PeekMin | Op::Query => true,
        // Failed consumers observed emptiness without consuming anything.
        Op::Dequeue | Op::PopMin => op.ret == Ret::Opt(None),
        _ => false,
    }
}

/// The value an operation *produces* into the abstract state, if any.
fn produces(kind: SpecKind, op: &HistOp) -> Option<u64> {
    match (kind, op.op) {
        (SpecKind::Fifo, Op::Enqueue(v))
        | (SpecKind::Pq, Op::Push(v))
        | (SpecKind::Qui, Op::Arrive(v)) => Some(v),
        _ => None,
    }
}

/// Whether any retained op still *observes* value `v` (a successful
/// consume, a peek, or a query returning it).
fn observed(kind: SpecKind, retained: &History, v: u64) -> bool {
    retained.lanes.iter().flatten().any(|o| match (kind, o.op) {
        (SpecKind::Fifo, Op::Dequeue)
        | (SpecKind::Pq, Op::PopMin)
        | (SpecKind::Pq, Op::PeekMin) => o.ret == Ret::Opt(Some(v)),
        (SpecKind::Qui, Op::Query) => o.ret == Ret::Val(v),
        _ => false,
    })
}

/// One honest deletion: the sites (lane, index) removed together.
type Unit = Vec<(usize, usize)>;

/// Enumerate every deletion that cannot *manufacture* a violation in the
/// remainder, so a minimized witness is always an honest sub-history:
///
/// * **State-neutral ops** (reads, failed consumers) — always removable:
///   other ops never depended on them.
/// * **Unobserved producers** — an enqueue/push/arrive whose value no
///   retained op observes (or that prefill covers) leaves no dangling
///   observation behind.
/// * **Matched producer/consumer pairs** — deleting `Enqueue(v)` together
///   with `Dequeue → Some(v)` keeps every remaining op's return valid in
///   any witness order, *provided `v` is unique* (one producer, one
///   successful consumer, no other observer, not prefilled). A successful
///   consumer is never deleted alone: that would re-add its value to the
///   state and could fabricate failures downstream. Likewise `Depart` is
///   never deleted (it would resurrect a stale arrive), and set updates
///   are never deleted (they would flip retained membership reads).
fn removal_units(kind: SpecKind, cur: &History, prefill: &[u64]) -> Vec<Unit> {
    let all: Vec<(usize, usize)> = cur
        .lanes
        .iter()
        .enumerate()
        .flat_map(|(l, ops)| (0..ops.len()).map(move |i| (l, i)))
        .collect();

    // State-neutral singles, later ops first.
    let mut units: Vec<Unit> = all
        .iter()
        .filter(|&&(l, i)| is_state_neutral(&cur.lanes[l][i]))
        .map(|&(l, i)| vec![(l, i)])
        .collect();
    units.sort_by_key(|u| usize::MAX - u[0].1);

    // Unobserved-producer singles.
    for &(l, i) in &all {
        let o = cur.lanes[l][i];
        if let Some(v) = produces(kind, &o) {
            let mut rest = cur.clone();
            rest.lanes[l].remove(i);
            if prefill.contains(&v) || !observed(kind, &rest, v) {
                units.push(vec![(l, i)]);
            }
        }
    }

    // Matched unique pairs (FIFO/PQ only).
    if matches!(kind, SpecKind::Fifo | SpecKind::Pq) {
        for &(pl, pi) in &all {
            let p = cur.lanes[pl][pi];
            let Some(v) = produces(kind, &p) else { continue };
            if prefill.contains(&v) {
                continue;
            }
            let producers = all
                .iter()
                .filter(|&&(l, i)| produces(kind, &cur.lanes[l][i]) == Some(v))
                .count();
            let consumers: Vec<(usize, usize)> = all
                .iter()
                .filter(|&&(l, i)| {
                    let o = cur.lanes[l][i];
                    matches!(o.op, Op::Dequeue | Op::PopMin) && o.ret == Ret::Opt(Some(v))
                })
                .copied()
                .collect();
            let peeks = all.iter().any(|&(l, i)| {
                let o = cur.lanes[l][i];
                o.op == Op::PeekMin && o.ret == Ret::Opt(Some(v))
            });
            if producers == 1 && consumers.len() == 1 && !peeks {
                units.push(vec![(pl, pi), consumers[0]]);
            }
        }
    }
    units
}

/// Greedy ddmin over honest deletion units: repeatedly delete one unit,
/// keeping the deletion whenever the remainder still fails `is_violation`,
/// until no deletion survives. State-neutral operations are tried first so
/// witnesses keep their mutating skeleton as long as possible. The result
/// is a locally-minimal honest witness (see [`removal_units`]).
pub fn minimize(
    history: &History,
    kind: SpecKind,
    prefill: &[u64],
    is_violation: impl Fn(&History) -> bool,
) -> History {
    debug_assert!(is_violation(history), "minimize needs a failing history");
    let mut cur = history.clone();
    loop {
        let mut shrunk = false;
        for unit in removal_units(kind, &cur, prefill) {
            let mut trial = cur.clone();
            let mut sites = unit;
            // Same-lane sites must be removed back-to-front.
            sites.sort_by(|a, b| b.cmp(a));
            for (l, i) in sites {
                trial.lanes[l].remove(i);
            }
            if is_violation(&trial) {
                cur = trial;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FifoSpec, KeySpec, PqSpec, QuiSpec, SetSpec};

    fn op(inv: u64, res: u64, op: Op, ret: Ret) -> HistOp {
        HistOp { inv, res, op, ret }
    }

    fn strict() -> CheckOpts {
        // Margin 0: ops are totally ordered by their timestamps unless
        // they overlap exactly; makes hand-built examples unambiguous.
        CheckOpts {
            margin: 0,
            max_nodes: 1 << 20,
        }
    }

    #[test]
    fn empty_history_linearizes() {
        let h = History { lanes: vec![] };
        assert!(check(&h, SetSpec::default(), strict()).is_linearizable());
    }

    #[test]
    fn sequential_consistent_history_linearizes() {
        let h = History {
            lanes: vec![vec![
                op(0, 10, Op::Insert(5), Ret::Bool(true)),
                op(20, 30, Op::Contains(5), Ret::Bool(true)),
                op(40, 50, Op::Remove(5), Ret::Bool(true)),
                op(60, 70, Op::Contains(5), Ret::Bool(false)),
            ]],
        };
        assert!(check(&h, SetSpec::default(), strict()).is_linearizable());
    }

    #[test]
    fn overlapping_ops_may_linearize_in_either_order() {
        // Lane 1's contains overlaps the insert; true is explained by
        // ordering the insert first.
        let h = History {
            lanes: vec![
                vec![op(0, 100, Op::Insert(5), Ret::Bool(true))],
                vec![op(50, 90, Op::Contains(5), Ret::Bool(true))],
            ],
        };
        assert!(check(&h, SetSpec::default(), strict()).is_linearizable());
    }

    /// The 4-op reversal core behind the release-only flake of
    /// `explore::tests::broken_fifo_is_caught_and_minimized`, as one
    /// 2-lane run recorded it: `BrokenFifo` handed lane 0 its later value
    /// 6, and lane 1 got the earlier 4 some 700 cycles after lane 0's
    /// dequeue returned. Under the explorer's margin (2q + 4,096 cycles)
    /// the two dequeues may still reorder, so the core linearizes and the
    /// minimizer must keep more ops; only a margin of at most a few
    /// hundred cycles makes it a violation. The witness size therefore
    /// depends on the host's 2-lane interleaving.
    #[test]
    fn fifo_reversal_core_linearizes_under_the_explorer_margin() {
        let h = History {
            lanes: vec![
                vec![
                    op(1729, 1729, Op::Enqueue(4), Ret::Unit),
                    op(1906, 2322, Op::Enqueue(6), Ret::Unit),
                    op(2820, 2997, Op::Dequeue, Ret::Opt(Some(6))),
                ],
                vec![op(3683, 3860, Op::Dequeue, Ret::Opt(Some(4)))],
            ],
        };
        let explorer = CheckOpts::for_quantum(pto_sim::sched::DEFAULT_QUANTUM);
        assert!(check(&h, FifoSpec::default(), explorer).is_linearizable());
        for margin in [0, 500] {
            let opts = CheckOpts { margin, ..strict() };
            let v = check(&h, FifoSpec::default(), opts);
            assert!(!v.is_linearizable(), "margin {margin} linearized it");
        }
    }

    #[test]
    fn stale_read_after_response_is_caught() {
        // The insert RESPONDED (with margin) before the contains invoked,
        // yet contains returned false: no linearization exists.
        let h = History {
            lanes: vec![
                vec![op(0, 10, Op::Insert(5), Ret::Bool(true))],
                vec![op(100, 110, Op::Contains(5), Ret::Bool(false))],
            ],
        };
        let v = check(&h, SetSpec::default(), strict());
        let Verdict::NonLinearizable(w) = v else {
            panic!("expected NonLinearizable, got {v:?}");
        };
        // The insert alone is explainable; the contains is not.
        assert_eq!(w.best_prefix.len(), 1);
    }

    #[test]
    fn margin_restores_overlap() {
        // Same history, but with a margin wider than the gap the two ops
        // count as concurrent and either order is admissible.
        let h = History {
            lanes: vec![
                vec![op(0, 10, Op::Insert(5), Ret::Bool(true))],
                vec![op(100, 110, Op::Contains(5), Ret::Bool(false))],
            ],
        };
        let opts = CheckOpts {
            margin: 200,
            max_nodes: 1 << 20,
        };
        assert!(check(&h, SetSpec::default(), opts).is_linearizable());
    }

    #[test]
    fn fifo_reorder_is_caught() {
        // Lane 0 enqueues 1 then 2 (sequentially); lane 1 dequeues 2 then
        // 1 strictly later. FIFO forbids it.
        let h = History {
            lanes: vec![
                vec![
                    op(0, 10, Op::Enqueue(1), Ret::Unit),
                    op(20, 30, Op::Enqueue(2), Ret::Unit),
                ],
                vec![
                    op(100, 110, Op::Dequeue, Ret::Opt(Some(2))),
                    op(120, 130, Op::Dequeue, Ret::Opt(Some(1))),
                ],
            ],
        };
        assert!(!check(&h, FifoSpec::default(), strict()).is_linearizable());
        // Sanity: swapping the dequeue results makes it linearizable.
        let mut ok = h.clone();
        ok.lanes[1][0].ret = Ret::Opt(Some(1));
        ok.lanes[1][1].ret = Ret::Opt(Some(2));
        assert!(check(&ok, FifoSpec::default(), strict()).is_linearizable());
    }

    #[test]
    fn pq_must_pop_global_minimum() {
        // Both pushes responded before the pop invoked; popping the larger
        // key while the smaller is present is not a pq behavior.
        let h = History {
            lanes: vec![
                vec![
                    op(0, 10, Op::Push(9), Ret::Unit),
                    op(20, 30, Op::Push(3), Ret::Unit),
                ],
                vec![op(100, 110, Op::PopMin, Ret::Opt(Some(9)))],
            ],
        };
        assert!(!check(&h, PqSpec::default(), strict()).is_linearizable());
    }

    #[test]
    fn qui_query_sees_arrived_minimum() {
        let h = History {
            lanes: vec![
                vec![op(0, 10, Op::Arrive(7), Ret::Unit)],
                vec![op(50, 60, Op::Query, Ret::Val(7))],
            ],
        };
        assert!(check(&h, QuiSpec::new(2), strict()).is_linearizable());
        let mut bad = h.clone();
        bad.lanes[1][0].ret = Ret::Val(pto_core::IDLE);
        assert!(!check(&bad, QuiSpec::new(2), strict()).is_linearizable());
    }

    #[test]
    fn per_key_partitioning_matches_whole_set_check() {
        let h = History {
            lanes: vec![
                vec![
                    op(0, 10, Op::Insert(1), Ret::Bool(true)),
                    op(20, 30, Op::Insert(2), Ret::Bool(true)),
                    op(40, 50, Op::Contains(1), Ret::Bool(true)),
                ],
                vec![
                    op(5, 15, Op::Remove(2), Ret::Bool(false)),
                    op(60, 70, Op::Remove(1), Ret::Bool(true)),
                ],
            ],
        };
        assert!(check(&h, SetSpec::default(), strict()).is_linearizable());
        assert!(check_set_by_key(&h, &[], strict()).is_linearizable());

        let mut bad = h.clone();
        bad.lanes[0][2].ret = Ret::Bool(false); // contains(1) false mid-life
        assert!(!check(&bad, SetSpec::default(), strict()).is_linearizable());
        assert!(!check_set_by_key(&bad, &[], strict()).is_linearizable());
    }

    #[test]
    fn prefilled_key_allows_initial_contains_true() {
        let h = History {
            lanes: vec![vec![op(0, 10, Op::Contains(4), Ret::Bool(true))]],
        };
        assert!(!check_set_by_key(&h, &[], strict()).is_linearizable());
        assert!(check_set_by_key(&h, &[4], strict()).is_linearizable());
        assert!(check(&h, KeySpec::with_present(true), strict()).is_linearizable());
    }

    #[test]
    fn exhaustion_reports_budget_not_a_verdict() {
        let mut lanes = Vec::new();
        for _ in 0..4 {
            // All ops overlap: worst-case interleaving explosion.
            lanes.push(
                (0..12)
                    .map(|_| op(0, 1_000_000, Op::Enqueue(1), Ret::Unit))
                    .collect(),
            );
        }
        let h = History { lanes };
        let opts = CheckOpts {
            margin: 0,
            max_nodes: 16,
        };
        assert!(matches!(
            check(&h, FifoSpec::default(), opts),
            Verdict::Exhausted { .. }
        ));
    }

    #[test]
    fn minimizer_shrinks_fifo_reorder_to_its_core() {
        // A reorder buried in noise: extra enqueues/dequeues that are
        // individually consistent.
        let h = History {
            lanes: vec![
                vec![
                    op(0, 10, Op::Enqueue(7), Ret::Unit),
                    op(20, 30, Op::Enqueue(1), Ret::Unit),
                    op(40, 50, Op::Enqueue(2), Ret::Unit),
                ],
                vec![
                    op(60, 70, Op::Dequeue, Ret::Opt(Some(7))),
                    op(100, 110, Op::Dequeue, Ret::Opt(Some(2))),
                    op(120, 130, Op::Dequeue, Ret::Opt(Some(1))),
                    op(140, 150, Op::Dequeue, Ret::Opt(None)),
                ],
            ],
        };
        let fails =
            |h: &History| !check(h, FifoSpec::default(), strict()).is_linearizable();
        assert!(fails(&h));
        let min = minimize(&h, SpecKind::Fifo, &[], fails);
        // The core is the complete overtake — enqueue(1), enqueue(2),
        // dequeue->2, dequeue->1. (dequeue->1 cannot be dropped alone:
        // deleting a successful consumer would re-add its value, and
        // deleting its pair makes the remainder linearizable.)
        assert_eq!(min.ops(), 4);
        assert!(fails(&min));
        // Honesty: every dequeued value still has its enqueue.
        for o in min.lanes.iter().flatten() {
            if let Ret::Opt(Some(v)) = o.ret {
                assert!(min
                    .lanes
                    .iter()
                    .flatten()
                    .any(|e| e.op == Op::Enqueue(v)));
            }
        }
    }

    #[test]
    fn minimizer_respects_prefill_sources() {
        // dequeue->9 is sourced by prefill, so the enqueue(5) noise can
        // go even though 9's "enqueue" is nowhere in the history.
        let h = History {
            lanes: vec![vec![
                op(0, 10, Op::Enqueue(5), Ret::Unit),
                op(20, 30, Op::Dequeue, Ret::Opt(Some(9))),
                op(40, 50, Op::Dequeue, Ret::Opt(Some(9))),
            ]],
        };
        let prefill = [9u64];
        let fails = |h: &History| {
            !check(h, FifoSpec::with_prefill(prefill), strict()).is_linearizable()
        };
        assert!(fails(&h)); // 9 dequeued twice but prefilled once
        let min = minimize(&h, SpecKind::Fifo, &prefill, fails);
        assert_eq!(min.ops(), 2);
        assert!(min
            .lanes
            .iter()
            .flatten()
            .all(|o| o.op == Op::Dequeue));
    }
}
