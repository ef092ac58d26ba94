//! Retry policies and the PTO executors.

use pto_htm::{transaction_with, AbortCause, CauseCounters, FenceMode, TxOpts, TxResult, Txn};
use pto_sim::obs::{self, Event, Site};
use pto_sim::stats::Counter;
use pto_sim::{charge_n, CostKind};

/// Inter-retry backoff applied after *transient* aborts (conflict or
/// spurious) when more attempts remain. Permanent aborts (capacity,
/// explicit, nested) never back off — they go straight to the fallback.
///
/// DESIGN.md §5: backoff is part of the policy surface so the conflict
/// figures can ablate it; the default is `Off` so the paper's plain
/// retry-N-then-fallback behaviour is unchanged unless asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backoff {
    /// No delay between attempts (the paper's behaviour).
    #[default]
    Off,
    /// Randomized exponential backoff: before retry `k` (0-based count of
    /// aborts so far), spin a uniform `1..=min(base << k, cap)` iterations,
    /// each charged as [`CostKind::SpinIter`] so the delay shows up in
    /// virtual time.
    Exp {
        /// Spin-iteration window for the first retry.
        base: u32,
        /// Upper bound on the window.
        cap: u32,
    },
}

/// Deterministic per-lane backoff jitter. Draws come from the
/// `(site, stream key, gate lane)` stream of [`pto_sim::rng::lane_draw`]:
/// reproducible per lane regardless of which OS thread runs it, and
/// uncorrelated across 64–512 lanes (the first-use-order `WeylSeq` scheme
/// this replaces handed neighbouring lanes seeds on one arithmetic
/// progression and reseeded differently every run at scale).
/// Jitter window (spin iterations) after a failed middle path when the
/// site's granted backoff is `Off`. See the middle-path retry note in
/// [`pto_adaptive`]: without jitter, symmetric lockstep contenders can
/// phase-lock into a no-progress ring.
const MIDDLE_RETRY_WINDOW: u64 = 256;

fn backoff_rng_draw(window: u64) -> u64 {
    use std::cell::Cell;
    const SITE: u64 = 0xBAC0_0FF5_0000_0001;
    thread_local! {
        static SLOT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    SLOT.with(|s| pto_sim::rng::lane_draw_below(SITE, s, window))
}

/// The randomized exponential backoff `b` before retry `attempt + 1`
/// (`attempt` counts aborts so far); `Off` spins nothing.
fn back_off(b: Backoff, attempt: u32) {
    if let Backoff::Exp { base, cap } = b {
        let window = ((base as u64) << attempt.min(32))
            .min(cap.max(1) as u64)
            .max(1);
        spin_charged(1 + backoff_rng_draw(window));
    }
}

/// Spin `spins` iterations, each charged as [`CostKind::SpinIter`], as one
/// backoff span.
fn spin_charged(spins: u64) {
    obs::emit(Event::BackoffBegin { spins });
    charge_n(CostKind::SpinIter, spins);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    obs::emit(Event::BackoffEnd);
}

/// How a PTO'd operation attempts its prefix transaction before falling
/// back to the original lock-free code.
///
/// The paper tunes `attempts` per structure: 3 for the Mindicator (§3.1),
/// 4 for the Mound's DCAS (§4.2), 2 (outer) + 16 (inner) for the composed
/// BST (§4.4).
#[derive(Clone, Copy, Debug)]
pub struct PtoPolicy {
    /// Maximum prefix attempts before the fallback runs.
    pub attempts: u32,
    /// Stop retrying early on aborts that cannot succeed on retry
    /// (capacity, explicit). Conflicts always consume retries.
    pub stop_on_permanent: bool,
    /// Delay between transient-abort retries (default [`Backoff::Off`]).
    pub backoff: Backoff,
    /// Transaction options (capacities, fence elision ablation).
    pub opts: TxOpts,
}

impl PtoPolicy {
    /// `attempts` prefix tries, default capacities, fences elided.
    pub fn with_attempts(attempts: u32) -> Self {
        PtoPolicy {
            attempts,
            stop_on_permanent: true,
            backoff: Backoff::Off,
            opts: TxOpts::default(),
        }
    }

    /// Randomized exponential backoff between transient-abort retries;
    /// spins are charged to the cost model. See [`Backoff::Exp`].
    pub fn with_backoff(mut self, base: u32, cap: u32) -> Self {
        self.backoff = Backoff::Exp { base, cap };
        self
    }

    /// The Figure 5(b)/(c) ablation: keep (charge) the original algorithm's
    /// fences inside the prefix instead of eliding them.
    pub fn keep_fences(mut self) -> Self {
        self.opts.fence_mode = FenceMode::Keep;
        self
    }

    /// Override the write-set capacity (capacity-sensitivity ablation).
    pub fn with_write_cap(mut self, cap: usize) -> Self {
        self.opts.write_cap = cap;
        self
    }

    /// Failure injection: spontaneously abort `pct`% of prefix attempts
    /// ([`pto_htm::AbortCause::Spurious`]) to exercise fallback paths the
    /// way flaky best-effort hardware would.
    pub fn with_chaos(mut self, pct: u8) -> Self {
        self.opts.chaos_abort_pct = pct;
        self
    }
}

impl Default for PtoPolicy {
    fn default() -> Self {
        PtoPolicy::with_attempts(3)
    }
}

/// Per-structure (or per-callsite) PTO outcome counters.
///
/// Unlike the process-global [`pto_htm::snapshot`] counters, a `PtoStats`
/// is owned by one PTO variant instance, so two variants running in the
/// same process report independent abort-cause mixes.
#[derive(Default, Debug)]
pub struct PtoStats {
    /// Operations completed by a committed prefix transaction.
    pub fast: Counter,
    /// Prefix attempts that aborted (any cause).
    pub aborted_attempts: Counter,
    /// Operations that ran the lock-free fallback.
    pub fallback: Counter,
    /// Operations completed on the **middle path**: the prefix re-run and
    /// committed under a software-held orec ([`pto_htm::try_acquire_orec`])
    /// instead of a full fallback. Only the adaptive executors enter it.
    pub middle: Counter,
    /// Aborted attempts bucketed by [`AbortCause`].
    pub causes: CauseCounters,
}

impl PtoStats {
    pub const fn new() -> Self {
        PtoStats {
            fast: Counter::new(),
            aborted_attempts: Counter::new(),
            fallback: Counter::new(),
            middle: Counter::new(),
            causes: CauseCounters::new(),
        }
    }

    /// Fraction of operations completed on the fast path, in [0,1].
    pub fn fast_rate(&self) -> f64 {
        let f = self.fast.get();
        let total = f + self.middle.get() + self.fallback.get();
        if total == 0 {
            0.0
        } else {
            f as f64 / total as f64
        }
    }

    pub fn reset(&self) {
        self.fast.reset();
        self.aborted_attempts.reset();
        self.fallback.reset();
        self.middle.reset();
        self.causes.reset();
    }
}

/// Execute one PTO'd superblock: attempt `prefix` as a transaction up to
/// `policy.attempts` times, then run `fallback` (the original lock-free
/// code). This is the Prefix Transaction Transformation of Definition 1
/// with the retry recursion of §2.5 flattened into a loop.
///
/// ```
/// use pto_core::policy::{pto, PtoPolicy, PtoStats};
/// use pto_htm::TxWord;
///
/// let counter = TxWord::new(0);
/// let stats = PtoStats::new();
/// let v = pto(
///     &PtoPolicy::with_attempts(3),
///     &stats,
///     // The optimized prefix: CAS becomes read + write.
///     |tx| {
///         let v = tx.read(&counter)?;
///         tx.write(&counter, v + 1)?;
///         Ok(v + 1)
///     },
///     // The original lock-free code, untouched.
///     || counter.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1,
/// );
/// assert_eq!(v, 1);
/// assert_eq!(stats.fast.get(), 1); // uncontended ⇒ fast path
/// ```
#[track_caller]
pub fn pto<'e, T>(
    policy: &PtoPolicy,
    stats: &PtoStats,
    prefix: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    pto_at(Site::caller(), policy, stats, prefix, fallback)
}

/// The body of [`pto`], parameterized on the attribution site so that
/// [`pto2`]'s two nesting levels charge the composed call site rather than
/// this file.
pub(crate) fn pto_at<'e, T>(
    site: Site,
    policy: &PtoPolicy,
    stats: &PtoStats,
    mut prefix: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    let _op = obs::op(site);
    for attempt in 0..policy.attempts {
        match transaction_with(policy.opts, &mut prefix) {
            Ok(v) => {
                stats.fast.inc();
                return v;
            }
            Err(cause) => {
                stats.aborted_attempts.inc();
                stats.causes.record(cause);
                if policy.stop_on_permanent && !cause.retry_hint() {
                    break;
                }
                if cause == AbortCause::Nested {
                    break;
                }
                // Back off before the next *transient* retry. (Spurious
                // aborts are transient too — retry_hint() is true — so they
                // back off alongside conflicts; this keeps the delay
                // deterministic to test under chaos injection.)
                if attempt + 1 < policy.attempts {
                    back_off(policy.backoff, attempt);
                }
            }
        }
    }
    stats.fallback.inc();
    run_fallback(fallback)
}

/// Run a fallback as one fallback span.
fn run_fallback<T>(fallback: impl FnOnce() -> T) -> T {
    obs::emit(Event::FallbackEnter);
    let v = fallback();
    obs::emit(Event::FallbackExit);
    v
}

/// Hierarchical composition `T_B(T_A(G))` (§2.5): attempt the large prefix
/// `outer`; inside its fallback, attempt the smaller prefix `inner`; only
/// if both budgets are exhausted does the original code run. Figure 5(a)'s
/// PTO1+PTO2 uses 2 outer and 16 inner attempts.
#[track_caller]
pub fn pto2<'e, T>(
    outer_policy: &PtoPolicy,
    inner_policy: &PtoPolicy,
    outer_stats: &PtoStats,
    inner_stats: &PtoStats,
    outer: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    inner: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    // Both nesting levels charge the composed caller: in the profile they
    // show up as one site whose fallback phase contains the inner attempts
    // (inclusive attribution, like flamegraph sample counts).
    let site = Site::caller();
    pto_at(site, outer_policy, outer_stats, outer, || {
        pto_at(site, inner_policy, inner_stats, inner, fallback)
    })
}

// ---------------------------------------------------------------------------
// Self-tuning adaptive policy (three-path executor)
//
// The static executors above run the paper's fixed budgets. The adaptive
// executors below tune each *call site* online from its own abort-cause
// stream, and add Brown's middle path — one software-held orec instead of
// a full fallback — between the HTM retries and the lock-free original.
//
// Determinism contract (DESIGN.md §5): all adaptive state is thread-local
// and evolves only from the local cause stream, deterministic op counters,
// and `rng::lane_draw` backoff streams, so a simulated run's makespan
// tuple is reproducible and golden tests stay meaningful. The static
// `pto`/`pto2` paths above are untouched — their goldens are bit-identical.

/// The handling regime a call site's abort-cause stream has driven it
/// into. Signals are per-cause EWMAs (fixed-point, decay 7/8 per observed
/// op, impulse 32 per abort, saturating at 256); entry thresholds are
/// checked most-permanent-first and exits use half-threshold hysteresis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Regime {
    /// Aborts are rare: run the base policy unchanged.
    #[default]
    Healthy,
    /// Conflict-dominated: shed retries (they mostly feed the pile-up)
    /// and back off harder between the ones that remain.
    Conflict,
    /// Capacity-dominated: the prefix cannot fit, and capacity is the one
    /// cause that is *predictable* — skip straight to the fallback (in a
    /// `pto2` composition the outer level skipping is exactly a prefix-
    /// granularity shrink onto the inner level), probing every
    /// `probe_period`-th op for recovery.
    Capacity,
    /// Spurious-dominated (flaky best-effort hardware): the prefix is
    /// fine, the HTM is not — retry more before giving up.
    Spurious,
}

impl Regime {
    /// Stable diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Healthy => "healthy",
            Regime::Conflict => "conflict",
            Regime::Capacity => "capacity",
            Regime::Spurious => "spurious",
        }
    }
}

/// Tuning surface of the adaptive executors ([`pto_adaptive`] /
/// [`pto2_adaptive`]): a base [`PtoPolicy`] plus the adaptation knobs.
/// The defaults are deliberately mild — an uncontended site behaves
/// exactly like its base policy.
#[derive(Clone, Copy, Debug)]
pub struct AdaptivePolicy {
    /// The policy a `Healthy` site runs (also supplies `opts` for every
    /// attempt, including middle-path re-runs).
    pub base: PtoPolicy,
    /// Retry ceiling for `Spurious`-regime growth.
    pub max_attempts: u32,
    /// Consecutive same-granule-conflict ops before the middle path arms.
    pub middle_streak: u32,
    /// Spin budget when acquiring the contended orec in software; on
    /// timeout the op demotes to the full fallback instead of convoying.
    pub middle_spins: u64,
    /// In the `Capacity` regime, grant one probe attempt every this many
    /// ops (0 disables probing — the site then never re-arms its prefix).
    pub probe_period: u64,
}

impl AdaptivePolicy {
    pub fn new(base: PtoPolicy) -> Self {
        AdaptivePolicy {
            base,
            max_attempts: base.attempts.saturating_mul(2).max(8),
            middle_streak: 3,
            middle_spins: 64,
            probe_period: 32,
        }
    }

    /// Same-granule streak length that arms the middle path.
    pub fn with_middle_streak(mut self, streak: u32) -> Self {
        self.middle_streak = streak;
        self
    }

    /// Retry ceiling for spurious-driven growth.
    pub fn with_max_attempts(mut self, max: u32) -> Self {
        self.max_attempts = max.max(1);
        self
    }

    /// Capacity-regime probe period (0 disables probing).
    pub fn with_probe_period(mut self, period: u64) -> Self {
        self.probe_period = period;
        self
    }
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy::new(PtoPolicy::default())
    }
}

/// EWMA fixed point: decay 7/8 per observed op, +32 per abort of the
/// cause, saturating at 256 (the fixpoint of one-abort-per-op).
const EWMA_MAX: u32 = 256;
const EWMA_IMPULSE: u32 = 32;

#[inline]
fn ewma_step(e: &mut u32, hits: u32) {
    *e -= *e / 8;
    *e = (*e + hits.min(8) * EWMA_IMPULSE).min(EWMA_MAX);
}

/// What the per-site state granted the current operation.
struct Grant {
    attempts: u32,
    backoff: Backoff,
    /// Conflicts have concentrated on one granule long enough that a
    /// single software orec acquisition should serialize the prefix.
    middle_armed: bool,
}

/// One operation's observed outcome, fed back into the site state.
#[derive(Default)]
struct OpObs {
    attempts_made: u32,
    conflicts: u32,
    capacity: u32,
    spurious: u32,
    fast_commit: bool,
    conflict_orec: Option<usize>,
    conflict_orec_mixed: bool,
    /// The middle path ran (or timed out acquiring its orec) and did not
    /// commit this op.
    middle_failed: bool,
}

impl OpObs {
    fn record_abort(&mut self, cause: AbortCause) {
        match cause {
            AbortCause::Conflict => {
                self.conflicts += 1;
                match (pto_htm::last_conflict_orec(), self.conflict_orec) {
                    (Some(o), None) => self.conflict_orec = Some(o),
                    (Some(o), Some(p)) if o != p => self.conflict_orec_mixed = true,
                    _ => {}
                }
            }
            AbortCause::Capacity => self.capacity += 1,
            AbortCause::Spurious => self.spurious += 1,
            _ => {}
        }
    }

    /// The one granule every conflict this op implicated, if unique.
    fn unique_conflict_orec(&self) -> Option<usize> {
        if self.conflict_orec_mixed {
            None
        } else {
            self.conflict_orec
        }
    }
}

/// Per-(site, nesting level) adaptive state. Thread-local: lanes adapt
/// independently from their own cause streams, so there is no cross-lane
/// shared mutable state to order (determinism), at the cost of each lane
/// learning separately (tens of ops, see the EWMA constants).
#[derive(Default)]
struct SiteState {
    regime: Regime,
    ew_conflict: u32,
    ew_capacity: u32,
    ew_spurious: u32,
    ops: u64,
    /// Consecutive ops whose conflicts all hit `last_orec`.
    streak: u32,
    last_orec: Option<usize>,
}

impl SiteState {
    fn grant(&mut self, ap: &AdaptivePolicy) -> Grant {
        self.ops += 1;
        let base = &ap.base;
        let (mut attempts, backoff) = match self.regime {
            Regime::Healthy => (base.attempts, base.backoff),
            Regime::Capacity => {
                let probing = ap.probe_period > 0 && self.ops.is_multiple_of(ap.probe_period);
                (if probing { 1 } else { 0 }, base.backoff)
            }
            Regime::Conflict => {
                let shed = (base.attempts / 2).max(1).min(base.attempts.max(1));
                let harder = match base.backoff {
                    Backoff::Off => Backoff::Exp { base: 16, cap: 1024 },
                    Backoff::Exp { base: b, cap } => Backoff::Exp {
                        base: b.saturating_mul(2),
                        cap: cap.saturating_mul(4).max(1),
                    },
                };
                (shed, harder)
            }
            // Spurious aborts carry no contention signal: every retry is
            // expected to succeed eventually, so spend the whole ceiling
            // before paying for a fallback.
            Regime::Spurious => (ap.max_attempts.max(base.attempts).max(1), base.backoff),
        };
        let middle_armed = self.streak >= ap.middle_streak && self.last_orec.is_some();
        if middle_armed {
            // One optimistic HTM try, then straight to the middle path —
            // burning the full budget against a known hot granule only
            // feeds the pile-up.
            attempts = attempts.min(1);
        }
        Grant {
            attempts,
            backoff,
            middle_armed,
        }
    }

    fn absorb(&mut self, obs: &OpObs) {
        // Same-granule streak drives the middle path. A fast-path commit
        // proves the granule cooled down; scattered conflicts prove one
        // orec would not serialize them. A middle path that ran and still
        // failed to commit disproves the bet outright — holding the
        // granule did not buy a commit, so the streak evidence is stale
        // and must be rebuilt before the op convoys on that orec again.
        if obs.middle_failed || obs.fast_commit {
            self.streak = 0;
        } else if let Some(o) = obs.unique_conflict_orec() {
            if self.last_orec == Some(o) {
                self.streak = self.streak.saturating_add(1);
            } else {
                self.last_orec = Some(o);
                self.streak = 1;
            }
        } else if obs.conflicts > 0 {
            self.streak = 0;
            self.last_orec = None;
        }
        // EWMAs move only when the op attempted at least once — a
        // Capacity-regime op that skipped straight to the fallback carries
        // no evidence either way. Probe ops supply the recovery signal.
        if obs.attempts_made > 0 {
            ewma_step(&mut self.ew_conflict, obs.conflicts);
            ewma_step(&mut self.ew_capacity, obs.capacity);
            ewma_step(&mut self.ew_spurious, obs.spurious);
            let next = self.pick_regime();
            if next != self.regime {
                self.regime = next;
                obs::emit(Event::AdaptFlip);
            }
        }
    }

    fn pick_regime(&self) -> Regime {
        // Entry thresholds, most-permanent cause first; half-threshold
        // hysteresis holds a regime until its signal clearly fades.
        if self.ew_capacity >= 128 {
            return Regime::Capacity;
        }
        if self.ew_conflict >= 160 {
            return Regime::Conflict;
        }
        if self.ew_spurious >= 160 {
            return Regime::Spurious;
        }
        match self.regime {
            Regime::Capacity if self.ew_capacity >= 64 => Regime::Capacity,
            Regime::Conflict if self.ew_conflict >= 80 => Regime::Conflict,
            Regime::Spurious if self.ew_spurious >= 80 => Regime::Spurious,
            _ => Regime::Healthy,
        }
    }
}

struct AdaptReg {
    map: std::collections::HashMap<(Site, u8), SiteState>,
    last_lane: Option<usize>,
    last_now: u64,
}

thread_local! {
    static ADAPT: std::cell::RefCell<AdaptReg> = std::cell::RefCell::new(AdaptReg {
        map: std::collections::HashMap::new(),
        last_lane: None,
        last_now: 0,
    });
}

/// Run `f` on the site's state. The registry self-resets when the thread
/// changes gate lane or the virtual clock runs backwards (a new `Sim` run
/// or cell): state never leaks between runs, mirroring the observation
/// subsystem's rotation rule, so reruns of one cell adapt identically.
fn with_site<R>(site: Site, level: u8, f: impl FnOnce(&mut SiteState) -> R) -> R {
    ADAPT.with(|r| {
        let mut r = r.borrow_mut();
        let lane = pto_sim::clock::current_lane();
        let now = pto_sim::now();
        if lane != r.last_lane || now < r.last_now {
            r.map.clear();
        }
        r.last_lane = lane;
        r.last_now = now;
        f(r.map.entry((site, level)).or_default())
    })
}

/// The current thread's adaptive regime for the calling site of the last
/// [`pto_adaptive`] at `(site, level)` — a test/diagnostic hook.
#[doc(hidden)]
pub fn adaptive_regime_at(site: Site, level: u8) -> Option<Regime> {
    ADAPT.with(|r| r.borrow().map.get(&(site, level)).map(|s| s.regime))
}

/// Self-tuning three-path PTO executor: per-call-site retry budgets and
/// backoff tuned online from the abort-cause stream, with a middle path
/// (one software-held orec, [`pto_htm::transaction_owned`]) between the
/// HTM retries and the full fallback.
///
/// An uncontended site behaves exactly like `pto` with `policy.base`;
/// under capacity, conflict, or spurious domination the site's budget
/// shifts as documented on [`Regime`]. All decisions are deterministic
/// (thread-local cause stream + op counters + seeded backoff draws).
#[track_caller]
pub fn pto_adaptive<'e, T>(
    policy: &AdaptivePolicy,
    stats: &PtoStats,
    prefix: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    pto_adaptive_at(Site::caller(), 0, policy, stats, prefix, fallback)
}

/// Adaptive composition `T_B(T_A(G))`: both levels adapt independently
/// (state is keyed by (site, nesting level)); an outer level driven into
/// the `Capacity` regime skips its prefix, which *is* the granularity
/// shrink onto the inner level.
#[track_caller]
pub fn pto2_adaptive<'e, T>(
    outer_policy: &AdaptivePolicy,
    inner_policy: &AdaptivePolicy,
    outer_stats: &PtoStats,
    inner_stats: &PtoStats,
    outer: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    inner: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    let site = Site::caller();
    pto_adaptive_at(site, 0, outer_policy, outer_stats, outer, || {
        pto_adaptive_at(site, 1, inner_policy, inner_stats, inner, fallback)
    })
}

pub(crate) fn pto_adaptive_at<'e, T>(
    site: Site,
    level: u8,
    ap: &AdaptivePolicy,
    stats: &PtoStats,
    mut prefix: impl FnMut(&mut Txn<'e>) -> TxResult<T>,
    fallback: impl FnOnce() -> T,
) -> T {
    let _op = obs::op(site);
    let grant = with_site(site, level, |st| st.grant(ap));
    obs::emit(Event::SiteBudget {
        attempts: grant.attempts as u64,
    });
    let mut seen = OpObs::default();

    // --- Path 1: best-effort HTM attempts (the `pto_at` loop under the
    // granted budget/backoff). ------------------------------------------
    for attempt in 0..grant.attempts {
        seen.attempts_made += 1;
        match transaction_with(ap.base.opts, &mut prefix) {
            Ok(v) => {
                stats.fast.inc();
                seen.fast_commit = true;
                with_site(site, level, |st| st.absorb(&seen));
                return v;
            }
            Err(cause) => {
                stats.aborted_attempts.inc();
                stats.causes.record(cause);
                seen.record_abort(cause);
                if ap.base.stop_on_permanent && !cause.retry_hint() {
                    break;
                }
                if cause == AbortCause::Nested {
                    break;
                }
                if attempt + 1 < grant.attempts {
                    back_off(grant.backoff, attempt);
                }
            }
        }
    }

    // --- Path 2: the middle path. One re-run of the prefix under the hot
    // granule's software-held orec; holding it excludes every competing
    // writer, so the conflicts that burned path 1 cannot recur. ----------
    if grant.middle_armed {
        let oidx = seen
            .unique_conflict_orec()
            .or_else(|| with_site(site, level, |st| st.last_orec));
        if let Some(oidx) = oidx {
            if let Some(mut guard) = pto_htm::try_acquire_orec(oidx, ap.middle_spins) {
                obs::emit(Event::MiddleEnter);
                seen.attempts_made += 1;
                let res = pto_htm::transaction_owned(ap.base.opts, &mut guard, &mut prefix);
                drop(guard);
                match res {
                    Ok(v) => {
                        stats.middle.inc();
                        with_site(site, level, |st| st.absorb(&seen));
                        return v;
                    }
                    Err(cause) => {
                        stats.aborted_attempts.inc();
                        stats.causes.record(cause);
                        seen.record_abort(cause);
                        seen.middle_failed = true;
                    }
                }
            } else {
                seen.middle_failed = true;
            }
            // A failed middle path (abort or acquisition timeout) under
            // symmetric contention is a livelock hazard: several lanes in
            // gate lockstep re-acquiring hot orecs on the same cadence can
            // phase-lock into a ring where every lane's unlocked windows
            // miss every waiter's runnable windows and no op ever commits.
            // A per-lane seeded jitter draw (charged, like inter-attempt
            // backoff) staggers the cadences and breaks the alignment.
            if seen.middle_failed {
                let window = match grant.backoff {
                    Backoff::Exp { base, cap } => {
                        ((base as u64) << 1).clamp(1, cap.max(1) as u64)
                    }
                    Backoff::Off => MIDDLE_RETRY_WINDOW,
                };
                spin_charged(1 + backoff_rng_draw(window));
            }
        }
    }

    // --- Path 3: the full fallback (identical sequence to `pto_at`). ----
    stats.fallback.inc();
    let v = run_fallback(fallback);
    with_site(site, level, |st| st.absorb(&seen));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pto_htm::TxWord;

    #[test]
    fn fast_path_wins_when_uncontended() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(3);
        let v = pto(
            &policy,
            &stats,
            |tx| {
                tx.write(&w, 1)?;
                Ok("fast")
            },
            || "slow",
        );
        assert_eq!(v, "fast");
        assert_eq!(stats.fast.get(), 1);
        assert_eq!(stats.fallback.get(), 0);
        assert_eq!(w.peek(), 1);
    }

    #[test]
    fn explicit_abort_goes_straight_to_fallback() {
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(5);
        let v = pto(
            &policy,
            &stats,
            |tx| -> TxResult<&str> { Err(tx.abort(crate::ABORT_HELP)) },
            || "slow",
        );
        assert_eq!(v, "slow");
        // Permanent abort: exactly one attempt, not five.
        assert_eq!(stats.aborted_attempts.get(), 1);
        assert_eq!(stats.fallback.get(), 1);
    }

    #[test]
    fn capacity_abort_is_permanent() {
        let words: Vec<TxWord> = (0..32).map(TxWord::new).collect();
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(4).with_write_cap(4);
        let v = pto(
            &policy,
            &stats,
            |tx| {
                for w in &words {
                    tx.write(w, 1)?;
                }
                Ok(true)
            },
            || false,
        );
        assert!(!v);
        assert_eq!(stats.aborted_attempts.get(), 1);
    }

    #[test]
    fn zero_attempts_always_falls_back() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(0);
        let v = pto(&policy, &stats, |tx| tx.read(&w), || 99);
        assert_eq!(v, 99);
        assert_eq!(stats.fast.get(), 0);
        assert_eq!(stats.fallback.get(), 1);
    }

    #[test]
    fn fallback_preserves_progress_under_doomed_prefix() {
        // A prefix that always explicitly aborts must never prevent the
        // operation from completing (Theorem 3's structure).
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(3);
        for i in 0..100 {
            let v = pto(
                &policy,
                &stats,
                |tx| -> TxResult<u64> { Err(tx.abort(1)) },
                || i,
            );
            assert_eq!(v, i);
        }
        assert_eq!(stats.fallback.get(), 100);
    }

    #[test]
    fn pto2_orders_outer_inner_fallback() {
        use std::cell::RefCell;
        let order = RefCell::new(Vec::new());
        let s1 = PtoStats::new();
        let s2 = PtoStats::new();
        let v = pto2(
            &PtoPolicy::with_attempts(2),
            &PtoPolicy::with_attempts(3),
            &s1,
            &s2,
            |tx| -> TxResult<&str> {
                order.borrow_mut().push("outer");
                Err(tx.abort(1))
            },
            |tx| -> TxResult<&str> {
                order.borrow_mut().push("inner");
                Err(tx.abort(1))
            },
            || {
                order.borrow_mut().push("fallback");
                "done"
            },
        );
        assert_eq!(v, "done");
        // Explicit aborts are permanent: one outer try, one inner try.
        assert_eq!(*order.borrow(), vec!["outer", "inner", "fallback"]);
    }

    #[test]
    fn pto2_inner_can_succeed_after_outer_fails() {
        let w = TxWord::new(0);
        let s1 = PtoStats::new();
        let s2 = PtoStats::new();
        let v = pto2(
            &PtoPolicy::with_attempts(2),
            &PtoPolicy::with_attempts(16),
            &s1,
            &s2,
            |tx| -> TxResult<u64> { Err(tx.abort(1)) },
            |tx| {
                tx.write(&w, 7)?;
                Ok(7)
            },
            || unreachable!("inner should have committed"),
        );
        assert_eq!(v, 7);
        assert_eq!(w.peek(), 7);
        assert_eq!(s1.fallback.get(), 1); // outer fell through
        assert_eq!(s2.fast.get(), 1); // inner committed
    }

    #[test]
    fn fast_rate_reflects_path_mix() {
        let stats = PtoStats::new();
        stats.fast.add(3);
        stats.fallback.add(1);
        assert!((stats.fast_rate() - 0.75).abs() < 1e-12);
        stats.reset();
        assert_eq!(stats.fast_rate(), 0.0);
    }

    #[test]
    fn causes_bucket_by_abort_kind() {
        // Explicit abort → exactly one Explicit tick.
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(5);
        pto(
            &policy,
            &stats,
            |tx| -> TxResult<()> { Err(tx.abort(crate::ABORT_HELP)) },
            || (),
        );
        assert_eq!(stats.causes.explicit.get(), 1);
        assert_eq!(stats.causes.total(), 1);

        // Capacity overflow → one Capacity tick.
        let words: Vec<TxWord> = (0..8).map(TxWord::new).collect();
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(4).with_write_cap(2);
        pto(
            &policy,
            &stats,
            |tx| {
                for w in &words {
                    tx.write(w, 1)?;
                }
                Ok(())
            },
            || (),
        );
        assert_eq!(stats.causes.capacity.get(), 1);
        assert_eq!(stats.causes.total(), 1);

        // Chaos at 100% strikes every attempt → `attempts` Spurious ticks.
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(3).with_chaos(100);
        pto(&policy, &stats, |tx| tx.read(&w), || 0);
        assert_eq!(stats.causes.spurious.get(), 3);
        assert_eq!(stats.causes.total(), 3);
        assert_eq!(stats.aborted_attempts.get(), stats.causes.total());
    }

    #[test]
    fn two_stats_in_one_process_stay_independent() {
        // The heart of the per-variant observability claim: two variants'
        // cause mixes must not bleed into each other even though the HTM's
        // process-global counters see both.
        let spurious_stats = PtoStats::new();
        let capacity_stats = PtoStats::new();
        let spurious_policy = PtoPolicy::with_attempts(1).with_chaos(100);
        let capacity_policy = PtoPolicy::with_attempts(1).with_write_cap(1);
        let words: Vec<TxWord> = (0..4).map(TxWord::new).collect();
        for _ in 0..10 {
            pto(
                &spurious_policy,
                &spurious_stats,
                |tx| tx.read(&words[0]),
                || 0,
            );
            pto(
                &capacity_policy,
                &capacity_stats,
                |tx| {
                    for w in &words {
                        tx.write(w, 1)?;
                    }
                    Ok(0)
                },
                || 0,
            );
        }
        assert_eq!(spurious_stats.causes.spurious.get(), 10);
        assert_eq!(spurious_stats.causes.capacity.get(), 0);
        assert_eq!(capacity_stats.causes.capacity.get(), 10);
        assert_eq!(capacity_stats.causes.spurious.get(), 0);
    }

    #[test]
    fn backoff_charges_spin_time_between_transient_retries() {
        // Same doomed-transient workload with and without backoff: the
        // backoff run must consume strictly more virtual time, all of it
        // SpinIter-shaped.
        let w = TxWord::new(0);
        let run = |policy: &PtoPolicy| {
            let stats = PtoStats::new();
            let t0 = pto_sim::now();
            pto(policy, &stats, |tx| tx.read(&w), || 0u64);
            (pto_sim::now() - t0, stats)
        };
        let off = PtoPolicy::with_attempts(4).with_chaos(100);
        let on = off.with_backoff(64, 4096);
        let (t_off, s_off) = run(&off);
        let (t_on, s_on) = run(&on);
        // Identical transactional work...
        assert_eq!(s_off.causes.spurious.get(), 4);
        assert_eq!(s_on.causes.spurious.get(), 4);
        // ...but the backoff run paid for its spins.
        assert!(
            t_on > t_off,
            "backoff charged no extra time (off={t_off}, on={t_on})"
        );
        let spin = pto_sim::cost::cycles(CostKind::SpinIter);
        // 3 inter-retry gaps, each at least one spin.
        assert!(t_on - t_off >= 3 * spin);
        // And bounded by the windows: 64 + 128 + 256 spins max.
        assert!(t_on - t_off <= (64 + 128 + 256) * spin);
    }

    #[test]
    fn backoff_never_delays_permanent_aborts() {
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(5).with_backoff(1 << 20, 1 << 20);
        let t0 = pto_sim::now();
        pto(
            &policy,
            &stats,
            |tx| -> TxResult<()> { Err(tx.abort(crate::ABORT_HELP)) },
            || (),
        );
        let elapsed = pto_sim::now() - t0;
        // One attempt, no spins: elapsed is just the txn begin/abort costs,
        // far below a single 2^20-spin window.
        assert!(elapsed < pto_sim::cost::cycles(CostKind::SpinIter) * (1 << 20));
        assert_eq!(stats.causes.explicit.get(), 1);
    }

    #[test]
    fn adaptive_uncontended_matches_base_policy() {
        // A healthy site must behave exactly like its base policy: fast
        // commits, no middle entries, no fallbacks — and charge the same
        // virtual time as the static executor.
        let w = TxWord::new(0);
        let run_static = || {
            pto_sim::clock::reset();
            let stats = PtoStats::new();
            let policy = PtoPolicy::with_attempts(3);
            for _ in 0..50 {
                pto(
                    &policy,
                    &stats,
                    |tx| {
                        let v = tx.read(&w)?;
                        tx.write(&w, v + 1)?;
                        Ok(())
                    },
                    || (),
                );
            }
            (pto_sim::now(), stats.fast.get())
        };
        let run_adaptive = || {
            pto_sim::clock::reset();
            let stats = PtoStats::new();
            let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(3));
            for _ in 0..50 {
                pto_adaptive(
                    &ap,
                    &stats,
                    |tx| {
                        let v = tx.read(&w)?;
                        tx.write(&w, v + 1)?;
                        Ok(())
                    },
                    || (),
                );
            }
            (pto_sim::now(), stats.fast.get(), stats.middle.get())
        };
        let (t_static, fast_static) = run_static();
        let (t_adaptive, fast_adaptive, middle) = run_adaptive();
        assert_eq!(fast_static, 50);
        assert_eq!(fast_adaptive, 50);
        assert_eq!(middle, 0);
        assert_eq!(t_static, t_adaptive, "healthy adaptive must cost the same");
    }

    #[test]
    fn adaptive_capacity_site_sheds_its_prefix() {
        // Capacity-doomed prefix: after the EWMA crosses the threshold the
        // site stops attempting (except probes), so far fewer capacity
        // aborts than ops are observed.
        pto_sim::clock::reset();
        let words: Vec<TxWord> = (0..32).map(TxWord::new).collect();
        let stats = PtoStats::new();
        let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(4).with_write_cap(4))
            .with_probe_period(32);
        let ops = 300u64;
        for _ in 0..ops {
            pto_adaptive(
                &ap,
                &stats,
                |tx| {
                    for w in &words {
                        tx.write(w, 1)?;
                    }
                    Ok(())
                },
                || (),
            );
        }
        assert_eq!(stats.fallback.get(), ops, "every op completes via fallback");
        // Static would pay one capacity abort per op (stop_on_permanent);
        // adaptive pays ~6 to enter the regime plus one per probe.
        assert!(
            stats.causes.capacity.get() < ops / 4,
            "site kept attempting a capacity-doomed prefix: {} aborts / {} ops",
            stats.causes.capacity.get(),
            ops
        );
        assert!(stats.causes.capacity.get() > 0);
    }

    #[test]
    fn adaptive_capacity_site_recovers_via_probes() {
        // The prefix is capacity-doomed only for the first phase; probes
        // must rediscover the fast path after the phase change.
        pto_sim::clock::reset();
        let words: Vec<TxWord> = (0..32).map(TxWord::new).collect();
        let stats = PtoStats::new();
        let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(4).with_write_cap(4))
            .with_probe_period(8);
        let mut doomed = true;
        let mut fast_tail = 0u64;
        for op in 0..400 {
            if op == 200 {
                doomed = false;
            }
            let need = if doomed { words.len() } else { 1 };
            let fast_before = stats.fast.get();
            pto_adaptive(
                &ap,
                &stats,
                |tx| {
                    for w in words.iter().take(need) {
                        tx.write(w, 1)?;
                    }
                    Ok(())
                },
                || (),
            );
            if op >= 300 && stats.fast.get() > fast_before {
                fast_tail += 1;
            }
        }
        assert!(
            fast_tail >= 90,
            "site failed to recover the fast path after the phase change ({fast_tail}/100 fast)"
        );
    }

    #[test]
    fn adaptive_spurious_site_retries_more() {
        // 50% chaos: a static 1-attempt policy falls back half the time;
        // the adaptive site grows its budget and completes more ops fast.
        let w = TxWord::new(0);
        let run = |adaptive: bool| {
            pto_sim::clock::reset();
            let stats = PtoStats::new();
            let base = PtoPolicy::with_attempts(1).with_chaos(50);
            let ap = AdaptivePolicy::new(base).with_max_attempts(8);
            pto_sim::Sim::new(1).run(|_| {
                for _ in 0..300 {
                    if adaptive {
                        pto_adaptive(&ap, &stats, |tx| tx.read(&w), || 0);
                    } else {
                        pto(&base, &stats, |tx| tx.read(&w), || 0);
                    }
                }
            });
            (stats.fast.get(), stats.fallback.get())
        };
        let (fast_static, fb_static) = run(false);
        let (fast_adaptive, fb_adaptive) = run(true);
        assert_eq!(fast_static + fb_static, 300);
        assert_eq!(fast_adaptive + fb_adaptive, 300);
        assert!(
            fb_adaptive < fb_static / 2,
            "spurious site failed to shed fallbacks: static {fb_static}, adaptive {fb_adaptive}"
        );
    }

    #[test]
    fn adaptive_middle_path_serializes_a_hot_granule() {
        // A guard held by the test thread makes every attempt conflict on
        // one orec; the adaptive site must arm the middle path... but the
        // orec is held, so acquisition times out and ops demote to the
        // fallback. Release the guard: the next conflicted op acquires the
        // orec and completes on the middle path.
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(2)).with_middle_streak(2);
        {
            let _g = pto_htm::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
            for _ in 0..6 {
                pto_adaptive(&ap, &stats, |tx| tx.read(&w), || 0u64);
            }
            // All ops fell back; the streak armed the middle path but the
            // foreign holder kept the acquisition timing out.
            assert_eq!(stats.fallback.get(), 6);
            assert_eq!(stats.middle.get(), 0);
        }
        // Holder gone: HTM attempts succeed again (fast path returns).
        let v = pto_adaptive(&ap, &stats, |tx| tx.read(&w).map(|x| x + 1), || 0);
        assert_eq!(v, 1);
        assert!(stats.fast.get() >= 1);
    }

    #[test]
    fn adaptive_middle_path_commits_once_the_granule_frees() {
        // Deterministic middle-path commit: arm the streak against a
        // guard-held orec, release the guard, then fail each op's single
        // remaining HTM attempt by hand so the op must take the middle
        // path — where the re-run succeeds under the acquired orec.
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(2)).with_middle_streak(2);
        // Both phases must hit the SAME adaptive site: pin it explicitly
        // (two `pto_adaptive` calls on different lines are different sites).
        let site = Site::caller();
        {
            let _g = pto_htm::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
            // Exactly `middle_streak` warm-up ops: the streak reaches the
            // arming threshold without any op *running* armed — an armed op
            // here would take the middle path against the held guard, time
            // out, and (by design) zero the streak it just built.
            for _ in 0..2 {
                pto_adaptive_at(site, 0, &ap, &stats, |tx| tx.read(&w), || 0u64);
            }
        }
        assert_eq!(stats.fallback.get(), 2, "armed via guard-held conflicts");
        // With the middle path armed the grant clamps HTM attempts to one,
        // so per op the prefix runs at most twice: invocation 1 is the HTM
        // attempt (we doom it), invocation 2 is the owned-orec re-run.
        let invocation = std::cell::Cell::new(0u32);
        for op in 0..5u64 {
            invocation.set(0);
            let v = pto_adaptive_at(
                site,
                0,
                &ap,
                &stats,
                |tx| {
                    invocation.set(invocation.get() + 1);
                    let v = tx.read(&w)?;
                    if invocation.get() == 1 {
                        return Err(pto_htm::Abort {
                            cause: pto_htm::AbortCause::Conflict,
                        });
                    }
                    tx.write(&w, v + 1)?;
                    Ok(v + 1)
                },
                || unreachable!("middle path must absorb the op"),
            );
            assert_eq!(v, op + 1, "owned re-run reads its own committed value");
            assert_eq!(invocation.get(), 2, "exactly one HTM try then the middle run");
        }
        assert_eq!(stats.middle.get(), 5);
        assert_eq!(w.peek(), 5);
    }

    #[test]
    fn adaptive_conflict_regime_sheds_attempts_and_backs_off() {
        // Drive a site into the Conflict regime with a guard-held orec and
        // check the regime flip is observable and the budget shrinks.
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(4)).with_middle_streak(u32::MAX);
        let site = Site::caller();
        let _g = pto_htm::try_acquire_orec(w.orec_index(), 8).expect("uncontended");
        let mut aborts_per_op = Vec::new();
        for _ in 0..30 {
            let before = stats.aborted_attempts.get();
            pto_adaptive_at(site, 0, &ap, &stats, |tx| tx.read(&w), || 0u64);
            aborts_per_op.push(stats.aborted_attempts.get() - before);
        }
        assert_eq!(adaptive_regime_at(site, 0), Some(Regime::Conflict));
        // First op burned the full budget; late ops run the shed budget.
        assert_eq!(aborts_per_op[0], 4);
        assert_eq!(*aborts_per_op.last().unwrap(), 2);
    }

    #[test]
    fn adaptive_pto2_capacity_outer_shrinks_to_inner() {
        // Outer prefix is capacity-doomed, inner fits: after adaptation
        // the composition stops burning outer attempts and completes on
        // the inner fast path (the granularity shrink).
        pto_sim::clock::reset();
        let words: Vec<TxWord> = (0..32).map(TxWord::new).collect();
        let outer_stats = PtoStats::new();
        let inner_stats = PtoStats::new();
        let outer_ap = AdaptivePolicy::new(PtoPolicy::with_attempts(2).with_write_cap(4));
        let inner_ap = AdaptivePolicy::new(PtoPolicy::with_attempts(16));
        for _ in 0..200 {
            pto2_adaptive(
                &outer_ap,
                &inner_ap,
                &outer_stats,
                &inner_stats,
                |tx| {
                    for w in &words {
                        tx.write(w, 1)?;
                    }
                    Ok(())
                },
                |tx| {
                    let v = tx.read(&words[0])?;
                    tx.write(&words[0], v + 1)?;
                    Ok(())
                },
                || unreachable!("inner fits in capacity"),
            );
        }
        assert_eq!(inner_stats.fast.get(), 200, "inner completes every op");
        assert!(
            outer_stats.causes.capacity.get() < 50,
            "outer kept attempting a capacity-doomed prefix: {}",
            outer_stats.causes.capacity.get()
        );
    }

    #[test]
    fn adaptive_decisions_are_deterministic_across_reruns() {
        // Two identical single-lane Sim runs over a phase-changing
        // workload must produce identical makespans and stats tuples.
        let run = || {
            pto_sim::clock::reset();
            let words: Vec<TxWord> = (0..32).map(TxWord::new).collect();
            let stats = PtoStats::new();
            let ap = AdaptivePolicy::new(
                PtoPolicy::with_attempts(3).with_write_cap(4).with_chaos(20),
            );
            let out = pto_sim::Sim::new(1).run(|_| {
                for op in 0..200 {
                    let need = if op < 100 { words.len() } else { 1 };
                    pto_adaptive(
                        &ap,
                        &stats,
                        |tx| {
                            for w in words.iter().take(need) {
                                tx.write(w, 1)?;
                            }
                            Ok(())
                        },
                        || (),
                    );
                }
            });
            (
                out.makespan,
                stats.fast.get(),
                stats.middle.get(),
                stats.fallback.get(),
                stats.causes.capacity.get(),
                stats.causes.spurious.get(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn conflicts_consume_all_attempts() {
        // Simulate persistent conflict by having another thread hammer the
        // word; eventually attempts exhaust and fallback runs at least once
        // across many operations.
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let policy = PtoPolicy::with_attempts(2);
        let stop_flag = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let stop = &stop_flag;
            let wref = &w;
            s.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    wref.store(1, std::sync::atomic::Ordering::Release);
                }
            });
            for _ in 0..3000 {
                pto(
                    &policy,
                    &stats,
                    |tx| {
                        let v = tx.read(wref)?;
                        std::hint::spin_loop();
                        tx.write(wref, v + 1)?;
                        Ok(())
                    },
                    || (),
                );
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(stats.fast.get() + stats.fallback.get(), 3000);
    }
}
