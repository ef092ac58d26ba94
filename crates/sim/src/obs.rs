//! Observation: one event stream, folded into every view.
//!
//! Instrumented sites across the workspace report each occurrence once,
//! as an [`Event`] passed to [`emit`]. A [`Session`] installed on the
//! emitting thread (directly, or inherited by `Sim` lanes and
//! [`par`](crate::par) workers through [`ctx::SLOT_OBS`]) stamps the
//! event with the thread's virtual clock and folds it, as it arrives,
//! into three views:
//!
//! * the 19 counter [`Series`] (count, sum and max per series — the
//!   per-cell aggregates the bench reports print);
//! * the per-(call site, [`Phase`]) attribution of executor time, from
//!   the `OpBegin{site}`/`OpEnd` frame each executor call emits and the
//!   attempt, backoff, fallback and combine spans inside it;
//! * optionally, a bounded ring of the stamped events themselves, which
//!   feeds the Chrome trace-event export (spans, instants and counter
//!   tracks on one timeline), the span summary and [`validate_chrome`].
//!
//! Design constraints, in order:
//!
//! 1. **Zero effect on virtual time.** [`emit`] never charges the clock;
//!    with no session live anywhere in the process its whole cost is one
//!    relaxed load, so virtual-time results are bit-identical observed or
//!    not (`tests/trace_overhead.rs`, `tests/metrics_overhead.rs`).
//! 2. **Exact folds, bounded memory.** Series and attribution are folded
//!    on arrival, so they stay exact whatever happens to the ring. Each
//!    ring track keeps its *first* `capacity` events and counts the rest
//!    as dropped; every export reports the drop count.
//! 3. **Scoped, nestable, no process globals.** A session records only
//!    what threads carrying it emit, so concurrent cells never see each
//!    other's events; a session installed inside another feeds both.
//! 4. **Drains need no thread cooperation.** Each thread's log is
//!    registered with the session when the thread first emits into it, so
//!    a drain sees a worker's events whether or not the worker has exited
//!    or run its TLS destructors — no flush, no parking.
//!
//! Timestamps are per-lane virtual cycles. The gate keeps lanes within
//! roughly one quantum of each other, so cross-track timestamp comparisons
//! carry that skew; `TxCommit{rv, wv}` carries global-version-clock reads,
//! which order committed writers exactly.

use crate::ctx;
use crate::sync::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-track event capacity of [`Session::arm`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Human-readable abort-cause names, indexed by the `cause` payload of
/// [`Event::TxAbort`] (see `AbortCause::trace_code` in `pto-htm`).
pub const CAUSE_NAMES: [&str; 5] = ["conflict", "capacity", "explicit", "nested", "spurious"];

/// One observed occurrence. Paired kinds (`*Begin`/`*End`,
/// `Enter`/`Exit`, `Pin`/`Unpin`) delimit spans; the rest are instants or
/// counter updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A transaction attempt started (before its `TxBegin` cost).
    TxBegin,
    /// The attempt committed: `rv` is its read snapshot and `wv` its write
    /// version on the global version clock (read-only commits report
    /// `wv == rv`: they serialize at begin).
    TxCommit {
        rv: u64,
        wv: u64,
    },
    /// The attempt aborted; `cause` indexes [`CAUSE_NAMES`].
    TxAbort {
        cause: u8,
    },
    /// An executor call started at `site`; closed by [`Event::OpEnd`].
    OpBegin {
        site: Site,
    },
    OpEnd,
    /// Execution entered a non-speculative fallback (lock-free original
    /// code for PTO, the global lock for TLE).
    FallbackEnter,
    FallbackExit,
    /// Charged retry backoff of `spins` spin iterations.
    BackoffBegin {
        spins: u64,
    },
    BackoffEnd,
    /// Outermost epoch pin / unpin.
    EpochPin,
    EpochUnpin,
    /// The global epoch advanced to `epoch` (reclamation lag is now 0).
    EpochAdvance {
        epoch: u64,
    },
    /// An advance was blocked by a pin `lag` advances behind.
    EpochLag {
        lag: u64,
    },
    /// A hazard-pointer reclamation scan.
    HazardScanBegin,
    HazardScanEnd {
        reclaimed: u64,
    },
    /// The gate blocked this lane, `skew` cycles ahead of the slowest
    /// lane, until stragglers caught up (waiting charges nothing).
    GateWaitBegin {
        skew: u64,
    },
    GateWaitEnd,
    /// A parked lane refreshed a stale tournament root by exact scan.
    GateBackstop,
    /// A flat-combining round; `serviced` counts requests combined.
    CombineBegin,
    CombineEnd {
        serviced: u64,
    },
    /// The allocating thread's pool magazine holds `len` slots.
    PoolMagazine {
        len: u64,
    },
    /// The shared limbo queue holds `depth` retired slots.
    LimboDepth {
        depth: u64,
    },
    /// An adaptive executor granted its call site `attempts` attempts.
    SiteBudget {
        attempts: u64,
    },
    /// An adaptive executor took the single-orec middle path.
    MiddleEnter,
    /// An adaptive call site changed regime.
    AdaptFlip,
    /// A composed operation started / demoted to its ordered-lock path.
    ComposeEnter,
    ComposeFallback,
}

/// Number of [`Series`] variants (array-index domain).
pub const N_SERIES: usize = 19;

/// One counter series folded from the event stream. `Cumulative` series
/// count increments; gauges record levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Series {
    /// `TxCommit`.
    Commits = 0,
    /// `TxAbort`, by cause.
    AbortConflict = 1,
    AbortCapacity = 2,
    AbortExplicit = 3,
    AbortNested = 4,
    AbortSpurious = 5,
    /// Gauge: 1 at `FallbackEnter`, 0 at `FallbackExit`.
    FallbackDepth = 6,
    /// `GateWaitBegin`.
    GateParks = 7,
    /// Gauge: the `skew` of `GateWaitBegin`.
    GateSkew = 8,
    /// `GateBackstop`.
    GateBackstops = 9,
    /// Gauge: `EpochLag`'s lag, 0 at `EpochAdvance`.
    EpochLag = 10,
    /// Gauge: `PoolMagazine`.
    PoolMagazine = 11,
    /// Gauge: `LimboDepth`.
    LimboDepth = 12,
    /// `CombineEnd`'s serviced requests.
    CombineServiced = 13,
    /// Gauge: `SiteBudget`.
    PolicySiteBudget = 14,
    /// `MiddleEnter`.
    PolicyMiddleEntries = 15,
    /// `AdaptFlip`.
    PolicyAdaptFlips = 16,
    /// `ComposeEnter`.
    PolicyComposeEntries = 17,
    /// `ComposeFallback`.
    PolicyComposeFallbacks = 18,
}

impl Series {
    /// Stable exported name (the Perfetto counter-track name).
    pub fn name(self) -> &'static str {
        match self {
            Series::Commits => "commits",
            Series::AbortConflict => "abort_conflict",
            Series::AbortCapacity => "abort_capacity",
            Series::AbortExplicit => "abort_explicit",
            Series::AbortNested => "abort_nested",
            Series::AbortSpurious => "abort_spurious",
            Series::FallbackDepth => "fallback_depth",
            Series::GateParks => "gate_parks",
            Series::GateSkew => "gate_skew",
            Series::GateBackstops => "gate_backstops",
            Series::EpochLag => "epoch_lag",
            Series::PoolMagazine => "pool_magazine",
            Series::LimboDepth => "limbo_depth",
            Series::CombineServiced => "combine_serviced",
            Series::PolicySiteBudget => "policy.site_budget",
            Series::PolicyMiddleEntries => "policy.middle_entries",
            Series::PolicyAdaptFlips => "policy.adapt_flips",
            Series::PolicyComposeEntries => "policy.compose_entries",
            Series::PolicyComposeFallbacks => "policy.compose_fallbacks",
        }
    }

    /// Does this series count increments (vs record a level)?
    pub fn is_cumulative(self) -> bool {
        !matches!(
            self,
            Series::FallbackDepth
                | Series::GateSkew
                | Series::EpochLag
                | Series::PoolMagazine
                | Series::LimboDepth
                | Series::PolicySiteBudget
        )
    }
}

impl Event {
    /// Feed `f` each (series, value) this event moves: the event → series
    /// table. Out-of-range abort causes bucket as spurious, matching the
    /// exporter's "unknown".
    fn series(self, mut f: impl FnMut(Series, u64)) {
        match self {
            Event::TxCommit { .. } => f(Series::Commits, 1),
            Event::TxAbort { cause } => f(
                match cause {
                    0 => Series::AbortConflict,
                    1 => Series::AbortCapacity,
                    2 => Series::AbortExplicit,
                    3 => Series::AbortNested,
                    _ => Series::AbortSpurious,
                },
                1,
            ),
            Event::FallbackEnter => f(Series::FallbackDepth, 1),
            Event::FallbackExit => f(Series::FallbackDepth, 0),
            Event::GateWaitBegin { skew } => {
                f(Series::GateParks, 1);
                f(Series::GateSkew, skew);
            }
            Event::GateBackstop => f(Series::GateBackstops, 1),
            Event::EpochAdvance { .. } => f(Series::EpochLag, 0),
            Event::EpochLag { lag } => f(Series::EpochLag, lag),
            Event::PoolMagazine { len } => f(Series::PoolMagazine, len),
            Event::LimboDepth { depth } => f(Series::LimboDepth, depth),
            Event::CombineEnd { serviced } => f(Series::CombineServiced, serviced),
            Event::SiteBudget { attempts } => f(Series::PolicySiteBudget, attempts),
            Event::MiddleEnter => f(Series::PolicyMiddleEntries, 1),
            Event::AdaptFlip => f(Series::PolicyAdaptFlips, 1),
            Event::ComposeEnter => f(Series::PolicyComposeEntries, 1),
            Event::ComposeFallback => f(Series::PolicyComposeFallbacks, 1),
            _ => {}
        }
    }
}

/// Number of attribution phases.
pub const N_PHASES: usize = 4;

/// Where within an executor call the time was spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Inside a transaction attempt (`TxBegin` to its commit or abort).
    Attempt = 0,
    /// Spinning in randomized retry backoff.
    Backoff = 1,
    /// Inside the non-speculative fallback (lock-free original code, or
    /// the lock path for TLE).
    Fallback = 2,
    /// Servicing a flat-combining round on behalf of other threads.
    Combine = 3,
}

/// Every phase, in index order.
pub const ALL_PHASES: [Phase; N_PHASES] = [
    Phase::Attempt,
    Phase::Backoff,
    Phase::Fallback,
    Phase::Combine,
];

impl Phase {
    /// Stable exported name (the collapsed-stack frame).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Attempt => "attempt",
            Phase::Backoff => "backoff",
            Phase::Fallback => "fallback",
            Phase::Combine => "combine",
        }
    }

    /// The phase an event opens or closes, if any.
    fn of(ev: Event) -> Option<(Phase, bool)> {
        Some(match ev {
            Event::TxBegin => (Phase::Attempt, true),
            Event::TxCommit { .. } | Event::TxAbort { .. } => (Phase::Attempt, false),
            Event::BackoffBegin { .. } => (Phase::Backoff, true),
            Event::BackoffEnd => (Phase::Backoff, false),
            Event::FallbackEnter => (Phase::Fallback, true),
            Event::FallbackExit => (Phase::Fallback, false),
            Event::CombineBegin => (Phase::Combine, true),
            Event::CombineEnd { .. } => (Phase::Combine, false),
            _ => return None,
        })
    }
}

/// A call site: the caller of an instrumented executor, captured with
/// `#[track_caller]`. Sites compare by `file:line`.
#[derive(Clone, Copy, Debug)]
pub struct Site(&'static Location<'static>);

impl Site {
    /// The caller of the enclosing `#[track_caller]` function.
    #[track_caller]
    pub fn caller() -> Site {
        Site(Location::caller())
    }

    pub fn file(self) -> &'static str {
        self.0.file()
    }

    pub fn line(self) -> u32 {
        self.0.line()
    }
}

impl PartialEq for Site {
    fn eq(&self, other: &Site) -> bool {
        std::ptr::eq(self.0, other.0)
            || (self.line() == other.line() && self.file() == other.file())
    }
}

impl Eq for Site {}

impl std::hash::Hash for Site {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        (self.file(), self.line()).hash(h);
    }
}

/// Record one event on the current thread into every session installed
/// on it. One relaxed load while no session is live; never charges
/// virtual time.
#[inline]
pub fn emit(ev: Event) {
    if LIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    emit_slow(ev);
}

#[cold]
fn emit_slow(ev: Event) {
    ctx::with::<Chain, _>(ctx::SLOT_OBS, |chain| {
        if let Some(chain) = chain {
            let ts = crate::clock::now();
            for s in &chain.0 {
                s.record(ts, ev);
            }
        }
    });
}

/// Bracket an executor call: emits `OpBegin{site}` now and `OpEnd` when
/// the returned guard drops, so every exit path closes the frame that
/// call-site attribution folds over.
#[must_use = "the frame closes when the guard drops"]
pub fn op(site: Site) -> OpFrame {
    emit(Event::OpBegin { site });
    OpFrame(())
}

/// Guard returned by [`op`].
pub struct OpFrame(());

impl Drop for OpFrame {
    fn drop(&mut self) {
        emit(Event::OpEnd);
    }
}

/// Live sessions in the process: [`emit`]'s one relaxed load.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The sessions installed on a thread, outermost first.
struct Chain(Vec<Arc<Shared>>);

struct Shared {
    id: u64,
    /// Per-track ring capacity; 0 keeps the folds only.
    capacity: usize,
    next_ordinal: AtomicU64,
    /// Every thread log created for this session.
    logs: Mutex<Vec<Arc<ThreadLog>>>,
}

thread_local! {
    /// This thread's side of each session it has emitted into.
    static LOCALS: RefCell<Vec<Local>> = const { RefCell::new(Vec::new()) };
}

/// A thread's side of one session: the session's id, the thread's log in
/// it, and the open executor frames, innermost last, which no other
/// thread reads.
struct Local {
    session: u64,
    log: Arc<ThreadLog>,
    frames: Vec<Frame>,
}

/// One thread's share of a session, readable by the session at any time:
/// the series fold (written only by its thread, so relaxed load + store
/// suffices), closed frames' totals per site, and the ring tracks.
struct ThreadLog {
    series: [[AtomicU64; N_SERIES]; 3],
    /// A thread sees few sites: a scan beats hashing.
    sites: Mutex<Vec<(Site, SiteTotals)>>,
    /// Ring tracks, the current one last.
    tracks: Mutex<Vec<Track>>,
}

#[derive(Clone, Copy, Default)]
struct SiteTotals {
    cycles: [u64; N_PHASES],
    counts: [u64; N_PHASES],
}

impl SiteTotals {
    fn add(&mut self, o: &SiteTotals) {
        for i in 0..N_PHASES {
            self.cycles[i] = self.cycles[i].saturating_add(o.cycles[i]);
            self.counts[i] += o.counts[i];
        }
    }
}

/// One open executor call: the phase span in progress (with its nesting
/// depth, for a transaction nested in an attempt) and the totals so far.
struct Frame {
    site: Site,
    open: Option<(Phase, u64)>,
    depth: u32,
    totals: SiteTotals,
}

impl Shared {
    fn record(&self, ts: u64, ev: Event) {
        // try_with: events emitted while TLS is torn down are dropped.
        let _ = LOCALS.try_with(|locals| {
            let mut locals = locals.borrow_mut();
            let i = match locals.iter().position(|l| l.session == self.id) {
                Some(i) => i,
                None => {
                    // Forget logs of sessions that have since drained.
                    locals.retain(|l| Arc::strong_count(&l.log) > 1);
                    let log = Arc::new(ThreadLog {
                        series: Default::default(),
                        sites: Mutex::new(Vec::new()),
                        tracks: Mutex::new(Vec::new()),
                    });
                    self.logs.lock().push(Arc::clone(&log));
                    locals.push(Local {
                        session: self.id,
                        log,
                        frames: Vec::new(),
                    });
                    locals.len() - 1
                }
            };
            let local = &mut locals[i];
            let [counts, sums, maxes] = &local.log.series;
            ev.series(|s, v| {
                let i = s as usize;
                counts[i].store(counts[i].load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                let sum = sums[i].load(Ordering::Relaxed).saturating_add(v);
                sums[i].store(sum, Ordering::Relaxed);
                maxes[i].store(maxes[i].load(Ordering::Relaxed).max(v), Ordering::Relaxed);
            });
            local.attribute(ts, ev);
            if self.capacity > 0 {
                self.push(&local.log, ts, ev);
            }
        });
    }

    fn push(&self, log: &ThreadLog, ts: u64, ev: Event) {
        // Rotate to a new track when the virtual clock regressed (a new
        // trial reset it) or the thread switched lanes, so each track stays
        // monotone in ts and tied to one lane.
        let lane = crate::clock::current_lane();
        let mut tracks = log.tracks.lock();
        let rotate = tracks.last().is_none_or(|t| {
            t.events.last().is_some_and(|last| ts < last.ts)
                || (lane != t.lane && !t.events.is_empty())
        });
        if rotate {
            tracks.push(Track {
                lane,
                ordinal: self.next_ordinal.fetch_add(1, Ordering::Relaxed),
                events: Vec::with_capacity(self.capacity.min(1024)),
                dropped: 0,
            });
        }
        let t = tracks.last_mut().unwrap();
        if t.events.len() < self.capacity {
            t.events.push(Stamped { ts, event: ev });
        } else {
            t.dropped += 1;
        }
    }
}

impl Local {
    /// The attribution fold. Phase spans count toward the innermost open
    /// frame, and only when it has no other span open: a transaction run
    /// inside a fallback is fallback time, and an executor nested in
    /// another's phase opens its own frame (inclusive attribution, as in
    /// a flamegraph). A closed frame's totals publish to the log.
    fn attribute(&mut self, ts: u64, ev: Event) {
        match ev {
            Event::OpBegin { site } => self.frames.push(Frame {
                site,
                open: None,
                depth: 0,
                totals: SiteTotals::default(),
            }),
            Event::OpEnd => {
                if let Some(f) = self.frames.pop() {
                    if f.totals.counts.iter().any(|&c| c > 0) {
                        let mut sites = self.log.sites.lock();
                        match sites.iter_mut().find(|(s, _)| *s == f.site) {
                            Some((_, t)) => t.add(&f.totals),
                            None => sites.push((f.site, f.totals)),
                        }
                    }
                }
            }
            _ => {
                let (Some(f), Some((phase, begins))) = (self.frames.last_mut(), Phase::of(ev))
                else {
                    return;
                };
                match f.open {
                    None if begins => {
                        f.open = Some((phase, ts));
                        f.depth = 1;
                    }
                    Some((p, t0)) if p == phase => {
                        if begins {
                            f.depth += 1;
                        } else {
                            f.depth -= 1;
                            if f.depth == 0 {
                                f.open = None;
                                let i = phase as usize;
                                f.totals.cycles[i] += ts.saturating_sub(t0);
                                f.totals.counts[i] += 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}

impl ThreadLog {
    fn series(&self) -> MetricsSnapshot {
        let [counts, sums, maxes] = &self.series;
        let read =
            |a: &[AtomicU64; N_SERIES]| std::array::from_fn(|i| a[i].load(Ordering::Relaxed));
        MetricsSnapshot {
            counts: read(counts),
            sums: read(sums),
            maxes: read(maxes),
        }
    }
}

/// An installed observation scope. While alive it records every event
/// emitted on the installing thread and on every `Sim` lane or
/// [`par`](crate::par) job that inherits the thread's context; sessions
/// nest, and an event reaches every session installed on its thread.
/// Drop (or [`drain`](Session::drain)) uninstalls it; sessions on one
/// thread must end innermost first.
#[must_use = "a session records only while it lives"]
pub struct Session {
    shared: Arc<Shared>,
    _guard: ctx::ScopeGuard,
}

impl Session {
    /// Install a fold-only session: exact series and attribution, no
    /// event ring (the per-cell aggregate that bench reports print).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Session {
        Session::with_capacity(0)
    }

    /// Install a session that also keeps the first [`DEFAULT_CAPACITY`]
    /// events of each track for export.
    pub fn arm() -> Session {
        Session::with_capacity(DEFAULT_CAPACITY)
    }

    /// Install a session keeping up to `capacity` events per track
    /// (0: folds only).
    pub fn with_capacity(capacity: usize) -> Session {
        let shared = Arc::new(Shared {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            capacity,
            next_ordinal: AtomicU64::new(0),
            logs: Mutex::new(Vec::new()),
        });
        let mut chain = ctx::get::<Chain>(ctx::SLOT_OBS).map_or_else(Vec::new, |c| c.0.clone());
        chain.push(Arc::clone(&shared));
        let guard = ctx::ScopeGuard::install(ctx::SLOT_OBS, Arc::new(Chain(chain)));
        LIVE.fetch_add(1, Ordering::SeqCst);
        Session {
            shared,
            _guard: guard,
        }
    }

    /// The series folded so far (exact once the emitting threads are
    /// joined).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let logs = self.shared.logs.lock();
        logs.iter()
            .fold(MetricsSnapshot::default(), |acc, l| acc.merge(&l.series()))
    }

    /// Uninstall and collect everything recorded. Threads still running
    /// contribute what they emitted so far.
    pub fn drain(self) -> Capture {
        let logs = std::mem::take(&mut *self.shared.logs.lock());
        let mut cap = Capture {
            tracks: Vec::new(),
            series: MetricsSnapshot::default(),
            sites: Vec::new(),
        };
        let mut sites: HashMap<Site, SiteTotals> = HashMap::new();
        for log in &logs {
            cap.series = cap.series.merge(&log.series());
            for (site, t) in log.sites.lock().drain(..) {
                sites.entry(site).or_default().add(&t);
            }
            cap.tracks.append(&mut log.tracks.lock());
        }
        cap.tracks.retain(|t| !t.events.is_empty() || t.dropped > 0);
        cap.tracks.sort_by_key(|t| t.ordinal);
        cap.sites = sites
            .into_iter()
            .map(|(site, t)| SiteProfile {
                file: site.file(),
                line: site.line(),
                cycles: t.cycles,
                counts: t.counts,
            })
            .collect();
        cap.sites
            .sort_by(|a, b| (b.total(), a.file, a.line).cmp(&(a.total(), b.file, b.line)));
        cap
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A timestamped event: `ts` is the emitting thread's virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamped {
    pub ts: u64,
    pub event: Event,
}

/// One thread's (one clock era's) stored events, monotone in `ts`.
#[derive(Debug)]
pub struct Track {
    /// The gate lane the thread was attached to at the first event.
    pub lane: Option<usize>,
    /// Creation order across the session's tracks (stable export id).
    pub ordinal: u64,
    pub events: Vec<Stamped>,
    /// Events past the session capacity: counted, not stored.
    pub dropped: u64,
}

/// Per-series aggregates, indexed by `Series as usize`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Emissions per series.
    pub counts: [u64; N_SERIES],
    /// Sum of values (total increments for cumulative series; integral of
    /// observed levels for gauges).
    pub sums: [u64; N_SERIES],
    /// Largest value per series.
    pub maxes: [u64; N_SERIES],
}

impl MetricsSnapshot {
    /// Total value of a series (event total for cumulative ones).
    pub fn total(&self, series: Series) -> u64 {
        self.sums[series as usize]
    }

    /// Emission count of a series.
    pub fn count(&self, series: Series) -> u64 {
        self.counts[series as usize]
    }

    /// Largest value of a series.
    pub fn max(&self, series: Series) -> u64 {
        self.maxes[series as usize]
    }

    /// Mean value (0.0 when the series never fired).
    pub fn mean(&self, series: Series) -> f64 {
        let n = self.counts[series as usize];
        if n == 0 {
            0.0
        } else {
            self.sums[series as usize] as f64 / n as f64
        }
    }

    /// True if no series fired at all.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Field-wise aggregation (counts/sums add, maxes max).
    pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_add(other.counts[i])),
            sums: std::array::from_fn(|i| self.sums[i].saturating_add(other.sums[i])),
            maxes: std::array::from_fn(|i| self.maxes[i].max(other.maxes[i])),
        }
    }
}

/// One call site's attribution totals.
#[derive(Clone, Copy, Debug)]
pub struct SiteProfile {
    pub file: &'static str,
    pub line: u32,
    /// Virtual cycles per [`Phase`] (indexed by `Phase as usize`).
    pub cycles: [u64; N_PHASES],
    /// Phase spans per [`Phase`].
    pub counts: [u64; N_PHASES],
}

impl SiteProfile {
    /// Total virtual cycles attributed to this site across all phases.
    pub fn total(&self) -> u64 {
        self.cycles.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }
}

/// A drained session.
#[derive(Debug)]
pub struct Capture {
    /// The stored events, one track per thread per clock era (empty for
    /// a fold-only session).
    pub tracks: Vec<Track>,
    /// The series fold.
    pub series: MetricsSnapshot,
    /// The attribution fold, hottest site first.
    pub sites: Vec<SiteProfile>,
}

/// How one [`Event`] renders in the Chrome trace-event output.
enum Ph {
    Begin(&'static str),
    End(&'static str),
    Instant(&'static str),
    /// Counter updates only.
    None,
}

fn phase_of(ev: Event) -> Ph {
    match ev {
        Event::TxBegin => Ph::Begin("tx"),
        Event::TxCommit { .. } | Event::TxAbort { .. } => Ph::End("tx"),
        Event::OpBegin { .. } => Ph::Begin("op"),
        Event::OpEnd => Ph::End("op"),
        Event::FallbackEnter => Ph::Begin("fallback"),
        Event::FallbackExit => Ph::End("fallback"),
        Event::BackoffBegin { .. } => Ph::Begin("backoff"),
        Event::BackoffEnd => Ph::End("backoff"),
        Event::EpochPin => Ph::Begin("epoch"),
        Event::EpochUnpin => Ph::End("epoch"),
        Event::EpochAdvance { .. } => Ph::Instant("epoch-advance"),
        Event::HazardScanBegin => Ph::Begin("hazard-scan"),
        Event::HazardScanEnd { .. } => Ph::End("hazard-scan"),
        Event::GateWaitBegin { .. } => Ph::Begin("gate-wait"),
        Event::GateWaitEnd => Ph::End("gate-wait"),
        Event::CombineBegin => Ph::Begin("combine"),
        Event::CombineEnd { .. } => Ph::End("combine"),
        _ => Ph::None,
    }
}

fn args_of(ev: Event) -> Option<String> {
    match ev {
        Event::TxCommit { rv, wv } => Some(format!(
            "{{\"outcome\":\"commit\",\"rv\":{rv},\"wv\":{wv}}}"
        )),
        Event::TxAbort { cause } => {
            let name = CAUSE_NAMES
                .get(cause as usize)
                .copied()
                .unwrap_or("unknown");
            Some(format!("{{\"outcome\":\"abort\",\"cause\":\"{name}\"}}"))
        }
        Event::OpBegin { site } => Some(format!(
            "{{\"site\":\"{}:{}\"}}",
            crate::json::escape(site.file()),
            site.line()
        )),
        Event::BackoffBegin { spins } => Some(format!("{{\"spins\":{spins}}}")),
        Event::EpochAdvance { epoch } => Some(format!("{{\"epoch\":{epoch}}}")),
        Event::HazardScanEnd { reclaimed } => Some(format!("{{\"reclaimed\":{reclaimed}}}")),
        Event::GateWaitBegin { skew } => Some(format!("{{\"skew\":{skew}}}")),
        Event::CombineEnd { serviced } => Some(format!("{{\"serviced\":{serviced}}}")),
        _ => None,
    }
}

fn push_event(out: &mut String, name: &str, ph: &str, tid: u64, ts: u64, args: Option<&str>) {
    out.push_str("  {\"name\":\"");
    out.push_str(&crate::json::escape(name));
    let _ = write!(
        out,
        "\",\"cat\":\"pto\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}"
    );
    if let Some(a) = args {
        out.push_str(",\"args\":");
        out.push_str(a);
    }
    out.push_str("},\n");
}

impl Capture {
    /// Total stored events across all tracks.
    pub fn events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total events discarded due to capacity, across all tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// True if any track stored an event matching `pred`.
    pub fn any(&self, pred: impl Fn(Event) -> bool) -> bool {
        self.tracks
            .iter()
            .any(|t| t.events.iter().any(|e| pred(e.event)))
    }

    /// Export as Chrome trace-event JSON: one track per thread/clock era
    /// holding `B`/`E` spans, `i` instants and `C` counter samples (the
    /// track's running total for cumulative series, the level for
    /// gauges), plus a `trace_dropped` counter on tracks that overflowed.
    /// One timestamp unit is one virtual cycle (shown as 1 µs).
    ///
    /// Spans stay stack-proper when the stored stream is truncated or
    /// starts mid-span: an end with no matching begin is skipped, and
    /// spans still open at the end of a track close at its last stamp.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for track in &self.tracks {
            let tid = track.ordinal;
            let tname = match track.lane {
                Some(l) => format!("lane {l} (track {tid})"),
                None => format!("main (track {tid})"),
            };
            let meta = format!("{{\"name\":\"{}\"}}", crate::json::escape(&tname));
            push_event(&mut out, "thread_name", "M", tid, 0, Some(&meta));
            let mut stack: Vec<&'static str> = Vec::new();
            let mut totals = [0u64; N_SERIES];
            let mut last_ts = 0u64;
            for e in &track.events {
                let ts = e.ts;
                last_ts = ts;
                match phase_of(e.event) {
                    Ph::Begin(name) => {
                        stack.push(name);
                        push_event(&mut out, name, "B", tid, ts, args_of(e.event).as_deref());
                    }
                    Ph::End(name) => {
                        if let Some(pos) = stack.iter().rposition(|n| *n == name) {
                            // Close anything the truncated stream left
                            // open above the span being ended.
                            while stack.len() > pos + 1 {
                                push_event(&mut out, stack.pop().unwrap(), "E", tid, ts, None);
                            }
                            stack.pop();
                            push_event(&mut out, name, "E", tid, ts, args_of(e.event).as_deref());
                        }
                    }
                    Ph::Instant(name) => {
                        let args = args_of(e.event).unwrap_or_else(|| "{}".into());
                        push_event(&mut out, name, "i", tid, ts, Some(&args));
                    }
                    Ph::None => {}
                }
                e.event.series(|s, v| {
                    let value = if s.is_cumulative() {
                        totals[s as usize] += v;
                        totals[s as usize]
                    } else {
                        v
                    };
                    let args = format!("{{\"value\":{value}}}");
                    push_event(&mut out, s.name(), "C", tid, ts, Some(&args));
                });
            }
            while let Some(name) = stack.pop() {
                push_event(&mut out, name, "E", tid, last_ts, None);
            }
            if track.dropped > 0 {
                let args = format!("{{\"dropped\":{}}}", track.dropped);
                push_event(&mut out, "trace_dropped", "C", tid, last_ts, Some(&args));
            }
        }
        if out.ends_with(",\n") {
            out.truncate(out.len() - 2);
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }

    /// In-terminal summary: per-span-name durations over the stored
    /// events, transaction outcomes, and the drop count.
    pub fn summary(&self) -> String {
        // (name, count, total, max) per span name, in first-seen order.
        let mut spans: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        let mut commits = 0u64;
        let mut aborts = [0u64; CAUSE_NAMES.len() + 1];
        let mut instants = 0u64;
        for track in &self.tracks {
            let mut stack: Vec<(&'static str, u64)> = Vec::new();
            for e in &track.events {
                match e.event {
                    Event::TxCommit { .. } => commits += 1,
                    Event::TxAbort { cause } => {
                        aborts[(cause as usize).min(CAUSE_NAMES.len())] += 1;
                    }
                    _ => {}
                }
                match phase_of(e.event) {
                    Ph::Begin(name) => stack.push((name, e.ts)),
                    Ph::End(name) => {
                        let Some(pos) = stack.iter().rposition(|(n, _)| *n == name) else {
                            continue;
                        };
                        let begin_ts = stack[pos].1;
                        stack.truncate(pos);
                        let dur = e.ts.saturating_sub(begin_ts);
                        let i = match spans.iter().position(|s| s.0 == name) {
                            Some(i) => i,
                            None => {
                                spans.push((name, 0, 0, 0));
                                spans.len() - 1
                            }
                        };
                        let s = &mut spans[i];
                        s.1 += 1;
                        s.2 += dur;
                        s.3 = s.3.max(dur);
                    }
                    Ph::Instant(_) => instants += 1,
                    Ph::None => {}
                }
            }
        }
        let mut out = format!(
            "trace summary: {} tracks, {} events, {} dropped\n",
            self.tracks.len(),
            self.events(),
            self.dropped()
        );
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>12} {:>10} {:>10}",
            "span", "count", "total_cyc", "mean_cyc", "max_cyc"
        );
        for (name, count, total, max) in &spans {
            let mean = total.checked_div(*count).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {name:<12} {count:>8} {total:>12} {mean:>10} {max:>10}"
            );
        }
        let total_aborts: u64 = aborts.iter().sum();
        let _ = write!(out, "  tx commits {commits}, aborts {total_aborts}");
        if total_aborts > 0 {
            let mix: Vec<String> = CAUSE_NAMES
                .iter()
                .enumerate()
                .filter(|(i, _)| aborts[*i] > 0)
                .map(|(i, n)| format!("{n} {}", aborts[i]))
                .collect();
            let _ = write!(out, " ({})", mix.join(", "));
        }
        let _ = writeln!(out, "; {instants} instants");
        out
    }

    /// Total attributed cycles across all sites.
    pub fn total_cycles(&self) -> u64 {
        self.sites
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.total()))
    }

    /// Collapsed-stack (flamegraph-compatible) text: one
    /// `file:line;phase cycles` line per non-empty (site, phase) pair.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.sites {
            for p in ALL_PHASES {
                let c = s.cycles[p as usize];
                if c > 0 {
                    let _ = writeln!(out, "{}:{};{} {}", s.file, s.line, p.name(), c);
                }
            }
        }
        out
    }

    /// "Where did the cycles go": the top `n` sites with per-phase splits
    /// and their share of all attributed virtual time.
    pub fn top_table(&self, n: usize) -> String {
        let total = self.total_cycles().max(1);
        let mut out = String::from("profile: top call sites by attributed virtual cycles\n");
        let _ = writeln!(
            out,
            "  {:<40} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "site", "share", "total_cyc", "attempt", "backoff", "fallback", "combine"
        );
        for s in self.sites.iter().take(n) {
            let label = format!("{}:{}", s.file, s.line);
            // Keep the tail of long paths: the file name is the signal.
            let label = if label.len() > 40 {
                format!("..{}", &label[label.len() - 38..])
            } else {
                label
            };
            let _ = writeln!(
                out,
                "  {:<40} {:>5.1}% {:>12} {:>10} {:>10} {:>10} {:>10}",
                label,
                s.total() as f64 * 100.0 / total as f64,
                s.total(),
                s.cycles[Phase::Attempt as usize],
                s.cycles[Phase::Backoff as usize],
                s.cycles[Phase::Fallback as usize],
                s.cycles[Phase::Combine as usize],
            );
        }
        out
    }
}

/// Structural stats reported by [`validate_chrome`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Trace events in the file (all phases).
    pub events: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
    /// Matched `B`/`E` pairs.
    pub complete_spans: usize,
    /// Sum of `trace_dropped` counter values.
    pub dropped_reported: u64,
    /// Distinct counter-track names (`"C"` events other than
    /// `trace_dropped`) — the series present in the export.
    pub counter_series: usize,
}

/// Structurally validate Chrome trace-event JSON: parses, has a
/// `traceEvents` array, every event carries `name`/`ph`/`pid`/`tid` (plus
/// `ts` for non-metadata), timestamps are monotone per track, and `B`/`E`
/// events nest properly with matching names. Deliberately strict so a
/// malformed export fails fast.
pub fn validate_chrome(text: &str) -> Result<ChromeCheck, String> {
    let root = crate::json::Value::parse(text)?;
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;
    // (last ts, open span stack) per (pid, tid).
    let mut tracks: HashMap<(u64, u64), (f64, Vec<String>)> = HashMap::new();
    let mut counter_names = std::collections::BTreeSet::new();
    let mut check = ChromeCheck::default();
    for (i, ev) in events.iter().enumerate() {
        let field = |k: &str| ev.get(k).ok_or_else(|| format!("event {i}: missing {k}"));
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let pid = field("pid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        let tid = field("tid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        check.events += 1;
        if ph == "M" {
            continue;
        }
        if !matches!(ph, "B" | "E" | "i" | "C") {
            return Err(format!("event {i} ('{name}'): unknown phase '{ph}'"));
        }
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i} ('{name}'): missing ts"))?;
        let (last_ts, stack) = tracks.entry((pid, tid)).or_insert((0.0, Vec::new()));
        if ts < *last_ts {
            return Err(format!(
                "event {i} ('{name}'): ts {ts} regresses below {last_ts} on track {pid}/{tid}"
            ));
        }
        *last_ts = ts;
        let arg = |k: &str| {
            ev.get("args")
                .and_then(|a| a.get(k))
                .and_then(|v| v.as_f64())
        };
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => match stack.pop() {
                Some(open) if open == name => check.complete_spans += 1,
                Some(open) => {
                    return Err(format!(
                        "event {i}: E '{name}' does not match open span '{open}' on track {pid}/{tid}"
                    ));
                }
                None => {
                    return Err(format!(
                        "event {i}: E '{name}' with no open span on track {pid}/{tid}"
                    ));
                }
            },
            "C" if name == "trace_dropped" => {
                let d = arg("dropped")
                    .ok_or_else(|| format!("event {i}: {name} without args.dropped"))?;
                check.dropped_reported += d as u64;
            }
            "C" => {
                arg("value")
                    .ok_or_else(|| format!("event {i} ('{name}'): counter without args.value"))?;
                counter_names.insert(name.to_string());
            }
            _ => {} // "i"
        }
    }
    check.counter_series = counter_names.len();
    for ((pid, tid), (_, stack)) in &tracks {
        if let Some(open) = stack.last() {
            return Err(format!("track {pid}/{tid}: span '{open}' never closed"));
        }
    }
    check.tracks = tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(cap: &Capture) -> Vec<Event> {
        cap.tracks
            .iter()
            .flat_map(|t| t.events.iter().map(|e| e.event))
            .collect()
    }

    #[test]
    fn disarmed_emit_records_nothing() {
        emit(Event::EpochAdvance { epoch: 1 });
        let cap = Session::arm().drain();
        assert!(cap.tracks.is_empty() && cap.series.is_empty());
    }

    #[test]
    fn events_round_trip_and_fold() {
        let session = Session::arm();
        emit(Event::TxBegin);
        emit(Event::TxCommit { rv: 7, wv: 9 });
        emit(Event::TxAbort { cause: 1 });
        let cap = session.drain();
        assert_eq!(
            kinds(&cap),
            [
                Event::TxBegin,
                Event::TxCommit { rv: 7, wv: 9 },
                Event::TxAbort { cause: 1 }
            ]
        );
        assert_eq!(cap.series.total(Series::Commits), 1);
        assert_eq!(cap.series.total(Series::AbortCapacity), 1);
        // Emitting after the drain records nothing.
        assert!(!ctx::is_set(ctx::SLOT_OBS));
        emit(Event::TxBegin);
        assert!(Session::arm().drain().tracks.is_empty());
    }

    #[test]
    fn ring_overflow_counts_drops_and_folds_stay_exact() {
        let session = Session::with_capacity(4);
        for wv in 0..10 {
            emit(Event::TxCommit { rv: 0, wv });
        }
        let cap = session.drain();
        assert_eq!(cap.tracks.len(), 1);
        assert_eq!(cap.tracks[0].events.len(), 4, "the ring keeps the first 4");
        assert_eq!(
            cap.tracks[0].events[3].event,
            Event::TxCommit { rv: 0, wv: 3 }
        );
        assert_eq!(cap.dropped(), 6);
        assert_eq!(
            cap.series.total(Series::Commits),
            10,
            "folds see every event"
        );
        let json = cap.to_chrome_json();
        let check = validate_chrome(&json).expect("an overflowed export still validates");
        assert_eq!(check.dropped_reported, 6);
    }

    #[test]
    fn fold_only_session_keeps_no_events() {
        let session = Session::new();
        emit(Event::TxCommit { rv: 0, wv: 1 });
        emit(Event::GateWaitBegin { skew: 40 });
        emit(Event::GateWaitBegin { skew: 10 });
        let s = session.snapshot();
        assert_eq!(s.total(Series::Commits), 1);
        assert_eq!(s.count(Series::GateSkew), 2);
        assert_eq!(s.max(Series::GateSkew), 40);
        assert_eq!(s.mean(Series::GateSkew), 25.0);
        assert_eq!(s.total(Series::GateParks), 2);
        let cap = session.drain();
        assert!(cap.tracks.is_empty());
        assert_eq!(cap.series, s);
    }

    #[test]
    fn sessions_nest_and_end_innermost_first() {
        let outer = Session::arm();
        let inner = Session::arm();
        emit(Event::EpochAdvance { epoch: 1 });
        let a = inner.drain();
        emit(Event::EpochAdvance { epoch: 2 });
        let b = outer.drain();
        assert_eq!(kinds(&a), [Event::EpochAdvance { epoch: 1 }]);
        assert_eq!(
            kinds(&b),
            [
                Event::EpochAdvance { epoch: 1 },
                Event::EpochAdvance { epoch: 2 }
            ]
        );
        // An abandoned session uninstalls too.
        drop(Session::arm());
        assert!(!ctx::is_set(ctx::SLOT_OBS));
    }

    #[test]
    fn export_validates_and_pairs_spans() {
        crate::clock::reset();
        let session = Session::arm();
        crate::clock::charge_cycles(10);
        emit(Event::TxBegin);
        crate::clock::charge_cycles(50);
        emit(Event::TxCommit { rv: 1, wv: 2 });
        emit(Event::FallbackEnter);
        crate::clock::charge_cycles(30);
        emit(Event::FallbackExit);
        emit(Event::TxBegin);
        // Left open on purpose: the exporter must close it.
        let cap = session.drain();
        let check = validate_chrome(&cap.to_chrome_json()).expect("export must validate");
        assert_eq!(check.complete_spans, 3, "spans: {check:?}");
        assert_eq!(check.tracks, 1);
        let summary = cap.summary();
        assert!(summary.contains("tx"), "summary: {summary}");
        assert!(summary.contains("fallback"), "summary: {summary}");
    }

    #[test]
    fn counter_tracks_carry_running_totals_and_levels() {
        crate::clock::reset();
        let session = Session::arm();
        for _ in 0..3 {
            emit(Event::TxCommit { rv: 0, wv: 0 });
            crate::clock::charge_cycles(10);
        }
        emit(Event::PoolMagazine { len: 7 });
        emit(Event::PoolMagazine { len: 3 });
        emit(Event::TxAbort { cause: 0 });
        emit(Event::FallbackEnter);
        emit(Event::FallbackExit);
        emit(Event::EpochLag { lag: 1 });
        let json = session.drain().to_chrome_json();
        let check = validate_chrome(&json).expect("counter export must validate");
        assert_eq!(check.counter_series, 5, "{json}");
        let root = crate::json::Value::parse(&json).unwrap();
        let values = |name: &str| -> Vec<f64> {
            let evs = root.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
            evs.iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .filter_map(|e| e.get("args")?.get("value")?.as_f64())
                .collect()
        };
        assert_eq!(values("commits"), [1.0, 2.0, 3.0], "running totals");
        assert_eq!(values("pool_magazine"), [7.0, 3.0], "levels");
        assert_eq!(values("fallback_depth"), [1.0, 0.0]);
    }

    #[test]
    fn clock_regression_rotates_to_a_new_track() {
        crate::clock::reset();
        let session = Session::arm();
        crate::clock::charge_cycles(100);
        emit(Event::EpochAdvance { epoch: 1 });
        crate::clock::reset(); // new trial: the clock goes backwards
        emit(Event::EpochAdvance { epoch: 2 });
        let cap = session.drain();
        assert_eq!(cap.tracks.len(), 2, "a regression must split tracks");
        assert_ne!(cap.tracks[0].ordinal, cap.tracks[1].ordinal);
        assert!(validate_chrome(&cap.to_chrome_json()).is_ok());
    }

    #[test]
    fn attribution_folds_phases_into_the_innermost_frame() {
        crate::clock::reset();
        let session = Session::new();
        let outer = Site::caller();
        let inner = Site::caller();
        let _op = op(outer);
        emit(Event::TxBegin);
        crate::clock::charge_cycles(5);
        emit(Event::TxAbort { cause: 2 });
        emit(Event::FallbackEnter);
        {
            // A bare transaction inside the fallback is fallback time...
            emit(Event::TxBegin);
            crate::clock::charge_cycles(3);
            emit(Event::TxCommit { rv: 0, wv: 0 });
            // ...and a nested executor call opens its own frame.
            let _inner = op(inner);
            emit(Event::TxBegin);
            crate::clock::charge_cycles(7);
            emit(Event::TxCommit { rv: 0, wv: 0 });
        }
        crate::clock::charge_cycles(1);
        emit(Event::FallbackExit);
        drop(_op);
        let cap = session.drain();
        let site = |s: Site| cap.sites.iter().find(|p| p.line == s.line()).unwrap();
        assert_eq!(site(outer).cycles, [5, 0, 11, 0]);
        assert_eq!(site(outer).counts, [1, 0, 1, 0]);
        assert_eq!(site(inner).cycles, [7, 0, 0, 0]);
        assert_eq!(site(inner).counts, [1, 0, 0, 0]);
        assert_eq!(cap.total_cycles(), 23);
        assert!(cap.collapsed().contains(";fallback 11"));
    }

    #[test]
    fn sessions_on_two_threads_see_only_their_own_sims() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..=2u64)
                .map(|tag| {
                    s.spawn(move || {
                        let session = Session::arm();
                        crate::Sim::new(2).run(|lane| {
                            for _ in 0..50 {
                                emit(Event::EpochAdvance {
                                    epoch: tag * 100 + lane as u64,
                                });
                                crate::charge_cycles(10);
                            }
                        });
                        (tag, session.drain())
                    })
                })
                .collect();
            for h in handles {
                let (tag, cap) = h.join().unwrap();
                // Besides the lanes' own events, only their gate waits.
                let evs: Vec<_> = kinds(&cap)
                    .into_iter()
                    .filter(|e| !matches!(e, Event::GateWaitBegin { .. } | Event::GateWaitEnd))
                    .collect();
                assert_eq!(evs.len(), 100, "session {tag}");
                assert!(evs
                    .iter()
                    .all(|e| matches!(e, Event::EpochAdvance { epoch } if epoch / 100 == tag)));
                let lanes: Vec<_> = cap.tracks.iter().map(|t| t.lane).collect();
                assert!(lanes.contains(&Some(0)) && lanes.contains(&Some(1)));
            }
        });
    }

    #[test]
    fn scoped_worker_events_reach_the_drain_without_a_flush() {
        // A worker's log belongs to the session from its first event, so
        // the drain right after the scope join sees it even while the
        // worker's TLS destructors are still running.
        for round in 0..50u64 {
            let session = Session::arm();
            let inherited = ctx::capture();
            std::thread::scope(|s| {
                s.spawn(|| {
                    ctx::adopt(&inherited);
                    emit(Event::EpochAdvance { epoch: round });
                    emit(Event::TxAbort { cause: 4 });
                });
            });
            let cap = session.drain();
            assert_eq!(
                kinds(&cap),
                [
                    Event::EpochAdvance { epoch: round },
                    Event::TxAbort { cause: 4 }
                ],
                "round {round}"
            );
        }
    }

    #[test]
    fn mid_run_drain_sees_a_live_workers_events_so_far() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        let session = Session::arm();
        let inherited = ctx::capture();
        let worker = std::thread::spawn(move || {
            ctx::adopt(&inherited);
            emit(Event::EpochAdvance { epoch: 21 });
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // After the drain: recorded nowhere a later session can see.
            emit(Event::EpochAdvance { epoch: 22 });
        });
        ready_rx.recv().unwrap();
        let cap = session.drain(); // worker still running
        assert_eq!(kinds(&cap), [Event::EpochAdvance { epoch: 21 }]);
        go_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(Session::arm().drain().tracks.is_empty());
    }

    #[test]
    fn sim_lanes_record_into_the_spawners_session() {
        let session = Session::new();
        crate::Sim::new(4).run(|_| emit(Event::TxCommit { rv: 0, wv: 0 }));
        assert_eq!(session.snapshot().total(Series::Commits), 4);
    }

    #[test]
    fn concurrent_sessions_do_not_bleed() {
        std::thread::scope(|s| {
            for n in 1..=4u64 {
                s.spawn(move || {
                    let session = Session::new();
                    emit(Event::CombineEnd { serviced: n });
                    let snap = session.snapshot();
                    assert_eq!(
                        snap.total(Series::CombineServiced),
                        n,
                        "foreign emits leaked in"
                    );
                });
            }
        });
    }

    #[test]
    fn snapshot_merge_is_fieldwise() {
        let mut a = MetricsSnapshot::default();
        a.counts[0] = 2;
        a.sums[0] = 5;
        a.maxes[0] = 4;
        let mut b = MetricsSnapshot::default();
        b.counts[0] = 1;
        b.sums[0] = 7;
        b.maxes[0] = 7;
        let m = a.merge(&b);
        assert_eq!(m.counts[0], 3);
        assert_eq!(m.sums[0], 12);
        assert_eq!(m.maxes[0], 7);
    }

    #[test]
    fn validator_rejects_structural_breakage() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{}").is_err());
        // ts regression.
        let bad_ts = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":10},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":5}]}"#;
        assert!(validate_chrome(bad_ts).unwrap_err().contains("regresses"));
        // unbalanced E.
        let bad_e = r#"{"traceEvents":[
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":5}]}"#;
        assert!(validate_chrome(bad_e).unwrap_err().contains("no open span"));
        // mismatched nesting.
        let bad_nest = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
            {"name":"b","ph":"B","pid":1,"tid":0,"ts":2},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":3}]}"#;
        assert!(validate_chrome(bad_nest)
            .unwrap_err()
            .contains("does not match"));
        // never-closed span.
        let open = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(open).unwrap_err().contains("never closed"));
        // a correct trace passes with the right counts.
        let good = r#"{"traceEvents":[
            {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"lane 0"}},
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":1},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":3},
            {"name":"x","ph":"i","pid":1,"tid":1,"ts":2},
            {"name":"trace_dropped","ph":"C","pid":1,"tid":1,"ts":4,"args":{"dropped":3}}]}"#;
        let check = validate_chrome(good).unwrap();
        assert_eq!(check.complete_spans, 1);
        assert_eq!(check.tracks, 2);
        assert_eq!(check.dropped_reported, 3);
    }

    #[test]
    fn validator_rejects_malformed_fields() {
        // Missing name.
        let no_name = r#"{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(no_name)
            .unwrap_err()
            .contains("missing name"));
        // Missing ph.
        let no_ph = r#"{"traceEvents":[{"name":"a","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(no_ph).unwrap_err().contains("missing ph"));
        // Missing pid / tid.
        let no_pid = r#"{"traceEvents":[{"name":"a","ph":"i","tid":0,"ts":1}]}"#;
        assert!(validate_chrome(no_pid).unwrap_err().contains("missing pid"));
        let no_tid = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1,"ts":1}]}"#;
        assert!(validate_chrome(no_tid).unwrap_err().contains("missing tid"));
        // Unknown phase letter.
        let bad_ph = r#"{"traceEvents":[{"name":"a","ph":"Z","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(bad_ph)
            .unwrap_err()
            .contains("unknown phase"));
        // Non-metadata event without ts.
        let no_ts = r#"{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":0}]}"#;
        assert!(validate_chrome(no_ts).unwrap_err().contains("missing ts"));
        // Metadata events are exempt from ts.
        let meta_only = r#"{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0}]}"#;
        assert_eq!(validate_chrome(meta_only).unwrap().events, 1);
        // trace_dropped counter without its args payload.
        let bad_drop =
            r#"{"traceEvents":[{"name":"trace_dropped","ph":"C","pid":1,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome(bad_drop)
            .unwrap_err()
            .contains("without args.dropped"));
    }
}
