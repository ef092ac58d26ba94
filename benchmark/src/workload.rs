//! The four workloads and the closed loop that runs them.
//!
//! Every simulated lane issues its next operation when the previous one
//! returns (a closed loop, one client per lane). A *round* builds a fresh
//! structure from the seed (set-up, timed on the host), runs a fixed
//! number of operations per lane under [`Sim::run`] (measured), and then
//! checks every result it can against a model of the structure. Failures
//! are counted, never asserted, so a broken structure shows up as a
//! nonzero `failed` count instead of a crash.

use crate::pct::Recorder;
use pto_bench::figs::bst_adaptive;
use pto_bench::scenario::mode_for;
use pto_core::compose::Composed;
use pto_core::profile::{ProfileSession, N_PHASES};
use pto_core::{ConcurrentSet, PriorityQueue, PtoStats};
use pto_hashtable::{FSetHashTable, HashVariant};
use pto_htm::{HtmScope, HtmSnapshot};
use pto_mem::{MemScope, MemSnapshot};
use pto_mound::Mound;
use pto_sim::metrics::{MetricsScope, Series};
use pto_sim::rng::XorShift64;
use pto_sim::Sim;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// One operation kind, for the per-kind latency and host-time breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    Insert,
    Remove,
    Push,
    Pop,
    Transfer,
    Audit,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Lookup,
        Kind::Insert,
        Kind::Remove,
        Kind::Push,
        Kind::Pop,
        Kind::Transfer,
        Kind::Audit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::Insert => "insert",
            Kind::Remove => "remove",
            Kind::Push => "push",
            Kind::Pop => "pop",
            Kind::Transfer => "transfer",
            Kind::Audit => "audit",
        }
    }
}

/// A traced round keeps every `SPAN_STRIDE`-th operation of each lane as
/// a span.
pub const SPAN_STRIDE: u64 = 1024;

/// One sampled operation: virtual cycles and host nanoseconds (from the
/// round's host epoch) at its start and end.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub lane: usize,
    pub v0: u64,
    pub v1: u64,
    pub h0: u64,
    pub h1: u64,
}

/// What the lanes of a round observed, merged.
#[derive(Clone, Default)]
pub struct LaneRec {
    /// Exact virtual latency per kind, indexed by `Kind as usize`.
    pub lat: [Recorder; 7],
    /// Host nanoseconds inside structure calls per kind (traced only).
    pub host_ns: [u64; 7],
    /// Operations whose result disagreed with the model.
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl LaneRec {
    /// A record with the recorders of `kinds` allocated up front, so that
    /// lane threads allocate nothing large and peak RSS stays steady.
    fn new(kinds: &[Kind], spans: usize) -> LaneRec {
        let mut rec = LaneRec {
            spans: Vec::with_capacity(spans),
            ..LaneRec::default()
        };
        for &k in kinds {
            rec.lat[k as usize] = Recorder::allocated();
        }
        rec
    }

    pub fn merge(&mut self, o: &LaneRec) {
        for k in 0..Kind::ALL.len() {
            self.lat[k].merge(&o.lat[k]);
            self.host_ns[k] += o.host_ns[k];
        }
        self.failed += o.failed;
        self.spans.extend_from_slice(&o.spans);
    }

    pub fn ops(&self) -> u64 {
        self.lat.iter().map(Recorder::count).sum()
    }

    /// The latencies of every kind in one recorder.
    pub fn all_kinds(&self) -> Recorder {
        let mut all = Recorder::default();
        for r in &self.lat {
            all.merge(r);
        }
        all
    }
}

/// Outcome counters of every PTO executor a workload runs, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Paths {
    pub fast: u64,
    pub middle: u64,
    pub fallback: u64,
    /// Composed operations entered, and those that took the ordered-lock
    /// fallback (bank-transfer only).
    pub compose_entries: u64,
    pub compose_fallbacks: u64,
}

impl Paths {
    fn add(&mut self, s: &PtoStats) {
        self.fast += s.fast.get();
        self.middle += s.middle.get();
        self.fallback += s.fallback.get();
    }

    fn add_composed(&mut self, site: &Composed<'_>) {
        let s = &site.stats;
        self.add(s);
        self.compose_entries += s.fast.get() + s.middle.get() + s.fallback.get();
        self.compose_fallbacks += s.fallback.get();
    }

    pub fn merge(&mut self, o: &Paths) {
        self.fast += o.fast;
        self.middle += o.middle;
        self.fallback += o.fallback;
        self.compose_entries += o.compose_entries;
        self.compose_fallbacks += o.compose_fallbacks;
    }

    /// The outcomes counted since `before`, so set-up does not count.
    fn since(&self, before: &Paths) -> Paths {
        Paths {
            fast: self.fast - before.fast,
            middle: self.middle - before.middle,
            fallback: self.fallback - before.fallback,
            compose_entries: self.compose_entries - before.compose_entries,
            compose_fallbacks: self.compose_fallbacks - before.compose_fallbacks,
        }
    }
}

/// What the layers counted during the measured run of a traced round;
/// set-up and post-run checks are outside it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub htm: HtmSnapshot,
    pub mem: MemSnapshot,
    pub adapt_flips: u64,
    /// `ProfileSession` virtual cycles per phase, summed over call sites.
    pub phase_cycles: [u64; N_PHASES],
}

impl LayerCounts {
    pub fn merge(&mut self, o: &LayerCounts) {
        self.htm = self.htm.merge(&o.htm);
        self.mem = self.mem.merge(&o.mem);
        self.adapt_flips += o.adapt_flips;
        for (a, b) in self.phase_cycles.iter_mut().zip(&o.phase_cycles) {
            *a += b;
        }
    }
}

/// The layer scopes armed around a traced round's measured run.
struct Scopes {
    htm: HtmScope,
    mem: MemScope,
    met: MetricsScope,
    prof: ProfileSession,
}

impl Scopes {
    fn arm() -> Scopes {
        Scopes {
            htm: HtmScope::new(),
            mem: MemScope::new(),
            met: MetricsScope::new(),
            prof: ProfileSession::arm(),
        }
    }

    fn counts(self) -> LayerCounts {
        let mut phase_cycles = [0; N_PHASES];
        for site in self.prof.drain().sites {
            for (a, b) in phase_cycles.iter_mut().zip(&site.cycles) {
                *a += b;
            }
        }
        LayerCounts {
            htm: self.htm.snapshot(),
            mem: self.mem.snapshot(),
            adapt_flips: self.met.snapshot().total(Series::PolicyAdaptFlips),
            phase_cycles,
        }
    }
}

/// One round's results.
pub struct Round {
    /// When set-up began and when the measured run began.
    pub started: Instant,
    pub epoch: Instant,
    /// Host seconds to build and fill the structure.
    pub setup_s: f64,
    /// Host seconds of the measured `Sim::run`.
    pub host_s: f64,
    pub makespan: u64,
    /// Sum of the lanes' final virtual clocks.
    pub lane_cycles: u64,
    pub gate_parks: u64,
    pub rec: LaneRec,
    /// Post-run check failures (conservation sweeps, drains).
    pub check_failed: u64,
    /// Executor outcomes of the measured run.
    pub paths: Paths,
    /// Layer counters of the measured run (traced rounds only).
    pub layers: LayerCounts,
}

impl Round {
    pub fn ops(&self) -> u64 {
        self.rec.ops()
    }

    pub fn failed(&self) -> u64 {
        self.rec.failed + self.check_failed
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HashRead,
    BstCapacity,
    MoundPq,
    BankTransfer,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HashRead,
        Workload::BstCapacity,
        Workload::MoundPq,
        Workload::BankTransfer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HashRead => "hash-read",
            Workload::BstCapacity => "bst-capacity",
            Workload::MoundPq => "mound-pq",
            Workload::BankTransfer => "bank-transfer",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn lanes(self) -> usize {
        match self {
            Workload::HashRead | Workload::BstCapacity => 1,
            Workload::MoundPq | Workload::BankTransfer => 2,
        }
    }

    /// Operations per lane in one full-scale round.
    pub fn ops_per_lane(self) -> u64 {
        match self {
            Workload::HashRead => 1_000_000,
            Workload::BstCapacity => 100_000,
            Workload::MoundPq => 150_000,
            Workload::BankTransfer => 300_000,
        }
    }

    /// Rounds with distinct inputs that the virtual metrics cover. A
    /// round's virtual results vary with its inputs (on `bst-capacity`
    /// by about 2% from one round to the next, whatever the round's
    /// length), so a run averages many short rounds.
    pub fn rounds(self) -> u64 {
        match self {
            Workload::HashRead => 64,
            Workload::BstCapacity => 192,
            Workload::MoundPq => 64,
            Workload::BankTransfer => 64,
        }
    }

    /// Rounds of a traced run: the first quarter of [`Workload::rounds`].
    pub fn traced_rounds(self) -> u64 {
        self.rounds() / 4
    }

    pub fn run_round(self, seed: u64, ops_per_lane: u64, traced: bool) -> Round {
        match self {
            Workload::HashRead => set_round(
                || FSetHashTable::new(HashVariant::Pto, 1024),
                |t, p| p.add(&t.stats),
                SetMix {
                    lanes: self.lanes(),
                    range: 65_536,
                    prefill: 32_768,
                    lookup_pct: 100,
                },
                ops_per_lane,
                seed,
                traced,
            ),
            Workload::BstCapacity => set_round(
                || bst_adaptive(2),
                |t, p| {
                    p.add(&t.stats1);
                    p.add(&t.stats2);
                },
                SetMix {
                    lanes: self.lanes(),
                    range: 512,
                    prefill: 256,
                    lookup_pct: 0,
                },
                ops_per_lane,
                seed,
                traced,
            ),
            Workload::MoundPq => mound_round(self.lanes(), ops_per_lane, seed, traced),
            Workload::BankTransfer => bank_round(self.lanes(), ops_per_lane, seed, traced),
        }
    }
}

/// The closed loop of one lane: draw an op, time the structure call in
/// virtual cycles (and host nanoseconds when traced), then check its
/// result outside the timed region.
fn drive<O: Copy, R>(
    lane: &mut Lane<'_>,
    mut next: impl FnMut() -> (Kind, O),
    mut exec: impl FnMut(O) -> R,
    mut check: impl FnMut(O, R) -> bool,
) {
    let Lane {
        lane,
        ops,
        traced,
        epoch,
        ref mut rec,
    } = *lane;
    for i in 0..ops {
        let (kind, op) = next();
        let v0 = pto_sim::now();
        let r = if traced {
            let h0 = Instant::now();
            let r = exec(op);
            let h1 = Instant::now();
            rec.host_ns[kind as usize] += (h1 - h0).as_nanos() as u64;
            if i % SPAN_STRIDE == 0 {
                rec.spans.push(Span {
                    kind,
                    lane,
                    v0,
                    v1: pto_sim::now(),
                    h0: (h0 - epoch).as_nanos() as u64,
                    h1: (h1 - epoch).as_nanos() as u64,
                });
            }
            r
        } else {
            exec(op)
        };
        rec.lat[kind as usize].record(pto_sim::now() - v0);
        if !check(op, r) {
            rec.failed += 1;
        }
    }
}

/// One lane's view of a measured run.
struct Lane<'a> {
    lane: usize,
    ops: u64,
    traced: bool,
    /// Host time zero of the run's spans.
    epoch: Instant,
    rec: &'a mut LaneRec,
}

/// Run `body` on every lane of a simulated machine, timing it on the
/// host, and return the round it completes. Each lane runs `ops`
/// operations of the given kinds.
fn measure(
    started: Instant,
    setup_s: f64,
    lanes: usize,
    ops: u64,
    traced: bool,
    kinds: &[Kind],
    body: impl Fn(&mut Lane<'_>) + Sync,
) -> Round {
    let spans = if traced {
        ops.div_ceil(SPAN_STRIDE) as usize
    } else {
        0
    };
    let slots: Vec<Mutex<LaneRec>> = (0..lanes)
        .map(|_| Mutex::new(LaneRec::new(kinds, spans)))
        .collect();
    let scopes = traced.then(Scopes::arm);
    pto_sim::clock::reset();
    let epoch = Instant::now();
    let out = Sim::new(lanes).run(|lane| {
        let mut rec = slots[lane].lock().expect("a lane panicked");
        body(&mut Lane {
            lane,
            ops,
            traced,
            epoch,
            rec: &mut rec,
        });
    });
    let host_s = epoch.elapsed().as_secs_f64();
    let layers = scopes.map_or_else(LayerCounts::default, Scopes::counts);
    let mut recs = slots
        .into_iter()
        .map(|s| s.into_inner().expect("a lane panicked"));
    let mut rec = recs.next().expect("at least one lane");
    for r in recs {
        rec.merge(&r);
    }
    Round {
        started,
        epoch,
        setup_s,
        host_s,
        makespan: out.makespan,
        lane_cycles: out.per_thread.iter().sum(),
        gate_parks: out.gate_parks,
        rec,
        check_failed: 0,
        paths: Paths::default(),
        layers,
    }
}

fn lane_rng(seed: u64, lane: usize) -> XorShift64 {
    XorShift64::new(seed.wrapping_add(lane as u64 * 0x9E37_79B9 + 1))
}

/// A key-set model: one bit per key of the range.
#[derive(Clone)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(range: u64) -> Bits {
        Bits(vec![0; range.div_ceil(64) as usize])
    }

    fn get(&self, k: u64) -> bool {
        self.0[(k / 64) as usize] >> (k % 64) & 1 == 1
    }

    fn set(&mut self, k: u64, on: bool) {
        let w = &mut self.0[(k / 64) as usize];
        if on {
            *w |= 1 << (k % 64);
        } else {
            *w &= !(1 << (k % 64));
        }
    }
}

/// The shape of a set workload.
#[derive(Clone, Copy)]
pub struct SetMix {
    pub lanes: usize,
    /// Keys are uniform in `[0, range)`.
    pub range: u64,
    /// Distinct keys inserted during set-up.
    pub prefill: u64,
    /// Share of lookups in percent; the rest is 50/50 insert/remove.
    pub lookup_pct: u64,
}

#[derive(Clone, Copy)]
enum SetOp {
    Lookup(u64),
    Insert(u64),
    Remove(u64),
}

/// A set round. Every result is checked against a per-lane bitset model
/// of the set, which is exact because the mix is either read-only or runs
/// on one lane.
pub fn set_round<S: ConcurrentSet>(
    make: impl FnOnce() -> S,
    paths: impl Fn(&S, &mut Paths),
    mix: SetMix,
    ops_per_lane: u64,
    seed: u64,
    traced: bool,
) -> Round {
    assert!(
        mix.lanes == 1 || mix.lookup_pct == 100,
        "the bitset model is exact only for one lane or a read-only mix"
    );
    let t = Instant::now();
    let s = make();
    let mut model = Bits::new(mix.range);
    let mut rng = XorShift64::new(seed ^ 0xDEAD_BEEF);
    let mut inserted = 0;
    while inserted < mix.prefill {
        let k = rng.below(mix.range);
        if !model.get(k) {
            s.insert(k);
            model.set(k, true);
            inserted += 1;
        }
    }
    // Settle lazy work (pending bucket migrations) before measuring.
    black_box(s.len());
    let setup_s = t.elapsed().as_secs_f64();
    let mut before = Paths::default();
    paths(&s, &mut before);
    let mut kinds = Vec::new();
    if mix.lookup_pct > 0 {
        kinds.push(Kind::Lookup);
    }
    if mix.lookup_pct < 100 {
        kinds.extend([Kind::Insert, Kind::Remove]);
    }
    let mut round = measure(
        t,
        setup_s,
        mix.lanes,
        ops_per_lane,
        traced,
        &kinds,
        |lane| {
            let mut rng = lane_rng(seed, lane.lane);
            let mut model = model.clone();
            drive(
                lane,
                || {
                    let k = rng.below(mix.range);
                    if rng.below(100) < mix.lookup_pct {
                        (Kind::Lookup, SetOp::Lookup(k))
                    } else if rng.chance(1, 2) {
                        (Kind::Insert, SetOp::Insert(k))
                    } else {
                        (Kind::Remove, SetOp::Remove(k))
                    }
                },
                |op| match op {
                    SetOp::Lookup(k) => s.contains(k),
                    SetOp::Insert(k) => s.insert(k),
                    SetOp::Remove(k) => s.remove(k),
                },
                |op, r| match op {
                    SetOp::Lookup(k) => r == model.get(k),
                    SetOp::Insert(k) => {
                        let ok = r != model.get(k);
                        model.set(k, true);
                        ok
                    }
                    SetOp::Remove(k) => {
                        let ok = r == model.get(k);
                        model.set(k, false);
                        ok
                    }
                },
            );
        },
    );
    paths(&s, &mut round.paths);
    round.paths = round.paths.since(&before);
    round
}

#[derive(Clone, Copy)]
enum PqOp {
    Push(u64),
    Pop,
}

const PQ_RANGE: u64 = 4096;

/// The Mound round: 50/50 push/pop over keys in `[0, 4096)`, prefilled
/// with 2,048 keys. Lanes tally what they pushed and popped; after the
/// run the queue is drained, and prefill + pushed must equal popped +
/// drained as multisets, with the drain in nondecreasing order.
pub fn mound_round(lanes: usize, ops_per_lane: u64, seed: u64, traced: bool) -> Round {
    let t = Instant::now();
    let q = Mound::new_pto(16);
    let mut balance = vec![0i64; PQ_RANGE as usize];
    let mut rng = XorShift64::new(seed ^ 0xFEED_F00D);
    for _ in 0..PQ_RANGE / 2 {
        let k = rng.below(PQ_RANGE);
        q.push(k);
        balance[k as usize] += 1;
    }
    let setup_s = t.elapsed().as_secs_f64();
    let mut before = Paths::default();
    if let Some(s) = q.pto_stats() {
        before.add(s);
    }
    let tallies: Vec<Mutex<Vec<i64>>> = (0..lanes)
        .map(|_| Mutex::new(vec![0; PQ_RANGE as usize + 1]))
        .collect();
    let mut round = measure(
        t,
        setup_s,
        lanes,
        ops_per_lane,
        traced,
        &[Kind::Push, Kind::Pop],
        |lane| {
            let mut rng = lane_rng(seed, lane.lane);
            // +1 per push, -1 per pop of a key; out-of-range pops count last.
            let mut tally = tallies[lane.lane].lock().expect("a lane panicked");
            drive(
                lane,
                || {
                    if rng.chance(1, 2) {
                        (Kind::Push, PqOp::Push(rng.below(PQ_RANGE)))
                    } else {
                        (Kind::Pop, PqOp::Pop)
                    }
                },
                |op| match op {
                    PqOp::Push(k) => {
                        q.push(k);
                        None
                    }
                    PqOp::Pop => q.pop_min(),
                },
                |op, r| {
                    match (op, r) {
                        (PqOp::Push(k), _) => tally[k as usize] += 1,
                        (PqOp::Pop, Some(v)) => tally[v.min(PQ_RANGE) as usize] -= 1,
                        (PqOp::Pop, None) => {}
                    }
                    true
                },
            );
        },
    );
    if let Some(s) = q.pto_stats() {
        round.paths.add(s);
    }
    round.paths = round.paths.since(&before);
    for tally in tallies {
        let tally = tally.into_inner().expect("a lane panicked");
        for (b, d) in balance.iter_mut().zip(&tally) {
            *b += d;
        }
        round.check_failed += tally[PQ_RANGE as usize].unsigned_abs();
    }
    let mut last = 0;
    while let Some(v) = q.pop_min() {
        if v < last || v >= PQ_RANGE {
            round.check_failed += 1;
            continue;
        }
        last = v;
        balance[v as usize] -= 1;
    }
    round.check_failed += balance.iter().map(|b| b.unsigned_abs()).sum::<u64>();
    round
}

#[derive(Clone, Copy)]
enum BankOp {
    Transfer { key: u64, a_to_b: bool },
    Audit(u64),
}

const TOKENS: u64 = 64;

/// The bank-transfer round: two in-place PTO hash tables and 64 tokens
/// that start in bank A. 70% of ops move a random token between the banks
/// in one composed operation; 30% audit one token across both banks in
/// one composed operation. An audit that finds the token in both banks or
/// in neither fails, and so does each token the post-run sweep finds in
/// both or neither.
pub fn bank_round(lanes: usize, ops_per_lane: u64, seed: u64, traced: bool) -> Round {
    let t = Instant::now();
    let a = FSetHashTable::new(HashVariant::PtoInplace, 64);
    let b = FSetHashTable::new(HashVariant::PtoInplace, 64);
    for k in 0..TOKENS {
        a.insert(k);
    }
    black_box(a.len());
    // One composed site per lane (a tenant each), like the scenario bench.
    let sites: Vec<Composed<'_>> = (0..lanes)
        .map(|_| Composed::new(vec![a.anchor(), b.anchor()], mode_for("pto")))
        .collect();
    let setup_s = t.elapsed().as_secs_f64();
    let mut before = Paths::default();
    before.add(&a.stats);
    before.add(&b.stats);
    let kinds = [Kind::Transfer, Kind::Audit];
    let mut round = measure(t, setup_s, lanes, ops_per_lane, traced, &kinds, |lane| {
        let mut rng = lane_rng(seed, lane.lane);
        let site = &sites[lane.lane];
        drive(
            lane,
            || {
                let key = rng.below(TOKENS);
                if rng.below(100) < 70 {
                    let a_to_b = rng.chance(1, 2);
                    (Kind::Transfer, BankOp::Transfer { key, a_to_b })
                } else {
                    (Kind::Audit, BankOp::Audit(key))
                }
            },
            |op| match op {
                BankOp::Transfer { key, a_to_b } => {
                    let (src, dst) = if a_to_b { (&a, &b) } else { (&b, &a) };
                    let moved = site.run(
                        |tx| {
                            let moved = src.tx_compose_update(tx, key, false)?;
                            if moved {
                                dst.tx_compose_update(tx, key, true)?;
                            }
                            Ok(moved)
                        },
                        || {
                            let moved = src.remove(key);
                            if moved {
                                dst.insert(key);
                            }
                            moved
                        },
                    );
                    black_box(moved);
                    None
                }
                BankOp::Audit(key) => Some(site.run(
                    |tx| {
                        Ok((
                            a.tx_compose_contains(tx, key)?,
                            b.tx_compose_contains(tx, key)?,
                        ))
                    },
                    || (a.contains(key), b.contains(key)),
                )),
            },
            // A transfer that found its token missing from the source is a
            // consistent outcome; only audits can observe a broken one.
            |_, seen| seen.is_none_or(|(in_a, in_b)| in_a != in_b),
        );
    });
    round.paths.add(&a.stats);
    round.paths.add(&b.stats);
    for site in &sites {
        round.paths.add_composed(site);
    }
    round.paths = round.paths.since(&before);
    for k in 0..TOKENS {
        if a.contains(k) == b.contains(k) {
            round.check_failed += 1;
        }
    }
    round.check_failed += (a.len() + b.len()).abs_diff(TOKENS as usize) as u64;
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A set that silently drops one insert in 1,000 while reporting
    /// success.
    struct Lossy<S> {
        inner: S,
        inserts: AtomicU64,
    }

    impl<S: ConcurrentSet> ConcurrentSet for Lossy<S> {
        fn insert(&self, key: u64) -> bool {
            if self.inserts.fetch_add(1, Ordering::Relaxed) % 1000 == 999 {
                return !self.inner.contains(key);
            }
            self.inner.insert(key)
        }
        fn remove(&self, key: u64) -> bool {
            self.inner.remove(key)
        }
        fn contains(&self, key: u64) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    /// Rounds share the process-global orec table, so a concurrent test's
    /// transactions could collide with a one-lane round's and move its
    /// virtual time: run them one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    const MIX: SetMix = SetMix {
        lanes: 1,
        range: 512,
        prefill: 256,
        lookup_pct: 20,
    };

    #[test]
    fn a_correct_set_has_no_failures() {
        let _g = serial();
        let r = set_round(|| bst_adaptive(2), |_, _| {}, MIX, 20_000, 5, false);
        assert_eq!(r.ops(), 20_000);
        assert_eq!(r.failed(), 0);
    }

    #[test]
    fn a_set_dropping_inserts_has_a_positive_error_rate() {
        let _g = serial();
        let r = set_round(
            || Lossy {
                inner: bst_adaptive(2),
                inserts: AtomicU64::new(0),
            },
            |_, _| {},
            MIX,
            20_000,
            5,
            false,
        );
        let error_rate = r.failed() as f64 / r.ops() as f64;
        assert!(error_rate > 0.0, "dropped inserts went unnoticed");
    }

    #[test]
    fn pq_and_bank_rounds_balance() {
        let _g = serial();
        let m = mound_round(2, 3_000, 9, false);
        assert_eq!((m.ops(), m.failed()), (6_000, 0));
        let b = bank_round(2, 3_000, 9, true);
        assert_eq!((b.ops(), b.failed()), (6_000, 0));
        assert!(b.paths.compose_entries >= 6_000);
        assert!(!b.rec.spans.is_empty());
    }

    #[test]
    fn one_lane_rounds_repeat_exactly() {
        let _g = serial();
        let run = |traced| {
            let r = Workload::BstCapacity.run_round(3, 5_000, traced);
            let all = r.rec.all_kinds();
            (r.makespan, all.p50(), all.p99(), all.p999())
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(false), run(true), "tracing moved virtual time");
    }
}
