//! CI smoke test for observation, attribution and SLO rails (run by
//! `ci/premerge.sh`). Every check is fatal on failure:
//!
//! 1. **One session, every view** — one [`Session`] over a fig2a-style
//!    workload (plain and chaos-100 PTO Mindicators, lock-free and PTO
//!    skiplists) plus an adaptive-policy leg. Its capture must hold the
//!    full event vocabulary (transactions, aborts, fallbacks, epoch pins,
//!    gate waits) from >= 2 lanes with zero drops at default capacity; its
//!    one Chrome export (spans plus >= 5 counter tracks) must pass the
//!    in-tree validator and lands in `results/trace_fig2a.json` (and, under
//!    its older name, `results/metrics_fig2a.json`); its attribution must
//!    name >= 3 call sites (`results/profile_smoke.txt`); and the adaptive
//!    leg must move all three `policy.*` series: a capacity-doomed site
//!    flips regime (`policy.adapt_flips`), every grant samples
//!    `policy.site_budget`, and a deterministically armed single-orec
//!    middle path records `policy.middle_entries`.
//! 2. **Overflow** — a tiny per-track capacity drops events, counts them,
//!    reports the count in the exported JSON, and leaves the folded series
//!    exact.
//! 3. **Zero overhead** — a deterministic workload's virtual-time outcome
//!    tuple is bit-identical with a session armed vs disarmed.
//! 4. **SLO gate** — a mini fig2a-style table evaluates against the
//!    compiled-in rails and must pass, writing `results/slo_smoke.csv`.

use pto_bench::cells;
use pto_bench::drivers::{mbench, setbench};
use pto_bench::report::Table;
use pto_bench::slo;
use pto_core::policy::{pto_adaptive, AdaptivePolicy, PtoPolicy, PtoStats};
use pto_mindicator::PtoMindicator;
use pto_sim::obs::{self, Event, Series, Session};
use pto_skiplist::SkipListSet;

/// A 1-lane run of the self-tuning policy that moves every `policy.*`
/// series. Returns the ops the middle path absorbed.
fn adaptive_leg() -> u64 {
    pto_sim::clock::reset();
    let middle = std::sync::atomic::AtomicU64::new(0);
    pto_sim::Sim::new(1).run(|_| {
        // (a) Regime flip: a write set over the cap dooms every HTM
        // attempt, driving the site Healthy -> Capacity (adapt_flips) and
        // sampling site_budget on every grant.
        let words: Vec<pto_htm::TxWord> = (0..8).map(|_| pto_htm::TxWord::new(0)).collect();
        let cap_ap = AdaptivePolicy::new(PtoPolicy::with_attempts(2).with_write_cap(2))
            .with_middle_streak(u32::MAX);
        let cap_stats = PtoStats::new();
        for _ in 0..64 {
            pto_adaptive(
                &cap_ap,
                &cap_stats,
                |tx| {
                    for w in &words {
                        let v = tx.read(w)?;
                        tx.write(w, v + 1)?;
                    }
                    Ok(())
                },
                || (),
            );
        }
        // (b) Middle entries: arm the same-granule streak with real
        // conflicts against a guard-held orec, release the guard, then
        // doom each op's single remaining HTM attempt by hand so the op
        // takes the owned-orec middle path (same dance as the pto-core
        // unit test, all at one adaptive call site).
        let w = pto_htm::TxWord::new(0);
        let ap = AdaptivePolicy::new(PtoPolicy::with_attempts(2)).with_middle_streak(2);
        let stats = PtoStats::new();
        let mut guard = Some(pto_htm::try_acquire_orec(w.orec_index(), 8).expect("uncontended"));
        let invocation = std::cell::Cell::new(0u32);
        for op in 0..12u32 {
            if op == 6 {
                guard = None;
            }
            let released = guard.is_none();
            invocation.set(0);
            pto_adaptive(
                &ap,
                &stats,
                |tx| {
                    invocation.set(invocation.get() + 1);
                    let v = tx.read(&w)?;
                    if released && invocation.get() == 1 {
                        return Err(pto_htm::Abort {
                            cause: pto_htm::AbortCause::Conflict,
                        });
                    }
                    tx.write(&w, v + 1)?;
                    Ok(())
                },
                || (),
            );
        }
        middle.store(stats.middle.get(), std::sync::atomic::Ordering::Relaxed);
    });
    middle.into_inner()
}

/// Deterministic lane-private workload for the overhead check (same
/// discipline as `tests/metrics_overhead.rs`: no chaos, no conflicts —
/// each lane owns its word, because lanes inside one gate quantum run
/// physically concurrently and a shared word would make the abort count,
/// and so the charged virtual time, depend on real thread interleaving).
fn det_workload() -> (u64, Vec<u64>) {
    pto_sim::clock::reset();
    let words: Vec<pto_htm::TxWord> = (0..4).map(|_| pto_htm::TxWord::new(0)).collect();
    let out = pto_sim::Sim::new(4).run(|lane| {
        let word = &words[lane];
        let policy = PtoPolicy::with_attempts(3);
        let stats = PtoStats::new();
        for _ in 0..(100 + lane as u64) {
            pto_core::policy::pto(
                &policy,
                &stats,
                |tx| {
                    let v = tx.read(word)?;
                    tx.write(word, v + 1)?;
                    Ok(())
                },
                || unreachable!("lane-private word: the prefix cannot abort"),
            );
        }
    });
    (out.makespan, out.per_thread)
}

fn main() {
    // --- 1. One session, every view. -----------------------------------
    let session = Session::arm();
    // Plain PTO mindicator: commits (and under contention, conflicts).
    mbench(|| PtoMindicator::new(64), 4, 200, 65_536, 42);
    // Chaos-100 policy: every prefix attempt aborts, every op falls back.
    mbench(
        || PtoMindicator::with_policy(64, PtoPolicy::with_attempts(2).with_chaos(100)),
        4,
        100,
        65_536,
        43,
    );
    // Lock-free skiplist: fallback-path epoch pins on every operation.
    setbench(SkipListSet::new_lockfree, 4, 150, 256, 34, 44);
    // PTO skiplist: several distinct `pto` call sites, pool/epoch churn.
    setbench(SkipListSet::new_pto, 4, 150, 256, 34, 44);
    let middle = adaptive_leg();
    let cap = session.drain();

    let vocabulary = [
        ("TxBegin", Event::TxBegin),
        ("TxCommit", Event::TxCommit { rv: 0, wv: 0 }),
        ("TxAbort", Event::TxAbort { cause: 0 }),
        ("FallbackEnter", Event::FallbackEnter),
        ("EpochPin", Event::EpochPin),
        ("GateWaitBegin", Event::GateWaitBegin { skew: 0 }),
    ];
    for (name, kind) in vocabulary {
        let same = |e: Event| std::mem::discriminant(&e) == std::mem::discriminant(&kind);
        assert!(cap.any(same), "no {name} events captured");
    }
    let lanes: std::collections::BTreeSet<usize> =
        cap.tracks.iter().filter_map(|t| t.lane).collect();
    assert!(
        lanes.len() >= 2,
        "expected events from >= 2 simulated lanes, got {lanes:?}"
    );
    assert_eq!(cap.dropped(), 0, "default capacity must not drop events");
    assert!(cap.series.total(Series::Commits) > 0, "no commits folded");
    assert!(
        cap.series.total(Series::AbortSpurious) > 0,
        "chaos leg folded no spurious aborts"
    );

    let json = cap.to_chrome_json();
    let check = obs::validate_chrome(&json).expect("exported trace failed validation");
    assert!(check.events > 0 && check.tracks >= 2 && check.complete_spans > 0);
    assert!(
        check.counter_series >= 5,
        "expected >= 5 counter tracks in the export, got {}",
        check.counter_series
    );
    std::fs::create_dir_all("results").expect("mkdir results");
    for path in ["results/trace_fig2a.json", "results/metrics_fig2a.json"] {
        std::fs::write(path, &json).expect("write trace json");
    }
    println!(
        "export: {} events, {} tracks, {} complete spans, {} counter series \
         -> results/trace_fig2a.json",
        check.events, check.tracks, check.complete_spans, check.counter_series
    );
    print!("{}", cap.summary());

    let sites: std::collections::BTreeSet<(&str, u32)> =
        cap.sites.iter().map(|s| (s.file, s.line)).collect();
    assert!(
        sites.len() >= 3,
        "expected >= 3 distinct call sites, got {sites:?}"
    );
    let collapsed = cap.collapsed();
    assert!(
        collapsed.lines().count() >= 3,
        "collapsed-stack export too small:\n{collapsed}"
    );
    std::fs::write("results/profile_smoke.txt", &collapsed).expect("write collapsed profile");
    print!("{}", cap.top_table(5));
    println!(
        "attribution: {} sites, {} cycles charged -> results/profile_smoke.txt",
        sites.len(),
        cap.total_cycles()
    );

    assert!(
        middle > 0,
        "armed middle path absorbed no ops (streak never armed?)"
    );
    // `policy.site_budget` is a gauge (per-grant level), so presence is
    // the check; the other two count up.
    assert!(
        cap.series.count(Series::PolicySiteBudget) > 0,
        "adaptive leg sampled no policy.site_budget gauge"
    );
    for s in [Series::PolicyMiddleEntries, Series::PolicyAdaptFlips] {
        assert!(
            cap.series.total(s) > 0,
            "adaptive leg moved no {}",
            s.name()
        );
    }
    println!(
        "adaptive counters: site_budget sampled, middle_entries {}, adapt_flips {}",
        cap.series.total(Series::PolicyMiddleEntries),
        cap.series.total(Series::PolicyAdaptFlips),
    );

    // --- 2. Overflow is counted, reported, and leaves the folds exact. --
    let htm = pto_htm::HtmScope::new();
    let session = Session::with_capacity(32);
    mbench(|| PtoMindicator::new(64), 4, 300, 65_536, 45);
    let cap = session.drain();
    assert!(
        cap.dropped() > 0,
        "tiny capacity must overflow and count drops"
    );
    assert_eq!(
        cap.series.total(Series::Commits),
        htm.snapshot().commits,
        "folded commits must stay exact when the ring overflows"
    );
    let json = cap.to_chrome_json();
    assert!(
        json.contains("trace_dropped"),
        "drop counter missing from exported JSON"
    );
    let check = obs::validate_chrome(&json).expect("overflowed trace failed validation");
    assert!(
        check.dropped_reported > 0,
        "validator did not see the reported drop count"
    );
    println!(
        "overflow: {} events kept, {} dropped (reported in JSON), series exact",
        check.events, check.dropped_reported
    );

    // --- 3. Observation changes no virtual-time outcome. ---------------
    let plain = det_workload();
    let session = Session::arm();
    let armed = det_workload();
    drop(session.drain());
    assert_eq!(
        plain, armed,
        "an armed session changed a virtual-time outcome"
    );
    println!(
        "overhead: armed == disarmed (makespan {}, {} lanes)",
        plain.0,
        plain.1.len()
    );

    // --- 4. SLO rails over a mini measured table. ----------------------
    let mut table = Table::new("smoke", &["lockfree", "pto"]);
    for &threads in &[1usize, 4] {
        let mut vals = Vec::new();
        for (series, f) in [
            ("lockfree", SkipListSet::new_lockfree as fn() -> SkipListSet),
            ("pto", SkipListSet::new_pto as fn() -> SkipListSet),
        ] {
            let out = cells::run_scoped(cells::cell_key(series, threads as u64), || {
                setbench(f, threads, 150, 256, 34, 7)
            });
            vals.push(out.value);
            table.push_cause(threads, series, out.htm, out.mem);
            table.push_lat(threads, series, out.lat);
            table.push_met(threads, series, out.met);
        }
        table.push(threads, vals);
    }
    let report = slo::evaluate("smoke", &table, &slo::spec_for("smoke"));
    print!("{}", table.render_metrics());
    print!("{}", report.render());
    assert!(
        !report.results.is_empty(),
        "SLO rails evaluated no checks over the smoke table"
    );
    report
        .write_csv("smoke")
        .expect("write results/slo_smoke.csv");
    if !report.pass() {
        eprintln!("SLO rails FAILED on the smoke workload");
        std::process::exit(1);
    }
    println!(
        "slo: {} checks passed -> results/slo_smoke.csv",
        report.results.len()
    );
    println!("obs smoke: OK");
}
