//! Per-call-site attribution of virtual time, as a view over
//! [`pto_sim::obs`].
//!
//! Every executor — [`pto`](crate::policy::pto) /
//! [`pto2`](crate::policy::pto2) / the adaptive executors /
//! [`Tle::execute`](crate::tle::Tle::execute) /
//! [`FlatCombining::execute`](crate::fc::FlatCombining::execute) — brackets
//! its call with an `OpBegin{site}`/`OpEnd` frame, the `site` captured with
//! `#[track_caller]`, so an observation session can charge the attempt,
//! backoff, fallback and combine spans inside it to the line of structure
//! code that issued the operation. Arming changes no virtual-time outcome:
//! the session only folds events stamped with clock reads.
//!
//! Attribution is **inclusive**: a composed `pto2` charges its inner
//! attempts both to the inner attempt phase and to the outer fallback
//! phase (the inner executor runs inside the outer fallback closure),
//! exactly like a flamegraph's inclusive sample counts.

pub use pto_sim::obs::{Phase, N_PHASES};

/// An observation session read for its attribution fold:
/// `drain().sites` lists the call sites hottest first.
pub type ProfileSession = pto_sim::obs::Session;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{pto, PtoPolicy, PtoStats};
    use pto_htm::TxWord;

    #[test]
    fn disarmed_profiling_records_nothing() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
        let p = ProfileSession::new().drain();
        assert!(p.sites.is_empty(), "disarmed ops must not register sites");
    }

    #[test]
    fn sites_attribute_attempt_and_fallback_time() {
        let session = ProfileSession::new();
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        // Site A: commits on the fast path.
        for _ in 0..10 {
            pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
        }
        // Site B: explicit abort, straight to fallback.
        for _ in 0..5 {
            pto(
                &PtoPolicy::with_attempts(3),
                &stats,
                |tx| -> pto_htm::TxResult<u64> { Err(tx.abort(1)) },
                || {
                    pto_sim::charge_n(pto_sim::CostKind::Work, 7);
                    0
                },
            );
        }
        let p = session.drain();
        assert_eq!(p.sites.len(), 2, "two distinct call sites");
        let a = p
            .sites
            .iter()
            .find(|s| s.counts[Phase::Fallback as usize] == 0)
            .expect("fast-path site");
        assert_eq!(a.counts[Phase::Attempt as usize], 10);
        assert!(a.cycles[Phase::Attempt as usize] > 0);
        let b = p
            .sites
            .iter()
            .find(|s| s.counts[Phase::Fallback as usize] > 0)
            .expect("fallback site");
        assert_eq!(b.counts[Phase::Fallback as usize], 5);
        assert!(
            b.cycles[Phase::Fallback as usize]
                >= 5 * pto_sim::cost::cycles(pto_sim::CostKind::Work) * 7
        );
        // Exporters name both sites.
        let collapsed = p.collapsed();
        assert!(collapsed.contains(";attempt "));
        assert!(collapsed.contains(";fallback "));
        assert!(collapsed.lines().all(|l| l.contains("profile.rs")));
        let table = p.top_table(10);
        assert!(table.contains("profile.rs"));
    }

    #[test]
    fn armed_profiling_never_charges_virtual_time() {
        let w = TxWord::new(0);
        let stats = PtoStats::new();
        let run = || {
            pto_sim::clock::reset();
            for _ in 0..50 {
                pto(&PtoPolicy::with_attempts(3), &stats, |tx| tx.read(&w), || 0);
            }
            pto_sim::now()
        };
        let plain = run();
        let session = ProfileSession::arm();
        let armed = run();
        let p = session.drain();
        assert!(p.total_cycles() > 0, "armed run attributed nothing");
        assert_eq!(plain, armed, "profiling perturbed the virtual clock");
    }
}
