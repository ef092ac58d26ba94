//! Layer microbenchmarks: host nanoseconds of one call into a single layer,
//! each the median of five repetitions.

use crate::stats::Spread;
use pto_htm::{transaction, TxWord};
use pto_mem::Pool;
use pto_sim::Sim;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// One microbenchmark result: ns per call over [`REPS`] repetitions.
pub struct Micro {
    pub name: &'static str,
    pub what: &'static str,
    pub ns: Spread,
}

/// Run every microbenchmark; `scale` shrinks the iteration counts for
/// smoke runs.
pub fn run_all(scale: f64) -> Vec<Micro> {
    let n = |full: u64| ((full as f64 * scale) as u64).max(1_000);
    vec![
        bench(
            "sim.charge_ns",
            "1-lane charge_cycles(50)",
            n(20_000_000),
            |iters| {
                Sim::new(1).run(|_| {
                    for _ in 0..iters {
                        pto_sim::charge_cycles(black_box(50));
                    }
                });
                iters
            },
        ),
        bench(
            "sim.gate_charge_ns_2lane",
            "2-lane charge_cycles(50) through the gate, per charge",
            n(4_000_000),
            |iters| {
                Sim::new(2).run(|_| {
                    for _ in 0..iters {
                        pto_sim::charge_cycles(black_box(50));
                    }
                });
                2 * iters
            },
        ),
        bench(
            "htm.txn_ro_ns",
            "8-read transaction",
            n(1_000_000),
            |iters| {
                let words: Vec<TxWord> = (0..8).map(TxWord::new).collect();
                Sim::new(1).run(|_| {
                    for _ in 0..iters {
                        let r = transaction(|tx| {
                            let mut sum = 0;
                            for w in &words {
                                sum += tx.read(w)?;
                            }
                            Ok(sum)
                        });
                        black_box(r.ok());
                    }
                });
                iters
            },
        ),
        bench(
            "htm.txn_ns",
            "8-read/4-write transaction",
            n(1_000_000),
            |iters| {
                let words: Vec<TxWord> = (0..8).map(TxWord::new).collect();
                Sim::new(1).run(|_| {
                    for _ in 0..iters {
                        let r = transaction(|tx| {
                            let mut sum = 0;
                            for w in &words {
                                sum += tx.read(w)?;
                            }
                            for w in &words[..4] {
                                tx.write(w, sum)?;
                            }
                            Ok(sum)
                        });
                        black_box(r.ok());
                    }
                });
                iters
            },
        ),
        bench(
            "mem.pool_ns",
            "pool alloc + free_now pair",
            n(4_000_000),
            |iters| {
                let pool: Pool<u64> = Pool::new();
                Sim::new(1).run(|_| {
                    for _ in 0..iters {
                        let i = pool.alloc();
                        pool.free_now(black_box(i));
                    }
                });
                iters
            },
        ),
    ]
}

/// Time `body(iters)`, which returns how many calls it made, [`REPS`]
/// times.
fn bench(name: &'static str, what: &'static str, iters: u64, body: impl Fn(u64) -> u64) -> Micro {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            pto_sim::clock::reset();
            let t = Instant::now();
            let calls = body(iters);
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    Micro {
        name,
        what,
        ns: Spread::of(&samples),
    }
}
