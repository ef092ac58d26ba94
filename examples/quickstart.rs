//! Quickstart: accelerate a nonblocking set with PTO in three lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use pto::core::ConcurrentSet;
use pto::bst::{Bst, BstVariant};

fn main() {
    println!("HTM backend: {}", pto::htm::hw::backend_description());

    // The paper's composed configuration: whole-operation prefix
    // transactions (2 attempts), update-phase transactions (16 attempts)
    // in their fallback, then the untouched Ellen et al. lock-free code.
    let set = Bst::new(BstVariant::Pto1Pto2);

    for k in [3u64, 1, 4, 1, 5, 9, 2, 6] {
        set.insert(k);
    }
    assert!(set.contains(4));
    assert!(!set.contains(8));
    set.remove(1);
    assert!(!set.contains(1));
    println!("set size: {}", set.len());

    // Multi-threaded use is the point: spawn a few writers.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let set = &set;
            s.spawn(move || {
                for k in (t * 1000)..(t * 1000 + 500) {
                    set.insert(k);
                }
            });
        }
    });
    println!("after 4 concurrent writers: {} keys", set.len());

    // How often did the fast path win?
    println!(
        "PTO1 (whole-op) fast-path rate: {:.1}%  (fast {} / fallback {})",
        100.0 * set.stats1.fast_rate(),
        set.stats1.fast.get(),
        set.stats1.fallback.get(),
    );
}
