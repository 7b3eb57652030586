//! Lists far below one parallel chunk never touch the thread pool.
//!
//! The rayon pool spawns its workers lazily, on the first consumer that
//! splits into more than one chunk. So if every matcher, on every small
//! list, runs each per-node pass as a single inline chunk, no worker is
//! ever spawned in this process. This file must hold only this one test:
//! another test in the same binary could spawn the workers first.

use parmatch_core::prelude::*;
use parmatch_list::random_list;

#[test]
fn small_lists_run_inline_at_the_default_thread_count() {
    let mut ws = Workspace::new();
    let mut runs = Vec::new();
    for n in 2..=200usize {
        let list = random_list(n, n as u64);
        for algo in Algorithm::ALL {
            let out = Runner::new(algo).workspace(&mut ws).run(&list);
            runs.push((list.clone(), out.into_matching()));
        }
    }
    assert_eq!(
        rayon::pool_workers(),
        0,
        "a small-list pass split across the pool (default threads: {})",
        rayon::current_num_threads()
    );
    // Checked only now: the verifier's own passes may use the pool.
    for (list, matching) in &runs {
        verify::assert_maximal_matching(list, matching);
    }
}
