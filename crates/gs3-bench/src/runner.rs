//! A deterministic parallel experiment runner.
//!
//! Every experiment in this crate is a grid of independent cells
//! (seed × parameter combinations), each a fully seeded single-threaded
//! simulation. [`run_grid`] fans the cells out over OS threads with a
//! work-stealing index and returns results **in cell order**, so the
//! emitted tables and JSON artifacts are byte-identical whether the grid
//! ran on one thread or sixteen — parallelism changes wall-clock time and
//! nothing else.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every cell and returns the results in cell order.
///
/// `threads` is clamped to `[1, cells.len()]`; with one thread the cells
/// run inline on the caller. Worker threads pull the next unclaimed cell
/// index from a shared atomic counter, so long cells don't serialize the
/// grid behind them.
///
/// # Panics
///
/// Propagates a panic from any cell.
pub fn run_grid<T, R, F>(cells: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, cells.len().max(1));
    if threads <= 1 {
        return cells.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(cells.len());
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next = &next;
            let f = &f;
            handles.push(s.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    local.push((i, f(&cells[i])));
                }
                local
            }));
        }
        for h in handles {
            collected.extend(h.join().expect("experiment cell panicked"));
        }
    });
    // Scheduling decided only who computed what; cell order decides the
    // output.
    collected.sort_by_key(|&(i, _)| i);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// The machine's available parallelism (1 when undetectable).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_cell_order_regardless_of_threads() {
        // Cells deliberately take wildly different time: late cells finish
        // first under parallelism, yet the output must stay in order.
        let cells: Vec<u64> = (0..40).rev().collect();
        let f = |&c: &u64| {
            let mut acc = c;
            for _ in 0..(c * 1000) {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            (c, acc)
        };
        let serial = run_grid(&cells, 1, f);
        for threads in [2, 4, 8] {
            assert_eq!(run_grid(&cells, threads, f), serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_cell_grids() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_grid(&empty, 8, |&c: &u32| c).is_empty());
        assert_eq!(run_grid(&[7u32], 8, |&c: &u32| c * 2), vec![14]);
    }

    #[test]
    fn simulation_grid_identical_at_any_thread_count() {
        // Real seeded simulations, not synthetic work: the structural
        // signature of every cell must not depend on which thread ran it.
        let seeds = [1u64, 2, 3, 4];
        let f = |&seed: &u64| {
            let mut net = gs3_core::harness::NetworkBuilder::new()
                .ideal_radius(60.0)
                .radius_tolerance(14.0)
                .area_radius(110.0)
                .expected_nodes(120)
                .seed(seed)
                .build()
                .expect("valid parameters");
            net.run_for(gs3_sim::SimDuration::from_secs(60));
            net.structural_signature()
        };
        let serial = run_grid(&seeds, 1, f);
        assert_eq!(run_grid(&seeds, 4, f), serial);
    }
}
