//! Thread-count determinism of the experiment harness: the episode
//! measurements an experiment reports must be identical however its grid
//! is fanned out — [`run_grid`](gs3_bench::runner::run_grid) returns cells
//! in grid order and every cell is a fully seeded single-threaded
//! simulation, so `-j 1` and `-j 4` may differ only in wall-clock time.

use gs3_bench::locality;

#[test]
fn locality_points_are_identical_across_thread_counts() {
    // A small grid keeps the debug-mode runtime down; `paper`'s LOCALITY
    // section runs the full grid through the same run_cell/sweep_grid path.
    let sizes = [200usize];
    let seeds = [11u64, 23];
    let serial = locality::sweep_grid(&sizes, &seeds, 1);
    let parallel = locality::sweep_grid(&sizes, &seeds, 4);
    assert_eq!(serial, parallel, "episode measurements must not depend on -j");
    // Sanity: the points carry real episode measurements.
    assert!(serial.iter().all(|p| p.killed > 0 && p.radius_m > 0.0 && p.tainted > 0), "{serial:?}");
}
