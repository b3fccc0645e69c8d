//! A uniform-grid spatial index for range queries over node positions.
//!
//! Broadcast delivery must find every node within a radius; a hash-grid
//! keeps that `O(candidates)` instead of `O(n)` per transmission.

use gs3_geometry::Point;

/// One grid cell: handles and the point each was stored at, in two
/// parallel columns, ascending by handle. Handles stay contiguous for
/// [`SpatialGrid::cell`]; the points let [`SpatialGrid::disk_into`] filter
/// by distance while it scans, without chasing every handle back into the
/// owner's storage, and the order makes each cell's hits an ascending run.
#[derive(Debug, Clone)]
struct Bucket {
    handles: Vec<usize>,
    points: Vec<Point>,
}

/// What a bucket's columns start out able to hold. Growing two columns
/// from empty costs twice the reallocations growing one did, and they —
/// not the pushes — are what building a grid pays for: with the default
/// growth a 10 000-point build went from 24 to 39 ns a point when the
/// second column arrived, and is 26 from here. A cell of a populated
/// grid holds several times this many handles; a sparse grid wastes
/// under a kilobyte per occupied cell.
const BUCKET_CAPACITY: usize = 32;

/// A uniform hash-grid over the plane holding `usize` handles.
///
/// Buckets live in an integer-keyed [`FxHashMap`](crate::fxhash::FxHashMap)
/// (multiply-rotate hash): grid lookups sit on the broadcast hot path where
/// SipHash's per-lookup cost is measurable. Lookups go by key; the one
/// view that walks the map, and so exposes its order, is
/// [`SpatialGrid::for_each_cell`].
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell: f64,
    // gs3-lint: allow(d1) -- only for_each_cell iterates it, and each of its call sites is a d5 finding that argues order independence; every other access is a keyed lookup
    cells: crate::fxhash::FxHashMap<(i64, i64), Bucket>,
    len: usize,
}

impl SpatialGrid {
    /// Creates a grid with the given cell edge length (typically the radio's
    /// maximum range, so any in-range query touches at most 9 cells).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    #[must_use]
    pub fn new(cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "grid cell size must be positive");
        SpatialGrid { cell, cells: Default::default(), len: 0 }
    }

    fn key(&self, p: Point) -> (i64, i64) {
        ((p.x / self.cell).floor() as i64, (p.y / self.cell).floor() as i64)
    }

    /// Inserts `handle` at `p`, in handle order within its cell (an
    /// append when handles arrive in increasing order, as spawns do).
    pub fn insert(&mut self, handle: usize, p: Point) {
        let b = self.cells.entry(self.key(p)).or_insert_with(|| Bucket {
            handles: Vec::with_capacity(BUCKET_CAPACITY),
            points: Vec::with_capacity(BUCKET_CAPACITY),
        });
        if b.handles.last().is_none_or(|&last| last < handle) {
            b.handles.push(handle);
            b.points.push(p);
        } else {
            let i = b.handles.partition_point(|&h| h < handle);
            b.handles.insert(i, handle);
            b.points.insert(i, p);
        }
        self.len += 1;
    }

    /// Removes `handle` from its cell at `p` (the position it was inserted
    /// or last moved to). No-op when absent.
    pub fn remove(&mut self, handle: usize, p: Point) {
        let k = self.key(p);
        if let Some(b) = self.cells.get_mut(&k) {
            if let Ok(i) = b.handles.binary_search(&handle) {
                // Vec::remove (not swap_remove) keeps the handle order.
                b.handles.remove(i);
                b.points.remove(i);
                self.len -= 1;
            }
            if b.handles.is_empty() {
                self.cells.remove(&k);
            }
        }
    }

    /// Moves `handle` from `old` to `new`.
    pub fn relocate(&mut self, handle: usize, old: Point, new: Point) {
        let k = self.key(old);
        if k != self.key(new) {
            self.remove(handle, old);
            self.insert(handle, new);
        } else if let Some(b) = self.cells.get_mut(&k) {
            if let Ok(i) = b.handles.binary_search(&handle) {
                b.points[i] = new;
            }
        }
    }

    /// Calls `f` for every handle whose cell intersects the disk of
    /// `radius` around `center`. Handles may be reported whose exact
    /// position is outside the disk — the caller re-checks distances.
    pub fn for_each_candidate<F: FnMut(usize)>(&self, center: Point, radius: f64, mut f: F) {
        self.for_each_bucket(center, radius, |b| b.handles.iter().copied().for_each(&mut f));
    }

    /// Appends `(handle, distance)` for every stored point within `radius`
    /// of `center` — exactly the handles with `!(distance > radius)`, each
    /// distance computed as `center.distance(point)` — in ascending handle
    /// order, whatever order the members were inserted in.
    pub fn disk_into(&self, center: Point, radius: f64, out: &mut Vec<(usize, f64)>) {
        self.disk_map_into(center, radius, out, |h, d| (h, d), |&(h, _)| h);
    }

    /// [`Self::disk_into`] appending `hit(handle, distance)` instead, for a
    /// `T` from which `handle` reads the handle back. Each cell's hits come
    /// out ascending, since its members are stored that way; when the
    /// cells' runs do not already follow one another in order, an LSD
    /// radix pass per byte of the largest handle orders them: no
    /// comparison sort.
    pub(crate) fn disk_map_into<T: Copy>(
        &self,
        center: Point,
        radius: f64,
        out: &mut Vec<T>,
        hit: impl Fn(usize, f64) -> T,
        handle: impl Fn(&T) -> usize,
    ) {
        let start = out.len();
        // A point this far out cannot round into the disk; skipping it
        // here spares the square root for two candidates in three.
        let surely_outside = radius * radius * (1.0 + 1e-9);
        let (mut in_order, mut top) = (true, 0);
        self.for_each_bucket(center, radius, |b| {
            let mid = out.len();
            for (&h, &p) in b.handles.iter().zip(&b.points) {
                if center.distance_sq(p) > surely_outside {
                    continue;
                }
                let d = center.distance(p);
                if d > radius {
                    continue;
                }
                out.push(hit(h, d));
            }
            if let Some(last) = out.get(mid..).and_then(<[T]>::last) {
                // A run's last hit is its largest.
                in_order &= mid == start || handle(&out[mid - 1]) < handle(&out[mid]);
                top = top.max(handle(last));
            }
        });
        if !in_order {
            radix_sort(out, start, top, handle);
        }
    }

    /// Visits the non-empty cells intersecting the bounding square of the
    /// disk of `radius` around `center`.
    fn for_each_bucket<F: FnMut(&Bucket)>(&self, center: Point, radius: f64, mut f: F) {
        let (cx0, cy0) = self.key(Point::new(center.x - radius, center.y - radius));
        let (cx1, cy1) = self.key(Point::new(center.x + radius, center.y + radius));
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(b) = self.cells.get(&(cx, cy)) {
                    f(b);
                }
            }
        }
    }

    /// The cell edge length this grid quantizes by.
    #[must_use]
    pub fn cell_edge(&self) -> f64 {
        self.cell
    }

    /// The handles stored in the cell at `key`, if any.
    #[must_use]
    pub fn cell(&self, key: (i64, i64)) -> Option<&[usize]> {
        self.cells.get(&key).map(|b| b.handles.as_slice())
    }

    /// Calls `f` with every non-empty cell's coordinate and handles.
    /// Iteration order is arbitrary (hash order) — callers needing
    /// determinism must not let order leak into their result, and lint
    /// `d5` reports every call site until it says why it doesn't.
    pub fn for_each_cell<F: FnMut((i64, i64), &[usize])>(&self, mut f: F) {
        for (k, b) in &self.cells {
            f(*k, &b.handles);
        }
    }

    /// Total handles stored — O(1), maintained by insert/remove.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no handles are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Orders `out[start..]` by `key`, all of whose values are at most `top`:
/// one stable counting pass per byte of `top`, skipping a byte every
/// entry shares, ping-ponging with a second copy past the end.
fn radix_sort<T: Copy>(out: &mut Vec<T>, start: usize, top: usize, key: impl Fn(&T) -> usize) {
    let (end, n) = (out.len(), out.len() - start);
    out.extend_from_within(start..end);
    let (mut src, mut dst) = (start, end);
    let mut shift = 0;
    while shift < usize::BITS && top >> shift != 0 {
        let digit = |t: &T| (key(t) >> shift) & 0xFF;
        let mut at = [0usize; 256];
        for t in &out[src..src + n] {
            at[digit(t)] += 1;
        }
        if at.iter().all(|&c| c < n) {
            let mut sum = dst;
            for slot in &mut at {
                sum += std::mem::replace(slot, sum);
            }
            for i in src..src + n {
                let t = out[i];
                let d = digit(&t);
                out[at[d]] = t;
                at[d] += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
        shift += 8;
    }
    if src != start {
        out.copy_within(src..src + n, start);
    }
    out.truncate(end);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(grid: &SpatialGrid, center: Point, radius: f64) -> Vec<usize> {
        let mut v = Vec::new();
        grid.for_each_candidate(center, radius, |h| v.push(h));
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_query_remove() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point::new(5.0, 5.0));
        g.insert(2, Point::new(50.0, 50.0));
        assert_eq!(g.len(), 2);
        let near = collect(&g, Point::ORIGIN, 10.0);
        assert!(near.contains(&1));
        assert!(!near.contains(&2));
        g.remove(1, Point::new(5.0, 5.0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn candidates_superset_of_in_range() {
        let mut g = SpatialGrid::new(7.0);
        let pts: Vec<Point> =
            (0..100).map(|i| Point::new(f64::from(i % 10) * 3.0, f64::from(i / 10) * 3.0)).collect();
        for (i, p) in pts.iter().enumerate() {
            g.insert(i, *p);
        }
        let center = Point::new(12.0, 12.0);
        let radius = 6.5;
        let candidates = collect(&g, center, radius);
        for (i, p) in pts.iter().enumerate() {
            if center.distance(*p) <= radius {
                assert!(candidates.contains(&i), "missing in-range handle {i}");
            }
        }
    }

    #[test]
    fn relocate_moves_between_cells() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point::new(1.0, 1.0));
        g.relocate(1, Point::new(1.0, 1.0), Point::new(95.0, 95.0));
        assert!(collect(&g, Point::ORIGIN, 5.0).is_empty());
        assert_eq!(collect(&g, Point::new(95.0, 95.0), 5.0), vec![1]);
    }

    #[test]
    fn relocate_within_cell_keeps_handle() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point::new(1.0, 1.0));
        g.relocate(1, Point::new(1.0, 1.0), Point::new(2.0, 2.0));
        assert_eq!(g.len(), 1);
        assert_eq!(collect(&g, Point::ORIGIN, 5.0), vec![1]);
    }

    #[test]
    fn negative_coordinates() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(1, Point::new(-15.0, -15.0));
        assert_eq!(collect(&g, Point::new(-15.0, -15.0), 1.0), vec![1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_cell() {
        let _ = SpatialGrid::new(0.0);
    }

    #[test]
    fn running_len_tracks_churn() {
        let mut g = SpatialGrid::new(10.0);
        for i in 0..100 {
            g.insert(i, Point::new(f64::from(i as u32) * 3.0, 0.0));
        }
        assert_eq!(g.len(), 100);
        for i in 0..50 {
            g.remove(i, Point::new(f64::from(i as u32) * 3.0, 0.0));
        }
        assert_eq!(g.len(), 50);
        // Removing an absent handle must not disturb the count.
        g.remove(999, Point::ORIGIN);
        assert_eq!(g.len(), 50);
        g.relocate(60, Point::new(180.0, 0.0), Point::new(-42.0, 7.0));
        assert_eq!(g.len(), 50);
        assert!(!g.is_empty());
        for i in 50..100 {
            let p = if i == 60 { Point::new(-42.0, 7.0) } else { Point::new(f64::from(i as u32) * 3.0, 0.0) };
            g.remove(i, p);
        }
        assert_eq!(g.len(), 0);
        assert!(g.is_empty());
    }

    /// The exact query against a brute-force filter over a shadow of the
    /// grid's contents, through random churn: same-cell moves (which must
    /// update the stored point), cross-cell moves, removals, re-inserts,
    /// both signs of both coordinates.
    #[test]
    fn disk_query_equals_brute_force_under_churn() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..if cfg!(miri) { 1 } else { 8u64 } {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut grid = SpatialGrid::new(10.0);
            let mut shadow: Vec<Option<Point>> = vec![None; 120];
            let anywhere =
                |rng: &mut StdRng| Point::new(rng.gen_range(-45.0f64..45.0), rng.gen_range(-45.0f64..45.0));
            let mut hits = Vec::new();
            for _ in 0..if cfg!(miri) { 200 } else { 2_000 } {
                let h = rng.gen_range(0..shadow.len());
                match (shadow[h], rng.gen_range(0u32..5)) {
                    (None, _) => {
                        let p = anywhere(&mut rng);
                        grid.insert(h, p);
                        shadow[h] = Some(p);
                    }
                    (Some(old), 0) => {
                        grid.remove(h, old);
                        shadow[h] = None;
                    }
                    (Some(old), 2) => {
                        // Away to another cell and back, a few times: the
                        // handle re-enters its first cell between members
                        // inserted before and after it.
                        for _ in 0..rng.gen_range(1u32..4) {
                            let away = anywhere(&mut rng);
                            grid.relocate(h, old, away);
                            grid.relocate(h, away, old);
                        }
                    }
                    (Some(old), 1) => {
                        // A nudge that mostly stays inside the 10 m cell.
                        let new = Point::new(
                            old.x + rng.gen_range(-1.0f64..1.0),
                            old.y + rng.gen_range(-1.0f64..1.0),
                        );
                        grid.relocate(h, old, new);
                        shadow[h] = Some(new);
                    }
                    (Some(old), _) => {
                        let new = anywhere(&mut rng);
                        grid.relocate(h, old, new);
                        shadow[h] = Some(new);
                    }
                }
                assert_eq!(grid.len(), shadow.iter().flatten().count());
                grid.for_each_cell(|_, members| assert!(members.is_sorted(), "cells stay ascending"));

                let center = anywhere(&mut rng);
                let radius = rng.gen_range(0.0f64..30.0);
                hits.clear();
                grid.disk_into(center, radius, &mut hits);
                let brute: Vec<(usize, f64)> = shadow
                    .iter()
                    .enumerate()
                    .filter_map(|(h, p)| p.map(|p| (h, center.distance(p))))
                    .filter(|&(_, d)| d <= radius)
                    .collect();
                assert_eq!(hits.len(), brute.len());
                for (got, want) in hits.iter().zip(&brute) {
                    assert_eq!(got.0, want.0, "ids ascending, none missing");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "distance of {}", got.0);
                }
            }
        }
    }

    /// Handles of one, two and three significant bytes, and three-byte
    /// handles that share their top byte: the radix pass count, the
    /// skipped byte and the copy back after an odd number of passes.
    #[test]
    fn disk_query_orders_wide_handles() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(3);
        for (lo, hi) in [(0usize, 200usize), (0, 60_000), (0, 1 << 24), (5 << 16, 6 << 16)] {
            let mut grid = SpatialGrid::new(10.0);
            let mut all = Vec::new();
            for _ in 0..300 {
                let h = rng.gen_range(lo..hi);
                let p = Point::new(rng.gen_range(-25.0..25.0), rng.gen_range(-25.0..25.0));
                if all.iter().all(|&(o, _)| o != h) {
                    grid.insert(h, p);
                    all.push((h, p));
                }
            }
            let mut hits = vec![(usize::MAX, -1.0)];
            grid.disk_into(Point::ORIGIN, 30.0, &mut hits);
            let mut want: Vec<(usize, f64)> = all
                .iter()
                .map(|&(h, p)| (h, Point::ORIGIN.distance(p)))
                .filter(|&(_, d)| d <= 30.0)
                .collect();
            want.sort_unstable_by_key(|&(h, _)| h);
            assert_eq!(hits[0], (usize::MAX, -1.0), "what was in the buffer stays");
            assert_eq!(hits[1..], want[..], "handles in {lo}..{hi}");
        }
    }

    #[test]
    fn disk_query_appends_after_existing_entries() {
        let mut g = SpatialGrid::new(10.0);
        g.insert(7, Point::new(1.0, 0.0));
        g.insert(3, Point::new(-12.0, 0.0));
        let mut out = vec![(99, -1.0)];
        g.disk_into(Point::ORIGIN, 20.0, &mut out);
        assert_eq!(out, vec![(99, -1.0), (3, 12.0), (7, 1.0)]);
    }
}
