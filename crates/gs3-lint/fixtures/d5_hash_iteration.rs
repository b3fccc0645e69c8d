// pretend: crates/gs3-core/src/invariants.rs
// D5: every spatial-grid cell visit is reported; an allow records why its
// consumer does not depend on the hash order cells arrive in.
fn digest(grid: &SpatialGrid, d: &mut Digest) {
    grid.for_each_cell(|key, members| d.push(key, members.len()));
}

fn population(grid: &SpatialGrid) -> usize {
    let mut n = 0;
    // gs3-lint: allow(d5) -- a sum is order-independent
    grid.for_each_cell(|_, members| n += members.len());
    n
}

#[cfg(test)]
mod tests {
    #[test]
    fn visits_every_cell() {
        grid().for_each_cell(|_, _| {}); // test code: exempt
    }
}
