// pretend: crates/gs3-sim/src/engine/send.rs
// A1: heap indirection in the per-event hot path.
use std::collections::BTreeMap;

struct Slots {
    nodes: Vec<Box<Node>>,
    timers: BTreeMap<u32, u64>,
    owner: Rc<CellRec>,
    cache: HashMap<u32, u64>, // also d1: unordered std hash in gs3-sim
}

fn f() {
    let shared = Rc::new(Slots::default());
    let dense: Vec<u64> = Vec::new(); // dense columns are the point: fine
    let _ = (shared, dense);
}
