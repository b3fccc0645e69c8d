// pretend: crates/gs3-sim/src/engine/send.rs
// A1: heap indirection, keyed lookups and ambient globals in the hot path.
use std::collections::BTreeMap;

struct Slots {
    nodes: Vec<Box<Node>>,
    timers: BTreeMap<u32, u64>,
    owner: Rc<CellRec>,
    cache: HashMap<u32, u64>, // d1 only: hash containers in gs3-sim are d1's
}

static SENT: u64 = 0;
thread_local!(static SCRATCH: Vec<u8> = Vec::new());

fn f() -> &'static str {
    let shared = Rc::new(Slots::default());
    let dense: Vec<u64> = Vec::new(); // dense columns are the point: fine
    let _ = (shared, dense);
    "a lifetime is not a static item"
}
