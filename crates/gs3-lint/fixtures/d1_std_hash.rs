// pretend: crates/gs3-core/src/state.rs
// D1: hash containers, std or Fx, and std's default hasher, in a protocol path.
use std::collections::HashMap;
use std::collections::BTreeMap; // ordered: fine

fn f() {
    let m: HashMap<u32, u32> = HashMap::new();
    let fx: FxHashMap<u32, u32> = FxHashMap::default();
    let ok: BTreeMap<u32, u32> = BTreeMap::new();
    let sig = std::collections::hash_map::DefaultHasher::new();
    let _ = (m, fx, ok, sig);
}
