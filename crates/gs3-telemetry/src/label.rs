//! Labels by id: every per-event name — a message kind, a protocol
//! counter, a flight-recorder label — gets a dense `u16` id, a [`Label`],
//! the first time it is used, so hot paths count and store by index and
//! only reports turn ids back into names.
//!
//! There is one table, process-wide: an id means the same name in every
//! engine, trace and recorder of the process, on every thread. It maps a
//! name to its id by content and an id to its name, behind a mutex. In
//! front of it each thread keeps a cache keyed by the string's address
//! and length, where a hit is one probe and takes no lock. The cache
//! remembers every address it has seen, not one per name: one literal can
//! reach a call site at several addresses (each codegen unit may hold its
//! own copy), so keying the table on address alone would miss, and fall
//! back to the by-content lookup, again and again.
//!
//! Ids follow first use, which differs between processes and between
//! thread interleavings. Nothing is reported by id: every view is built by
//! name, so which id a name got changes no output.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// The dense id of a `&'static str` label. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u16);

impl Label {
    /// The id of `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics past 65 536 distinct labels in one process.
    #[inline]
    #[must_use]
    pub fn of(name: &'static str) -> Label {
        let (addr, len) = key(name);
        CACHE.with(|cache| {
            let mut i = home(addr, len);
            loop {
                let slot = cache[i].get();
                if slot.addr == addr && slot.len == len {
                    return slot.id;
                }
                if slot.addr == 0 {
                    return miss(cache, i, name);
                }
                i = (i + 1) % SLOTS;
            }
        })
    }

    /// The id `name` has, if it has been used: a by-content lookup, for
    /// reports that ask by a borrowed name.
    #[must_use]
    pub fn find(name: &str) -> Option<Label> {
        table().ids.get(name).copied()
    }

    /// The label whose [`Self::index`] is `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` exceeds `u16::MAX`; [`Self::name`] panics on an
    /// index no label has.
    #[must_use]
    pub fn from_index(index: usize) -> Label {
        Label(u16::try_from(index).expect("a label index fits a u16"))
    }

    /// The label's name, from a per-thread copy of the table's names,
    /// refilled when it does not reach this id yet.
    #[inline]
    #[must_use]
    pub fn name(self) -> &'static str {
        NAMES.with_borrow_mut(|names| {
            if self.index() >= names.len() {
                names.extend_from_slice(&table().names[names.len()..]);
            }
            names[self.index()]
        })
    }

    /// The id as an index, for tables with a row per label.
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// [`Label::of`].
impl From<&'static str> for Label {
    #[inline]
    fn from(name: &'static str) -> Label {
        Label::of(name)
    }
}

/// The process-wide table.
struct Table {
    /// Names by id.
    names: Vec<&'static str>,
    /// Ids by name.
    ids: BTreeMap<&'static str, Label>,
}

static TABLE: Mutex<Table> = Mutex::new(Table { names: Vec::new(), ids: BTreeMap::new() });

/// The table, locked. It holds no invariant a panicking holder could
/// break halfway (a name is pushed and mapped with nothing between that
/// can panic), so a poisoned lock is taken over as is.
fn table() -> std::sync::MutexGuard<'static, Table> {
    TABLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cache slot: a string's address and length, and its id; a zero
/// address is a vacant slot (no `&str` points there).
#[derive(Clone, Copy)]
struct Slot {
    addr: usize,
    len: usize,
    id: Label,
}

/// A cache key: `name`'s address and length.
#[inline]
fn key(name: &str) -> (usize, usize) {
    (name.as_ptr() as usize, name.len())
}

/// Slots in a thread's address cache, 12 KiB. It takes new addresses
/// until three quarters full (a program's label literals fill a fraction
/// of that); past that, an address it does not hold is looked up by
/// content each time.
const SLOTS: usize = 512;

thread_local! {
    /// The address cache, open addressing with linear probing. Cells of
    /// plain `Copy` slots in a fixed array: no borrow flag to check and
    /// no destructor, so an access is an offset from the thread pointer.
    static CACHE: [Cell<Slot>; SLOTS] =
        const { [const { Cell::new(Slot { addr: 0, len: 0, id: Label(0) }) }; SLOTS] };
    /// Addresses the cache holds.
    static CACHED: Cell<usize> = const { Cell::new(0) };
    /// A prefix of the table's names, for [`Label::name`].
    static NAMES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The first slot to probe for `(addr, len)`: a Fibonacci hash of the
/// pair, taken from the product's top bits.
#[inline]
fn home(addr: usize, len: usize) -> usize {
    let h = (addr as u64 ^ (len as u64).rotate_right(16)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - SLOTS.trailing_zeros())) as usize
}

/// An address the cache does not hold, `vacant` the slot its probe ended
/// at: the by-content lookup, then the address takes the slot.
#[cold]
fn miss(cache: &[Cell<Slot>; SLOTS], vacant: usize, name: &'static str) -> Label {
    let id = {
        let mut t = table();
        match t.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = Label(u16::try_from(t.names.len()).expect("at most 65 536 distinct labels"));
                t.names.push(name);
                t.ids.insert(name, id);
                id
            }
        }
    };
    CACHED.with(|cached| {
        if cached.get() < SLOTS / 4 * 3 {
            cached.set(cached.get() + 1);
            let (addr, len) = key(name);
            cache[vacant].set(Slot { addr, len, id });
        }
    });
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_keeps_its_id_and_reads_back() {
        let a = Label::of("label_test_alpha");
        let b = Label::of("label_test_beta");
        assert_ne!(a, b);
        assert_eq!(Label::of("label_test_alpha"), a);
        assert_eq!((a.name(), b.name()), ("label_test_alpha", "label_test_beta"));
        assert_eq!(Label::find("label_test_beta"), Some(b));
        assert_eq!(Label::find("label_test_never_used"), None);
    }

    /// The same content at a second address — a leaked `String` — gets
    /// the id the first address got, and both addresses stay cached.
    #[test]
    fn a_label_at_a_second_address_gets_the_existing_id() {
        let first = Label::of("label_test_twice");
        let leaked: &'static str = String::from("label_test_twice").leak();
        assert_ne!(leaked.as_ptr(), "label_test_twice".as_ptr());
        assert_eq!(Label::of(leaked), first);
        assert_eq!(Label::of(leaked), first);
        assert_eq!(Label::of("label_test_twice"), first);
        assert_eq!(first.name(), "label_test_twice");
    }

    /// Prefixes share an address with the longer name; length tells them apart.
    #[test]
    fn a_prefix_at_the_same_address_is_its_own_label() {
        let long: &'static str = "label_test_prefix_and_more";
        let short = &long[..17];
        assert_eq!(short.as_ptr(), long.as_ptr());
        assert_ne!(Label::of(short), Label::of(long));
        assert_eq!(Label::of(short).name(), "label_test_prefix");
    }

    /// More addresses than the cache takes: every label keeps its id,
    /// cached or not, and another thread sees the same ids.
    #[test]
    fn ids_survive_a_full_cache_and_cross_threads() {
        let names: Vec<&'static str> =
            (0..SLOTS).map(|i| &*format!("label_test_many_{i}").leak()).collect();
        let ids: Vec<Label> = names.iter().map(|&n| Label::of(n)).collect();
        for (&n, &id) in names.iter().zip(&ids) {
            assert_eq!(Label::of(n), id);
            assert_eq!(id.name(), n);
        }
        let theirs = std::thread::scope(|s| {
            s.spawn(|| names.iter().rev().map(|&n| Label::of(n)).collect::<Vec<_>>()).join().unwrap()
        });
        assert!(theirs.into_iter().rev().eq(ids.iter().copied()));
    }
}
