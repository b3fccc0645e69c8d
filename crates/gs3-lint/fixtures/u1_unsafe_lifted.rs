// pretend: crates/gs3-core/src/lib.rs
// U1 red: a crate root that only denies `unsafe_code` (the forbid is
// missing, reported at line 1), and lifts of the lint off gs3-sim's hint.
#![deny(unsafe_code)]
#![allow(unsafe_code)] // crate-wide

#[allow(unsafe_code)]
fn prefetch<T>(value: &T) {} // the right name in the wrong crate

#[inline]
#[allow(dead_code, unsafe_code)]
pub(crate) fn peek(raw: *const u8) -> u8 {
    unsafe { *raw }
}

#[cfg_attr(test, expect(unsafe_code))]
mod raw {}

#[allow(dead_code)] // other lints are not this rule's business
fn unused() {}
