// pretend: crates/gs3-sim/src/lib.rs
// U1 green: gs3-sim's root denies `unsafe_code`, and its one lift sits on
// `fn prefetch`, past other attributes.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[inline(always)]
#[allow(unsafe_code)]
fn prefetch<T>(value: *const T) {
    // SAFETY: a prefetch never faults and changes no state.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(value.cast()) };
}
