//! Shared-medium contention: airtime occupancy, carrier sense, collisions.
//!
//! The base [`crate::radio::RadioModel`] treats the channel as
//! interference-free: latency stands in for MAC arbitration and unicasts
//! never collide. This module models the medium itself. Every transmission
//! occupies the air for a *frame airtime* derived from the message's wire
//! size and the radio bitrate; a sender performs **carrier sense** before
//! transmitting and defers with seeded slotted exponential backoff while any
//! audible transmission is in progress; and a receiver scanning for
//! **collisions** corrupts any frame whose airtime window overlaps another
//! transmission audible at that receiver — which makes hidden-terminal
//! collisions (two senders out of range of each other, both audible at the
//! victim) fall out of the geometry with no extra machinery.
//!
//! Everything is deterministic and draws from the engine's single seeded
//! RNG only while enabled; a disabled [`ContentionConfig`] draws nothing,
//! schedules nothing, and counts nothing, so digests are bit-identical to a
//! build without the feature (the RNG-inertness bar the fault and
//! reliability layers set).

use std::collections::VecDeque;

use gs3_geometry::Point;

use crate::time::SimDuration;

/// How long a finished transmission is retained for collision scanning,
/// in microseconds. Deliveries referencing a transmission window fire at
/// most one radio latency plus one fault extra-delay after the window
/// opens; one second comfortably covers every committed scenario.
const RETENTION_US: u64 = 1_000_000;

/// Radio bitrate in bits per second; divides message wire size into frame
/// airtime (802.15.4-flavored: 250 kbit/s).
pub const BITRATE_BPS: u64 = 250_000;
/// Fixed per-frame overhead (preamble, MAC header, CRC), bits.
pub const FRAME_OVERHEAD_BITS: u64 = 128;
/// Backoff slot length. One deferral waits `1..=cw` whole slots.
pub const SLOT: SimDuration = SimDuration::from_micros(320);
/// Initial contention window, in slots (doubles per retry).
pub const CW_MIN: u32 = 4;
/// Contention-window cap, in slots.
pub const CW_MAX: u32 = 64;

const _: () = {
    assert!(BITRATE_BPS > 0, "bitrate must be positive");
    assert!(!SLOT.is_zero(), "backoff slot must be positive");
    assert!(CW_MIN > 0, "cw_min must be at least one slot");
    assert!(CW_MAX >= CW_MIN, "cw_max must be at least cw_min");
};

/// CSMA/collision parameters of the shared medium. Off by default. What a
/// scenario may vary is here; the radio's physical constants
/// ([`BITRATE_BPS`], [`FRAME_OVERHEAD_BITS`], [`SLOT`], [`CW_MIN`],
/// [`CW_MAX`]) are the module's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionConfig {
    /// Master switch. When false the engine skips every contention hook:
    /// no RNG draws, no extra events, no counters — bit-identical digests.
    pub enabled: bool,
    /// Retries before a frame is dropped as backoff-exhausted.
    pub max_backoffs: u32,
}

impl ContentionConfig {
    /// Contention off: the engine reproduces the ideal-medium behavior
    /// bit-for-bit.
    #[must_use]
    pub fn disabled() -> Self {
        ContentionConfig { enabled: false, ..ContentionConfig::on() }
    }

    /// Contention on, with up to 6 backoffs per frame.
    #[must_use]
    pub fn on() -> Self {
        ContentionConfig { enabled: true, max_backoffs: 6 }
    }

    /// Airtime of a frame carrying `wire_bits` payload bits, at
    /// [`BITRATE_BPS`] with [`FRAME_OVERHEAD_BITS`] of overhead. At least
    /// one microsecond.
    #[must_use]
    pub fn airtime(&self, wire_bits: u64) -> SimDuration {
        let bits = FRAME_OVERHEAD_BITS.saturating_add(wire_bits);
        let us = bits.saturating_mul(1_000_000).div_ceil(BITRATE_BPS);
        SimDuration::from_micros(us.max(1))
    }

    /// Contention window (slots) for retry number `attempt` (0-based):
    /// [`CW_MIN`] doubled per retry, capped at [`CW_MAX`].
    #[must_use]
    pub fn window(&self, attempt: u32) -> u32 {
        let doubled = u64::from(CW_MIN) << attempt.min(31);
        doubled.min(u64::from(CW_MAX)) as u32
    }
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig::disabled()
    }
}

/// The airtime window of one transmission, attached to every delivery it
/// schedules. `id == 0` means "no window" (contention disabled) and is
/// excluded from all determinism hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxWindow {
    /// Monotonic transmission id; 0 is the "none" sentinel.
    pub id: u64,
    /// Window open, absolute microseconds.
    pub start_us: u64,
    /// Window close (exclusive), absolute microseconds.
    pub end_us: u64,
}

impl TxWindow {
    /// The no-window sentinel carried by every delivery while contention
    /// is disabled.
    pub const NONE: TxWindow = TxWindow { id: 0, start_us: 0, end_us: 0 };

    /// True for the sentinel.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.id == 0
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tx {
    pub(crate) id: u64,
    pub(crate) start_us: u64,
    pub(crate) end_us: u64,
    pub(crate) origin: Point,
    pub(crate) range: f64,
}

/// Live medium occupancy: the recent transmissions, ordered by start time.
///
/// Scans walk backward from the newest record and stop as soon as a record
/// is too old to overlap the window of interest, so cost is proportional to
/// the number of *concurrent* transmissions, not retained history.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MediumState {
    pub(crate) txs: VecDeque<Tx>,
    pub(crate) next_id: u64,
    /// Largest airtime seen so far, µs — the backward-scan cutoff bound.
    pub(crate) max_airtime_us: u64,
}

impl MediumState {
    /// Whether any transmission audible at `pos` is on the air at `now_us`.
    /// Purely geometric — no RNG.
    pub(crate) fn busy(&self, now_us: u64, pos: Point) -> bool {
        for tx in self.txs.iter().rev() {
            if tx.start_us.saturating_add(self.max_airtime_us) <= now_us {
                break;
            }
            if tx.end_us > now_us && tx.origin.distance(pos) <= tx.range {
                return true;
            }
        }
        false
    }

    /// Registers a transmission opening at `now_us` and occupying the air
    /// for `airtime`, audible within `range` of `origin`. Prunes records
    /// too old for any future scan.
    pub(crate) fn begin(
        &mut self,
        now_us: u64,
        airtime: SimDuration,
        origin: Point,
        range: f64,
    ) -> TxWindow {
        while let Some(front) = self.txs.front() {
            if front.end_us.saturating_add(RETENTION_US) < now_us {
                self.txs.pop_front();
            } else {
                break;
            }
        }
        self.next_id += 1;
        let end_us = now_us.saturating_add(airtime.as_micros().max(1));
        self.max_airtime_us = self.max_airtime_us.max(end_us - now_us);
        self.txs.push_back(Tx { id: self.next_id, start_us: now_us, end_us, origin, range });
        TxWindow { id: self.next_id, start_us: now_us, end_us }
    }

    /// Whether the frame transmitted in `win` was corrupted at a receiver
    /// at `rx`: some *other* transmission overlaps the window and is
    /// audible there. Purely geometric — no RNG.
    pub(crate) fn collides(&self, win: TxWindow, rx: Point) -> bool {
        for tx in self.txs.iter().rev() {
            if tx.start_us.saturating_add(self.max_airtime_us) <= win.start_us {
                break;
            }
            if tx.id != win.id
                && tx.start_us < win.end_us
                && tx.end_us > win.start_us
                && tx.origin.distance(rx) <= tx.range
            {
                return true;
            }
        }
        false
    }

    /// Number of retained transmission records (test aid).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.txs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_scales_with_size_and_bitrate() {
        let cfg = ContentionConfig::on();
        // (128 + 512) bits at 250 kbit/s = 2560 µs.
        assert_eq!(cfg.airtime(512), SimDuration::from_micros(2560));
        assert!(cfg.airtime(2048) > cfg.airtime(512));
        // Rounded up to whole microseconds, and saturating, never zero.
        assert_eq!(cfg.airtime(1), SimDuration::from_micros(516));
        assert!(cfg.airtime(u64::MAX) > cfg.airtime(2048));
    }

    #[test]
    fn window_doubles_and_caps() {
        let cfg = ContentionConfig::on();
        assert_eq!(cfg.window(0), 4);
        assert_eq!(cfg.window(1), 8);
        assert_eq!(cfg.window(4), 64);
        assert_eq!(cfg.window(30), 64);
    }

    #[test]
    fn busy_respects_range_and_time() {
        let mut m = MediumState::default();
        let win = m.begin(1000, SimDuration::from_micros(500), Point::ORIGIN, 100.0);
        assert_eq!(win.start_us, 1000);
        assert_eq!(win.end_us, 1500);
        assert!(m.busy(1000, Point::new(50.0, 0.0)), "in range, during window");
        assert!(m.busy(1499, Point::new(100.0, 0.0)), "edge of range, last µs");
        assert!(!m.busy(1500, Point::new(50.0, 0.0)), "window closed");
        assert!(!m.busy(1200, Point::new(101.0, 0.0)), "out of range");
    }

    #[test]
    fn collision_needs_overlap_and_audibility() {
        let mut m = MediumState::default();
        let a = m.begin(0, SimDuration::from_micros(1000), Point::ORIGIN, 100.0);
        // b overlaps a in time, 150 m from the origin (hidden from a's
        // sender if ranges were 100) — classic hidden-terminal setup.
        let b = m.begin(500, SimDuration::from_micros(1000), Point::new(150.0, 0.0), 100.0);
        // A receiver midway hears both: both frames corrupt.
        let victim = Point::new(75.0, 0.0);
        assert!(m.collides(a, victim));
        assert!(m.collides(b, victim));
        // A receiver near a's sender but out of b's range hears only a.
        let safe = Point::new(-50.0, 0.0);
        assert!(!m.collides(a, safe));
        // A transmission never collides with itself.
        let mut lone = MediumState::default();
        let only = lone.begin(0, SimDuration::from_micros(1000), Point::ORIGIN, 100.0);
        assert!(!lone.collides(only, Point::new(10.0, 0.0)));
    }

    #[test]
    fn disjoint_windows_do_not_collide() {
        let mut m = MediumState::default();
        let a = m.begin(0, SimDuration::from_micros(400), Point::ORIGIN, 100.0);
        let b = m.begin(400, SimDuration::from_micros(400), Point::new(1.0, 0.0), 100.0);
        let rx = Point::new(10.0, 0.0);
        assert!(!m.collides(a, rx), "back-to-back frames are clean");
        assert!(!m.collides(b, rx));
    }

    #[test]
    fn old_records_are_pruned() {
        let mut m = MediumState::default();
        for i in 0..100 {
            let _ = m.begin(i * 10, SimDuration::from_micros(5), Point::ORIGIN, 10.0);
        }
        assert_eq!(m.len(), 100);
        let _ = m.begin(10_000_000, SimDuration::from_micros(5), Point::ORIGIN, 10.0);
        assert_eq!(m.len(), 1, "records past retention are dropped");
    }

    #[test]
    fn disabled_config_round_trips() {
        let off = ContentionConfig::disabled();
        assert!(!off.enabled);
        assert_eq!(ContentionConfig::default(), off);
        assert_eq!(ContentionConfig { enabled: true, ..off }, ContentionConfig::on());
    }
}
