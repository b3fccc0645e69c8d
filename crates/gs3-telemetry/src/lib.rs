//! # gs3-telemetry
//!
//! Deterministic observability layer for the GS³ reproduction: a bounded
//! flight recorder for structured simulation events, causal *healing
//! episode* tracking that attributes messages / latency / spatial radius
//! to individual injected perturbations (the empirical counterpart of the
//! paper's locality theorems 8–13), a log-bucketed histogram
//! ([`LogHistogram`]), exporters (JSONL, Chrome-trace/Perfetto), and — because
//! this is the workspace's zero-dependency leaf — the one JSON codec
//! ([`json`]) every report above it is written and read with.
//!
//! ## Determinism contract
//!
//! Everything in this crate is *pure observation*: recording an event or
//! tagging a message with an episode never draws randomness, never
//! schedules work, and never changes any simulation decision. The
//! engine's scheduled-delivery digest is bit-identical whether the
//! recorder runs in cheap [`RecorderMode::Counters`] mode (the always-on
//! default), full ring-buffer mode, or with episodes open — the workspace
//! asserts this in tests.
//!
//! All state lives in plain deterministic containers (`Vec`, `VecDeque`,
//! `BTreeMap`), so two runs of the same seed produce byte-identical
//! exports, at any thread count of the experiment runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod episode;
pub mod event;
pub mod export;
pub mod json;
pub mod label;
pub mod metrics;
pub mod recorder;

pub use episode::{
    pack_tag, tag_depth, tag_episode, Episode, EpisodeTracker, MAX_CAUSAL_DEPTH, NO_TAG,
};
pub use event::{Event, EventClass, NO_PEER};
pub use export::{export_chrome_trace, export_jsonl};
pub use label::Label;
pub use metrics::LogHistogram;
pub use recorder::{FlightRecorder, RecorderMode, Record};

/// The telemetry bundle a simulation engine embeds: flight recorder and
/// episode tracker, advanced together.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Structured event recorder (always-on counters, opt-in full ring).
    pub recorder: FlightRecorder,
    /// Causal healing-episode tracker.
    pub episodes: EpisodeTracker,
}

impl Telemetry {
    /// A fresh bundle: counters-only recording, no episodes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Escape a string for inclusion inside a JSON string literal
/// ([`json::escape_into`] into a fresh `String`).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json::escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_defaults_to_counters_mode() {
        let t = Telemetry::new();
        assert!(!t.recorder.is_recording());
        assert!(!t.episodes.any_open());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
