//! Violation traces and their conversion-ready form.

use gs3_core::chaos::{write_fate_fields, FaultPlan};
use gs3_core::json::{self, JsonWriter};
use gs3_sim::faults::Fate;

use crate::properties::Property;

/// One branching decision along a search path.
///
/// A path is a sequence of choices applied to the scenario's converged
/// root state; replaying the same sequence reproduces the same final
/// state bit-for-bit (the simulation is deterministic once fates are
/// scripted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Execute the next pending engine event with no interference.
    Step,
    /// Execute the next pending engine event with one delivery attempt
    /// scripted. `offset` is *relative*: the attempt scripted is the one
    /// whose global index is `attempt_count() + offset` at the moment
    /// this choice is applied. Relative encoding keeps a trace valid
    /// when minimization removes earlier choices (absolute indices
    /// would shift).
    Fate {
        /// Attempt-index offset from the live attempt counter.
        offset: u64,
        /// What happens to that attempt.
        fate: Fate,
    },
    /// Crash a node (no engine event is consumed; the crash happens at
    /// the current simulation instant, strictly before the next event).
    Crash {
        /// Raw id of the victim.
        id: u64,
    },
    /// Run deterministically to the horizon. Always the last choice of a
    /// complete path.
    Run,
}

impl Choice {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| match self {
            Choice::Step => {
                w.key("kind").str("step");
            }
            Choice::Fate { offset, fate } => {
                w.key("kind").str("fate");
                w.key("offset").u64(*offset);
                write_fate_fields(w, *fate);
            }
            Choice::Crash { id } => {
                w.key("kind").str("crash");
                w.key("id").u64(*id);
            }
            Choice::Run => {
                w.key("kind").str("run");
            }
        });
    }
}

/// Serialize a choice trace, run-length-encoding `Step` runs (a
/// minimized trace is typically hundreds of steps, one fault, `Run`):
/// `{"kind":"steps","n":360}`.
fn write_choices_json(w: &mut JsonWriter<'_>, choices: &[Choice]) {
    w.array(|w| {
        let mut i = 0;
        while i < choices.len() {
            let n = choices[i..].iter().take_while(|c| matches!(c, Choice::Step)).count();
            if n > 1 {
                w.object(|w| {
                    w.key("kind").str("steps");
                    w.key("n").u64(n as u64);
                });
                i += n;
            } else {
                choices[i].write_json(w);
                i += 1;
            }
        }
    });
}

/// A minimized, replayable property violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated property.
    pub property: Property,
    /// Human-readable specifics of the violation.
    pub detail: String,
    /// Scenario the trace starts from (by stable name).
    pub scenario: String,
    /// Scenario seed (duplicated here so the file is self-describing).
    pub seed: u64,
    /// The minimized choice trace, for the checker's own replay.
    pub choices: Vec<Choice>,
    /// The same trace as a standalone fault plan: replays through the
    /// chaos harness with no model checker involved.
    pub plan: FaultPlan,
}

impl Counterexample {
    /// Serialize to the counterexample file format: a self-describing
    /// JSON object whose `plan` field is a verbatim [`FaultPlan`]
    /// document (loadable on its own by `FaultPlan::from_json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(|w| self.write_json(w))
    }

    /// Writes the [`Counterexample::to_json`] object in place.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.key("version").u64(1);
            w.key("scenario").str(&self.scenario);
            w.key("seed").u64(self.seed);
            w.key("property").str(self.property.name());
            w.key("detail").str(&self.detail);
            write_choices_json(w.key("choices"), &self.choices);
            self.plan.write_json(w.key("plan"));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs3_sim::SimDuration;

    #[test]
    fn counterexample_json_is_self_describing() {
        let ce = Counterexample {
            property: Property::HealingConverges,
            detail: "head 3 \"lost\"".into(),
            scenario: "pair5".into(),
            seed: 11,
            choices: vec![
                Choice::Step,
                Choice::Step,
                Choice::Step,
                Choice::Fate { offset: 2, fate: Fate::Drop },
                Choice::Step,
                Choice::Fate { offset: 0, fate: Fate::Delay(SimDuration::from_millis(800)) },
                Choice::Crash { id: 4 },
                Choice::Run,
            ],
            plan: FaultPlan::new(),
        };
        let json = ce.to_json();
        // Golden captured before the move onto `JsonWriter`.
        assert_eq!(
            json,
            r#"{"version":1,"scenario":"pair5","seed":11,"property":"healing_converges","detail":"head 3 \"lost\"","choices":[{"kind":"steps","n":3},{"kind":"fate","offset":2,"fate":"drop"},{"kind":"step"},{"kind":"fate","offset":0,"fate":"delay","delay_us":800000},{"kind":"crash","id":4},{"kind":"run"}],"plan":{"version":1,"events":[]}}"#
        );
        // The embedded plan is itself a valid FaultPlan document.
        let doc = json::parse(&json).expect("the whole file parses as JSON");
        assert_eq!(FaultPlan::from_value(doc.get("plan").unwrap()), Ok(FaultPlan::new()));
    }
}
