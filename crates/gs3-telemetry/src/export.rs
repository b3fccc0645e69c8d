//! Flight-recorder exporters: JSONL event dump and Chrome-trace
//! (Perfetto-loadable) timeline.

use std::borrow::Borrow;

use crate::episode::Episode;
use crate::event::Event;
use crate::json::{self, JsonWriter};

/// Export events as JSON Lines: one event object per line. Takes events
/// by value (a recorder's [`crate::FlightRecorder::events`]) or by
/// reference.
#[must_use]
pub fn export_jsonl<E: Borrow<Event>>(events: impl Iterator<Item = E>) -> String {
    let mut out = String::new();
    for ev in events {
        ev.borrow().write_json(&mut JsonWriter::new(&mut out));
        out.push('\n');
    }
    out
}

/// Export a Chrome-trace / Perfetto JSON document.
///
/// Layout: every node gets a lane (`pid` 0, `tid` = node id) carrying
/// its events as instants (`"ph":"i"`); episodes render as duration
/// spans (`"ph":"X"`) on a separate process lane (`pid` 1, `tid` =
/// episode id) so they never collide with node 0's event lane. Open
/// episodes are drawn up to `end_us`. Events come by value or by
/// reference, as for [`export_jsonl`].
#[must_use]
pub fn export_chrome_trace<E: Borrow<Event>>(
    events: impl Iterator<Item = E>,
    episodes: &[Episode],
    end_us: u64,
) -> String {
    json::to_string(|w| {
        w.object(|w| {
            w.key("traceEvents").array(|w| {
                for ev in events {
                    let ev = ev.borrow();
                    w.object(|w| {
                        w.key("name").str(ev.kind);
                        w.key("ph").str("i");
                        w.key("s").str("t");
                        w.key("ts").u64(ev.t_us);
                        w.key("pid").u64(0);
                        w.key("tid").u64(ev.node);
                        w.key("cat").str(ev.class.name());
                        w.key("args").object(|w| ev.write_optional_fields(w));
                    });
                }
                for ep in episodes {
                    let close = ep.closed_us.unwrap_or(end_us).max(ep.opened_us);
                    w.object(|w| {
                        w.key("name").str(&format!("{}#{}", ep.label, ep.id));
                        w.key("ph").str("X");
                        w.key("ts").u64(ep.opened_us);
                        w.key("dur").u64(close - ep.opened_us);
                        w.key("pid").u64(1);
                        w.key("tid").u64(ep.id.into());
                        w.key("cat").str("episode");
                        w.key("args").object(|w| {
                            w.key("messages").u64(ep.messages);
                            w.key("deliveries").u64(ep.deliveries);
                            w.key("radius_m").fixed(ep.radius_m, 1);
                            w.key("max_depth").u64(ep.max_depth.into());
                            w.key("healed").bool(ep.closed_us.is_some());
                        });
                    });
                }
            });
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventClass, NO_PEER};

    fn events() -> [Event; 3] {
        let ev = |t_us, node, class, kind, peer, episode, data| Event {
            t_us,
            node,
            class,
            kind,
            peer,
            episode,
            data,
        };
        [
            ev(10, 3, EventClass::Delivery, "join_request", 5, 1, 7),
            ev(12, 4, EventClass::Protocol, "odd\"kind\\", NO_PEER, 0, 0),
            ev(15, 0, EventClass::MacDefer, "head_intra_alive", NO_PEER, 0, 640),
        ]
    }

    fn episode(closed_us: Option<u64>) -> Episode {
        Episode {
            id: 1,
            label: "crash_random",
            opened_us: 5,
            closed_us,
            origins: vec![(0.0, 0.0)],
            messages: 4,
            deliveries: 3,
            radius_m: 12.25,
            max_depth: 2,
            tainted: 6,
        }
    }

    // The literals below are goldens captured before the exporters moved
    // onto `JsonWriter`: the bytes are the contract.

    #[test]
    fn jsonl_golden() {
        assert_eq!(
            export_jsonl(events().iter()),
            "{\"t_us\":10,\"node\":3,\"class\":\"delivery\",\"kind\":\"join_request\",\"peer\":5,\"episode\":1,\"data\":7}\n\
             {\"t_us\":12,\"node\":4,\"class\":\"protocol\",\"kind\":\"odd\\\"kind\\\\\"}\n\
             {\"t_us\":15,\"node\":0,\"class\":\"mac_defer\",\"kind\":\"head_intra_alive\",\"data\":640}\n"
        );
    }

    #[test]
    fn chrome_trace_golden() {
        assert_eq!(
            export_chrome_trace(events().iter(), &[episode(Some(25))], 100),
            r#"{"traceEvents":[{"name":"join_request","ph":"i","s":"t","ts":10,"pid":0,"tid":3,"cat":"delivery","args":{"peer":5,"episode":1,"data":7}},{"name":"odd\"kind\\","ph":"i","s":"t","ts":12,"pid":0,"tid":4,"cat":"protocol","args":{}},{"name":"head_intra_alive","ph":"i","s":"t","ts":15,"pid":0,"tid":0,"cat":"mac_defer","args":{"data":640}},{"name":"crash_random#1","ph":"X","ts":5,"dur":20,"pid":1,"tid":1,"cat":"episode","args":{"messages":4,"deliveries":3,"radius_m":12.2,"max_depth":2,"healed":true}}]}"#
        );
    }

    #[test]
    fn open_episode_spans_to_end() {
        assert_eq!(
            export_chrome_trace(std::iter::empty::<Event>(), &[episode(None)], 90),
            r#"{"traceEvents":[{"name":"crash_random#1","ph":"X","ts":5,"dur":85,"pid":1,"tid":1,"cat":"episode","args":{"messages":4,"deliveries":3,"radius_m":12.2,"max_depth":2,"healed":false}}]}"#
        );
        assert_eq!(
            episode(None).to_json(),
            r#"{"id":1,"label":"crash_random","opened_us":5,"heal_latency_us":null,"messages":4,"deliveries":3,"radius_m":12.2,"max_depth":2,"tainted":6}"#
        );
    }
}
