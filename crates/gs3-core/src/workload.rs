//! The sensing workload (data-aggregation traffic).
//!
//! The paper's lifetime analysis rests on "network traffic flows from
//! children to parents along the head graph until reaching the big node"
//! with in-network aggregation (§4.1, §2 footnote 2). This module supplies
//! exactly that, once: a scenario with a non-zero `report_period` runs the
//! convergecast data plane of `gs3-dataplane`, and there is no other
//! traffic model.
//!
//! Every period each associate unicasts a `sensor_report` carrying its
//! per-leaf sequence number (the head books gaps and duplicates per
//! associate); each head folds its cell's reports into a sequenced
//! [`BatchEntry`] on a bounded drop-oldest
//! [`AggQueue`](gs3_dataplane::AggQueue), and drains the queue up the head
//! tree as `data_batch` frames under credit-based backpressure (one credit
//! per frame in flight toward the parent, granted back as `data_credit`
//! when the parent dequeues or the sink consumes). Draining is
//! event-driven: it runs on the periodic tick, after every relayed-batch
//! enqueue, and on every credit return — so relay throughput is bounded
//! by the credit window per round-trip, not per tick (a per-tick drain
//! would cap the convergecast funnel at `credit_window / report_period`
//! and drop most of the outer rings' traffic). A starved head doubles its
//! tick period — backpressure propagating toward the leaves — and the big
//! node books every delivery in a [`SinkLedger`](gs3_dataplane::SinkLedger)
//! with end-to-end latency and `(origin, seq)` dedup. Quarantine composes
//! for free: a quarantined head keeps enqueueing but stops draining, so
//! the queue *is* the quarantine buffer, and re-attachment replays it
//! through the ordinary credit-gated path.
//!
//! The energy model charges heads for all relaying — the head-dominated
//! dissipation gradient that head shift and cell shift are designed
//! around, and (with the idle term) what drives nodes to actual death in
//! lifetime studies.

use gs3_dataplane::{BatchEntry, DataplaneConfig, Enqueue};
use gs3_sim::{NodeId, SimTime};

use crate::messages::{DataItem, Msg};
use crate::node::{Ctx, Gs3Node};
use crate::state::{DataState, Role};
use crate::timers::Timer;

impl Gs3Node {
    /// Arms the workload tick at boot when the scenario has traffic.
    pub(crate) fn arm_report_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.report_period.is_zero() {
            return;
        }
        let jitter = self.phase_jitter(ctx, self.cfg.report_period);
        ctx.set_timer(self.cfg.report_period + jitter, Timer::ReportTick);
    }

    /// The periodic workload tick.
    pub(crate) fn on_report_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.report_period.is_zero() {
            return;
        }
        self.cong_observe(ctx);
        let mut period = self.cong_stretch(self.cfg.report_period);
        match &mut self.role {
            Role::Associate(a) if !a.surrogate => {
                self.data.leaf_seq += 1;
                ctx.count("data_reports_produced");
                ctx.unicast(a.head, Msg::SensorReport { seq: self.data.leaf_seq });
            }
            Role::Head(h) => {
                // Fold the cell's accumulation (plus this cell's own
                // observation) into one sequenced batch, then drain the
                // queue upstream under the credit window.
                let me = ctx.id();
                let dp = self.cfg.dataplane;
                let count = h.pending_reports.saturating_add(1);
                h.pending_reports = 0;
                ctx.count("data_reports_produced");
                let born = self.data.accum_born.take().unwrap_or(ctx.now());
                self.data.next_seq += 1;
                let entry =
                    BatchEntry { from: me, origin: me, seq: self.data.next_seq, count, born };
                if self.is_big {
                    // The root is its own sink: consume directly.
                    let latency = ctx.now().saturating_since(born).as_micros();
                    let ledger = self.data.ledger.get_or_insert_with(Default::default);
                    if ledger.consume(me, entry.seq, count, latency) {
                        ctx.count("data_batches_delivered");
                        ctx.count_by("data_reports_delivered", u64::from(count));
                    }
                } else {
                    Self::data_enqueue(&mut self.data, entry, dp.queue_capacity, me, ctx);
                    let parent = h.parent;
                    if !h.quarantined
                        && parent != me
                        && Self::data_drain(&mut self.data, parent, dp, me, true, ctx)
                    {
                        // Starved: stretch the tick so production slows
                        // while the upstream path is saturated —
                        // backpressure reaching toward the leaves.
                        period = period * 2;
                    }
                }
            }
            _ => {}
        }
        ctx.set_timer(period, Timer::ReportTick);
    }

    /// Appends a batch to the head's aggregation queue, accounting the
    /// drop-oldest overflow (and returning the evicted batch's credit to
    /// the child it came from, so eviction never leaks flow-control
    /// capacity).
    fn data_enqueue(
        data: &mut DataState,
        entry: BatchEntry,
        capacity: usize,
        me: NodeId,
        ctx: &mut Ctx<'_>,
    ) {
        if let Enqueue::Evicted(old) = data.queue.push(entry, capacity.max(1)) {
            ctx.count("data_queue_drops");
            ctx.count_by("data_reports_dropped", u64::from(old.count));
            if old.from != me {
                ctx.unicast(old.from, Msg::DataCredit { grant: 1 });
            }
        }
    }

    /// Pops up to `mtu` queued batches into one `data_batch` frame to
    /// `parent`, then grants each relayed batch's credit back to the child
    /// it came from (one `data_credit` per child). Returns the reports
    /// the frame carries.
    fn send_frame(
        data: &mut DataState,
        parent: NodeId,
        mtu: usize,
        me: NodeId,
        ctx: &mut Ctx<'_>,
    ) -> u64 {
        let mut items = Vec::with_capacity(mtu.min(data.queue.len()));
        let mut credits: Vec<(NodeId, u32)> = Vec::new();
        let mut reports = 0u64;
        while items.len() < mtu {
            let Some(b) = data.queue.pop() else { break };
            reports += u64::from(b.count);
            items.push(DataItem {
                seq: b.seq,
                count: b.count,
                born_us: b.born.as_micros(),
                origin: b.origin,
            });
            if b.from != me {
                match credits.iter_mut().find(|(c, _)| *c == b.from) {
                    Some((_, g)) => *g += 1,
                    None => credits.push((b.from, 1)),
                }
            }
        }
        ctx.unicast(parent, Msg::DataBatch { items });
        for (child, grant) in credits {
            ctx.unicast(child, Msg::DataCredit { grant });
        }
        reports
    }

    /// Drains the head's queue toward `parent` while credits last.
    /// Returns true when the head ends the drain starved (work queued, no
    /// credits). `tick` distinguishes the periodic drain from the
    /// event-driven ones (batch arrival, credit return):
    ///
    /// * Only the tick runs the stall-recovery escape hatch — event
    ///   drains fire far more often under load, and letting them advance
    ///   the starvation counter would turn the escape hatch into a
    ///   bypass of genuine backpressure.
    /// * Only the tick sends partial frames — event drains forward full
    ///   frames only, so each arrival doesn't immediately leave as a
    ///   one-item frame (which would defeat aggregation entirely and
    ///   burn the inner rings' transmit budget one frame per upstream
    ///   cell per period). The cost is a store-and-forward aggregation
    ///   delay bounded by one report period per hop.
    fn data_drain(
        data: &mut DataState,
        parent: NodeId,
        dp: DataplaneConfig,
        me: NodeId,
        tick: bool,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        // A re-parent since the last drain invalidates the old window.
        if data.gate_parent != Some(parent) {
            data.gate.reset(dp.credit_window);
            data.gate_parent = Some(parent);
        }
        // One credit buys one frame; a frame aggregates up to the MTU's
        // worth of queued sub-batches (in-network aggregation — this,
        // not the queue bound, is what keeps the inner rings' transmit
        // budget sublinear in the number of upstream cells).
        let mtu = dp.max_frame_items.max(1);
        while (if tick { !data.queue.is_empty() } else { data.queue.len() >= mtu })
            && data.gate.try_consume()
        {
            Self::send_frame(data, parent, mtu, me, ctx);
        }
        let starved = !data.queue.is_empty();
        if tick && data.gate.note_tick(starved, dp.stall_recovery_ticks) {
            ctx.count("data_credit_recovered");
        }
        starved
    }

    /// Flushes a stepping-down head's buffered workload upstream before
    /// the role transition destroys its head state. Without this, every
    /// `replacing_head` / cell abandonment / retreat silently dropped the
    /// reports aggregated since the last tick (plus anything parked in the
    /// aggregation queue) — data loss invisible to the delivery counters.
    /// Whatever accumulated becomes one last batch, then the whole queue
    /// goes upstream ignoring credits — a dying head's window is moot,
    /// and the sink's `(origin, seq)` dedup keeps replays harmless.
    pub(crate) fn flush_pending_reports(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.report_period.is_zero() {
            return;
        }
        let Role::Head(h) = &mut self.role else {
            return;
        };
        let me = ctx.id();
        let parent = h.parent;
        let count = h.pending_reports;
        h.pending_reports = 0;
        if count > 0 {
            let born = self.data.accum_born.take().unwrap_or(ctx.now());
            self.data.next_seq += 1;
            let entry =
                BatchEntry { from: me, origin: me, seq: self.data.next_seq, count, born };
            Self::data_enqueue(&mut self.data, entry, self.cfg.dataplane.queue_capacity, me, ctx);
        }
        self.data.accum_born = None;
        if parent == me {
            // A root (big node or proxy) has no upstream; whatever is
            // still queued is lost with the role.
            let lost = self.data.queue.queued_reports();
            if lost > 0 {
                ctx.count("data_queue_drops");
                ctx.count_by("data_reports_dropped", lost);
            }
            self.data.queue.clear();
            return;
        }
        let mut flushed = 0u64;
        let mtu = self.cfg.dataplane.max_frame_items.max(1);
        while !self.data.queue.is_empty() {
            flushed += Self::send_frame(&mut self.data, parent, mtu, me, ctx);
        }
        if flushed > 0 {
            ctx.count("reports_flushed");
            ctx.event("reports_flushed", flushed);
        }
    }

    /// `sensor_report` received.
    pub(crate) fn on_sensor_report(&mut self, from: NodeId, seq: u64, ctx: &mut Ctx<'_>) {
        match &mut self.role {
            // A demoted head keeps receiving its old members' reports
            // until the successor announcement lands. Pass them along to
            // the cell's current head (re-sequenced as 0 — the per-leaf
            // provenance chain doesn't survive the detour, but the report
            // does).
            Role::Associate(a) if a.head != ctx.id() && a.head != from => {
                ctx.count("data_reports_rerouted");
                ctx.unicast(a.head, Msg::SensorReport { seq: 0 });
            }
            Role::Head(h) => {
                h.pending_reports = h.pending_reports.saturating_add(1);
                if self.data.accum_born.is_none() {
                    self.data.accum_born = Some(ctx.now());
                }
                if seq == 0 {
                    return;
                }
                if let Some(info) = h.associates.get_mut(&from) {
                    if seq <= info.last_report_seq {
                        ctx.count("data_leaf_dups");
                    } else {
                        if info.last_report_seq != 0 {
                            // A fresh association starts at 0; gaps
                            // only count against a seen baseline.
                            ctx.count_by("data_leaf_gaps", seq - info.last_report_seq - 1);
                        }
                        info.last_report_seq = seq;
                    }
                }
            }
            _ => {}
        }
    }

    /// `data_batch` frame received: the sink consumes every sub-batch, a
    /// relay head queues them (then drains immediately, credits
    /// allowing), anything else is a misroute (stale parent pointer)
    /// whose reports are lost but whose credit is returned.
    pub(crate) fn on_data_batch(&mut self, from: NodeId, items: Vec<DataItem>, ctx: &mut Ctx<'_>) {
        let me = ctx.id();
        if !matches!(self.role, Role::Head(_)) {
            // Stale parent pointers are endemic under head shift: the
            // sender's parent has stepped down since its last heartbeat.
            // But a demoted head is still a cell member and knows the
            // successor — one bonus hop saves the frame. Only a node
            // with no head to offer (or a would-be routing loop) drops.
            if let Role::Associate(a) = &self.role {
                if a.head != me && a.head != from {
                    ctx.count_by("data_batches_rerouted", items.len() as u64);
                    ctx.unicast(a.head, Msg::DataBatch { items });
                    ctx.unicast(from, Msg::DataCredit { grant: 1 });
                    return;
                }
            }
            ctx.count_by("data_batches_misrouted", items.len() as u64);
            ctx.count_by(
                "data_reports_lost_misroute",
                items.iter().map(|i| u64::from(i.count)).sum(),
            );
            ctx.unicast(from, Msg::DataCredit { grant: 1 });
            return;
        }
        if self.is_big {
            let now_us = ctx.now().as_micros();
            let ledger = self.data.ledger.get_or_insert_with(Default::default);
            for item in &items {
                let latency = now_us.saturating_sub(item.born_us);
                if ledger.consume(item.origin, item.seq, item.count, latency) {
                    ctx.count("data_batches_delivered");
                    ctx.count_by("data_reports_delivered", u64::from(item.count));
                }
            }
            ctx.unicast(from, Msg::DataCredit { grant: 1 });
        } else {
            for item in items {
                let entry = BatchEntry {
                    from,
                    origin: item.origin,
                    seq: item.seq,
                    count: item.count,
                    born: SimTime::from_micros(item.born_us),
                };
                Self::data_enqueue(
                    &mut self.data,
                    entry,
                    self.cfg.dataplane.queue_capacity,
                    me,
                    ctx,
                );
            }
            // Forward as soon as credits allow: relay throughput must
            // track batch arrival, not the report tick, or the inner
            // rings of the convergecast funnel cap out at one window per
            // period and drop-oldest eats the outer rings' traffic.
            if let Role::Head(h) = &self.role {
                let (parent, quarantined) = (h.parent, h.quarantined);
                if !quarantined && parent != me {
                    let _ =
                        Self::data_drain(&mut self.data, parent, self.cfg.dataplane, me, false, ctx);
                }
            }
        }
    }

    /// `data_credit` received by a head from its current parent.
    pub(crate) fn on_data_credit(&mut self, from: NodeId, grant: u32, ctx: &mut Ctx<'_>) {
        if let Role::Head(h) = &self.role {
            // Credits from a former parent (or any non-parent) are void —
            // the gate resets to a full window on re-parent anyway.
            if h.parent == from && self.data.gate_parent == Some(from) {
                self.data.gate.grant(grant, self.cfg.dataplane.credit_window);
                // A returned credit is drain opportunity: keep the
                // pipeline moving instead of waiting for the next tick.
                let (parent, quarantined) = (h.parent, h.quarantined);
                if !quarantined {
                    let me = ctx.id();
                    let _ =
                        Self::data_drain(&mut self.data, parent, self.cfg.dataplane, me, false, ctx);
                }
            }
        }
    }

    /// Batches waiting in this node's aggregation queue (what a
    /// quarantined head is holding back).
    #[must_use]
    pub fn queued_batches(&self) -> usize {
        self.data.queue.len()
    }

    /// The sink-side delivery ledger (big node only; None until the first
    /// delivery, so always None in a run with no traffic).
    #[must_use]
    pub fn sink_ledger(&self) -> Option<&gs3_dataplane::SinkLedger> {
        self.data.ledger.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use gs3_sim::SimDuration;

    use crate::config::{Gs3Config, Mode, ReliabilityConfig};
    use crate::harness::NetworkBuilder;
    use crate::state::Role;

    /// Area 250 with R=100 puts a full ring of small-head cells around
    /// the big node, so batches actually travel the wire.
    fn field(seed: u64) -> NetworkBuilder {
        NetworkBuilder::new().area_radius(250.0).expected_nodes(400).seed(seed)
    }

    #[test]
    fn dataplane_delivers_reports_to_sink() {
        let mut net = field(5).traffic(SimDuration::from_millis(500)).build().unwrap();
        net.run_for(SimDuration::from_secs(90));
        let ledger = net.sink_ledger().expect("sink consumed batches");
        assert!(ledger.batches > 50, "batches: {}", ledger.batches);
        assert!(ledger.reports > 500, "reports: {}", ledger.reports);
        assert_eq!(ledger.latency_us.count(), ledger.batches, "one latency sample per batch");
        let trace = net.engine().trace();
        let produced = trace.proto("data_reports_produced");
        let delivered = trace.proto("data_reports_delivered");
        assert_eq!(delivered, ledger.reports, "counter and ledger agree");
        assert!(delivered <= produced, "conservation: {delivered} > {produced}");
        assert!(trace.sent_of_kind("data_batch") > 0);
        assert!(trace.sent_of_kind("data_credit") > 0, "credits flow back");
    }

    #[test]
    fn no_traffic_is_counter_and_wire_inert() {
        let mut net = field(5).build().unwrap();
        net.run_for(SimDuration::from_secs(60));
        let trace = net.engine().trace();
        for kind in ["sensor_report", "data_batch", "data_credit"] {
            assert_eq!(trace.sent_of_kind(kind), 0, "{kind} sent without .traffic()");
        }
        let data_counters: Vec<_> =
            trace.named().filter(|(name, _)| name.starts_with("data_")).collect();
        assert!(data_counters.is_empty(), "data_* counters bumped: {data_counters:?}");
        assert!(net.sink_ledger().is_none());
    }

    #[test]
    fn quarantine_replay_drains_under_credits_without_double_count() {
        let mut cfg = Gs3Config::new(100.0, 15.0).unwrap().with_mode(Mode::Dynamic);
        cfg.report_period = SimDuration::from_millis(500);
        // A long inter-cell beat keeps the hand-made partition below open
        // long enough for a real backlog to form.
        cfg.inter_heartbeat = SimDuration::from_secs(30);
        cfg.reliability = ReliabilityConfig::on();
        let mut net = NetworkBuilder::new()
            .area_radius(250.0)
            .expected_nodes(400)
            .seed(11)
            .config(cfg)
            .build()
            .unwrap();
        net.run_for(SimDuration::from_secs(40));
        let before = net.sink_ledger().map(|l| l.reports).unwrap_or(0);
        assert!(before > 0, "sink active before the partition");
        // Pick an operating small head and quarantine it by hand (the
        // organic entry path — parent death with no reachable replacement
        // — needs contrived geometry; replay is the same either way).
        let victim = net
            .engine()
            .ids()
            .find(|&id| {
                let n = net.engine().node(id).unwrap();
                !n.is_big()
                    && net.engine().is_alive(id).unwrap()
                    && matches!(&n.role, Role::Head(h) if h.parent != id)
            })
            .expect("an operating small head");
        match &mut net.engine_mut().node_mut(victim).unwrap().role {
            Role::Head(h) => h.quarantined = true,
            _ => unreachable!("victim was just seen as a head"),
        }
        net.run_for(SimDuration::from_secs(6));
        {
            let n = net.engine().node(victim).unwrap();
            let Role::Head(h) = &n.role else { panic!("victim kept head role") };
            assert!(h.quarantined, "no parent beat within the window (seeded)");
            assert!(!n.data.queue.is_empty(), "backlog accumulated while partitioned");
        }
        // The alive parent's next inter-cell beat re-attaches the head;
        // the backlog then replays through the ordinary credit-gated
        // drain, one window's worth per report tick.
        net.run_for(SimDuration::from_secs(60));
        let backlog = {
            let n = net.engine().node(victim).unwrap();
            let Role::Head(h) = &n.role else { panic!("victim kept head role") };
            assert!(!h.quarantined, "parent beat must re-attach");
            n.data.queue.len()
        };
        assert!(backlog <= 1, "backlog drained after re-attach: {backlog}");
        let ledger = net.sink_ledger().unwrap();
        assert!(ledger.reports > before, "replayed reports reached the sink");
        assert_eq!(ledger.duplicate_batches, 0, "no double-counting at the sink");
        let trace = net.engine().trace();
        assert!(
            trace.proto("data_reports_delivered") <= trace.proto("data_reports_produced"),
            "conservation holds across the quarantine episode"
        );
    }
}
