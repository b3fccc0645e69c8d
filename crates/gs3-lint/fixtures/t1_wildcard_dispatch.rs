// pretend: crates/gs3-core/src/intra.rs
// T1: catch-all arms in protocol dispatch — a `_` wildcard and a bare
// binding both hide a new variant from rustc's exhaustiveness check.
fn on_message(&mut self, msg: Msg) {
    match msg {
        Msg::Ping(n) => self.on_ping(n),
        _ => {}
    }
}

fn on_timer(&mut self, t: Timer) {
    match t {
        Timer::Tick => self.on_tick(),
        other => self.defer(other),
    }
}

fn send_all(&mut self, ctx: &mut Ctx) {
    // Constructions keeping t3 quiet: this fixture is about t1.
    ctx.emit(Msg::Ping(1));
    ctx.set_timer(1, Timer::Tick);
}
