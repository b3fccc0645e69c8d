// pretend: crates/gs3-core/src/handlers.rs
// T3: Msg::Stop and Timer::Retry are dispatched but never constructed —
// dead protocol arms.
fn on_message(&mut self, msg: Msg, ctx: &mut Ctx) {
    match msg {
        Msg::Ping(n) => ctx.reply(Msg::Ping(n)),
        Msg::Data { x } => self.absorb(x),
        Msg::Stop => self.halt(),
    }
}

fn on_timer(&mut self, t: Timer, ctx: &mut Ctx) {
    match t {
        Timer::Tick => ctx.set_timer(1, Timer::Tick),
        Timer::Retry { n } => self.retry(n),
    }
}

fn announce(&mut self, ctx: &mut Ctx) {
    ctx.emit(Msg::Data { x: 0.5 });
}
