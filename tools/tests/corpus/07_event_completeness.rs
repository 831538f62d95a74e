//@ file: crates/tcmalloc/src/events.rs
pub enum AllocEvent {
    Used { n: u64 },
    NeverBuilt { n: u64 }, //~ event-completeness
    // Built by the bus on the tier's behalf: the tier's call to the typed
    // entry point is the construction site.
    PerCpuHit { n: u64 },
    // Neither constructed nor reported through its entry point.
    FreeDone { n: u64 }, //~ event-completeness
}
//@ file: crates/tcmalloc/src/percpu.rs
pub struct Cache {
    x: u64,
}
impl Cache {
    pub fn silent(&mut self) { //~ event-completeness
        self.x += 1;
    }
    pub fn emitting(&mut self, bus: &mut EventBus) {
        self.x += 1;
        bus.emit(AllocEvent::Used { n: self.x });
    }
    pub fn delegating(&mut self, bus: &mut EventBus) {
        self.emitting(bus);
    }
    pub fn reporting(&mut self, bus: &mut EventBus) {
        self.x -= 1;
        bus.percpu_hit(0, 3);
    }
    pub fn read_only(&self) -> u64 {
        self.x
    }
    fn private_mutator(&mut self) {
        self.x -= 1;
    }
    // lint:allow(event-completeness) index maintenance; the caller emits
    pub fn justified(&mut self) {
        self.x = 0;
    }
}
// A production reader for every pub fn above (test-only-pub).
fn drive(c: &mut Cache, bus: &mut EventBus) -> u64 {
    c.silent();
    c.delegating(bus);
    c.reporting(bus);
    c.justified();
    c.read_only()
}
