//@ file: crates/tcmalloc/src/span.rs
// The arena'd span registry is metadata storage, not a tier boundary:
// its `&mut self` mutators are sanctioned to stay silent on the event
// bus (the tier that calls them is the one crossing a boundary, and it
// emits), and the dense-pool indexing is suppressed exactly where the
// region carve bounds it — an unsuppressed computed index on a fallible
// path still counts.
pub struct SpanRegistry {
    spans: Vec<u64>,
    free_pool: Vec<u32>,
}
impl SpanRegistry {
    pub fn alloc_object(&mut self, id: usize) -> u64 {
        // lint:allow(panic-surface) top < free_off + region_cap by the
        // reset_region carve.
        let top = self.free_pool[id + 1];
        self.spans.push(top as u64);
        top as u64
    }
    pub fn peek_free(&self, id: usize) -> u32 {
        self.free_pool[id + 7] //~ panic-surface
    }
}

//@ file: crates/tcmalloc/src/central.rs
// Contrast: the same silent `pub fn (&mut self)` shape inside a tier
// module is a finding — only the arena module is sanctioned to mutate
// without emitting.
pub struct CentralFreeList {
    held: u64,
}
impl CentralFreeList {
    pub fn grow(&mut self) { //~ event-completeness
        self.held += 1;
    }
}
// A production reader (test-only-pub).
fn refill(c: &mut CentralFreeList) {
    c.grow();
}

//@ file: crates/tcmalloc/src/alloc.rs
pub struct Tcmalloc {
    registry: SpanRegistry,
    bus: EventBus,
}
impl Tcmalloc {
    pub fn try_malloc_with_site(&mut self, id: usize) -> Result<u64, ()> {
        // Reaches the registry: the unsuppressed index in peek_free is on
        // this fallible path.
        let _ = self.registry.peek_free(id);
        let addr = self.registry.alloc_object(id);
        self.bus.emit(AllocEvent::MallocDone {});
        Ok(addr)
    }
}
// A production reader (test-only-pub).
fn malloc(t: &mut Tcmalloc) -> u64 {
    t.try_malloc_with_site(0).unwrap_or(0)
}
