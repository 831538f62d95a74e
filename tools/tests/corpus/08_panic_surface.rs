//@ file: crates/tcmalloc/src/core.rs
pub struct Core {
    xs: Vec<u64>,
}
impl Core {
    pub fn try_malloc_with_site(&mut self, i: usize) -> Result<u64, ()> {
        let plain = self.xs[i]; // bare identifier index: locally checkable
        let computed = self.xs[i + 1]; //~ panic-surface
        let range = &self.xs[..i]; //~ panic-surface
        let _ = (plain, computed, range);
        helper(&self.xs)
    }
    pub fn try_free(&mut self, i: usize) -> Result<(), ()> {
        // lint:allow(panic-surface) bound proven by the caller contract
        let _ = self.xs[i * 2];
        Ok(())
    }
}
fn helper(xs: &[u64]) -> Result<u64, ()> {
    if xs.is_empty() {
        panic!("boom"); //~ panic-surface
    }
    Ok(xs[0])
}
fn not_reachable() {
    panic!("fine: no path from the try roots leads here");
    todo!()
}
// A production reader for both entry points (test-only-pub).
fn caller(c: &mut Core) {
    let _ = (c.try_malloc_with_site(0), c.try_free(0));
}
