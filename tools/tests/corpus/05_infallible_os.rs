//@ file: crates/tcmalloc/src/naughty.rs
fn bad(vmm: &mut Vmm) {
    let v = Vmm::default(); //~ infallible-os
    vmm.mmap(0, 4096); //~ infallible-os
    vmm.subrelease(0, 4096); //~ infallible-os
    let _ = v;
}
fn ok_prose() {
    let doc = "route .mmap( calls through OsLayer";
    let _ = doc;
}
//@ file: crates/sim-os/src/vmm_test_helper.rs
// The OS boundary itself may construct and mutate kernel state.
fn fine(vmm: &mut Vmm) {
    let fresh = Vmm::default();
    vmm.munmap(0, 4096);
    let _ = fresh;
}
