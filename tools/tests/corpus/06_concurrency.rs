//@ file: crates/tcmalloc/src/shard.rs
use std::sync::Mutex; //~ concurrency-readiness
fn bad() {
    let m = Mutex::new(0); //~ concurrency-readiness
    std::thread::spawn(|| {}); //~ concurrency-readiness
    let a = Arc::new(0); //~ concurrency-readiness
    let _ = (m, a);
}
fn ok_prose() {
    let s = "Mutex and RwLock in prose are fine";
    let _ = s;
}
fn bad_channels() {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(2); //~ concurrency-readiness
    let (a, b) = mpsc::channel::<u32>(); //~ concurrency-readiness
    let (c, d) = sync_channel::<u32>(0); //~ concurrency-readiness
    let channel = 3; // a binding named `channel` is not one
    let _ = (tx, rx, a, b, c, d, channel);
}
//@ file: crates/parallel/src/pool.rs
// Sanctioned module: primitives are fine, but two locks in one body
// demand a canonical lock-order declaration.
fn single(a: &Mutex<u32>) {
    let _g = a.lock();
}
fn needs_decl(a: &Mutex<u32>, b: &Mutex<u32>) { //~ concurrency-readiness
    let _x = a.lock();
    let _y = b.lock();
}
//@ file: crates/parallel/src/stream.rs
// Sanctioned module: a channel between two threads is fine here.
use std::sync::mpsc::sync_channel;
fn stream() {
    let (tx, rx) = sync_channel::<u32>(2);
    let _ = (tx, rx);
}
//@ file: crates/parallel/src/pool2.rs
// lint:lock-order(a, b)
fn in_order(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _x = a.lock();
    let _y = b.lock();
}
fn out_of_order(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _y = b.lock();
    let _x = a.lock(); //~ concurrency-readiness
}
fn undeclared(c: &Mutex<u32>) {
    let _z = c.lock(); //~ concurrency-readiness
}
//@ file: crates/parallel/src/atomics.rs
fn store(b: &AtomicBool) {
    b.store(true, Ordering::Release); //~ concurrency-readiness
    // lint:allow(atomic-ordering) counter only; no other data published
    b.store(false, Ordering::Relaxed);
    let cmp = std::cmp::Ordering::Less; // cmp::Ordering variants never fire
    let _ = cmp;
}
//@ file: crates/parallel/src/inbox.rs
// Sanctioned module: two declared locks taken in the declared order pass,
// and a counter's ordering still needs its justification.
// lint:lock-order(span_lists, inboxes)
fn park(span_lists: &Mutex<u32>, inboxes: &Mutex<u32>) {
    let _l = span_lists.lock();
    let _i = inboxes.lock();
}
fn counters(n: &AtomicU64) {
    // lint:allow(atomic-ordering) monotonic counter; no data published
    n.fetch_add(1, Ordering::Relaxed);
    n.fetch_add(1, Ordering::AcqRel); //~ concurrency-readiness
}
//@ file: crates/tcmalloc/src/deferred.rs
// The allocator core holds no lock: a list of remote frees behind a mutex
// is denied like any other primitive outside the engine.
struct RemoteFrees {
    lists: Mutex<Vec<u64>>, //~ concurrency-readiness
}
