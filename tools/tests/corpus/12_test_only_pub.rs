//@ file: crates/sim-os/src/readers.rs
// Each of the first seven functions has exactly one production reader, of
// the form its name says, in another section; none is a finding.
pub struct Readers;
impl Readers {
    pub fn by_call() -> u64 {
        1
    }
    pub fn by_method(&self) -> u64 {
        2
    }
    pub fn by_path_call() -> u64 {
        3
    }
    pub fn by_pointer(x: u64) -> u64 {
        x
    }
    pub fn by_example() -> u64 {
        4
    }
    pub fn by_benchmark() -> u64 {
        5
    }
}
pub fn by_import() -> u64 {
    6
}
// Its own body is not a reader.
pub(crate) fn recursive(n: u64) -> u64 { //~ test-only-pub
    if n == 0 { 0 } else { recursive(n - 1) }
}
// Read only under #[cfg(test)].
pub fn read_by_unit_test() -> u64 { //~ test-only-pub
    7
}
// Read only from a `tests/` directory.
pub fn read_by_integration_test() -> u64 { //~ test-only-pub
    8
}
// lint:allow(test-only-pub) readers_it reads it: no other API exposes the eight
pub fn justified() -> u64 {
    9
}
// lint:allow(test-only-pub) stale: `fresh` has a production reader //~ suppression-hygiene
pub fn fresh() -> u64 {
    10
}
// A test helper is test context, not production surface.
#[cfg(test)]
pub fn helper() -> u64 {
    read_by_unit_test()
}
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn reads() {
        assert_eq!(read_by_unit_test() + helper(), 14);
        assert_eq!(Readers::by_call(), 1);
    }
}
//@ file: crates/sim-os/src/user.rs
use crate::readers::by_import;
fn production(r: &Readers) -> u64 {
    let direct = by_call() + fresh();
    let method = r.by_method();
    let path = Readers::by_path_call();
    let pointer = [1u64].map(Readers::by_pointer)[0];
    direct + method + path + pointer
}
//@ file: crates/sim-os/tests/readers_it.rs
fn integration() {
    assert_eq!(read_by_integration_test() + justified(), 17);
}
//@ file: examples/demo.rs
// Reader-only: its call keeps `by_example` alive, and no rule reports on
// the file — not its unread pub fn, not its wall-clock read.
pub fn unread_in_an_example() {}
fn main() {
    let t = std::time::Instant::now();
    let _ = (wsc_sim_os::readers::Readers::by_example(), t);
}
//@ file: benchmark/src/main.rs
// Reader-only, like examples/.
pub fn unread_in_the_benchmark() {}
fn main() {
    let t = std::time::Instant::now();
    let _ = (Readers::by_benchmark(), t);
}
