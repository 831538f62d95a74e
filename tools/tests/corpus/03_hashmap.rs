//@ file: crates/telemetry/src/agg.rs
struct Justified {
    // lint:allow(hashmap-decl) key-indexed access only; no iteration leaves
    by_id: HashMap<u64, u32>,
}
struct Bad {
    counts: HashMap<u64, u32>, //~ hashmap-decl
}
impl Justified {
    fn build() -> Self {
        // Struct-literal field init is exempt: the field declaration above
        // is the annotated site.
        Self { by_id: HashMap::new() }
    }
    fn bad_iter(&self) {
        for (k, v) in &self.by_id {} //~ hashmap-iter
    }
    fn ok_lookup(&self) -> Option<&u32> {
        self.by_id.get(&7)
    }
}
fn bad_let() {
    let tmp: HashMap<u32, u32> = HashMap::new(); //~ hashmap-decl
    for v in tmp.values() {} //~ hashmap-iter
}
fn ok_prose() {
    let s = "HashMap::new() and map.iter() in prose";
    let _ = s;
}
// The integer-hasher alias and the custom-hasher constructors are maps too:
// a map does not leave the rules by changing its hasher.
struct Aliased {
    // lint:allow(hashmap-decl) keyed by hugepage index; never iterated
    by_hugepage: IntMap<u64, usize>,
    live: IntMap<u64, (u64, u64)>, //~ hashmap-decl
}
impl Aliased {
    fn build() -> Self {
        // Struct-literal init stays exempt for the new constructors.
        Self { by_hugepage: IntMap::default(), live: IntMap::default() }
    }
    fn bad_alias_iter(&self) -> usize {
        self.by_hugepage.values().count() //~ hashmap-iter
    }
    fn ok_alias_lookup(&mut self) -> Option<usize> {
        self.by_hugepage.remove(&7)
    }
}
fn bad_alias_lets() {
    let ids = IntMap::default(); //~ hashmap-decl
    for (k, v) in &ids {} //~ hashmap-iter
    let hashed = HashMap::with_hasher(BuildHasherDefault::<IntHasher>::default()); //~ hashmap-decl
    hashed.retain(|_, _| true); //~ hashmap-iter
    let plain = HashMap::default(); //~ hashmap-decl
    for k in plain.keys() {} //~ hashmap-iter
}
fn ok_not_maps() {
    // `default()` on other types, and names that merely contain the alias.
    let v: Vec<u32> = Vec::default();
    let n = IntMapLike::default();
    let m = u64::default();
    for x in v.iter() {}
    let _ = (n, m);
}
// A map borrowed as a parameter is a map; iterating it into an order is
// sanctioned only with the reason order cannot leak stated on the chain.
// lint:allow(hashmap-decl) the owner's index, borrowed to enumerate
fn ok_sorted_rebuild(index: &IntMap<u64, u64>) -> Vec<(u64, u64)> {
    // lint:allow(hashmap-iter) sorted by a unique stamp before any is used
    let mut all: Vec<(u64, u64)> = index
        .iter()
        .map(|(&block, &stamp)| (stamp, block))
        .collect();
    all.sort_unstable();
    all
}
fn bad_unsorted_rebuild(index: &IntMap<u64, u64>) -> Vec<u64> { //~ hashmap-decl
    index.keys().copied().collect() //~ hashmap-iter
}
