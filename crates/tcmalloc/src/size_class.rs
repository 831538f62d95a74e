//! Size-class table generation.
//!
//! §2.1: "allocations of small objects (< 256 KB) are rounded up to one of
//! 80–90 size classes", trading *internal* fragmentation (slack between the
//! requested size and the class) against *external* fragmentation (more
//! classes mean more per-class free lists caching unused memory). The table
//! here follows the production construction: fine 8-byte spacing for tiny
//! sizes, geometric ~1.15× growth with coarsening alignment above, spans
//! sized so that carving waste stays below 12.5%, and middle-tier batch
//! sizes of `clamp(64 KiB / size, 2, 32)` objects.

use std::sync::OnceLock;
use wsc_sim_os::addr::TCMALLOC_PAGE_BYTES;

/// Largest "small" object: 256 KiB. Bigger requests bypass every cache tier
/// and go straight to the pageheap (§2.1).
pub const MAX_SMALL_SIZE: u64 = 256 << 10;

/// One size class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeClassInfo {
    /// Object size in bytes (the rounded-up allocation size).
    pub size: u64,
    /// Span length for this class, in TCMalloc pages.
    pub pages: u32,
    /// Objects a full span yields (the *span capacity* of §4.4).
    pub objects_per_span: u32,
    /// Objects moved per middle-tier transaction (batch size).
    pub batch: u32,
}

/// The full size-class table.
///
/// # Example
///
/// ```
/// use wsc_tcmalloc::size_class::SizeClassTable;
///
/// let t = SizeClassTable::production();
/// let cl = t.class_for(100).unwrap();
/// assert!(t.info(cl).size >= 100);
/// assert!(t.class_for(300 << 10).is_none(), "large objects bypass classes");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeClassTable {
    classes: Vec<SizeClassInfo>,
    /// Dense O(1) lookup: `lut[(size + 7) >> 3]` → class index, for every
    /// `size <= MAX_SMALL_SIZE`. Valid because every class size is a
    /// multiple of 8, so all sizes in one 8-byte bucket share a class.
    lut: Vec<u16>,
}

/// Alignment required for a given size, mirroring the production table's
/// coarsening steps.
fn alignment_for(size: u64) -> u64 {
    match size {
        0..=512 => 8,
        513..=1024 => 64,
        1025..=4096 => 128,
        4097..=16384 => 512,
        16385..=65536 => 2048,
        _ => 4096,
    }
}

/// Picks the span length (in TCMalloc pages) for an object size: the
/// smallest span whose carving waste is below 12.5%, capped at 32 pages.
fn pages_for(size: u64) -> u32 {
    for pages in 1..=32u32 {
        let span_bytes = pages as u64 * TCMALLOC_PAGE_BYTES;
        if span_bytes < size {
            continue;
        }
        let waste = span_bytes % size;
        if (waste as f64) / (span_bytes as f64) < 0.125 {
            return pages;
        }
    }
    32
}

/// Middle-tier batch size: `clamp(64 KiB / size, 2, 32)` objects.
fn batch_for(size: u64) -> u32 {
    ((64 << 10) / size.max(1)).clamp(2, 32) as u32
}

impl SizeClassTable {
    /// The process-wide production table, built on first use and shared by
    /// every allocator instance afterwards. The table is a constant — the
    /// same ~85 classes and 32 769-entry lookup for every simulated machine
    /// — so it is built once per process; only state is built per machine.
    pub fn shared() -> &'static SizeClassTable {
        static TABLE: OnceLock<SizeClassTable> = OnceLock::new();
        TABLE.get_or_init(Self::production)
    }

    /// Builds an owned copy of the production-style table (~85 classes up
    /// to 256 KiB). Allocators borrow [`shared`](Self::shared) instead.
    pub fn production() -> Self {
        let mut classes = Vec::new();
        let mut size = 8u64;
        while size <= MAX_SMALL_SIZE {
            let pages = pages_for(size);
            let objects = (pages as u64 * TCMALLOC_PAGE_BYTES / size) as u32;
            classes.push(SizeClassInfo {
                size,
                pages,
                objects_per_span: objects,
                batch: batch_for(size),
            });
            // Geometric growth with alignment coarsening; minimum one
            // alignment step so the table always advances.
            let grown = (size as f64 * 1.09) as u64;
            let align = alignment_for(grown);
            let next = grown.div_ceil(align) * align;
            size = next.max(size + alignment_for(size));
        }
        // Ensure the table tops out exactly at MAX_SMALL_SIZE.
        if classes.last().map(|c| c.size) != Some(MAX_SMALL_SIZE) {
            let pages = pages_for(MAX_SMALL_SIZE);
            classes.push(SizeClassInfo {
                size: MAX_SMALL_SIZE,
                pages,
                objects_per_span: (pages as u64 * TCMALLOC_PAGE_BYTES / MAX_SMALL_SIZE) as u32,
                batch: batch_for(MAX_SMALL_SIZE),
            });
        }
        Self::from_classes(classes)
    }

    /// Finishes table construction: checks the structural invariants the
    /// O(1) lookup depends on, then fills the dense table.
    fn from_classes(classes: Vec<SizeClassInfo>) -> Self {
        // Structural invariants (release-mode, not debug_assert): the
        // lookup table is only sound if the class list is strictly
        // increasing, 8-byte-granular, and tops out exactly at
        // MAX_SMALL_SIZE. A last-class size below MAX_SMALL_SIZE would turn
        // `class_for(MAX_SMALL_SIZE)` into an out-of-bounds class index.
        assert!(!classes.is_empty(), "empty size-class table");
        assert!(
            classes.windows(2).all(|w| w[0].size < w[1].size),
            "size classes must be strictly increasing"
        );
        assert!(
            classes.iter().all(|c| c.size % 8 == 0),
            "size classes must be multiples of 8"
        );
        // lint:allow(panic-surface) classes is asserted non-empty above.
        let largest = classes[classes.len() - 1].size;
        assert_eq!(
            largest, MAX_SMALL_SIZE,
            "largest size class must equal MAX_SMALL_SIZE"
        );
        assert!(
            classes.len() <= u16::MAX as usize,
            "class index must fit u16"
        );
        let buckets = ((MAX_SMALL_SIZE >> 3) + 1) as usize;
        let mut lut = vec![0u16; buckets];
        let mut class = 0usize;
        for (bucket, slot) in lut.iter_mut().enumerate() {
            // Largest size mapping to this bucket; bucket 0 is size 0,
            // which rounds up to the smallest class.
            let size = 8 * bucket as u64;
            while classes[class].size < size {
                class += 1;
            }
            *slot = class as u16;
        }
        Self { classes, lut }
    }

    /// Number of size classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The smallest class whose size fits `size`, or `None` when the request
    /// exceeds [`MAX_SMALL_SIZE`] (large allocations bypass the caches).
    /// Zero-byte requests round up to the smallest class.
    ///
    /// O(1): a single load from the dense table indexed by
    /// `(size + 7) >> 3`, as in production TCMalloc. In-bounds by
    /// construction — `from_classes` proves the largest class size equals
    /// [`MAX_SMALL_SIZE`], so every bucket holds a valid class index.
    #[inline]
    pub fn class_for(&self, size: u64) -> Option<usize> {
        if size > MAX_SMALL_SIZE {
            return None;
        }
        // lint:allow(panic-surface) size <= MAX_SMALL_SIZE here, and the
        // LUT is sized for exactly that range (see from_classes).
        Some(self.lut[((size + 7) >> 3) as usize] as usize)
    }

    /// The binary-search classification the dense table replaced: the
    /// reference the exhaustive equivalence test holds the table to.
    #[cfg(test)]
    fn class_for_search(&self, size: u64) -> Option<usize> {
        if size > MAX_SMALL_SIZE {
            return None;
        }
        Some(self.classes.partition_point(|c| c.size < size))
    }

    /// Metadata for a class index.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[inline]
    pub fn info(&self, class: usize) -> &SizeClassInfo {
        &self.classes[class]
    }

    /// Iterates all classes in ascending size order.
    pub fn iter(&self) -> impl Iterator<Item = &SizeClassInfo> {
        self.classes.iter()
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn table() -> SizeClassTable {
        SizeClassTable::production()
    }

    #[test]
    fn shared_table_is_one_instance_equal_to_production() {
        let here = SizeClassTable::shared();
        // lint:allow(concurrency-readiness) a second thread is the point:
        // the table must be one instance per process, not per thread.
        let there = std::thread::spawn(SizeClassTable::shared)
            .join()
            .expect("thread reads the shared table");
        assert!(std::ptr::eq(here, there), "one table per process");
        assert!(std::ptr::eq(here, SizeClassTable::shared()));
        assert_eq!(*here, table(), "field-equal to an owned production table");
    }

    #[test]
    fn class_count_matches_paper_range() {
        let n = table().num_classes();
        assert!((75..=95).contains(&n), "paper says 80-90 classes, got {n}");
    }

    #[test]
    fn sizes_strictly_increasing_up_to_max() {
        let t = table();
        let sizes: Vec<u64> = t.iter().map(|c| c.size).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*sizes.last().unwrap(), MAX_SMALL_SIZE);
        assert_eq!(sizes[0], 8);
    }

    #[test]
    fn class_for_rounds_up() {
        let t = table();
        for req in [0u64, 1, 8, 9, 100, 1024, 5000, 100_000, MAX_SMALL_SIZE] {
            let cl = t.class_for(req).unwrap();
            let info = t.info(cl);
            assert!(info.size >= req, "class {} < request {req}", info.size);
            if cl > 0 {
                assert!(
                    t.info(cl - 1).size < req.max(1),
                    "not the tightest class for {req}"
                );
            }
        }
    }

    #[test]
    fn large_requests_have_no_class() {
        let t = table();
        assert_eq!(t.class_for(MAX_SMALL_SIZE + 1), None);
        assert_eq!(t.class_for(1 << 30), None);
    }

    #[test]
    fn internal_fragmentation_bounded() {
        // Slack between request and class stays modest (< 30% above the
        // tiny sizes; absolute 8B below).
        let t = table();
        for req in (1..=MAX_SMALL_SIZE).step_by(97) {
            let info = *t.info(t.class_for(req).unwrap());
            let slack = info.size - req;
            assert!(
                slack <= 8 || (slack as f64) < 0.30 * req as f64,
                "req {req} -> class {} slack {slack}",
                info.size
            );
        }
    }

    #[test]
    fn span_carving_waste_bounded() {
        let t = table();
        for c in t.iter() {
            let span_bytes = c.pages as u64 * TCMALLOC_PAGE_BYTES;
            let used = c.objects_per_span as u64 * c.size;
            assert!(used <= span_bytes);
            let waste = span_bytes - used;
            assert!(
                (waste as f64) < 0.125 * span_bytes as f64 || c.pages == 32,
                "class {} wastes {waste} of {span_bytes}",
                c.size
            );
            assert!(c.objects_per_span >= 1);
        }
    }

    #[test]
    fn batch_sizes_match_rule() {
        let t = table();
        for c in t.iter() {
            assert_eq!(c.batch, ((64u64 << 10) / c.size).clamp(2, 32) as u32);
        }
    }

    #[test]
    fn small_classes_fill_whole_spans() {
        let t = table();
        let c8 = t.info(t.class_for(8).unwrap());
        assert_eq!(c8.objects_per_span, 1024, "8 KiB span / 8 B = 1024 (§4.3)");
        let c16 = t.info(t.class_for(16).unwrap());
        assert_eq!(c16.objects_per_span, 512, "512 16-byte objects (§4.3)");
    }

    #[test]
    fn lookup_table_matches_binary_search_exhaustively() {
        // The dense table and the retired partition_point search must agree
        // for every representable small size (plus the reject boundary).
        let t = table();
        for size in 0..=MAX_SMALL_SIZE + 1 {
            assert_eq!(
                t.class_for(size),
                t.class_for_search(size),
                "lut/search divergence at size {size}"
            );
        }
    }

    #[test]
    fn boundary_at_max_small_size() {
        // Release-mode boundary contract (the old debug_assert compiled
        // away): MAX_SMALL_SIZE classifies to the last class,
        // MAX_SMALL_SIZE + 1 is rejected, and the returned index is
        // in-bounds for info() even with debug assertions off.
        let t = table();
        let cl = t.class_for(MAX_SMALL_SIZE).unwrap();
        assert_eq!(cl, t.num_classes() - 1);
        assert_eq!(t.info(cl).size, MAX_SMALL_SIZE);
        assert_eq!(t.class_for(MAX_SMALL_SIZE + 1), None);
        assert_eq!(t.class_for_search(MAX_SMALL_SIZE + 1), None);
    }

    #[test]
    #[should_panic(expected = "largest size class must equal MAX_SMALL_SIZE")]
    fn construction_rejects_short_table() {
        // The invariant is structural: a table whose largest class drifted
        // below MAX_SMALL_SIZE fails at construction, not at lookup time.
        SizeClassTable::from_classes(vec![SizeClassInfo {
            size: 8,
            pages: 1,
            objects_per_span: 1024,
            batch: 32,
        }]);
    }

    #[test]
    fn capacity_one_classes_exist() {
        // §4.4: "the leftmost data points show spans allocating large size
        // classes that can only hold one object."
        let t = table();
        assert!(t.iter().any(|c| c.objects_per_span == 1));
    }
}
