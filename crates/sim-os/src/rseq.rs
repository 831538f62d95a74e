//! Virtual CPU (vCPU) IDs via restartable sequences.
//!
//! §4.1: platforms keep growing hyperthread counts (4× over five
//! generations), but a co-located WSC application only runs on its cpuset.
//! Populating a per-CPU cache for every *physical* CPU ID wastes memory, so
//! the kernel's rseq extension assigns each process a **dense, process-
//! private vCPU number space**: "if an application runs on two CPU cores,
//! virtual CPUs always expose IDs 0 and 1, irrespective of which physical
//! cores the application threads are scheduled on."
//!
//! [`VcpuRegistry`] implements that assignment discipline.

use wsc_prng::IntMap;
use wsc_sim_hw::topology::CpuId;

/// Physical CPU ids below this bound are looked up in a flat table (grown
/// lazily to the highest id seen, so at most 16 KiB); ids at or above it —
/// no modelled platform has any, but a trace file may name one — go through
/// a map, so a stray `cpu 4294967295` costs one entry, not 16 GiB.
const DENSE_CPUS: usize = 4096;

/// Dense-table sentinel: no vCPU assigned yet.
const UNASSIGNED: u32 = u32::MAX;

/// A dense virtual CPU identifier, private to one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcpuId(pub u32);

impl VcpuId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VcpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vCPU{}", self.0)
    }
}

/// Per-process physical-CPU → dense-vCPU mapping.
///
/// vCPU IDs are assigned in first-use order, so an application that mostly
/// runs few threads keeps its activity concentrated on low-numbered vCPUs —
/// the usage skew of Figure 9b.
///
/// # Example
///
/// ```
/// use wsc_sim_os::rseq::VcpuRegistry;
/// use wsc_sim_hw::topology::CpuId;
///
/// let mut reg = VcpuRegistry::new();
/// assert_eq!(reg.vcpu_of(CpuId(57)).0, 0); // first CPU seen gets vCPU 0
/// assert_eq!(reg.vcpu_of(CpuId(3)).0, 1);
/// assert_eq!(reg.vcpu_of(CpuId(57)).0, 0); // stable thereafter
/// ```
#[derive(Clone, Debug, Default)]
pub struct VcpuRegistry {
    /// vCPU of each physical CPU id below [`DENSE_CPUS`], or `UNASSIGNED`.
    dense: Vec<u32>,
    // lint:allow(hashmap-decl) keyed by CPU ids >= DENSE_CPUS; never iterated
    sparse: IntMap<u32, u32>,
    assigned: u32,
}

impl VcpuRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// This registry emptied, exactly as [`new`](Self::new) builds one,
    /// with its tables' storage kept: the next process numbers its CPUs
    /// from vCPU 0 again.
    pub fn renew(mut self) -> Self {
        self.dense.clear();
        self.sparse.clear();
        Self {
            dense: self.dense,
            sparse: self.sparse,
            assigned: 0,
        }
    }

    /// Returns the vCPU ID for a physical CPU, assigning the next dense ID
    /// on first use. An assigned dense id is one bounds-checked load; first
    /// use and the sparse ids go through a cold out-of-line path.
    #[inline]
    pub fn vcpu_of(&mut self, cpu: CpuId) -> VcpuId {
        match self.dense.get(cpu.index()) {
            Some(&v) if v != UNASSIGNED => VcpuId(v),
            _ => self.assign(cpu),
        }
    }

    /// [`vcpu_of`](Self::vcpu_of) for a CPU without a dense id: numbers it
    /// on first use, growing the dense table or entering the sparse map.
    #[cold]
    #[inline(never)]
    fn assign(&mut self, cpu: CpuId) -> VcpuId {
        let slot = if cpu.index() < DENSE_CPUS {
            if cpu.index() >= self.dense.len() {
                self.dense.resize(cpu.index() + 1, UNASSIGNED);
            }
            &mut self.dense[cpu.index()]
        } else {
            self.sparse.entry(cpu.0).or_insert(UNASSIGNED)
        };
        if *slot == UNASSIGNED {
            *slot = self.assigned;
            self.assigned += 1;
        }
        VcpuId(*slot)
    }

    /// The vCPU ID for a physical CPU, if already assigned.
    pub fn get(&self, cpu: CpuId) -> Option<VcpuId> {
        let slot = if cpu.index() < DENSE_CPUS {
            self.dense.get(cpu.index())
        } else {
            self.sparse.get(&cpu.0)
        };
        slot.copied().filter(|&v| v != UNASSIGNED).map(VcpuId)
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn dense_first_use_assignment() {
        let mut reg = VcpuRegistry::new();
        let a = reg.vcpu_of(CpuId(100));
        let b = reg.vcpu_of(CpuId(7));
        let c = reg.vcpu_of(CpuId(55));
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(reg.assigned, 3);
    }

    #[test]
    fn mapping_is_stable() {
        let mut reg = VcpuRegistry::new();
        let first = reg.vcpu_of(CpuId(9));
        for _ in 0..10 {
            assert_eq!(reg.vcpu_of(CpuId(9)), first);
        }
        assert_eq!(reg.assigned, 1);
    }

    #[test]
    fn get_without_assign() {
        let mut reg = VcpuRegistry::new();
        assert_eq!(reg.get(CpuId(1)), None);
        reg.vcpu_of(CpuId(1));
        assert_eq!(reg.get(CpuId(1)), Some(VcpuId(0)));
    }

    #[test]
    fn matches_map_registry_below_and_above_the_dense_bound() {
        // The retired implementation: one map entry per CPU, next id = len.
        use std::collections::BTreeMap;
        use wsc_prng::SmallRng;
        let edge = DENSE_CPUS as u32;
        let pool = [
            0,
            1,
            57,
            255,
            edge - 1,
            edge,
            edge + 1,
            1 << 20,
            u32::MAX - 1,
            u32::MAX,
        ];
        for case in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(0x5eed_c9a0 + case);
            let mut reg = VcpuRegistry::new();
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            for _ in 0..200 {
                let cpu = if rng.gen::<f64>() < 0.5 {
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    rng.gen_range(0u32..2 * edge)
                };
                assert_eq!(reg.get(CpuId(cpu)).map(|v| v.0), model.get(&cpu).copied());
                let next = model.len() as u32;
                let want = *model.entry(cpu).or_insert(next);
                assert_eq!(reg.vcpu_of(CpuId(cpu)).0, want, "cpu {cpu}");
                assert_eq!(reg.assigned as usize, model.len());
            }
            assert!(reg.dense.len() <= DENSE_CPUS, "dense part is bounded");
        }
    }

    #[test]
    fn huge_cpu_id_costs_one_entry() {
        let mut reg = VcpuRegistry::new();
        assert_eq!(reg.vcpu_of(CpuId(u32::MAX)).0, 0);
        assert_eq!(reg.vcpu_of(CpuId(3)).0, 1);
        assert_eq!(reg.vcpu_of(CpuId(u32::MAX)).0, 0);
        assert_eq!(reg.get(CpuId(u32::MAX)), Some(VcpuId(0)));
        assert_eq!(reg.get(CpuId(u32::MAX - 1)), None);
        assert_eq!(reg.dense.len(), 4);
        assert_eq!(reg.assigned, 2);
    }

    #[test]
    fn two_core_app_uses_ids_0_and_1() {
        // The paper's example: an app on two cores sees vCPUs {0, 1} no
        // matter which physical cores it landed on.
        let mut reg = VcpuRegistry::new();
        let ids: Vec<u32> = [CpuId(250), CpuId(13)]
            .into_iter()
            .map(|c| reg.vcpu_of(c).0)
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
