//! CPU topology: sockets, NUMA nodes, LLC (cache) domains, cores, SMT.
//!
//! The paper (§4.2) observes that chiplet platforms expose multiple last-
//! level-cache domains per socket ("Non-Uniform Cache Access", NUCA) and that
//! the fleet has seen a 4× increase in hyperthreads per server over five
//! platform generations (§4.1). [`Platform`] captures exactly the structure
//! the allocator cares about: which logical CPUs share an LLC domain and a
//! NUMA node.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_newtype!(
    /// A logical CPU (hardware thread). Two SMT siblings share a core.
    CpuId
);
id_newtype!(
    /// A last-level-cache domain (one CCX/chiplet on AMD-style parts, the
    /// whole socket on monolithic parts).
    DomainId
);
id_newtype!(
    /// A NUMA node.
    NodeId
);
id_newtype!(
    /// A physical socket.
    SocketId
);

/// A server platform: the hardware topology one machine exposes.
///
/// Logical CPU numbering is dense: CPUs `[0, num_cpus)` are laid out socket-
/// major, then NUMA node, then domain, then core, then SMT sibling — so all
/// CPUs of a domain are contiguous.
///
/// The [`Default`] platform has no CPU: it is what an allocator that has
/// not been renewed for a machine holds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Platform {
    name: String,
    sockets: u32,
    nodes_per_socket: u32,
    domains_per_node: u32,
    cores_per_domain: u32,
    smt: u32,
    /// LLC capacity per cache domain, bytes.
    llc_bytes_per_domain: u64,
}

impl Platform {
    /// Builds an arbitrary platform.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        name: impl Into<String>,
        sockets: u32,
        nodes_per_socket: u32,
        domains_per_node: u32,
        cores_per_domain: u32,
        smt: u32,
        llc_bytes_per_domain: u64,
    ) -> Self {
        assert!(
            sockets > 0
                && nodes_per_socket > 0
                && domains_per_node > 0
                && cores_per_domain > 0
                && smt > 0,
            "all topology dimensions must be positive"
        );
        Self {
            name: name.into(),
            sockets,
            nodes_per_socket,
            domains_per_node,
            cores_per_domain,
            smt,
            llc_bytes_per_domain,
        }
    }

    /// A monolithic-die platform: one LLC domain per socket (Intel-style).
    ///
    /// `sockets` sockets × `cores` cores × `smt` threads; 33 MiB LLC.
    pub fn monolithic(name: impl Into<String>, sockets: u32, cores: u32, smt: u32) -> Self {
        Self::new(name, sockets, 1, 1, cores, smt, 33 << 20)
    }

    /// A chiplet platform: several LLC domains (CCXs) per NUMA node
    /// (AMD-style), giving non-uniform cache access within a socket.
    ///
    /// `sockets` × `domains_per_socket` CCXs × `cores_per_domain` cores ×
    /// `smt`; 32 MiB LLC per CCX.
    pub fn chiplet(
        name: impl Into<String>,
        sockets: u32,
        domains_per_socket: u32,
        cores_per_domain: u32,
        smt: u32,
    ) -> Self {
        Self::new(
            name,
            sockets,
            1,
            domains_per_socket,
            cores_per_domain,
            smt,
            32 << 20,
        )
    }

    /// The platform name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total logical CPUs.
    pub fn num_cpus(&self) -> usize {
        (self.sockets
            * self.nodes_per_socket
            * self.domains_per_node
            * self.cores_per_domain
            * self.smt) as usize
    }

    /// Total LLC domains.
    pub fn num_domains(&self) -> usize {
        (self.sockets * self.nodes_per_socket * self.domains_per_node) as usize
    }

    /// Logical CPUs per LLC domain.
    pub fn cpus_per_domain(&self) -> usize {
        (self.cores_per_domain * self.smt) as usize
    }

    /// LLC capacity of one cache domain, in bytes.
    pub fn llc_bytes_per_domain(&self) -> u64 {
        self.llc_bytes_per_domain
    }

    /// Does this platform have multiple LLC domains within a socket (NUCA)?
    pub fn is_nuca(&self) -> bool {
        self.nodes_per_socket * self.domains_per_node > 1
    }

    /// The LLC domain a logical CPU belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[inline]
    pub fn domain_of(&self, cpu: CpuId) -> DomainId {
        assert!(cpu.index() < self.num_cpus(), "cpu {cpu} out of range");
        DomainId((cpu.index() / self.cpus_per_domain()) as u32)
    }

    /// The NUMA node a logical CPU belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn node_of(&self, cpu: CpuId) -> NodeId {
        assert!(cpu.index() < self.num_cpus(), "cpu {cpu} out of range");
        let cpus_per_node = self.cpus_per_domain() * self.domains_per_node as usize;
        NodeId((cpu.index() / cpus_per_node) as u32)
    }

    /// The socket a logical CPU belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn socket_of(&self, cpu: CpuId) -> SocketId {
        let node = self.node_of(cpu);
        SocketId(node.0 / self.nodes_per_socket)
    }

    /// Whether two CPUs share an LLC domain.
    pub fn same_domain(&self, a: CpuId, b: CpuId) -> bool {
        self.domain_of(a) == self.domain_of(b)
    }

    /// Whether two CPUs are SMT siblings on the same physical core.
    pub fn same_core(&self, a: CpuId, b: CpuId) -> bool {
        a.index() / self.smt as usize == b.index() / self.smt as usize
    }

    /// All logical CPUs.
    pub fn cpus(&self) -> impl Iterator<Item = CpuId> {
        (0..self.num_cpus() as u32).map(CpuId)
    }
}

/// The five fleet platform generations of §4.1: hyperthreads per server grew
/// 4× over five generations. Useful for the vCPU scalability studies.
pub fn fleet_generations() -> Vec<Platform> {
    vec![
        Platform::monolithic("gen1-mono-18c", 2, 18, 2),
        Platform::monolithic("gen2-mono-24c", 2, 24, 2),
        Platform::monolithic("gen3-mono-28c", 2, 28, 2),
        Platform::chiplet("gen4-chiplet-48c", 2, 6, 8, 2),
        Platform::chiplet("gen5-chiplet-72c", 2, 9, 8, 2),
    ]
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn monolithic_layout() {
        let p = Platform::monolithic("intel-like", 2, 28, 2);
        assert_eq!(p.num_cpus(), 112);
        assert_eq!(p.num_domains(), 2);
        assert!(!p.is_nuca());
        assert_eq!(p.domain_of(CpuId(0)), DomainId(0));
        assert_eq!(p.domain_of(CpuId(55)), DomainId(0));
        assert_eq!(p.domain_of(CpuId(56)), DomainId(1));
    }

    #[test]
    fn chiplet_layout() {
        let p = Platform::chiplet("amd-like", 2, 8, 8, 2);
        assert_eq!(p.num_cpus(), 256);
        assert_eq!(p.num_domains(), 16);
        assert!(p.is_nuca());
        assert_eq!(p.cpus_per_domain(), 16);
        // CPU 16 is in the second CCX but the first socket.
        assert_eq!(p.domain_of(CpuId(16)), DomainId(1));
        assert_eq!(p.socket_of(CpuId(16)), SocketId(0));
        assert_eq!(p.socket_of(CpuId(128)), SocketId(1));
    }

    #[test]
    fn smt_siblings() {
        let p = Platform::monolithic("x", 1, 4, 2);
        assert!(p.same_core(CpuId(0), CpuId(1)));
        assert!(!p.same_core(CpuId(1), CpuId(2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn domain_of_rejects_bad_cpu() {
        let p = Platform::monolithic("x", 1, 2, 1);
        let _ = p.domain_of(CpuId(99));
    }

    #[test]
    fn generations_grow_hyperthreads() {
        let gens = fleet_generations();
        let first = gens.first().unwrap().num_cpus();
        let last = gens.last().unwrap().num_cpus();
        assert_eq!(first, 72);
        assert_eq!(last, 288);
        assert!(last as f64 / first as f64 >= 4.0, "paper reports 4x growth");
    }
}
