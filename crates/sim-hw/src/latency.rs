//! Core-to-core data-transfer latency (the paper's Figure 11).
//!
//! The paper measures, with Intel MLC, that transferring cache lines between
//! cores in *different* LLC domains of a chiplet socket costs 2.07× the
//! intra-domain latency. [`LatencyModel`] encodes that structure and
//! [`measure`] reproduces the MLC-style measurement over a [`Platform`].

use crate::topology::{CpuId, Platform};

/// Nanoseconds for a cache-to-cache transfer between two logical CPUs,
/// stratified by their topological distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Same physical core (SMT siblings share L1/L2).
    pub smt_sibling_ns: f64,
    /// Same LLC domain, different core.
    pub intra_domain_ns: f64,
    /// Different LLC domain, same socket — the NUCA penalty.
    pub inter_domain_ns: f64,
    /// Different socket.
    pub inter_socket_ns: f64,
}

impl LatencyModel {
    /// The production-platform calibration: intra-domain 40 ns and the
    /// paper's 2.07× inter-domain ratio (Figure 11), ~130 ns cross-socket.
    pub fn production() -> Self {
        Self {
            smt_sibling_ns: 12.0,
            intra_domain_ns: 40.0,
            inter_domain_ns: 40.0 * 2.07,
            inter_socket_ns: 130.0,
        }
    }

    /// Latency between two logical CPUs on `platform`.
    pub fn core_to_core_ns(&self, platform: &Platform, a: CpuId, b: CpuId) -> f64 {
        if platform.same_core(a, b) {
            self.smt_sibling_ns
        } else if platform.same_domain(a, b) {
            self.intra_domain_ns
        } else if platform.socket_of(a) == platform.socket_of(b) {
            self.inter_domain_ns
        } else {
            self.inter_socket_ns
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::production()
    }
}

/// Result of an MLC-style core-to-core sweep on a platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MlcMeasurement {
    /// Mean latency between distinct cores sharing an LLC domain, ns.
    pub intra_domain_ns: f64,
    /// Mean latency between cores of different LLC domains on one socket, ns.
    /// `None` on monolithic platforms (no such pair exists).
    pub inter_domain_ns: Option<f64>,
}

/// Sweeps all ordered CPU pairs (like `mlc --c2c_latency`) and averages by
/// stratum. Reproduces Figure 11 when run on a chiplet platform.
pub fn measure(platform: &Platform, model: &LatencyModel) -> MlcMeasurement {
    let mut intra = (0.0, 0u64);
    let mut inter = (0.0, 0u64);
    for a in platform.cpus() {
        for b in platform.cpus() {
            if a == b || platform.same_core(a, b) {
                continue;
            }
            let ns = model.core_to_core_ns(platform, a, b);
            if platform.same_domain(a, b) {
                intra.0 += ns;
                intra.1 += 1;
            } else if platform.socket_of(a) == platform.socket_of(b) {
                inter.0 += ns;
                inter.1 += 1;
            }
        }
    }
    MlcMeasurement {
        intra_domain_ns: if intra.1 > 0 {
            intra.0 / intra.1 as f64
        } else {
            0.0
        },
        inter_domain_ns: (inter.1 > 0).then(|| inter.0 / inter.1 as f64),
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn strata_ordering() {
        let p = Platform::chiplet("x", 2, 4, 4, 2);
        let m = LatencyModel::production();
        let smt = m.core_to_core_ns(&p, CpuId(0), CpuId(1));
        let intra = m.core_to_core_ns(&p, CpuId(0), CpuId(2));
        let inter = m.core_to_core_ns(&p, CpuId(0), CpuId(8));
        let socket = m.core_to_core_ns(&p, CpuId(0), CpuId(32));
        assert!(smt < intra && intra < inter && inter < socket);
    }

    #[test]
    fn production_matches_paper_ratio() {
        let m = LatencyModel::production();
        // Inter- over intra-domain latency: the paper reports 2.07×.
        assert!((m.inter_domain_ns / m.intra_domain_ns - 2.07).abs() < 1e-9);
    }

    #[test]
    fn mlc_sweep_on_chiplet() {
        let p = Platform::chiplet("x", 1, 2, 2, 2);
        let meas = measure(&p, &LatencyModel::production());
        assert!((meas.intra_domain_ns - 40.0).abs() < 1e-9);
        let inter = meas
            .inter_domain_ns
            .expect("chiplet has inter-domain pairs");
        assert!((inter / meas.intra_domain_ns - 2.07).abs() < 1e-9);
    }

    #[test]
    fn mlc_sweep_on_monolithic_has_no_inter_domain() {
        let p = Platform::monolithic("x", 1, 4, 2);
        let meas = measure(&p, &LatencyModel::production());
        assert_eq!(meas.inter_domain_ns, None);
        assert!(meas.intra_domain_ns > 0.0);
    }

    #[test]
    fn latency_is_symmetric() {
        let p = Platform::chiplet("x", 2, 2, 2, 2);
        let m = LatencyModel::production();
        for a in p.cpus() {
            for b in p.cpus() {
                assert_eq!(m.core_to_core_ns(&p, a, b), m.core_to_core_ns(&p, b, a));
            }
        }
    }
}
