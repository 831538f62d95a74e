//! The metric registry: every name the benchmark prints, with its unit,
//! direction, and — for layer metrics — what it should move. `BENCHMARK.json`
//! repeats name, unit, direction and bound; a test keeps the two equal.
//!
//! Two clocks exist and every metric says which it uses: **host** time is
//! what the simulator costs us; **sim** time is what the modelled allocator
//! costs the modelled machine. Counts and sim values repeat exactly for a
//! fixed seed; host values carry the sandbox's noise.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "sim_req_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        meaning: "simulated requests per host second of the timed region, fastest repetition",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        meaning: "host seconds from process start to the first timed operation, fastest repetition",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
        meaning: "peak resident memory of the process (VmHWM), host, smallest repetition",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Clock, meaning, and the end-to-end metric and workload it should move.
    pub meaning: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    meaning: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better,
        meaning,
    }
}

pub const PER_LAYER: [PerLayer; 61] = [
    m("tcmalloc.malloc_ns", "ns", false, "host ns per malloc call; moves sim_req_per_s on alloc_fastpath and replay_churn, about a quarter of driver_steady"),
    m("tcmalloc.free_ns", "ns", false, "host ns per free call; as malloc_ns"),
    m("tcmalloc.maintain_ns", "ns", false, "host ns per maintain call; moves replay_churn, driver_steady, survey"),
    m("tcmalloc.query_ns", "ns", false, "host ns per read-only allocator query (resident_bytes, hugepage_coverage, fragmentation); Trace::replay makes one per event, so it moves replay_churn"),
    m("tcmalloc.call_ns_p99", "ns", false, "host: upper edge of the log2 bucket holding the 99th percentile of malloc, free and maintain calls"),
    m("tcmalloc.host_ns_percpu", "ns", false, "host ns per malloc/free that ended in the per-CPU tier; moves alloc_fastpath, not replay_churn"),
    m("tcmalloc.host_ns_transfer", "ns", false, "host ns per malloc/free that reached the transfer cache; moves replay_churn, not alloc_fastpath"),
    m("tcmalloc.host_ns_central", "ns", false, "host ns per malloc/free that reached the central free list; moves replay_churn"),
    m("tcmalloc.host_ns_pageheap", "ns", false, "host ns per malloc/free that reached the pageheap or mmap; moves replay_churn"),
    m("tcmalloc.calls_percpu", "count", true, "exact: malloc/free calls that ended in the per-CPU tier"),
    m("tcmalloc.calls_transfer", "count", false, "exact: calls whose deepest tier was the transfer cache"),
    m("tcmalloc.calls_central", "count", false, "exact: calls whose deepest tier was the central free list"),
    m("tcmalloc.calls_pageheap", "count", false, "exact: calls whose deepest tier was the pageheap or mmap"),
    m("tcmalloc.percpu_hit_ratio", "ratio", true, "exact: calls_percpu over all malloc/free calls"),
    m("tcmalloc.sim_ns_per_op", "ns", false, "sim ns charged per malloc/free; must stay identical under a simulator-only change"),
    m("tcmalloc.host_ns_per_sim_ns", "ratio", false, "host ns in malloc+free per sim ns they charge; the figure to compare when the modelled allocator changes"),
    m("tcmalloc.busy_share", "ratio", false, "host: share of the traced region's attributed time spent in tcmalloc calls"),
    m("tcmalloc.new_us", "us", false, "host us per Tcmalloc::new plus its drop; moves survey sim_req_per_s, setup_s elsewhere"),
    m("sim-hw.llc_ns", "ns", false, "host ns per LlcModel::access; moves driver_steady, then survey; zero on the allocator workloads"),
    m("sim-hw.tlb_ns", "ns", false, "host ns per TlbSim::access; as llc_ns"),
    m("sim-hw.busy_share", "ratio", false, "host: share of attributed time in sim-hw calls"),
    m("sim-hw.new_us", "us", false, "host us per LlcModel::new + TlbSim::new; moves survey"),
    m("sim-hw.llc_accesses", "count", false, "exact: LLC accesses simulated"),
    m("sim-hw.llc_miss_ratio", "ratio", false, "exact sim: LLC misses over accesses"),
    m("sim-hw.tlb_accesses", "count", false, "exact: dTLB accesses simulated"),
    m("sim-hw.tlb_walk_ratio", "ratio", false, "exact sim: page walks over dTLB accesses"),
    m("sim-os.page_size_of_ns", "ns", false, "host ns per PageTable::page_size_of; moves driver_steady"),
    m("sim-os.busy_share", "ratio", false, "host: share of attributed time in page-table queries"),
    m("sim-os.mmap_calls", "count", false, "exact sim: mmap calls the allocators made"),
    m("sim-os.madvise_calls", "count", false, "exact sim: madvise (subrelease) calls"),
    m("sim-os.peak_resident_mb", "MB", false, "exact sim: peak resident heap of the modelled process (largest machine)"),
    m("sim-os.hugepage_coverage", "ratio", true, "exact sim: mean hugepage coverage of the heap"),
    m("workload.sample_ns", "ns", false, "host ns per size/lifetime/thread-count draw; moves driver_steady and survey, setup_s on the allocator workloads"),
    m("workload.samples", "count", false, "exact: draws made in the traced region (in set-up on alloc_fastpath)"),
    m("workload.trace_record_s", "s", false, "host s of Trace::record; part of replay_churn setup_s"),
    m("workload.driver_self_ns_per_req", "ns", false, "host ns per request in the driver/replay/generator loop itself (free heap, object table, id map)"),
    m("workload.cold_req_cost_ratio", "ratio", false, "host cost of a machine's first 32 requests over its later ones; moves survey"),
    m("workload.busy_share", "ratio", false, "host: share of attributed time in workload sampling and the driver loop"),
    m("workload.shadow_faithful", "bool", true, "1 when the traced mirror's simulated output equals the real function's"),
    m("fleet.population_new_ms", "ms", false, "host ms of Population::new + cycle_sampler + rollout schedule; survey"),
    m("fleet.spec_us", "us", false, "host us to generate one machine's cell (platform, binary, spec, cpuset); survey"),
    m("fleet.machine_us", "us", false, "host us per machine on one thread, everything included; survey sim_req_per_s is threads * 32 / this"),
    m("fleet.setup_share", "ratio", false, "host: share of machine_us spent constructing and dropping the machine (spec, Tcmalloc, LLC, TLB)"),
    m("fleet.busy_share", "ratio", false, "host: share of attributed time in fleet's own code"),
    m("fleet.coverage", "ratio", true, "exact: machines folded over machines planned"),
    m("telemetry.fold_ns", "ns", false, "host ns per CellSummary::fold_arm; survey (a floor, not a target)"),
    m("telemetry.merge_ns", "ns", false, "host ns per CellSummary::merge of one leaf"),
    m("telemetry.codec_us", "us", false, "host us per CellSummary encode + decode"),
    m("telemetry.busy_share", "ratio", false, "host: share of attributed time in telemetry calls"),
    m("telemetry.summary_bytes", "bytes", false, "exact: encoded size of the survey summary"),
    m("parallel.thread_speedup", "ratio", true, "host: 1-thread wall over T-thread wall on the same survey"),
    m("parallel.efficiency", "ratio", true, "thread_speedup over T"),
    m("parallel.cpu_per_wall", "ratio", true, "host CPU seconds per wall second during the T-thread survey"),
    m("parallel.span_imbalance", "ratio", false, "host: slowest over mean wall of the four process_shard_span spans; the slowest span sets the sharded time"),
    m("parallel.frame_us", "us", false, "host us per encode_payload + decode_payload of one summary"),
    m("parallel.shards2_overhead_s", "s", false, "host: wall of the 2-process sharded survey minus its slower span run in-process"),
    m("parallel.identical", "bool", true, "1 when 1-thread, T-thread, shadow, merged-span and 2-process summaries are byte-identical"),
    m("trace.span_cost_ns", "ns", false, "host: calibrated cost of one span boundary, subtracted per segment"),
    m("trace.overhead_pct", "%", false, "host: traced region time over untraced, minus one"),
    m("trace.unattributed_share", "ratio", false, "host: |untraced time - sum of corrected self times| over untraced time"),
    m("sim_digest", "hash", true, "low 48 bits of FNV-64 over the workload's simulated outputs; equal traced and untraced, and across repetitions"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    #[test]
    fn benchmark_json_repeats_the_registry_exactly() {
        let doc = manifest();
        let e2e: Vec<Value> = END_TO_END
            .iter()
            .map(|e| {
                Value::obj([
                    ("name", Value::str(e.name)),
                    ("unit", Value::str(e.unit)),
                    ("better", Value::str(better(e.higher_is_better))),
                    ("bound", Value::Num(e.bound)),
                ])
            })
            .collect();
        assert_eq!(doc.get("end_to_end"), Some(&Value::Arr(e2e)));
        let layers: Vec<Value> = PER_LAYER
            .iter()
            .map(|p| {
                Value::obj([
                    ("name", Value::str(p.name)),
                    ("unit", Value::str(p.unit)),
                    ("better", Value::str(better(p.higher_is_better))),
                ])
            })
            .collect();
        assert_eq!(doc.get("per_layer"), Some(&Value::Arr(layers)));
        let workloads: Vec<Value> = Workload::ALL
            .iter()
            .map(|w| Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))]))
            .collect();
        assert_eq!(doc.get("workloads"), Some(&Value::Arr(workloads)));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|e| e.name).collect();
        names.extend(PER_LAYER.iter().map(|p| p.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for u in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|p| p.unit))
        {
            assert!(unit_ok(u), "{u}");
        }
        assert!(END_TO_END.iter().all(|e| e.bound > 0.0 && e.bound <= 0.25));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }
}
