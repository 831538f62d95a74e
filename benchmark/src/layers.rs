//! Turns one traced run's spans and exact counts into the per-layer metrics.
//!
//! A traced child times the same fixed work twice in one process: first
//! through the crates' real functions (the *reference*), then through the
//! mirrors with spans on. The difference, divided by the number of segments,
//! is what one span boundary cost *in this run* — more than an empty span
//! costs in a tight loop, because each clock read also fences the pipeline
//! and evicts a little of the simulator's state. That in-situ cost is taken
//! off every segment, so corrected self times add up to the reference time;
//! what is left over (`trace.unattributed_share`) is time taken off kinds
//! whose spans are shorter than the boundary cost, where clamping at zero
//! loses it.

use crate::result::{SpanRow, TracedPart};
use crate::shadow::{Counts, TIERS};
use crate::spans::{Kind, Layer, Tracer};
use crate::workloads::threads;

/// Raw material of one traced run.
pub struct Traced {
    pub tracer: Tracer,
    pub counts: Counts,
    /// Untraced time of the same work in the same process, s.
    pub reference_s: f64,
    /// Time of the traced region, s.
    pub traced_s: f64,
    /// The mirror's digest equals the real function's.
    pub faithful: bool,
    pub sim_digest: u64,
    pub setup: SetupExtras,
    pub survey: Option<SurveyExtras>,
}

/// What a workload times in set-up because its region does none of it.
#[derive(Default)]
pub struct SetupExtras {
    /// `Tcmalloc::new`, us.
    pub tcm_new_us: Option<f64>,
    /// (ns per draw, draws) of the spec sampling.
    pub samples: Option<(f64, u64)>,
    pub trace_record_s: f64,
}

/// What only the survey's traced run measures.
pub struct SurveyExtras {
    pub coverage: f64,
    pub summary_bytes: usize,
    pub thread_speedup: f64,
    pub cpu_per_wall: f64,
    pub span_imbalance: f64,
    pub shards_overhead_s: f64,
    pub identical: bool,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

pub fn traced_part(t: &Traced) -> TracedPart {
    let tr = &t.tracer;
    let c = &t.counts;
    // Codec and frame calls are timed after the region, outside it.
    let in_region = |k: &Kind| !matches!(k, Kind::Codec | Kind::Frame);
    let region_kinds = || Kind::ALL.iter().filter(|k| in_region(k)).copied();
    let segments: u64 = region_kinds().map(|k| tr.agg(k).segments).sum();
    let cost = ratio((t.traced_s - t.reference_s).max(0.0) * 1e9, segments as f64);
    let self_ns = |k: Kind| tr.self_ns(k, cost);
    let attributed_ns: f64 = region_kinds().map(self_ns).sum();
    let share = |layer: Layer| ratio(tr.layer_self_ns(layer, cost), attributed_ns);
    let count = |k: Kind| tr.agg(k).count as f64;
    let calls = c.tier_calls.iter().sum::<u64>() as f64;

    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    put("tcmalloc.malloc_ns", tr.mean_call_ns(Kind::Malloc, cost));
    put("tcmalloc.free_ns", tr.mean_call_ns(Kind::Free, cost));
    put(
        "tcmalloc.maintain_ns",
        tr.mean_call_ns(Kind::Maintain, cost),
    );
    put("tcmalloc.query_ns", tr.mean_call_ns(Kind::TcmQuery, cost));
    put(
        "tcmalloc.call_ns_p99",
        tr.quantile_upper_ns(&[Kind::Malloc, Kind::Free, Kind::Maintain], 0.99),
    );
    for (i, tier) in TIERS.iter().enumerate() {
        let mean = ratio(c.tier_host_ns[i] as f64, c.tier_calls[i] as f64);
        put(&format!("tcmalloc.host_ns_{tier}"), (mean - cost).max(0.0));
    }
    for (i, tier) in TIERS.iter().enumerate() {
        put(&format!("tcmalloc.calls_{tier}"), c.tier_calls[i] as f64);
    }
    put(
        "tcmalloc.percpu_hit_ratio",
        ratio(c.tier_calls[0] as f64, calls),
    );
    put("tcmalloc.sim_ns_per_op", ratio(c.sim_alloc_ns, calls));
    put(
        "tcmalloc.host_ns_per_sim_ns",
        ratio(self_ns(Kind::Malloc) + self_ns(Kind::Free), c.sim_alloc_ns),
    );
    put("tcmalloc.busy_share", share(Layer::Tcmalloc));
    let new_and_drop_ns = self_ns(Kind::TcmNew) + self_ns(Kind::TcmDrop);
    put(
        "tcmalloc.new_us",
        t.setup
            .tcm_new_us
            .unwrap_or_else(|| ratio(new_and_drop_ns, count(Kind::TcmNew)) / 1e3),
    );

    put("sim-hw.llc_ns", tr.mean_call_ns(Kind::Llc, cost));
    put("sim-hw.tlb_ns", tr.mean_call_ns(Kind::Tlb, cost));
    put("sim-hw.busy_share", share(Layer::SimHw));
    put("sim-hw.new_us", tr.mean_call_ns(Kind::HwNew, cost) / 1e3);
    put("sim-hw.llc_accesses", c.llc.accesses as f64);
    put("sim-hw.llc_miss_ratio", c.llc.miss_rate());
    put("sim-hw.tlb_accesses", c.tlb.accesses as f64);
    put("sim-hw.tlb_walk_ratio", c.tlb.walk_rate());

    put(
        "sim-os.page_size_of_ns",
        tr.mean_call_ns(Kind::PageSizeOf, cost),
    );
    put("sim-os.busy_share", share(Layer::SimOs));
    put("sim-os.mmap_calls", c.mmap_calls as f64);
    put("sim-os.madvise_calls", c.madvise_calls as f64);
    put(
        "sim-os.peak_resident_mb",
        c.peak_resident_bytes as f64 / (1u64 << 20) as f64,
    );
    put(
        "sim-os.hugepage_coverage",
        ratio(c.hugepage_coverage_sum, c.machines as f64),
    );

    let (sample_ns, samples) = t.setup.samples.unwrap_or((
        tr.mean_call_ns(Kind::Sample, cost),
        tr.agg(Kind::Sample).count,
    ));
    put("workload.sample_ns", sample_ns);
    put("workload.samples", samples as f64);
    put("workload.trace_record_s", t.setup.trace_record_s);
    put(
        "workload.driver_self_ns_per_req",
        ratio(
            self_ns(Kind::Region) + self_ns(Kind::Request),
            c.requests as f64,
        ),
    );
    put(
        "workload.cold_req_cost_ratio",
        ratio(
            ratio(c.cold_req_ns as f64, c.cold_reqs as f64),
            ratio(c.warm_req_ns as f64, c.warm_reqs as f64),
        ),
    );
    put("workload.busy_share", share(Layer::Workload));
    put("workload.shadow_faithful", flag(t.faithful));

    // Everything that happens once per machine, whichever layer does it.
    let per_machine_ns: f64 = region_kinds()
        .filter(|k| !matches!(k, Kind::Region | Kind::Population | Kind::Merge))
        .map(self_ns)
        .sum();
    let construct_ns = self_ns(Kind::Spec) + new_and_drop_ns + self_ns(Kind::HwNew);
    let machines = count(Kind::Machine);
    let s = t.survey.as_ref();
    put("fleet.population_new_ms", self_ns(Kind::Population) / 1e6);
    put("fleet.spec_us", tr.mean_call_ns(Kind::Spec, cost) / 1e3);
    // Other workloads construct an allocator too, but have no machines.
    let (machine_us, setup_share) = if machines > 0.0 {
        (
            per_machine_ns / machines / 1e3,
            ratio(construct_ns, per_machine_ns),
        )
    } else {
        (0.0, 0.0)
    };
    put("fleet.machine_us", machine_us);
    put("fleet.setup_share", setup_share);
    put("fleet.busy_share", share(Layer::Fleet));
    put("fleet.coverage", s.map_or(0.0, |s| s.coverage));

    put("telemetry.fold_ns", tr.mean_call_ns(Kind::Fold, cost));
    put("telemetry.merge_ns", tr.mean_call_ns(Kind::Merge, cost));
    put(
        "telemetry.codec_us",
        tr.mean_call_ns(Kind::Codec, cost) / 1e3,
    );
    put("telemetry.busy_share", share(Layer::Telemetry));
    put(
        "telemetry.summary_bytes",
        s.map_or(0.0, |s| s.summary_bytes as f64),
    );

    put(
        "parallel.thread_speedup",
        s.map_or(0.0, |s| s.thread_speedup),
    );
    put(
        "parallel.efficiency",
        s.map_or(0.0, |s| s.thread_speedup / threads() as f64),
    );
    put("parallel.cpu_per_wall", s.map_or(0.0, |s| s.cpu_per_wall));
    put(
        "parallel.span_imbalance",
        s.map_or(0.0, |s| s.span_imbalance),
    );
    put(
        "parallel.frame_us",
        tr.mean_call_ns(Kind::Frame, cost) / 1e3,
    );
    put(
        "parallel.shards2_overhead_s",
        s.map_or(0.0, |s| s.shards_overhead_s),
    );
    put("parallel.identical", s.map_or(0.0, |s| flag(s.identical)));

    put("trace.span_cost_ns", cost);
    put(
        "trace.overhead_pct",
        (ratio(t.traced_s, t.reference_s) - 1.0) * 100.0,
    );
    put(
        "trace.unattributed_share",
        ratio(
            (t.reference_s * 1e9 - attributed_ns).abs(),
            t.reference_s * 1e9,
        ),
    );
    // A u64 does not fit a JSON number; 48 bits do.
    put("sim_digest", (t.sim_digest & 0xffff_ffff_ffff) as f64);

    let spans = Kind::ALL
        .iter()
        .filter(|&&k| tr.agg(k).count > 0)
        .map(|&k| SpanRow {
            name: k.name().to_string(),
            layer: k.layer().name().to_string(),
            count: tr.agg(k).count,
            self_ms: self_ns(k) / 1e6,
            share: if in_region(&k) {
                ratio(self_ns(k), attributed_ns)
            } else {
                0.0
            },
        })
        .collect();
    TracedPart { layers: out, spans }
}
