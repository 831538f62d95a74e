//! Host-time spans, recorded from the benchmark's own files around each
//! call into a layer (spans inside the crates are a later change).
//!
//! A [`Tracer`] keeps a stack of open spans. Every boundary — `begin`, `end`
//! or `switch` — reads the clock once and charges the time since the previous
//! boundary (one *segment*) to the span that was innermost during it, so a
//! span's self time is its duration minus the part its children cover and the
//! self times of all kinds sum to the root's duration exactly.
//!
//! Every segment carries the cost of one boundary (a clock read plus the
//! bookkeeping here). [`calibrate`] measures that cost on empty spans and
//! [`Tracer::self_ns`] subtracts it once per segment.
//!
//! Hot calls only aggregate (count, total, self, log₂ histogram). One request
//! in [`SAMPLE_EVERY`] also keeps its raw spans in memory, written as a Chrome
//! trace when the run ends.

use crate::json::Value;
use std::time::Instant;

/// The simulator's layers; names are the crate names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Workload,
    Tcmalloc,
    SimHw,
    SimOs,
    Fleet,
    Telemetry,
    Parallel,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Workload,
        Layer::Tcmalloc,
        Layer::SimHw,
        Layer::SimOs,
        Layer::Fleet,
        Layer::Telemetry,
        Layer::Parallel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload",
            Layer::Tcmalloc => "tcmalloc",
            Layer::SimHw => "sim-hw",
            Layer::SimOs => "sim-os",
            Layer::Fleet => "fleet",
            Layer::Telemetry => "telemetry",
            Layer::Parallel => "parallel",
        }
    }
}

/// What a span wraps: one public call into a layer, or a loop of the
/// benchmark's mirror of `workload` / `fleet` code whose self time is that
/// layer's own bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The timed region; self time is the generator or driver loop.
    Region,
    /// One request of the shadow driver or one step of the shadow replay.
    Request,
    /// `WorkloadSpec::sample_size` / `sample_lifetime` / `ThreadModel::at`.
    Sample,
    TcmNew,
    TcmDrop,
    Malloc,
    Free,
    Maintain,
    /// Read-only allocator queries (`resident_bytes`, `fragmentation`, ...).
    TcmQuery,
    /// `LlcModel::new` + `TlbSim::new`.
    HwNew,
    Llc,
    Tlb,
    PageSizeOf,
    /// `Population::new` + `cycle_sampler` + `RolloutSchedule::staged`.
    Population,
    /// Generating one survey machine's cell (platform, binary, spec, cpuset).
    Spec,
    /// One survey machine; self time is per-machine bookkeeping.
    Machine,
    Fold,
    Merge,
    Codec,
    Frame,
}

impl Kind {
    pub const ALL: [Kind; 20] = [
        Kind::Region,
        Kind::Request,
        Kind::Sample,
        Kind::TcmNew,
        Kind::TcmDrop,
        Kind::Malloc,
        Kind::Free,
        Kind::Maintain,
        Kind::TcmQuery,
        Kind::HwNew,
        Kind::Llc,
        Kind::Tlb,
        Kind::PageSizeOf,
        Kind::Population,
        Kind::Spec,
        Kind::Machine,
        Kind::Fold,
        Kind::Merge,
        Kind::Codec,
        Kind::Frame,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Region => "region",
            Kind::Request => "request",
            Kind::Sample => "sample",
            Kind::TcmNew => "Tcmalloc::new",
            Kind::TcmDrop => "Tcmalloc::drop",
            Kind::Malloc => "malloc",
            Kind::Free => "free",
            Kind::Maintain => "maintain",
            Kind::TcmQuery => "query",
            Kind::HwNew => "LlcModel::new+TlbSim::new",
            Kind::Llc => "LlcModel::access",
            Kind::Tlb => "TlbSim::access",
            Kind::PageSizeOf => "PageTable::page_size_of",
            Kind::Population => "Population::new",
            Kind::Spec => "survey_cell",
            Kind::Machine => "machine",
            Kind::Fold => "CellSummary::fold_arm",
            Kind::Merge => "CellSummary::merge",
            Kind::Codec => "CellSummary::encode+decode",
            Kind::Frame => "encode_payload+decode_payload",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Kind::Region | Kind::Request | Kind::Sample => Layer::Workload,
            Kind::TcmNew
            | Kind::TcmDrop
            | Kind::Malloc
            | Kind::Free
            | Kind::Maintain
            | Kind::TcmQuery => Layer::Tcmalloc,
            Kind::HwNew | Kind::Llc | Kind::Tlb => Layer::SimHw,
            Kind::PageSizeOf => Layer::SimOs,
            Kind::Population | Kind::Spec | Kind::Machine => Layer::Fleet,
            Kind::Fold | Kind::Merge | Kind::Codec => Layer::Telemetry,
            Kind::Frame => Layer::Parallel,
        }
    }
}

/// One request in this many keeps its raw spans.
pub const SAMPLE_EVERY: u64 = 1024;
/// Upper bound on raw spans held in memory.
const RAW_CAP: usize = 400_000;
const HIST_BUCKETS: usize = 40;
const NO_RAW: u32 = u32::MAX;

/// Aggregate of every span of one [`Kind`].
#[derive(Clone, Debug)]
pub struct Agg {
    /// Spans ended.
    pub count: u64,
    /// Sum of span durations, children included, ns.
    pub total_ns: u64,
    /// Sum of the segments during which this kind was innermost, ns.
    pub self_ns: u64,
    /// Number of those segments (each carries one boundary's cost).
    pub segments: u64,
    /// `hist[b]` counts durations in `[2^b, 2^(b+1))` ns.
    pub hist: [u64; HIST_BUCKETS],
}

impl Agg {
    const EMPTY: Agg = Agg {
        count: 0,
        total_ns: 0,
        self_ns: 0,
        segments: 0,
        hist: [0; HIST_BUCKETS],
    };
}

/// A raw span kept for the Chrome trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawSpan {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing raw span, if that was kept too.
    pub parent: Option<u32>,
    /// Shared by every span of one request.
    pub request: u64,
}

struct Frame {
    kind: Kind,
    start_ns: u64,
    raw: u32,
}

pub struct Tracer {
    epoch: Instant,
    last_ns: u64,
    stack: Vec<Frame>,
    agg: [Agg; Kind::ALL.len()],
    request: u64,
    sampling: bool,
    raw: Vec<RawSpan>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            last_ns: 0,
            stack: Vec::with_capacity(16),
            agg: [Agg::EMPTY; Kind::ALL.len()],
            request: 0,
            sampling: false,
            raw: Vec::new(),
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the request the following spans belong to.
    #[inline]
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
        self.sampling = id.is_multiple_of(SAMPLE_EVERY);
    }

    #[inline]
    pub fn begin(&mut self, kind: Kind) {
        let now = self.now_ns();
        self.begin_at(kind, now);
    }

    /// Ends the innermost span and returns its duration in ns (uncorrected).
    #[inline]
    pub fn end(&mut self) -> u64 {
        let now = self.now_ns();
        self.end_at(now)
    }

    /// Ends the innermost span and begins a sibling on one clock read, so the
    /// parent is charged nothing between them. Returns the ended span's
    /// duration in ns (uncorrected).
    #[inline]
    pub fn switch(&mut self, kind: Kind) -> u64 {
        let now = self.now_ns();
        self.switch_at(kind, now)
    }

    pub fn begin_at(&mut self, kind: Kind, now: u64) {
        self.charge_segment(now);
        self.open(kind, now);
    }

    pub fn end_at(&mut self, now: u64) -> u64 {
        self.charge_segment(now);
        self.close(now)
    }

    pub fn switch_at(&mut self, kind: Kind, now: u64) -> u64 {
        self.charge_segment(now);
        let dur = self.close(now);
        self.open(kind, now);
        dur
    }

    /// Charges the time since the previous boundary to the innermost span.
    #[inline]
    fn charge_segment(&mut self, now: u64) {
        if let Some(top) = self.stack.last() {
            let a = &mut self.agg[top.kind as usize];
            a.self_ns += now - self.last_ns;
            a.segments += 1;
        }
        self.last_ns = now;
    }

    fn open(&mut self, kind: Kind, now: u64) {
        let raw = if self.sampling && self.raw.len() < RAW_CAP {
            let parent = self.stack.last().map(|f| f.raw).filter(|&r| r != NO_RAW);
            self.raw.push(RawSpan {
                kind,
                start_ns: now,
                end_ns: now,
                parent,
                request: self.request,
            });
            (self.raw.len() - 1) as u32
        } else {
            NO_RAW
        };
        self.stack.push(Frame {
            kind,
            start_ns: now,
            raw,
        });
    }

    fn close(&mut self, now: u64) -> u64 {
        let frame = self.stack.pop().expect("end without a matching begin");
        let dur = now - frame.start_ns;
        let a = &mut self.agg[frame.kind as usize];
        a.count += 1;
        a.total_ns += dur;
        a.hist[(63 - dur.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)] += 1;
        if frame.raw != NO_RAW {
            self.raw[frame.raw as usize].end_ns = now;
        }
        dur
    }

    pub fn agg(&self, kind: Kind) -> &Agg {
        &self.agg[kind as usize]
    }

    #[cfg(test)]
    pub fn raw_spans(&self) -> &[RawSpan] {
        &self.raw
    }

    /// Self time of `kind` with the boundary cost taken off every segment.
    pub fn self_ns(&self, kind: Kind, segment_cost_ns: f64) -> f64 {
        let a = self.agg(kind);
        (a.self_ns as f64 - a.segments as f64 * segment_cost_ns).max(0.0)
    }

    /// Corrected self time of all of a layer's kinds.
    pub fn layer_self_ns(&self, layer: Layer, segment_cost_ns: f64) -> f64 {
        Kind::ALL
            .iter()
            .filter(|k| k.layer() == layer)
            .map(|&k| self.self_ns(k, segment_cost_ns))
            .sum()
    }

    /// Mean duration of one `kind` call with the boundary cost taken off;
    /// meaningful for leaf spans, whose duration is one segment. 0 if none.
    pub fn mean_call_ns(&self, kind: Kind, segment_cost_ns: f64) -> f64 {
        let a = self.agg(kind);
        if a.count == 0 {
            return 0.0;
        }
        (a.total_ns as f64 / a.count as f64 - segment_cost_ns).max(0.0)
    }

    /// Upper edge of the log₂ bucket holding the `q` quantile of the
    /// durations of `kinds` taken together, ns. 0 when there are none.
    pub fn quantile_upper_ns(&self, kinds: &[Kind], q: f64) -> f64 {
        let mut hist = [0u64; HIST_BUCKETS];
        for &k in kinds {
            for (h, c) in hist.iter_mut().zip(self.agg(k).hist) {
                *h += c;
            }
        }
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, c) in hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (1u64 << (b + 1)) as f64;
            }
        }
        (1u64 << HIST_BUCKETS) as f64
    }

    /// The kept raw spans in Chrome's trace-event format (`chrome://tracing`
    /// or <https://ui.perfetto.dev>): one complete (`"X"`) event per span, one
    /// thread lane per layer.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let lane = |l: Layer| Layer::ALL.iter().position(|&x| x == l).expect("listed") as f64;
        let mut events: Vec<Value> = Layer::ALL
            .iter()
            .map(|&l| {
                Value::obj([
                    ("name", Value::str("thread_name")),
                    ("ph", Value::str("M")),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(lane(l))),
                    ("args", Value::obj([("name", Value::str(l.name()))])),
                ])
            })
            .collect();
        events.extend(self.raw.iter().enumerate().map(|(i, s)| {
            Value::obj([
                ("name", Value::str(s.kind.name())),
                ("cat", Value::str(s.kind.layer().name())),
                ("ph", Value::str("X")),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(lane(s.kind.layer()))),
                (
                    "args",
                    Value::obj([
                        ("id", Value::Num(i as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                        ),
                        ("request", Value::Num(s.request as f64)),
                    ]),
                ),
            ])
        }));
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            (
                "otherData",
                Value::obj([
                    ("workload", Value::str(workload)),
                    ("clock", Value::str("host, ns since the traced run began")),
                    (
                        "sampled",
                        Value::str(format!("1 request in {SAMPLE_EVERY}")),
                    ),
                ]),
            ),
        ])
    }
}

/// Cost of one boundary as each segment sees it, ns: the mean self time of
/// empty spans and of the gaps between them.
pub fn calibrate() -> f64 {
    const PAIRS: u64 = 1_000_000;
    let mut t = Tracer::new();
    t.begin(Kind::Region);
    for i in 0..PAIRS {
        t.set_request(i + 1);
        t.begin(Kind::Malloc);
        std::hint::black_box(&mut t);
        t.end();
    }
    t.end();
    let (outer, inner) = (t.agg(Kind::Region), t.agg(Kind::Malloc));
    (outer.self_ns + inner.self_ns) as f64 / (outer.segments + inner.segments) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_rows_sum_to_the_parent() {
        let mut t = Tracer::new();
        t.begin_at(Kind::Region, 100);
        t.begin_at(Kind::Request, 110);
        t.begin_at(Kind::Malloc, 120);
        assert_eq!(t.end_at(150), 30);
        t.begin_at(Kind::Llc, 155);
        // One timestamp ends Llc and begins Tlb; Request is charged nothing.
        assert_eq!(t.switch_at(Kind::Tlb, 170), 15);
        assert_eq!(t.end_at(200), 30);
        assert_eq!(t.end_at(230), 120);
        assert_eq!(t.end_at(300), 200);

        let request = t.agg(Kind::Request);
        let children =
            t.agg(Kind::Malloc).total_ns + t.agg(Kind::Llc).total_ns + t.agg(Kind::Tlb).total_ns;
        assert_eq!(request.self_ns, request.total_ns - children);
        assert_eq!(request.self_ns, 10 + 5 + 30);
        let region = t.agg(Kind::Region);
        assert_eq!(region.self_ns, region.total_ns - request.total_ns);
        let all_self: u64 = Kind::ALL.iter().map(|&k| t.agg(k).self_ns).sum();
        assert_eq!(all_self, region.total_ns, "self times sum to the root");
        // One segment per uninterrupted stretch: Request had three.
        assert_eq!(request.segments, 3);
        assert_eq!(t.self_ns(Kind::Request, 5.0), 45.0 - 15.0);
        assert_eq!(t.layer_self_ns(Layer::SimHw, 0.0), 45.0);
    }

    #[test]
    fn sampled_requests_keep_their_whole_tree() {
        let mut t = Tracer::new();
        t.begin_at(Kind::Region, 0);
        for (req, base) in [(SAMPLE_EVERY, 10), (SAMPLE_EVERY + 1, 100)] {
            t.set_request(req);
            t.begin_at(Kind::Request, base);
            t.begin_at(Kind::Malloc, base + 1);
            t.end_at(base + 5);
            t.end_at(base + 9);
        }
        t.end_at(200);
        let raw = t.raw_spans();
        assert_eq!(raw.len(), 2, "only the sampled request is kept");
        assert_eq!((raw[0].kind, raw[0].parent), (Kind::Request, None));
        assert_eq!((raw[1].kind, raw[1].parent), (Kind::Malloc, Some(0)));
        assert_eq!(
            (raw[1].start_ns, raw[1].end_ns, raw[1].request),
            (11, 15, SAMPLE_EVERY)
        );
        let trace = t.chrome_trace("w");
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), Layer::ALL.len() + 2);
    }

    #[test]
    fn histogram_quantile_reports_bucket_upper_edge() {
        let mut t = Tracer::new();
        for (i, dur) in [100u64, 100, 100, 5000].into_iter().enumerate() {
            let start = i as u64 * 10_000;
            t.begin_at(Kind::Free, start);
            t.end_at(start + dur);
        }
        assert_eq!(t.quantile_upper_ns(&[Kind::Free], 0.5), 128.0);
        assert_eq!(t.quantile_upper_ns(&[Kind::Free], 0.99), 8192.0);
        assert_eq!(t.quantile_upper_ns(&[Kind::Malloc], 0.99), 0.0);
    }

    #[test]
    fn calibration_is_a_small_positive_cost() {
        let c = calibrate();
        assert!(c > 0.0 && c < 5_000.0, "{c} ns per boundary");
    }
}
