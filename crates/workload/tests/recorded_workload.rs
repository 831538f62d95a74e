//! A recorded trace is the workload `driver::run` runs. `Trace::record`
//! runs the driver's generator on CPUs 0..16, so replaying its events on a
//! fresh allocator must make the calls a driver run on that cpuset and seed
//! makes, in the same order at the same simulated times: the allocator's
//! whole event stream (every tier's hits, misses, spans and releases) is
//! compared, event for event, up to the frees a trace ends with. Those
//! must free exactly the objects the driver run leaves live.

use wsc_sim_hw::topology::{CpuId, Platform};
use wsc_sim_os::clock::Clock;
use wsc_tcmalloc::{AllocEvent, Tcmalloc, TcmallocConfig, TraceRing};
use wsc_workload::driver::{self, DriverConfig};
use wsc_workload::profiles;
use wsc_workload::trace::{Trace, TraceEvent};

/// Requests each comparison runs: 0.3–0.42 s of simulated time for these
/// profiles, past the driver's second load evaluation at 250 ms.
const REQUESTS: usize = 12_000;

fn stream(tcm: &Tcmalloc) -> Vec<AllocEvent> {
    tcm.trace().expect("trace ring configured").stream()
}

#[test]
fn replaying_a_recording_makes_the_driver_runs_allocator_calls() {
    let platform = Platform::chiplet("chiplet-64c", 2, 4, 8, 2);
    let cfg = TcmallocConfig::optimized().with_trace(TraceRing::UNBOUNDED);
    for spec in [profiles::fleet_mix(), profiles::redis(), profiles::disk()] {
        for seed in [1, 42, 1042] {
            let what = format!("{} seed {seed}", spec.name);
            // The allocation count at a request boundary: what the first
            // `REQUESTS` requests of a longer recording allocate.
            let longer = Trace::record(
                &spec,
                (2.0 * REQUESTS as f64 * spec.allocs_per_request) as u64,
                seed,
            );
            let allocations = longer
                .events
                .iter()
                .scan(0, |advances, ev| {
                    *advances += u64::from(matches!(*ev, TraceEvent::Advance { .. }));
                    Some((*advances, ev))
                })
                .take_while(|&(advances, _)| advances < REQUESTS as u64)
                .filter(|(_, ev)| matches!(**ev, TraceEvent::Alloc { .. }))
                .count() as u64;
            let trace = Trace::record(&spec, allocations, seed);

            // The requests, each ending in its `Advance`, then the teardown.
            let events: Vec<TraceEvent> = trace.events.iter().map(|ev| *ev).collect();
            let body = 1 + events
                .iter()
                .rposition(|ev| matches!(ev, TraceEvent::Advance { .. }))
                .expect("a request");
            let (requests, teardown) = events.split_at(body);
            let advances = requests
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::Advance { .. }))
                .count();
            assert_eq!(advances, REQUESTS, "{what}: one advance a request");
            assert!(
                teardown
                    .iter()
                    .all(|ev| matches!(ev, TraceEvent::Free { cpu: 0, .. })),
                "{what}: the trace ends in frees on CPU 0"
            );

            let clock = Clock::new();
            let mut replayed = Tcmalloc::new(cfg, platform.clone(), clock.clone());
            Trace {
                name: trace.name.clone(),
                events: requests.iter().copied().collect(),
            }
            .replay(&mut replayed, &clock);

            let dcfg = DriverConfig::new(REQUESTS as u64, seed, &platform)
                .with_cpuset((0..16).map(CpuId).collect());
            let (report, driven) = driver::run(&spec, &platform, cfg, &dcfg);
            assert_eq!(report.failed_allocs, 0, "{what}");

            let (want, got) = (stream(&driven), stream(&replayed));
            if let Some(i) = (0..want.len().min(got.len())).find(|&i| want[i] != got[i]) {
                panic!(
                    "{what}: event {i} of the replay is {:?}, the driver's {:?}",
                    got[i], want[i]
                );
            }
            assert_eq!(got.len(), want.len(), "{what}: stream lengths");
            assert!(!want.is_empty(), "{what}");
            assert_eq!(clock.now_ns(), (report.sim_seconds * 1e9).round() as u64);
            assert_eq!(
                format!("{:?}", replayed.cycles()),
                format!("{:?}", driven.cycles()),
                "{what}"
            );
            assert_eq!(teardown.len() as u64, driven.live_objects(), "{what}");
        }
    }
}
