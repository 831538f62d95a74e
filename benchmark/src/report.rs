//! Turns repetitions into reported numbers: medians and quartiles of the
//! end-to-end metrics, the assembled per-layer metrics, the output checks
//! that span repetitions, `result.json`, and the tables `run` and
//! `check-repeat` print.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::result::{spans_json, ChildResult, SpanRow};
use crate::workloads::Workload;

/// Median and quartiles as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them — the rule the driver applies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// # Panics
    ///
    /// Panics on an empty slice: every workload keeps at least one repetition.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no values to summarise");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: quartile(2),
            q1: quartile(1),
            q3: quartile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// The value a run reports: its least-disturbed repetition.
    ///
    /// Every repetition of a seed does bit-identical work (`sim_digest`
    /// checks it), so a repetition's time is the work's time plus whatever the
    /// shared host added, and the host only ever adds. On the sandbox this was
    /// built on, ten runs' fastest repetitions spread 3.6 % (inter-quartile
    /// range over median) where their medians spread 10.6 %.
    pub fn best(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.max
        } else {
            self.min
        }
    }
}

/// The untraced repetitions of one workload.
pub struct RepSet {
    pub workload: Workload,
    /// None is discarded: the reported value is the best repetition, which
    /// a slow first one (cold page cache after a build) can never be.
    pub reps: Vec<ChildResult>,
}

impl RepSet {
    /// One [`Summary`] per [`END_TO_END`] entry, in that order.
    pub fn end_to_end(&self) -> [Summary; END_TO_END.len()] {
        let column =
            |f: fn(&ChildResult) -> f64| Summary::of(&self.reps.iter().map(f).collect::<Vec<_>>());
        [
            column(|r| r.requests as f64 / r.timed_s),
            column(|r| r.setup_s),
            column(|r| r.peak_rss_mb),
        ]
    }

    pub fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.requests).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    pub fn median_timed_s(&self) -> f64 {
        Summary::of(&self.reps.iter().map(|r| r.timed_s).collect::<Vec<_>>()).median
    }

    /// Output checks the children failed, plus the one only the parent can
    /// make: the simulated outputs repeat exactly across repetitions.
    pub fn problems(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .reps
            .iter()
            .flat_map(|r| r.problems.iter().cloned())
            .collect();
        if self
            .reps
            .iter()
            .any(|r| r.sim_digest != self.reps[0].sim_digest)
        {
            out.push("sim_digest differs between repetitions of the same seed".to_string());
        }
        if self.failed() > 0 {
            out.push(format!(
                "{} of {} requests failed",
                self.failed(),
                self.attempted()
            ));
        }
        out
    }
}

/// The per-layer metrics of one workload, from its traced run.
pub struct TracedRun {
    /// One value per [`PER_LAYER`] entry, in that order.
    pub metrics: Vec<f64>,
    pub spans: Vec<SpanRow>,
    pub problems: Vec<String>,
    /// The mirror's simulated output no longer equals the real function's:
    /// the per-layer rows describe code that has since changed.
    pub stale: bool,
}

impl TracedRun {
    /// Orders the traced child's metrics by the registry. `untraced_digest`
    /// is the digest of the untraced repetitions, when there were any.
    ///
    /// # Errors
    ///
    /// Names a registry metric the child did not report exactly once, or one
    /// it reported that the registry lacks.
    pub fn assemble(
        traced: &ChildResult,
        untraced_digest: Option<u64>,
    ) -> Result<TracedRun, String> {
        let part = traced
            .traced
            .as_ref()
            .ok_or("traced child reported no layers")?;
        if let Some((extra, _)) = part
            .layers
            .iter()
            .find(|(k, _)| PER_LAYER.iter().all(|p| p.name != k))
        {
            return Err(format!(
                "traced run reported `{extra}`, which the registry lacks"
            ));
        }
        let value = |name: &str| {
            let mut hits = part.layers.iter().filter(|(k, _)| k == name);
            match (hits.next(), hits.next()) {
                (Some((_, v)), None) => Ok(*v),
                (None, _) => Err(format!("traced run did not report `{name}`")),
                (Some(_), Some(_)) => Err(format!("traced run reported `{name}` twice")),
            }
        };
        let metrics = PER_LAYER
            .iter()
            .map(|p| value(p.name))
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(TracedRun {
            metrics,
            spans: part.spans.clone(),
            problems: traced.problems.clone(),
            stale: value("workload.shadow_faithful")? != 1.0
                || untraced_digest.is_some_and(|d| d != traced.sim_digest),
        })
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The `metrics` object of the driver's result line: every end-to-end metric.
pub fn end_to_end_json(set: &RepSet) -> Value {
    Value::Obj(
        END_TO_END
            .iter()
            .zip(set.end_to_end())
            .map(|(e, s)| {
                (
                    e.name.to_string(),
                    metric_value(s.best(e.higher_is_better), e.unit),
                )
            })
            .collect(),
    )
}

/// The `metrics` object of the driver's result line: every per-layer metric.
pub fn per_layer_json(run: &TracedRun) -> Value {
    Value::Obj(
        PER_LAYER
            .iter()
            .zip(&run.metrics)
            .map(|(p, &v)| (p.name.to_string(), metric_value(v, p.unit)))
            .collect(),
    )
}

/// One workload's entry of `result.json`.
pub fn workload_json(set: &RepSet, traced: &TracedRun) -> Value {
    let mut problems = set.problems();
    problems.extend(traced.problems.iter().cloned());
    let e2e = END_TO_END.iter().zip(set.end_to_end()).map(|(e, s)| {
        (
            e.name.to_string(),
            Value::obj([
                ("value", Value::Num(s.best(e.higher_is_better))),
                ("unit", Value::str(e.unit)),
                ("median", Value::Num(s.median)),
                ("q1", Value::Num(s.q1)),
                ("q3", Value::Num(s.q3)),
                ("n", Value::Num(s.n as f64)),
                ("better", Value::str(better(e.higher_is_better))),
                ("bound", Value::Num(e.bound)),
                ("meaning", Value::str(e.meaning)),
            ]),
        )
    });
    let layers = PER_LAYER.iter().zip(&traced.metrics).map(|(p, &v)| {
        (
            p.name.to_string(),
            Value::obj([
                ("value", Value::Num(v)),
                ("unit", Value::str(p.unit)),
                ("better", Value::str(better(p.higher_is_better))),
                ("meaning", Value::str(p.meaning)),
            ]),
        )
    });
    Value::obj([
        ("name", Value::str(set.workload.name())),
        ("why", Value::str(set.workload.why())),
        ("correct", Value::Bool(problems.is_empty())),
        (
            "problems",
            Value::Arr(problems.iter().map(Value::str).collect()),
        ),
        ("attempted", Value::Num(set.attempted() as f64)),
        ("failed", Value::Num(set.failed() as f64)),
        ("reps", Value::Num(set.reps.len() as f64)),
        ("timed_region_s", Value::Num(set.median_timed_s())),
        (
            "sim_digest",
            Value::str(format!("{:016x}", set.reps[0].sim_digest)),
        ),
        ("end_to_end", Value::Obj(e2e.collect())),
        ("per_layer_stale", Value::Bool(traced.stale)),
        ("per_layer", Value::Obj(layers.collect())),
        ("spans", spans_json(&traced.spans)),
    ])
}

/// Prints one workload's end-to-end rows: the reported value (the best
/// repetition), then what all repetitions looked like.
pub fn print_end_to_end(set: &RepSet) {
    for (e, s) in END_TO_END.iter().zip(set.end_to_end()) {
        println!(
            "{:<15} {:<14} {:>14.4} {:<5} {:>14.4} {:>14.4} {:>14.4} {:>3}  {} is better",
            set.workload.name(),
            e.name,
            s.best(e.higher_is_better),
            e.unit,
            s.median,
            s.q1,
            s.q3,
            s.n,
            better(e.higher_is_better)
        );
    }
}

pub fn print_end_to_end_header() {
    println!(
        "{:<15} {:<14} {:>14} {:<5} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "best rep", "unit", "median", "q1", "q3", "n"
    );
}

/// Prints one workload's per-layer metrics and its span table.
pub fn print_traced(workload: Workload, run: &TracedRun) {
    println!(
        "\n-- {}: per-layer metrics (one traced run) --",
        workload.name()
    );
    if run.stale {
        println!(
            "STALE: the traced mirror's simulated output differs from the real function's; \
             these rows describe code that has since changed"
        );
    }
    for (p, v) in PER_LAYER.iter().zip(&run.metrics) {
        println!("{:<34} {:>16.4}  {}", p.name, v, p.unit);
    }
    println!("\n-- {}: spans by corrected self time --", workload.name());
    println!(
        "{:<10} {:<32} {:>12} {:>12} {:>7}",
        "layer", "span", "count", "self_ms", "share"
    );
    let mut rows: Vec<&SpanRow> = run.spans.iter().collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    for r in rows {
        println!(
            "{:<10} {:<32} {:>12} {:>12.3} {:>6.1}%",
            r.layer,
            r.name,
            r.count,
            r.self_ms,
            r.share * 100.0
        );
    }
}

/// Prints the `check-repeat` table for two sets of the same code and returns
/// whether every reported value of the second is within its bound of the first.
pub fn print_repeat_table(first: &[RepSet], second: &[RepSet]) -> bool {
    println!(
        "{:<15} {:<14} {:>13} {:>13} {:>27} {:>13} {:>13} {:>27} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "best A",
        "median A",
        "[q1, q3] A",
        "best B",
        "median B",
        "[q1, q3] B",
        "gap %",
        "bound %"
    );
    let mut all_within = true;
    for (a, b) in first.iter().zip(second) {
        for ((e, sa), sb) in END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end()) {
            let (va, vb) = (sa.best(e.higher_is_better), sb.best(e.higher_is_better));
            let gap = (vb - va) / va;
            let within = gap.abs() <= e.bound;
            all_within &= within;
            println!(
                "{:<15} {:<14} {:>13.4} {:>13.4} {:>27} {:>13.4} {:>13.4} {:>27} {:>+8.2} {:>7.1}  {}",
                a.workload.name(),
                e.name,
                va,
                sa.median,
                format!("[{:.4}, {:.4}]", sa.q1, sa.q3),
                vb,
                sb.median,
                format!("[{:.4}, {:.4}]", sb.q1, sb.q3),
                gap * 100.0,
                e.bound * 100.0,
                if within { "pass" } else { "FAIL" }
            );
        }
    }
    all_within
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::{run_child, TINY};
    use std::time::Instant;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        assert_eq!((s.min, s.max), (1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!((s.best(true), s.best(false)), (16.0, 1.0));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }

    /// Runs every workload's untraced and traced child in this process at a
    /// tiny size and checks what `run` would write for it.
    #[test]
    fn result_json_names_every_registered_metric_once_with_its_unit() {
        let manifest = json::parse(
            &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root"),
        )
        .expect("BENCHMARK.json parses");
        let listed = |section: &str| -> Vec<(String, String)> {
            manifest
                .get(section)
                .and_then(Value::as_arr)
                .expect("section")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        for workload in Workload::ALL {
            let rep = |traced| run_child(workload, 42, traced, &TINY, Instant::now()).0;
            let set = RepSet {
                workload,
                reps: vec![rep(false), rep(false)],
            };
            assert_eq!(set.problems(), Vec::<String>::new(), "{}", workload.name());
            let traced_child = rep(true);
            // The child's own JSON line survives the pipe to its parent.
            let line = traced_child.to_json().render();
            assert_eq!(
                ChildResult::from_json(&json::parse(&line).unwrap()).unwrap(),
                traced_child
            );
            let traced = TracedRun::assemble(&traced_child, Some(set.reps[0].sim_digest)).unwrap();
            assert!(
                !traced.stale,
                "{}: mirror equals the real function",
                workload.name()
            );
            assert_eq!(traced.problems, Vec::<String>::new(), "{}", workload.name());

            let entry = json::parse(&workload_json(&set, &traced).render_pretty()).unwrap();
            assert_eq!(entry.get("correct"), Some(&Value::Bool(true)));
            for section in ["end_to_end", "per_layer"] {
                let reported = entry
                    .get(section)
                    .and_then(Value::as_obj)
                    .expect("metrics object");
                let expected = listed(section);
                assert_eq!(
                    reported.len(),
                    expected.len(),
                    "{} {section}",
                    workload.name()
                );
                for (name, unit) in expected {
                    let hits: Vec<_> = reported.iter().filter(|(k, _)| *k == name).collect();
                    assert_eq!(hits.len(), 1, "{name} appears once");
                    assert_eq!(
                        hits[0].1.get("unit").and_then(Value::as_str),
                        Some(unit.as_str())
                    );
                    assert!(
                        hits[0].1.get("value").and_then(Value::as_f64).is_some(),
                        "{name} has a value"
                    );
                    assert!(name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                }
            }
            // The layers a workload bypasses really do report nothing.
            let value =
                |name: &str| traced.metrics[PER_LAYER.iter().position(|p| p.name == name).unwrap()];
            assert_eq!(value("workload.shadow_faithful"), 1.0);
            match workload {
                Workload::AllocFastpath | Workload::ReplayChurn => {
                    assert_eq!(value("sim-hw.llc_accesses"), 0.0);
                    assert_eq!(value("fleet.machine_us"), 0.0);
                    assert!(value("tcmalloc.busy_share") > 0.3);
                }
                Workload::DriverSteady => {
                    assert!(value("sim-hw.llc_accesses") > 0.0);
                    assert!(value("sim-hw.tlb_accesses") > 0.0);
                    assert_eq!(value("fleet.machine_us"), 0.0);
                }
                Workload::Survey => {
                    assert!(value("fleet.machine_us") > 0.0);
                    assert_eq!(value("fleet.coverage"), 1.0);
                    assert_eq!(value("parallel.identical"), 1.0);
                    assert!(value("telemetry.summary_bytes") > 0.0);
                }
            }
        }
    }

    #[test]
    fn a_changed_digest_is_reported() {
        let rep = |digest| ChildResult {
            setup_s: 0.1,
            timed_s: 1.0,
            requests: 10,
            failed: 0,
            peak_rss_mb: 5.0,
            sim_digest: digest,
            problems: Vec::new(),
            traced: None,
        };
        let set = RepSet {
            workload: Workload::DriverSteady,
            reps: vec![rep(1), rep(2)],
        };
        assert_eq!(set.problems().len(), 1);
        let mut failing = rep(1);
        failing.failed = 3;
        let set = RepSet {
            workload: Workload::DriverSteady,
            reps: vec![failing],
        };
        assert_eq!(set.problems(), vec!["3 of 10 requests failed".to_string()]);
    }
}
