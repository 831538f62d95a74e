//! Experiment scale selection.
//!
//! `REPRO_SCALE=quick|default|full|fleet` controls how many requests,
//! seeds, and machines every experiment uses. `quick` is for CI smoke
//! tests; `full` is what EXPERIMENTS.md quotes; `fleet` is the 10⁵-machine
//! streaming survey tier (`repro fleet`).

use wsc_fleet::experiment::{FleetExperimentConfig, FleetSurveyConfig};
use wsc_parallel::Engine;

/// Environment override: survey machine count (chaos tests shrink it so
/// debug-build shard children stay fast; the supervisor pins it to shard
/// children so every process agrees on the fold tree).
pub const SURVEY_MACHINES_ENV: &str = "WSC_SURVEY_MACHINES";
/// Environment override: requests simulated per survey machine.
pub const SURVEY_REQUESTS_ENV: &str = "WSC_SURVEY_REQUESTS";
/// Environment override: binary population behind the survey.
pub const SURVEY_POPULATION_ENV: &str = "WSC_SURVEY_POPULATION";

/// Experiment sizing knobs.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Human-readable scale name.
    pub name: &'static str,
    /// Requests per single-workload run.
    pub requests: u64,
    /// Seeds averaged for paired A/B runs.
    pub seeds: Vec<u64>,
    /// Machines per arm in fleet experiments.
    pub fleet_machines: usize,
    /// Requests per binary in fleet experiments.
    pub fleet_requests: u64,
    /// Machines in the streaming fleet survey.
    pub survey_machines: usize,
    /// Requests simulated per survey machine (short probes — the survey
    /// gets statistical power from machine count, not run length).
    pub survey_requests: u64,
    /// Binary population behind the survey.
    pub survey_population: usize,
    /// Execution engine experiments submit work through. Thread count
    /// never changes results (canonical-order merge), only wall-clock.
    pub engine: Engine,
}

impl Scale {
    /// Reads `REPRO_SCALE` from the environment (unset: `default`). The
    /// engine honours `WSC_THREADS` (unset: the machine's available
    /// parallelism). The survey knobs additionally honour
    /// [`SURVEY_MACHINES_ENV`], [`SURVEY_REQUESTS_ENV`] and
    /// [`SURVEY_POPULATION_ENV`] — the shard supervisor pins them in child
    /// environments so parent and children always agree on the fold tree.
    /// A value that does not parse is a usage error (stderr names the
    /// variable and what it accepts, exit 2): a typo must not quietly run
    /// another scale.
    pub fn from_env() -> Self {
        Self::from_vars(|k| std::env::var(k).ok()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// [`from_env`](Self::from_env) over any lookup, so the parse is
    /// testable without ambient process state.
    fn from_vars(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut scale = match get("REPRO_SCALE").as_deref() {
            None | Some("default") => Self::default_scale(),
            Some("quick") => Self::quick(),
            Some("full") => Self::full(),
            Some("fleet") => Self::fleet(),
            Some(other) => {
                return Err(format!(
                    "REPRO_SCALE={other:?}: expected quick, default, full or fleet"
                ))
            }
        };
        let count = |k: &str| match get(k) {
            None => Ok(None),
            Some(v) => match v.trim().parse::<u64>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!("{k}={v:?}: expected a positive integer")),
            },
        };
        if let Some(t) = count(wsc_parallel::THREADS_ENV)? {
            scale.engine = Engine::new(usize::try_from(t).unwrap_or(usize::MAX));
        }
        if let Some(m) = count(SURVEY_MACHINES_ENV)? {
            scale.survey_machines = usize::try_from(m).unwrap_or(usize::MAX);
        }
        if let Some(r) = count(SURVEY_REQUESTS_ENV)? {
            scale.survey_requests = r;
        }
        if let Some(p) = count(SURVEY_POPULATION_ENV)? {
            scale.survey_population = usize::try_from(p).unwrap_or(usize::MAX);
        }
        Ok(scale)
    }

    /// CI smoke scale.
    pub fn quick() -> Self {
        Self {
            name: "quick",
            requests: 6_000,
            seeds: vec![42],
            fleet_machines: 3,
            fleet_requests: 6_000,
            survey_machines: 600,
            survey_requests: 64,
            survey_population: 300,
            engine: Engine::from_env(),
        }
    }

    /// The everyday scale.
    pub fn default_scale() -> Self {
        Self {
            name: "default",
            requests: 25_000,
            seeds: vec![41, 42, 43],
            fleet_machines: 10,
            fleet_requests: 15_000,
            survey_machines: 20_000,
            survey_requests: 48,
            survey_population: 2_000,
            engine: Engine::from_env(),
        }
    }

    /// The publication scale used for EXPERIMENTS.md.
    pub fn full() -> Self {
        Self {
            name: "full",
            requests: 40_000,
            seeds: vec![41, 42, 43, 44],
            fleet_machines: 16,
            fleet_requests: 25_000,
            survey_machines: 40_000,
            survey_requests: 40,
            survey_population: 4_000,
            engine: Engine::from_env(),
        }
    }

    /// The warehouse tier: a 10⁵-machine streaming survey. Only the survey
    /// knobs grow — the paired A/B experiments stay at the everyday scale.
    pub fn fleet() -> Self {
        Self {
            name: "fleet",
            survey_machines: 100_000,
            survey_requests: 32,
            survey_population: 10_000,
            ..Self::default_scale()
        }
    }

    /// Overrides the execution engine (the `--threads` flag).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = Engine::new(threads);
        self
    }

    /// Fleet experiment configuration at this scale.
    pub fn fleet_config(&self, seed: u64) -> FleetExperimentConfig {
        FleetExperimentConfig {
            machines: self.fleet_machines,
            requests_per_binary: self.fleet_requests,
            seed,
            population: 2_000,
        }
    }

    /// Streaming fleet-survey configuration at this scale. The rollout
    /// stage is pinned to the 50% wave so both arms carry real weight.
    pub fn survey_config(&self, seed: u64) -> FleetSurveyConfig {
        FleetSurveyConfig {
            machines: self.survey_machines,
            requests_per_machine: self.survey_requests,
            seed,
            platform_mix: wsc_fleet::experiment::default_platform_mix(),
            population: self.survey_population,
            diurnal_period_ns: 1_000_000,
            rollout_stage: 2,
        }
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().requests < Scale::default_scale().requests);
        assert!(Scale::default_scale().requests < Scale::full().requests);
    }

    #[test]
    fn fleet_config_carries_scale() {
        let s = Scale::quick();
        let c = s.fleet_config(1);
        assert_eq!(c.machines, s.fleet_machines);
        assert_eq!(c.requests_per_binary, s.fleet_requests);
    }

    #[test]
    fn fleet_tier_surveys_warehouse_scale() {
        let s = Scale::fleet();
        assert_eq!(s.survey_machines, 100_000);
        let c = s.survey_config(7);
        assert_eq!(c.machines, 100_000);
        assert_eq!(c.requests_per_machine, s.survey_requests);
        // The paired A/B experiments stay at the everyday scale.
        assert_eq!(s.fleet_machines, Scale::default_scale().fleet_machines);
    }

    #[test]
    fn survey_overrides_resize_only_the_survey() {
        let vars = |set: &'static [(&str, &str)]| {
            Scale::from_vars(move |k| set.iter().find(|kv| kv.0 == k).map(|kv| kv.1.to_string()))
        };
        let s = vars(&[
            ("REPRO_SCALE", "quick"),
            (SURVEY_MACHINES_ENV, "120"),
            (SURVEY_REQUESTS_ENV, " 8 "),
            (SURVEY_POPULATION_ENV, "64"),
        ])
        .unwrap();
        assert_eq!(s.survey_machines, 120);
        assert_eq!(s.survey_requests, 8);
        assert_eq!(s.survey_population, 64);
        assert_eq!(s.requests, Scale::quick().requests, "A/B knobs untouched");
        let threaded = vars(&[(wsc_parallel::THREADS_ENV, "3")]).unwrap();
        assert_eq!(threaded.engine.threads(), 3);
        assert_eq!(vars(&[]).unwrap().name, "default", "unset is the default");
        // A typo, garbage or zero is a usage error naming the variable.
        for (var, bad) in [
            ("REPRO_SCALE", "ful"),
            (SURVEY_MACHINES_ENV, "12O"),
            (SURVEY_MACHINES_ENV, "0"),
            (SURVEY_REQUESTS_ENV, "nope"),
            (SURVEY_POPULATION_ENV, "-3"),
            (wsc_parallel::THREADS_ENV, "abc"),
            (wsc_parallel::THREADS_ENV, "0"),
        ] {
            let err = Scale::from_vars(|k| (k == var).then(|| bad.to_string())).unwrap_err();
            assert!(err.contains(var) && err.contains(bad), "{err}");
        }
        let err = vars(&[("REPRO_SCALE", "ful")]).unwrap_err();
        assert!(err.contains("quick, default, full or fleet"), "{err}");
    }

    /// A seeded fuzz of the parse over its five variables, each unset, set
    /// to a value it accepts (padded, with leading zeros or a `+`) or to
    /// one it refuses (a near miss, zero, a sign, an overflow, random
    /// text). An input with a refused value is an `Err` naming the first
    /// such variable in parse order and its value; every other input is
    /// its scale with exactly the overrides it sets. Parse only: no engine
    /// runs and no variable is set.
    #[test]
    fn the_scale_parse_is_total_and_exact() {
        use wsc_prng::SmallRng;
        const VARS: [&str; 5] = [
            "REPRO_SCALE",
            wsc_parallel::THREADS_ENV,
            SURVEY_MACHINES_ENV,
            SURVEY_REQUESTS_ENV,
            SURVEY_POPULATION_ENV,
        ];
        let noise = |rng: &mut SmallRng| -> String {
            const ALPHABET: &[char] = &['0', '1', '9', '-', '+', ' ', '.', 'e', 'x', 'q', 'é'];
            (0..rng.gen_range(0usize..8))
                .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
                .collect()
        };
        for case in 0..4_000u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            // Per variable: unset, or its text and the value it parses to.
            let mut set: Vec<Option<(String, Option<u64>)>> = Vec::new();
            for (i, _) in VARS.iter().enumerate() {
                let entry = match rng.gen_range(0u32..4) {
                    0 => None,
                    1 if i == 0 => {
                        let text = ["ful", "Quick", " quick", "quick ", "", "fleets"]
                            [rng.gen_range(0usize..6)];
                        Some((text.to_string(), None))
                    }
                    1 => {
                        let text = ["0", "00", "-1", "", "1.0", "0x10", "18446744073709551616"]
                            [rng.gen_range(0usize..7)];
                        Some((text.to_string(), None))
                    }
                    2 if rng.gen_range(0u32..4) == 0 => {
                        let text = noise(&mut rng);
                        let parsed = if i == 0 {
                            ["quick", "default", "full", "fleet"]
                                .contains(&text.as_str())
                                .then_some(0)
                        } else {
                            text.trim().parse::<u64>().ok().filter(|&n| n > 0)
                        };
                        Some((text, parsed))
                    }
                    _ if i == 0 => {
                        let name = ["quick", "default", "full", "fleet"][rng.gen_range(0usize..4)];
                        Some((name.to_string(), Some(0)))
                    }
                    _ => {
                        let n = (rng.gen::<u64>() >> rng.gen_range(0u32..64)).max(1);
                        let digits = match rng.gen_range(0u32..3) {
                            0 => format!("00{n}"),
                            1 => format!("+{n}"),
                            _ => n.to_string(),
                        };
                        let pad = |rng: &mut SmallRng| " ".repeat(rng.gen_range(0usize..3));
                        Some((
                            format!("{}{digits}{}", pad(&mut rng), pad(&mut rng)),
                            Some(n),
                        ))
                    }
                };
                set.push(entry);
            }
            let got = Scale::from_vars(|k| {
                let i = VARS.iter().position(|&v| v == k)?;
                set[i].as_ref().map(|(text, _)| text.clone())
            });
            let refused = set.iter().zip(VARS).find_map(|(entry, var)| match entry {
                Some((text, None)) => Some(format!("{var}={text:?}")),
                _ => None,
            });
            if let Some(named) = refused {
                let err = got.expect_err(&format!("case {case}: {set:?} parsed"));
                assert!(
                    err.contains(&named),
                    "case {case}: {err} does not name {named}"
                );
                continue;
            }
            let s = got.unwrap_or_else(|e| panic!("case {case}: {set:?} refused: {e}"));
            let base = match set[0].as_ref().map(|(text, _)| text.as_str()) {
                Some("quick") => Scale::quick(),
                Some("full") => Scale::full(),
                Some("fleet") => Scale::fleet(),
                _ => Scale::default_scale(),
            };
            let or = |i: usize, base: u64| set[i].as_ref().and_then(|e| e.1).unwrap_or(base);
            let saturated = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
            assert_eq!(s.name, base.name, "case {case}");
            assert_eq!(s.requests, base.requests, "case {case}");
            assert_eq!(s.fleet_machines, base.fleet_machines, "case {case}");
            assert_eq!(
                s.engine.threads(),
                saturated(or(1, base.engine.threads() as u64)).max(1),
                "case {case}"
            );
            assert_eq!(
                s.survey_machines,
                saturated(or(2, base.survey_machines as u64)),
                "case {case}"
            );
            assert_eq!(
                s.survey_requests,
                or(3, base.survey_requests),
                "case {case}"
            );
            assert_eq!(
                s.survey_population,
                saturated(or(4, base.survey_population as u64)),
                "case {case}"
            );
        }
    }
}
