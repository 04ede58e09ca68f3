//! Pluggable search objectives: what "best configuration" means.
//!
//! The paper ranks candidates by simulated device time alone, which lets
//! the tuner pick a factorization whose temporaries would never fit on a
//! real device. An [`Objective`] generalizes the ranking to a weighted
//! combination of simulated time, peak live temporary bytes and global
//! read/write volume (following omeco's `ScoreFunction`: time/space/
//! read-write weights plus a space target), with an optional hard memory
//! budget that either prunes oversized versions from the pool before
//! evaluation or penalizes them into irrelevance ([`BudgetMode`]).
//!
//! The default objective is time-only with no budget, and its score *is*
//! the raw simulated time (bit-for-bit — see [`Objective::score`]), so
//! every existing pick, timing line and stored plan is reproduced exactly.
//! Plans record the objective they were tuned under (schema v4), and
//! replay refuses a plan whose recorded objective differs from the one
//! requested — a memory-capped plan must never silently serve a time-only
//! query or vice versa.

use crate::json::Json;

/// What happens to a candidate whose modeled peak temporary footprint
/// exceeds the objective's memory budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetMode {
    /// Remove over-budget versions from the pool before lowering or
    /// evaluating them (the default): they cost nothing and can never win.
    Prune,
    /// Keep over-budget candidates in the pool but add a penalty large
    /// enough that any within-budget survivor outranks them. Their
    /// evaluations still train the surrogate (useful on spaces where
    /// pruning would gut the pool), but the final pick refuses them just
    /// like [`BudgetMode::Prune`]: if nothing within budget survives, the
    /// search fails with a typed error rather than exceeding the cap.
    Penalize,
}

impl BudgetMode {
    /// Stable serialization tag (`prune` / `penalize`).
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetMode::Prune => "prune",
            BudgetMode::Penalize => "penalize",
        }
    }

    /// Inverse of [`BudgetMode::as_str`].
    pub fn from_tag(tag: &str) -> Option<BudgetMode> {
        match tag {
            "prune" => Some(BudgetMode::Prune),
            "penalize" => Some(BudgetMode::Penalize),
            _ => None,
        }
    }
}

/// Additive score penalty for an over-budget candidate under
/// [`BudgetMode::Penalize`]: far larger than any real weighted score
/// (times are microseconds, footprints mebibytes), scaled by the
/// overshoot so less-oversized candidates still order sensibly.
const OVER_BUDGET_PENALTY: f64 = 1e12;

/// A search objective: the scalar the tuner minimizes.
///
/// `score = time_weight * t_us + mem_weight * peak_MiB + rw_weight * rw_MiB`
///
/// where `t_us` is the simulated device time in microseconds, `peak_MiB`
/// the peak live temporary footprint and `rw_MiB` the total global-memory
/// read+write volume of the candidate's versions (both modeled in
/// [`crate::stages::lower`]). `Copy`, like [`TuneParams`], so it threads
/// through parameter structs by value.
///
/// [`TuneParams`]: crate::pipeline::TuneParams
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objective {
    pub time_weight: f64,
    pub mem_weight: f64,
    pub rw_weight: f64,
    /// Hard cap on modeled peak temporary bytes, when set.
    pub mem_budget: Option<u64>,
    /// How over-budget candidates are handled. Irrelevant without a
    /// budget.
    pub budget_mode: BudgetMode,
}

impl Default for Objective {
    fn default() -> Self {
        Objective::time_only()
    }
}

impl Objective {
    /// The paper's objective: simulated time, nothing else. The default.
    pub fn time_only() -> Objective {
        Objective {
            time_weight: 1.0,
            mem_weight: 0.0,
            rw_weight: 0.0,
            mem_budget: None,
            budget_mode: BudgetMode::Prune,
        }
    }

    /// Memory-first preset: footprint dominates, time breaks ties.
    pub fn memory() -> Objective {
        Objective {
            time_weight: 1.0,
            mem_weight: 8.0,
            rw_weight: 1.0,
            mem_budget: None,
            budget_mode: BudgetMode::Prune,
        }
    }

    /// Balanced preset: time leads, footprint and traffic both matter.
    pub fn balanced() -> Objective {
        Objective {
            time_weight: 1.0,
            mem_weight: 1.0,
            rw_weight: 0.25,
            mem_budget: None,
            budget_mode: BudgetMode::Prune,
        }
    }

    /// Parses a preset name (`time` / `memory` / `balanced`).
    pub fn preset(name: &str) -> Option<Objective> {
        match name {
            "time" => Some(Objective::time_only()),
            "memory" => Some(Objective::memory()),
            "balanced" => Some(Objective::balanced()),
            _ => None,
        }
    }

    /// The objective a tuning request asks for, from the CLI's flags or a
    /// daemon request's fields alike: the preset (time-only when absent),
    /// then the weight overrides, then the budget. Weights must be finite
    /// and non-negative, and `penalize` needs a budget to penalize against.
    pub fn from_request(
        preset: Option<&str>,
        mem_weight: Option<f64>,
        rw_weight: Option<f64>,
        mem_budget: Option<u64>,
        penalize: bool,
    ) -> Result<Objective, String> {
        let mut o = match preset {
            None => Objective::time_only(),
            Some(name) => Objective::preset(name)
                .ok_or_else(|| format!("unknown objective preset {name} (time|memory|balanced)"))?,
        };
        for (name, weight, slot) in [
            ("memory", mem_weight, &mut o.mem_weight),
            ("read/write", rw_weight, &mut o.rw_weight),
        ] {
            if let Some(w) = weight {
                if !w.is_finite() || w < 0.0 {
                    return Err(format!(
                        "the {name} weight must be finite and non-negative, not {w}"
                    ));
                }
                *slot = w;
            }
        }
        o.mem_budget = mem_budget;
        if penalize {
            if mem_budget.is_none() {
                return Err("penalizing over-budget candidates needs a memory budget".to_string());
            }
            o.budget_mode = BudgetMode::Penalize;
        }
        Ok(o)
    }

    /// Whether this objective ranks by raw simulated time alone: no
    /// memory or traffic weight and no budget. [`Objective::score`] is
    /// the identity on time for such objectives, which is what keeps the
    /// default pipeline bit-identical to the pre-objective builds.
    pub fn is_time_only(&self) -> bool {
        self.mem_weight == 0.0 && self.rw_weight == 0.0 && self.mem_budget.is_none()
    }

    /// Whether `peak_bytes` exceeds the budget (always `false` without
    /// one).
    pub fn over_budget(&self, peak_bytes: u64) -> bool {
        self.mem_budget.is_some_and(|b| peak_bytes > b)
    }

    /// Scores one candidate (lower = better).
    ///
    /// Time-only objectives return `time_s` unchanged — same bits, so
    /// ranking, tie-breaking and every recorded evaluation value match
    /// the historical raw-time pipeline exactly. (A bare `time_weight`
    /// rescale would not change the ranking either, so the fast path
    /// ignores it.) Weighted objectives combine microseconds with
    /// mebibytes; under [`BudgetMode::Penalize`] an over-budget candidate
    /// additionally pays `OVER_BUDGET_PENALTY` scaled by its overshoot.
    pub fn score(&self, time_s: f64, peak_bytes: u64, rw_bytes: u64) -> f64 {
        if self.is_time_only() {
            return time_s;
        }
        let mib = 1.0 / (1024.0 * 1024.0);
        let mut s = self.time_weight * time_s * 1e6
            + self.mem_weight * peak_bytes as f64 * mib
            + self.rw_weight * rw_bytes as f64 * mib;
        if let Some(budget) = self.mem_budget {
            if self.budget_mode == BudgetMode::Penalize && peak_bytes > budget {
                let overshoot = (peak_bytes - budget) as f64 / (budget.max(1)) as f64;
                s += OVER_BUDGET_PENALTY * (1.0 + overshoot);
            }
        }
        s
    }

    /// Bit-exact equality: same weights (by `f64::to_bits`), budget and
    /// mode. This is what plan replay compares — `PartialEq` would call
    /// `-0.0` and `0.0` equal and `NaN` unequal to itself.
    pub fn same_as(&self, other: &Objective) -> bool {
        self.time_weight.to_bits() == other.time_weight.to_bits()
            && self.mem_weight.to_bits() == other.mem_weight.to_bits()
            && self.rw_weight.to_bits() == other.rw_weight.to_bits()
            && self.mem_budget == other.mem_budget
            && self.budget_mode == other.budget_mode
    }

    /// Stable 64-bit digest (FNV-1a over the weight bits, budget and
    /// mode), used by the serving daemon's coalescing key: two requests
    /// merge only when they tune under the same objective.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.time_weight.to_bits().to_le_bytes());
        eat(&self.mem_weight.to_bits().to_le_bytes());
        eat(&self.rw_weight.to_bits().to_le_bytes());
        match self.mem_budget {
            Some(b) => {
                eat(&[1]);
                eat(&b.to_le_bytes());
            }
            None => eat(&[0]),
        }
        eat(&[self.budget_mode as u8]);
        h
    }

    /// Human-readable form for timing lines and `plans list`:
    /// `time-only`, or e.g. `time*1+mem*8+rw*1, budget 1048576 B (prune)`.
    pub fn describe(&self) -> String {
        if self.is_time_only() {
            return "time-only".to_string();
        }
        let mut s = format!(
            "time*{}+mem*{}+rw*{}",
            self.time_weight, self.mem_weight, self.rw_weight
        );
        if let Some(b) = self.mem_budget {
            s.push_str(&format!(" budget {b} B ({})", self.budget_mode.as_str()));
        }
        s
    }

    /// The objective as a JSON object (weights round-trip bit-exactly via
    /// shortest `Display`; the budget travels as a decimal string, like
    /// every `u64` in the plan schema).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("time_weight".into(), Json::Num(self.time_weight)),
            ("mem_weight".into(), Json::Num(self.mem_weight)),
            ("rw_weight".into(), Json::Num(self.rw_weight)),
            (
                "mem_budget".into(),
                match self.mem_budget {
                    Some(b) => Json::Str(b.to_string()),
                    None => Json::Null,
                },
            ),
            (
                "budget_mode".into(),
                Json::Str(self.budget_mode.as_str().to_string()),
            ),
        ])
    }

    /// Inverse of [`Objective::to_json`].
    pub fn from_json(v: &Json) -> Result<Objective, String> {
        let weight = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("objective: missing numeric field `{key}`"))
        };
        let mem_budget =
            match v.get("mem_budget") {
                None | Some(Json::Null) => None,
                Some(b) => Some(b.as_str().and_then(|s| s.parse::<u64>().ok()).ok_or_else(
                    || "objective: `mem_budget` must be a decimal u64 string".to_string(),
                )?),
            };
        let budget_mode = match v.get("budget_mode") {
            None => BudgetMode::Prune,
            Some(m) => m
                .as_str()
                .and_then(BudgetMode::from_tag)
                .ok_or_else(|| "objective: unknown `budget_mode`".to_string())?,
        };
        Ok(Objective {
            time_weight: weight("time_weight")?,
            mem_weight: weight("mem_weight")?,
            rw_weight: weight("rw_weight")?,
            mem_budget,
            budget_mode,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_time_only_and_score_is_the_identity_on_time() {
        let o = Objective::default();
        assert!(o.is_time_only());
        for t in [0.0, 1.5e-6, 3.25e-4, f64::MIN_POSITIVE, 1e300] {
            assert_eq!(o.score(t, u64::MAX, u64::MAX).to_bits(), t.to_bits());
        }
        assert!(!o.over_budget(u64::MAX));
    }

    #[test]
    fn weighted_score_combines_time_memory_and_traffic() {
        let o = Objective {
            time_weight: 1.0,
            mem_weight: 2.0,
            rw_weight: 0.5,
            mem_budget: None,
            budget_mode: BudgetMode::Prune,
        };
        let mib = 1024 * 1024;
        let s = o.score(3e-6, 4 * mib, 8 * mib);
        assert!((s - (3.0 + 8.0 + 4.0)).abs() < 1e-9, "{s}");
    }

    #[test]
    fn penalize_mode_dominates_any_within_budget_score() {
        let o = Objective {
            mem_budget: Some(1024),
            budget_mode: BudgetMode::Penalize,
            ..Objective::balanced()
        };
        let fits = o.score(1.0, 1024, 0); // one full second, within budget
        let busts = o.score(1e-9, 2048, 0); // instant, but over budget
        assert!(busts > fits);
        // More overshoot scores worse.
        assert!(o.score(1e-9, 4096, 0) > busts);
    }

    #[test]
    fn prune_mode_adds_no_penalty_to_the_score() {
        let prune = Objective {
            mem_budget: Some(1024),
            budget_mode: BudgetMode::Prune,
            ..Objective::balanced()
        };
        let capless = Objective {
            mem_budget: None,
            ..Objective::balanced()
        };
        assert_eq!(
            prune.score(1e-6, 2048, 512).to_bits(),
            capless.score(1e-6, 2048, 512).to_bits(),
            "pruning happens in the pool, not the score"
        );
        assert!(prune.over_budget(2048));
        assert!(!prune.over_budget(1024));
    }

    #[test]
    fn presets_parse_and_digest_distinctly() {
        let time = Objective::preset("time").unwrap();
        let memory = Objective::preset("memory").unwrap();
        let balanced = Objective::preset("balanced").unwrap();
        assert!(time.is_time_only());
        assert!(!memory.is_time_only());
        assert!(Objective::preset("speed").is_none());
        let digests = [time.digest(), memory.digest(), balanced.digest()];
        assert_ne!(digests[0], digests[1]);
        assert_ne!(digests[1], digests[2]);
        assert_ne!(digests[0], digests[2]);
        // Budget changes the digest too.
        let capped = Objective {
            mem_budget: Some(1 << 20),
            ..balanced
        };
        assert_ne!(capped.digest(), balanced.digest());
    }

    #[test]
    fn json_roundtrip_is_bit_lossless() {
        let objectives = [
            Objective::time_only(),
            Objective::memory(),
            Objective {
                time_weight: 0.1 + 0.2, // a value with an untidy binary tail
                mem_weight: 3.5,
                rw_weight: 1e-30,
                mem_budget: Some(u64::MAX),
                budget_mode: BudgetMode::Penalize,
            },
        ];
        for o in objectives {
            let text = o.to_json().to_string_compact();
            let back = Objective::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert!(o.same_as(&back), "{text}");
        }
    }

    #[test]
    fn same_as_compares_bits_not_values() {
        let a = Objective::time_only();
        let mut b = a;
        assert!(a.same_as(&b));
        b.mem_weight = -0.0;
        assert!(!a.same_as(&b), "-0.0 must not pass for 0.0");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn describe_names_the_parts() {
        assert_eq!(Objective::time_only().describe(), "time-only");
        let capped = Objective {
            mem_budget: Some(2048),
            ..Objective::balanced()
        };
        let d = capped.describe();
        assert!(d.contains("mem*1"), "{d}");
        assert!(d.contains("budget 2048 B (prune)"), "{d}");
    }

    #[test]
    fn requests_build_the_preset_then_the_overrides_then_the_budget() {
        let cases = [
            (None, None, None, None, false, Objective::time_only()),
            (
                Some("time"),
                None,
                None,
                None,
                false,
                Objective::time_only(),
            ),
            (Some("memory"), None, None, None, false, Objective::memory()),
            (
                Some("balanced"),
                None,
                None,
                None,
                false,
                Objective::balanced(),
            ),
            (
                Some("memory"),
                Some(2.5),
                Some(0.0),
                None,
                false,
                Objective {
                    mem_weight: 2.5,
                    rw_weight: 0.0,
                    ..Objective::memory()
                },
            ),
            (
                None,
                None,
                Some(0.5),
                None,
                false,
                Objective {
                    rw_weight: 0.5,
                    ..Objective::time_only()
                },
            ),
            (
                Some("balanced"),
                None,
                None,
                Some(4096),
                false,
                Objective {
                    mem_budget: Some(4096),
                    ..Objective::balanced()
                },
            ),
            (
                None,
                None,
                None,
                Some(4096),
                true,
                Objective {
                    mem_budget: Some(4096),
                    budget_mode: BudgetMode::Penalize,
                    ..Objective::time_only()
                },
            ),
        ];
        for (preset, mem, rw, budget, penalize, want) in cases {
            let got = Objective::from_request(preset, mem, rw, budget, penalize).unwrap();
            assert!(got.same_as(&want), "{preset:?} {mem:?} {rw:?}: {got:?}");
        }
    }
}
