//! One-shot checks: DSL source text to the full report, and the two
//! workloads built from them.
//!
//! A check compiles the program, grows its tree from the prior to the
//! horizon, runs the paper's analysis of one proper action (µ(C@a | a),
//! Theorem 6.2's expectation and Corollary 7.2's PAK bound) and
//! evaluates a formula batch and one measure with the batched engine.
//! Every call into a crate sits inside a span named after that crate.

use std::time::{Duration, Instant};

use pak_core::belief::ActionAnalysis;
use pak_core::fact::StateFact;
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::Pps;
use pak_core::state::SimpleState;
use pak_core::theorems::{check_expectation, check_pak_corollary, ExpectationReport, PakReport};
use pak_dsl::compile_str;
use pak_dsl::fuzz::{fuzz_program, FuzzConfig};
use pak_engine::{Evaluator, Verdict};
use pak_logic::generator::{random_formula, RandomFormulaConfig};
use pak_logic::{Formula, ModelChecker};
use pak_num::Rational;
use pak_protocol::unfold::{unfold_with, UnfoldConfig, Unfolder};

use crate::gen::{self, Rung};
use crate::trace::Tracer;

/// A formula over the DSL's states.
pub type F = Formula<SimpleState, Rational>;

/// Node cap for every unfold; the top rung has about 10^6 nodes.
const MAX_NODES: usize = 4 << 20;

/// What one check is asked: the program and the constraint
/// "C holds with probability ≥ p when `agent` performs `action`".
#[derive(Clone)]
pub struct CheckInput {
    /// DSL source text.
    pub src: String,
    /// The acting agent.
    pub agent: AgentId,
    /// The proper action.
    pub action: ActionId,
    /// The fact C.
    pub constraint: F,
    /// The engine's formula batch.
    pub formulas: Vec<F>,
    /// The time at which the engine measures C.
    pub measure_time: Time,
}

/// What a check answers about the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Answers {
    /// Tree nodes, the phantom root included.
    pub nodes: usize,
    /// One verdict per batch formula.
    pub verdicts: Vec<Verdict>,
    /// µ of C at the measure time.
    pub measure: Rational,
    /// µ(C@a | a).
    pub mu: Rational,
    /// Whether µ(C@a | a) ≥ p.
    pub meets_p: bool,
}

/// What a check reports about the paper's theorems for the action.
#[derive(Debug, Clone, PartialEq)]
pub struct Theorems {
    /// Whether local-state independence holds.
    pub independent: bool,
    /// µ(C@a | a) as Theorem 6.2's check computes it.
    pub mu: Rational,
    /// E[β(C)@a | a].
    pub expected_belief: Rational,
    /// Whether Theorem 6.2's equality holds.
    pub expectation_equal: bool,
    /// Whether Corollary 7.2's premise holds.
    pub pak_premise: bool,
    /// µ(β(C)@a ≥ 1 − ε | a).
    pub pak_strong_belief: Rational,
    /// Whether Corollary 7.2's implication holds.
    pub pak_implication: bool,
}

impl Theorems {
    /// The paper's theorems as output checks: Theorem 6.2's equality
    /// wherever independence holds, and Corollary 7.2's implication.
    #[must_use]
    pub fn violation(&self) -> Option<String> {
        if self.independent && (!self.expectation_equal || self.mu != self.expected_belief) {
            return Some(format!(
                "Theorem 6.2 fails under independence: µ = {} but E[β] = {}",
                self.mu, self.expected_belief
            ));
        }
        if !self.pak_implication {
            return Some("Corollary 7.2's implication fails".to_string());
        }
        None
    }
}

/// The full report of one check.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The answers.
    pub answers: Answers,
    /// The theorem checks.
    pub theorems: Theorems,
}

/// The constraint's threshold p and the PAK slack ε.
fn p_threshold() -> Rational {
    Rational::from_ratio(9, 10)
}

fn pak_eps() -> Rational {
    Rational::from_ratio(1, 10)
}

/// Counts the traced run reports about the trees it checked.
#[derive(Debug, Clone, Default)]
pub struct TreeStats {
    /// Trees observed.
    pub trees: u64,
    /// Summed nodes.
    pub nodes: u64,
    /// Summed runs.
    pub runs: u64,
    /// Summed cells.
    pub cells: u64,
    /// Summed `Pps::memory_footprint`.
    pub tree_bytes: u64,
    /// Widest run-probability denominator seen, in bits.
    pub den_bits_max: u64,
    /// Runs whose probability's denominator is wider than 64 bits.
    pub wide_runs: u64,
    /// Summed interned subformulas of the engine.
    pub subformulas: u64,
}

impl TreeStats {
    fn observe(&mut self, pps: &Pps<SimpleState, Rational>, subformulas: usize) {
        self.trees += 1;
        self.nodes += pps.num_nodes() as u64;
        self.runs += pps.num_runs() as u64;
        self.cells += pps.num_cells() as u64;
        self.tree_bytes += pps.memory_footprint() as u64;
        self.subformulas += subformulas as u64;
        for run in pps.run_ids() {
            let bits = pps.run_probability(run).denom().bits();
            self.den_bits_max = self.den_bits_max.max(bits);
            self.wide_runs += u64::from(bits > 64);
        }
    }
}

/// A finished check and its wall time, which leaves out the traced
/// run's tree inspection.
pub struct Checked {
    /// The report.
    pub report: Report,
    /// Wall time from source text to report, tree freed.
    pub wall: Duration,
}

/// Runs one check. With `stats`, the tree is inspected after the report
/// is complete, outside the reported wall time.
///
/// # Errors
///
/// A typed error from any layer, as text.
pub fn check(
    input: &CheckInput,
    tr: &mut Tracer,
    req: u64,
    stats: Option<&mut TreeStats>,
) -> Result<Checked, String> {
    let start = Instant::now();
    let mut inspect = Duration::ZERO;
    tr.open("bench.check", req);
    let report = check_inner(input, tr, req, stats, &mut inspect);
    tr.close();
    Ok(Checked {
        report: report?,
        wall: start.elapsed().saturating_sub(inspect),
    })
}

fn check_inner(
    input: &CheckInput,
    tr: &mut Tracer,
    req: u64,
    stats: Option<&mut TreeStats>,
    inspect: &mut Duration,
) -> Result<Report, String> {
    let compiled = tr
        .span("pak-dsl.compile_str", req, || {
            compile_str::<Rational>(&input.src)
        })
        .map_err(|e| format!("compile: {e}"))?;
    let config = UnfoldConfig {
        max_nodes: MAX_NODES,
        horizon: Some(0),
        ..UnfoldConfig::default()
    };
    let mut unfolder = tr
        .span("pak-protocol.Unfolder::new", req, || {
            Unfolder::new(compiled.model(), config)
        })
        .map_err(|e| format!("unfold: {e}"))?;
    while tr
        .span("pak-protocol.extend_horizon", req, || {
            unfolder.extend_horizon()
        })
        .map_err(|e| format!("extend: {e}"))?
    {}
    let pps = unfolder.pps();
    let (agent, action, fact) = (input.agent, input.action, &input.constraint);
    let analysis = tr
        .span("pak-core.ActionAnalysis::new", req, || {
            ActionAnalysis::new(pps, agent, action, fact)
        })
        .map_err(|e| format!("analysis: {e}"))?;
    let expectation = tr
        .span("pak-core.check_expectation", req, || {
            check_expectation(pps, agent, action, fact)
        })
        .map_err(|e| format!("expectation: {e}"))?;
    let pak = tr
        .span("pak-core.check_pak_corollary", req, || {
            check_pak_corollary(pps, agent, action, fact, &pak_eps())
        })
        .map_err(|e| format!("pak: {e}"))?;
    let mut ev = tr.span("pak-engine.Evaluator::new", req, || Evaluator::new(pps));
    let verdicts = tr.span("pak-engine.evaluate_batch", req, || {
        ev.evaluate_batch(&input.formulas)
    });
    let measure = tr.span("pak-engine.measure_at_time", req, || {
        ev.measure_at_time(fact, input.measure_time)
    });
    if let Some(stats) = stats {
        let t = Instant::now();
        let subformulas = ev.num_subformulas();
        tr.span("bench.inspect", req, || stats.observe(pps, subformulas));
        *inspect += t.elapsed();
    }
    let report = Report {
        answers: Answers {
            nodes: pps.num_nodes(),
            verdicts,
            measure,
            mu: analysis.constraint_probability(),
            meets_p: analysis.satisfies_constraint(&p_threshold()),
        },
        theorems: theorems(expectation, pak),
    };
    drop(ev);
    tr.span("pak-protocol.Unfolder::drop", req, || drop(unfolder));
    Ok(report)
}

fn theorems(expectation: ExpectationReport<Rational>, pak: PakReport<Rational>) -> Theorems {
    Theorems {
        independent: expectation.independence.independent,
        mu: expectation.lhs,
        expected_belief: expectation.rhs,
        expectation_equal: expectation.equal,
        pak_premise: pak.premise_holds,
        pak_strong_belief: pak.strong_belief_measure,
        pak_implication: pak.implication_holds,
    }
}

/// The reference answers to `input`, computed without the extender: a
/// from-scratch unfold and `pak-core`'s action analysis, with the
/// verdicts and the measure from the naive `ModelChecker` when `naive`
/// is set and from the engine otherwise (the naive checker is too slow
/// for the ladder). With `naive`, the theorem checks run on the
/// from-scratch tree too; otherwise they are left to the first check.
///
/// # Errors
///
/// A typed error from any layer, as text.
pub fn reference(input: &CheckInput, naive: bool) -> Result<(Answers, Option<Theorems>), String> {
    let compiled = compile_str::<Rational>(&input.src).map_err(|e| format!("compile: {e}"))?;
    let config = UnfoldConfig {
        max_nodes: MAX_NODES,
        ..UnfoldConfig::default()
    };
    let pps = unfold_with(compiled.model(), &config).map_err(|e| format!("unfold: {e}"))?;
    let (agent, action, fact) = (input.agent, input.action, &input.constraint);
    let (verdicts, measure) = if naive {
        let mc = ModelChecker::new(&pps);
        let verdicts = input
            .formulas
            .iter()
            .map(|f| Verdict {
                valid: mc.valid(f),
                satisfiable: mc.satisfiable(f),
                counterexample: mc.counterexample(f),
                satisfying_points: mc.satisfying_points(f).len(),
            })
            .collect();
        (verdicts, mc.measure_at_time(fact, input.measure_time))
    } else {
        let mut ev = Evaluator::new(&pps);
        let verdicts = ev.evaluate_batch(&input.formulas);
        (verdicts, ev.measure_at_time(fact, input.measure_time))
    };
    let analysis =
        ActionAnalysis::new(&pps, agent, action, fact).map_err(|e| format!("analysis: {e}"))?;
    let answers = Answers {
        nodes: pps.num_nodes(),
        verdicts,
        measure,
        mu: analysis.constraint_probability(),
        meets_p: analysis.satisfies_constraint(&p_threshold()),
    };
    if !naive {
        return Ok((answers, None));
    }
    let expectation =
        check_expectation(&pps, agent, action, fact).map_err(|e| format!("expectation: {e}"))?;
    let pak = check_pak_corollary(&pps, agent, action, fact, &pak_eps())
        .map_err(|e| format!("pak: {e}"))?;
    Ok((answers, Some(theorems(expectation, pak))))
}

fn env_is(v: u64) -> F {
    Formula::atom(StateFact::new(
        format!("env={v}"),
        move |g: &SimpleState| g.env == v,
    ))
}

/// How many `check_corpus` programs have a tree of 2-3, 4-7, 8-15,
/// 16-31, 32-63 and 64 or more nodes: the shares among 40,000 fuzzed
/// programs with a proper action, so every seed's corpus has the same
/// size profile.
pub const CORPUS_PROFILE: [usize; 6] = [88, 792, 772, 298, 44, 6];

/// `check_corpus` inputs: fuzzed programs with a proper action, as many
/// of each tree size as [`CORPUS_PROFILE`] asks, each with a seeded
/// formula batch and constraint. Programs without a proper action are
/// skipped, so no check fails.
#[must_use]
pub fn corpus_inputs(seed: u64) -> Vec<CheckInput> {
    let mut wanted = CORPUS_PROFILE;
    let mut inputs = Vec::with_capacity(CORPUS_PROFILE.iter().sum());
    let cfg = FuzzConfig::default();
    let mut case = seed.wrapping_mul(1_000_003);
    while wanted.iter().any(|&w| w > 0) {
        case = case.wrapping_add(1);
        let src = fuzz_program(case, &cfg);
        let compiled = compile_str::<Rational>(&src).expect("fuzzed programs compile");
        let model = compiled.model();
        let pps = unfold_with::<_, Rational>(model, &UnfoldConfig::default())
            .expect("fuzzed programs unfold");
        let proper = (0..cfg.max_agents)
            .filter_map(|i| compiled.agent(&format!("ag{i}")))
            .flat_map(|a| {
                (0..cfg.max_actions)
                    .filter_map(|j| compiled.action(&format!("act{j}")))
                    .map(move |act| (a, act))
            })
            .find(|&(a, act)| pps.is_proper(a, act));
        let Some((agent, action)) = proper else {
            continue;
        };
        let size_class = (usize::BITS - pps.num_nodes().leading_zeros()).clamp(2, 7) as usize - 2;
        if wanted[size_class] == 0 {
            continue;
        }
        wanted[size_class] -= 1;
        let n_agents = pps.num_agents();
        let formulas = (0..4u64)
            .map(|k| {
                let rcfg = RandomFormulaConfig {
                    max_depth: (k % 3) as u32,
                    n_agents,
                    n_actions: 2,
                    env_values: 3,
                    local_values: 2,
                };
                random_formula::<Rational>(case.wrapping_mul(977).wrapping_add(k * 131 + 17), &rcfg)
            })
            .collect();
        inputs.push(CheckInput {
            src,
            agent,
            action,
            constraint: env_is(case % 3),
            formulas,
            measure_time: (case % u64::from(model.horizon + 1)) as Time,
        });
    }
    inputs
}

/// The fixed formula batch of a ladder program: what `a` knows about
/// the environment, what `b` believes about `a`, and whether `a` acts.
#[must_use]
pub fn ladder_formulas() -> Vec<F> {
    let low_env = Formula::atom(StateFact::new("env<2", |g: &SimpleState| g.env < 2));
    let a_informed = Formula::atom(StateFact::new("la=1", |g: &SimpleState| g.locals[0] == 1));
    vec![
        Formula::knows(AgentId(0), low_env),
        Formula::believes_at_least(AgentId(1), a_informed, Rational::from_ratio(1, 2)),
        Formula::does(AgentId(0), ActionId(0)).eventually(),
    ]
}

/// The `check_deep` input for `rung`: C is "env < 2" when `a` acts.
#[must_use]
pub fn ladder_input(rung: &Rung, seed: u64) -> CheckInput {
    CheckInput {
        src: gen::program(rung, seed),
        agent: AgentId(0),
        action: ActionId(0),
        constraint: Formula::atom(StateFact::new("env<2", |g: &SimpleState| g.env < 2)),
        formulas: ladder_formulas(),
        measure_time: rung.action_time() as Time,
    }
}
