//! Differential proof for the protocol DSL: compiled programs are
//! bit-identical to a direct AST interpretation, at every horizon, under
//! every adversary, and through the batched engine.
//!
//! The reference implementation is [`AstModel`]: a [`ProtocolModel`] that
//! *interprets* the parsed [`Program`] on every call — linear scans over
//! the declaration lists, name resolution on the fly, no tables, no
//! indexes, no compilation step. It shares nothing with the compiler
//! except the AST itself, so agreement means the whole pipeline
//! (`compile` → [`TableModel`] → index → unfold) preserves the program's
//! semantics exactly.
//!
//! The sweep drives ≥ 100 grammar-fuzzed programs (seeded, reproducible)
//! through four stages per program:
//!
//! 1. unfold the compiled [`TableModel`] vs unfold the [`AstModel`] —
//!    identical in the strict id-level sense of
//!    [`common::assert_identical_systems`], for the base model *and*
//!    every adversary variant;
//! 2. grow the compiled model one horizon step at a time through
//!    [`Unfolder::extend_horizon`] and compare against a from-scratch
//!    unfold at every intermediate horizon;
//! 3. evaluate a batch of random formulas with the `pak-engine`
//!    [`Evaluator`] and compare every verdict against the naive
//!    [`ModelChecker`];
//! 4. pretty-print the AST and re-parse it, asserting structural equality
//!    (spans excluded) and print-fixpoint.
//!
//! The DSL twins of `pak_systems::dsl_twins` are proved here too: each
//! twin program unfolds bit-identically to its hand-written scenario
//! model.

mod common;

use std::marker::PhantomData;

use pak::core::ids::{ActionId, AgentId, Time};
use pak::core::prob::Probability;
use pak::core::state::SimpleState;
use pak::dsl::ast::{GuardPat, MoveAction, Program, TransRule};
use pak::dsl::fuzz::{fuzz_program, FuzzConfig};
use pak::dsl::{compile, parse};
use pak::engine::Evaluator;
use pak::logic::generator::{random_formula, RandomFormulaConfig};
use pak::logic::{Formula, ModelChecker};
use pak::num::Rational;
use pak::protocol::model::ProtocolModel;
use pak::protocol::unfold::{unfold, unfold_with, UnfoldConfig, Unfolder};
use pak::systems::dsl_twins::{
    figure1_hand, flat_hand, judge_hand, threshold_hand, FIGURE1_TWIN, FLAT_TWIN, JUDGE_TWIN,
    THRESHOLD_TWIN,
};

/// Fuzzed programs swept through the full chain (the acceptance bar is
/// ≥ 100; the exact-count assert keeps it from eroding silently).
const FUZZ_CASES: u64 = 120;

/// A direct interpreter of the parsed AST: every query scans the
/// declarations afresh. Deliberately naive — it is the specification the
/// compiled [`TableModel`](pak::protocol::model::TableModel) is tested
/// against, so it must stay obviously correct rather than fast.
struct AstModel<'a, P> {
    prog: &'a Program,
    /// Transition rules in resolution order: adversary overrides first
    /// (when interpreting a variant), then the base rules.
    rules: Vec<&'a TransRule>,
    _p: PhantomData<P>,
}

impl<'a, P: Probability> AstModel<'a, P> {
    fn base(prog: &'a Program) -> Self {
        AstModel {
            prog,
            rules: prog.transitions.iter().collect(),
            _p: PhantomData,
        }
    }

    fn adversary(prog: &'a Program, idx: usize) -> Self {
        let mut rules: Vec<&'a TransRule> = prog.adversaries[idx].rules.iter().collect();
        rules.extend(prog.transitions.iter());
        AstModel {
            prog,
            rules,
            _p: PhantomData,
        }
    }

    fn state_tuple(&self, name: &str) -> SimpleState {
        let s = self
            .prog
            .states
            .iter()
            .find(|s| s.name.value == name)
            .expect("validated state name");
        SimpleState::new(s.env, s.locals.clone())
    }

    fn action_id(&self, name: &str) -> ActionId {
        let a = self
            .prog
            .actions
            .iter()
            .find(|a| a.name.value == name)
            .expect("validated action name");
        ActionId(u32::try_from(a.id.value).expect("validated action id"))
    }

    fn move_dist(&self, agent: AgentId, local: &u64, time: Time) -> Vec<(Option<ActionId>, P)> {
        let name = &self.prog.agents[agent.0 as usize].value;
        for block in &self.prog.moves {
            if block.agent.value != *name {
                continue;
            }
            for rule in &block.rules {
                if rule.local.value == *local && rule.time.value == u64::from(time) {
                    return rule
                        .dist
                        .iter()
                        .map(|arm| {
                            let mv = match &arm.action.value {
                                MoveAction::Skip => None,
                                MoveAction::Named(n) => Some(self.action_id(n)),
                            };
                            (
                                mv,
                                P::from_ratio(arm.weight.value.num, arm.weight.value.den),
                            )
                        })
                        .collect();
                }
            }
        }
        vec![(None, P::one())]
    }

    fn successors(
        &self,
        state: &SimpleState,
        moves: &[Option<ActionId>],
        time: Time,
    ) -> Vec<(SimpleState, P)> {
        for rule in &self.rules {
            if self.state_tuple(&rule.from.value) == *state
                && rule.time.value == u64::from(time)
                && self.guard_matches(rule, moves)
            {
                return rule
                    .dist
                    .iter()
                    .map(|arm| {
                        (
                            self.state_tuple(&arm.state.value),
                            P::from_ratio(arm.weight.value.num, arm.weight.value.den),
                        )
                    })
                    .collect();
            }
        }
        vec![(state.clone(), P::one())]
    }

    fn guard_matches(&self, rule: &TransRule, moves: &[Option<ActionId>]) -> bool {
        match &rule.guard {
            None => true,
            Some(pats) => {
                pats.len() == moves.len()
                    && pats.iter().zip(moves).all(|(pat, mv)| match &pat.value {
                        GuardPat::Any => true,
                        GuardPat::Skip => mv.is_none(),
                        GuardPat::Named(n) => *mv == Some(self.action_id(n)),
                    })
            }
        }
    }
}

impl<P: Probability> ProtocolModel<P> for AstModel<'_, P> {
    type Global = SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        u32::try_from(self.prog.agents.len()).expect("validated agent count")
    }

    fn initial_states(&self) -> Vec<(SimpleState, P)> {
        self.prog
            .init
            .iter()
            .map(|arm| {
                let w = arm.weight.value;
                (
                    self.state_tuple(&arm.state.value),
                    P::from_ratio(w.num, w.den),
                )
            })
            .collect()
    }

    fn is_terminal(&self, _state: &SimpleState, time: Time) -> bool {
        u64::from(time) >= self.prog.horizon.as_ref().expect("validated horizon").value
    }

    fn moves_into(&self, agent: AgentId, local: &u64, time: Time, out: &mut Vec<(Self::Move, P)>) {
        out.extend(self.move_dist(agent, local, time));
    }

    fn action_of(&self, mv: &Self::Move) -> Option<ActionId> {
        *mv
    }

    fn transition_into(
        &self,
        state: &SimpleState,
        moves: &[Self::Move],
        time: Time,
        out: &mut Vec<(SimpleState, P)>,
    ) {
        out.extend(self.successors(state, moves, time));
    }
}

fn formulas_for(seed: u64, n_agents: u32) -> Vec<Formula<SimpleState, Rational>> {
    (0..4u64)
        .map(|k| {
            let cfg = RandomFormulaConfig {
                max_depth: (k % 4) as u32,
                n_agents,
                n_actions: 2,
                env_values: 3,
                local_values: 2,
            };
            random_formula::<Rational>(seed.wrapping_mul(977).wrapping_add(k * 131 + 17), &cfg)
        })
        .collect()
}

/// Stages 1–3 for one compiled model against its AST interpretation.
fn check_program(seed: u64, src: &str) {
    let prog = parse(src).unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{src}"));
    let compiled = compile::<Rational>(&prog)
        .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{src}"));

    // Stage 1: compiled vs interpreted, base model and every adversary.
    let table = unfold::<_, Rational>(compiled.model()).expect("compiled model unfolds");
    let interp = unfold::<_, Rational>(&AstModel::base(&prog)).expect("AST model unfolds");
    common::assert_identical_systems(&interp, &table, &format!("seed {seed}: base"));
    for (idx, (name, variant)) in compiled.adversaries().enumerate() {
        let table = unfold::<_, Rational>(variant).expect("adversary variant unfolds");
        let interp =
            unfold::<_, Rational>(&AstModel::adversary(&prog, idx)).expect("AST adversary unfolds");
        common::assert_identical_systems(&interp, &table, &format!("seed {seed}: {name}"));
    }

    // Stage 2: incremental extension vs from-scratch at every horizon.
    let mut u = Unfolder::new(
        compiled.model(),
        UnfoldConfig {
            horizon: Some(1),
            ..UnfoldConfig::default()
        },
    )
    .expect("compiled model unfolds at horizon 1");
    loop {
        let scratch = unfold_with(
            compiled.model(),
            &UnfoldConfig {
                horizon: Some(u.horizon()),
                ..UnfoldConfig::default()
            },
        )
        .expect("from-scratch unfold");
        common::assert_identical_systems(
            &scratch,
            u.pps(),
            &format!("seed {seed}: extension at horizon {}", u.horizon()),
        );
        if !u.extend_horizon().expect("extension within budget") {
            break;
        }
    }

    // Stage 3: batched engine verdicts vs the naive checker.
    let formulas = formulas_for(seed, ProtocolModel::<Rational>::n_agents(compiled.model()));
    let mc = ModelChecker::new(&table);
    let mut ev = Evaluator::new(&table);
    let verdicts = ev.evaluate_batch(&formulas);
    for (f, v) in formulas.iter().zip(&verdicts) {
        assert_eq!(v.valid, mc.valid(f), "seed {seed}: {f}");
        assert_eq!(v.satisfiable, mc.satisfiable(f), "seed {seed}: {f}");
        assert_eq!(v.counterexample, mc.counterexample(f), "seed {seed}: {f}");
    }
}

#[test]
fn fuzzed_programs_compile_unfold_extend_and_evaluate_identically() {
    let mut cases = 0;
    for seed in 0..FUZZ_CASES {
        let src = fuzz_program(seed, &FuzzConfig::default());
        check_program(seed, &src);
        cases += 1;
    }
    assert_eq!(cases, FUZZ_CASES, "sweep shrank: {cases} programs");
}

/// Round-trip property: the canonical pretty-printer re-parses to a
/// structurally equal AST (spans excluded), and printing is a fixpoint.
#[test]
fn pretty_printed_programs_reparse_identically() {
    for seed in 0..FUZZ_CASES {
        let src = fuzz_program(seed, &FuzzConfig::default());
        let prog = parse(&src).expect("fuzzed programs parse");
        let printed = prog.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{printed}"));
        assert_eq!(prog, reparsed, "seed {seed}: round trip changed the AST");
        assert_eq!(
            printed,
            reparsed.to_string(),
            "seed {seed}: printing is not a fixpoint"
        );
    }
}

/// The DSL twins: each program must unfold bit-identically to the
/// hand-written scenario model at the same parameters — same pool ids in
/// the same order, same node order, bit-equal run probabilities,
/// identical cells. This is the proof obligation stated in the
/// `pak_systems` module docs.
fn assert_twin<M: ProtocolModel<Rational, Global = SimpleState, Move = Option<ActionId>>>(
    twin: &str,
    hand: &M,
    ctx: &str,
) {
    let compiled = pak::dsl::compile_str::<Rational>(twin)
        .unwrap_or_else(|e| panic!("{ctx} twin does not compile: {e}"));
    let dsl = unfold::<_, Rational>(compiled.model()).expect("twin unfolds");
    let want = unfold::<_, Rational>(hand).expect("hand model unfolds");
    common::assert_identical_systems(&want, &dsl, ctx);
}

#[test]
fn judge_twin_is_bit_identical() {
    assert_twin(JUDGE_TWIN, &judge_hand::<Rational>(), "judge");
}

#[test]
fn threshold_twin_is_bit_identical() {
    assert_twin(THRESHOLD_TWIN, &threshold_hand::<Rational>(), "threshold");
}

#[test]
fn figure1_twin_is_bit_identical() {
    assert_twin(FIGURE1_TWIN, &figure1_hand(), "figure1");
}

#[test]
fn flat_twin_is_bit_identical() {
    assert_twin(FLAT_TWIN, &flat_hand::<Rational>(), "flat");
}
