//! The relaxed firing squad — the paper's Example 1.
//!
//! Two agents, Alice and Bob, over a synchronous lossy network (every
//! message independently lost with probability `loss`, delivered in-round
//! otherwise). Alice holds a binary `go` variable, `1` with probability
//! `go_prob`.
//!
//! **Spec**: if `go = 0`, neither agent ever fires; if `go = 1` they attempt
//! a joint firing with `µ(both fire | Alice fires) ≥ 0.95`.
//!
//! **Protocol `FS`** (verbatim from the paper):
//!
//! * Round 1 (time 0): if `go = 1` Alice sends **two** copies of a message
//!   to Bob; if `go = 0` she sends nothing.
//! * Round 2 (time 1): Bob sends `Yes` if he received at least one copy,
//!   `No` otherwise.
//! * Time 2: Alice fires iff `go = 1`; Bob fires iff he received a copy.
//!
//! With the paper's parameters (`loss = 0.1`, `go_prob = 0.5`):
//!
//! * `µ(ϕ_both @ fire_A | fire_A) = 0.99`,
//! * Alice's belief in `ϕ_both` when firing is `1` (got `Yes`), `0` (got
//!   `No`), or `0.99` (reply lost),
//! * the 0.95 threshold is met on measure `0.991` of the firing runs,
//! * the **improved** protocol of §8 (Alice refrains when she got `No`)
//!   achieves `µ = 990/991 ≈ 0.99899`.

use pak_core::belief::ActionAnalysis;
use pak_core::fact::{AndFact, DoesFact};
use pak_core::ids::{ActionId, AgentId, Time};
use pak_core::pps::Pps;
use pak_core::prob::Probability;

use pak_protocol::messaging::{
    AgentMove, LossyMessagingModel, Message, MessageProtocol, MsgGlobal,
};
use pak_protocol::unfold::{unfold, UnfoldError};

/// Alice's agent id.
pub const ALICE: AgentId = AgentId(0);
/// Bob's agent id.
pub const BOB: AgentId = AgentId(1);
/// Alice's firing action.
pub const FIRE_A: ActionId = ActionId(0);
/// Bob's firing action.
pub const FIRE_B: ActionId = ActionId(1);

/// Payload of Alice's "go" message.
const MSG_GO: u64 = 1;
/// Payload of Bob's `Yes` reply.
const MSG_YES: u64 = 2;
/// Payload of Bob's `No` reply.
const MSG_NO: u64 = 3;

/// Bob's reply as remembered by Alice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reply {
    /// No reply arrived (either not sent yet, or lost).
    Nothing,
    /// Bob confirmed he received Alice's message.
    Yes,
    /// Bob reported receiving nothing.
    No,
}

/// A local state of the `FS` protocol (the same enum serves both agents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsLocal {
    /// Alice's local data: her `go` bit and Bob's reply, if any.
    Alice {
        /// The initial `go` variable.
        go: bool,
        /// Bob's reply as received by the end of round 2.
        reply: Reply,
    },
    /// Bob's local data.
    Bob {
        /// Whether Bob has received at least one of Alice's messages
        /// (`None` before the end of round 1).
        heard: Option<bool>,
    },
}

/// Alice's firing policy: on which round-2 information states (replies)
/// she fires, given `go = 1`.
///
/// The paper's `FS` fires on every reply ([`FirePolicy::ALWAYS`]); the §8
/// improvement skips `No` ([`FirePolicy::REFRAIN_ON_NO`]). The full policy
/// lattice is explored by [`crate::policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FirePolicy {
    /// Fire after a `Yes` reply.
    pub on_yes: bool,
    /// Fire after a `No` reply.
    pub on_no: bool,
    /// Fire when the reply was lost.
    pub on_nothing: bool,
}

impl FirePolicy {
    /// The paper's `FS`: fire regardless of the reply.
    pub const ALWAYS: FirePolicy = FirePolicy {
        on_yes: true,
        on_no: true,
        on_nothing: true,
    };
    /// The §8 improvement: refrain after a `No`.
    pub const REFRAIN_ON_NO: FirePolicy = FirePolicy {
        on_yes: true,
        on_no: false,
        on_nothing: true,
    };

    /// Whether the policy fires on the given reply.
    #[must_use]
    pub fn fires_on(&self, reply: Reply) -> bool {
        match reply {
            Reply::Yes => self.on_yes,
            Reply::No => self.on_no,
            Reply::Nothing => self.on_nothing,
        }
    }

    /// Whether the policy ever fires.
    #[must_use]
    pub fn ever_fires(&self) -> bool {
        self.on_yes || self.on_no || self.on_nothing
    }

    /// All eight policies (including the never-firing one).
    #[must_use]
    pub fn all() -> Vec<FirePolicy> {
        let mut out = Vec::with_capacity(8);
        for bits in 0u8..8 {
            out.push(FirePolicy {
                on_yes: bits & 1 != 0,
                on_no: bits & 2 != 0,
                on_nothing: bits & 4 != 0,
            });
        }
        out
    }
}

impl Default for FirePolicy {
    fn default() -> Self {
        FirePolicy::ALWAYS
    }
}

/// The `FS` protocol of Example 1, parameterised.
///
/// # Examples
///
/// ```
/// use pak_systems::firing_squad::FiringSquad;
/// use pak_num::Rational;
///
/// let fs = FiringSquad::paper();
/// let system = fs.build_pps();
/// assert_eq!(
///     system.analyze().constraint_probability(),
///     Rational::from_ratio(99, 100),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FiringSquad<P> {
    /// Per-message loss probability.
    loss: P,
    /// Probability that `go = 1`.
    go_prob: P,
    /// Alice's firing policy by reply (paper: fire always).
    policy: FirePolicy,
    /// Number of copies Alice sends in round 1 (the paper uses 2).
    copies: u32,
}

impl FiringSquad<pak_num::Rational> {
    /// The exact parameters of the paper's Example 1: `loss = 0.1`,
    /// `go_prob = 0.5`, two message copies, no refinement.
    #[must_use]
    pub fn paper() -> Self {
        FiringSquad {
            loss: pak_num::Rational::from_ratio(1, 10),
            go_prob: pak_num::Rational::from_ratio(1, 2),
            policy: FirePolicy::ALWAYS,
            copies: 2,
        }
    }

    /// The §8 improved protocol: as [`FiringSquad::paper`], but Alice
    /// refrains from firing when she received a `No` reply.
    #[must_use]
    pub fn improved() -> Self {
        FiringSquad {
            policy: FirePolicy::REFRAIN_ON_NO,
            ..Self::paper()
        }
    }
}

impl<P: Probability> FiringSquad<P> {
    /// A firing squad with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `loss` or `go_prob` is not a probability, or `copies == 0`.
    #[must_use]
    pub fn new(loss: P, go_prob: P, copies: u32) -> Self {
        assert!(loss.is_valid_probability(), "loss must lie in [0, 1]");
        assert!(go_prob.is_valid_probability(), "go_prob must lie in [0, 1]");
        assert!(copies > 0, "Alice must send at least one copy");
        FiringSquad {
            loss,
            go_prob,
            policy: FirePolicy::ALWAYS,
            copies,
        }
    }

    /// Enables the §8 refinement (refrain on `No`).
    #[must_use]
    pub fn with_refrain_on_no(mut self) -> Self {
        self.policy = FirePolicy::REFRAIN_ON_NO;
        self
    }

    /// Sets an arbitrary firing policy (see [`crate::policy`] for the full
    /// policy-space analysis).
    #[must_use]
    pub fn with_policy(mut self, policy: FirePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The current firing policy.
    #[must_use]
    pub fn policy(&self) -> FirePolicy {
        self.policy
    }

    /// The per-message loss probability.
    pub fn loss(&self) -> &P {
        &self.loss
    }

    /// Unfolds the protocol into its purely probabilistic system.
    ///
    /// # Panics
    ///
    /// Panics if unfolding fails, which cannot happen for valid parameters;
    /// use [`FiringSquad::try_build_pps`] to handle the error.
    #[must_use]
    pub fn build_pps(&self) -> FsSystem<P> {
        self.try_build_pps()
            .expect("FS unfolds for valid parameters")
    }

    /// Fallible variant of [`FiringSquad::build_pps`].
    ///
    /// # Errors
    ///
    /// Propagates any [`UnfoldError`] (e.g. an `f64` distribution drifting
    /// outside tolerance for extreme parameters).
    pub fn try_build_pps(&self) -> Result<FsSystem<P>, UnfoldError> {
        let mut pps = unfold(&self.model())?;
        pps.set_action_name(FIRE_A, "fire_A");
        pps.set_action_name(FIRE_B, "fire_B");
        Ok(FsSystem { pps })
    }

    /// The protocol as a lossy-channel
    /// [`ProtocolModel`](pak_protocol::model::ProtocolModel) — what
    /// [`FiringSquad::build_pps`] unfolds, exposed so callers can drive
    /// the model API directly (this is also how the §8 policy sweep's
    /// protocols enter the differential smoke suite).
    #[must_use]
    pub fn model(&self) -> LossyMessagingModel<Self, P> {
        LossyMessagingModel::new(self.clone(), self.loss.clone())
    }

    /// The (deterministic) move of `agent` at `(local, time)` — the shared
    /// core of [`MessageProtocol::step`] and [`MessageProtocol::step_into`].
    fn move_at(&self, agent: AgentId, local: &FsLocal, time: Time) -> AgentMove {
        match (agent, local, time) {
            // Round 1: Alice sends `copies` copies when go = 1.
            (ALICE, FsLocal::Alice { go: true, .. }, 0) => {
                let mut mv = AgentMove::skip();
                for _ in 0..self.copies {
                    mv = mv.and_send(BOB, MSG_GO);
                }
                mv
            }
            // Round 2: Bob replies Yes/No according to what he heard.
            (BOB, FsLocal::Bob { heard: Some(true) }, 1) => AgentMove::send(ALICE, MSG_YES),
            (BOB, FsLocal::Bob { heard: Some(false) }, 1) => AgentMove::send(ALICE, MSG_NO),
            // Time 2: firing decisions.
            (ALICE, FsLocal::Alice { go: true, reply }, 2) => {
                if self.policy.fires_on(*reply) {
                    AgentMove::act(FIRE_A)
                } else {
                    AgentMove::skip()
                }
            }
            (BOB, FsLocal::Bob { heard: Some(true) }, 2) => AgentMove::act(FIRE_B),
            _ => AgentMove::skip(),
        }
    }
}

impl<P: Probability> MessageProtocol<P> for FiringSquad<P> {
    type Local = FsLocal;

    fn n_agents(&self) -> u32 {
        2
    }

    fn initial(&self) -> Vec<(Vec<FsLocal>, P)> {
        let go1 = vec![
            FsLocal::Alice {
                go: true,
                reply: Reply::Nothing,
            },
            FsLocal::Bob { heard: None },
        ];
        let go0 = vec![
            FsLocal::Alice {
                go: false,
                reply: Reply::Nothing,
            },
            FsLocal::Bob { heard: None },
        ];
        if self.go_prob.is_one() {
            return vec![(go1, P::one())];
        }
        if self.go_prob.is_zero() {
            return vec![(go0, P::one())];
        }
        vec![(go1, self.go_prob.clone()), (go0, self.go_prob.one_minus())]
    }

    fn horizon(&self) -> Time {
        3
    }

    fn step_into(
        &self,
        agent: AgentId,
        local: &FsLocal,
        time: Time,
        out: &mut Vec<(AgentMove, P)>,
    ) {
        out.push((self.move_at(agent, local, time), P::one()));
    }

    fn receive(
        &self,
        agent: AgentId,
        local: &FsLocal,
        _own_move: &AgentMove,
        inbox: &[Message],
        time: Time,
    ) -> FsLocal {
        match (agent, local, time) {
            (BOB, FsLocal::Bob { heard: None }, 0) => FsLocal::Bob {
                heard: Some(!inbox.is_empty()),
            },
            (ALICE, FsLocal::Alice { go, .. }, 1) => {
                let reply = match inbox.first().map(|m| m.payload) {
                    Some(MSG_YES) => Reply::Yes,
                    Some(MSG_NO) => Reply::No,
                    _ => Reply::Nothing,
                };
                FsLocal::Alice { go: *go, reply }
            }
            _ => *local,
        }
    }
}

/// The unfolded `FS` system with analysis conveniences.
#[derive(Debug, Clone)]
pub struct FsSystem<P: Probability> {
    pps: Pps<MsgGlobal<FsLocal>, P>,
}

impl<P: Probability> FsSystem<P> {
    /// The underlying purely probabilistic system.
    #[must_use]
    pub fn pps(&self) -> &Pps<MsgGlobal<FsLocal>, P> {
        &self.pps
    }

    /// The condition `ϕ_both`: both agents are currently firing.
    #[must_use]
    pub fn phi_both() -> AndFact<DoesFact, DoesFact> {
        AndFact(DoesFact::new(ALICE, FIRE_A), DoesFact::new(BOB, FIRE_B))
    }

    /// The full analysis of `(Alice, fire_A, ϕ_both)` — every quantity of
    /// Example 1.
    ///
    /// # Panics
    ///
    /// Panics if `fire_A` is not proper, which cannot happen for
    /// `go_prob > 0`.
    #[must_use]
    pub fn analyze(&self) -> ActionAnalysis<P> {
        ActionAnalysis::new(&self.pps, ALICE, FIRE_A, &Self::phi_both())
            .expect("fire_A is proper when go_prob > 0")
    }

    /// Bob-side analysis: `(Bob, fire_B, ϕ_both)`.
    ///
    /// # Panics
    ///
    /// Panics if `fire_B` is not proper (requires `go_prob > 0` and
    /// `loss < 1`).
    #[must_use]
    pub fn analyze_bob(&self) -> ActionAnalysis<P> {
        ActionAnalysis::new(&self.pps, BOB, FIRE_B, &Self::phi_both())
            .expect("fire_B is proper when go_prob > 0 and loss < 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::fact::Facts;
    use pak_core::independence::is_local_state_independent;
    use pak_core::theorems::check_expectation;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn paper_constraint_probability_is_099() {
        let sys = FiringSquad::paper().build_pps();
        let a = sys.analyze();
        assert_eq!(a.constraint_probability(), r(99, 100));
        assert!(a.satisfies_constraint(&r(19, 20))); // the 0.95 spec
    }

    #[test]
    fn paper_threshold_met_measure_is_0991() {
        let sys = FiringSquad::paper().build_pps();
        let a = sys.analyze();
        assert_eq!(a.threshold_measure(&r(19, 20)), r(991, 1000));
    }

    #[test]
    fn alice_belief_values_are_0_099_1() {
        let sys = FiringSquad::paper().build_pps();
        let a = sys.analyze();
        let dist = a.belief_distribution();
        let beliefs: Vec<Rational> = dist.iter().map(|(b, _)| b.clone()).collect();
        assert_eq!(beliefs, vec![Rational::zero(), r(99, 100), Rational::one()]);
        // Measures, conditioned on Alice firing (= go = 1):
        // No delivered: 0.01·0.9 = 0.009; reply lost: 0.1; Yes: 0.99·0.9.
        let measures: Vec<Rational> = dist.iter().map(|(_, m)| m.clone()).collect();
        assert_eq!(measures, vec![r(9, 1000), r(100, 1000), r(891, 1000)]);
    }

    #[test]
    fn fire_a_is_deterministic_hence_lsi() {
        let sys = FiringSquad::paper().build_pps();
        assert!(sys.pps().is_deterministic_action(ALICE, FIRE_A));
        assert!(is_local_state_independent(
            sys.pps(),
            &FsSystem::<Rational>::phi_both(),
            ALICE,
            FIRE_A
        ));
    }

    #[test]
    fn expectation_theorem_holds_exactly_on_fs() {
        let sys = FiringSquad::paper().build_pps();
        let rep =
            check_expectation(sys.pps(), ALICE, FIRE_A, &FsSystem::<Rational>::phi_both()).unwrap();
        assert!(rep.independence.independent);
        assert!(rep.equal);
        assert_eq!(rep.lhs, r(99, 100));
    }

    #[test]
    fn improved_protocol_reaches_990_over_991() {
        let sys = FiringSquad::improved().build_pps();
        let a = sys.analyze();
        assert_eq!(a.constraint_probability(), r(990, 991));
        // ≈ 0.99899, as §8 reports.
        assert!((a.constraint_probability().to_f64() - 0.99899).abs() < 1e-5);
    }

    #[test]
    fn improved_protocol_fires_less_often() {
        let base = FiringSquad::paper().build_pps();
        let better = FiringSquad::improved().build_pps();
        let fire_base = base.pps().measure(&base.pps().action_event(ALICE, FIRE_A));
        let fire_better = better
            .pps()
            .measure(&better.pps().action_event(ALICE, FIRE_A));
        // go_prob = ½; Alice refrains on measure ½·0.009.
        assert_eq!(fire_base, r(1, 2));
        assert_eq!(fire_better, r(991, 2000));
    }

    #[test]
    fn go_zero_runs_never_fire() {
        let sys = FiringSquad::paper().build_pps();
        let pps = sys.pps();
        let fire_a = pps.action_event(ALICE, FIRE_A);
        let fire_b = pps.action_event(BOB, FIRE_B);
        for run in pps.run_ids() {
            let go = matches!(
                pps.node_state(pps.node_at(run, 0).unwrap()).locals[0],
                FsLocal::Alice { go: true, .. }
            );
            if !go {
                assert!(!fire_a.contains(run));
                assert!(!fire_b.contains(run));
            } else {
                assert!(fire_a.contains(run)); // standard FS always fires on go=1
            }
        }
    }

    #[test]
    fn bob_side_constraint() {
        // Given Bob fires (he heard), Alice fires too (go was 1): the
        // conditional is 1 — Bob only hears when go = 1, and Alice always
        // fires then.
        let sys = FiringSquad::paper().build_pps();
        let b = sys.analyze_bob();
        assert_eq!(b.constraint_probability(), Rational::one());
    }

    #[test]
    fn spec_violated_with_single_copy_high_loss() {
        // One copy, loss 0.1: µ(both | fire_A) = 0.9 < 0.95.
        let fs = FiringSquad::new(r(1, 10), r(1, 2), 1);
        let a = fs.build_pps().analyze();
        assert_eq!(a.constraint_probability(), r(9, 10));
        assert!(!a.satisfies_constraint(&r(19, 20)));
    }

    #[test]
    fn reliable_network_gives_certainty() {
        let fs = FiringSquad::new(Rational::zero(), r(1, 2), 2);
        let a = fs.build_pps().analyze();
        assert!(a.constraint_probability().is_one());
        assert_eq!(a.min_belief_when_acting(), Some(Rational::one()));
    }

    #[test]
    fn f64_matches_rational() {
        let exact = FiringSquad::paper().build_pps().analyze();
        let fs64 = FiringSquad::new(0.1f64, 0.5, 2);
        let approx = fs64.build_pps().analyze();
        assert!(
            (approx.constraint_probability() - exact.constraint_probability().to_f64()).abs()
                < 1e-9
        );
        assert!((approx.expected_belief() - exact.expected_belief().to_f64()).abs() < 1e-9);
    }

    #[test]
    fn run_count_is_modest() {
        let sys = FiringSquad::paper().build_pps();
        // go=0: Bob's No reply delivered or lost → 2 runs.
        // go=1: round-1 outcomes (heard / not) × round-2 reply fate → 4 runs.
        assert_eq!(sys.pps().num_runs(), 6);
    }
}
