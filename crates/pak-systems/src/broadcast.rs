//! Probabilistic reliable broadcast over lossy channels.
//!
//! An `n`-agent generalisation of Example 1's coordination pattern — and a
//! miniature of the "probability-p agreement" protocols (e.g. [34, 19])
//! that the paper cites as motivation. A designated *source* holds a bit
//! and re-broadcasts it to the other `n − 1` agents for `rounds` rounds
//! over per-message-lossy channels; at the deadline every informed agent
//! *delivers* the bit (a `deliver_i` action).
//!
//! The probabilistic constraint studied: when the source delivers, **all**
//! agents deliver with probability at least `p`
//! (`µ(ϕ_all@deliver_src | deliver_src) ≥ p`). Exact value:
//! `(1 − loss^rounds)^(n−1)`. The source's belief when delivering, the
//! expectation theorem, and the PAK bound are all verified on this family.

use pak_core::belief::ActionAnalysis;
use pak_core::fact::FnFact;
use pak_core::ids::{ActionId, AgentId, Point, Time};
use pak_core::pps::Pps;
use pak_core::prob::Probability;

use pak_protocol::messaging::{
    AgentMove, LossyMessagingModel, Message, MessageProtocol, MsgGlobal,
};
use pak_protocol::unfold::{unfold_with, UnfoldConfig, UnfoldError};

/// The broadcasting source agent.
pub const SOURCE: AgentId = AgentId(0);

/// The `deliver` action of an agent: `DELIVER_BASE + agent index`.
pub const DELIVER_BASE: u32 = 200;

/// The deliver action id for an agent.
#[must_use]
pub fn deliver_action(agent: AgentId) -> ActionId {
    ActionId(DELIVER_BASE + agent.0)
}

/// An agent's local data: whether it holds the bit yet.
///
/// The `Eq`/`Hash` derives feed the unfolder's merge contract: which copy
/// of the bit got through is deliberately *not* recorded, so all loss
/// patterns with the same informed-set merge into a single tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BcastLocal {
    /// `true` once the bit is known (always true for the source).
    pub informed: bool,
}

/// The broadcast scenario.
///
/// # Examples
///
/// ```
/// use pak_systems::broadcast::Broadcast;
/// use pak_num::Rational;
///
/// // 3 agents, loss 1/10, 2 rounds: all-deliver = (1 − 0.01)² = 0.9801.
/// let b = Broadcast::new(3, Rational::from_ratio(1, 10), 2);
/// let analysis = b.build_pps().unwrap().analyze();
/// assert_eq!(
///     analysis.constraint_probability(),
///     Rational::from_ratio(9801, 10_000),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Broadcast<P> {
    n_agents: u32,
    loss: P,
    rounds: u32,
}

impl<P: Probability> Broadcast<P> {
    /// Creates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if `n_agents < 2`, `rounds == 0`, or `loss` is not a
    /// probability. Exact loss enumeration is exponential in
    /// `(n_agents − 1) × rounds` messages; keep `n_agents ≤ 5`.
    #[must_use]
    pub fn new(n_agents: u32, loss: P, rounds: u32) -> Self {
        assert!(n_agents >= 2, "broadcast needs a source and a receiver");
        assert!(n_agents <= 5, "exact enumeration supports at most 5 agents");
        assert!(rounds > 0, "at least one round required");
        assert!(loss.is_valid_probability(), "loss must lie in [0, 1]");
        Broadcast {
            n_agents,
            loss,
            rounds,
        }
    }

    /// The scenario as a lossy-channel
    /// [`ProtocolModel`](pak_protocol::model::ProtocolModel) — what
    /// [`Broadcast::build_pps`] unfolds, exposed so callers can drive the
    /// model API directly.
    #[must_use]
    pub fn model(&self) -> LossyMessagingModel<Self, P> {
        LossyMessagingModel::new(self.clone(), self.loss.clone())
    }

    /// The (deterministic) move of `agent` at `(local, time)` — the shared
    /// core of [`MessageProtocol::step`] and [`MessageProtocol::step_into`].
    fn move_at(&self, agent: AgentId, local: &BcastLocal, time: Time) -> AgentMove {
        if time < self.rounds {
            if agent == SOURCE {
                // Re-broadcast to every receiver each round.
                let mut mv = AgentMove::skip();
                for a in 0..self.n_agents {
                    if AgentId(a) != SOURCE {
                        mv = mv.and_send(AgentId(a), 1);
                    }
                }
                mv
            } else {
                AgentMove::skip()
            }
        } else if local.informed {
            AgentMove::act(deliver_action(agent))
        } else {
            AgentMove::skip()
        }
    }

    /// Unfolds into the pps.
    ///
    /// # Errors
    ///
    /// Propagates [`UnfoldError`] if the configuration exceeds limits.
    pub fn build_pps(&self) -> Result<BroadcastSystem<P>, UnfoldError> {
        let model = self.model();
        let mut pps = unfold_with(
            &model,
            &UnfoldConfig {
                max_nodes: 1 << 18,
                max_depth: Some(self.rounds + 2),
                horizon: None,
            },
        )?;
        for a in 0..self.n_agents {
            pps.set_action_name(deliver_action(AgentId(a)), format!("deliver_{a}"));
        }
        Ok(BroadcastSystem {
            pps,
            n_agents: self.n_agents,
        })
    }

    /// The closed-form all-deliver probability given the source delivers:
    /// `(1 − loss^rounds)^(n−1)` (receivers are independent).
    #[must_use]
    pub fn closed_form_all_deliver(&self) -> P {
        let mut miss = P::one();
        for _ in 0..self.rounds {
            miss = miss.mul(&self.loss);
        }
        let informed = miss.one_minus();
        let mut all = P::one();
        for _ in 1..self.n_agents {
            all = all.mul(&informed);
        }
        all
    }
}

impl<P: Probability> MessageProtocol<P> for Broadcast<P> {
    type Local = BcastLocal;

    fn n_agents(&self) -> u32 {
        self.n_agents
    }

    fn initial(&self) -> Vec<(Vec<BcastLocal>, P)> {
        let mut locals = vec![BcastLocal { informed: false }; self.n_agents as usize];
        locals[SOURCE.index()] = BcastLocal { informed: true };
        vec![(locals, P::one())]
    }

    fn horizon(&self) -> Time {
        self.rounds + 1
    }

    fn step_into(
        &self,
        agent: AgentId,
        local: &BcastLocal,
        time: Time,
        out: &mut Vec<(AgentMove, P)>,
    ) {
        out.push((self.move_at(agent, local, time), P::one()));
    }

    fn receive(
        &self,
        _agent: AgentId,
        local: &BcastLocal,
        _own_move: &AgentMove,
        inbox: &[Message],
        _time: Time,
    ) -> BcastLocal {
        if inbox.is_empty() {
            *local
        } else {
            BcastLocal { informed: true }
        }
    }
}

/// The unfolded broadcast system.
#[derive(Debug, Clone)]
pub struct BroadcastSystem<P: Probability> {
    pps: Pps<MsgGlobal<BcastLocal>, P>,
    n_agents: u32,
}

impl<P: Probability> BroadcastSystem<P> {
    /// The underlying pps.
    #[must_use]
    pub fn pps(&self) -> &Pps<MsgGlobal<BcastLocal>, P> {
        &self.pps
    }

    /// The condition `ϕ_all`: every agent is currently delivering.
    #[must_use]
    pub fn phi_all(&self) -> FnFact<MsgGlobal<BcastLocal>, P> {
        let n = self.n_agents;
        FnFact::new(
            "all deliver",
            move |pps: &Pps<MsgGlobal<BcastLocal>, P>, pt: Point| {
                (0..n).all(|a| pps.does(AgentId(a), deliver_action(AgentId(a)), pt))
            },
        )
    }

    /// Analysis of `(source, deliver_src, ϕ_all)`.
    ///
    /// # Panics
    ///
    /// Panics if the source never delivers (impossible: it is always
    /// informed).
    #[must_use]
    pub fn analyze(&self) -> ActionAnalysis<P> {
        ActionAnalysis::new(&self.pps, SOURCE, deliver_action(SOURCE), &self.phi_all())
            .expect("the source always delivers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::theorems::{check_expectation, check_pak_corollary};
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    #[test]
    fn two_agents_matches_closed_form() {
        for rounds in [1u32, 2, 3] {
            let b = Broadcast::new(2, r(1, 10), rounds);
            let a = b.build_pps().unwrap().analyze();
            assert_eq!(
                a.constraint_probability(),
                b.closed_form_all_deliver(),
                "rounds={rounds}"
            );
        }
    }

    #[test]
    fn three_agents_matches_closed_form() {
        let b = Broadcast::new(3, r(1, 10), 2);
        let a = b.build_pps().unwrap().analyze();
        assert_eq!(a.constraint_probability(), r(9801, 10_000));
        assert_eq!(a.constraint_probability(), b.closed_form_all_deliver());
    }

    #[test]
    fn four_agents_one_round() {
        let b = Broadcast::new(4, r(1, 4), 1);
        let a = b.build_pps().unwrap().analyze();
        assert_eq!(a.constraint_probability(), r(3, 4).pow(3));
    }

    #[test]
    fn source_belief_is_blind_prior() {
        // The source gets no feedback, so its belief in ϕ_all when
        // delivering equals the prior coordination probability everywhere.
        let b = Broadcast::new(3, r(1, 10), 1);
        let a = b.build_pps().unwrap().analyze();
        let expected = b.closed_form_all_deliver();
        assert_eq!(a.min_belief_when_acting(), Some(expected.clone()));
        assert_eq!(a.max_belief_when_acting(), Some(expected));
    }

    #[test]
    fn expectation_theorem_holds() {
        let b = Broadcast::new(3, r(1, 5), 2);
        let sys = b.build_pps().unwrap();
        let rep =
            check_expectation(sys.pps(), SOURCE, deliver_action(SOURCE), &sys.phi_all()).unwrap();
        assert!(rep.independence.independent);
        assert!(rep.equal);
    }

    #[test]
    fn pak_bound_on_broadcast() {
        // 2 rounds, loss 1/10, 3 agents: µ = 0.9801 = 1 − 0.0199 ≥ 1 − ε²
        // for ε = 0.15.
        let b = Broadcast::new(3, r(1, 10), 2);
        let sys = b.build_pps().unwrap();
        let rep = check_pak_corollary(
            sys.pps(),
            SOURCE,
            deliver_action(SOURCE),
            &sys.phi_all(),
            &r(15, 100),
        )
        .unwrap();
        assert!(rep.premise_holds);
        assert!(rep.implication_holds);
    }

    #[test]
    fn receivers_know_when_they_deliver() {
        // A receiver delivers only when informed, so given IT delivers, it
        // is certain of its own delivery — but not of the others'.
        let b = Broadcast::new(3, r(1, 10), 1);
        let sys = b.build_pps().unwrap();
        let phi = sys.phi_all();
        let a =
            ActionAnalysis::new(sys.pps(), AgentId(1), deliver_action(AgentId(1)), &phi).unwrap();
        // Given receiver 1 delivers: all deliver iff receiver 2 informed (0.9).
        assert_eq!(a.constraint_probability(), r(9, 10));
        assert_eq!(a.min_belief_when_acting(), Some(r(9, 10)));
    }

    #[test]
    fn more_rounds_strictly_improve() {
        let p1 = Broadcast::new(3, r(1, 10), 1)
            .build_pps()
            .unwrap()
            .analyze()
            .constraint_probability();
        let p2 = Broadcast::new(3, r(1, 10), 2)
            .build_pps()
            .unwrap()
            .analyze()
            .constraint_probability();
        assert!(p1 < p2);
    }

    #[test]
    #[should_panic(expected = "at most 5 agents")]
    fn too_many_agents_rejected() {
        let _ = Broadcast::new(9, r(1, 10), 1);
    }
}
