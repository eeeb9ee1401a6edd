//! Flat (static) systems — the Monderer–Samet special case.
//!
//! §4 of the paper notes that Theorem 4.2 generalises a result of Monderer
//! and Samet \[29\] proved for a *static* model with no explicit actions: in
//! our formalism, a "flat" pps consisting only of a root and its children
//! (initial states that are also leaves). Their statement: if an agent's
//! expected posterior belief in `ϕ` is at least `p`, then the prior
//! probability of `ϕ` is at least `p` (indeed they are equal, by the law of
//! total probability — the depth-0 case of Theorem 6.2).
//!
//! This module builds flat systems from a prior over worlds together with
//! per-agent observation (partition) functions, and exposes the
//! Monderer–Samet quantities directly.

use pak_core::belief::Beliefs;
use pak_core::event::RunSet;
use pak_core::fact::StateFact;
use pak_core::ids::{ActionId, AgentId, Point, RunId, Time};
use pak_core::pps::{Pps, PpsBuilder};
use pak_core::prob::Probability;
use pak_core::state::SimpleState;
use pak_protocol::model::ProtocolModel;

/// A flat (single-time-step) probabilistic system: a prior over worlds with
/// per-agent partitions, as in classical incomplete-information models.
///
/// # Examples
///
/// ```
/// use pak_systems::flat::FlatSystem;
/// use pak_core::ids::AgentId;
/// use pak_num::Rational;
///
/// // Three worlds; the agent cannot tell worlds 0 and 1 apart.
/// let flat = FlatSystem::new(
///     vec![
///         (Rational::from_ratio(1, 2), vec![7]),  // world 0: observation 7
///         (Rational::from_ratio(1, 4), vec![7]),  // world 1: observation 7
///         (Rational::from_ratio(1, 4), vec![9]),  // world 2: observation 9
///     ],
/// );
/// let phi = |world: u64| world <= 1;
/// // Prior of ϕ = 3/4; expected posterior must equal it (Monderer–Samet).
/// assert_eq!(flat.prior(&phi), Rational::from_ratio(3, 4));
/// assert_eq!(flat.expected_posterior(AgentId(0), &phi), Rational::from_ratio(3, 4));
/// ```
#[derive(Debug, Clone)]
pub struct FlatSystem<P: Probability> {
    pps: Pps<SimpleState, P>,
}

impl<P: Probability> FlatSystem<P> {
    /// Builds a flat system from `(prior, observations)` pairs: world `w`
    /// has the given prior probability and agent `i` observes
    /// `observations[i]` there.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty, the priors do not sum to one, or the
    /// observation vectors have inconsistent lengths.
    #[must_use]
    pub fn new(worlds: Vec<(P, Vec<u64>)>) -> Self {
        assert!(!worlds.is_empty(), "a flat system needs at least one world");
        let n_agents = worlds[0].1.len() as u32;
        let mut b = PpsBuilder::<SimpleState, P>::new(n_agents);
        for (w, (prior, obs)) in worlds.into_iter().enumerate() {
            assert_eq!(
                obs.len() as u32,
                n_agents,
                "inconsistent observation vector"
            );
            // env records the world index; locals are the observations.
            b.initial(SimpleState::new(w as u64, obs), prior)
                .expect("valid prior");
        }
        FlatSystem {
            pps: b.build().expect("flat system is a valid pps"),
        }
    }

    /// The underlying (depth-0) pps.
    #[must_use]
    pub fn pps(&self) -> &Pps<SimpleState, P> {
        &self.pps
    }

    /// The event of the worlds satisfying `phi` (a predicate on the world
    /// index).
    #[must_use]
    pub fn event(&self, phi: &impl Fn(u64) -> bool) -> RunSet {
        RunSet::from_predicate(self.pps.num_runs(), |run| {
            let node = self.pps.node_at(run, 0).expect("flat run has time 0");
            phi(self.pps.node_state(node).env)
        })
    }

    /// The prior probability of `phi`.
    #[must_use]
    pub fn prior(&self, phi: &impl Fn(u64) -> bool) -> P {
        self.pps.measure(&self.event(phi))
    }

    /// Agent `agent`'s posterior belief in `phi` at world `world`.
    ///
    /// # Panics
    ///
    /// Panics if `world` is out of range.
    #[must_use]
    pub fn posterior(&self, agent: AgentId, phi: &impl Fn(u64) -> bool, world: usize) -> P {
        let fact = world_fact(phi);
        self.pps
            .belief(
                agent,
                &fact,
                Point {
                    run: RunId(world as u32),
                    time: 0,
                },
            )
            .expect("world exists")
    }

    /// The expected posterior `E[β_agent(ϕ)]` over the prior — by the law
    /// of total probability (the depth-0 case of Theorem 6.2), always equal
    /// to [`FlatSystem::prior`].
    #[must_use]
    pub fn expected_posterior(&self, agent: AgentId, phi: &impl Fn(u64) -> bool) -> P {
        let fact = world_fact(phi);
        let mut acc = P::zero();
        for run in self.pps.run_ids() {
            let b = self
                .pps
                .belief(agent, &fact, Point { run, time: 0 })
                .expect("world exists");
            acc.add_assign(&self.pps.run_probability(run).mul(&b));
        }
        acc
    }
}

/// The flat (static) system as a [`ProtocolModel`]: a zero-round protocol
/// whose initial states are exactly the worlds — `is_terminal` holds
/// immediately, so unfolding yields the same depth-0 tree
/// [`FlatSystem::new`] hand-builds (proved by
/// `tests/systems_unfold_smoke.rs`). The Monderer–Samet special case thus
/// rides the same model API as every other scenario.
#[derive(Debug, Clone)]
pub struct FlatModel<P> {
    /// `(prior, observations)` per world, as in [`FlatSystem::new`].
    worlds: Vec<(P, Vec<u64>)>,
}

impl<P: Probability> FlatModel<P> {
    /// Creates the model from the same `(prior, observations)` pairs as
    /// [`FlatSystem::new`].
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty or the observation vectors have
    /// inconsistent lengths (the same inputs [`FlatSystem::new`] rejects).
    #[must_use]
    pub fn new(worlds: Vec<(P, Vec<u64>)>) -> Self {
        assert!(!worlds.is_empty(), "a flat system needs at least one world");
        let n_agents = worlds[0].1.len();
        assert!(
            worlds.iter().all(|(_, obs)| obs.len() == n_agents),
            "inconsistent observation vector"
        );
        FlatModel { worlds }
    }
}

impl<P: Probability> ProtocolModel<P> for FlatModel<P> {
    type Global = SimpleState;
    type Move = Option<ActionId>;

    fn n_agents(&self) -> u32 {
        self.worlds[0].1.len() as u32
    }

    fn initial_states(&self) -> Vec<(SimpleState, P)> {
        self.worlds
            .iter()
            .enumerate()
            .map(|(w, (prior, obs))| (SimpleState::new(w as u64, obs.clone()), prior.clone()))
            .collect()
    }

    fn is_terminal(&self, _state: &SimpleState, _time: Time) -> bool {
        true // static: no rounds at all
    }

    fn action_of(&self, mv: &Self::Move) -> Option<ActionId> {
        *mv
    }

    // `moves_into`/`transition_into` are never reached (every state is
    // terminal); they still implement the trivial skip/stay protocol for
    // callers that probe the model directly.
    fn moves_into(
        &self,
        _agent: AgentId,
        _local: &u64,
        _time: Time,
        out: &mut Vec<(Self::Move, P)>,
    ) {
        out.push((None, P::one()));
    }

    fn transition_into(
        &self,
        state: &SimpleState,
        _moves: &[Self::Move],
        _time: Time,
        out: &mut Vec<(SimpleState, P)>,
    ) {
        out.push((state.clone(), P::one()));
    }
}

/// Wraps a world-index predicate as a state fact.
fn world_fact(phi: &impl Fn(u64) -> bool) -> StateFact<SimpleState> {
    // Capture the predicate's value table lazily by world index; state facts
    // must be 'static, so evaluate through the env component.
    let table: std::sync::Arc<dyn Fn(u64) -> bool + Send + Sync> = {
        // Rebuild a boxed copy of the predicate results on demand.
        // Since `phi` is not 'static, snapshot its behaviour for the world
        // indices we can encounter (u64 env values used by FlatSystem are
        // world indices, always small).
        let mut cache = Vec::new();
        for w in 0..4096u64 {
            cache.push(phi(w));
        }
        std::sync::Arc::new(move |w: u64| cache.get(w as usize).copied().unwrap_or(false))
    };
    StateFact::new("ϕ(world)", move |g: &SimpleState| table(g.env))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_num::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::from_ratio(n, d)
    }

    fn three_worlds() -> FlatSystem<Rational> {
        FlatSystem::new(vec![
            (r(1, 2), vec![7, 0]),
            (r(1, 4), vec![7, 1]),
            (r(1, 4), vec![9, 1]),
        ])
    }

    #[test]
    fn monderer_samet_equality() {
        let flat = three_worlds();
        let phi = |w: u64| w <= 1;
        for agent in [AgentId(0), AgentId(1)] {
            assert_eq!(flat.expected_posterior(agent, &phi), flat.prior(&phi));
        }
    }

    #[test]
    fn posteriors_respect_partitions() {
        let flat = three_worlds();
        let phi = |w: u64| w == 0;
        // Agent 0 merges worlds 0, 1 (both observe 7): posterior = ½/(¾) = ⅔.
        assert_eq!(flat.posterior(AgentId(0), &phi, 0), r(2, 3));
        assert_eq!(flat.posterior(AgentId(0), &phi, 1), r(2, 3));
        // World 2 is fully revealed to agent 0 (observes 9).
        assert_eq!(flat.posterior(AgentId(0), &phi, 2), Rational::zero());
        // Agent 1 merges worlds 1, 2 (both observe 1).
        assert_eq!(flat.posterior(AgentId(1), &phi, 0), Rational::one());
        assert_eq!(flat.posterior(AgentId(1), &phi, 1), Rational::zero());
    }

    #[test]
    fn expected_posterior_threshold_implies_prior_threshold() {
        // The Monderer–Samet statement as an inequality: E[β] ≥ p ⇒ µ(ϕ) ≥ p.
        let flat = three_worlds();
        let phi = |w: u64| w != 2;
        let p = r(3, 4);
        let e = flat.expected_posterior(AgentId(0), &phi);
        assert!(e >= p);
        assert!(flat.prior(&phi) >= p);
    }

    #[test]
    fn single_world_system() {
        let flat = FlatSystem::<Rational>::new(vec![(Rational::one(), vec![0])]);
        let phi_true = |_w: u64| true;
        assert!(flat.prior(&phi_true).is_one());
        assert!(flat.expected_posterior(AgentId(0), &phi_true).is_one());
    }

    #[test]
    #[should_panic(expected = "at least one world")]
    fn empty_rejected() {
        let _ = FlatSystem::<Rational>::new(vec![]);
    }
}
