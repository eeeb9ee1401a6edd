//! Bounded-horizon unfolding of a protocol into a pps.
//!
//! Given a [`ProtocolModel`], the unfolder
//! enumerates every reachable branching — initial states, each agent's mixed
//! move choices (the cartesian product across agents), and the environment's
//! probabilistic resolution — and materialises the paper's tree `T = (V, E,
//! π)` as a validated [`Pps`]. Successor states that coincide are *merged*
//! (their probabilities added): this keeps trees small (e.g. losing message
//! copy 1 vs copy 2 of an identical payload leads to the same global state)
//! and changes none of the measures, local states, or action events the
//! theory depends on.
//!
//! # Merge contract
//!
//! Two successors of a node are merged exactly when their joint-action
//! labels and their global states both compare equal. Every successor
//! state is first *interned* into the tree's
//! [`StatePool`](pak_core::intern::StatePool) — a hash-keyed arena storing
//! each distinct state once — so the merge probe compares copyable
//! [`StateId`]s instead of full states, and no state is ever cloned into
//! the frontier or the tree. This is why [`GlobalState`] and
//! [`ProtocolModel::Move`] require `Eq + Hash`. The contract on
//! implementors is the standard one: equal states must hash equal.
//! Equality that distinguishes more (or fewer) states is *safe* — it only
//! changes the size of the unfolded tree, never any run probability, local
//! state, or action event — but `Hash`/`Eq` incoherence (equal values
//! hashing differently) would leave duplicate children carrying split
//! probability mass, so the derived implementations are strongly
//! recommended.
//!
//! # Purity contract
//!
//! The unfolder queries the model exclusively through the scratch-buffer
//! API — [`ProtocolModel::moves_into`] and
//! [`ProtocolModel::transition_into`], cleared-and-reused buffers, no
//! allocation per query — and treats both as *pure functions* of their
//! arguments: because interning makes state identity explicit,
//! expansions are memoized per `(state, time)` and replayed for every
//! tree node that revisits the pair, so the model's methods may be
//! called once where a naive enumeration would call them many times.
//! Models whose distributions depend on hidden mutable state would
//! produce unspecified (though still validated) trees — no model in this
//! workspace does.
//!
//! # One path: the prior, then level by level
//!
//! Every tree is grown the same way. [`Unfolder::new`] builds the prior
//! (the root and the initial states) with a [`PpsBuilder`], wraps it in a
//! [`PpsExtender`], and then expands the frontier one level at a time up
//! to [`UnfoldConfig::horizon`]; [`unfold`] and [`unfold_with`] are that
//! constructor followed by [`Unfolder::into_pps`]. Each level expands
//! every node of time `t` before any node of time `t + 1`, appends the
//! children through the extender, and commits: the extender validates
//! the new distributions — once per distinct memoized expansion, since
//! replayed children are marked with their `(state, time)` key — and
//! incrementally repairs the run and cell indexes.
//!
//! Level-order emission makes the horizon-`h` tree a strict *prefix* of
//! the horizon-`h + 1` tree — node ids, pool ids, arenas and all — which
//! is what lets a retained [`Unfolder`] keep growing:
//! [`Unfolder::extend_horizon`] runs the same level step on the retained
//! frontier, reusing the `(state, time)` memo and the scratch buffers.
//! The purity contract is what makes retained-memo replay across
//! extensions sound. The grown tree is bit-identical to a fresh unfold
//! capped at the same horizon; `tests/unfold_differential.rs` checks
//! every intermediate horizon against independent references (a
//! Debug-string merge and a per-node cell construction), and
//! `tests/systems_unfold_smoke.rs` checks grown against fresh on every
//! `pak-systems` scenario.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use pak_core::cancel::CancelToken;
use pak_core::error::PpsError;
use pak_core::failpoint::{self, Fault};
use pak_core::hash::{FxBuildHasher, FxHasher};
use pak_core::ids::{ActionId, AgentId, NodeId, StateId, Time};
use pak_core::pps::{Pps, PpsBuilder, PpsExtender};
use pak_core::prob::Probability;
use pak_core::state::GlobalState;

use crate::model::{validate_distribution, ProtocolModel};

/// A node's merged successor list: interned state, joint-action labels,
/// and accumulated probability per distinct `(actions, state)` child.
type Successors<P> = Vec<(StateId, Vec<(AgentId, ActionId)>, P)>;

/// Limits and options for unfolding.
#[derive(Debug, Clone)]
pub struct UnfoldConfig {
    /// Hard cap on the number of global-state tree nodes (the phantom root
    /// `λ` is not counted); unfolding fails rather than exhausting memory.
    /// A model whose tree has exactly `N` state nodes unfolds successfully
    /// with `max_nodes = N` and fails with `N - 1`. Defaults to `1 << 20`.
    pub max_nodes: usize,
    /// Optional hard cap on depth (a safety net for models whose
    /// `is_terminal` never fires). `None` trusts the model.
    pub max_depth: Option<u32>,
    /// Optional truncating horizon: expansion stops once the frontier
    /// reaches this time, keeping the nodes there as leaves even where the
    /// model is not yet terminal (`Some(0)` yields just the prior).
    /// Unlike [`UnfoldConfig::max_depth`] — a safety net whose violation
    /// is an *error* — hitting the horizon is a normal, successful stop:
    /// a handle built with `Some(h)` can later grow past `h` through
    /// [`Unfolder::extend_horizon`]. `None` (the default) trusts
    /// [`ProtocolModel::is_terminal`] alone.
    pub horizon: Option<Time>,
}

impl Default for UnfoldConfig {
    fn default() -> Self {
        UnfoldConfig {
            max_nodes: 1 << 20,
            max_depth: Some(64),
            horizon: None,
        }
    }
}

/// Error produced by [`unfold`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UnfoldError {
    /// The model emitted a malformed distribution (empty, non-positive
    /// entry, or not summing to one).
    BadModelDistribution {
        /// Where the bad distribution came from.
        origin: &'static str,
        /// Description of the violation.
        detail: String,
    },
    /// The unfolding exceeded [`UnfoldConfig::max_nodes`].
    TooLarge {
        /// The configured limit.
        max_nodes: usize,
    },
    /// The depth cap was hit before every path terminated.
    DepthExceeded {
        /// The configured limit.
        max_depth: u32,
    },
    /// The resulting tree failed pps validation (should not happen for
    /// well-formed models; indicates a model bug such as f64 distributions
    /// drifting outside tolerance).
    Pps(PpsError),
    /// A [`CancelToken`] tripped (explicit cancellation or a blown
    /// deadline). The unfolder handle remains valid at the horizon of
    /// the last *committed* level — see
    /// [`Unfolder::extend_horizon_with`].
    Cancelled,
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::BadModelDistribution { origin, detail } => {
                write!(f, "model produced a bad distribution in {origin}: {detail}")
            }
            UnfoldError::TooLarge { max_nodes } => {
                write!(
                    f,
                    "unfolding exceeded the configured limit of {max_nodes} nodes"
                )
            }
            UnfoldError::DepthExceeded { max_depth } => {
                write!(
                    f,
                    "unfolding exceeded the depth cap of {max_depth} without terminating"
                )
            }
            UnfoldError::Pps(e) => write!(f, "unfolded tree failed validation: {e}"),
            UnfoldError::Cancelled => {
                write!(f, "unfolding was cancelled (deadline or explicit cancel)")
            }
        }
    }
}

impl std::error::Error for UnfoldError {}

impl From<PpsError> for UnfoldError {
    fn from(e: PpsError) -> Self {
        UnfoldError::Pps(e)
    }
}

/// Unfolds a protocol model into a purely probabilistic system with the
/// default limits.
///
/// # Errors
///
/// See [`UnfoldError`].
///
/// # Examples
///
/// ```
/// use pak_protocol::model::{CoinModel, COIN_ACT};
/// use pak_protocol::unfold::unfold;
/// use pak_core::prelude::*;
/// use pak_num::Rational;
///
/// let m = CoinModel { heads_num: 99, heads_den: 100 };
/// let pps = unfold::<_, Rational>(&m).unwrap();
/// assert_eq!(pps.num_runs(), 2);
/// assert!(pps.is_proper(AgentId(0), COIN_ACT));
/// ```
pub fn unfold<M, P>(model: &M) -> Result<Pps<M::Global, P>, UnfoldError>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    unfold_with(model, &UnfoldConfig::default())
}

/// Unfolds a protocol model with explicit limits: [`Unfolder::new`]
/// followed by [`Unfolder::into_pps`].
///
/// # Errors
///
/// See [`UnfoldError`].
pub fn unfold_with<M, P>(model: &M, config: &UnfoldConfig) -> Result<Pps<M::Global, P>, UnfoldError>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    Ok(Unfolder::new(model, config.clone())?.into_pps())
}

/// Sentinel for "no memoized expansion" in [`ExpansionCore`]'s dense memo
/// rows.
const EXPANSION_NONE: u32 = u32::MAX;
/// Total-cell budget across the dense memo rows; keys past it spill into
/// an ordinary hash map (see [`ExpansionCore::memo_insert`]).
const DENSE_MEMO_BUDGET: usize = 1 << 20;

/// The expansion engine: the frontier and every reusable buffer of the
/// expansion loop, kept separate from the tree being filled (the
/// [`PpsExtender`]) so a failed level can roll each back on its own. A
/// retained [`Unfolder`] keeps its engine — memo, scratch, frontier and
/// all — alive across horizon extensions.
///
/// The frontier is processed strictly in **level order** (all of time `t`
/// before any of time `t + 1`), which makes every horizon-`h` tree a
/// prefix of the horizon-`h + 1` tree and is what grounds the
/// grown-equals-rebuilt bit-identity contract.
///
/// Interning makes repeated work *visible*: two frontier nodes carrying
/// the same `(StateId, time)` expand to bit-identical successor lists
/// (the model's methods are pure functions of the state and time), so the
/// merged expansion is computed once per distinct pair and replayed for
/// every further node that reaches it. Unfolded trees revisit states
/// heavily — merging and environment branching both funnel into shared
/// states — which makes this the main saving of the interned pipeline.
/// Alongside each successor list the memo keeps the tree nodes of the
/// *first* emission: replays go through
/// [`PpsExtender::append_children_replayed`] (state, probability, and
/// actions shared from the template node — no per-edge re-validation, no
/// copies).
/// Memo keys are dense (`time × StateId`), so the memo is a grown-on-demand
/// flat table probed with two array reads per node, not a hash map —
/// bounded by a total-cell budget so deep, state-diverse models (where
/// `time × states` is quadratic in tree size) cannot blow up memory:
/// keys past the budget spill into an ordinary hash map.
struct ExpansionCore<'m, M: ProtocolModel<P>, P: Probability> {
    model: &'m M,
    n_agents: u32,
    /// State nodes emitted so far (the phantom root is not counted).
    node_count: usize,
    /// The current level's nodes still to expand, all at one time:
    /// (tree node, interned state). States live once in the tree's pool;
    /// the frontier carries copyable ids, never clones. Only non-terminal
    /// nodes ever enter (their `is_terminal` is consulted exactly once,
    /// when they are pushed).
    frontier: Vec<(NodeId, StateId)>,
    /// The next level's frontier, filled while the current one expands.
    next: Vec<(NodeId, StateId)>,
    // --- `(state, time)` expansion memo ---
    expansion_rows: Vec<Vec<u32>>,
    expansion_spill: HashMap<(StateId, u32), u32, FxBuildHasher>,
    dense_memo_cells: usize,
    /// Memoized expansions: the merged successor list plus the id of the
    /// first child node of the expansion's first emission (children are
    /// inserted back to back, so `(first, successors.len())` names the
    /// whole contiguous template range for bulk replay).
    expansions: Vec<(Successors<P>, NodeId)>,
    /// Memo keys inserted during the level currently expanding — the undo
    /// log that lets a failed extension level roll the memo back
    /// ([`ExpansionCore::rollback_level`]).
    memo_added: Vec<(StateId, u32)>,
    // --- per-expansion scratch, cleared (not reallocated) per miss ---
    /// Each agent's move distribution, filled through
    /// [`ProtocolModel::moves_into`].
    per_agent: Vec<Vec<(M::Move, P)>>,
    /// Merge probe: hash of `(actions, successor id)` → candidate slots.
    index: HashMap<u64, Vec<usize>, FxBuildHasher>,
    /// The joint move under construction (odometer over `per_agent`).
    joint: Vec<M::Move>,
    /// Odometer counters, one per agent.
    counters: Vec<usize>,
    /// The action labels of the joint move under construction.
    actions: Vec<(AgentId, ActionId)>,
    /// The environment's successor distribution, filled through
    /// [`ProtocolModel::transition_into`].
    outcomes: Vec<(M::Global, P)>,
}

impl<M, P> Clone for ExpansionCore<'_, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn clone(&self) -> Self {
        ExpansionCore {
            model: self.model,
            n_agents: self.n_agents,
            node_count: self.node_count,
            frontier: self.frontier.clone(),
            next: self.next.clone(),
            expansion_rows: self.expansion_rows.clone(),
            expansion_spill: self.expansion_spill.clone(),
            dense_memo_cells: self.dense_memo_cells,
            expansions: self.expansions.clone(),
            memo_added: self.memo_added.clone(),
            per_agent: self.per_agent.clone(),
            index: self.index.clone(),
            joint: self.joint.clone(),
            counters: self.counters.clone(),
            actions: self.actions.clone(),
            outcomes: self.outcomes.clone(),
        }
    }
}

impl<'m, M, P> ExpansionCore<'m, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn new(model: &'m M, n_agents: u32) -> Self {
        ExpansionCore {
            model,
            n_agents,
            node_count: 0,
            frontier: Vec::new(),
            next: Vec::new(),
            expansion_rows: Vec::new(),
            expansion_spill: HashMap::default(),
            dense_memo_cells: 0,
            expansions: Vec::new(),
            memo_added: Vec::new(),
            per_agent: (0..n_agents).map(|_| Vec::new()).collect(),
            index: HashMap::default(),
            joint: Vec::with_capacity(n_agents as usize),
            counters: vec![0; n_agents as usize],
            actions: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Seeds a pre-validated prior into a fresh builder and the level-0
    /// frontier.
    fn seed(
        &mut self,
        builder: &mut PpsBuilder<M::Global, P>,
        initial: Vec<(M::Global, P)>,
    ) -> Result<(), UnfoldError> {
        for (state, p) in initial {
            let sid = builder.intern(state);
            let id = builder.initial_interned(sid, p)?;
            self.node_count += 1;
            if !self.model.is_terminal(builder.state(sid), 0) {
                self.frontier.push((id, sid));
            }
        }
        Ok(())
    }

    fn memo_get(&self, sid: StateId, time: u32) -> u32 {
        let slot = self
            .expansion_rows
            .get(time as usize)
            .and_then(|row| row.get(sid.index()))
            .copied()
            .unwrap_or(EXPANSION_NONE);
        if slot == EXPANSION_NONE && !self.expansion_spill.is_empty() {
            return self
                .expansion_spill
                .get(&(sid, time))
                .copied()
                .unwrap_or(EXPANSION_NONE);
        }
        slot
    }

    fn memo_insert(&mut self, sid: StateId, time: u32, slot: u32) {
        self.memo_added.push((sid, time));
        if self.expansion_rows.len() <= time as usize {
            self.expansion_rows.resize_with(time as usize + 1, Vec::new);
        }
        let row = &mut self.expansion_rows[time as usize];
        if sid.index() < row.len() {
            row[sid.index()] = slot;
        } else {
            let grow = sid.index() + 1 - row.len();
            if self.dense_memo_cells + grow <= DENSE_MEMO_BUDGET {
                self.dense_memo_cells += grow;
                row.resize(sid.index() + 1, EXPANSION_NONE);
                row[sid.index()] = slot;
            } else {
                self.expansion_spill.insert((sid, time), slot);
            }
        }
    }

    /// Expands every node of the current frontier (all at `time`) into
    /// the open level of `tree`, collecting the next level's frontier in
    /// `self.next`. The current frontier is left intact in both outcomes —
    /// the caller promotes the new level ([`ExpansionCore::promote_level`])
    /// once the level has committed, which is what lets a failed
    /// [`PpsExtender::commit_level`] roll back without a frontier
    /// snapshot. On error the caller rolls the engine back
    /// ([`ExpansionCore::rollback_level`]); the tree is the caller's to
    /// unwind. When `cancel` is set, the token is polled once per
    /// frontier node and trips through the same error path as a model
    /// failure ([`UnfoldError::Cancelled`]).
    fn expand_level(
        &mut self,
        tree: &mut PpsExtender<M::Global, P>,
        time: Time,
        config: &UnfoldConfig,
        cancel: Option<&CancelToken>,
    ) -> Result<(), UnfoldError> {
        debug_assert!(self.next.is_empty());
        self.memo_added.clear();
        let mut i = 0;
        while i < self.frontier.len() {
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(UnfoldError::Cancelled);
                }
            }
            let (node, sid) = self.frontier[i];
            i += 1;
            let memo_slot = self.memo_get(sid, time);
            if memo_slot != EXPANSION_NONE {
                let (successors, first_template) = &self.expansions[memo_slot as usize];
                let count = successors.len();
                self.node_count += count;
                if self.node_count > config.max_nodes {
                    return Err(UnfoldError::TooLarge {
                        max_nodes: config.max_nodes,
                    });
                }
                // One bulk column copy for the whole expansion instead of
                // `count` interleaved pushes.
                let base = tree.append_children_replayed(node, *first_template, count);
                for (k, (succ_id, _, _)) in successors.iter().enumerate() {
                    if !self.model.is_terminal(tree.state(*succ_id), time + 1) {
                        self.next.push((NodeId(base.0 + k as u32), *succ_id));
                    }
                }
            } else {
                self.expand(tree, node, sid, time, config)?;
            }
            // Every expanded node's children are (re)played from the
            // memoized `(state, time)` successor list, so the commit
            // validates the outgoing distribution once per distinct pair
            // instead of once per node.
            tree.mark_level_children_shared(node, sid, time);
        }
        Ok(())
    }

    /// Retires the expanded frontier and installs the level
    /// [`ExpansionCore::expand_level`] collected in its place.
    fn promote_level(&mut self) {
        self.frontier.clear();
        std::mem::swap(&mut self.frontier, &mut self.next);
    }

    /// Rolls the engine back to the state it held before the failed (or
    /// commit-rejected) [`ExpansionCore::expand_level`]: discards the
    /// half-built next level (the expanded frontier is still in place —
    /// it only retires at [`ExpansionCore::promote_level`]), unwinds the
    /// memo via the per-level undo log, truncates the
    /// expansion arena (inserts and pushes are 1:1), and restores the
    /// node count. Dense memo rows keep their grown capacity; only the
    /// slots are cleared.
    fn rollback_level(&mut self, node_count: usize) {
        self.next.clear();
        self.node_count = node_count;
        let kept = self.expansions.len() - self.memo_added.len();
        self.expansions.truncate(kept);
        for &(sid, time) in &self.memo_added {
            let dense = self
                .expansion_rows
                .get_mut(time as usize)
                .and_then(|row| row.get_mut(sid.index()));
            match dense {
                Some(slot) if *slot != EXPANSION_NONE => *slot = EXPANSION_NONE,
                _ => {
                    self.expansion_spill.remove(&(sid, time));
                }
            }
        }
        self.memo_added.clear();
    }

    /// Computes a fresh expansion of `(sid, time)`, emits its children
    /// under `node`, and memoizes the successor list.
    fn expand(
        &mut self,
        tree: &mut PpsExtender<M::Global, P>,
        node: NodeId,
        sid: StateId,
        time: u32,
        config: &UnfoldConfig,
    ) -> Result<(), UnfoldError> {
        match failpoint::check("unfold.expand") {
            None => {}
            Some(Fault::Error) => {
                return Err(UnfoldError::BadModelDistribution {
                    origin: "failpoint",
                    detail: "injected fault at unfold.expand".to_owned(),
                });
            }
            Some(Fault::Cancel) => return Err(UnfoldError::Cancelled),
            Some(Fault::Panic) => panic!("failpoint unfold.expand: injected panic"),
        }
        // Gather each agent's mixed move distribution from its local
        // state, into the per-agent scratch buffers.
        for a in 0..self.n_agents {
            let agent = AgentId(a);
            let local = tree.state(sid).local(agent);
            let dist = &mut self.per_agent[a as usize];
            dist.clear();
            self.model.moves_into(agent, &local, time, dist);
            validate_distribution(dist).map_err(|detail| UnfoldError::BadModelDistribution {
                origin: "moves",
                detail,
            })?;
        }

        // Enumerate the cartesian product of joint moves (an odometer
        // over the per-agent scratch — each joint move is assembled in
        // one reused buffer), resolve each via the environment, and
        // merge identical successors. Each successor is interned first
        // (one hash + `Eq` confirmation inside the pool), so the merge
        // index compares `(actions, StateId)` — a repeated successor
        // costs one hash and one id comparison, with no state clone or
        // allocation at all.
        let mut successors: Successors<P> = Vec::new();
        self.index.clear();
        for c in &mut self.counters {
            *c = 0;
        }
        loop {
            self.joint.clear();
            self.actions.clear();
            // Deterministic moves (probability one — the common case)
            // leave the accumulator untouched instead of paying a
            // multiply-by-one per agent per joint move.
            let mut p_joint: Option<P> = None;
            for (i, &c) in self.counters.iter().enumerate() {
                let (mv, p) = &self.per_agent[i][c];
                if let Some(act) = self.model.action_of(mv) {
                    self.actions.push((AgentId(i as u32), act));
                }
                self.joint.push(mv.clone());
                if !p.is_one() {
                    p_joint = Some(match p_joint {
                        None => p.clone(),
                        Some(q) => q.mul(p),
                    });
                }
            }
            self.outcomes.clear();
            self.model
                .transition_into(tree.state(sid), &self.joint, time, &mut self.outcomes);
            validate_distribution(&self.outcomes).map_err(|detail| {
                UnfoldError::BadModelDistribution {
                    origin: "transition",
                    detail,
                }
            })?;
            for (succ, p_env) in self.outcomes.drain(..) {
                // `p_env` is owned here, so the all-deterministic case
                // forwards it without a clone or a multiply.
                let p = match &p_joint {
                    None => p_env,
                    Some(q) => q.mul(&p_env),
                };
                let succ_id = tree.intern(succ);
                let mut hasher = FxHasher::default();
                self.actions.hash(&mut hasher);
                succ_id.hash(&mut hasher);
                let bucket = self.index.entry(hasher.finish()).or_default();
                match bucket
                    .iter()
                    .find(|&&i| successors[i].0 == succ_id && successors[i].1 == self.actions)
                {
                    Some(&i) => {
                        successors[i].2.add_assign(&p);
                    }
                    None => {
                        bucket.push(successors.len());
                        successors.push((succ_id, self.actions.clone(), p));
                    }
                }
            }
            // Advance the odometer.
            let mut i = 0;
            loop {
                if i == self.counters.len() {
                    return self.finish_expansion(tree, node, sid, time, successors, config);
                }
                self.counters[i] += 1;
                if self.counters[i] < self.per_agent[i].len() {
                    break;
                }
                self.counters[i] = 0;
                i += 1;
            }
        }
    }

    /// Emits the merged successor list under `node` and memoizes it.
    fn finish_expansion(
        &mut self,
        tree: &mut PpsExtender<M::Global, P>,
        node: NodeId,
        sid: StateId,
        time: u32,
        successors: Successors<P>,
        config: &UnfoldConfig,
    ) -> Result<(), UnfoldError> {
        let mut first_child = NodeId::ROOT;
        for (i, (succ_id, actions, p)) in successors.iter().enumerate() {
            self.node_count += 1;
            if self.node_count > config.max_nodes {
                return Err(UnfoldError::TooLarge {
                    max_nodes: config.max_nodes,
                });
            }
            let child = tree.append_child(node, *succ_id, p.clone(), actions)?;
            if i == 0 {
                first_child = child;
            }
            if !self.model.is_terminal(tree.state(*succ_id), time + 1) {
                self.next.push((child, *succ_id));
            }
        }
        let slot = self.expansions.len() as u32;
        self.memo_insert(sid, time, slot);
        self.expansions.push((successors, first_child));
        Ok(())
    }
}

/// An unfolding session, and the only way a tree is built from a model:
/// the model, the `(state, time)` expansion memo, the scratch buffers,
/// the [`StatePool`](pak_core::intern::StatePool), the per-agent local
/// pools, and the leaf frontier all stay alive across calls, so growing
/// a tree from horizon `h` to `h + 1` ([`Unfolder::extend_horizon`])
/// expands only the previous leaf frontier and incrementally repairs the
/// derived run/cell indexes through a [`PpsExtender`].
///
/// [`Unfolder::new`] runs the same level step up to
/// [`UnfoldConfig::horizon`], so the grown system is **bit-identical** —
/// pool ids, node order, run probabilities, cells, action events — to a
/// fresh session of the same model capped at the same horizon
/// (`UnfoldConfig { horizon: Some(h), .. }`). On error, `extend_horizon`
/// rolls both the engine and the tree back to the previous horizon and
/// the handle stays usable.
///
/// # Examples
///
/// ```
/// use pak_protocol::model::CoinModel;
/// use pak_protocol::unfold::{UnfoldConfig, Unfolder};
/// use pak_num::Rational;
///
/// let m = CoinModel { heads_num: 1, heads_den: 2 };
/// // Build just the prior (horizon 0), then grow one level at a time.
/// let cfg = UnfoldConfig { horizon: Some(0), ..UnfoldConfig::default() };
/// let mut u = Unfolder::<_, Rational>::new(&m, cfg).unwrap();
/// assert_eq!(u.pps().num_nodes(), 3); // root λ + the two initial states
/// assert!(u.extend_horizon().unwrap());
/// assert_eq!(u.pps().num_nodes(), 5); // the coin resolves at time 1
/// assert!(!u.extend_horizon().unwrap()); // every path has terminated
/// assert_eq!(u.horizon(), 1);
/// ```
pub struct Unfolder<'m, M: ProtocolModel<P>, P: Probability> {
    config: UnfoldConfig,
    core: ExpansionCore<'m, M, P>,
    extender: PpsExtender<M::Global, P>,
    /// The time the retained frontier sits at: every level strictly below
    /// it has been expanded.
    horizon: Time,
}

impl<M, P> Clone for Unfolder<'_, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn clone(&self) -> Self {
        Unfolder {
            config: self.config.clone(),
            core: self.core.clone(),
            extender: self.extender.clone(),
            horizon: self.horizon,
        }
    }
}

impl<M, P> fmt::Debug for Unfolder<'_, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unfolder")
            .field("horizon", &self.horizon)
            .field("num_nodes", &self.extender.pps().num_nodes())
            .field("frontier", &self.core.frontier.len())
            .finish_non_exhaustive()
    }
}

impl<'m, M, P> Unfolder<'m, M, P>
where
    M: ProtocolModel<P>,
    P: Probability,
{
    /// Unfolds `model` up to `config.horizon` (or to exhaustion when it is
    /// `None`) and retains everything needed to grow further: the prior
    /// is built with a [`PpsBuilder`], and every later level is grown by
    /// the level step [`Unfolder::extend_horizon`] runs.
    ///
    /// # Errors
    ///
    /// See [`UnfoldError`].
    pub fn new(model: &'m M, config: UnfoldConfig) -> Result<Self, UnfoldError> {
        let n_agents = model.n_agents();
        let initial = model.initial_states();
        validate_distribution(&initial).map_err(|detail| UnfoldError::BadModelDistribution {
            origin: "initial_states",
            detail,
        })?;
        if initial.len() > config.max_nodes {
            return Err(UnfoldError::TooLarge {
                max_nodes: config.max_nodes,
            });
        }
        let mut core = ExpansionCore::new(model, n_agents);
        let mut builder = PpsBuilder::new(n_agents);
        core.seed(&mut builder, initial)?;
        let mut unfolder = Unfolder {
            config,
            core,
            extender: PpsExtender::new(builder.build()?),
            horizon: 0,
        };
        while unfolder.config.horizon != Some(unfolder.horizon) && unfolder.grow_level(None)? {}
        Ok(unfolder)
    }

    /// The system unfolded so far. Valid (and queryable) after every
    /// successful call — extension repairs the indexes level by level.
    pub fn pps(&self) -> &Pps<M::Global, P> {
        self.extender.pps()
    }

    /// The horizon the tree currently stands at: the time of the retained
    /// frontier. Every level strictly below it is fully expanded; equals
    /// the final frontier time once growth is exhausted.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Whether the tree can still grow: true while the retained frontier
    /// is non-empty, false once every path has terminated.
    pub fn can_extend(&self) -> bool {
        !self.core.frontier.is_empty()
    }

    /// Grows the tree by one level: expands the retained leaf frontier
    /// (reusing the live `(state, time)` expansion memo), appends the new
    /// nodes, and incrementally repairs the run and cell indexes. Returns
    /// `Ok(true)` if a level was added, `Ok(false)` if every path had
    /// already terminated (the tree is complete; calling again stays
    /// `Ok(false)`).
    ///
    /// The result after `extend_horizon` is bit-identical to a fresh
    /// session capped one level deeper — see the type-level docs for the
    /// exactness contract.
    ///
    /// # Errors
    ///
    /// [`UnfoldError::TooLarge`], [`UnfoldError::DepthExceeded`],
    /// [`UnfoldError::BadModelDistribution`], or [`UnfoldError::Pps`],
    /// exactly as a fresh session capped at the next horizon would report
    /// them. On error the half-built level is rolled back — nodes, pool
    /// entries, memo inserts, frontier — and the handle remains usable at
    /// its previous horizon.
    pub fn extend_horizon(&mut self) -> Result<bool, UnfoldError> {
        self.extend_inner(None)
    }

    /// As [`Unfolder::extend_horizon`], polling `cancel` at the level
    /// boundary and once per frontier node inside the level.
    ///
    /// # Errors
    ///
    /// As [`Unfolder::extend_horizon`], plus [`UnfoldError::Cancelled`]
    /// when the token trips. Cancellation takes the same rollback path
    /// as a model error: the half-built level is unwound via the
    /// extender's level-abort protocol and the handle remains a valid,
    /// bit-identical tree at its pre-call horizon — a later retry (with
    /// a fresh token) reproduces the uninterrupted extension exactly.
    pub fn extend_horizon_with(&mut self, cancel: &CancelToken) -> Result<bool, UnfoldError> {
        self.extend_inner(Some(cancel))
    }

    fn extend_inner(&mut self, cancel: Option<&CancelToken>) -> Result<bool, UnfoldError> {
        if self.core.frontier.is_empty() {
            return Ok(false);
        }
        match failpoint::check("extend.level") {
            None => {}
            Some(Fault::Error) => {
                return Err(UnfoldError::BadModelDistribution {
                    origin: "failpoint",
                    detail: "injected fault at extend.level".to_owned(),
                });
            }
            Some(Fault::Cancel) => return Err(UnfoldError::Cancelled),
            Some(Fault::Panic) => panic!("failpoint extend.level: injected panic"),
        }
        if let Some(token) = cancel {
            if token.is_cancelled() {
                return Err(UnfoldError::Cancelled);
            }
        }
        self.grow_level(cancel)
    }

    /// The level step shared by [`Unfolder::new`] and the public extend
    /// calls: expands the retained frontier into one new level and
    /// commits it, or rolls both the engine and the tree back on error.
    /// Returns `Ok(false)` when every path has already terminated.
    fn grow_level(&mut self, cancel: Option<&CancelToken>) -> Result<bool, UnfoldError> {
        if self.core.frontier.is_empty() {
            return Ok(false);
        }
        if let Some(d) = self.config.max_depth {
            if self.horizon >= d {
                return Err(UnfoldError::DepthExceeded { max_depth: d });
            }
        }
        let node_count = self.core.node_count;
        self.extender.begin_level();
        if let Err(e) =
            self.core
                .expand_level(&mut self.extender, self.horizon, &self.config, cancel)
        {
            self.extender.abort_level();
            self.core.rollback_level(node_count);
            return Err(e);
        }
        if let Err(e) = self.extender.commit_level() {
            // Validation failure: commit_level has already unwound the
            // appended level; the old frontier is still in place (levels
            // promote only after a successful commit), so rolling back
            // the engine restores everything.
            self.core.rollback_level(node_count);
            return Err(UnfoldError::Pps(e));
        }
        self.core.promote_level();
        self.horizon += 1;
        Ok(true)
    }

    /// Consumes the handle, returning the grown system.
    pub fn into_pps(self) -> Pps<M::Global, P> {
        self.extender.into_pps()
    }
}

/// Iterator over the cartesian product of per-agent move distributions,
/// yielding each joint move with its product probability.
///
/// For distributions of sizes `k_1, …, k_n` the iterator yields exactly
/// `k_1 · k_2 · … · k_n` joint moves, and the yielded probabilities sum to
/// one whenever every input distribution does (the product distribution).
/// An empty list of distributions yields the single empty joint move with
/// probability one (the empty product); any *individual* empty
/// distribution yields nothing (there is no joint move to form).
///
/// # Examples
///
/// ```
/// use pak_protocol::unfold::CartesianMoves;
/// use pak_num::Rational;
/// use pak_core::prob::Probability;
///
/// let d = vec![
///     ("a", Rational::from_ratio(1, 2)),
///     ("b", Rational::from_ratio(1, 2)),
/// ];
/// let all: Vec<_> = CartesianMoves::new(&[d.clone(), d]).collect();
/// assert_eq!(all.len(), 4);
/// let total: Rational = all.iter().map(|(_, p)| p.clone()).sum();
/// assert!(total.is_one());
/// ```
#[derive(Debug)]
pub struct CartesianMoves<'a, T, P> {
    dists: &'a [Vec<(T, P)>],
    counters: Vec<usize>,
    done: bool,
}

impl<'a, T, P> CartesianMoves<'a, T, P> {
    /// Creates the product iterator over `dists`.
    pub fn new(dists: &'a [Vec<(T, P)>]) -> Self {
        CartesianMoves {
            dists,
            counters: vec![0; dists.len()],
            done: dists.iter().any(Vec::is_empty),
        }
    }
}

impl<T: Clone, P: Probability> Iterator for CartesianMoves<'_, T, P> {
    type Item = (Vec<T>, P);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut joint = Vec::with_capacity(self.dists.len());
        let mut prob = P::one();
        for (i, &c) in self.counters.iter().enumerate() {
            let (mv, p) = &self.dists[i][c];
            joint.push(mv.clone());
            prob = prob.mul(p);
        }
        // Advance odometer.
        let mut i = 0;
        loop {
            if i == self.counters.len() {
                self.done = true;
                break;
            }
            self.counters[i] += 1;
            if self.counters[i] < self.dists[i].len() {
                break;
            }
            self.counters[i] = 0;
            i += 1;
        }
        Some((joint, prob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CoinModel, TableModel, COIN_ACT};
    use pak_core::fact::StateFact;
    use pak_core::prelude::*;
    use pak_num::Rational;

    #[test]
    fn coin_model_unfolds_to_two_runs() {
        let m = CoinModel {
            heads_num: 99,
            heads_den: 100,
        };
        let pps = unfold::<_, Rational>(&m).unwrap();
        assert_eq!(pps.num_runs(), 2);
        assert!(pps.measure(&pps.all_runs()).is_one());
        let heads = StateFact::new("heads", |g: &crate::model::CoinState| g.heads);
        let a = ActionAnalysis::new(&pps, AgentId(0), COIN_ACT, &heads).unwrap();
        assert_eq!(a.constraint_probability(), Rational::from_ratio(99, 100));
        // The blind agent's expected belief equals the prior (Theorem 6.2).
        assert_eq!(a.expected_belief(), Rational::from_ratio(99, 100));
    }

    #[test]
    fn cartesian_moves_enumerates_products() {
        let d1 = vec![
            ("a", Rational::from_ratio(1, 2)),
            ("b", Rational::from_ratio(1, 2)),
        ];
        let d2 = vec![
            ("x", Rational::from_ratio(1, 3)),
            ("y", Rational::from_ratio(1, 3)),
            ("z", Rational::from_ratio(1, 3)),
        ];
        let all: Vec<(Vec<&str>, Rational)> = CartesianMoves::new(&[d1, d2]).collect();
        assert_eq!(all.len(), 6);
        let total: Rational = all.iter().map(|(_, p)| p.clone()).sum();
        assert!(total.is_one());
    }

    #[test]
    fn cartesian_of_empty_list_is_unit() {
        let dists: Vec<Vec<((), Rational)>> = vec![];
        let all: Vec<(Vec<()>, Rational)> = CartesianMoves::new(&dists).collect();
        assert_eq!(all.len(), 1);
        assert!(all[0].1.is_one());
    }

    #[test]
    fn mixed_action_model_unfolds_figure1() {
        // Figure 1 via a table model: one agent, mixed α/α′ at time 0.
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 1,
            moves: vec![(
                (0, 0, 0),
                vec![
                    (Some(ActionId(0)), Rational::from_ratio(1, 2)),
                    (Some(ActionId(1)), Rational::from_ratio(1, 2)),
                ],
            )],
            transitions: vec![],
            ..TableModel::default()
        };
        let pps = unfold::<_, Rational>(&m).unwrap();
        assert_eq!(pps.num_runs(), 2);
        assert!(pps.is_proper(AgentId(0), ActionId(0)));
        // The paper's Figure-1 pathology, via the protocol pipeline:
        let psi = NotFact(DoesFact::new(AgentId(0), ActionId(0)));
        let a = ActionAnalysis::new(&pps, AgentId(0), ActionId(0), &psi).unwrap();
        assert!(a.constraint_probability().is_zero());
        assert_eq!(a.min_belief_when_acting(), Some(Rational::from_ratio(1, 2)));
    }

    #[test]
    fn merging_identical_successors() {
        // Environment flips two fair coins but the successor state only
        // records their XOR: 4 outcomes merge into 2 children.
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 1,
            moves: vec![],
            transitions: vec![(
                (0, 0),
                vec![
                    (0, vec![0], Rational::from_ratio(1, 4)),
                    (1, vec![0], Rational::from_ratio(1, 4)),
                    (1, vec![0], Rational::from_ratio(1, 4)),
                    (0, vec![0], Rational::from_ratio(1, 4)),
                ],
            )],
            ..TableModel::default()
        };
        let pps = unfold::<_, Rational>(&m).unwrap();
        assert_eq!(pps.num_runs(), 2);
        for run in pps.run_ids() {
            assert_eq!(pps.run_probability(run), &Rational::from_ratio(1, 2));
        }
    }

    #[test]
    fn node_limit_enforced() {
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let cfg = UnfoldConfig {
            max_nodes: 2,
            max_depth: None,
            horizon: None,
        };
        let err = unfold_with::<_, Rational>(&m, &cfg).unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 2 }));
    }

    #[test]
    fn max_nodes_counts_state_nodes_exactly() {
        // The coin tree has exactly 4 state nodes (2 initial states, each
        // with one terminal child); the phantom root is not counted, so
        // max_nodes = 4 succeeds and max_nodes = 3 fails.
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let pps = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                max_nodes: 4,
                max_depth: None,
                horizon: None,
            },
        )
        .unwrap();
        assert_eq!(pps.num_nodes(), 5); // 4 state nodes + the root λ
        let err = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                max_nodes: 3,
                max_depth: None,
                horizon: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 3 }));
    }

    #[test]
    fn max_nodes_caps_initial_states_too() {
        // Two initial states with max_nodes = 1 must already fail at the
        // prior, not only when expanding children.
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let err = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                max_nodes: 1,
                max_depth: None,
                horizon: None,
            },
        )
        .unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 1 }));
    }

    #[test]
    fn depth_cap_detects_nontermination() {
        // A model whose is_terminal never fires.
        #[derive(Debug)]
        struct Forever;
        impl ProtocolModel<Rational> for Forever {
            type Global = SimpleState;
            type Move = ();
            fn n_agents(&self) -> u32 {
                1
            }
            fn initial_states(&self) -> Vec<(SimpleState, Rational)> {
                vec![(SimpleState::zeroed(1), Rational::one())]
            }
            fn is_terminal(&self, _s: &SimpleState, _t: u32) -> bool {
                false
            }
            fn moves_into(&self, _a: AgentId, _l: &u64, _t: u32, out: &mut Vec<((), Rational)>) {
                out.push(((), Rational::one()));
            }
            fn action_of(&self, _mv: &()) -> Option<ActionId> {
                None
            }
            fn transition_into(
                &self,
                s: &SimpleState,
                _m: &[()],
                _t: u32,
                out: &mut Vec<(SimpleState, Rational)>,
            ) {
                out.push((s.clone(), Rational::one()));
            }
        }
        let cfg = UnfoldConfig {
            max_nodes: 1 << 20,
            max_depth: Some(8),
            horizon: None,
        };
        let err = unfold_with::<_, Rational>(&Forever, &cfg).unwrap_err();
        assert!(matches!(err, UnfoldError::DepthExceeded { max_depth: 8 }));
    }

    #[test]
    fn horizon_cap_truncates_cleanly() {
        // A 3-step table model capped at horizon 1 keeps the time-1 nodes
        // as leaves and still builds a valid (queryable) system.
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::one())],
            horizon: 3,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        let full = unfold::<_, Rational>(&m).unwrap();
        let capped = unfold_with::<_, Rational>(
            &m,
            &UnfoldConfig {
                horizon: Some(1),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        assert_eq!(capped.horizon(), 1);
        assert!(full.horizon() > capped.horizon());
        assert!(capped.measure(&capped.all_runs()).is_one());
    }

    #[test]
    fn extend_horizon_matches_scratch_unfold() {
        // Grow 0 → exhaustion one level at a time; at each step the grown
        // system must match a fresh unfold capped at that horizon.
        let m: TableModel<Rational> = TableModel {
            n_agents: 2,
            initial: vec![
                (0, vec![0, 0], Rational::from_ratio(1, 3)),
                (1, vec![1, 0], Rational::from_ratio(2, 3)),
            ],
            horizon: 3,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        let mut u = Unfolder::<_, Rational>::new(
            &m,
            UnfoldConfig {
                horizon: Some(0),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let mut h = 0;
        loop {
            let scratch = unfold_with::<_, Rational>(
                &m,
                &UnfoldConfig {
                    horizon: Some(h),
                    ..UnfoldConfig::default()
                },
            )
            .unwrap();
            let grown = u.pps();
            assert_eq!(grown.num_nodes(), scratch.num_nodes(), "h={h}");
            assert_eq!(grown.num_runs(), scratch.num_runs(), "h={h}");
            assert_eq!(grown.num_cells(), scratch.num_cells(), "h={h}");
            for run in scratch.run_ids() {
                assert_eq!(grown.nodes_of(run), scratch.nodes_of(run), "h={h}: {run}");
                assert_eq!(
                    grown.run_probability(run),
                    scratch.run_probability(run),
                    "h={h}: {run}"
                );
            }
            if !u.extend_horizon().unwrap() {
                break;
            }
            h += 1;
        }
        assert_eq!(u.horizon(), 3);
        assert!(!u.can_extend());
    }

    #[test]
    fn extend_horizon_respects_node_budget() {
        // Growing past the cap fails cleanly and leaves the handle usable
        // at its previous horizon.
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut u = Unfolder::<_, Rational>::new(
            &m,
            UnfoldConfig {
                max_nodes: 2,
                max_depth: None,
                horizon: Some(0),
            },
        )
        .unwrap();
        let nodes_before = u.pps().num_nodes();
        let err = u.extend_horizon().unwrap_err();
        assert!(matches!(err, UnfoldError::TooLarge { max_nodes: 2 }));
        assert_eq!(u.horizon(), 0);
        assert_eq!(u.pps().num_nodes(), nodes_before);
        // The same failed extension is still reported on retry…
        assert!(u.extend_horizon().is_err());
        // …and the retained tree still answers queries.
        assert!(u.pps().measure(&u.pps().all_runs()).is_one());
    }

    #[test]
    fn extend_horizon_respects_depth_cap() {
        let m = CoinModel {
            heads_num: 1,
            heads_den: 2,
        };
        let mut u = Unfolder::<_, Rational>::new(
            &m,
            UnfoldConfig {
                max_depth: Some(0),
                horizon: Some(0),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let err = u.extend_horizon().unwrap_err();
        assert!(matches!(err, UnfoldError::DepthExceeded { max_depth: 0 }));
        assert_eq!(u.horizon(), 0);
    }

    #[test]
    fn bad_model_distribution_reported() {
        let m: TableModel<Rational> = TableModel {
            n_agents: 1,
            initial: vec![(0, vec![0], Rational::from_ratio(1, 2))], // sums to ½
            horizon: 1,
            moves: vec![],
            transitions: vec![],
            ..TableModel::default()
        };
        let err = unfold::<_, Rational>(&m).unwrap_err();
        assert!(matches!(
            err,
            UnfoldError::BadModelDistribution {
                origin: "initial_states",
                ..
            }
        ));
        assert!(err.to_string().contains("initial_states"));
    }
}
