//! Differential proof that the hash-keyed unfold merge is exact.
//!
//! The unfolder used to merge identical successors through
//! `format!("{:?}")` string keys; it now merges through a `Hash + Eq`
//! probe on `(actions, state)`. The two are semantically equivalent
//! whenever `Debug` output is injective on states (it is for
//! [`SimpleState`]), but equivalence must be *proved*, not eyeballed:
//! this harness retains the old Debug-string merge as a reference
//! implementation and sweeps seeded random protocol models of varying
//! agent count, horizon, and branching, asserting that the production
//! unfold produces a [`Pps`] identical to the reference in every
//! observable — run count, bit-equal run probabilities, per-point global
//! states and action labels, and information-set cells.
//!
//! The production pipeline has since been rebuilt again on top of state
//! *interning* (each distinct global state stored once in a
//! [`StatePool`], nodes carrying `StateId`s, expansions memoized per
//! `(state, time)`), so the sweep now also proves the interned pipeline
//! exact: same reference, same bit-equality requirements, plus pool
//! consistency checks (ids resolve to the states the reference stores at
//! every point, and the pool holds no duplicates).
//!
//! The *build* pass is proved the same way: the old per-node cell
//! construction (clone + hash a full local per node, insert runs one bit
//! at a time) is retained as [`reference_cells`], and the sweep asserts
//! the production pass — per-agent `LocalId` interning, word-filled
//! run-sets from contiguous run ranges, validation memoized per distinct
//! expansion — produces identical `cells`, `cell_of`, and run ranges,
//! with bit-equal run probabilities.
//!
//! Every tree is grown from its prior one level at a time, so the
//! incremental sweep checks each intermediate horizon `h` against the
//! Debug-string reference run on the model with its table horizon set to
//! `h`, against [`reference_cells`], and separately against a fresh
//! capped unfold id for id (which proves the retained expansion memo
//! equals a fresh one).
//!
//! A second battery property-tests [`CartesianMoves`]: across randomized
//! distribution shapes (including singletons and the zero-agent case) the
//! joint probabilities must sum exactly to one and enumerate exactly
//! `∏ |dist_i|` entries.

mod common;

use std::collections::HashMap;

use pak::core::generator::SplitMix64;
use pak::core::prelude::*;
use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::model::{validate_distribution, ProtocolModel, TableModel};
use pak::protocol::unfold::{unfold_with, CartesianMoves, UnfoldConfig, Unfolder};

/// The pre-refactor merge, retained verbatim as the reference semantics:
/// successors are merged when their Debug-formatted `(actions, state)`
/// strings coincide.
fn reference_unfold(model: &TableModel<Rational>) -> Pps<SimpleState, Rational> {
    let n_agents = model.n_agents;
    let mut builder = PpsBuilder::<SimpleState, Rational>::new(n_agents);

    let initial = ProtocolModel::<Rational>::initial_states(model);
    validate_distribution(&initial).unwrap();
    let mut frontier: Vec<(NodeId, SimpleState, u32)> = Vec::new();
    for (state, p) in initial {
        let id = builder.initial(state.clone(), p).unwrap();
        frontier.push((id, state, 0));
    }

    while let Some((node, state, time)) = frontier.pop() {
        if ProtocolModel::<Rational>::is_terminal(model, &state, time) {
            continue;
        }
        let mut per_agent: Vec<Vec<(Option<ActionId>, Rational)>> =
            Vec::with_capacity(n_agents as usize);
        for a in 0..n_agents {
            let local = state.local(AgentId(a));
            let dist = model.moves(AgentId(a), &local, time);
            validate_distribution(&dist).unwrap();
            per_agent.push(dist);
        }

        #[allow(clippy::type_complexity)]
        let mut successors: Vec<(SimpleState, Vec<(AgentId, ActionId)>, Rational)> = Vec::new();
        let mut index: HashMap<(String, String), usize> = HashMap::new();
        for (joint, p_joint) in CartesianMoves::new(&per_agent) {
            let actions: Vec<(AgentId, ActionId)> = joint
                .iter()
                .enumerate()
                .filter_map(|(a, mv)| model.action_of(mv).map(|act| (AgentId(a as u32), act)))
                .collect();
            let outcomes = model.transition(&state, &joint, time);
            validate_distribution(&outcomes).unwrap();
            for (succ, p_env) in outcomes {
                let p = p_joint.mul(&p_env);
                let key = (format!("{actions:?}"), format!("{succ:?}"));
                match index.get(&key) {
                    Some(&i) => {
                        successors[i].2 = successors[i].2.add(&p);
                    }
                    None => {
                        index.insert(key, successors.len());
                        successors.push((succ, actions.clone(), p));
                    }
                }
            }
        }

        for (succ, actions, p) in successors {
            let child = builder.child(node, succ.clone(), p, &actions).unwrap();
            frontier.push((child, succ, time + 1));
        }
    }

    builder.build().unwrap()
}

/// Asserts that two systems are identical in every observable the theory
/// depends on: runs and their (bit-equal) probabilities, per-point global
/// states and action labels, and each agent's information-set cells.
fn assert_identical(
    got: &Pps<SimpleState, Rational>,
    want: &Pps<SimpleState, Rational>,
    ctx: &str,
) {
    assert_eq!(got.num_runs(), want.num_runs(), "{ctx}: num_runs");
    assert_eq!(got.num_nodes(), want.num_nodes(), "{ctx}: num_nodes");
    assert_eq!(got.horizon(), want.horizon(), "{ctx}: horizon");
    for run in want.run_ids() {
        assert_eq!(
            got.run_probability(run),
            want.run_probability(run),
            "{ctx}: probability of run {run}"
        );
        assert_eq!(got.run_len(run), want.run_len(run), "{ctx}: len of {run}");
        for t in 0..want.run_len(run) as u32 {
            let pt = Point { run, time: t };
            assert_eq!(got.state_at(pt), want.state_at(pt), "{ctx}: state at {pt}");
            assert_eq!(
                got.actions_at(pt),
                want.actions_at(pt),
                "{ctx}: actions at {pt}"
            );
        }
    }
    // Interning invariants: every node's id resolves (through the pool) to
    // exactly the state the reference stores, ids agree with state
    // equality, and the pool holds each distinct state exactly once.
    let pool = got.state_pool();
    assert!(
        got.num_distinct_states() < got.num_nodes(),
        "{ctx}: more distinct states than state nodes"
    );
    {
        let mut seen: Vec<&SimpleState> = Vec::new();
        for (_, s) in pool.iter() {
            assert!(!seen.contains(&s), "{ctx}: pool stores a duplicate {s:?}");
            seen.push(s);
        }
    }
    for run in got.run_ids() {
        for t in 0..got.run_len(run) as u32 {
            let node = got.node_at(run, t).unwrap();
            let id = got.node_state_id(node);
            assert_eq!(
                pool.get(id),
                Some(got.node_state(node)),
                "{ctx}: id of {node} does not resolve to its state"
            );
            assert_eq!(
                pool.lookup(got.node_state(node)),
                Some(id),
                "{ctx}: pool lookup disagrees with the stored id"
            );
        }
    }

    // Cells: same information sets, as (agent, time, data, member runs).
    let cell_key = |p: &Pps<SimpleState, Rational>| -> Vec<(u32, Time, u64, Vec<u32>)> {
        let mut out: Vec<(u32, Time, u64, Vec<u32>)> = p
            .cells()
            .map(|(_, c)| {
                (
                    c.agent.0,
                    c.time,
                    c.data,
                    c.runs.iter().map(|r| r.0).collect(),
                )
            })
            .collect();
        out.sort();
        out
    };
    assert_eq!(cell_key(got), cell_key(want), "{ctx}: cells");
    // Action events: every (agent, action) pair labels the same run sets.
    for a in 0..want.num_agents() {
        for act in 0..8u32 {
            let (agent, action) = (AgentId(a), ActionId(act));
            let (g, w) = (
                got.action_event(agent, action),
                want.action_event(agent, action),
            );
            let gv: Vec<RunId> = g.iter().collect();
            let wv: Vec<RunId> = w.iter().collect();
            assert_eq!(gv, wv, "{ctx}: action event {agent}/{action}");
        }
    }
}

/// The pre-refactor cell construction, retained verbatim in spirit as the
/// reference semantics: walk the non-root nodes in id order once per
/// agent, clone and hash each node's full local data into a `(time, data)`
/// key, allocate cell ids in first-occurrence order, and accumulate each
/// cell's member nodes and run-set run by run.
///
/// The production build pass now interns locals per distinct state and
/// word-fills run-sets from contiguous run ranges, and extension repairs
/// cells level by level — this function is what all of that must stay
/// observably equal to.
#[allow(clippy::type_complexity)]
fn reference_cells(
    pps: &Pps<SimpleState, Rational>,
) -> Vec<(AgentId, Time, u64, Vec<NodeId>, RunSet)> {
    let mut cells: Vec<(AgentId, Time, u64, Vec<NodeId>, RunSet)> = Vec::new();
    for agent in pps.agents() {
        let mut index: HashMap<(Time, u64), usize> = HashMap::new();
        for node in (1..pps.num_nodes() as u32).map(NodeId) {
            let time = pps.node_time(node);
            let data = pps.node_state(node).local(agent);
            let slot = *index.entry((time, data)).or_insert_with(|| {
                cells.push((agent, time, data, Vec::new(), pps.no_runs()));
                cells.len() - 1
            });
            cells[slot].3.push(node);
            // Membership run by run (single-bit inserts): the reference for
            // the contiguous `insert_range` fill.
            for run in pps.run_ids() {
                if pps.nodes_of(run).contains(&node) {
                    cells[slot].4.insert(run);
                }
            }
        }
    }
    cells
}

/// Asserts the production cells/`cell_of` of `got` are identical — ids,
/// order, members, and run-sets — to the reference per-node construction.
fn assert_cells_match_reference(got: &Pps<SimpleState, Rational>, ctx: &str) {
    let want = reference_cells(got);
    assert_eq!(got.num_cells(), want.len(), "{ctx}: cell count");
    for ((id, cell), (agent, time, data, nodes, runs)) in got.cells().zip(&want) {
        assert_eq!(cell.agent, *agent, "{ctx}: agent of {id}");
        assert_eq!(cell.time, *time, "{ctx}: time of {id}");
        assert_eq!(cell.data, *data, "{ctx}: data of {id}");
        assert_eq!(cell.nodes, *nodes, "{ctx}: nodes of {id}");
        assert_eq!(cell.runs, *runs, "{ctx}: runs of {id}");
    }
    // `cell_of` (exercised through `cell_at`) must map every point into
    // the cell the reference puts its node in.
    for run in got.run_ids() {
        for (t, &node) in got.nodes_of(run).iter().enumerate() {
            let pt = Point {
                run,
                time: t as Time,
            };
            for agent in got.agents() {
                let cell = got.cell_at(agent, pt).expect("point exists");
                let member = want[cell.index()].3.contains(&node);
                assert!(member, "{ctx}: cell_of disagrees at {pt} for {agent}");
            }
        }
    }
    // Run ranges: the contiguous interval behind each node's event must
    // equal per-run path membership recomputed from the flat run arena.
    for node in (1..got.num_nodes() as u32).map(NodeId) {
        let through = got.runs_through(node);
        let reference =
            RunSet::from_predicate(got.num_runs(), |run| got.nodes_of(run).contains(&node));
        assert_eq!(through, reference, "{ctx}: run range of {node}");
    }
}

/// Grows the model's tree one horizon at a time through a retained
/// [`Unfolder`] handle, asserting at every intermediate horizon `h` that
/// the grown system is observably identical to [`reference_unfold`] of
/// the model with its table horizon set to `h`, that its cells match
/// [`reference_cells`], and that it is **bit-identical** to a fresh unfold
/// capped at `h`: same pool ids in the same order, same node order
/// (parents, state ids, times), same runs with bit-equal probabilities,
/// cells id-for-id, same action events.
fn assert_extension_matches_scratch(model: &TableModel<Rational>, ctx: &str) {
    let mut unfolder = Unfolder::<_, Rational>::new(
        model,
        UnfoldConfig {
            horizon: Some(1),
            ..UnfoldConfig::default()
        },
    )
    .unwrap();
    let mut h = 1u32;
    loop {
        let scratch = unfold_with(
            model,
            &UnfoldConfig {
                horizon: Some(h),
                ..UnfoldConfig::default()
            },
        )
        .unwrap();
        let step = format!("{ctx} [grown h={h}]");
        // The independent references, on the model truncated at `h`…
        let truncated = TableModel {
            horizon: h,
            ..model.clone()
        };
        assert_identical(unfolder.pps(), &reference_unfold(&truncated), &step);
        assert_cells_match_reference(unfolder.pps(), &step);
        // …and strict id-level identity (pool ids, node order, runs,
        // cells) with a fresh session's retained memo.
        common::assert_identical_systems(&scratch, unfolder.pps(), &step);
        if !unfolder.extend_horizon().unwrap() {
            break;
        }
        h += 1;
    }
    // Fully grown equals the uncapped unfold of the same model.
    let full = unfold_with(model, &UnfoldConfig::default()).unwrap();
    common::assert_identical_systems(&full, unfolder.pps(), &format!("{ctx} [grown full]"));
}

#[test]
fn incremental_extension_matches_scratch_across_sweep() {
    // The same grid as the merge sweep below: a tree grown 1→2→…→h via
    // `extend_horizon` must match the references on the model truncated
    // at h, and be bit-identical to a fresh horizon-h unfold, at *every*
    // step, across >100 seeded configurations.
    let mut cases = 0usize;
    for n_agents in 1..=3u32 {
        for horizon in 1..=4u32 {
            for max_env_branching in [1u32, 2, 3] {
                if n_agents == 3 && horizon == 4 {
                    continue; // joint-move branching is exponential in agents
                }
                for seed in 0..4u64 {
                    let cfg = RandomModelConfig {
                        n_agents,
                        initial_states: 1 + (seed as u32 % 3),
                        horizon,
                        envs: 3,
                        max_env_branching,
                        local_values: 2,
                        actions_per_agent: 2,
                    };
                    let model = random_model::<Rational>(seed * 101 + 7, &cfg);
                    let ctx = format!(
                        "agents={n_agents} horizon={horizon} branch={max_env_branching} seed={seed}"
                    );
                    assert_extension_matches_scratch(&model, &ctx);
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 100, "sweep shrank unexpectedly: {cases} cases");
}

#[test]
fn hash_merge_matches_reference_merge_across_sweep() {
    // Sweep agents × horizon × branching; several seeds each. Kept small
    // enough to finish quickly in debug builds while covering singleton
    // priors, deep trees, and wide environment branching.
    let mut cases = 0usize;
    for n_agents in 1..=3u32 {
        for horizon in 1..=4u32 {
            for max_env_branching in [1u32, 2, 3] {
                if n_agents == 3 && horizon == 4 {
                    continue; // joint-move branching is exponential in agents
                }
                for seed in 0..4u64 {
                    let cfg = RandomModelConfig {
                        n_agents,
                        initial_states: 1 + (seed as u32 % 3),
                        horizon,
                        envs: 3,
                        max_env_branching,
                        local_values: 2,
                        actions_per_agent: 2,
                    };
                    let model = random_model::<Rational>(seed * 101 + 7, &cfg);
                    let got = unfold_with(&model, &UnfoldConfig::default()).unwrap();
                    let want = reference_unfold(&model);
                    let ctx = format!(
                        "agents={n_agents} horizon={horizon} branch={max_env_branching} seed={seed}"
                    );
                    assert_identical(&got, &want, &ctx);
                    assert!(got.measure(&got.all_runs()).is_one(), "{ctx}: total");
                    // The cell passes vs the retained per-node reference:
                    // the level-by-level repair on the production tree and
                    // the build pass on the hand-built reference tree.
                    assert_cells_match_reference(&got, &ctx);
                    assert_cells_match_reference(&want, &format!("{ctx} [reference tree]"));
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 100, "sweep shrank unexpectedly: {cases} cases");
}

#[test]
fn interning_shares_states_across_nodes() {
    // The whole point of the pool: unfolded trees revisit states, so the
    // number of distinct states must be (much) smaller than the number of
    // state nodes on any non-trivial model of this generator family.
    let cfg = RandomModelConfig {
        n_agents: 2,
        initial_states: 2,
        horizon: 4,
        envs: 3,
        max_env_branching: 2,
        local_values: 2,
        actions_per_agent: 2,
    };
    let model = random_model::<Rational>(11, &cfg);
    let pps = unfold_with(&model, &UnfoldConfig::default()).unwrap();
    assert!(
        pps.num_distinct_states() * 2 < pps.num_nodes() - 1,
        "expected heavy state sharing, got {} distinct states over {} nodes",
        pps.num_distinct_states(),
        pps.num_nodes() - 1
    );
    // Sharing is not allowed to blur identity: two points whose states
    // compare equal must carry the same id, and vice versa.
    for run in pps.run_ids() {
        for t in 0..pps.run_len(run) as u32 {
            let a = pps.node_at(run, t).unwrap();
            for run2 in pps.run_ids() {
                if let Some(b) = pps.node_at(run2, t) {
                    assert_eq!(
                        pps.node_state_id(a) == pps.node_state_id(b),
                        pps.node_state(a) == pps.node_state(b),
                        "id equality must coincide with state equality"
                    );
                }
            }
        }
    }
}

#[test]
fn cartesian_moves_is_the_product_distribution() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..250 {
        // 0..=4 agents: the zero-agent case must yield the single empty
        // joint move with probability one (the empty product).
        let n_agents = rng.below(5) as usize;
        let dists: Vec<Vec<(u64, Rational)>> = (0..n_agents)
            .map(|_| {
                let k = rng.range(1, 4); // includes singleton distributions
                let weights: Vec<u64> = (0..k).map(|_| rng.range(1, 9)).collect();
                let total: u64 = weights.iter().sum();
                weights
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| (i as u64, Rational::from_ratio(w as i64, total as i64)))
                    .collect()
            })
            .collect();
        let expected: usize = dists.iter().map(Vec::len).product();
        let all: Vec<(Vec<u64>, Rational)> = CartesianMoves::new(&dists).collect();
        assert_eq!(all.len(), expected, "case {case}: entry count");
        let total: Rational = all.iter().map(|(_, p)| p.clone()).sum();
        assert!(total.is_one(), "case {case}: joint sum {total} ≠ 1");
        // Entries are distinct joint moves.
        let mut joints: Vec<&Vec<u64>> = all.iter().map(|(j, _)| j).collect();
        joints.sort();
        joints.dedup();
        assert_eq!(joints.len(), expected, "case {case}: duplicate joints");
    }
}

#[test]
fn cartesian_moves_with_an_empty_distribution_is_empty() {
    // A single empty per-agent distribution kills the whole product: no
    // joint move can be formed (distinct from the zero-agent case).
    let d: Vec<(u64, Rational)> = vec![(0, Rational::one())];
    let empty: Vec<(u64, Rational)> = vec![];
    let all: Vec<(Vec<u64>, Rational)> = CartesianMoves::new(&[d, empty]).collect();
    assert!(all.is_empty());
}
