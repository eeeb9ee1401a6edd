//! Helpers shared by the differential test layer
//! (`unfold_differential.rs`, `systems_unfold_smoke.rs`).

use pak::core::prelude::*;
use pak::num::Rational;

/// Asserts two systems produced from the *same* model/tree are identical
/// in the strict, id-level sense incremental growth promises: same pool
/// ids in the same order, same node order (parents, state ids, times,
/// action labels), same run arena with bit-equal probabilities, and
/// identical cells id for id.
///
/// This is deliberately stronger than observable equivalence — it is the
/// "same pool ids, same node order" contract between a retained
/// `Unfolder` grown to a horizon and a fresh one capped there.
pub fn assert_identical_systems<G: GlobalState>(
    a: &Pps<G, Rational>,
    b: &Pps<G, Rational>,
    ctx: &str,
) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}: num_nodes");
    assert_eq!(
        a.num_distinct_states(),
        b.num_distinct_states(),
        "{ctx}: pool size"
    );
    for ((ia, sa), (ib, sb)) in a.state_pool().iter().zip(b.state_pool().iter()) {
        assert_eq!(ia, ib, "{ctx}: pool id order");
        assert_eq!(sa, sb, "{ctx}: pool state {ia}");
    }
    for n in (1..a.num_nodes() as u32).map(NodeId) {
        assert_eq!(a.parent(n), b.parent(n), "{ctx}: parent of {n}");
        assert_eq!(
            a.node_state_id(n),
            b.node_state_id(n),
            "{ctx}: state of {n}"
        );
        assert_eq!(a.node_time(n), b.node_time(n), "{ctx}: time of {n}");
    }
    assert_eq!(a.num_runs(), b.num_runs(), "{ctx}: num_runs");
    for run in a.run_ids() {
        assert_eq!(a.nodes_of(run), b.nodes_of(run), "{ctx}: path of {run}");
        assert_eq!(
            a.run_probability(run),
            b.run_probability(run),
            "{ctx}: probability of {run}"
        );
        for t in 0..a.run_len(run) as u32 {
            let pt = Point { run, time: t };
            assert_eq!(a.actions_at(pt), b.actions_at(pt), "{ctx}: actions at {pt}");
        }
    }
    assert_eq!(a.num_cells(), b.num_cells(), "{ctx}: num_cells");
    for ((ia, ca), (ib, cb)) in a.cells().zip(b.cells()) {
        assert_eq!(ia, ib, "{ctx}: cell id order");
        assert_eq!(ca, cb, "{ctx}: cell {ia}");
    }
}
