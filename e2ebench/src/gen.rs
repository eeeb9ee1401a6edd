//! Seeded generator of the size-ladder programs.
//!
//! Every program has the same shape, and a rung fixes its size:
//!
//! - two agents, `a` and `b`, over 16 named states `(env, la, lb)` with
//!   `env` in `0..4` and both locals in `{0, 1}`;
//! - from every state at every time before the horizon, a transition to
//!   `branching` *distinct* successor states;
//! - `inits` distinct initial states;
//! - one action, `act`, which agent `a` performs when its local is `1`
//!   at time `horizon - 2`, and at no other time.
//!
//! Because successors are distinct and moves are deterministic, the
//! unfolded tree has exactly `inits * (1 + b + b^2 + ... + b^horizon)`
//! state nodes, plus the phantom root. Which states follow which is
//! fixed per rung; the seed draws only the weights. So every seed's tree
//! has the same shape and cells, and a rung's check costs about the same
//! on every seed. `act` happens at one time only, so it is
//! performed at most once per run; every rule at the time before forces
//! one successor with `la = 1`, so it is performed in some run. That
//! makes `act` proper.
//!
//! Narrow rungs draw transition weights as `w/t` with `t` in {4, 8, 16},
//! so run probabilities stay within 64 bits. The wide rung uses the prime
//! `t = 127` at every level and odd weights throughout, the initial ones
//! over 16. Nothing cancels, so every run's probability has the
//! denominator `16 * 127^9`, about `2^66.9`: a 67-bit number, the same
//! width for every run and every seed. With one prime, the sums the
//! analysis accumulates keep that width too; several primes would make
//! their least common multiple, and the check's cost, explode.

use std::fmt::Write as _;

use pak_core::generator::SplitMix64;

/// One rung of the size ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// The rung's name, used in reports.
    pub name: &'static str,
    /// Distinct successors of every transition.
    pub branching: u64,
    /// The program's horizon.
    pub horizon: u64,
    /// Distinct initial states.
    pub inits: u64,
    /// Whether run probabilities are wider than 64 bits.
    pub wide: bool,
    /// The node-count band the rung promises, inclusive.
    pub band: (usize, usize),
}

impl Rung {
    /// The exact node count of the unfolded tree, as `Pps::num_nodes`
    /// counts it: the state nodes plus the phantom root.
    #[must_use]
    pub fn nodes(&self) -> usize {
        let mut level = self.inits;
        let mut total = 1;
        for _ in 0..=self.horizon {
            total += level;
            level *= self.branching;
        }
        usize::try_from(total).expect("rung sizes fit in usize")
    }

    /// The time at which agent `a` may perform `act`.
    #[must_use]
    pub fn action_time(&self) -> u64 {
        self.horizon - 2
    }
}

/// The ladder `check_deep` walks: 1.3e4, 3.9e4 and 1.2e5 nodes, the top
/// rung wide. Larger rungs do not fit one benchmark run: on a 2-core
/// x86-64 machine one check of a 3.5e5-node wide tree takes 13.5 s, and
/// of a 1.1e6-node narrow tree 6.4 s.
pub const LADDER: [Rung; 3] = [
    Rung {
        name: "r4",
        branching: 3,
        horizon: 7,
        inits: 4,
        wide: false,
        band: (5_000, 25_000),
    },
    Rung {
        name: "r5",
        branching: 3,
        horizon: 8,
        inits: 4,
        wide: false,
        band: (25_000, 80_000),
    },
    Rung {
        name: "r6",
        branching: 3,
        horizon: 9,
        inits: 4,
        wide: true,
        band: (80_000, 400_000),
    },
];

/// The mid-size model both service workloads serve.
pub const SERVICE: Rung = Rung {
    name: "serve",
    branching: 3,
    horizon: 7,
    inits: 4,
    wide: false,
    band: (5_000, 25_000),
};

/// Environment values; states are `(env, la, lb)`.
pub const ENVS: u64 = 4;
const WIDE_TOTAL: u64 = 127;
const NARROW_TOTALS: [u64; 3] = [4, 8, 16];

fn state_name(id: u64) -> String {
    let (env, la, lb) = state_tuple(id);
    format!("s{env}_{la}{lb}")
}

/// The `(env, la, lb)` tuple of state number `id`.
#[must_use]
pub fn state_tuple(id: u64) -> (u64, u64, u64) {
    (id / 4, (id / 2) % 2, id % 2)
}

/// `k` distinct states drawn uniformly, in draw order.
fn distinct_states(rng: &mut SplitMix64, k: u64) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..ENVS * 4).collect();
    (0..k)
        .map(|_| {
            let i = rng.below(pool.len() as u64) as usize;
            pool.swap_remove(i)
        })
        .collect()
}

/// `k` positive weights summing to `total`, all odd when `odd` is set
/// (then `total - k` must be even).
fn weights(rng: &mut SplitMix64, k: u64, total: u64, odd: bool) -> Vec<u64> {
    let step = if odd { 2 } else { 1 };
    let mut w = vec![1; k as usize];
    for _ in 0..(total - k) / step {
        w[rng.below(k) as usize] += step;
    }
    w
}

fn write_dist(out: &mut String, states: &[u64], weights: &[u64], total: u64) {
    out.push_str("{ ");
    for (s, w) in states.iter().zip(weights) {
        let _ = write!(out, "{w}/{total}: {}; ", state_name(*s));
    }
    out.push('}');
}

/// The program of `rung` for `seed`, as DSL source text.
#[must_use]
pub fn program(rung: &Rung, seed: u64) -> String {
    // The shape (which states follow which) is fixed per rung, so every
    // seed's tree has the same cells; the seed draws the weights.
    let mut shape = SplitMix64::new(rung.horizon * 0x100 + rung.branching);
    let mut rng = SplitMix64::new(seed ^ 0x6c61_6464_6572_0001);
    let t_act = rung.action_time();
    let mut src = String::new();
    let _ = writeln!(src, "protocol ladder_{}_{seed} {{", rung.name);
    let _ = writeln!(src, "    agents a, b;");
    let _ = writeln!(src, "    horizon {};", rung.horizon);
    let _ = writeln!(src, "    action act = 0;");
    for id in 0..ENVS * 4 {
        let (env, la, lb) = state_tuple(id);
        let _ = writeln!(src, "    state {} = ({env}, {la}, {lb});", state_name(id));
    }
    let init = distinct_states(&mut shape, rung.inits);
    let init_w = weights(&mut rng, rung.inits, 4 * rung.inits, rung.wide);
    src.push_str("    init { ");
    for (s, w) in init.iter().zip(&init_w) {
        let _ = write!(src, "{w}/{}: {}; ", 4 * rung.inits, state_name(*s));
    }
    src.push_str("}\n");
    let _ = writeln!(src, "    moves a {{ at (1, {t_act}) -> act; }}");
    src.push_str("    transitions {\n");
    for id in 0..ENVS * 4 {
        for t in 0..rung.horizon {
            let mut succ = distinct_states(&mut shape, rung.branching);
            if t + 1 == t_act && !succ.iter().any(|s| state_tuple(*s).1 == 1) {
                // Keep `act` reachable from every node: one successor
                // always has `la = 1` at the action time.
                succ[0] |= 2;
            }
            let total = if rung.wide {
                WIDE_TOTAL
            } else {
                NARROW_TOTALS[rng.below(NARROW_TOTALS.len() as u64) as usize]
            };
            let w = weights(&mut rng, rung.branching, total, rung.wide);
            let _ = write!(src, "        from {} at {t} -> ", state_name(id));
            write_dist(&mut src, &succ, &w, total);
            src.push_str(";\n");
        }
    }
    src.push_str("    }\n}\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use pak_core::ids::{ActionId, AgentId};
    use pak_num::Rational;
    use pak_protocol::unfold::{unfold_with, UnfoldConfig};

    fn unfold_rung(
        rung: &Rung,
        seed: u64,
    ) -> pak_core::pps::Pps<pak_core::state::SimpleState, Rational> {
        let compiled = pak_dsl::compile_str::<Rational>(&program(rung, seed))
            .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", rung.name));
        unfold_with(
            compiled.model(),
            &UnfoldConfig {
                max_nodes: 4 << 20,
                ..UnfoldConfig::default()
            },
        )
        .expect("ladder programs unfold")
    }

    #[test]
    fn every_program_compiles() {
        for rung in LADDER.iter().chain([&SERVICE]) {
            for seed in 0..20 {
                let compiled = pak_dsl::compile_str::<Rational>(&program(rung, seed))
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", rung.name));
                assert_eq!(compiled.action("act"), Some(ActionId(0)));
            }
        }
    }

    #[test]
    fn node_counts_fall_in_their_bands_and_act_is_proper() {
        // The upper rungs are slow to unfold without optimisation, so
        // the sweep covers them on fewer seeds.
        for (rung, seeds) in [
            (&LADDER[0], 6),
            (&LADDER[1], 3),
            (&SERVICE, 3),
            (&LADDER[2], 1),
        ] {
            assert!(rung.band.0 <= rung.nodes() && rung.nodes() <= rung.band.1);
            for seed in 0..seeds {
                let pps = unfold_rung(rung, seed);
                assert_eq!(pps.num_nodes(), rung.nodes(), "{} seed {seed}", rung.name);
                assert!(
                    pps.is_proper(AgentId(0), ActionId(0)),
                    "{} seed {seed}",
                    rung.name
                );
            }
        }
    }

    #[test]
    fn only_the_top_rung_is_wider_than_64_bits() {
        for (rung, seed) in [(&LADDER[1], 4), (&LADDER[2], 4), (&LADDER[2], 7)] {
            let pps = unfold_rung(rung, seed);
            for run in pps.run_ids() {
                let bits = pps.run_probability(run).denom().bits();
                assert_eq!(
                    bits > 64,
                    rung.wide,
                    "{} seed {seed}: {bits} bits",
                    rung.name
                );
            }
        }
    }

    #[test]
    fn programs_are_a_function_of_the_seed() {
        assert_eq!(program(&LADDER[0], 9), program(&LADDER[0], 9));
        assert_ne!(program(&LADDER[0], 9), program(&LADDER[0], 10));
        assert_ne!(program(&LADDER[0], 9), program(&LADDER[1], 9));
    }
}
