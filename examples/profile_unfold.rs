//! Phase profiler for the unfold hot path.
//!
//! Prints how interning compacts the tree (distinct states vs nodes) and
//! the per-iteration cost of a full unfold on the scaling benchmark's
//! workloads, split the way every tree is built:
//!
//! * **prior** — `Unfolder::new` at horizon 0: the initial states,
//!   validated and indexed by `PpsBuilder::build`;
//! * **levels** — one `extend_horizon` per time step: moves,
//!   transitions, merging, memoized expansion replay, and the commit that
//!   validates the new level and repairs the run and cell indexes.
//!
//! Each level is timed on clones of a handle parked one level short, with
//! the clone cost subtracted, so the prior and the levels roughly sum to
//! the full unfold. Useful for eyeballing perf work without running the
//! whole bench suite:
//!
//! ```text
//! cargo run --release --example profile_unfold
//! ```

use std::time::{Duration, Instant};

use pak::num::Rational;
use pak::protocol::generator::{random_model, RandomModelConfig};
use pak::protocol::unfold::{unfold_with, UnfoldConfig, Unfolder};

/// The mean time of `f` over `iters` calls.
fn time(iters: u32, mut f: impl FnMut()) -> Duration {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed() / iters
}

fn main() {
    for horizon in [2u32, 3, 4, 5, 6] {
        let cfg = RandomModelConfig {
            n_agents: 2,
            initial_states: 2,
            horizon,
            envs: 3,
            max_env_branching: 2,
            local_values: 2,
            actions_per_agent: 2,
        };
        let model = random_model::<Rational>(11, &cfg);
        let capped = |h: u32| UnfoldConfig {
            horizon: Some(h),
            ..UnfoldConfig::default()
        };
        let pps = unfold_with(&model, &UnfoldConfig::default()).unwrap();
        let iters = (200_000u32 >> horizon).max(1_000);

        let full = time(iters, || {
            std::hint::black_box(unfold_with(&model, &UnfoldConfig::default()).unwrap());
        });
        let prior = time(iters, || {
            std::hint::black_box(Unfolder::<_, Rational>::new(&model, capped(0)).unwrap());
        });
        let levels: Vec<Duration> = (1..=horizon)
            .map(|h| {
                let parked = Unfolder::<_, Rational>::new(&model, capped(h - 1)).unwrap();
                let clone = time(iters, || {
                    std::hint::black_box(parked.clone());
                });
                let grown = time(iters, || {
                    let mut u = parked.clone();
                    u.extend_horizon().unwrap();
                    std::hint::black_box(u);
                });
                grown.saturating_sub(clone)
            })
            .collect();

        let levels_text: Vec<String> = levels.iter().map(|d| format!("{d:.2?}")).collect();
        println!(
            "horizon {horizon}: {full:>9.2?}/unfold = prior {prior:>8.2?} + levels [{}] | nodes={:<5} runs={:<4} distinct states={:<3} ({}x shared)",
            levels_text.join(", "),
            pps.num_nodes(),
            pps.num_runs(),
            pps.num_distinct_states(),
            (pps.num_nodes() - 1) / pps.num_distinct_states().max(1),
        );
    }
}
