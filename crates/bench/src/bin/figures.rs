//! Runs the paper's experiments and the extension studies from the
//! command line:
//!
//! ```text
//! cargo run --release -p grococa-bench --bin figures            # fig2..fig8, fig8loss
//! cargo run --release -p grococa-bench --bin figures fig2 fig7  # a subset
//! cargo run --release -p grococa-bench --bin figures ablations  # extension studies
//! cargo run --release -p grococa-bench --bin figures hybrid     # push+pull delivery
//! GROCOCA_FULL=1 cargo run --release -p grococa-bench --bin figures
//! ```
//!
//! Every name is checked before anything runs: one unknown name exits 1
//! with the list of valid names and starts no simulation.

use std::process::ExitCode;

/// Every runnable name, in run order. The paper's figures (the first
/// [`PAPER_FIGURES`] entries) are the default when no name is given.
const EXPERIMENTS: [(&str, fn()); 10] = [
    ("fig2", || drop(grococa_bench::fig2_cache_size())),
    ("fig3", || drop(grococa_bench::fig3_skewness())),
    ("fig4", || drop(grococa_bench::fig4_access_range())),
    ("fig5", || drop(grococa_bench::fig5_group_size())),
    ("fig6", || drop(grococa_bench::fig6_update_rate())),
    ("fig7", || drop(grococa_bench::fig7_num_clients())),
    ("fig8", || drop(grococa_bench::fig8_disconnection())),
    ("fig8loss", || drop(grococa_bench::fig8_loss_rate())),
    ("ablations", || {
        grococa_bench::ablations();
        grococa_bench::policy_comparison();
        grococa_bench::mobility_models();
        grococa_bench::low_activity();
        grococa_bench::threshold_sensitivity();
    }),
    ("hybrid", || drop(grococa_bench::hybrid_delivery())),
];

/// How many leading [`EXPERIMENTS`] entries run by default.
const PAPER_FIGURES: usize = 8;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| !EXPERIMENTS.iter().any(|(name, _)| name == a))
        .collect();
    if !unknown.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment(s) {unknown:?}; expected any of: {}",
            names.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let selected = if args.is_empty() {
        &EXPERIMENTS[..PAPER_FIGURES]
    } else {
        &EXPERIMENTS[..]
    };
    let jobs = grococa_par::jobs_from_env();
    for (name, run) in selected {
        if !args.is_empty() && !args.iter().any(|a| a == name) {
            continue;
        }
        let t0 = std::time::Instant::now();
        grococa_bench::take_events(); // reset the counter for this experiment
        run();
        let elapsed = t0.elapsed();
        let events = grococa_bench::take_events();
        eprintln!(
            "[{name}] finished in {:?} — {events} events, {:.0} events/sec, {jobs} job(s)",
            elapsed,
            events as f64 / elapsed.as_secs_f64().max(f64::EPSILON),
        );
    }
    ExitCode::SUCCESS
}
