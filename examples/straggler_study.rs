//! Straggler study: how each synchronization model copes with an
//! increasingly hostile cluster.
//!
//! Sweeps the persistent-straggler slowdown factor and reports
//! time-to-finish and accuracy for BSP, SSP, drop-stragglers and PSSP —
//! the trade-off space Section II-B motivates.
//!
//! Run with: `cargo run --release --example straggler_study`

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind};
use fluentps::experiments::report::{pct, secs, Table};
use fluentps::ml::data::SyntheticSpec;
use fluentps::ml::schedule::LrSchedule;
use fluentps::simnet::compute::StragglerSpec;

fn main() {
    let mut table = Table::new(
        "Straggler study: 8 workers, 1 persistent straggler of varying slowness",
        &[
            "straggler-factor",
            "model",
            "time",
            "accuracy",
            "dropped-pushes",
        ],
    );
    for factor in [1.0f64, 2.0, 4.0] {
        for (name, model) in [
            ("BSP", SyncModel::Bsp),
            ("SSP s=3", SyncModel::Ssp { s: 3 }),
            (
                "Drop stragglers (Nt=7)",
                SyncModel::DropStragglers { n_t: 7 },
            ),
            ("PSSP c=0.3", SyncModel::PsspConst { s: 3, c: 0.3 }),
        ] {
            let cfg = DriverConfig {
                engine: EngineKind::FluentPs {
                    model,
                    policy: DprPolicy::LazyExecution,
                },
                num_workers: 8,
                num_servers: 2,
                max_iters: 250,
                model: ModelKind::Softmax,
                dataset: Some(SyntheticSpec {
                    dim: 32,
                    classes: 10,
                    n_train: 4000,
                    n_test: 1000,
                    margin: 3.0,
                    modes: 1,
                    label_noise: 0.0,
                    seed: 5,
                }),
                lr: LrSchedule::Constant(0.25),
                compute_base: 2.0,
                compute_jitter: 0.2,
                stragglers: StragglerSpec {
                    transient_prob: 0.02,
                    transient_factor: 2.0,
                    persistent_count: 1,
                    persistent_factor: factor,
                },
                eval_every: 0,
                seed: 5,
                ..DriverConfig::default()
            };
            let r = run(&cfg);
            table.row(vec![
                format!("{factor}x"),
                name.to_string(),
                secs(r.total_time),
                pct(r.final_accuracy),
                r.stats.late_pushes_dropped.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Expected shape: BSP time explodes with the straggler factor; drop-stragglers");
    println!("and PSSP hold their speed, trading a little accuracy for it.");
}
