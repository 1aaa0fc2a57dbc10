//! Compare all built-in synchronization models on one workload.
//!
//! Uses the discrete-event simulation driver so timing reflects a cluster
//! with a persistent straggler, and training accuracy reflects the actual
//! staleness each model allowed.
//!
//! Run with: `cargo run --release --example sync_models`

use fluentps::core::condition::{DspsConfig, SyncModel};
use fluentps::core::dpr::DprPolicy;
use fluentps::core::pssp::Alpha;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind};
use fluentps::experiments::report::{pct, secs, Table};
use fluentps::ml::data::SyntheticSpec;
use fluentps::ml::schedule::LrSchedule;
use fluentps::simnet::compute::StragglerSpec;

fn main() {
    let models: Vec<(&str, SyncModel)> = vec![
        ("BSP", SyncModel::Bsp),
        ("ASP", SyncModel::Asp),
        ("SSP s=3", SyncModel::Ssp { s: 3 }),
        ("DSPS", SyncModel::Dsps(DspsConfig::default())),
        (
            "Drop stragglers (Nt=6)",
            SyncModel::DropStragglers { n_t: 6 },
        ),
        ("PSSP const c=0.3", SyncModel::PsspConst { s: 3, c: 0.3 }),
        (
            "PSSP dynamic",
            SyncModel::PsspDynamic {
                s: 3,
                alpha: Alpha::Significance {
                    floor: 0.05,
                    cap: 1.0,
                },
            },
        ),
    ];

    let mut table = Table::new(
        "Synchronization model comparison (8 workers, 1 persistent straggler)",
        &["model", "time", "accuracy", "DPRs/100it", "dropped-pushes"],
    );
    for (name, model) in models {
        let cfg = DriverConfig {
            engine: EngineKind::FluentPs {
                model,
                policy: DprPolicy::LazyExecution,
            },
            num_workers: 8,
            num_servers: 2,
            max_iters: 300,
            model: ModelKind::Mlp { hidden: vec![48] },
            dataset: Some(SyntheticSpec {
                dim: 32,
                classes: 10,
                n_train: 4000,
                n_test: 1000,
                margin: 2.6,
                modes: 1,
                label_noise: 0.0,
                seed: 3,
            }),
            lr: LrSchedule::Constant(0.2),
            compute_base: 2.0,
            compute_jitter: 0.3,
            stragglers: StragglerSpec {
                transient_prob: 0.05,
                transient_factor: 2.0,
                persistent_count: 1,
                persistent_factor: 1.8,
            },
            eval_every: 0,
            seed: 3,
            ..DriverConfig::default()
        };
        let r = run(&cfg);
        table.row(vec![
            name.to_string(),
            secs(r.total_time),
            pct(r.final_accuracy),
            format!("{:.1}", r.dprs_per_100),
            r.stats.late_pushes_dropped.to_string(),
        ]);
    }
    println!("{}", table.render());
}
