//! Elastic scale-down, end to end: train on 4 servers, lose one, rebalance
//! the placement with EPS, warm-start the surviving 3 servers from the
//! previous parameters, and keep training. Accuracy keeps improving through
//! the transition — the "Elastic" in Elastic Parameter Slicing.
//!
//! Run with: `cargo run --release --example elastic_scaling`

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind};
use fluentps::experiments::report::pct;
use fluentps::ml::data::SyntheticSpec;
use fluentps::ml::schedule::LrSchedule;

fn phase(
    servers: u32,
    iters: u64,
    warm: Option<fluentps::ml::ParamMap>,
) -> fluentps::experiments::driver::RunResult {
    let cfg = DriverConfig {
        engine: EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 2 },
            policy: DprPolicy::LazyExecution,
        },
        num_workers: 8,
        num_servers: servers,
        max_iters: iters,
        model: ModelKind::Mlp { hidden: vec![48] },
        dataset: Some(SyntheticSpec {
            dim: 32,
            classes: 10,
            n_train: 5000,
            n_test: 1000,
            margin: 2.2,
            modes: 2,
            label_noise: 0.0,
            seed: 23,
        }),
        lr: LrSchedule::Constant(0.12),
        compute_base: 2.0,
        initial_params: warm,
        eval_every: 0,
        seed: 23,
        ..DriverConfig::default()
    };
    run(&cfg)
}

fn main() {
    // Phase 1: a healthy 4-server cluster.
    let phase1 = phase(4, 60, None);
    println!(
        "phase 1 (4 servers, 60 iters): accuracy {}",
        pct(phase1.final_accuracy)
    );

    // Server 3 dies. EPS recomputes the placement for 3 servers inside the
    // driver; the parameters themselves are carried over (in a live cluster
    // this is the checkpoint-restore path shown in tests/end_to_end.rs).
    let carried = phase1.final_params.clone().expect("training run");
    let phase2 = phase(3, 60, Some(carried));
    println!(
        "phase 2 (3 servers, 60 more iters, warm-started): accuracy {}",
        pct(phase2.final_accuracy)
    );

    // A cold 3-server run of the same total budget, for contrast.
    let cold = phase(3, 60, None);
    println!(
        "cold 3-server run (60 iters from scratch):        accuracy {}",
        pct(cold.final_accuracy)
    );

    assert!(
        phase2.final_accuracy >= phase1.final_accuracy - 0.02,
        "warm-started continuation must not lose the learned model: {} vs {}",
        phase2.final_accuracy,
        phase1.final_accuracy
    );
    assert!(
        phase2.final_accuracy > cold.final_accuracy + 0.02,
        "continuation ({}) should beat training from scratch ({})",
        phase2.final_accuracy,
        cold.final_accuracy
    );
    println!("elastic_scaling: OK — training survived the scale-down");
}
