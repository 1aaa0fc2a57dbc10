//! Table IV: the grand comparison — ASP (P=0), constant PSSP (P = 0.1, 0.3,
//! 0.5), SSP (P=1) and dynamic PSSP, each under the soft barrier and lazy
//! execution, on four DNN/dataset combinations. Metrics per cell: average
//! time per 100 iterations, final test accuracy, and DPRs per 100
//! iterations.
//!
//! Expected shape (paper): time grows with P (ASP fastest, SSP slowest);
//! accuracy is lowest for ASP and comparable for PSSP/SSP; DPRs grow
//! steeply with P under the soft barrier but stay near-flat and tiny under
//! lazy execution — the deep model shows the starkest gap (15160 vs 115 in
//! the paper's ResNet-56 row).

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::pssp::Alpha;
use fluentps_ml::data::SyntheticSpec;
use fluentps_ml::schedule::LrSchedule;
use fluentps_simnet::compute::StragglerSpec;
use fluentps_simnet::net::LinkModel;

use crate::driver::{run, DriverConfig, EngineKind, ModelKind, RunResult};
use crate::figures::{c10, c100, Scale};
use crate::report::{pct, Table};

/// One DNN/dataset combination of the table.
#[derive(Debug, Clone)]
pub struct Combo {
    /// Display name.
    pub name: &'static str,
    /// Model to train.
    pub model: ModelKind,
    /// Dataset spec.
    pub dataset: SyntheticSpec,
    /// Workers (paper: 64 for AlexNet rows, 32 for ResNet rows).
    pub workers: u32,
    /// Servers (paper: 1 for AlexNet rows, 8 for ResNet rows).
    pub servers: u32,
    /// Staleness threshold (paper: s=3 AlexNet, s=2 ResNet).
    pub s: u64,
}

/// The four rows of the paper's table.
pub fn combos(scale: Scale) -> Vec<Combo> {
    vec![
        Combo {
            name: "AlexNet-like/c10",
            model: ModelKind::Mlp { hidden: vec![64] },
            dataset: c10(23),
            workers: scale.pick(16, 64),
            servers: 1,
            s: 3,
        },
        Combo {
            name: "AlexNet-like/c100",
            model: ModelKind::Mlp { hidden: vec![96] },
            dataset: c100(23),
            workers: scale.pick(16, 64),
            servers: 1,
            s: 3,
        },
        Combo {
            name: "ResNet56-like/c10",
            model: ModelKind::Residual {
                width: 32,
                blocks: 4,
            },
            dataset: c10(29),
            workers: scale.pick(8, 32),
            servers: scale.pick(2, 8),
            s: 2,
        },
        Combo {
            name: "ResNet56-like/c100",
            model: ModelKind::Residual {
                width: 48,
                blocks: 4,
            },
            dataset: c100(29),
            workers: scale.pick(8, 32),
            servers: scale.pick(2, 8),
            s: 2,
        },
    ]
}

/// The P sweep: (label, model-under-test). `None` for dynamic PSSP means
/// significance-driven α.
pub fn sync_models(s: u64) -> Vec<(&'static str, SyncModel)> {
    vec![
        ("P=0 (ASP)", SyncModel::Asp),
        ("P=0.1", SyncModel::PsspConst { s, c: 0.1 }),
        ("P=0.3", SyncModel::PsspConst { s, c: 0.3 }),
        ("P=0.5", SyncModel::PsspConst { s, c: 0.5 }),
        ("P=1 (SSP)", SyncModel::Ssp { s }),
        (
            "Dynamic",
            SyncModel::PsspDynamic {
                s,
                alpha: Alpha::Significance {
                    floor: 0.05,
                    cap: 1.0,
                },
            },
        ),
    ]
}

/// One cell measurement.
pub fn measure(scale: Scale, combo: &Combo, model: SyncModel, policy: DprPolicy) -> RunResult {
    let cfg = DriverConfig {
        engine: EngineKind::FluentPs { model, policy },
        num_workers: combo.workers,
        num_servers: combo.servers,
        max_iters: scale.pick(200, 2000),
        model: combo.model.clone(),
        dataset: Some(combo.dataset),
        lr: LrSchedule::Constant(0.12),
        compute_base: 4.0,
        compute_jitter: 0.3,
        stragglers: StragglerSpec {
            transient_prob: 0.05,
            transient_factor: 2.0,
            persistent_count: 1,
            persistent_factor: 1.6,
        },
        link: LinkModel::gbe(),
        wire_bytes_scale: 100.0,
        eval_every: 0,
        seed: 31,
        ..DriverConfig::default()
    };
    run(&cfg)
}

/// Regenerate Table IV.
pub fn run_figure(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Table IV: ASP/PSSP/SSP/dynamic x soft-barrier/lazy on four DNN/dataset combos",
        &[
            "combo",
            "policy",
            "model",
            "time/100it",
            "accuracy",
            "DPRs/100it",
        ],
    );
    for combo in combos(scale) {
        for (pname, policy) in [
            ("soft", DprPolicy::SoftBarrier),
            ("lazy", DprPolicy::LazyExecution),
        ] {
            for (label, model) in sync_models(combo.s) {
                // ASP is identical under both policies (it never defers);
                // the paper lists it once, so skip the duplicate run.
                if matches!(model, SyncModel::Asp) && policy == DprPolicy::LazyExecution {
                    continue;
                }
                let r = measure(scale, &combo, model, policy);
                let iters = scale.pick(200u64, 2000);
                t.row(vec![
                    combo.name.to_string(),
                    pname.to_string(),
                    label.to_string(),
                    format!("{:.1}s", r.total_time * 100.0 / iters as f64),
                    pct(r.final_accuracy),
                    format!("{:.1}", r.dprs_per_100),
                ]);
            }
        }
    }
    vec![t]
}
