//! Figures 10 and 11: accuracy vs time for BSP / SSP / ASP / PSSP at 64
//! workers (Figure 10) and 128 workers (Figure 11), AlexNet-like on the
//! CIFAR-10 stand-in, 4000 iterations.
//!
//! Expected shape: ASP finishes first but with the lowest accuracy; SSP's
//! accuracy matches PSSP but takes ~1.38× longer; PSSP (P = 0.3–0.5) sits
//! on the Pareto frontier, and its accuracy advantage over ASP grows with
//! worker count (paper: +3.9% at 128 workers).

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_ml::schedule::LrSchedule;
use fluentps_simnet::compute::StragglerSpec;
use fluentps_simnet::net::LinkModel;

use crate::driver::{run, DriverConfig, EngineKind, ModelKind, RunResult};
use crate::figures::{c10, Scale};
use crate::report::{pct, secs, Table};

/// The model sweep of both figures.
pub fn models() -> Vec<(&'static str, SyncModel)> {
    vec![
        ("BSP", SyncModel::Bsp),
        ("SSP s=3", SyncModel::Ssp { s: 3 }),
        ("ASP", SyncModel::Asp),
        ("PSSP P=0.1", SyncModel::PsspConst { s: 3, c: 0.1 }),
        ("PSSP P=0.3", SyncModel::PsspConst { s: 3, c: 0.3 }),
        ("PSSP P=0.5", SyncModel::PsspConst { s: 3, c: 0.5 }),
    ]
}

/// One training measurement at `n` workers.
pub fn measure(scale: Scale, n: u32, model: SyncModel) -> RunResult {
    let cfg = DriverConfig {
        engine: EngineKind::FluentPs {
            model,
            policy: DprPolicy::LazyExecution,
        },
        num_workers: n,
        num_servers: scale.pick(2, 8),
        max_iters: scale.pick(250, 4000),
        model: ModelKind::Mlp { hidden: vec![64] },
        dataset: Some(c10(19)),
        lr: LrSchedule::Constant(0.25),
        compute_base: 4.0,
        compute_jitter: 0.3,
        // Straggler population grows with the cluster (the paper's premise:
        // at scale, some workers are always behind).
        stragglers: StragglerSpec {
            transient_prob: 0.08,
            transient_factor: 2.5,
            persistent_count: (n / 8).max(1),
            persistent_factor: 2.2,
        },
        link: LinkModel::gbe(),
        // Scale the small MLP's wire footprint to a CIFAR-AlexNet-sized
        // network (~1.2M parameters).
        wire_bytes_scale: 230.0,
        eval_every: scale.pick(50, 400),
        seed: 19,
        ..DriverConfig::default()
    };
    run(&cfg)
}

/// Regenerate Figure 10 (`workers` = 64 scaled) or Figure 11 (128 scaled).
pub fn run_figure(scale: Scale, figure11: bool) -> Vec<Table> {
    let n = if figure11 {
        scale.pick(32, 128)
    } else {
        scale.pick(16, 64)
    };
    let title = if figure11 {
        format!("Figure 11: accuracy vs time, {n} workers")
    } else {
        format!("Figure 10: accuracy vs time, {n} workers")
    };
    let mut summary = Table::new(
        title.clone(),
        &["model", "total-time", "final-acc", "best-acc", "DPRs/100it"],
    );
    let mut curves = Table::new(
        format!("{title} — curves"),
        &["model", "iter", "time", "accuracy"],
    );
    for (label, model) in models() {
        let r = measure(scale, n, model);
        summary.row(vec![
            label.to_string(),
            secs(r.total_time),
            pct(r.final_accuracy),
            pct(r.curve.best_accuracy()),
            format!("{:.1}", r.dprs_per_100),
        ]);
        for p in r.curve.points() {
            curves.row(vec![
                label.to_string(),
                p.iter.to_string(),
                format!("{:.1}", p.time),
                pct(p.accuracy),
            ]);
        }
    }
    vec![summary, curves]
}
