//! Figure 7 (scalability): test accuracy after a fixed iteration budget,
//! PMLS-Caffe (SSPtable) vs FluentPS, SSP s=3, at 2–64 workers.
//!
//! Expected shape: FluentPS holds its accuracy across the whole sweep;
//! SSPtable tracks it at 2–4 workers and collapses from 8 on (the paper
//! reports 75.9–76.7% vs 12.7–19% at N = 64).

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_ml::schedule::LrSchedule;

use crate::driver::{run, DriverConfig, EngineKind, ModelKind};
use crate::figures::{c10, Scale};
use crate::report::{pct, Table};

fn cfg(scale: Scale, n: u32, engine: EngineKind) -> DriverConfig {
    DriverConfig {
        engine,
        num_workers: n,
        num_servers: 1,
        max_iters: scale.pick(300, 4000),
        model: ModelKind::Mlp { hidden: vec![64] },
        dataset: Some(c10(13)),
        lr: LrSchedule::Constant(0.15),
        compute_base: 1.0,
        eval_every: 0,
        seed: 13,
        ..DriverConfig::default()
    }
}

/// Regenerate Figure 7.
pub fn run_figure(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 7: accuracy at fixed iterations vs cluster size (SSP s=3)",
        &["workers", "FluentPS", "PMLS-Caffe (SSPtable)"],
    );
    let sweep: &[u32] = if scale.full {
        &[2, 4, 8, 16, 32, 64]
    } else {
        &[2, 4, 8, 16, 32]
    };
    for &n in sweep {
        let fluent = run(&cfg(
            scale,
            n,
            EngineKind::FluentPs {
                model: SyncModel::Ssp { s: 3 },
                policy: DprPolicy::LazyExecution,
            },
        ));
        let pmls = run(&cfg(scale, n, EngineKind::SspTable { s: 3 }));
        t.row(vec![
            n.to_string(),
            pct(fluent.final_accuracy),
            pct(pmls.final_accuracy),
        ]);
    }
    vec![t]
}
