//! Figure 8: lazy execution vs soft barrier — accuracy over time training
//! the deep (ResNet-56-like) model with 32 workers, SSP s=2.
//!
//! Expected shape: lazy execution converges faster in wall-clock (paper:
//! 1.21×) and ends at least as accurate, because the fast workers read
//! fully updated parameters instead of stale ones.

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_ml::schedule::LrSchedule;
use fluentps_simnet::compute::StragglerSpec;
use fluentps_simnet::net::LinkModel;

use crate::driver::{run, DriverConfig, EngineKind, ModelKind, RunResult};
use crate::figures::{c10, Scale};
use crate::report::{pct, secs, speedup, Table};

fn cfg(scale: Scale, policy: DprPolicy) -> DriverConfig {
    DriverConfig {
        engine: EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 2 },
            policy,
        },
        num_workers: scale.pick(16, 32),
        num_servers: scale.pick(4, 8),
        max_iters: scale.pick(400, 4000),
        model: ModelKind::Residual {
            width: 32,
            blocks: 4,
        },
        dataset: Some(c10(17)),
        lr: LrSchedule::StepDecay {
            base: 0.1,
            every: scale.pick(200, 2000),
            factor: 0.5,
        },
        compute_base: 4.0,
        compute_jitter: 0.3,
        stragglers: StragglerSpec {
            transient_prob: 0.05,
            transient_factor: 2.0,
            persistent_count: 1,
            persistent_factor: 1.6,
        },
        link: LinkModel::gbe(),
        // Scale the 13k-parameter stand-in's wire footprint to ResNet-56's
        // 0.85M parameters.
        wire_bytes_scale: 65.0,
        eval_every: scale.pick(40, 250),
        seed: 17,
        ..DriverConfig::default()
    }
}

/// Run both policies and return `(soft, lazy)`.
pub fn measure(scale: Scale) -> (RunResult, RunResult) {
    (
        run(&cfg(scale, DprPolicy::SoftBarrier)),
        run(&cfg(scale, DprPolicy::LazyExecution)),
    )
}

/// Regenerate Figure 8.
pub fn run_figure(scale: Scale) -> Vec<Table> {
    let (soft, lazy) = measure(scale);
    let mut summary = Table::new(
        "Figure 8: soft barrier vs lazy execution (ResNet-56-like, SSP s=2)",
        &[
            "policy",
            "total-time",
            "final-acc",
            "best-acc",
            "DPRs/100it",
            "speedup",
        ],
    );
    for (name, r) in [("soft-barrier", &soft), ("lazy-execution", &lazy)] {
        summary.row(vec![
            name.to_string(),
            secs(r.total_time),
            pct(r.final_accuracy),
            pct(r.curve.best_accuracy()),
            format!("{:.1}", r.dprs_per_100),
            speedup(soft.total_time, r.total_time),
        ]);
    }
    let mut curve = Table::new(
        "Figure 8 curves: accuracy vs simulated time",
        &["policy", "iter", "time", "accuracy"],
    );
    for (name, r) in [("soft-barrier", &soft), ("lazy-execution", &lazy)] {
        for p in r.curve.points() {
            curve.row(vec![
                name.to_string(),
                p.iter.to_string(),
                format!("{:.1}", p.time),
                pct(p.accuracy),
            ]);
        }
    }
    vec![summary, curve]
}
