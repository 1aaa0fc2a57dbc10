//! Ablations of the design choices DESIGN.md calls out: the EPS chunk
//! granularity, the centralized-scheduler cost model behind Figure 6, the
//! straggler regime, and the Gaia-style significance filter extension.

use fluentps_baseline::pslite::PsLiteMode;
use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_ml::schedule::LrSchedule;
use fluentps_simnet::compute::StragglerSpec;
use fluentps_simnet::net::LinkModel;

use crate::driver::{run, DriverConfig, EngineKind, ModelKind, SlicerKind};
use crate::figures::{c10, resnet56_inventory, Scale};
use crate::report::{pct, secs, Table};

/// EPS chunk-size sweep: smaller chunks balance better but multiply keys.
pub fn eps_chunk_sweep(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Ablation: EPS chunk size (ResNet-56-like, BSP, 16 workers, M=8)",
        &["max-chunk", "imbalance", "total-time", "max-server-comm"],
    );
    for max_chunk in [2_048usize, 8_192, 32_768, 131_072, usize::MAX / 2] {
        let cfg = DriverConfig {
            engine: EngineKind::FluentPs {
                model: SyncModel::Bsp,
                policy: DprPolicy::LazyExecution,
            },
            num_workers: 16,
            num_servers: 8,
            slicer: SlicerKind::Eps { max_chunk },
            max_iters: scale.pick(40, 400),
            model: ModelKind::TimingOnly {
                params: resnet56_inventory(),
            },
            dataset: None,
            compute_base: 8.0,
            compute_jitter: 0.15,
            link: LinkModel::gbe(),
            eval_every: 0,
            seed: 81,
            ..DriverConfig::default()
        };
        let imbalance = {
            use fluentps_core::eps::{EpsSlicer, Slicer};
            EpsSlicer { max_chunk }
                .slice(&resnet56_inventory(), 8)
                .imbalance()
        };
        let r = run(&cfg);
        let label = if max_chunk > 1 << 30 {
            "no-chunking".to_string()
        } else {
            max_chunk.to_string()
        };
        t.row(vec![
            label,
            format!("{imbalance:.2}"),
            secs(r.total_time),
            secs(r.max_server_comm),
        ]);
    }
    vec![t]
}

/// Scheduler-cost sensitivity: how Figure 6's PS-Lite gap depends on the
/// calibrated centralized-bookkeeping constant.
pub fn scheduler_cost_sweep(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Ablation: PS-Lite scheduler cost coefficient (32 workers, BSP, M=8)",
        &[
            "per-worker-cost",
            "pslite-total",
            "fluentps-total",
            "speedup",
        ],
    );
    for c in [0.0f64, 0.5e-3, 1.5e-3, 2.5e-3, 5e-3] {
        let mk = |engine, slicer| {
            let cfg = DriverConfig {
                engine,
                num_workers: 32,
                num_servers: 8,
                slicer,
                max_iters: scale.pick(40, 400),
                model: ModelKind::TimingOnly {
                    params: resnet56_inventory(),
                },
                dataset: None,
                compute_base: 8.0,
                compute_jitter: 0.15,
                link: LinkModel::gbe(),
                sched_cost_per_worker: c,
                eval_every: 0,
                seed: 83,
                ..DriverConfig::default()
            };
            run(&cfg)
        };
        let pslite = mk(
            EngineKind::PsLite {
                mode: PsLiteMode::Bsp,
            },
            SlicerKind::Default,
        );
        let fluent = mk(
            EngineKind::FluentPs {
                model: SyncModel::Bsp,
                policy: DprPolicy::LazyExecution,
            },
            SlicerKind::Default,
        );
        t.row(vec![
            format!("{:.1}ms", c * 1000.0),
            secs(pslite.total_time),
            secs(fluent.total_time),
            format!("{:.2}x", pslite.total_time / fluent.total_time),
        ]);
    }
    vec![t]
}

/// Significance-filter ablation: bytes saved vs accuracy cost, SSP s=3.
pub fn significance_filter_sweep(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Ablation: Gaia-style significance filter (MLP/c10-like, 8 workers, SSP s=3)",
        &["threshold", "accuracy", "push-bytes", "bytes-saved"],
    );
    let mk = |filter: Option<(f64, u32)>| {
        let cfg = DriverConfig {
            engine: EngineKind::FluentPs {
                model: SyncModel::Ssp { s: 3 },
                policy: DprPolicy::LazyExecution,
            },
            num_workers: 8,
            num_servers: 2,
            max_iters: scale.pick(300, 2000),
            model: ModelKind::Mlp { hidden: vec![64] },
            dataset: Some(c10(87)),
            lr: LrSchedule::Constant(0.15),
            compute_base: 2.0,
            significance_filter: filter,
            eval_every: 0,
            seed: 87,
            ..DriverConfig::default()
        };
        run(&cfg)
    };
    let baseline = mk(None);
    t.row(vec![
        "off".into(),
        pct(baseline.final_accuracy),
        baseline.stats.bytes_in.to_string(),
        "—".into(),
    ]);
    for threshold in [0.001f64, 0.01, 0.05] {
        let r = mk(Some((threshold, 8)));
        let saved = 100.0 * (1.0 - r.stats.bytes_in as f64 / baseline.stats.bytes_in as f64);
        t.row(vec![
            format!("{threshold}"),
            pct(r.final_accuracy),
            r.stats.bytes_in.to_string(),
            format!("{saved:.1}%"),
        ]);
    }
    vec![t]
}

/// Straggler-regime sweep: where each synchronization model's time goes as
/// the persistent straggler slows down.
pub fn straggler_sweep(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Ablation: persistent straggler factor (16 workers, timing-only)",
        &["factor", "BSP", "SSP s=3", "drop-stragglers", "ASP"],
    );
    for factor in [1.0f64, 1.5, 2.5, 4.0] {
        let mk = |model| {
            let cfg = DriverConfig {
                engine: EngineKind::FluentPs {
                    model,
                    policy: DprPolicy::LazyExecution,
                },
                num_workers: 16,
                num_servers: 2,
                max_iters: scale.pick(60, 600),
                model: ModelKind::TimingOnly {
                    params: resnet56_inventory(),
                },
                dataset: None,
                compute_base: 4.0,
                compute_jitter: 0.2,
                stragglers: StragglerSpec {
                    transient_prob: 0.02,
                    transient_factor: 2.0,
                    persistent_count: 1,
                    persistent_factor: factor,
                },
                link: LinkModel::aws_25g(),
                eval_every: 0,
                seed: 89,
                ..DriverConfig::default()
            };
            run(&cfg).total_time
        };
        t.row(vec![
            format!("{factor}x"),
            secs(mk(SyncModel::Bsp)),
            secs(mk(SyncModel::Ssp { s: 3 })),
            secs(mk(SyncModel::DropStragglers { n_t: 14 })),
            secs(mk(SyncModel::Asp)),
        ]);
    }
    vec![t]
}
