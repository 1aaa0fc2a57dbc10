//! Figure 1 (motivation): Bösen/SSPtable's test accuracy collapses as the
//! cluster grows, even at the same mini-batch size and staleness threshold.
//!
//! Expected shape: accuracy roughly flat up to ~4 workers, then a cliff —
//! the paper measures <20% test accuracy for N ≥ 8 where 2–4 workers reach
//! ~70%+.

use fluentps_ml::schedule::LrSchedule;

use crate::driver::{run, DriverConfig, EngineKind, ModelKind};
use crate::figures::{c10, Scale};
use crate::report::{pct, Table};

fn cfg(scale: Scale, n: u32) -> DriverConfig {
    DriverConfig {
        engine: EngineKind::SspTable { s: 3 },
        num_workers: n,
        num_servers: 1,
        max_iters: scale.pick(300, 4000),
        model: ModelKind::Mlp { hidden: vec![64] },
        dataset: Some(c10(11)),
        lr: LrSchedule::Constant(0.15),
        compute_base: 1.0,
        eval_every: 0,
        seed: 11,
        ..DriverConfig::default()
    }
}

/// Regenerate Figure 1.
pub fn run_figure(scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 1: SSPtable (Bosen/PMLS) accuracy vs cluster size, AlexNet-like on c10-like, SSP s=3",
        &["workers", "effective-staleness", "test-accuracy"],
    );
    for n in [2u32, 4, 8, 16] {
        let c = cfg(scale, n);
        let r = run(&c);
        let eff = fluentps_baseline::ssptable::SspTableModel::new(3).effective_staleness(n);
        t.row(vec![n.to_string(), eff.to_string(), pct(r.final_accuracy)]);
    }
    vec![t]
}
