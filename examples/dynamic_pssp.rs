//! Dynamic PSSP and the significance machinery.
//!
//! Part 1 prints the blocking-probability surface P(s, k) for constant vs
//! dynamic PSSP and the regret-equivalence table of Theorem 1.
//! Part 2 runs static PSSP, dynamic PSSP (significance-driven α) and the
//! Gaia-style significance filter side by side on one training workload.
//!
//! Run with: `cargo run --release --example dynamic_pssp`

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::pssp::{constant_probability, dynamic_probability, Alpha};
use fluentps::core::regret::{equivalent_ssp_threshold, pssp_const_bound, ssp_bound, RegretParams};
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind};
use fluentps::experiments::report::{pct, secs, Table};
use fluentps::ml::data::SyntheticSpec;
use fluentps::ml::schedule::LrSchedule;
use fluentps::simnet::compute::StragglerSpec;
use fluentps::simnet::net::LinkModel;

fn main() {
    // --- Part 1: the probability surface and Theorem 1 ---
    let s = 3u64;
    let mut surface = Table::new(
        "P(s=3, k): probability of pausing a worker with progress gap k",
        &["gap k", "constant c=0.5", "dynamic α=1.0"],
    );
    for k in 0..10u64 {
        surface.row(vec![
            k.to_string(),
            format!("{:.3}", constant_probability(0.5, s, k)),
            format!("{:.3}", dynamic_probability(1.0, s, k)),
        ]);
    }
    println!("{}", surface.render());

    let params = RegretParams {
        f: 1.0,
        l: 1.0,
        n: 32,
        t: 64_000,
    };
    let mut regret = Table::new(
        "Theorem 1: PSSP(s=3, c) and SSP(s' = s + 1/c - 1) share the regret bound",
        &["c", "s'", "PSSP bound", "SSP bound"],
    );
    for c in [0.5f64, 1.0 / 3.0, 0.2, 0.1] {
        regret.row(vec![
            format!("{c:.3}"),
            format!("{:.0}", equivalent_ssp_threshold(s, c)),
            format!("{:.5}", pssp_const_bound(params, s as f64, c)),
            format!("{:.5}", ssp_bound(params, equivalent_ssp_threshold(s, c))),
        ]);
    }
    println!("{}", regret.render());

    // --- Part 2: static vs dynamic PSSP vs significance filter ---
    let mk = |engine: EngineKind, filter: Option<(f64, u32)>| {
        let cfg = DriverConfig {
            engine,
            num_workers: 12,
            num_servers: 2,
            max_iters: 300,
            model: ModelKind::Mlp { hidden: vec![48] },
            dataset: Some(SyntheticSpec {
                dim: 32,
                classes: 10,
                n_train: 4000,
                n_test: 1000,
                margin: 2.8,
                modes: 1,
                label_noise: 0.0,
                seed: 13,
            }),
            lr: LrSchedule::Constant(0.2),
            compute_base: 3.0,
            compute_jitter: 0.3,
            stragglers: StragglerSpec {
                transient_prob: 0.05,
                transient_factor: 2.0,
                persistent_count: 1,
                persistent_factor: 1.7,
            },
            link: LinkModel::aws_25g(),
            significance_filter: filter,
            eval_every: 0,
            seed: 13,
            ..DriverConfig::default()
        };
        run(&cfg)
    };

    let mut table = Table::new(
        "Static vs dynamic PSSP vs significance filter (12 workers, 1 straggler)",
        &[
            "configuration",
            "time",
            "accuracy",
            "DPRs/100it",
            "bytes-in",
        ],
    );
    type Config = (&'static str, EngineKind, Option<(f64, u32)>);
    let configs: Vec<Config> = vec![
        (
            "PSSP const c=0.3",
            EngineKind::FluentPs {
                model: SyncModel::PsspConst { s: 3, c: 0.3 },
                policy: DprPolicy::LazyExecution,
            },
            None,
        ),
        (
            "PSSP dynamic (significance α)",
            EngineKind::FluentPs {
                model: SyncModel::PsspDynamic {
                    s: 3,
                    alpha: Alpha::Significance {
                        floor: 0.05,
                        cap: 1.0,
                    },
                },
                policy: DprPolicy::LazyExecution,
            },
            None,
        ),
        (
            "PSSP const + significance filter",
            EngineKind::FluentPs {
                model: SyncModel::PsspConst { s: 3, c: 0.3 },
                policy: DprPolicy::LazyExecution,
            },
            Some((0.05, 8)),
        ),
    ];
    for (name, engine, filter) in configs {
        let r = mk(engine, filter);
        table.row(vec![
            name.to_string(),
            secs(r.total_time),
            pct(r.final_accuracy),
            format!("{:.1}", r.dprs_per_100),
            r.stats.bytes_in.to_string(),
        ]);
    }
    println!("{}", table.render());
}
