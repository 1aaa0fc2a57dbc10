//! The paper's qualitative claims, checked at miniature scale through the
//! discrete-event driver. Each test corresponds to a headline sentence of
//! the evaluation; the full-size reproductions live in the `repro` binary
//! and the bench harness.

use fluentps::baseline::pslite::PsLiteMode;
use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::eps::ParamSpec;
use fluentps::core::regret::equivalent_ssp_threshold;
use fluentps::experiments::driver::{
    run, DriverConfig, EngineKind, ModelKind, RunResult, SlicerKind,
};
use fluentps::ml::data::SyntheticSpec;
use fluentps::ml::schedule::LrSchedule;
use fluentps::simnet::compute::StragglerSpec;
use fluentps::simnet::net::LinkModel;

fn skewed_inventory() -> Vec<ParamSpec> {
    let mut v = vec![ParamSpec {
        key: 0,
        len: 200_000,
    }];
    for k in 1..24 {
        v.push(ParamSpec { key: k, len: 8_000 });
    }
    v
}

fn timing_cfg(engine: EngineKind, slicer: SlicerKind) -> DriverConfig {
    DriverConfig {
        engine,
        num_workers: 16,
        num_servers: 4,
        slicer,
        max_iters: 25,
        model: ModelKind::TimingOnly {
            params: skewed_inventory(),
        },
        dataset: None,
        compute_base: 4.0,
        compute_jitter: 0.15,
        stragglers: StragglerSpec::random_slowdowns(),
        link: LinkModel::gbe(),
        eval_every: 0,
        seed: 61,
        ..DriverConfig::default()
    }
}

fn straggler_cfg(model: SyncModel, policy: DprPolicy) -> DriverConfig {
    DriverConfig {
        engine: EngineKind::FluentPs { model, policy },
        num_workers: 12,
        num_servers: 1,
        max_iters: 150,
        model: ModelKind::TimingOnly {
            params: skewed_inventory(),
        },
        dataset: None,
        compute_base: 4.0,
        compute_jitter: 0.3,
        stragglers: StragglerSpec {
            transient_prob: 0.05,
            transient_factor: 2.0,
            persistent_count: 1,
            persistent_factor: 1.6,
        },
        link: LinkModel::aws_25g(),
        eval_every: 0,
        seed: 67,
        ..DriverConfig::default()
    }
}

/// "Overlap synchronization ... can be up to 4.26× faster than PS-Lite":
/// FluentPS beats the centralized non-overlap design, and EPS improves it
/// further (Figure 6's ordering).
#[test]
fn figure6_ordering_fluentps_beats_pslite_and_eps_beats_default() {
    let pslite = run(&timing_cfg(
        EngineKind::PsLite {
            mode: PsLiteMode::Bsp,
        },
        SlicerKind::Default,
    ));
    let fluent = run(&timing_cfg(
        EngineKind::FluentPs {
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
        },
        SlicerKind::Default,
    ));
    let eps = run(&timing_cfg(
        EngineKind::FluentPs {
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
        },
        SlicerKind::Eps { max_chunk: 16_384 },
    ));
    assert!(
        fluent.total_time < pslite.total_time,
        "overlap {:.1}s !< non-overlap {:.1}s",
        fluent.total_time,
        pslite.total_time
    );
    assert!(
        eps.total_time < fluent.total_time,
        "EPS {:.1}s !< default slicing {:.1}s",
        eps.total_time,
        fluent.total_time
    );
    assert!(
        eps.comm_time_mean < pslite.comm_time_mean,
        "EPS should reduce communication"
    );
}

/// "Lazy execution ... saves up to 97.1% DPRs" (Figure 9 / Table IV): under
/// the same SSP model, lazy execution produces far fewer DPRs than the soft
/// barrier and is not slower.
#[test]
fn lazy_execution_slashes_dprs_vs_soft_barrier() {
    let soft = run(&straggler_cfg(
        SyncModel::Ssp { s: 2 },
        DprPolicy::SoftBarrier,
    ));
    let lazy = run(&straggler_cfg(
        SyncModel::Ssp { s: 2 },
        DprPolicy::LazyExecution,
    ));
    assert!(
        (lazy.stats.dprs as f64) < soft.stats.dprs as f64 * 0.5,
        "lazy {} DPRs !< half of soft {}",
        lazy.stats.dprs,
        soft.stats.dprs
    );
    assert!(
        lazy.total_time <= soft.total_time * 1.02,
        "lazy {:.1}s should not be slower than soft {:.1}s",
        lazy.total_time,
        soft.total_time
    );
}

/// "PSSP outperforms SSP by reducing up to 97.1% DPRs" under the same regret
/// bound: PSSP(s=3, c) vs SSP(s + 1/c − 1) pairs (Figure 9's groups).
#[test]
fn pssp_beats_regret_equivalent_ssp_on_dprs() {
    for c in [0.5, 0.2] {
        let s_prime = equivalent_ssp_threshold(3, c).round() as u64;
        let pssp = run(&straggler_cfg(
            SyncModel::PsspConst { s: 3, c },
            DprPolicy::SoftBarrier,
        ));
        let ssp = run(&straggler_cfg(
            SyncModel::Ssp { s: s_prime },
            DprPolicy::SoftBarrier,
        ));
        assert!(
            pssp.stats.dprs < ssp.stats.dprs,
            "c={c}: PSSP {} DPRs !< SSP(s'={s_prime}) {}",
            pssp.stats.dprs,
            ssp.stats.dprs
        );
    }
}

fn training_cfg(engine: EngineKind, n: u32) -> DriverConfig {
    DriverConfig {
        engine,
        num_workers: n,
        num_servers: 1,
        max_iters: 250,
        model: ModelKind::Mlp { hidden: vec![32] },
        dataset: Some(SyntheticSpec {
            dim: 24,
            classes: 6,
            n_train: 3000,
            n_test: 600,
            margin: 3.0,
            modes: 1,
            label_noise: 0.0,
            seed: 71,
        }),
        lr: LrSchedule::Constant(0.2),
        compute_base: 1.0,
        eval_every: 0,
        seed: 71,
        ..DriverConfig::default()
    }
}

/// "FluentPS can well support large-scale distributed deep learning because
/// more workers will not cause convergence loss like PMLS-Caffe" (Figures
/// 1 and 7): at 16 workers the SSPtable baseline loses accuracy badly while
/// FluentPS holds.
#[test]
fn ssptable_collapses_at_scale_while_fluentps_holds() {
    let n = 16;
    let fluent = run(&training_cfg(
        EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 3 },
            policy: DprPolicy::LazyExecution,
        },
        n,
    ));
    let ssptable = run(&training_cfg(EngineKind::SspTable { s: 3 }, n));
    assert!(
        fluent.final_accuracy > ssptable.final_accuracy + 0.1,
        "FluentPS {:.3} should beat SSPtable {:.3} clearly at N={n}",
        fluent.final_accuracy,
        ssptable.final_accuracy
    );
    // And at 2 workers they are close.
    let fluent2 = run(&training_cfg(
        EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 3 },
            policy: DprPolicy::LazyExecution,
        },
        2,
    ));
    let ssptable2 = run(&training_cfg(EngineKind::SspTable { s: 3 }, 2));
    assert!(
        (fluent2.final_accuracy - ssptable2.final_accuracy).abs() < 0.12,
        "at N=2 the systems should be close: {:.3} vs {:.3}",
        fluent2.final_accuracy,
        ssptable2.final_accuracy
    );
}

/// Figure 10's ordering: BSP is slowest; ASP has the worst accuracy; PSSP
/// is fast with near-BSP accuracy.
#[test]
fn figure10_ordering_holds() {
    let with_stragglers = |model| {
        let mut cfg = training_cfg(
            EngineKind::FluentPs {
                model,
                policy: DprPolicy::LazyExecution,
            },
            16,
        );
        cfg.compute_jitter = 0.3;
        cfg.stragglers = StragglerSpec {
            transient_prob: 0.08,
            transient_factor: 2.5,
            persistent_count: 2,
            persistent_factor: 2.2,
        };
        cfg.lr = LrSchedule::Constant(0.3);
        run(&cfg)
    };
    let bsp: RunResult = with_stragglers(SyncModel::Bsp);
    let asp = with_stragglers(SyncModel::Asp);
    let pssp = with_stragglers(SyncModel::PsspConst { s: 3, c: 0.3 });
    assert!(
        asp.total_time < bsp.total_time,
        "ASP {:.1}s !< BSP {:.1}s",
        asp.total_time,
        bsp.total_time
    );
    assert!(
        pssp.total_time < bsp.total_time,
        "PSSP {:.1}s !< BSP {:.1}s",
        pssp.total_time,
        bsp.total_time
    );
    assert!(
        pssp.final_accuracy > asp.final_accuracy,
        "PSSP {:.3} accuracy !> ASP {:.3}",
        pssp.final_accuracy,
        asp.final_accuracy
    );
}

/// The simulator is fully deterministic: identical configs produce identical
/// results, bit for bit.
#[test]
fn full_stack_determinism() {
    let cfg = training_cfg(
        EngineKind::FluentPs {
            model: SyncModel::PsspConst { s: 2, c: 0.4 },
            policy: DprPolicy::LazyExecution,
        },
        6,
    );
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.stats, b.stats);
}

/// Figure 2's headline flexibility: different shards run different models in
/// one job. The SSP shard defers fast pulls while the ASP shard never does.
#[test]
fn per_server_heterogeneous_models_behave_independently() {
    let mut cfg = training_cfg(
        EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 2 },
            policy: DprPolicy::LazyExecution,
        },
        8,
    );
    cfg.num_servers = 2;
    cfg.per_server_models = Some(vec![SyncModel::Ssp { s: 2 }, SyncModel::Asp]);
    cfg.compute_jitter = 0.3;
    cfg.stragglers = StragglerSpec {
        transient_prob: 0.05,
        transient_factor: 2.0,
        persistent_count: 1,
        persistent_factor: 1.8,
    };
    let r = run(&cfg);
    // The run completes and learns; the SSP shard produced DPRs while the
    // ASP shard produced none (total DPRs > 0 but pulls_immediate covers at
    // least the ASP shard's share).
    assert!(r.final_accuracy > 0.5, "acc {}", r.final_accuracy);
    assert!(r.stats.dprs > 0, "SSP shard must defer under a straggler");
    assert!(
        r.stats.pulls_immediate > r.stats.pulls_total / 2,
        "ASP shard answers everything immediately"
    );
}

/// PS-Lite's bounded-delay mode parks workers at the scheduler less often
/// than BSP and more often than ASP (which never parks). Time is not
/// necessarily monotone — fast workers running ahead can add contention at
/// the bottleneck server — but the barrier frequency is.
#[test]
fn pslite_bounded_delay_parks_between_bsp_and_asp() {
    use fluentps::baseline::pslite::PsLiteMode;
    let mk = |mode| {
        let mut cfg = timing_cfg(EngineKind::PsLite { mode }, SlicerKind::Default);
        cfg.stragglers = StragglerSpec {
            transient_prob: 0.05,
            transient_factor: 2.0,
            persistent_count: 1,
            persistent_factor: 1.7,
        };
        run(&cfg)
    };
    let bsp = mk(PsLiteMode::Bsp);
    let bounded = mk(PsLiteMode::BoundedDelay(3));
    let asp = mk(PsLiteMode::Asp);
    assert_eq!(asp.barrier_count, 0, "ASP never parks");
    assert!(
        bounded.barrier_count < bsp.barrier_count,
        "bounded {} parks !< BSP {}",
        bounded.barrier_count,
        bsp.barrier_count
    );
    assert!(
        bounded.barrier_count > 0,
        "bounded delay still parks racers"
    );
}
