//! Cross-model invariants of the simulation driver: whatever the
//! synchronization model, engine and policy, certain bookkeeping identities
//! must hold on every completed run.

use fluentps::baseline::pslite::PsLiteMode;
use fluentps::core::condition::{DspsConfig, SyncModel};
use fluentps::core::dpr::DprPolicy;
use fluentps::core::eps::ParamSpec;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind, SlicerKind};
use fluentps::ml::data::SyntheticSpec;
use fluentps::simnet::compute::StragglerSpec;

fn all_engines() -> Vec<(&'static str, EngineKind)> {
    let mut v: Vec<(&'static str, EngineKind)> = vec![
        (
            "pslite-bsp",
            EngineKind::PsLite {
                mode: PsLiteMode::Bsp,
            },
        ),
        (
            "pslite-bounded",
            EngineKind::PsLite {
                mode: PsLiteMode::BoundedDelay(2),
            },
        ),
        ("ssptable", EngineKind::SspTable { s: 3 }),
    ];
    for (name, model) in [
        ("bsp", SyncModel::Bsp),
        ("asp", SyncModel::Asp),
        ("ssp", SyncModel::Ssp { s: 2 }),
        ("dsps", SyncModel::Dsps(DspsConfig::default())),
        ("drop", SyncModel::DropStragglers { n_t: 5 }),
        ("pssp-const", SyncModel::PsspConst { s: 2, c: 0.4 }),
    ] {
        v.push((
            name,
            EngineKind::FluentPs {
                model,
                policy: DprPolicy::LazyExecution,
            },
        ));
        // And the soft-barrier flavour of the same model.
        if name == "ssp" || name == "pssp-const" {
            v.push((
                "soft",
                EngineKind::FluentPs {
                    model,
                    policy: DprPolicy::SoftBarrier,
                },
            ));
        }
    }
    v
}

fn timing_cfg(engine: EngineKind) -> DriverConfig {
    DriverConfig {
        engine,
        num_workers: 6,
        num_servers: 3,
        slicer: SlicerKind::Eps { max_chunk: 4096 },
        max_iters: 30,
        model: ModelKind::TimingOnly {
            params: vec![
                ParamSpec { key: 0, len: 9_000 },
                ParamSpec { key: 1, len: 3_000 },
                ParamSpec { key: 2, len: 1_000 },
            ],
        },
        dataset: None,
        compute_base: 2.0,
        compute_jitter: 0.25,
        stragglers: StragglerSpec {
            transient_prob: 0.05,
            transient_factor: 2.0,
            persistent_count: 1,
            persistent_factor: 1.5,
        },
        eval_every: 0,
        seed: 101,
        ..DriverConfig::default()
    }
}

#[test]
fn bookkeeping_identities_hold_for_every_engine() {
    for (name, engine) in all_engines() {
        let r = run(&timing_cfg(engine));
        let st = &r.stats;
        // Every pull is answered exactly one way.
        assert_eq!(
            st.pulls_total,
            st.pulls_immediate + st.dprs,
            "{name}: pull accounting"
        );
        // Every deferral is eventually released (runs complete).
        assert_eq!(st.dprs, st.dprs_released, "{name}: DPR conservation");
        // Wait histogram matches the release counter.
        assert_eq!(
            st.dpr_wait_hist.count(),
            st.dprs_released,
            "{name}: histogram count"
        );
        // The run made full progress on every shard.
        assert_eq!(st.v_train_advances, 30 * 3, "{name}: progress");
        // Time accounting: total ≥ per-worker compute mean; comm ≥ 0.
        assert!(r.total_time >= r.compute_time_mean, "{name}: time");
        assert!(r.comm_time_mean >= 0.0, "{name}: comm");
        // Bytes flowed both ways.
        assert!(st.bytes_in > 0 && st.bytes_out > 0, "{name}: bytes");
    }
}

#[test]
fn late_push_drops_only_under_drop_stragglers() {
    for (name, engine) in all_engines() {
        let r = run(&timing_cfg(engine));
        match engine {
            EngineKind::FluentPs {
                model: SyncModel::DropStragglers { .. },
                ..
            } => {}
            _ => assert_eq!(
                r.stats.late_pushes_dropped, 0,
                "{name}: only drop-stragglers discards gradients"
            ),
        }
    }
}

#[test]
fn asp_never_defers_and_bsp_defers_most() {
    let mk = |model| {
        run(&timing_cfg(EngineKind::FluentPs {
            model,
            policy: DprPolicy::LazyExecution,
        }))
        .stats
        .dprs
    };
    let asp = mk(SyncModel::Asp);
    let ssp = mk(SyncModel::Ssp { s: 2 });
    let bsp = mk(SyncModel::Bsp);
    assert_eq!(asp, 0);
    assert!(bsp >= ssp, "BSP {bsp} defers at least as much as SSP {ssp}");
    assert!(bsp > 0, "BSP defers under a straggler");
}

#[test]
fn warm_start_resumes_exactly_where_training_left_off() {
    // Two staged runs with a warm handoff must equal one longer run in the
    // deterministic-progress sense: the staged final accuracy lands close to
    // the single-run accuracy (batch order differs, exact equality is not
    // expected).
    let base = DriverConfig {
        engine: EngineKind::FluentPs {
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
        },
        num_workers: 4,
        num_servers: 2,
        max_iters: 120,
        model: ModelKind::Softmax,
        dataset: Some(SyntheticSpec {
            dim: 16,
            classes: 4,
            n_train: 1500,
            n_test: 400,
            margin: 3.0,
            modes: 1,
            label_noise: 0.0,
            seed: 55,
        }),
        compute_base: 1.0,
        eval_every: 0,
        seed: 55,
        ..DriverConfig::default()
    };
    let single = run(&base);

    let mut first = base.clone();
    first.max_iters = 60;
    let stage1 = run(&first);
    let mut second = base.clone();
    second.max_iters = 60;
    second.initial_params = stage1.final_params.clone();
    let stage2 = run(&second);

    assert!(
        stage2.final_accuracy > stage1.final_accuracy - 0.01,
        "stage 2 ({}) must not regress from stage 1 ({})",
        stage2.final_accuracy,
        stage1.final_accuracy
    );
    assert!(
        (stage2.final_accuracy - single.final_accuracy).abs() < 0.08,
        "staged {} vs single {} should land close",
        stage2.final_accuracy,
        single.final_accuracy
    );
}
