//! Failure injection: what each synchronization model does when a worker
//! fail-stops, how EPS remaps the slices of dead servers, and whether the
//! live fault-tolerant TCP engine survives crashes and chaos schedules.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::engine::EngineConfig;
use fluentps::core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps::core::recovery::{RecoveryConfig, ResilientTcpCluster};
use fluentps::core::worker::RetryPolicy;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind};
use fluentps::experiments::live::{run_chaos, ChaosConfig};
use fluentps::ml::data::{synthetic, BatchSampler, SyntheticSpec};
use fluentps::ml::models::{Model, SoftmaxRegression};
use fluentps::ml::optim::{Optimizer, Sgd};
use fluentps::simnet::compute::StragglerSpec;

fn cfg(model: SyncModel, fail: Option<(u32, u64)>) -> DriverConfig {
    DriverConfig {
        engine: EngineKind::FluentPs {
            model,
            policy: DprPolicy::LazyExecution,
        },
        num_workers: 6,
        num_servers: 2,
        max_iters: 40,
        model: ModelKind::TimingOnly {
            params: vec![
                ParamSpec { key: 0, len: 5_000 },
                ParamSpec { key: 1, len: 5_000 },
            ],
        },
        dataset: None,
        compute_base: 2.0,
        compute_jitter: 0.1,
        stragglers: StragglerSpec::none(),
        fail_worker: fail,
        eval_every: 0,
        seed: 91,
        ..DriverConfig::default()
    }
}

#[test]
fn bsp_stalls_at_the_failed_iteration() {
    // Worker 3 dies after computing iteration 10: under BSP, V_train can
    // never pass 10 — every surviving worker blocks on the barrier forever.
    let r = run(&cfg(SyncModel::Bsp, Some((3, 10))));
    assert_eq!(
        r.stats.v_train_advances,
        10 * 2, // 10 iterations × 2 shards
        "BSP must stall exactly at the failure point"
    );
}

#[test]
fn ssp_stalls_s_iterations_later() {
    // SSP lets survivors run s iterations past the stall before blocking.
    let s = 3u64;
    let r = run(&cfg(SyncModel::Ssp { s }, Some((3, 10))));
    assert_eq!(r.stats.v_train_advances, 10 * 2);
    // Survivors pushed up to iteration 10 + s − 1 before their pulls parked.
    assert!(r.stats.pushes >= 5 * (10 + s) * 2);
}

#[test]
fn drop_stragglers_survives_the_failure() {
    // With N_t = 5 of 6, the dead worker is simply dropped every iteration
    // and training completes the full budget.
    let r = run(&cfg(SyncModel::DropStragglers { n_t: 5 }, Some((3, 10))));
    assert_eq!(
        r.stats.v_train_advances,
        40 * 2,
        "drop-stragglers must complete all iterations"
    );
}

#[test]
fn healthy_run_completes_under_every_model() {
    for model in [
        SyncModel::Bsp,
        SyncModel::Ssp { s: 2 },
        SyncModel::DropStragglers { n_t: 5 },
        SyncModel::Asp,
    ] {
        let r = run(&cfg(model, None));
        assert_eq!(r.stats.v_train_advances, 40 * 2, "{model:?}");
    }
}

#[test]
fn live_tcp_run_survives_a_server_kill_mid_training() {
    // A real TCP cluster, SSP s = 2, server 0 crashes once its shard's
    // V_train reaches 8. The supervisor detects the death via missed
    // heartbeats and spawns a replacement from the latest checkpoint;
    // worker retries replay the lost pushes and every worker completes all
    // of its iterations. `run_chaos` asserts inside every worker loop that
    // each granted pull respects the SSP staleness bound — including the
    // pulls answered by the replacement.
    let r = run_chaos(&ChaosConfig {
        num_workers: 2,
        num_servers: 2,
        max_iters: 25,
        staleness: 2,
        kill_server: Some((0, 8)),
        seed: 13,
        ..ChaosConfig::default()
    });
    assert_eq!(r.dead_at_end, 0, "replacement must rejoin the cluster");
    // Both incarnations of server 0 merge under its id; every iteration's
    // push landed exactly once (replays are deduplicated, not dropped).
    assert!(
        r.stats[0].pushes >= 2 * 25,
        "merged pushes on the killed server: {}",
        r.stats[0].pushes
    );
    assert!(
        r.accuracy > 0.7,
        "accuracy through the crash: {}",
        r.accuracy
    );
}

#[test]
fn live_degraded_mode_still_learns() {
    // As above, but the supervisor does not replace server 0: the survivor
    // adopts its slices (restored from the checkpoint), workers reroute to
    // it, and training converges on one server.
    let seed = 7;
    let (train, test) = synthetic(SyntheticSpec {
        dim: 16,
        classes: 4,
        n_train: 1200,
        n_test: 300,
        margin: 3.0,
        modes: 1,
        label_noise: 0.0,
        seed,
    });
    let model = SoftmaxRegression {
        dim: 16,
        classes: 4,
    };
    let specs: Vec<ParamSpec> = model
        .param_shapes()
        .iter()
        .map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        })
        .collect();
    let map = EpsSlicer { max_chunk: 16 }.slice(&specs, 2);
    let init = model.init_params(seed);
    let cfg = EngineConfig {
        num_workers: 2,
        num_servers: 2,
        model: SyncModel::Ssp { s: 2 },
        policy: DprPolicy::LazyExecution,
        seed,
    };
    // `run_chaos`'s timings.
    let rcfg = RecoveryConfig {
        heartbeat_every: Duration::from_millis(10),
        liveness_timeout: Duration::from_millis(80),
        checkpoint_every: 1,
        kill_server: Some((0, 8)),
        spawn_replacement: false,
        retry: RetryPolicy {
            timeout: Duration::from_millis(60),
            max_retries: 100,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            jitter_seed: seed ^ 0xC4A0,
            replay_depth: 32,
        },
        election_timeout: Duration::from_millis(200),
        leader_lease: Duration::from_millis(100),
        ..RecoveryConfig::default()
    };
    let (cluster, workers) =
        ResilientTcpCluster::launch(cfg, rcfg, map, &init, None).expect("launch");
    let params: Vec<HashMap<u64, Vec<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut client| {
                let (train, model, init) = (&train, &model, init.clone());
                scope.spawn(move || {
                    let n = client.worker_id();
                    let mut params = init;
                    let mut opt = Sgd::new(0.25, 0.9, 0.0);
                    let mut sampler =
                        BatchSampler::new(train.partition(n, 2), 16, seed + 500 + n as u64);
                    for i in 0..60 {
                        let batch = train.batch(&sampler.next_indices());
                        let (_, grads) = model.loss_and_grad(&params, &batch);
                        client.spush(i, &opt.deltas(&params, &grads)).expect("push");
                        client.spull_wait(i, &mut params).expect("pull");
                    }
                    params
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let dead = cluster.health().dead_count();
    cluster.shutdown();
    assert_eq!(dead, 1, "server 0 stays dead: nothing replaces it");
    let accuracy = model.accuracy(&params[0], &test);
    assert!(accuracy > 0.7, "accuracy in degraded mode: {accuracy}");
}

#[test]
fn live_chaos_schedule_is_bit_deterministic() {
    // Seeded drops, reorder-delays and duplicates (no kill) on a
    // single-worker TCP cluster: because fault rules match message content
    // rather than timing, and dedup/reply-cache keep statistics a pure
    // function of the logical message set, two runs with the same seed
    // produce bit-identical parameters and counters.
    let run_once = || {
        run_chaos(&ChaosConfig {
            num_workers: 1,
            num_servers: 2,
            max_iters: 20,
            faults: 8,
            seed: 42,
            ..ChaosConfig::default()
        })
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.fingerprint, b.fingerprint, "chaos run diverged");
    assert_eq!(
        a.stats
            .iter()
            .map(|s| (s.pushes, s.pulls_total, s.v_train_advances))
            .collect::<Vec<_>>(),
        b.stats
            .iter()
            .map(|s| (s.pushes, s.pulls_total, s.v_train_advances))
            .collect::<Vec<_>>()
    );
}

#[test]
fn eps_rebalances_around_cascading_server_failures() {
    // Servers 2 and then 4 of six die for good; the supervisor remaps each
    // one's slices in degraded mode as it applies its `Remapped` entry,
    // passing every server dead so far.
    let params: Vec<ParamSpec> = (0..20)
        .map(|k| ParamSpec {
            key: k,
            len: if k == 0 { 80_000 } else { 4_000 },
        })
        .collect();
    let total: usize = params.iter().map(|p| p.len).sum();
    let slicer = EpsSlicer { max_chunk: 8_192 };
    let mut map = slicer.slice(&params, 6);
    let mut dead = BTreeSet::new();
    for server in [2u32, 4] {
        dead.insert(server);
        let (remapped, moved) = slicer.remap_dead(&map, &dead);
        assert_eq!(moved, map.server_loads()[server as usize]);
        assert!(moved > 0);
        assert_eq!(remapped.num_servers(), 6, "server ids are preserved");
        assert_eq!(remapped.total_values(), total);
        for p in map.placements().iter().filter(|p| p.server != server) {
            assert_eq!(
                remapped.placement_of(p.new_key),
                Some(p),
                "a survivor's slice moved"
            );
        }
        assert!(
            remapped
                .placements()
                .iter()
                .all(|p| !dead.contains(&p.server)),
            "a slice is placed on a dead server: {:?}",
            remapped.server_loads()
        );
        let survivors: Vec<usize> = (0..6)
            .filter(|m| !dead.contains(m))
            .map(|m| remapped.server_loads()[m as usize])
            .collect();
        let imbalance =
            *survivors.iter().max().unwrap() as f64 * survivors.len() as f64 / total as f64;
        // Measured: 1.044 after the first death, 1.040 after the second.
        assert!(
            imbalance < 1.1,
            "imbalance {imbalance} after losing {dead:?}"
        );
        map = remapped;
    }
}
