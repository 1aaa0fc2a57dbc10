//! End-to-end integration: training through the live threaded engine and
//! over real TCP sockets, spanning every crate in the workspace.

use std::collections::HashMap;

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::engine::{Cluster, EngineConfig};
use fluentps::core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps::ml::data::{synthetic, BatchSampler, SyntheticSpec};
use fluentps::ml::models::{Mlp, Model, SoftmaxRegression};
use fluentps::ml::optim::{Optimizer, Sgd};
use fluentps::ml::Deltas;

fn dataset(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        dim: 16,
        classes: 4,
        n_train: 1200,
        n_test: 300,
        margin: 3.0,
        modes: 1,
        label_noise: 0.0,
        seed,
    }
}

/// Train `ml_model` on `spec`'s data through the threaded in-process engine
/// (two servers) under `model`; return final test accuracy and the pulls the
/// servers deferred.
fn train_inproc_on(
    ml_model: &dyn Model,
    spec: SyntheticSpec,
    model: SyncModel,
    num_workers: u32,
    iters: u64,
) -> (f32, u64) {
    let (train, test) = synthetic(spec);
    let init = ml_model.init_params(41);
    let specs: Vec<ParamSpec> = ml_model
        .param_shapes()
        .iter()
        .map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        })
        .collect();
    let map = EpsSlicer { max_chunk: 64 }.slice(&specs, 2);
    let cfg = EngineConfig {
        num_workers,
        num_servers: 2,
        model,
        policy: DprPolicy::LazyExecution,
        seed: 41,
    };
    let (cluster, workers) = Cluster::launch(cfg, map, &init);
    let params: Vec<HashMap<u64, Vec<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut client| {
                let (train, init) = (&train, init.clone());
                scope.spawn(move || {
                    let n = client.worker_id();
                    let mut params = init;
                    let mut opt = Sgd::new(0.3, 0.9, 0.0);
                    let mut sampler =
                        BatchSampler::new(train.partition(n, num_workers), 16, 100 + n as u64);
                    for i in 0..iters {
                        let batch = train.batch(&sampler.next_indices());
                        let (_, grads) = ml_model.loss_and_grad(&params, &batch);
                        let deltas = opt.deltas(&params, &grads);
                        client.spush(i, &deltas).unwrap();
                        client.spull_wait(i, &mut params).unwrap();
                    }
                    params
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let dprs = cluster.shutdown().iter().map(|s| s.dprs).sum();
    (ml_model.accuracy(&params[0], &test), dprs)
}

/// Softmax regression on the default data: final test accuracy.
fn train_inproc(model: SyncModel, num_workers: u32, iters: u64) -> f32 {
    let spec = dataset(41);
    let ml_model = SoftmaxRegression {
        dim: spec.dim,
        classes: spec.classes,
    };
    train_inproc_on(&ml_model, spec, model, num_workers, iters).0
}

#[test]
fn bsp_engine_trains_to_high_accuracy() {
    let acc = train_inproc(SyncModel::Bsp, 3, 250);
    assert!(acc > 0.8, "BSP engine accuracy {acc}");
}

#[test]
fn ssp_engine_trains_to_high_accuracy() {
    let acc = train_inproc(SyncModel::Ssp { s: 2 }, 3, 250);
    assert!(acc > 0.8, "SSP engine accuracy {acc}");
}

#[test]
fn pssp_engine_trains_to_high_accuracy() {
    let acc = train_inproc(SyncModel::PsspConst { s: 2, c: 0.5 }, 3, 250);
    assert!(acc > 0.8, "PSSP engine accuracy {acc}");
}

#[test]
fn pssp_defers_no_more_pulls_than_bsp() {
    let spec = dataset(41);
    let ml_model = SoftmaxRegression {
        dim: spec.dim,
        classes: spec.classes,
    };
    let run = |model| train_inproc_on(&ml_model, spec, model, 4, 200);
    let (_, bsp_dprs) = run(SyncModel::Bsp);
    let (accuracy, pssp_dprs) = run(SyncModel::PsspConst { s: 2, c: 0.3 });
    assert!(accuracy > 0.78, "PSSP(2, 0.3) engine accuracy {accuracy}");
    assert!(
        pssp_dprs <= bsp_dprs,
        "PSSP deferred {pssp_dprs} pulls, BSP {bsp_dprs}"
    );
}

#[test]
fn mlp_trains_on_the_threaded_engine() {
    let spec = SyntheticSpec {
        n_train: 2500,
        n_test: 500,
        margin: 4.0,
        modes: 2,
        ..dataset(9)
    };
    let mlp = Mlp {
        dims: vec![spec.dim, 32, spec.classes],
    };
    let (accuracy, _) = train_inproc_on(&mlp, spec, SyncModel::Bsp, 4, 300);
    assert!(accuracy > 0.8, "MLP engine accuracy {accuracy}");
}

#[test]
fn bsp_final_parameters_identical_across_workers() {
    // Under BSP every worker ends with byte-identical parameters: the full
    // barrier makes the parallel execution equivalent to sequential SGD over
    // averaged gradients.
    let spec = dataset(43);
    let (train, _) = synthetic(spec);
    let ml_model = SoftmaxRegression {
        dim: spec.dim,
        classes: spec.classes,
    };
    let init = ml_model.init_params(43);
    let specs: Vec<ParamSpec> = ml_model
        .param_shapes()
        .iter()
        .map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        })
        .collect();
    let map = EpsSlicer { max_chunk: 32 }.slice(&specs, 3);
    let cfg = EngineConfig {
        num_workers: 4,
        num_servers: 3,
        model: SyncModel::Bsp,
        policy: DprPolicy::LazyExecution,
        seed: 43,
    };
    let (cluster, workers) = Cluster::launch(cfg, map, &init);
    let handles: Vec<_> = workers
        .into_iter()
        .map(|mut client| {
            let train = train.clone();
            let init = init.clone();
            std::thread::spawn(move || {
                let n = client.worker_id();
                let mut params = init;
                let mut opt = Sgd::new(0.2, 0.0, 0.0);
                let mut sampler = BatchSampler::new(train.partition(n, 4), 8, 7 + n as u64);
                for i in 0..40 {
                    let batch = train.batch(&sampler.next_indices());
                    let (_, grads) = ml_model.loss_and_grad(&params, &batch);
                    let deltas = opt.deltas(&params, &grads);
                    client.spush(i, &deltas).unwrap();
                    client.spull_wait(i, &mut params).unwrap();
                }
                params
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    cluster.shutdown();
    for w in 1..results.len() {
        for (key, vals) in &results[0] {
            assert_eq!(
                vals, &results[w][key],
                "worker {w} diverged at key {key} under BSP"
            );
        }
    }
}

#[test]
fn tcp_transport_carries_a_full_training_exchange() {
    use fluentps::core::server::{PullOutcome, ServerShard, ShardConfig};
    use fluentps::transport::tcp::{AddressBook, TcpNode};
    use fluentps::transport::{Mailbox, Message, NodeId, Postman};

    let loopback: std::net::SocketAddr = "127.0.0.1:0".parse().unwrap();
    let book = AddressBook::new();
    let server_rx = TcpNode::bind(NodeId::Server(0), loopback, book.clone()).unwrap();
    book.insert(NodeId::Server(0), server_rx.local_addr());
    let worker = TcpNode::bind(NodeId::Worker(0), loopback, book.clone()).unwrap();
    book.insert(NodeId::Worker(0), worker.local_addr());
    let server_tx = TcpNode::bind(NodeId::Server(1), loopback, book).unwrap();

    let server = std::thread::spawn(move || {
        let mut shard = ServerShard::new(ShardConfig {
            num_workers: 1,
            model: SyncModel::Bsp,
            ..ShardConfig::default()
        });
        shard.init_param(0, vec![0.0; 4]);
        let postman = server_tx.postman();
        for _ in 0..6 {
            // 3 iterations × (push + pull)
            let (_, msg) = server_rx.recv().unwrap();
            match msg {
                Message::SPush {
                    worker,
                    progress,
                    kv,
                } => {
                    for r in shard.on_push(worker, progress, &kv) {
                        postman
                            .send(
                                NodeId::Worker(r.worker),
                                Message::PullResponse {
                                    server: 0,
                                    progress: r.progress,
                                    kv: r.kv,
                                    version: r.version,
                                },
                            )
                            .unwrap();
                    }
                }
                Message::SPull {
                    worker,
                    progress,
                    keys,
                } => {
                    if let PullOutcome::Respond { kv, version } =
                        shard.on_pull(worker, progress, &keys, 0.0, None)
                    {
                        postman
                            .send(
                                NodeId::Worker(worker),
                                Message::PullResponse {
                                    server: 0,
                                    progress,
                                    kv,
                                    version,
                                },
                            )
                            .unwrap();
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        shard.read_param(0).unwrap().to_vec()
    });

    let postman = worker.postman();
    for i in 0..3u64 {
        postman
            .send(
                NodeId::Server(0),
                Message::SPush {
                    worker: 0,
                    progress: i,
                    kv: fluentps::transport::KvPairs::single(0, vec![1.0; 4]),
                },
            )
            .unwrap();
        postman
            .send(
                NodeId::Server(0),
                Message::SPull {
                    worker: 0,
                    progress: i,
                    keys: vec![0],
                },
            )
            .unwrap();
        let (_, msg) = worker.recv().unwrap();
        match msg {
            Message::PullResponse { kv, .. } => {
                assert_eq!(kv.vals, vec![(i + 1) as f32; 4]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(server.join().unwrap(), vec![3.0; 4]);
}

#[test]
fn partial_pulls_fetch_only_requested_keys() {
    let lens = [64, 64, 8];
    let specs: Vec<ParamSpec> = (0u64..)
        .zip(lens)
        .map(|(key, len)| ParamSpec { key, len })
        .collect();
    let init: HashMap<u64, Vec<f32>> = specs.iter().map(|s| (s.key, vec![0.0; s.len])).collect();
    let cfg = EngineConfig {
        num_servers: 2,
        model: SyncModel::Asp,
        ..EngineConfig::default()
    };
    let map = EpsSlicer { max_chunk: 16 }.slice(&specs, 2);
    let (cluster, mut workers) = Cluster::launch(cfg, map, &init);
    let mut w = workers.pop().unwrap();

    let grads: HashMap<u64, Vec<f32>> = [
        (0u64, vec![1.0f32; 64]),
        (1u64, vec![2.0f32; 64]),
        (2u64, vec![3.0f32; 8]),
    ]
    .into();
    w.spush(0, &Deltas::from_params(&grads)).unwrap();

    // Pull only key 1: key 0 and key 2 must stay untouched locally.
    let mut params: HashMap<u64, Vec<f32>> = HashMap::new();
    let report = w.spull_keys_wait(0, &[1], &mut params).unwrap();
    assert!(report.responses >= 1);
    assert_eq!(params[&1], vec![2.0; 64]);
    assert!(!params.contains_key(&0));
    assert!(!params.contains_key(&2));

    // A later full pull completes the picture.
    w.spull_wait(0, &mut params).unwrap();
    assert_eq!(params[&0], vec![1.0; 64]);
    assert_eq!(params[&2], vec![3.0; 8]);
    cluster.shutdown();
}

#[test]
fn checkpoint_restore_preserves_training_through_server_replacement() {
    use fluentps::core::checkpoint::ShardCheckpoint;
    use fluentps::core::server::{PullOutcome, ServerShard, ShardConfig};
    use fluentps::transport::KvPairs;

    // Train a shard, checkpoint it, "replace" the server, keep training;
    // the final parameters must equal an uninterrupted run.
    let mk = || {
        ServerShard::new(ShardConfig {
            num_workers: 2,
            model: SyncModel::Bsp,
            ..ShardConfig::default()
        })
    };
    let push = |shard: &mut ServerShard, i: u64| {
        for w in 0..2 {
            shard.on_push(w, i, &KvPairs::single(0, vec![1.0; 4]));
        }
    };

    // Uninterrupted reference run: 6 iterations.
    let mut reference = mk();
    reference.init_param(0, vec![0.0; 4]);
    for i in 0..6 {
        push(&mut reference, i);
    }

    // Interrupted run: 3 iterations, checkpoint, restore into a new shard,
    // 3 more iterations.
    let mut first = mk();
    first.init_param(0, vec![0.0; 4]);
    for i in 0..3 {
        push(&mut first, i);
    }
    let cp = ShardCheckpoint::capture(&first, &[0]);
    let restored_bytes = cp.to_bytes();
    let cp = ShardCheckpoint::from_bytes(restored_bytes).unwrap();
    let mut second = mk();
    cp.restore_into(&mut second);
    for i in 3..6 {
        push(&mut second, i);
    }

    assert_eq!(second.v_train(), reference.v_train());
    assert_eq!(second.read_param(0), reference.read_param(0));
    // And it still answers pulls correctly.
    assert!(matches!(
        second.on_pull(0, 5, &[0], 0.5, None),
        PullOutcome::Respond { .. }
    ));
}
