//! Quickstart: a live FluentPS cluster in one process.
//!
//! Launches 2 parameter-server threads and 4 worker threads, trains a
//! softmax-regression model on a synthetic 10-class dataset under SSP with
//! lazy pull execution, and prints the test accuracy.
//!
//! Run with: `cargo run --release --example quickstart`

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::core::engine::{Cluster, EngineConfig};
use fluentps::core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps::ml::data::{synthetic, BatchSampler, SyntheticSpec};
use fluentps::ml::models::{Model, SoftmaxRegression};
use fluentps::ml::optim::{Optimizer, Sgd};

fn main() {
    const NUM_WORKERS: u32 = 4;
    const NUM_SERVERS: u32 = 2;
    const ITERATIONS: u64 = 400;

    // Dataset + model.
    let spec = SyntheticSpec {
        dim: 32,
        classes: 10,
        n_train: 4000,
        n_test: 1000,
        margin: 3.0,
        modes: 1,
        label_noise: 0.0,
        seed: 7,
    };
    let (train, test) = synthetic(spec);
    let model = SoftmaxRegression {
        dim: spec.dim,
        classes: spec.classes,
    };
    let init = model.init_params(7);

    // Place the parameters on the servers with Elastic Parameter Slicing.
    let param_specs: Vec<ParamSpec> = model
        .param_shapes()
        .iter()
        .map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        })
        .collect();
    let map = EpsSlicer { max_chunk: 128 }.slice(&param_specs, NUM_SERVERS);
    println!(
        "placed {} values on {} servers (imbalance {:.3})",
        map.total_values(),
        NUM_SERVERS,
        map.imbalance()
    );

    // Launch the cluster: SSP with staleness 2, lazy pull execution.
    let cfg = EngineConfig {
        num_workers: NUM_WORKERS,
        num_servers: NUM_SERVERS,
        model: SyncModel::Ssp { s: 2 },
        policy: DprPolicy::LazyExecution,
        seed: 7,
    };
    let (cluster, workers) = Cluster::launch(cfg, map, &init);

    // Each worker trains on its own partition (Algorithm 1, worker side).
    let handles: Vec<_> = workers
        .into_iter()
        .map(|mut client| {
            let train = train.clone();
            let init = init.clone();
            std::thread::spawn(move || {
                let n = client.worker_id();
                let mut params = init;
                let mut opt = Sgd::new(0.3, 0.9, 0.0);
                let mut sampler =
                    BatchSampler::new(train.partition(n, NUM_WORKERS), 32, 1000 + n as u64);
                for i in 0..ITERATIONS {
                    let batch = train.batch(&sampler.next_indices());
                    let (_, grads) = model.loss_and_grad(&params, &batch);
                    let deltas = opt.deltas(&params, &grads);
                    client.spush(i, &deltas).expect("push");
                    client.spull_wait(i, &mut params).expect("pull");
                }
                params
            })
        })
        .collect();

    let final_params = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .next_back()
        .expect("at least one worker");

    let stats = cluster.shutdown();
    let accuracy = model.accuracy(&final_params, &test);
    println!(
        "test accuracy after {ITERATIONS} iterations x {NUM_WORKERS} workers: {:.1}%",
        accuracy * 100.0
    );
    for (m, s) in stats.iter().enumerate() {
        println!(
            "server {m}: {} pushes, {} pulls ({} deferred, {} released lazily)",
            s.pushes, s.pulls_total, s.dprs, s.dprs_released
        );
    }
    assert!(accuracy > 0.8, "quickstart should learn");
}
