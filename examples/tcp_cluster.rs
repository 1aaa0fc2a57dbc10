//! A FluentPS cluster over real TCP sockets on localhost.
//!
//! Demonstrates that the server step is transport-agnostic: the same
//! `ShardServer` loop the in-process engine runs, here over `std::net`
//! sockets with length-prefixed frames. One server, three workers, BSP.
//!
//! Run with: `cargo run --release --example tcp_cluster`

use std::collections::HashMap;

use fluentps::core::condition::SyncModel;
use fluentps::core::engine::EngineConfig;
use fluentps::core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps::core::tcp_engine::TcpCluster;
use fluentps::ml::Deltas;
use fluentps::transport::NodeId;

const NUM_WORKERS: u32 = 3;
const ITERATIONS: u64 = 20;
const KEY: u64 = 0;

fn main() {
    let map = EpsSlicer { max_chunk: 8 }.slice(&[ParamSpec { key: KEY, len: 8 }], 1);
    let init: HashMap<u64, Vec<f32>> = [(KEY, vec![0.0; 8])].into();
    let cfg = EngineConfig {
        num_workers: NUM_WORKERS,
        num_servers: 1,
        model: SyncModel::Bsp,
        ..EngineConfig::default()
    };
    // Everyone binds an OS-chosen port; the cluster's address book is what
    // a worker in another process would need.
    let (cluster, workers) = TcpCluster::launch(cfg, map, &init).expect("launch");
    let server_addr = cluster.fabric().get(NodeId::Server(0)).expect("bound");
    println!("server listening on {server_addr}");

    // Worker threads: push a constant "gradient", pull, repeat.
    let worker_threads: Vec<_> = workers
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                let me = client.worker_id();
                let grads: HashMap<u64, Vec<f32>> = [(KEY, vec![(me + 1) as f32; 8])].into();
                let mut params: HashMap<u64, Vec<f32>> = HashMap::new();
                for i in 0..ITERATIONS {
                    client.spush(i, &Deltas::from_params(&grads)).expect("push");
                    // Wait for the (possibly lazily executed) response.
                    let report = client.spull_wait(i, &mut params).expect("pull");
                    assert!(report.min_version > i, "BSP responses carry fresh params");
                }
                params
            })
        })
        .collect();

    let final_params = worker_threads
        .into_iter()
        .map(|t| t.join().expect("worker"))
        .next_back()
        .expect("at least one worker");
    let stats = cluster.shutdown();
    println!(
        "server done: v_train={} pushes={} dprs={}",
        stats[0].v_train_advances, stats[0].pushes, stats[0].dprs
    );

    // Expected value: 20 iterations of mean(1, 2, 3) = 2 per element.
    let expected = ITERATIONS as f32 * (1.0 + 2.0 + 3.0) / NUM_WORKERS as f32;
    println!(
        "final parameter value: {:?} (expected {expected})",
        &final_params[&KEY][..2]
    );
    assert!((final_params[&KEY][0] - expected).abs() < 1e-3);
    println!("tcp_cluster: OK");
}
