//! Threaded in-process runtime: [`launch::Cluster`] over the in-process
//! [`Fabric`] — worker clients on the caller's threads, one served
//! `Endpoint` per server shard. A shard's step runs on the thread
//! that sends to it (`inproc`, DESIGN.md §18): a worker's pushes and pulls
//! are handled inside its own `spull_wait`, and the pulls they release are
//! queued straight into the workers' inboxes. Each shard keeps a thread of
//! its own that only waits in `serve`, and handles what reached the shard
//! before that call began.
//!
//! Overlap synchronization (Section III-D) is not a special code path — it
//! *falls out* of this architecture: every server answers pulls for its own
//! shard the moment its own push condition fires, so the push of one shard
//! overlaps the pulls of another. The non-overlap behaviour of PS-Lite (a
//! scheduler-level global barrier across all shards) is implemented in
//! `fluentps-baseline` for comparison.

use std::collections::HashMap;

use fluentps_transport::inproc::{Endpoint, Fabric, InprocPostman};

use crate::dpr::DprPolicy;
use crate::eps::SliceMap;
use crate::launch::{self, Observability};
use crate::worker::WorkerClient;
use crate::SyncModel;

/// Configuration of a cluster, on every engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of workers (`N`).
    pub num_workers: u32,
    /// Number of servers (`M`).
    pub num_servers: u32,
    /// Synchronization model applied on every shard by `launch`.
    /// ([`launch::Cluster::launch_observed`] takes a model per server.)
    pub model: SyncModel,
    /// DPR execution policy.
    pub policy: DprPolicy,
    /// Seed for the servers' probability draws (PSSP); each server derives
    /// its own stream.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: 1,
            num_servers: 1,
            model: SyncModel::Bsp,
            policy: DprPolicy::LazyExecution,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// [`EngineConfig::model`] on every server: the model list of a launch
    /// that runs one model everywhere.
    pub fn models(&self) -> Vec<SyncModel> {
        vec![self.model; self.num_servers as usize]
    }
}

/// Handle to a running in-process cluster.
pub type Cluster = launch::Cluster<Fabric>;

/// The worker client type served by the in-process engine.
pub type InprocWorker = WorkerClient<InprocPostman, Endpoint>;

impl Cluster {
    /// Launch servers and build one [`WorkerClient`] per worker, every
    /// server running `cfg.model`. `init` maps original parameter keys to
    /// initial values (`w_0`); `map` decides the placement.
    pub fn launch(
        cfg: EngineConfig,
        map: SliceMap,
        init: &HashMap<u64, Vec<f32>>,
    ) -> (Cluster, Vec<InprocWorker>) {
        Self::launch_observed(cfg, &cfg.models(), map, init, Observability::default())
            .expect("the fabric binds no socket, and a default observability none either")
    }
}
