//! Ergonomic builder for standing up a FluentPS deployment.
//!
//! The low-level pieces ([`crate::engine::Cluster`], [`crate::eps`],
//! [`crate::worker::Router`]) compose manually; [`FluentPs`] wraps the
//! common path — pick a model, a policy and a slicer, hand over the initial
//! parameters, get a running in-process cluster plus one client per worker.

use std::collections::HashMap;

use crate::condition::SyncModel;
use crate::dpr::DprPolicy;
use crate::engine::{Cluster, EngineConfig, InprocWorker};
use crate::eps::{DefaultSlicer, EpsSlicer, ParamSpec, SliceMap, Slicer};
use crate::launch::Observability;
use crate::server::GradScale;

/// Which placement strategy the builder uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicerChoice {
    /// PS-Lite-style contiguous ranges (kept for comparisons).
    Default,
    /// Elastic Parameter Slicing with a chunk bound.
    Eps {
        /// Maximum values per chunk.
        max_chunk: usize,
    },
}

/// Builder for an in-process FluentPS cluster.
///
/// ```
/// use std::collections::HashMap;
/// use fluentps_core::api::FluentPs;
/// use fluentps_core::condition::SyncModel;
///
/// let mut init = HashMap::new();
/// init.insert(0u64, vec![0.0f32; 16]);
/// let (cluster, mut workers) = FluentPs::builder()
///     .workers(1)
///     .servers(1)
///     .model(SyncModel::Asp)
///     .launch(&init);
/// let mut w = workers.pop().unwrap();
/// let grads: HashMap<u64, Vec<f32>> = [(0u64, vec![1.0f32; 16])].into();
/// w.spush(0, &grads).unwrap();
/// let mut params = HashMap::new();
/// w.spull_wait(0, &mut params).unwrap();
/// assert_eq!(params[&0], vec![1.0; 16]);
/// cluster.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct FluentPs {
    num_workers: u32,
    num_servers: u32,
    model: SyncModel,
    per_server_models: Option<Vec<SyncModel>>,
    policy: DprPolicy,
    grad_scale: GradScale,
    slicer: SlicerChoice,
    seed: u64,
    obs: Observability,
}

impl Default for FluentPs {
    fn default() -> Self {
        FluentPs {
            num_workers: 1,
            num_servers: 1,
            model: SyncModel::Bsp,
            per_server_models: None,
            policy: DprPolicy::LazyExecution,
            grad_scale: GradScale::DivideByN,
            slicer: SlicerChoice::Eps { max_chunk: 4096 },
            seed: 0,
            obs: Observability::default(),
        }
    }
}

impl FluentPs {
    /// Start building a deployment.
    pub fn builder() -> Self {
        Self::default()
    }

    /// Number of workers (`N`).
    pub fn workers(mut self, n: u32) -> Self {
        self.num_workers = n;
        self
    }

    /// Number of servers (`M`).
    pub fn servers(mut self, m: u32) -> Self {
        self.num_servers = m;
        self
    }

    /// Synchronization model on every shard.
    pub fn model(mut self, model: SyncModel) -> Self {
        self.model = model;
        self
    }

    /// A different model per server — the paper's per-shard flexibility
    /// (Figure 2 runs SSP, PSSP and drop-stragglers side by side).
    pub fn per_server_models(mut self, models: Vec<SyncModel>) -> Self {
        self.per_server_models = Some(models);
        self
    }

    /// DPR execution policy (default: lazy execution).
    pub fn policy(mut self, policy: DprPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Gradient aggregation rule (default: `w += g/N`).
    pub fn grad_scale(mut self, scale: GradScale) -> Self {
        self.grad_scale = scale;
        self
    }

    /// Placement strategy (default: EPS).
    pub fn slicer(mut self, slicer: SlicerChoice) -> Self {
        self.slicer = slicer;
        self
    }

    /// Seed for PSSP probability draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// What the cluster reports, and where (default: nothing).
    pub fn observe(mut self, obs: Observability) -> Self {
        self.obs = obs;
        self
    }

    /// Compute the placement this builder would use for `init`.
    pub fn plan(&self, init: &HashMap<u64, Vec<f32>>) -> SliceMap {
        let mut specs: Vec<ParamSpec> = init
            .iter()
            .map(|(&key, vals)| ParamSpec {
                key,
                len: vals.len(),
            })
            .collect();
        specs.sort_by_key(|s| s.key);
        match self.slicer {
            SlicerChoice::Default => DefaultSlicer.slice(&specs, self.num_servers),
            SlicerChoice::Eps { max_chunk } => {
                EpsSlicer { max_chunk }.slice(&specs, self.num_servers)
            }
        }
    }

    /// Launch the in-process cluster; returns the cluster handle (shutdown,
    /// statistics) and one client per worker. Panics when the
    /// [`Observability::http`] address set through [`FluentPs::observe`]
    /// cannot be bound.
    pub fn launch(self, init: &HashMap<u64, Vec<f32>>) -> (Cluster, Vec<InprocWorker>) {
        let map = self.plan(init);
        let cfg = EngineConfig {
            num_workers: self.num_workers,
            num_servers: self.num_servers,
            model: self.model,
            policy: self.policy,
            grad_scale: self.grad_scale,
            seed: self.seed,
        };
        let models = self
            .per_server_models
            .unwrap_or_else(|| vec![cfg.model; cfg.num_servers as usize]);
        Cluster::launch_models(cfg, &models, map, init, self.obs)
            .expect("bind introspection endpoint")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() -> HashMap<u64, Vec<f32>> {
        let mut m = HashMap::new();
        m.insert(0, vec![0.0; 100]);
        m.insert(1, vec![0.0; 10]);
        m
    }

    #[test]
    fn builder_plans_balanced_placement() {
        let b = FluentPs::builder()
            .workers(2)
            .servers(2)
            .slicer(SlicerChoice::Eps { max_chunk: 32 });
        let map = b.plan(&init());
        assert_eq!(map.num_servers(), 2);
        assert_eq!(map.total_values(), 110);
        assert!(map.imbalance() < 1.3);
    }

    #[test]
    fn builder_launches_and_round_trips() {
        let (cluster, mut workers) = FluentPs::builder()
            .workers(1)
            .servers(2)
            .model(SyncModel::Asp)
            .launch(&init());
        let mut w = workers.pop().unwrap();
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![1.0f32; 100]), (1u64, vec![2.0f32; 10])].into();
        w.spush(0, &grads).unwrap();
        let mut params = HashMap::new();
        w.spull_wait(0, &mut params).unwrap();
        assert_eq!(params[&0], vec![1.0; 100]);
        assert_eq!(params[&1], vec![2.0; 10]);
        let stats = cluster.shutdown();
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn heterogeneous_models_flow_through() {
        let (cluster, mut workers) = FluentPs::builder()
            .workers(1)
            .servers(2)
            .per_server_models(vec![SyncModel::Asp, SyncModel::Ssp { s: 9 }])
            .launch(&init());
        let mut w = workers.pop().unwrap();
        let grads: HashMap<u64, Vec<f32>> =
            [(0u64, vec![0.0f32; 100]), (1u64, vec![0.0f32; 10])].into();
        for i in 0..3 {
            w.spush(i, &grads).unwrap();
            let mut params = HashMap::new();
            w.spull_wait(i, &mut params).unwrap();
        }
        cluster.shutdown();
    }
}
