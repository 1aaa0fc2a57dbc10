//! The frozen workload table and the seeded task every workload trains.

use std::time::Duration;

use fluentps_core::condition::SyncModel;
use fluentps_core::eps::{EpsSlicer, ParamSpec, SliceMap, Slicer};
use fluentps_ml::data::{synthetic, Dataset, SyntheticSpec};
use fluentps_ml::models::{Mlp, Model};
use fluentps_ml::ParamMap;
use fluentps_util::rng::StdRng;

/// Which of the three server loops a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `engine::Cluster` over the in-process fabric.
    Inproc,
    /// `tcp_engine::TcpCluster` over loopback sockets.
    Tcp,
    /// `recovery::ResilientTcpCluster`, fault-free.
    Resilient,
}

/// One workload. Every field is frozen: changing one is a change to the
/// benchmark, and the baseline has to be measured again after it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub why: &'static str,
    pub engine: Engine,
    pub sync: SyncModel,
    pub workers: u32,
    pub servers: u32,
    /// Hidden layer widths of the MLP (input 64, output 10).
    pub hidden: &'static [usize],
    pub batch: usize,
    /// Iterations per worker in one fresh-cluster repeat.
    pub iters: u64,
    /// Transient straggler: after computing its gradients a
    /// worker-iteration sleeps for the duration with the probability.
    pub delay: Option<(f64, Duration)>,
}

/// Learning rate of `Sgd(momentum 0.9)` on every workload.
pub const LEARNING_RATE: f32 = 0.02;

/// Lowest test accuracy a correct run can end with (the task plateaus near
/// 0.94; a run that has not learned sits at 0.1).
pub const ACCURACY_FLOOR: f64 = 0.7;

/// Iterations of the plain one-worker, one-server baseline run.
pub const SOLO_ITERS: u64 = 200;

/// Share of each repeat's iterations treated as warm-up: connections are
/// dialled and buffers grow to size there, so they are kept out of the
/// percentiles and the rate.
pub const WARMUP_FRAC: f64 = 0.05;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc_bsp_compute",
        why: "compute-bound: gemm and optimizer are ~80% of an iteration and codec, frame and TCP are bypassed, so a wire or TCP change must not move it",
        engine: Engine::Inproc,
        sync: SyncModel::Bsp,
        workers: 2,
        servers: 2,
        hidden: &[256, 128],
        batch: 128,
        iters: 300,
        delay: None,
    },
    Workload {
        name: "tcp_bsp_wire",
        why: "comm-bound (paper Fig. 6): 2.6 MB per worker-iteration through codec, frame, loopback TCP and one shared server, so wire and server hot-path work shows here",
        engine: Engine::Tcp,
        sync: SyncModel::Bsp,
        workers: 2,
        servers: 1,
        hidden: &[1024, 256],
        batch: 8,
        iters: 120,
        delay: None,
    },
    Workload {
        name: "tcp_ssp_jitter",
        why: "transient stragglers under SSP s=3: pull condition, DPR buffer and lazy release set the rate; injected delay plus one pull RTT hide codec and apply costs",
        engine: Engine::Tcp,
        sync: SyncModel::Ssp { s: 3 },
        workers: 2,
        servers: 2,
        hidden: &[128, 64],
        batch: 32,
        iters: 1500,
        delay: Some((0.1, Duration::from_millis(4))),
    },
    Workload {
        name: "resilient_ssp_steady",
        why: "fault-free resilient loop: dedup windows, reply cache, unbatched sends, heartbeats and a checkpoint per V_train advance; gates the steady-state tax of fault tolerance",
        engine: Engine::Resilient,
        sync: SyncModel::Ssp { s: 3 },
        workers: 2,
        servers: 2,
        hidden: &[128, 64],
        batch: 32,
        iters: 1500,
        delay: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The plain single-worker baseline of the same task: one worker, one
    /// server, in-process, BSP, no injected delay.
    pub fn solo(&self) -> Workload {
        Workload {
            engine: Engine::Inproc,
            sync: SyncModel::Bsp,
            workers: 1,
            servers: 1,
            iters: SOLO_ITERS.min(self.iters),
            delay: None,
            ..*self
        }
    }

    /// The same workload cut down to `iters` iterations (smoke runs).
    pub fn with_iters(&self, iters: u64) -> Workload {
        Workload { iters, ..*self }
    }

    /// `s` of the strict pull predicate `progress < min_version + s` checked
    /// on every `PullReport` (0 for BSP).
    pub fn staleness(&self) -> u64 {
        self.sync.nominal_s()
    }

    /// Iterations at the start of a repeat that count as warm-up.
    pub fn warmup_iters(&self) -> usize {
        ((self.iters as f64 * WARMUP_FRAC).ceil() as usize).clamp(1, self.iters as usize - 1)
    }
}

/// Derive an independent seed for one purpose from the run's seed
/// (splitmix64 finalizer), so repeats, workers and the delay schedule do
/// not share streams.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a repeat trains on, generated from the seed alone.
pub struct Task {
    pub train: Dataset,
    pub test: Dataset,
    pub model: Mlp,
    pub init: ParamMap,
    pub specs: Vec<ParamSpec>,
    pub map: SliceMap,
}

/// Dataset, model, initial parameters and EPS placement for `w`.
pub fn build_task(w: &Workload, seed: u64) -> Task {
    let (train, test) = synthetic(SyntheticSpec {
        dim: 64,
        classes: 10,
        n_train: 4000,
        n_test: 1000,
        margin: 5.0,
        modes: 1,
        label_noise: 0.02,
        seed: derive_seed(seed, 1),
    });
    let mut dims = vec![train.dim];
    dims.extend_from_slice(w.hidden);
    dims.push(train.classes);
    let model = Mlp { dims };
    let init = model.init_params(derive_seed(seed, 2));
    let specs: Vec<ParamSpec> = model
        .param_shapes()
        .iter()
        .map(|s| ParamSpec {
            key: s.key,
            len: s.len,
        })
        .collect();
    let map = EpsSlicer { max_chunk: 4096 }.slice(&specs, w.servers);
    Task {
        train,
        test,
        model,
        init,
        specs,
        map,
    }
}

/// Which of worker `worker`'s iterations sleep (all `false` without an
/// injected delay).
pub fn delay_schedule(w: &Workload, seed: u64, worker: u32) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 100 + worker as u64));
    let p = w.delay.map_or(0.0, |(p, _)| p);
    (0..w.iters).map(|_| p > 0.0 && rng.gen_bool(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = &WORKLOADS[2];
        let (a, b, c) = (build_task(w, 9), build_task(w, 9), build_task(w, 10));
        assert_eq!(a.train.x, b.train.x);
        assert_eq!(a.init, b.init);
        assert_ne!(a.train.x, c.train.x);
        assert_eq!(delay_schedule(w, 9, 1), delay_schedule(w, 9, 1));
        assert_ne!(delay_schedule(w, 9, 0), delay_schedule(w, 9, 1));
        assert!(delay_schedule(&WORKLOADS[0], 9, 0).iter().all(|d| !d));
    }

    #[test]
    fn names_are_unique_and_fit_the_manifest_limits() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.workers as usize <= 2,
                "never more workers than the reference box has cores"
            );
        }
    }
}
