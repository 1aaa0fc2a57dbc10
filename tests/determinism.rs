//! Seed determinism: a fixed master seed must reproduce experiment output
//! bit-for-bit, run to run. Every random choice in a simulated experiment —
//! dataset synthesis, parameter init, batch sampling, compute jitter,
//! straggler draws — flows from `DriverConfig::seed` through
//! `fluentps_util::rng::StdRng`, so two runs of the same config are the
//! same experiment. The figure runners and the `repro` binary inherit the
//! same guarantee.

use fluentps::core::condition::SyncModel;
use fluentps::core::dpr::DprPolicy;
use fluentps::experiments::driver::{run, DriverConfig, EngineKind, ModelKind, RunResult};
use fluentps::experiments::figures::fig3;
use fluentps::ml::data::SyntheticSpec;

fn cfg(seed: u64) -> DriverConfig {
    DriverConfig {
        engine: EngineKind::FluentPs {
            model: SyncModel::Ssp { s: 2 },
            policy: DprPolicy::LazyExecution,
        },
        num_workers: 3,
        num_servers: 2,
        max_iters: 30,
        model: ModelKind::Softmax,
        dataset: Some(SyntheticSpec {
            dim: 12,
            classes: 3,
            n_train: 300,
            n_test: 60,
            margin: 2.5,
            modes: 1,
            label_noise: 0.05,
            seed,
        }),
        eval_every: 10,
        seed,
        ..DriverConfig::default()
    }
}

/// A bit-exact digest of everything observable in a run. Floats go through
/// `to_bits` so "close enough" can never pass; the parameter map is folded
/// in sorted-key order because `ParamMap` is a `HashMap`.
fn fingerprint(r: &RunResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "acc={:08x} total={:016x} compute={:016x} comm={:016x} dpr={:016x} maxcomm={:016x} barriers={}\n",
        r.final_accuracy.to_bits(),
        r.total_time.to_bits(),
        r.compute_time_mean.to_bits(),
        r.comm_time_mean.to_bits(),
        r.dprs_per_100.to_bits(),
        r.max_server_comm.to_bits(),
        r.barrier_count,
    ));
    out.push_str(&format!("stats={:?}\n", r.stats));
    for p in r.curve.points() {
        out.push_str(&format!(
            "point iter={} t={:016x} acc={:08x} loss={:08x}\n",
            p.iter,
            p.time.to_bits(),
            p.accuracy.to_bits(),
            p.loss.to_bits(),
        ));
    }
    if let Some(params) = &r.final_params {
        let mut keys: Vec<u64> = params.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            out.push_str(&format!("param {k}:"));
            for v in &params[&k] {
                out.push_str(&format!(" {:08x}", v.to_bits()));
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn same_seed_same_run_bit_for_bit() {
    let a = run(&cfg(1234));
    let b = run(&cfg(1234));
    assert!(!a.curve.points().is_empty(), "run produced no curve points");
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn different_seeds_are_different_experiments() {
    let a = run(&cfg(1));
    let b = run(&cfg(2));
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "changing the master seed left the run unchanged"
    );
}

#[test]
fn figure_driver_output_is_deterministic() {
    let render = || {
        fig3::run_figure()
            .iter()
            .map(|t| t.render())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = render();
    let second = render();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "figure tables changed between identical runs"
    );
}
