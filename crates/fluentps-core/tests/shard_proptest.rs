//! Property tests for the server-shard state machine and EPS.
//!
//! These drive the shard with *arbitrary* interleavings — including ones a
//! real worker could never produce (racing ahead without waiting for pulls)
//! — and check that the server still enforces its invariants. The server is
//! the only line of defence in FluentPS: there is no client-side staleness
//! check like SSPtable's.

use std::collections::HashMap;

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps_core::server::{PullOutcome, ServerShard, ShardConfig};
use fluentps_transport::KvPairs;
use fluentps_util::proptest::prelude::*;

/// One step of a schedule: worker `w` either pushes iteration `i` or pulls
/// with progress `i`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u32, u64),
    Pull(u32, u64),
}

/// Arbitrary interleaving: each worker contributes pushes 0..its horizon in
/// order (a worker cannot push iteration 3 before 2 in any real execution),
/// with pulls sprinkled at its current progress, and the streams of distinct
/// workers shuffled together arbitrarily.
fn arb_schedule(num_workers: u32, max_iters: u64) -> impl Strategy<Value = Vec<Op>> {
    let per_worker =
        prop::collection::vec((0..num_workers, 1..=max_iters, any::<bool>()), 1..200usize);
    per_worker.prop_map(move |seeds| {
        let mut next_iter = vec![0u64; num_workers as usize];
        let mut ops = Vec::new();
        for (w, _, is_pull) in seeds {
            let i = next_iter[w as usize];
            if is_pull {
                ops.push(Op::Pull(w, i.saturating_sub(1)));
            } else {
                ops.push(Op::Push(w, i));
                next_iter[w as usize] += 1;
            }
        }
        ops
    })
}

fn run_schedule(
    model: SyncModel,
    policy: DprPolicy,
    num_workers: u32,
    ops: &[Op],
) -> (ServerShard, Vec<(u64, f32)>) {
    let mut shard = ServerShard::new(ShardConfig {
        server_id: 0,
        num_workers,
        model,
        policy,
    });
    shard.init_param(0, vec![0.0]);
    // Every response we ever see: (version, value-at-response).
    let mut responses = Vec::new();
    for &op in ops {
        match op {
            Op::Push(w, i) => {
                for r in shard.on_push(w, i, &KvPairs::single(0, vec![1.0])) {
                    responses.push((r.version, r.kv.vals.at(0)));
                }
            }
            Op::Pull(w, i) => {
                if let PullOutcome::Respond { kv, version } = shard.on_pull(w, i, &[0], 0.5, None) {
                    responses.push((version, kv.vals.at(0)));
                }
            }
        }
    }
    (shard, responses)
}

proptest! {
    /// With `w += g/N` and unit gradients, the parameter value equals
    /// (pushes applied)/N. A response at version `v` must therefore carry a
    /// value ≥ v: all N workers' gradients for iterations < v are folded in.
    /// This is the *content-level* meaning of `V_train` — not just a counter.
    #[test]
    fn responses_contain_all_gradients_up_to_their_version(
        ops in arb_schedule(3, 8),
        lazy in any::<bool>(),
    ) {
        let policy = if lazy { DprPolicy::LazyExecution } else { DprPolicy::SoftBarrier };
        let (_, responses) = run_schedule(SyncModel::Ssp { s: 2 }, policy, 3, &ops);
        for (version, value) in responses {
            // value = applied/N with N=3; tolerate f32 rounding.
            prop_assert!(
                value + 1e-4 >= version as f32,
                "version {version} but value {value}"
            );
        }
    }

    /// V_train never exceeds the shortest prefix of completed iterations
    /// across workers (for Count == N models).
    #[test]
    fn v_train_bounded_by_slowest_complete_prefix(ops in arb_schedule(3, 8)) {
        let (shard, _) = run_schedule(
            SyncModel::Ssp { s: 3 },
            DprPolicy::LazyExecution,
            3,
            &ops,
        );
        let mut prefix = [0u64; 3];
        let mut pushed: Vec<HashMap<u64, bool>> = vec![HashMap::new(); 3];
        for &op in &ops {
            if let Op::Push(w, i) = op {
                pushed[w as usize].insert(i, true);
                while pushed[w as usize].contains_key(&prefix[w as usize]) {
                    prefix[w as usize] += 1;
                }
            }
        }
        let slowest = *prefix.iter().min().unwrap();
        prop_assert!(
            shard.v_train() <= slowest,
            "v_train {} > slowest complete prefix {slowest}",
            shard.v_train()
        );
    }

    /// Bookkeeping conservation: every pull is either answered immediately
    /// or deferred; every deferral is eventually released or still pending.
    #[test]
    fn pull_accounting_conserves(ops in arb_schedule(4, 6), lazy in any::<bool>()) {
        let policy = if lazy { DprPolicy::LazyExecution } else { DprPolicy::SoftBarrier };
        let (shard, _) = run_schedule(SyncModel::Ssp { s: 1 }, policy, 4, &ops);
        let st = shard.stats();
        prop_assert_eq!(st.pulls_total, st.pulls_immediate + st.dprs);
        prop_assert_eq!(st.dprs, st.dprs_released + shard.pending_dprs() as u64);
    }

    /// When every worker completes the same horizon, no lazy DPR can be left
    /// behind: all deferred pulls with progress < horizon get released as
    /// V_train reaches the horizon.
    #[test]
    fn complete_run_leaves_no_pending_lazy_dprs(
        horizon in 1u64..6,
        pulls_per_iter in 1usize..3,
    ) {
        let num_workers = 3u32;
        let mut shard = ServerShard::new(ShardConfig {
            server_id: 0,
            num_workers,
            model: SyncModel::Ssp { s: 2 },
            policy: DprPolicy::LazyExecution,
        });
        shard.init_param(0, vec![0.0]);
        // Workers complete iterations in a skewed order: worker 0 finishes
        // everything first, then worker 1, then worker 2.
        for w in 0..num_workers {
            for i in 0..horizon {
                shard.on_push(w, i, &KvPairs::single(0, vec![1.0]));
                if i + 1 < horizon {
                    for _ in 0..pulls_per_iter {
                        let _ = shard.on_pull(w, i, &[0], 0.5, None);
                    }
                }
            }
        }
        prop_assert_eq!(shard.v_train(), horizon);
        prop_assert_eq!(shard.pending_dprs(), 0, "stats: {:?}", shard.stats());
    }

    /// Determinism: replaying the same schedule yields identical stats and
    /// parameters (the shard has no hidden nondeterminism).
    #[test]
    fn replay_is_deterministic(ops in arb_schedule(3, 6)) {
        let (a, ra) = run_schedule(SyncModel::PsspConst { s: 2, c: 0.5 },
                                   DprPolicy::LazyExecution, 3, &ops);
        let (b, rb) = run_schedule(SyncModel::PsspConst { s: 2, c: 0.5 },
                                   DprPolicy::LazyExecution, 3, &ops);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.v_train(), b.v_train());
        prop_assert_eq!(ra, rb);
    }

    /// EPS balance bound: imbalance ≤ 1 + (max_chunk · M) / total values
    /// (LPT with bounded item size), and every value is placed exactly once.
    #[test]
    fn eps_balances_arbitrary_models(
        lens in prop::collection::vec(1usize..20_000, 1..40),
        servers in 1u32..12,
        max_chunk in 256usize..4096,
    ) {
        let params: Vec<ParamSpec> = lens
            .iter()
            .enumerate()
            .map(|(k, &len)| ParamSpec { key: k as u64, len })
            .collect();
        let map = EpsSlicer { max_chunk }.slice(&params, servers);
        let total: usize = lens.iter().sum();
        prop_assert_eq!(map.total_values(), total);
        let bound = 1.0 + (max_chunk as f64 * servers as f64) / total as f64;
        prop_assert!(
            map.imbalance() <= bound + 1e-9,
            "imbalance {} > bound {bound}",
            map.imbalance()
        );
        // Coverage: each parameter fully reassembles.
        for p in &params {
            let covered: usize = map.slices_of(p.key).map(|s| s.len).sum();
            prop_assert_eq!(covered, p.len);
        }
    }
}
