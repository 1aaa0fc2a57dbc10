//! Figure 3 (and the Figure 4/5 timelines): the soft-barrier vs lazy
//! execution trade-off, reproduced as an *executable* scenario rather than
//! a diagram.
//!
//! Three workers, one shard, SSP s=3. Worker 2 is slow. The fast worker's
//! pull for `w_4` cannot be answered while `g_1²`, `g_2²`, `g_3²` are
//! missing:
//!
//! * soft barrier — released after **one** of the missing pushes arrives
//!   (stale parameters, and the barrier will re-trigger);
//! * lazy execution — released only after **all three** arrive (fully
//!   updated parameters, one pause).
//!
//! The run below drives the real `ServerShard` through the exact event
//! sequence of the figure and prints the resulting timeline.

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::server::{PullOutcome, ServerShard, ShardConfig};
use fluentps_transport::KvPairs;

use crate::report::Table;

/// One timeline entry: `(step, event, outcome)`.
type TimelineRow = (String, String, String);

fn scenario(policy: DprPolicy) -> (Vec<TimelineRow>, Vec<f32>, u64) {
    let mut shard = ServerShard::new(ShardConfig {
        server_id: 0,
        num_workers: 3,
        model: SyncModel::Ssp { s: 3 },
        policy,
    });
    shard.init_param(0, vec![0.0]);
    let mut timeline = Vec::new();
    let mut release_value = Vec::new();
    let mut release_version = 0;

    let push = |shard: &mut ServerShard, w: u32, i: u64, tl: &mut Vec<TimelineRow>| {
        let released = shard.on_push(w, i, &KvPairs::single(0, vec![1.0]));
        let mut outcome = format!("V_train={}", shard.v_train());
        for r in &released {
            outcome = format!(
                "V_train={}; releases W{}'s pull (w={}, version {})",
                shard.v_train(),
                r.worker,
                r.kv.vals.at(0),
                r.version
            );
        }
        tl.push((format!("push g_{i}^{w}"), format!("worker {w}"), outcome));
        released
    };

    // Workers 0 and 1 race through iterations 0..=3; worker 2 lags at 0.
    for i in 0..4u64 {
        for w in [0u32, 1] {
            push(&mut shard, w, i, &mut timeline);
        }
    }
    push(&mut shard, 2, 0, &mut timeline);
    // All three push iteration 0 → V_train = 1. The fast worker now pulls
    // for w_4 at progress 3: gap 3 − 1 = 2 < 3 would pass, so advance worker
    // 0 one more iteration to progress 4 (the figure's position).
    push(&mut shard, 0, 4, &mut timeline);
    let outcome = match shard.on_pull(0, 4, &[0], 0.99, None) {
        PullOutcome::Respond { .. } => "answered immediately".to_string(),
        PullOutcome::Deferred => "DEFERRED (gap 3 ≥ s)".to_string(),
    };
    timeline.push(("pull w_5^0".into(), "worker 0".into(), outcome));

    // The slow worker catches up one iteration at a time.
    for i in 1..=4u64 {
        push(&mut shard, 1, i + 3, &mut timeline); // worker 1 keeps pace
        let released = push(&mut shard, 2, i, &mut timeline);
        for r in released {
            release_value = r.kv.vals.to_vec();
            release_version = r.version;
        }
        if !release_value.is_empty() {
            break;
        }
    }
    (timeline, release_value, release_version)
}

/// Regenerate the Figure 3 scenario under both policies.
pub fn run_figure() -> Vec<Table> {
    let mut out = Vec::new();
    for (name, policy) in [
        ("soft barrier (Figure 3a)", DprPolicy::SoftBarrier),
        ("lazy execution (Figure 3b)", DprPolicy::LazyExecution),
    ] {
        let (timeline, value, version) = scenario(policy);
        let mut t = Table::new(
            format!("{name}: event timeline (3 workers, SSP s=3, worker 2 slow)"),
            &["event", "actor", "server outcome"],
        );
        for (ev, actor, outcome) in timeline {
            t.row(vec![ev, actor, outcome]);
        }
        t.row(vec![
            "=> deferred pull answered".into(),
            "server".into(),
            format!("parameters w={value:?} at version {version}"),
        ]);
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_barrier_releases_earlier_with_staler_params_than_lazy() {
        let (_, soft_value, soft_version) = scenario(DprPolicy::SoftBarrier);
        let (_, lazy_value, lazy_version) = scenario(DprPolicy::LazyExecution);
        assert!(!soft_value.is_empty() && !lazy_value.is_empty());
        // The soft barrier answers at a lower V_train (earlier) …
        assert!(
            soft_version < lazy_version,
            "soft {soft_version} !< lazy {lazy_version}"
        );
        // … with fewer gradients folded in (staler parameters).
        assert!(
            soft_value[0] < lazy_value[0],
            "soft {} !< lazy {}",
            soft_value[0],
            lazy_value[0]
        );
    }
}
