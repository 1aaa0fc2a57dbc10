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
//! The run below steps the live server — [`ShardServer::handle`], the
//! Algorithm-1 step every engine and the simulator serve — through the exact
//! message sequence of the figure and prints the resulting timeline. The
//! model is SSP, so the server's PSSP draws never decide anything here.

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::launch;
use fluentps_core::serve::ShardServer;
use fluentps_core::server::{ServerShard, ShardConfig};
use fluentps_obs::Tracer;
use fluentps_transport::{KvPairs, Message, NodeId};

use crate::report::Table;

/// One timeline entry: `(step, event, outcome)`.
type TimelineRow = (String, String, String);

/// A pull answered by a step: `(worker, parameters, version)`.
type Answer = (u32, Vec<f32>, u64);

/// Step `server` through `msg`; the pulls it answered, in send order.
fn step(server: &mut ShardServer, msg: Message) -> Vec<Answer> {
    let mut out = Vec::new();
    server.handle(msg, &mut out);
    let answered = out.into_iter().filter_map(|(to, reply)| match (to, reply) {
        (NodeId::Worker(w), Message::PullResponse { kv, version, .. }) => {
            Some((w, kv.vals.to_vec(), version))
        }
        _ => None,
    });
    answered.collect()
}

fn scenario(policy: DprPolicy) -> (Vec<TimelineRow>, Vec<f32>, u64) {
    let mut shard = ServerShard::new(ShardConfig {
        server_id: 0,
        num_workers: 3,
        model: SyncModel::Ssp { s: 3 },
        policy,
    });
    shard.init_param(0, vec![0.0]);
    let rng = launch::server_rng(0, 0, 0);
    let mut server = ShardServer::new(shard, rng, Tracer::disabled());
    let mut timeline = Vec::new();
    let mut release_value = Vec::new();
    let mut release_version = 0;

    let push = |server: &mut ShardServer, w: u32, i: u64, tl: &mut Vec<TimelineRow>| {
        let msg = Message::SPush {
            worker: w,
            progress: i,
            kv: KvPairs::single(0, vec![1.0]),
        };
        let released = step(server, msg);
        let v_train = server.shard().v_train();
        let mut outcome = format!("V_train={v_train}");
        for (worker, value, version) in &released {
            outcome = format!(
                "V_train={v_train}; releases W{worker}'s pull (w={}, version {version})",
                value[0]
            );
        }
        tl.push((format!("push g_{i}^{w}"), format!("worker {w}"), outcome));
        released
    };

    // Workers 0 and 1 race through iterations 0..=3; worker 2 lags at 0.
    for i in 0..4u64 {
        for w in [0u32, 1] {
            push(&mut server, w, i, &mut timeline);
        }
    }
    push(&mut server, 2, 0, &mut timeline);
    // All three push iteration 0 → V_train = 1. The fast worker now pulls
    // for w_4 at progress 3: gap 3 − 1 = 2 < 3 would pass, so advance worker
    // 0 one more iteration to progress 4 (the figure's position).
    push(&mut server, 0, 4, &mut timeline);
    let pull = Message::SPull {
        worker: 0,
        progress: 4,
        keys: vec![0],
    };
    let outcome = if step(&mut server, pull).is_empty() {
        "DEFERRED (gap 3 ≥ s)".to_string()
    } else {
        "answered immediately".to_string()
    };
    timeline.push(("pull w_5^0".into(), "worker 0".into(), outcome));

    // The slow worker catches up one iteration at a time.
    for i in 1..=4u64 {
        push(&mut server, 1, i + 3, &mut timeline); // worker 1 keeps pace
        let released = push(&mut server, 2, i, &mut timeline);
        for (_, value, version) in released {
            release_value = value;
            release_version = version;
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
