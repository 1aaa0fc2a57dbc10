//! Microbenchmarks of the substrate hot paths: wire codec, server state
//! machine, EPS slicing, DPR buffer and the event queue. The GEMM kernels
//! are timed on the ledger's shapes by `obs.rs`'s gated
//! `ml/loss_and_grad_b128|b8` and the ledger's `ml.loss_and_grad_us`.

use fluentps_util::bench::{BenchmarkId, Criterion, Throughput};
use fluentps_util::{criterion_group, criterion_main};

use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::{DeferredPull, DprBuffer, DprPolicy};
use fluentps_core::eps::{EpsSlicer, ParamSpec, Slicer};
use fluentps_core::server::{ServerShard, ShardConfig};
use fluentps_simnet::event::EventQueue;
use fluentps_transport::codec::{decode, encode};
use fluentps_transport::{KvPairs, Message};

/// Codec encode/decode throughput on a gradient-sized push.
fn codec_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for vals in [256usize, 16_384] {
        let msg = Message::SPush {
            worker: 3,
            progress: 42,
            kv: KvPairs::single(7, vec![0.5; vals]),
        };
        g.throughput(Throughput::Bytes((vals * 4) as u64));
        g.bench_with_input(BenchmarkId::new("encode", vals), &msg, |b, msg| {
            b.iter(|| encode(msg))
        });
        let bytes = encode(&msg);
        g.bench_with_input(BenchmarkId::new("decode", vals), &bytes, |b, bytes| {
            b.iter(|| decode(bytes.clone()).unwrap())
        });
    }
    g.finish();
}

/// Server state machine: push+pull cycle throughput.
fn shard_push_pull(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard");
    for vals in [256usize, 4096] {
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(
            BenchmarkId::new("push_pull_cycle", vals),
            &vals,
            |b, &vals| {
                let mut shard = ServerShard::new(ShardConfig {
                    server_id: 0,
                    num_workers: 1,
                    model: SyncModel::Asp,
                    policy: DprPolicy::LazyExecution,
                });
                shard.init_param(0, vec![0.0; vals]);
                let kv = KvPairs::single(0, vec![1e-4; vals]);
                let mut i = 0u64;
                b.iter(|| {
                    shard.on_push(0, i, &kv);
                    let out = shard.on_pull(0, i, &[0], 0.5, None);
                    i += 1;
                    out
                })
            },
        );
    }
    g.finish();
}

/// EPS slicing cost on increasingly large models.
fn eps_slicing(c: &mut Criterion) {
    let mut g = c.benchmark_group("eps");
    for layers in [64usize, 512] {
        let params: Vec<ParamSpec> = (0..layers as u64)
            .map(|k| ParamSpec {
                key: k,
                len: if k == 0 { 1_000_000 } else { 10_000 },
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("slice", layers), &params, |b, params| {
            let slicer = EpsSlicer { max_chunk: 16_384 };
            b.iter(|| slicer.slice(params, 8))
        });
    }
    g.finish();
}

/// DPR buffer defer/release round.
fn dpr_buffer(c: &mut Criterion) {
    c.bench_function("dpr_defer_release_100", |b| {
        let model = SyncModel::Ssp { s: 2 }.into_policy();
        b.iter(|| {
            let mut buf = DprBuffer::new();
            for w in 0..100u32 {
                buf.defer(
                    DprPolicy::LazyExecution,
                    DeferredPull {
                        worker: w,
                        progress: (w % 10) as u64,
                        keys: vec![0],
                        deferred_at: 0,
                        ctx: None,
                    },
                );
            }
            let mut out = 0;
            for v in 1..12u64 {
                let st = fluentps_core::condition::SyncState {
                    v_train: v,
                    count_at_v_train: 0,
                    num_workers: 100,
                    fastest: v,
                    slowest: v,
                };
                out += buf.release(DprPolicy::LazyExecution, &model, &st).len();
            }
            out
        })
    });
}

/// Event queue schedule/pop churn.
fn event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_churn_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u32 {
                q.schedule((i % 17) as f64, i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v as u64;
            }
            sum
        })
    });
}

/// Significance-filter offer throughput.
fn significance_filter(c: &mut Criterion) {
    use fluentps_core::filter::SignificanceFilter;
    c.bench_function("filter_offer_1k_params", |b| {
        let mut f = SignificanceFilter::new(0.01, 16);
        let update = vec![1e-4f32; 1024];
        let param = vec![1.0f32; 1024];
        b.iter(|| f.offer(0, &update, &param))
    });
}

criterion_group!(
    micro,
    codec_roundtrip,
    shard_push_pull,
    eps_slicing,
    dpr_buffer,
    event_queue,
    significance_filter
);
criterion_main!(micro);
