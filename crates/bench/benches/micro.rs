//! Microbenchmarks of the two substrate paths nothing else times: the
//! simulator's event queue and the significance filter. The ledger's
//! `--trace 1` replay times the wire codec (`codec.*`), the shard's step
//! (`server.on_*`), the DPR buffer (`dpr.defer_release_100_us`) and EPS
//! slicing (`eps.slice_us`) on its workloads' real shapes, and `obs.rs`'s
//! gated `ml/loss_and_grad_b128|b8` time the GEMM kernels.

use fluentps_util::bench::Criterion;
use fluentps_util::{criterion_group, criterion_main};

use fluentps_simnet::event::EventQueue;

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

criterion_group!(micro, event_queue, significance_filter);
criterion_main!(micro);
