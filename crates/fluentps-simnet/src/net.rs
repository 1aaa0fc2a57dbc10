//! Network primitives: latency/bandwidth links and serializing NIC queues.
//!
//! The communication bottleneck the paper measures (Figure 6) comes from
//! transfers *serializing at the server side*: with N workers pushing a
//! gradient shard each, the server's NIC drains them one after another, so
//! communication time grows with N while computation time shrinks. The
//! [`NicQueue`] models that serialization point.

/// A point-to-point link with propagation latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way propagation latency in seconds.
    pub latency: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkModel {
    /// A 1 Gbps link with 100 µs latency (the paper's CPU-cluster NICs).
    pub fn gbe() -> Self {
        LinkModel {
            latency: 100e-6,
            bandwidth: 125e6,
        }
    }

    /// A 25 Gbps link with 50 µs latency (the paper's AWS GPU cluster).
    pub fn aws_25g() -> Self {
        LinkModel {
            latency: 50e-6,
            bandwidth: 3.125e9,
        }
    }

    /// Time to push `bytes` through the link once it starts transmitting.
    pub fn serialization_time(&self, bytes: usize) -> f64 {
        bytes as f64 / self.bandwidth
    }
}

/// A serializing queue (NIC / link endpoint): at most one transfer drains at
/// a time; later arrivals wait behind earlier ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicQueue {
    busy_until: f64,
    /// Total seconds this NIC spent transmitting (utilization accounting).
    pub busy_time: f64,
    /// Total bytes through this NIC.
    pub bytes: u64,
}

impl NicQueue {
    /// Fresh, idle NIC.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue a transfer arriving at `now` that needs `duration` seconds of
    /// link time. Returns the completion time.
    pub fn enqueue(&mut self, now: f64, duration: f64, bytes: u64) -> f64 {
        let start = now.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy_time += duration;
        self.bytes += bytes;
        end
    }

    /// When the NIC becomes idle.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_is_bytes_over_bandwidth() {
        let l = LinkModel {
            latency: 0.001,
            bandwidth: 1000.0,
        };
        assert_eq!(l.serialization_time(2000), 2.0);
    }

    #[test]
    fn nic_serializes_overlapping_transfers() {
        let mut nic = NicQueue::new();
        // Three transfers arrive at t=0, each taking 1s: they drain back to
        // back, finishing at 1, 2, 3.
        assert_eq!(nic.enqueue(0.0, 1.0, 100), 1.0);
        assert_eq!(nic.enqueue(0.0, 1.0, 100), 2.0);
        assert_eq!(nic.enqueue(0.0, 1.0, 100), 3.0);
        assert_eq!(nic.busy_time, 3.0);
        assert_eq!(nic.bytes, 300);
    }

    #[test]
    fn idle_gaps_are_not_counted_busy() {
        let mut nic = NicQueue::new();
        nic.enqueue(0.0, 0.5, 10);
        // Arrives after the NIC went idle.
        let end = nic.enqueue(10.0, 0.5, 10);
        assert_eq!(end, 10.5);
        assert_eq!(nic.busy_time, 1.0);
    }

    #[test]
    fn completion_grows_linearly_with_contenders() {
        // The Figure 6 mechanism in miniature: N pushes of equal size all
        // arriving together finish at N · t each worker's wait grows with N.
        let per = 0.25;
        for n in [1usize, 2, 4, 8] {
            let mut nic = NicQueue::new();
            let mut last = 0.0;
            for _ in 0..n {
                last = nic.enqueue(0.0, per, 1);
            }
            assert!((last - per * n as f64).abs() < 1e-12);
        }
    }
}
