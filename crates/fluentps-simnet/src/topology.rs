//! Cluster topology: N workers and M servers joined by links through
//! serializing NICs, with per-side communication-time accounting.
//!
//! Model: a worker→server transfer traverses the worker's egress NIC, the
//! link, and the server's ingress NIC; the bottleneck (and the quantity the
//! paper's Figure 6 measures) is the serialization at the server side, so
//! ingress/egress NICs are tracked per server while worker NICs are assumed
//! uncontended (each worker talks to M servers sequentially anyway).

use crate::net::{LinkModel, NicQueue};

/// How a server moves bytes in and out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duplex {
    /// Ingress and egress drain concurrently (FluentPS: push handling and
    /// pull responses overlap — the paper's "overlap synchronization").
    Full,
    /// One serialization point for both directions (PS-Lite's
    /// single-threaded request loop: a pull response cannot be sent while a
    /// push is being received/applied).
    Half,
}

/// A simulated cluster fabric.
#[derive(Debug, Clone)]
pub struct ClusterTopology {
    link: LinkModel,
    duplex: Duplex,
    server_ingress: Vec<NicQueue>,
    server_egress: Vec<NicQueue>,
}

impl ClusterTopology {
    /// Fabric for `num_servers` full-duplex servers over `link`.
    pub fn new(num_servers: u32, link: LinkModel) -> Self {
        Self::with_duplex(num_servers, link, Duplex::Full)
    }

    /// Fabric with an explicit duplex mode.
    pub fn with_duplex(num_servers: u32, link: LinkModel, duplex: Duplex) -> Self {
        ClusterTopology {
            link,
            duplex,
            server_ingress: vec![NicQueue::new(); num_servers as usize],
            server_egress: vec![NicQueue::new(); num_servers as usize],
        }
    }

    /// The link model in use.
    pub fn link(&self) -> LinkModel {
        self.link
    }

    /// A worker sends `bytes` to server `m` at time `now`; returns the
    /// arrival (fully received) time.
    pub fn worker_to_server(&mut self, now: f64, m: u32, bytes: usize) -> f64 {
        let duration = self.link.serialization_time(bytes);
        let after_latency = now + self.link.latency;
        self.server_ingress[m as usize].enqueue(after_latency, duration, bytes as u64)
    }

    /// Server `m` sends `bytes` to a worker at time `now`; returns delivery
    /// time.
    pub fn server_to_worker(&mut self, now: f64, m: u32, bytes: usize) -> f64 {
        let duration = self.link.serialization_time(bytes);
        let queue = match self.duplex {
            Duplex::Full => &mut self.server_egress[m as usize],
            // Half duplex: responses contend with incoming pushes.
            Duplex::Half => &mut self.server_ingress[m as usize],
        };
        let end = queue.enqueue(now, duration, bytes as u64);
        end + self.link.latency
    }

    /// Occupy server `m`'s request-processing queue for `seconds` starting
    /// at `now` (models per-request CPU work on the single-threaded server:
    /// DPR buffer management, callback registration, cache invalidation).
    /// Subsequent arrivals at this server queue behind it.
    pub fn charge_server(&mut self, now: f64, m: u32, seconds: f64) {
        self.server_ingress[m as usize].enqueue(now, seconds, 0);
    }

    /// Seconds server `m`'s NICs spent transmitting (ingress + egress) — the
    /// per-server communication-time figure.
    pub fn server_comm_time(&self, m: u32) -> f64 {
        self.server_ingress[m as usize].busy_time + self.server_egress[m as usize].busy_time
    }

    /// Total bytes through server `m`.
    pub fn server_bytes(&self, m: u32) -> u64 {
        self.server_ingress[m as usize].bytes + self.server_egress[m as usize].bytes
    }

    /// The busiest server's communication time — the critical-path figure
    /// when shards are imbalanced (what EPS reduces).
    pub fn max_server_comm_time(&self) -> f64 {
        (0..self.server_ingress.len() as u32)
            .map(|m| self.server_comm_time(m))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_link() -> LinkModel {
        LinkModel {
            latency: 0.0,
            bandwidth: 1000.0,
        }
    }

    #[test]
    fn pushes_serialize_at_one_server() {
        let mut topo = ClusterTopology::new(2, fast_link());
        // 4 workers push 500 bytes to server 0 simultaneously: 0.5 s each,
        // arriving at 0.5, 1.0, 1.5, 2.0.
        let mut arrivals = Vec::new();
        for _ in 0..4 {
            arrivals.push(topo.worker_to_server(0.0, 0, 500));
        }
        assert_eq!(arrivals, vec![0.5, 1.0, 1.5, 2.0]);
        // Server 1 is unaffected.
        assert_eq!(topo.worker_to_server(0.0, 1, 500), 0.5);
    }

    #[test]
    fn balanced_shards_beat_imbalanced_on_critical_path() {
        // Imbalanced: all 4000 bytes on server 0. Balanced: 2000 each.
        let mut imb = ClusterTopology::new(2, fast_link());
        for _ in 0..4 {
            imb.worker_to_server(0.0, 0, 1000);
        }
        let mut bal = ClusterTopology::new(2, fast_link());
        for _ in 0..4 {
            bal.worker_to_server(0.0, 0, 500);
            bal.worker_to_server(0.0, 1, 500);
        }
        assert!(bal.max_server_comm_time() < imb.max_server_comm_time());
        // Same total bytes moved either way.
        assert_eq!(
            imb.server_bytes(0) + imb.server_bytes(1),
            bal.server_bytes(0) + bal.server_bytes(1)
        );
    }

    #[test]
    fn latency_applies_before_ingress_queueing() {
        let link = LinkModel {
            latency: 1.0,
            bandwidth: 1000.0,
        };
        let mut topo = ClusterTopology::new(1, link);
        assert_eq!(topo.worker_to_server(0.0, 0, 1000), 2.0); // 1 latency + 1 xfer
    }

    #[test]
    fn responses_queue_at_server_egress() {
        let mut topo = ClusterTopology::new(1, fast_link());
        let a = topo.server_to_worker(0.0, 0, 1000);
        let b = topo.server_to_worker(0.0, 0, 1000);
        assert_eq!(a, 1.0);
        assert_eq!(b, 2.0);
        assert_eq!(topo.server_comm_time(0), 2.0);
    }

    #[test]
    fn half_duplex_serializes_both_directions() {
        let mut full = ClusterTopology::with_duplex(1, fast_link(), Duplex::Full);
        let f_in = full.worker_to_server(0.0, 0, 1000);
        let f_out = full.server_to_worker(0.0, 0, 1000);
        // Full duplex: both finish at 1s (concurrent).
        assert_eq!(f_in, 1.0);
        assert_eq!(f_out, 1.0);

        let mut half = ClusterTopology::with_duplex(1, fast_link(), Duplex::Half);
        let h_in = half.worker_to_server(0.0, 0, 1000);
        let h_out = half.server_to_worker(0.0, 0, 1000);
        // Half duplex: the response queues behind the push.
        assert_eq!(h_in, 1.0);
        assert_eq!(h_out, 2.0);
    }

    #[test]
    fn comm_time_accounting_sums_sides() {
        let mut topo = ClusterTopology::new(2, fast_link());
        topo.worker_to_server(0.0, 0, 500);
        topo.server_to_worker(0.0, 0, 500);
        topo.worker_to_server(0.0, 1, 1000);
        assert!((topo.server_comm_time(0) - 1.0).abs() < 1e-12);
        assert!((topo.server_comm_time(1) - 1.0).abs() < 1e-12);
        assert!((topo.max_server_comm_time() - 1.0).abs() < 1e-12);
    }
}
