//! Elastic Parameter Slicing (EPS), Section III-A.
//!
//! PS-Lite's default slicing splits the raw key space into contiguous
//! per-server ranges. Because neural-network parameters are wildly
//! different in size (a fully-connected layer can be 1000× a bias vector),
//! range slicing routinely lands most of the *bytes* on one server. EPS
//! remaps original keys to new keys such that the byte load divides evenly
//! over all key ranges, chunking oversized parameters across servers. When
//! a server dies for good, only its slices move ([`EpsSlicer::remap_dead`]).

use std::collections::{BTreeSet, HashMap};

use crate::key::{chunk_key, Key};

/// Description of one application-level parameter: its key and its value
/// length (number of f32 elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSpec {
    /// Application key.
    pub key: Key,
    /// Number of values under this key.
    pub len: usize,
}

/// Where one slice of one parameter lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Original application key.
    pub orig_key: Key,
    /// Remapped wire key (encodes the chunk index).
    pub new_key: Key,
    /// Owning server.
    pub server: u32,
    /// Offset of this slice inside the original parameter.
    pub offset: usize,
    /// Number of values in this slice.
    pub len: usize,
}

/// The complete placement of a model onto `M` servers.
#[derive(Debug, Clone, Default)]
pub struct SliceMap {
    placements: Vec<Placement>,
    by_orig: HashMap<Key, Vec<usize>>,
    by_new: HashMap<Key, usize>,
    num_servers: u32,
}

impl SliceMap {
    fn from_placements(mut placements: Vec<Placement>, num_servers: u32) -> Self {
        // Deterministic iteration order: by original key then offset.
        placements.sort_by_key(|p| (p.orig_key, p.offset));
        let mut by_orig: HashMap<Key, Vec<usize>> = HashMap::new();
        let mut by_new = HashMap::new();
        for (i, p) in placements.iter().enumerate() {
            by_orig.entry(p.orig_key).or_default().push(i);
            let prev = by_new.insert(p.new_key, i);
            assert!(prev.is_none(), "duplicate new key {:#x}", p.new_key);
        }
        SliceMap {
            placements,
            by_orig,
            by_new,
            num_servers,
        }
    }

    /// All placements, ordered by `(orig_key, offset)`.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of servers this map targets.
    pub fn num_servers(&self) -> u32 {
        self.num_servers
    }

    /// The slices of one original parameter, in offset order.
    pub fn slices_of(&self, orig_key: Key) -> impl Iterator<Item = &Placement> {
        self.by_orig
            .get(&orig_key)
            .into_iter()
            .flatten()
            .map(move |&i| &self.placements[i])
    }

    /// Owning server of a wire key.
    pub fn server_of(&self, new_key: Key) -> Option<u32> {
        self.by_new
            .get(&new_key)
            .map(|&i| self.placements[i].server)
    }

    /// Placement of a wire key.
    pub fn placement_of(&self, new_key: Key) -> Option<&Placement> {
        self.by_new.get(&new_key).map(|&i| &self.placements[i])
    }

    /// Value-count load per server.
    pub fn server_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_servers as usize];
        for p in &self.placements {
            loads[p.server as usize] += p.len;
        }
        loads
    }

    /// Load imbalance: max server load divided by mean server load (1.0 is
    /// perfect balance). Returns 1.0 for an empty model.
    pub fn imbalance(&self) -> f64 {
        let loads = self.server_loads();
        let total: usize = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        let max = *loads.iter().max().expect("at least one server") as f64;
        max / mean
    }

    /// Total number of values placed.
    pub fn total_values(&self) -> usize {
        self.placements.iter().map(|p| p.len).sum()
    }

    /// Rebuild a map from an explicit placement list — used by workers that
    /// receive a `RouteUpdate` after a failure remap. `num_servers` stays
    /// the cluster's full width so per-server indexing remains stable even
    /// when a (dead) server owns nothing.
    pub fn from_raw(placements: Vec<Placement>, num_servers: u32) -> Self {
        Self::from_placements(placements, num_servers)
    }
}

/// A strategy for placing parameters on servers.
pub trait Slicer {
    /// Compute the placement of `params` onto `num_servers` servers.
    fn slice(&self, params: &[ParamSpec], num_servers: u32) -> SliceMap;
}

/// PS-Lite's default slicing: contiguous key ranges balanced by *key count*.
/// Kept as the baseline that exhibits the load-imbalance problem EPS fixes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultSlicer;

impl Slicer for DefaultSlicer {
    fn slice(&self, params: &[ParamSpec], num_servers: u32) -> SliceMap {
        assert!(num_servers > 0);
        let n = params.len();
        let m = num_servers as usize;
        // Keys sorted, then split into M contiguous groups of near-equal
        // *key count*; whole parameters are never chunked.
        let mut sorted: Vec<ParamSpec> = params.to_vec();
        sorted.sort_by_key(|p| p.key);
        let base = n / m;
        let extra = n % m;
        let mut placements = Vec::with_capacity(n);
        let mut idx = 0usize;
        for server in 0..m {
            let take = base + usize::from(server < extra);
            for p in &sorted[idx..idx + take] {
                placements.push(Placement {
                    orig_key: p.key,
                    new_key: chunk_key(p.key, 0),
                    server: server as u32,
                    offset: 0,
                    len: p.len,
                });
            }
            idx += take;
        }
        SliceMap::from_placements(placements, num_servers)
    }
}

/// Elastic Parameter Slicing: chunk parameters to at most `max_chunk` values
/// and assign chunks to servers with LPT (longest-processing-time) greedy
/// packing, yielding near-perfect byte balance.
#[derive(Debug, Clone, Copy)]
pub struct EpsSlicer {
    /// Maximum values per chunk. Smaller chunks balance better but cost more
    /// keys; the paper's goal is only that no single layer pins a server.
    pub max_chunk: usize,
}

impl Default for EpsSlicer {
    fn default() -> Self {
        EpsSlicer { max_chunk: 4096 }
    }
}

impl EpsSlicer {
    fn chunks(&self, params: &[ParamSpec]) -> Vec<Placement> {
        let mut out = Vec::new();
        for p in params {
            let mut offset = 0usize;
            let mut chunk_idx = 0u32;
            while offset < p.len {
                let len = (p.len - offset).min(self.max_chunk);
                out.push(Placement {
                    orig_key: p.key,
                    new_key: chunk_key(p.key, chunk_idx),
                    server: u32::MAX, // assigned below
                    offset,
                    len,
                });
                offset += len;
                chunk_idx += 1;
            }
            if p.len == 0 {
                out.push(Placement {
                    orig_key: p.key,
                    new_key: chunk_key(p.key, 0),
                    server: u32::MAX,
                    offset: 0,
                    len: 0,
                });
            }
        }
        out
    }

    /// Remap the slices owned by the servers in `dead` onto the others,
    /// preserving every surviving server's id and placements: the degraded
    /// mode of a live cluster, whose survivors keep their identities.
    /// `dead` holds every server that is dead for good, not only the one
    /// that just died, so a second death never lands on the first. Returns
    /// the new map and the number of values moved.
    ///
    /// Panics if every server in the map is dead.
    pub fn remap_dead(&self, map: &SliceMap, dead: &BTreeSet<u32>) -> (SliceMap, usize) {
        let num_servers = map.num_servers();
        let survivors: Vec<u32> = (0..num_servers).filter(|m| !dead.contains(m)).collect();
        assert!(
            !survivors.is_empty(),
            "cannot remap: no server survives {dead:?}"
        );
        let mut placements: Vec<Placement> = map.placements().to_vec();
        let mut loads = vec![0usize; num_servers as usize];
        for p in &placements {
            if !dead.contains(&p.server) {
                loads[p.server as usize] += p.len;
            }
        }
        // LPT-place the orphans on the least-loaded survivor.
        let mut orphans: Vec<usize> = (0..placements.len())
            .filter(|&i| dead.contains(&placements[i].server))
            .collect();
        orphans.sort_by_key(|&i| (std::cmp::Reverse(placements[i].len), placements[i].new_key));
        let mut moved = 0usize;
        for i in orphans {
            let &target = survivors
                .iter()
                .min_by_key(|&&m| (loads[m as usize], m))
                .expect("at least one survivor");
            placements[i].server = target;
            loads[target as usize] += placements[i].len;
            moved += placements[i].len;
        }
        (SliceMap::from_placements(placements, num_servers), moved)
    }
}

impl Slicer for EpsSlicer {
    fn slice(&self, params: &[ParamSpec], num_servers: u32) -> SliceMap {
        assert!(num_servers > 0);
        let mut chunks = self.chunks(params);
        // LPT: biggest chunk first onto the least-loaded server.
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(chunks[i].len), chunks[i].new_key));
        let mut loads = vec![0usize; num_servers as usize];
        for i in order {
            let (server, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|(s, &l)| (l, *s))
                .expect("at least one server");
            chunks[i].server = server as u32;
            loads[server] += chunks[i].len;
        }
        SliceMap::from_placements(chunks, num_servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ResNet-style skew: one huge layer plus many small ones.
    fn skewed_model() -> Vec<ParamSpec> {
        let mut params = vec![ParamSpec {
            key: 0,
            len: 100_000,
        }];
        for k in 1..32 {
            params.push(ParamSpec { key: k, len: 500 });
        }
        params
    }

    #[test]
    fn default_slicer_is_imbalanced_on_skewed_models() {
        let map = DefaultSlicer.slice(&skewed_model(), 8);
        // The huge key 0 lands wholly on server 0 → severe imbalance.
        assert!(
            map.imbalance() > 4.0,
            "expected severe imbalance, got {}",
            map.imbalance()
        );
        assert_eq!(map.total_values(), 100_000 + 31 * 500);
    }

    #[test]
    fn eps_slicer_balances_within_chunk_granularity() {
        let slicer = EpsSlicer { max_chunk: 2048 };
        let map = slicer.slice(&skewed_model(), 8);
        assert!(
            map.imbalance() < 1.2,
            "EPS should balance, got {}",
            map.imbalance()
        );
        assert_eq!(map.total_values(), 100_000 + 31 * 500);
    }

    #[test]
    fn eps_preserves_every_value_exactly_once() {
        let params = skewed_model();
        let map = EpsSlicer { max_chunk: 1000 }.slice(&params, 5);
        for p in &params {
            let mut covered = 0usize;
            let mut expected_offset = 0usize;
            for slice in map.slices_of(p.key) {
                assert_eq!(slice.offset, expected_offset, "gap in key {}", p.key);
                expected_offset += slice.len;
                covered += slice.len;
            }
            assert_eq!(covered, p.len, "key {} not fully covered", p.key);
        }
    }

    #[test]
    fn new_keys_route_back_to_their_server() {
        let map = EpsSlicer::default().slice(&skewed_model(), 4);
        for p in map.placements() {
            assert_eq!(map.server_of(p.new_key), Some(p.server));
            assert_eq!(map.placement_of(p.new_key).unwrap(), p);
        }
        assert_eq!(map.server_of(0xDEAD_BEEF_0000), None);
    }

    #[test]
    fn zero_length_params_still_get_a_placement() {
        let params = vec![ParamSpec { key: 9, len: 0 }];
        let map = EpsSlicer::default().slice(&params, 2);
        assert_eq!(map.placements().len(), 1);
        assert_eq!(map.placements()[0].len, 0);
    }

    #[test]
    fn single_server_gets_everything() {
        let map = EpsSlicer::default().slice(&skewed_model(), 1);
        assert_eq!(map.server_loads(), vec![map.total_values()]);
        assert_eq!(map.imbalance(), 1.0);
    }

    #[test]
    fn remap_dead_moves_only_the_dead_servers_slices() {
        let slicer = EpsSlicer { max_chunk: 1024 };
        let map = slicer.slice(&skewed_model(), 4);
        let dead = 1u32;
        let dead_load = map.server_loads()[dead as usize];
        let (remapped, moved) = slicer.remap_dead(&map, &BTreeSet::from([dead]));

        // Exactly the dead server's values moved; survivors kept their ids
        // and their own placements byte for byte.
        assert_eq!(moved, dead_load);
        assert_eq!(remapped.num_servers(), 4);
        assert_eq!(remapped.server_loads()[dead as usize], 0);
        for p in map.placements() {
            if p.server == dead {
                continue;
            }
            let q = remapped.placement_of(p.new_key).expect("survivor slice");
            assert_eq!(q, p, "surviving placement changed");
        }
        // Every orphan landed on a survivor.
        assert_eq!(remapped.total_values(), map.total_values());
    }

    #[test]
    fn a_second_death_never_remaps_onto_the_first() {
        // One 80 000-value layer and nineteen of 4 000 over six servers;
        // servers 2 and then 4 die for good, as a supervisor applies two
        // `Remapped` entries.
        let mut params = vec![ParamSpec {
            key: 0,
            len: 80_000,
        }];
        params.extend((1..20).map(|key| ParamSpec { key, len: 4_000 }));
        let slicer = EpsSlicer { max_chunk: 8_192 };
        let map = slicer.slice(&params, 6);
        let mut dead = BTreeSet::from([2]);
        let (after_first, _) = slicer.remap_dead(&map, &dead);
        dead.insert(4);
        let four_held = after_first.server_loads()[4];
        let (after_second, moved) = slicer.remap_dead(&after_first, &dead);

        assert_eq!(moved, four_held, "only server 4's slices move");
        let loads = after_second.server_loads();
        assert_eq!((loads[2], loads[4]), (0, 0), "loads {loads:?}");
        assert_eq!(after_second.total_values(), map.total_values());
        for p in after_first.placements().iter().filter(|p| p.server != 4) {
            assert_eq!(after_second.placement_of(p.new_key), Some(p));
        }
    }

    #[test]
    #[should_panic(expected = "no server survives")]
    fn remap_dead_panics_with_no_survivors() {
        let map = EpsSlicer::default().slice(&skewed_model(), 2);
        EpsSlicer::default().remap_dead(&map, &BTreeSet::from([0, 1]));
    }

    #[test]
    fn from_raw_roundtrips_placements() {
        let map = EpsSlicer::default().slice(&skewed_model(), 3);
        let rebuilt = SliceMap::from_raw(map.placements().to_vec(), 3);
        assert_eq!(rebuilt.placements(), map.placements());
        assert_eq!(rebuilt.num_servers(), 3);
    }
}
