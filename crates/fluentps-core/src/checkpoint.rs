//! Shard checkpointing: serialize a shard's parameters and training
//! progress so a replacement server can resume after a failure (the
//! fault-tolerance half of elasticity — EPS moves the *placement*, the
//! checkpoint moves the *state*).
//!
//! Format: a small header (version, v_train), the per-worker applied-push
//! watermarks, then the parameters as one codec-encoded `KvPairs`.
//! Synchronization state other than `V_train` (the DPR buffer,
//! per-iteration counts) is deliberately not checkpointed: buffered pulls
//! belong to connections that died with the old server; workers re-issue
//! them on reconnect, and replay their recent pushes so the replacement can
//! rebuild the push counts `V_train` needs to advance. The watermarks let
//! the replacement's server loop drop replayed pushes that were already
//! applied before the snapshot, keeping recovery effectively exactly-once.

use fluentps_util::buf::{Buf, BufMut, Bytes, BytesMut};

use fluentps_transport::codec;
use fluentps_transport::error::DecodeError;
use fluentps_transport::{KvPairs, Message};

use crate::server::ServerShard;

/// Version byte of the checkpoint format. Version 2 added the per-worker
/// applied-push watermarks; version-1 blobs are rejected with
/// [`DecodeError::VersionMismatch`].
pub const CHECKPOINT_VERSION: u8 = 2;

/// A serializable snapshot of a shard's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Overall training progress at snapshot time.
    pub v_train: u64,
    /// Per-worker highest applied push progress, encoded as `progress + 1`
    /// (`0` = no push from that worker has been applied). A replacement
    /// server loop seeds its duplicate-push filter from these so replayed
    /// pushes that already contributed to `params` are not applied twice.
    pub applied: Vec<u64>,
    /// All parameters of the shard.
    pub params: KvPairs,
}

impl ShardCheckpoint {
    /// Capture a shard's durable state with no watermark information (all
    /// replayed pushes will re-apply — at-least-once recovery).
    pub fn capture(shard: &ServerShard, keys: &[u64]) -> Self {
        let n = shard.config().num_workers as usize;
        Self::capture_with_applied(shard, keys, &vec![None; n])
    }

    /// Capture a shard's durable state plus the caller's per-worker
    /// applied-push watermarks (kept by the serving loop, which sees the
    /// requests; the shard state machine does not track identity of
    /// duplicates).
    pub fn capture_with_applied(
        shard: &ServerShard,
        keys: &[u64],
        applied: &[Option<u64>],
    ) -> Self {
        ShardCheckpoint {
            v_train: shard.v_train(),
            applied: applied
                .iter()
                .map(|w| w.map(|p| p + 1).unwrap_or(0))
                .collect(),
            params: shard.snapshot(keys),
        }
    }

    /// The applied-push watermarks in decoded form (`None` = worker had no
    /// applied push at snapshot time).
    pub fn applied_watermarks(&self) -> Vec<Option<u64>> {
        self.applied
            .iter()
            .map(|&x| if x == 0 { None } else { Some(x - 1) })
            .collect()
    }

    /// Serialize to bytes (reuses the wire codec for the payload).
    pub fn to_bytes(&self) -> Bytes {
        // The params travel as a PullResponse so the existing codec carries
        // them; its server and progress are 0 and its version is `v_train`.
        let params = Message::PullResponse {
            server: 0,
            progress: 0,
            version: self.v_train,
            kv: self.params.clone(),
        };
        let header = 1 + 8 + 4 + 8 * self.applied.len();
        let mut buf = BytesMut::with_capacity(header + codec::encoded_len(&params));
        buf.put_u8(CHECKPOINT_VERSION);
        buf.put_u64_le(self.v_train);
        buf.put_u32_le(self.applied.len() as u32);
        buf.put_u64_slice_le(&self.applied);
        codec::encode_into(&params, &mut buf);
        buf.freeze()
    }

    /// Deserialize from bytes.
    pub fn from_bytes(mut bytes: Bytes) -> Result<Self, DecodeError> {
        if bytes.remaining() < 13 {
            return Err(DecodeError::Truncated {
                needed: 13,
                available: bytes.remaining(),
            });
        }
        let version = bytes.get_u8();
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: version,
            });
        }
        let v_train = bytes.get_u64_le();
        let n = bytes.get_u32_le() as usize;
        if bytes.remaining() < n * 8 {
            return Err(DecodeError::Truncated {
                needed: n * 8,
                available: bytes.remaining(),
            });
        }
        let applied = bytes.get_u64_vec_le(n);
        // Only what `to_bytes` writes decodes, so a blob re-encodes to itself.
        match codec::decode(bytes)? {
            Message::PullResponse {
                server: 0,
                progress: 0,
                version,
                kv,
            } if version == v_train => Ok(ShardCheckpoint {
                v_train,
                applied,
                params: kv,
            }),
            Message::PullResponse { .. } => Err(DecodeError::NonCanonical),
            _ => Err(DecodeError::UnknownTag(0xFF)),
        }
    }

    /// Restore this snapshot into a fresh shard: installs every parameter
    /// and fast-forwards `V_train` by replaying synthetic empty iterations.
    pub fn restore_into(&self, shard: &mut ServerShard) {
        for (key, vals) in self.params.iter() {
            shard.init_param(key, vals.to_vec());
        }
        shard.fast_forward(self.v_train);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::SyncModel;
    use crate::dpr::DprPolicy;
    use crate::server::{PullOutcome, ShardConfig};

    fn trained_shard() -> (ServerShard, Vec<u64>) {
        let mut shard = ServerShard::new(ShardConfig {
            server_id: 0,
            num_workers: 2,
            model: SyncModel::Ssp { s: 1 },
            policy: DprPolicy::LazyExecution,
        });
        shard.init_param(0, vec![0.0; 4]);
        shard.init_param(1, vec![0.0; 2]);
        for i in 0..3u64 {
            for w in 0..2 {
                shard.on_push(w, i, &KvPairs::single(0, vec![1.0; 4]));
                shard.on_push(w, i, &KvPairs::single(1, vec![2.0; 2]));
            }
        }
        (shard, vec![0, 1])
    }

    #[test]
    fn capture_roundtrips_through_bytes() {
        let (shard, keys) = trained_shard();
        let cp = ShardCheckpoint::capture(&shard, &keys);
        let bytes = cp.to_bytes();
        let back = ShardCheckpoint::from_bytes(bytes).expect("decode");
        assert_eq!(back, cp);
        assert_eq!(back.v_train, 3);
        assert!(back.params.is_consistent());
    }

    #[test]
    fn restore_resumes_training_where_it_left_off() {
        let (shard, keys) = trained_shard();
        let cp = ShardCheckpoint::capture(&shard, &keys);

        let mut fresh = ServerShard::new(ShardConfig {
            server_id: 1,
            num_workers: 2,
            model: SyncModel::Ssp { s: 1 },
            policy: DprPolicy::LazyExecution,
        });
        cp.restore_into(&mut fresh);
        assert_eq!(fresh.v_train(), 3);
        assert_eq!(fresh.read_param(0), shard.read_param(0));
        assert_eq!(fresh.read_param(1), shard.read_param(1));

        // Training continues: a pull within the bound answers with the
        // restored parameters; the staleness bound is relative to the
        // restored V_train.
        match fresh.on_pull(0, 3, &[0], 0.5, None) {
            PullOutcome::Respond { kv, version } => {
                assert_eq!(version, 3);
                assert_eq!(kv.vals, vec![3.0; 4]);
            }
            PullOutcome::Deferred => panic!("pull within bound after restore"),
        }
        // A pull far past the bound is still deferred (sync state intact).
        assert_eq!(fresh.on_pull(0, 10, &[0], 0.5, None), PullOutcome::Deferred);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let (shard, keys) = trained_shard();
        let bytes = ShardCheckpoint::capture(&shard, &keys).to_bytes();
        // Wrong version byte: the exact mismatch is reported.
        let mut v = bytes.to_vec();
        v[0] = 9;
        assert_eq!(
            ShardCheckpoint::from_bytes(Bytes::from(v)),
            Err(DecodeError::VersionMismatch {
                expected: CHECKPOINT_VERSION,
                found: 9,
            })
        );
        // Truncated payload.
        assert!(ShardCheckpoint::from_bytes(bytes.slice(0..bytes.len() - 3)).is_err());
        // Empty.
        assert_eq!(
            ShardCheckpoint::from_bytes(Bytes::new()),
            Err(DecodeError::Truncated {
                needed: 13,
                available: 0,
            })
        );
        // Every possible truncation errors; none may panic.
        for cut in 0..bytes.len() {
            assert!(
                ShardCheckpoint::from_bytes(bytes.slice(0..cut)).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // A watermark count promising more entries than the blob holds.
        let mut v = bytes.to_vec();
        v[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ShardCheckpoint::from_bytes(Bytes::from(v)),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn a_blob_decodes_only_to_the_checkpoint_that_encodes_it() {
        // Every prefix is `Truncated`, and a blob with any one byte changed
        // either fails or is the encoding of what it decodes to: the
        // embedded PullResponse's server, progress and version (which
        // repeats `v_train`) are pinned like every other byte.
        let (shard, keys) = trained_shard();
        let cp = ShardCheckpoint::capture_with_applied(&shard, &keys, &[Some(2), None]);
        let bytes = cp.to_bytes();
        for cut in 0..bytes.len() {
            let err = ShardCheckpoint::from_bytes(bytes.slice(0..cut));
            assert!(
                matches!(err, Err(DecodeError::Truncated { .. })),
                "cut at {cut}: {err:?}"
            );
        }
        for idx in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut v = bytes.to_vec();
                v[idx] ^= flip;
                if let Ok(back) = ShardCheckpoint::from_bytes(Bytes::from(v.clone())) {
                    assert_eq!(back.to_bytes().as_ref(), &v[..], "byte {idx} ^ {flip:#04x}");
                }
            }
        }
    }

    #[test]
    fn to_bytes_is_byte_identical_to_the_scalar_loop_encoder() {
        // Fixture produced by commit bc03ef5 (per-element puts, cloned
        // params): the blob format must not move with the slab codec, or a
        // replacement could not restore a checkpoint its predecessor stored.
        const GOLDEN: &str = concat!(
            "0203000000000000000200000003000000000000000000000000000000010400",
            "0000000000000000000000030000000000000002000000000000000000000001",
            "0000000000000002000000040000000200000006000000000040400000404000",
            "004040000040400000c0400000c040"
        );
        let (shard, keys) = trained_shard();
        let cp = ShardCheckpoint::capture_with_applied(&shard, &keys, &[Some(2), None]);
        let bytes = cp.to_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(ShardCheckpoint::from_bytes(bytes), Ok(cp));
    }

    #[test]
    fn capture_skips_unknown_keys() {
        let (shard, _) = trained_shard();
        let cp = ShardCheckpoint::capture(&shard, &[0, 99]);
        assert_eq!(cp.params.keys, vec![0]);
    }
}
