//! Property tests for the checkpoint format: `capture → encode → decode →
//! restore_into` must preserve parameters and `v_train` bit-exactly (a
//! recovery that perturbs either would silently corrupt training), and no
//! corrupted input may panic the decoder.

use fluentps_core::checkpoint::ShardCheckpoint;
use fluentps_core::condition::SyncModel;
use fluentps_core::dpr::DprPolicy;
use fluentps_core::server::{ServerShard, ShardConfig};
use fluentps_util::buf::Bytes;
use fluentps_util::proptest::prelude::*;

fn shard(num_workers: u32) -> ServerShard {
    ServerShard::new(ShardConfig {
        server_id: 0,
        num_workers,
        model: SyncModel::Ssp { s: 2 },
        policy: DprPolicy::LazyExecution,
    })
}

/// `(key, value-bits)` pairs: arbitrary bit patterns cover NaN, infinities
/// and signed zero, which must survive the round trip bitwise.
fn arb_params() -> impl Strategy<Value = Vec<(u64, Vec<u32>)>> {
    prop::collection::vec((0u64..32, prop::collection::vec(any::<u32>(), 1..8)), 1..5).prop_map(
        |mut kv| {
            kv.sort_by_key(|(k, _)| *k);
            kv.dedup_by_key(|(k, _)| *k);
            kv
        },
    )
}

proptest! {
    /// The full recovery path is lossless: parameters, `v_train` and the
    /// applied-push watermarks all survive bit-exactly.
    #[test]
    fn capture_encode_decode_restore_is_bit_exact(
        params in arb_params(),
        v_train in 0u64..100,
        workers in 1u32..5,
        raw_marks in prop::collection::vec(0u64..100, 1..5),
    ) {
        // 0 = no applied push from that worker, n = applied at progress n-1.
        let watermarks: Vec<Option<u64>> =
            raw_marks.iter().map(|&x| x.checked_sub(1)).collect();
        let mut src = shard(workers);
        for (key, bits) in &params {
            src.init_param(*key, bits.iter().map(|b| f32::from_bits(*b)).collect::<Vec<_>>());
        }
        src.fast_forward(v_train);
        let keys: Vec<u64> = params.iter().map(|(k, _)| *k).collect();

        let cp = ShardCheckpoint::capture_with_applied(&src, &keys, &watermarks);
        let decoded = ShardCheckpoint::from_bytes(cp.to_bytes()).expect("decode");
        // Field-by-field, with values compared bitwise: NaN payloads must
        // survive but defeat `PartialEq`.
        prop_assert_eq!(decoded.v_train, cp.v_train);
        prop_assert_eq!(&decoded.params.keys, &cp.params.keys);
        prop_assert_eq!(&decoded.params.lens, &cp.params.lens);
        let decoded_bits: Vec<u32> = decoded.params.vals.iter().map(|v| v.to_bits()).collect();
        let cp_bits: Vec<u32> = cp.params.vals.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(decoded_bits, cp_bits);
        prop_assert_eq!(decoded.applied_watermarks(), watermarks);

        let mut restored = shard(workers);
        decoded.restore_into(&mut restored);
        prop_assert_eq!(restored.v_train(), v_train);
        for (key, bits) in &params {
            let vals = restored.read_param(*key).expect("restored param");
            let got: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, bits, "key {} drifted", key);
        }
    }

    /// Decoding arbitrary garbage returns `DecodeError`, never panics.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = ShardCheckpoint::from_bytes(Bytes::from(bytes));
    }

    /// Every truncation of a valid checkpoint is rejected with an error.
    #[test]
    fn truncations_are_rejected(
        v_train in 0u64..50,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut src = shard(2);
        src.init_param(3, vec![1.5, -2.5, 0.25]);
        src.fast_forward(v_train);
        let full = ShardCheckpoint::capture(&src, &[3]).to_bytes();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(ShardCheckpoint::from_bytes(full.slice(0..cut)).is_err());
    }
}
