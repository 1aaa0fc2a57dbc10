//! Wire stability: the exact bytes of the tensor-carrying messages, pinned
//! against fixtures produced by the scalar-loop encoder that preceded the
//! slab codec (commit bc03ef5). A codec change that moves one byte on the
//! wire — element order, endianness, a count word — fails here before it
//! can strand a peer running the previous build.

use fluentps_transport::codec::{decode, encode};
use fluentps_transport::msg::{CausalCtx, KvPairs, Message, WirePlacement};
use fluentps_util::buf::Bytes;

/// Values whose bit patterns a lossy float path would disturb: a quiet NaN
/// with a payload, a signalling NaN, −0.0, the smallest subnormal, ±inf.
fn awkward_vals() -> Vec<f32> {
    [
        0x7FC0_1234u32,
        0x7F80_0001,
        0x8000_0000,
        0x0000_0001,
        0x7F80_0000,
        0xFF80_0000,
    ]
    .iter()
    .map(|&b| f32::from_bits(b))
    .collect()
}

fn kv() -> KvPairs {
    KvPairs::from_slices(&[
        (1, &[1.5, -2.5][..]),
        ((7 << 40) | 2, &awkward_vals()[..]),
        (u64::MAX, &[][..]),
        (9, &[0.0][..]),
    ])
}

fn fixtures() -> Vec<(&'static str, Message, &'static str)> {
    vec![
        (
            "SPush",
            Message::SPush {
                worker: 3,
                progress: 42,
                kv: kv(),
            },
            SPUSH_HEX,
        ),
        (
            "PullResponse",
            Message::PullResponse {
                server: 1,
                progress: 9,
                version: 13,
                kv: kv(),
            },
            PULL_RESPONSE_HEX,
        ),
        (
            "SPull",
            Message::SPull {
                worker: 7,
                progress: 11,
                keys: vec![0, 5, (3 << 40) | 1, u64::MAX],
            },
            SPULL_HEX,
        ),
        ("Install", Message::Install { kv: kv() }, INSTALL_HEX),
        (
            "RouteUpdate",
            Message::RouteUpdate {
                placements: vec![
                    WirePlacement {
                        orig_key: 0,
                        new_key: 1 << 40,
                        server: 1,
                        offset: 0,
                        len: 16,
                    },
                    WirePlacement {
                        orig_key: 3,
                        new_key: (3 << 40) | 16,
                        server: 0,
                        offset: 0x0102_0304,
                        len: u32::MAX,
                    },
                ],
            },
            ROUTE_UPDATE_HEX,
        ),
        (
            "Traced SPush",
            Message::SPush {
                worker: 3,
                progress: 42,
                kv: kv(),
            }
            .with_ctx(CausalCtx::new((4u64 << 40) | 7).retry(2).span(5)),
            TRACED_SPUSH_HEX,
        ),
    ]
}

const SPUSH_HEX: &str = concat!(
    "0101030000002a00000000000000040000000100000000000000020000000007",
    "0000ffffffffffffffff09000000000000000400000002000000060000000000",
    "000001000000090000000000c03f000020c03412c07f0100807f000000800100",
    "00000000807f000080ff00000000"
);
const PULL_RESPONSE_HEX: &str = concat!(
    "01040100000009000000000000000d0000000000000004000000010000000000",
    "00000200000000070000ffffffffffffffff0900000000000000040000000200",
    "0000060000000000000001000000090000000000c03f000020c03412c07f0100",
    "807f00000080010000000000807f000080ff00000000"
);
const SPULL_HEX: &str = concat!(
    "0102070000000b00000000000000040000000000000000000000050000000000",
    "00000100000000030000ffffffffffffffff"
);
const INSTALL_HEX: &str = concat!(
    "010a0400000001000000000000000200000000070000ffffffffffffffff0900",
    "0000000000000400000002000000060000000000000001000000090000000000",
    "c03f000020c03412c07f0100807f00000080010000000000807f000080ff0000",
    "0000"
);
const ROUTE_UPDATE_HEX: &str = concat!(
    "010b020000000000000000000000000000000001000001000000000000001000",
    "0000030000000000000010000000000300000000000004030201ffffffff"
);
const TRACED_SPUSH_HEX: &str = concat!(
    "011407000000000400000200050000000101030000002a000000000000000400",
    "000001000000000000000200000000070000ffffffffffffffff090000000000",
    "00000400000002000000060000000000000001000000090000000000c03f0000",
    "20c03412c07f0100807f00000080010000000000807f000080ff00000000"
);

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("fixture is hex"))
        .collect()
}

#[test]
fn encoder_output_is_byte_identical_to_the_parent_commit() {
    for (name, msg, hex) in fixtures() {
        assert_eq!(to_hex(&encode(&msg)), hex, "{name}: wire bytes moved");
    }
}

#[test]
fn parent_commit_bytes_decode_to_the_same_message() {
    for (name, msg, hex) in fixtures() {
        let back = decode(Bytes::from(from_hex(hex))).expect("fixture decodes");
        // NaN != NaN, so compare through a re-encode: bit-exact or not at all.
        assert_eq!(to_hex(&encode(&back)), hex, "{name}: decode lost bits");
        assert_eq!(
            std::mem::discriminant(&back),
            std::mem::discriminant(&msg),
            "{name}: wrong variant"
        );
    }
}
