//! Snapshot version compatibility matrix: every on-disk format version
//! ever shipped (v1 through the current v6) must keep loading, each
//! yielding the same network. The streams are built by byte surgery,
//! which pins the wire layout itself, not just the writer/reader pair
//! of this build:
//!
//! - the v6 stream as older writers produced it, with a nonzero width
//!   word and every dispatch block filled in, is the current writer's
//!   stream with hand-encoded values spliced in and the checksum
//!   trailer recomputed;
//! - the older versions are derived from that stream by stripping the
//!   blocks each version predates and rewriting the version word.
//!
//! Version history under test:
//!   v1  network structure only
//!   v2  + a probed lockstep width
//!   v3  + density_thresholds
//!   v4  + packed_thresholds
//!   v5  + FNV-1a content checksum trailer
//!   v6  + quant thresholds / eligibility / int8 tables
//!
//! No reader acts on the v2 width any more, and the v3, v4 and v6
//! blocks belong to kernels the engine no longer has: the reader parses
//! them all and discards them, and the writer emits them zero or
//! empty.

use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
use bsnn_core::snapshot::{fnv1a, load_network, save_network, SnapshotError};
use bsnn_core::synapse::Synapse;
use bsnn_core::SpikingNetwork;
use bsnn_tensor::Tensor;

const IN: usize = 6;
const HID: usize = 4;
const OUT: usize = 3;

/// Offset of the v2 width word, right after magic + version.
const META_START: usize = 8;

/// The width older writers recorded in the v2 word.
const LEGACY_WIDTH: u32 = 16;

fn ramp_weight(n_in: usize, n_out: usize, step: f32) -> Tensor {
    Tensor::from_vec(
        (0..n_in * n_out)
            .map(|i| (i as f32).mul_add(step, -0.4))
            .collect(),
        &[n_in, n_out],
    )
    .unwrap()
}

fn network() -> SpikingNetwork {
    let hidden = SpikingLayer::new(
        Synapse::Dense {
            weight: ramp_weight(IN, HID, 0.037),
        },
        Some((0..HID).map(|i| i as f32 * 0.01).collect()),
        ThresholdPolicy::Burst {
            vth: 0.3,
            beta: 2.0,
        },
    )
    .unwrap();
    let out = Synapse::Dense {
        weight: ramp_weight(HID, OUT, 0.083),
    };
    SpikingNetwork::new(IN, vec![hidden], out, None).unwrap()
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f32s(out: &mut Vec<u8>, values: &[f32]) {
    push_u32(out, values.len() as u32);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// One int8 table as older writers encoded it: tag 1, the `n_in × n_out`
/// shape, `n_in · n_out` two's-complement codes, then `n_out` scales.
fn push_table(out: &mut Vec<u8>, n_in: usize, n_out: usize) {
    out.push(1);
    push_u32(out, n_in as u32);
    push_u32(out, n_out as u32);
    out.extend((0..n_in * n_out).map(|i| (i as i8).wrapping_mul(37).wrapping_sub(64) as u8));
    for j in 0..n_out {
        out.extend_from_slice(&(0.004 * (j + 1) as f32).to_le_bytes());
    }
}

/// The dispatch blocks of a fully calibrated model, as older writers
/// encoded them after the width word, one byte string per block:
/// density (v3), packed (v4), and quant thresholds + eligibility +
/// int8 tables (v6).
fn legacy_blocks() -> [Vec<u8>; 3] {
    let mut density = Vec::new();
    push_f32s(&mut density, &[0.5, 0.25]);
    let mut packed = Vec::new();
    push_f32s(&mut packed, &[0.125, 0.0625]);
    let mut quant = Vec::new();
    push_f32s(&mut quant, &[0.05, 0.075]);
    push_u32(&mut quant, 2);
    quant.extend_from_slice(&[1, 0]);
    push_u32(&mut quant, 2);
    push_table(&mut quant, IN, HID);
    push_table(&mut quant, HID, OUT);
    [density, packed, quant]
}

/// The v6 stream as older writers produced it: the current writer's
/// stream with its zero width word replaced by [`LEGACY_WIDTH`], its
/// five empty dispatch blocks replaced by [`legacy_blocks`], and the
/// FNV-1a trailer recomputed. `downgrade` in reverse.
fn legacy_v6(current: &[u8]) -> Vec<u8> {
    let zeros = META_START..META_START + 4 + 4 * 5;
    assert!(
        current[zeros.clone()].iter().all(|&b| b == 0),
        "the writer emits a zero width and five empty dispatch blocks"
    );
    let mut out = current[..zeros.start].to_vec();
    out.extend_from_slice(&LEGACY_WIDTH.to_le_bytes());
    for block in legacy_blocks() {
        out.extend_from_slice(&block);
    }
    out.extend_from_slice(&current[zeros.end..current.len() - 8]);
    let digest = fnv1a(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// End offsets, in a [`legacy_v6`] stream, of each metadata
/// generation: the width word (v2), density (v3), packed (v4, v5) and
/// the v6 blocks.
struct Blocks {
    width: usize,
    density: usize,
    packed: usize,
    quant: usize,
}

fn blocks() -> Blocks {
    let [density, packed, quant] = legacy_blocks();
    let width = META_START + 4;
    Blocks {
        width,
        density: width + density.len(),
        packed: width + density.len() + packed.len(),
        quant: width + density.len() + packed.len() + quant.len(),
    }
}

/// Rewrites a legacy v6 stream as an earlier version: keeps metadata
/// blocks up to `keep_end`, drops the rest, stamps `version`, and
/// re-trailers (v5+) or strips the checksum (v4 and older).
fn downgrade(v6: &[u8], version: u32, keep_end: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(v6.len());
    out.extend_from_slice(&v6[..4]);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&v6[META_START..keep_end]);
    out.extend_from_slice(&v6[blocks().quant..v6.len() - 8]);
    if version >= 5 {
        let digest = fnv1a(&out);
        out.extend_from_slice(&digest.to_le_bytes());
    }
    out
}

fn current_v6(net: &SpikingNetwork) -> Vec<u8> {
    let mut v6 = Vec::new();
    save_network(net, &mut v6).unwrap();
    v6
}

fn assert_same_network(loaded: &SpikingNetwork, original: &SpikingNetwork) {
    assert_eq!(loaded.input_len(), original.input_len());
    assert_eq!(loaded.layers().len(), original.layers().len());
    for (a, b) in loaded.layers().iter().zip(original.layers()) {
        match (a.synapse(), b.synapse()) {
            (Synapse::Dense { weight: wa }, Synapse::Dense { weight: wb }) => {
                assert_eq!(wa.as_slice(), wb.as_slice());
            }
            _ => panic!("synapse kind changed across the round trip"),
        }
        assert_eq!(a.bias(), b.bias());
    }
    match (loaded.output_synapse(), original.output_synapse()) {
        (Synapse::Dense { weight: wa }, Synapse::Dense { weight: wb }) => {
            assert_eq!(wa.as_slice(), wb.as_slice());
        }
        _ => panic!("output synapse kind changed across the round trip"),
    }
}

#[test]
fn every_snapshot_version_loads_with_its_eras_metadata() {
    let net = network();
    let current = current_v6(&net);
    let loaded = load_network(&current[..]).expect("current v6 loads");
    assert_same_network(&loaded, &net);
    let v6 = legacy_v6(&current);
    let b = blocks();

    // v1 predates the metadata block; every later version carries the
    // width word, and it and the dispatch blocks are discarded.
    let cases = [
        (1u32, META_START),
        (2, b.width),
        (3, b.density),
        (4, b.packed),
        (5, b.packed),
        (6, b.quant),
    ];
    for (version, keep_end) in cases {
        let stream = downgrade(&v6, version, keep_end);
        if version == 6 {
            assert_eq!(stream, v6, "v6 downgrade must be the identity");
        }
        if version >= 2 {
            assert_eq!(
                stream[META_START..META_START + 4],
                LEGACY_WIDTH.to_le_bytes(),
                "v{version} carries a nonzero width"
            );
        }
        let loaded = load_network(&stream[..])
            .unwrap_or_else(|e| panic!("v{version} stream failed to load: {e}"));
        assert_same_network(&loaded, &net);
    }
}

#[test]
fn checksummed_versions_reject_corruption_unchecksummed_do_not_pretend_to() {
    let net = network();
    let v6 = legacy_v6(&current_v6(&net));
    let b = blocks();
    for (version, keep_end) in [(5u32, b.packed), (6, b.quant)] {
        let mut stream = downgrade(&v6, version, keep_end);
        // Flip inside the last output weight: structurally sound, so
        // only the content checksum can catch it.
        let idx = stream.len() - 16;
        stream[idx] ^= 0x10;
        match load_network(&stream[..]) {
            Err(SnapshotError::Checksum { expected, actual }) => {
                assert_ne!(expected, actual, "v{version} checksum fields")
            }
            other => panic!("v{version} corrupt stream gave {other:?}"),
        }
    }
    // A flip inside a discarded int8 table is still content the
    // checksum covers.
    let mut stream = v6.clone();
    stream[b.quant - 10] ^= 0x01;
    assert!(matches!(
        load_network(&stream[..]),
        Err(SnapshotError::Checksum { .. })
    ));
    // v4 predates the trailer: the same flip decodes silently — the
    // documented (weaker) contract for legacy streams.
    let mut v4 = downgrade(&v6, 4, b.packed);
    let idx = v4.len() - 8;
    v4[idx] ^= 0x10;
    load_network(&v4[..]).expect("v4 has no integrity trailer");
}

#[test]
fn future_versions_are_refused_up_front() {
    let net = network();
    let v6 = legacy_v6(&current_v6(&net));
    let stream = downgrade(&v6, 7, blocks().quant);
    match load_network(&stream[..]) {
        Err(SnapshotError::Format(msg)) => {
            assert!(msg.contains("version"), "unexpected message: {msg}")
        }
        other => panic!("v7 stream gave {other:?}"),
    }
}
