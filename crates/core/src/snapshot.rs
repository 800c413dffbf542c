//! Serialization of converted spiking networks.
//!
//! A [`SpikingNetwork`] is expensive to produce (it requires a trained
//! DNN plus a normalization pass), so deployments want to convert once
//! and ship the result. [`save_network`] / [`load_network`] implement a
//! small versioned binary format (magic `BSNN`, little-endian) over any
//! `Write`/`Read` — pass `&mut file` if you need the file back
//! afterwards.
//!
//! Format version 2 added a 4-byte word between the header and the
//! network body that recorded a probed lockstep width; no reader acts
//! on it any more, so writers emit 0 and readers discard it. Versions
//! 3, 4 and 6 extended that block with kernel-dispatch data for kernels
//! the engine no longer has: per-stage crossovers of an event-list
//! kernel (v3), of a bit-plane kernel (v4), and of an int8 kernel with
//! its accuracy-gate verdicts and weight tables (v6). Readers still
//! parse those blocks under the same length bounds (the checksum covers
//! them too) and then discard them; writers emit them empty. Version 5
//! appended an FNV-1a 64 content checksum over the entire stream (magic
//! through body) as an 8-byte little-endian trailer, so a torn or
//! bit-flipped file is rejected with a typed
//! [`SnapshotError::Checksum`] instead of whatever decode error the
//! corruption happens to trip. Version-1 through version-6 streams all
//! load (pre-v5 streams have no checksum verified). Writers emit
//! version 6.
//!
//! [`save_network_to_path`] writes through a temp file in the target
//! directory and atomically renames it into place, so a directory
//! watcher can never observe (let alone install) a half-written
//! snapshot.
//!
//! Every length field is bounded before it is trusted, and buffers grow
//! only as their bytes arrive, so a truncated or hostile stream fails
//! with a typed error after allocating little more than its own size.
//!
//! Only the *static* structure is serialized (weights, thresholds,
//! geometry); dynamic state (membrane potentials, burst functions) is
//! reset on load, matching what a fresh conversion produces.

use crate::layer::{ResetMode, SpikingLayer, ThresholdPolicy};
use crate::network::SpikingNetwork;
use crate::synapse::{Chw, Synapse};
use crate::SnnError;
use bsnn_tensor::conv::Conv2dGeometry;
use bsnn_tensor::Tensor;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"BSNN";
const VERSION: u32 = 6;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, continuing from `state` (seed with
/// [`FNV_OFFSET`] via [`fnv1a`] for a fresh digest).
fn fnv1a_update(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// FNV-1a 64 digest of `bytes` — the checksum function of snapshot
/// format v5 (public so tools can verify snapshots without decoding
/// them).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// A `Read` adapter that folds every byte it hands out into a running
/// FNV-1a digest, so the loader can checksum the stream exactly as
/// parsed without buffering it.
struct HashingReader<R> {
    inner: R,
    digest: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            digest: FNV_OFFSET,
        }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest = fnv1a_update(self.digest, &buf[..n]);
        Ok(n)
    }
}

/// Errors from reading or writing a network snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not a BSNN snapshot or uses an unsupported version.
    Format(String),
    /// The v5 content checksum does not match the stream — the file is
    /// torn or bit-flipped.
    Checksum {
        /// Checksum recorded in the stream's trailer.
        expected: u64,
        /// Checksum computed over the stream as read.
        actual: u64,
    },
    /// The decoded structure is internally inconsistent.
    Invalid(SnnError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            SnapshotError::Format(msg) => write!(f, "invalid snapshot format: {msg}"),
            SnapshotError::Checksum { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: stream says {expected:#018x}, \
                 content hashes to {actual:#018x}"
            ),
            SnapshotError::Invalid(e) => write!(f, "snapshot decodes to invalid network: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Invalid(e) => Some(e),
            SnapshotError::Format(_) | SnapshotError::Checksum { .. } => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnnError> for SnapshotError {
    fn from(e: SnnError) -> Self {
        SnapshotError::Invalid(e)
    }
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f32_slice<W: Write>(w: &mut W, v: &[f32]) -> io::Result<()> {
    write_u32(w, v.len() as u32)?;
    for &x in v {
        write_f32(w, x)?;
    }
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Largest weight or bias buffer a snapshot may declare, in elements.
const MAX_BUFFER_LEN: usize = 1 << 28;

/// Largest per-stage metadata list (the discarded crossovers, flags and
/// int8 tables) a snapshot may declare: one entry per stage of at most
/// 4096 layers.
const MAX_STAGE_COUNT: usize = 4097;

/// Largest up-front reservation a declared length may trigger, in
/// bytes. Longer buffers grow as their bytes arrive, so a length field
/// alone can never make the loader allocate more than this.
const MAX_PREALLOC_BYTES: usize = 64 << 10;

/// Reads a length-prefixed `f32` list of at most `max` entries; `what`
/// names the list in the error for a longer declared length.
fn read_f32_vec<R: Read>(r: &mut R, max: usize, what: &str) -> Result<Vec<f32>, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > max {
        return Err(SnapshotError::Format(format!("implausible {what} {len}")));
    }
    let mut out = Vec::with_capacity(len.min(MAX_PREALLOC_BYTES / 4));
    for _ in 0..len {
        out.push(read_f32(r)?);
    }
    Ok(out)
}

/// A weight or bias buffer.
fn read_buffer<R: Read>(r: &mut R) -> Result<Vec<f32>, SnapshotError> {
    read_f32_vec(r, MAX_BUFFER_LEN, "buffer length")
}

/// Reads the v6 int8-eligibility block (a length-prefixed list of 0/1
/// bytes) and discards it.
fn skip_bool_list<R: Read>(r: &mut R) -> Result<(), SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > MAX_STAGE_COUNT {
        return Err(SnapshotError::Format(format!(
            "implausible flag count {len}"
        )));
    }
    for _ in 0..len {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if b[0] > 1 {
            return Err(SnapshotError::Format(format!("unknown flag byte {}", b[0])));
        }
    }
    Ok(())
}

/// Reads the v6 int8-table block and discards it: a count, then per
/// stage a tag (0 = none, 1 = table) and for a table its `in × out`
/// shape, `in · out` code bytes and `out` scales. The codes are skipped
/// through a fixed buffer, so a declared shape never drives allocation.
fn skip_quant_tables<R: Read>(r: &mut R) -> Result<(), SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > MAX_STAGE_COUNT {
        return Err(SnapshotError::Format(format!(
            "implausible quant table count {len}"
        )));
    }
    for _ in 0..len {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        match tag[0] {
            0 => {}
            1 => {
                let in_len = read_u32(r)? as usize;
                let out_len = read_u32(r)? as usize;
                let n = in_len.saturating_mul(out_len);
                if in_len == 0 || out_len == 0 || n > MAX_BUFFER_LEN {
                    return Err(SnapshotError::Format(format!(
                        "implausible quant table shape {in_len}x{out_len}"
                    )));
                }
                let bytes = (n + 4 * out_len) as u64;
                if io::copy(&mut r.by_ref().take(bytes), &mut io::sink())? != bytes {
                    return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
                }
            }
            tag => return Err(SnapshotError::Format(format!("unknown quant tag {tag}"))),
        }
    }
    Ok(())
}

fn write_geom<W: Write>(w: &mut W, g: &Conv2dGeometry) -> io::Result<()> {
    for v in [
        g.kernel_h, g.kernel_w, g.stride_h, g.stride_w, g.pad_h, g.pad_w,
    ] {
        write_u32(w, v as u32)?;
    }
    Ok(())
}

fn read_geom<R: Read>(r: &mut R) -> io::Result<Conv2dGeometry> {
    Ok(Conv2dGeometry {
        kernel_h: read_u32(r)? as usize,
        kernel_w: read_u32(r)? as usize,
        stride_h: read_u32(r)? as usize,
        stride_w: read_u32(r)? as usize,
        pad_h: read_u32(r)? as usize,
        pad_w: read_u32(r)? as usize,
    })
}

fn write_chw<W: Write>(w: &mut W, c: &Chw) -> io::Result<()> {
    write_u32(w, c.c as u32)?;
    write_u32(w, c.h as u32)?;
    write_u32(w, c.w as u32)
}

fn read_chw<R: Read>(r: &mut R) -> io::Result<Chw> {
    Ok(Chw::new(
        read_u32(r)? as usize,
        read_u32(r)? as usize,
        read_u32(r)? as usize,
    ))
}

fn write_synapse<W: Write>(w: &mut W, s: &Synapse) -> io::Result<()> {
    match s {
        Synapse::Dense { weight } => {
            write_u32(w, 0)?;
            write_u32(w, weight.shape()[0] as u32)?;
            write_u32(w, weight.shape()[1] as u32)?;
            write_f32_slice(w, weight.as_slice())
        }
        Synapse::Conv {
            weight,
            geom,
            in_shape,
            out_shape,
        } => {
            write_u32(w, 1)?;
            for d in weight.shape() {
                write_u32(w, *d as u32)?;
            }
            write_geom(w, geom)?;
            write_chw(w, in_shape)?;
            write_chw(w, out_shape)?;
            write_f32_slice(w, weight.as_slice())
        }
        Synapse::Pool {
            geom,
            in_shape,
            out_shape,
            scale,
        } => {
            write_u32(w, 2)?;
            write_geom(w, geom)?;
            write_chw(w, in_shape)?;
            write_chw(w, out_shape)?;
            write_f32(w, *scale)
        }
    }
}

fn read_synapse<R: Read>(r: &mut R) -> Result<Synapse, SnapshotError> {
    match read_u32(r)? {
        0 => {
            let rows = read_u32(r)? as usize;
            let cols = read_u32(r)? as usize;
            let data = read_buffer(r)?;
            let weight = Tensor::from_vec(data, &[rows, cols])
                .map_err(|e| SnapshotError::Invalid(e.into()))?;
            Ok(Synapse::Dense { weight })
        }
        1 => {
            let shape: Vec<usize> = (0..4)
                .map(|_| read_u32(r).map(|v| v as usize))
                .collect::<io::Result<_>>()?;
            let geom = read_geom(r)?;
            let in_shape = read_chw(r)?;
            let out_shape = read_chw(r)?;
            let data = read_buffer(r)?;
            let weight =
                Tensor::from_vec(data, &shape).map_err(|e| SnapshotError::Invalid(e.into()))?;
            Ok(Synapse::Conv {
                weight,
                geom,
                in_shape,
                out_shape,
            })
        }
        2 => Ok(Synapse::Pool {
            geom: read_geom(r)?,
            in_shape: read_chw(r)?,
            out_shape: read_chw(r)?,
            scale: read_f32(r)?,
        }),
        tag => Err(SnapshotError::Format(format!("unknown synapse tag {tag}"))),
    }
}

fn write_policy<W: Write>(w: &mut W, p: &ThresholdPolicy) -> io::Result<()> {
    match *p {
        ThresholdPolicy::Fixed { vth } => {
            write_u32(w, 0)?;
            write_f32(w, vth)
        }
        ThresholdPolicy::Phase { vth, period } => {
            write_u32(w, 1)?;
            write_f32(w, vth)?;
            write_u32(w, period)
        }
        ThresholdPolicy::Burst { vth, beta } => {
            write_u32(w, 2)?;
            write_f32(w, vth)?;
            write_f32(w, beta)
        }
    }
}

fn read_policy<R: Read>(r: &mut R) -> Result<ThresholdPolicy, SnapshotError> {
    match read_u32(r)? {
        0 => Ok(ThresholdPolicy::Fixed { vth: read_f32(r)? }),
        1 => Ok(ThresholdPolicy::Phase {
            vth: read_f32(r)?,
            period: read_u32(r)?,
        }),
        2 => Ok(ThresholdPolicy::Burst {
            vth: read_f32(r)?,
            beta: read_f32(r)?,
        }),
        tag => Err(SnapshotError::Format(format!("unknown policy tag {tag}"))),
    }
}

/// Writes a network snapshot (format version 6: the stream ends with
/// an FNV-1a 64 checksum over everything before it; pass `&mut writer`
/// to keep ownership).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn save_network<W: Write>(net: &SpikingNetwork, mut writer: W) -> Result<(), SnapshotError> {
    // Serialize into memory first so the checksum covers the exact
    // bytes written and the caller's writer sees one contiguous stream.
    let mut buf = Vec::new();
    write_snapshot_body(net, &mut buf)?;
    let digest = fnv1a(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    writer.write_all(&buf)?;
    Ok(())
}

/// Writes a network snapshot to `path` atomically: the bytes go to a
/// `.tmp` sibling first and are renamed into place only once complete,
/// so a concurrent reader (e.g. a snapshot watcher) can never observe a
/// torn file under `path`.
///
/// # Errors
///
/// Returns I/O errors from writing or renaming the temp file.
pub fn save_network_to_path<P: AsRef<std::path::Path>>(
    net: &SpikingNetwork,
    path: P,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        save_network(net, &mut file)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Serializes the whole snapshot except the v5 checksum trailer.
fn write_snapshot_body<W: Write>(net: &SpikingNetwork, mut writer: W) -> Result<(), SnapshotError> {
    writer.write_all(MAGIC)?;
    write_u32(&mut writer, VERSION)?;
    // The v2 width word (0), then the v3–v6 dispatch blocks (density,
    // packed and quant crossovers, int8 eligibility, int8 tables), each
    // an empty list.
    for _ in 0..6 {
        write_u32(&mut writer, 0)?;
    }
    write_u32(&mut writer, net.input_len() as u32)?;
    write_u32(&mut writer, net.layers().len() as u32)?;
    for layer in net.layers() {
        write_policy(&mut writer, &layer.policy())?;
        write_u32(
            &mut writer,
            match layer.reset_mode() {
                ResetMode::Subtraction => 0,
                ResetMode::Zero => 1,
            },
        )?;
        match layer.bias() {
            Some(b) => {
                write_u32(&mut writer, 1)?;
                write_f32_slice(&mut writer, b)?;
            }
            None => write_u32(&mut writer, 0)?,
        }
        write_synapse(&mut writer, layer.synapse())?;
    }
    write_synapse(&mut writer, net.output_synapse())?;
    match net.output_bias() {
        Some(b) => {
            write_u32(&mut writer, 1)?;
            write_f32_slice(&mut writer, b)?;
        }
        None => write_u32(&mut writer, 0)?,
    }
    Ok(())
}

/// Reads a network snapshot produced by [`save_network`] or by an
/// older writer. The version-2 width word and the version-3, -4 and -6
/// dispatch blocks are parsed and discarded; version-4 and older
/// streams (which predate the content checksum) decode without
/// integrity verification.
///
/// # Errors
///
/// Returns [`SnapshotError::Format`] for corrupt or foreign streams,
/// [`SnapshotError::Checksum`] when a v5+ stream's content does not
/// hash to its recorded trailer, and [`SnapshotError::Invalid`] if the
/// decoded stages are mutually inconsistent.
pub fn load_network<R: Read>(reader: R) -> Result<SpikingNetwork, SnapshotError> {
    let mut reader = HashingReader::new(reader);
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::Format("bad magic".into()));
    }
    let version = read_u32(&mut reader)?;
    match version {
        1 => {}
        2..=6 => {
            // The width word and the dispatch blocks of removed
            // kernels: parsed, then dropped.
            read_u32(&mut reader)?;
            if version >= 3 {
                read_f32_vec(&mut reader, MAX_STAGE_COUNT, "threshold count")?;
            }
            if version >= 4 {
                read_f32_vec(&mut reader, MAX_STAGE_COUNT, "packed threshold count")?;
            }
            if version >= 6 {
                read_f32_vec(&mut reader, MAX_STAGE_COUNT, "quant threshold count")?;
                skip_bool_list(&mut reader)?;
                skip_quant_tables(&mut reader)?;
            }
        }
        other => {
            return Err(SnapshotError::Format(format!(
                "unsupported snapshot version {other}"
            )))
        }
    }
    let input_len = read_u32(&mut reader)? as usize;
    let n_layers = read_u32(&mut reader)? as usize;
    if n_layers > 4096 {
        return Err(SnapshotError::Format(format!(
            "implausible layer count {n_layers}"
        )));
    }
    let mut layers = Vec::new();
    for _ in 0..n_layers {
        let policy = read_policy(&mut reader)?;
        let reset = match read_u32(&mut reader)? {
            0 => ResetMode::Subtraction,
            1 => ResetMode::Zero,
            tag => return Err(SnapshotError::Format(format!("unknown reset tag {tag}"))),
        };
        let bias = match read_u32(&mut reader)? {
            0 => None,
            1 => Some(read_buffer(&mut reader)?),
            tag => return Err(SnapshotError::Format(format!("unknown bias tag {tag}"))),
        };
        let synapse = read_synapse(&mut reader)?;
        let mut layer = SpikingLayer::new(synapse, bias, policy)?;
        layer.set_reset_mode(reset);
        layers.push(layer);
    }
    let output_synapse = read_synapse(&mut reader)?;
    let output_bias = match read_u32(&mut reader)? {
        0 => None,
        1 => Some(read_buffer(&mut reader)?),
        tag => return Err(SnapshotError::Format(format!("unknown bias tag {tag}"))),
    };
    let net = SpikingNetwork::new(input_len, layers, output_synapse, output_bias)?;
    if version >= 5 {
        // The digest must be captured before the trailer passes through
        // the hashing reader (the checksum covers magic through body).
        let actual = reader.digest;
        let mut trailer = [0u8; 8];
        reader.read_exact(&mut trailer)?;
        let expected = u64::from_le_bytes(trailer);
        if expected != actual {
            return Err(SnapshotError::Checksum { expected, actual });
        }
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::{CodingScheme, HiddenCoding, InputCoding};
    use crate::convert::{convert, ConversionConfig};
    use crate::simulator::{infer_image, EvalConfig};
    use bsnn_data::SynthSpec;
    use bsnn_dnn::models;

    fn sample_network(hidden: HiddenCoding) -> (SpikingNetwork, Vec<f32>, CodingScheme) {
        let (train, test) = SynthSpec::digits().with_counts(6, 2).generate();
        let mut dnn = models::vgg_tiny(1, 12, 12, 10, 0).expect("model");
        let (batch, _) = train.batch(&[0, 1, 2, 3]);
        let scheme = CodingScheme::new(InputCoding::Phase, hidden);
        let net = convert(&mut dnn, &batch, &ConversionConfig::new(scheme)).expect("conversion");
        (net, test.image(0).to_vec(), scheme)
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        for hidden in [HiddenCoding::Rate, HiddenCoding::Phase, HiddenCoding::Burst] {
            let (mut original, image, scheme) = sample_network(hidden);
            let mut buf = Vec::new();
            save_network(&original, &mut buf).expect("save");
            let mut restored = load_network(buf.as_slice()).expect("load");

            let cfg = EvalConfig::new(scheme, 48);
            let a = infer_image(&mut original, &image, &cfg).expect("run original");
            let b = infer_image(&mut restored, &image, &cfg).expect("run restored");
            assert_eq!(a.predictions, b.predictions, "{hidden:?}");
            assert_eq!(a.cum_spikes, b.cum_spikes, "{hidden:?}");
            assert_eq!(
                original.output_potentials(),
                restored.output_potentials(),
                "{hidden:?}"
            );
        }
    }

    #[test]
    fn round_trip_preserves_structure() {
        let (net, _, _) = sample_network(HiddenCoding::Burst);
        let mut buf = Vec::new();
        save_network(&net, &mut buf).expect("save");
        let restored = load_network(buf.as_slice()).expect("load");
        assert_eq!(net.input_len(), restored.input_len());
        assert_eq!(net.output_len(), restored.output_len());
        assert_eq!(net.num_neurons(), restored.num_neurons());
        assert_eq!(net.layers().len(), restored.layers().len());
        for (a, b) in net.layers().iter().zip(restored.layers()) {
            assert_eq!(a.policy(), b.policy());
            assert_eq!(a.reset_mode(), b.reset_mode());
            assert_eq!(a.bias(), b.bias());
        }
    }

    #[test]
    fn meta_round_trip_and_v1_v2_compat() {
        let (net, _, _) = sample_network(HiddenCoding::Burst);
        let mut current = Vec::new();
        save_network(&net, &mut current).expect("save");
        // Re-saving a loaded network reproduces the current stream byte
        // for byte, so every field of the structure survived.
        let same_network = |restored: SpikingNetwork, era: &str| {
            let mut again = Vec::new();
            save_network(&restored, &mut again).expect("re-save");
            assert!(again == current, "{era} stream decoded to another network");
        };
        // The v6 header is magic + version + the v2 width word + five
        // empty dispatch blocks, all written as zero; the network body
        // follows, and the stream ends with the 8-byte checksum trailer
        // (stripped below — pre-v5 streams have no trailer).
        let body = 12 + 4 * 5;
        assert!(current[8..body].iter().all(|&b| b == 0));
        let buf = &current[..current.len() - 8];
        // A version-1 stream (no metadata block at all) still loads.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&buf[body..]);
        same_network(load_network(v1.as_slice()).expect("load v1"), "v1");
        // A version-2 stream (a width word, no dispatch blocks) loads,
        // and its nonzero width is discarded.
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&8u32.to_le_bytes());
        v2.extend_from_slice(&buf[body..]);
        same_network(load_network(v2.as_slice()).expect("load v2"), "v2");
        // A version-3 stream's density crossovers are read and dropped.
        let mut v3 = Vec::new();
        v3.extend_from_slice(MAGIC);
        v3.extend_from_slice(&3u32.to_le_bytes());
        v3.extend_from_slice(&8u32.to_le_bytes());
        v3.extend_from_slice(&2u32.to_le_bytes());
        v3.extend_from_slice(&0.25f32.to_le_bytes());
        v3.extend_from_slice(&0.5f32.to_le_bytes());
        v3.extend_from_slice(&buf[body..]);
        same_network(load_network(v3.as_slice()).expect("load v3"), "v3");
        // A version-4 stream (two crossover blocks, no checksum trailer)
        // is the v6 bytes minus the trailer and the three v6 blocks with
        // the version and width rewritten — it loads without integrity
        // verification.
        let mut v4 = buf[..body - 4 * 3].to_vec();
        v4.extend_from_slice(&buf[body..]);
        v4[4..8].copy_from_slice(&4u32.to_le_bytes());
        v4[8..12].copy_from_slice(&16u32.to_le_bytes());
        same_network(load_network(v4.as_slice()).expect("load v4"), "v4");
        // A version-5 stream is the same bytes plus a recomputed
        // checksum trailer — it loads with integrity verification.
        let mut v5 = v4.clone();
        v5[4..8].copy_from_slice(&5u32.to_le_bytes());
        let digest = fnv1a(&v5);
        v5.extend_from_slice(&digest.to_le_bytes());
        same_network(load_network(v5.as_slice()).expect("load v5"), "v5");
    }

    #[test]
    fn checksum_rejects_bit_flips_anywhere_in_the_body() {
        let (net, _, _) = sample_network(HiddenCoding::Rate);
        let mut buf = Vec::new();
        save_network(&net, &mut buf).expect("save");
        assert!(load_network(buf.as_slice()).is_ok(), "pristine loads");
        // Flip one bit at several deterministic offsets spread across
        // the stream; every corruption must be rejected, and ones the
        // structural decode can't see must be caught by the checksum.
        let len = buf.len() - 8; // body only; trailer flips are covered below
        let mut checksum_hits = 0;
        for k in 1..=7u64 {
            let at = (k.wrapping_mul(0x9e37_79b9_7f4a_7c15) % len as u64) as usize;
            let mut bad = buf.clone();
            bad[at] ^= 1 << (k % 8);
            match load_network(bad.as_slice()) {
                Ok(_) => panic!("bit flip at {at} loaded"),
                Err(SnapshotError::Checksum { expected, actual }) => {
                    assert_ne!(expected, actual);
                    checksum_hits += 1;
                }
                Err(_) => {} // structural decode tripped first — fine
            }
        }
        assert!(checksum_hits > 0, "checksum must catch silent flips");
        // A flipped trailer byte is also a checksum mismatch.
        let mut bad = buf.clone();
        let at = buf.len() - 3;
        bad[at] ^= 0x10;
        assert!(matches!(
            load_network(bad.as_slice()),
            Err(SnapshotError::Checksum { .. })
        ));
    }

    #[test]
    fn atomic_path_save_round_trips_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!(
            "bsnn-snap-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.bsnn");
        let (net, _, _) = sample_network(HiddenCoding::Rate);
        save_network_to_path(&net, &path).expect("atomic save");
        let file = std::fs::File::open(&path).unwrap();
        let restored = load_network(file).expect("load");
        assert_eq!(restored.num_neurons(), net.num_neurons());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file must be renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load_network(&b"NOPE00000000"[..]).unwrap_err();
        assert!(matches!(err, SnapshotError::Format(_)));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            load_network(buf.as_slice()).unwrap_err(),
            SnapshotError::Format(_)
        ));
    }

    #[test]
    fn rejects_conv_weight_that_disagrees_with_geometry() {
        // A [2, 1, 1, 1] weight under a 3×3 geometry: without the
        // construction check this loads and then panics on first use.
        let bad = Synapse::Conv {
            weight: Tensor::zeros(&[2, 1, 1, 1]),
            geom: Conv2dGeometry::square(3, 1, 1),
            in_shape: Chw::new(1, 4, 4),
            out_shape: Chw::new(2, 4, 4),
        };
        let output = Synapse::Dense {
            weight: Tensor::zeros(&[32, 2]),
        };
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_u32(&mut buf, VERSION).unwrap();
        for _ in 0..6 {
            // the width word, then the five empty dispatch blocks
            write_u32(&mut buf, 0).unwrap();
        }
        write_u32(&mut buf, 16).unwrap(); // input length
        write_u32(&mut buf, 1).unwrap(); // hidden stages
        write_policy(&mut buf, &ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        write_u32(&mut buf, 0).unwrap(); // reset by subtraction
        write_u32(&mut buf, 0).unwrap(); // no bias
        write_synapse(&mut buf, &bad).unwrap();
        write_synapse(&mut buf, &output).unwrap();
        write_u32(&mut buf, 0).unwrap(); // no output bias
        let digest = fnv1a(&buf);
        buf.extend_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            load_network(buf.as_slice()).unwrap_err(),
            SnapshotError::Invalid(SnnError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_truncated_stream() {
        let (net, _, _) = sample_network(HiddenCoding::Rate);
        let mut buf = Vec::new();
        save_network(&net, &mut buf).expect("save");
        buf.truncate(buf.len() / 2);
        assert!(load_network(buf.as_slice()).is_err());
    }
}
