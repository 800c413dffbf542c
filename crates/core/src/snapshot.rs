//! Serialization of converted spiking networks.
//!
//! A [`SpikingNetwork`] is expensive to produce (it requires a trained
//! DNN plus a normalization pass), so deployments want to convert once
//! and ship the result. [`save_network`] / [`load_network`] implement a
//! small versioned binary format (magic `BSNN`, little-endian) over any
//! `Write`/`Read` — pass `&mut file` if you need the file back
//! afterwards.
//!
//! Format version 2 added a [`SnapshotMeta`] block (the model's
//! autotuned `preferred_batch` lockstep width) between the header and
//! the network body, so deployment-time measurements travel with the
//! weights; version 3 extends the block with the per-stage sparse/dense
//! density crossovers measured by the same autotuning pass, version 4
//! appends the packed/dense crossovers for the bit-plane kernels, and
//! version 5 appends an FNV-1a 64 content checksum over the entire
//! stream (magic through body) as an 8-byte little-endian trailer, so a
//! torn or bit-flipped file is rejected with a typed
//! [`SnapshotError::Checksum`] instead of whatever decode error the
//! corruption happens to trip. Version 6 appends the quantized
//! inference artifacts: per-stage quant/dense crossovers, the accuracy
//! gate's eligibility verdicts, and the int8 weight tables themselves
//! (codes + per-column scales), so a serving process installs the exact
//! quantization that passed the gate instead of re-deriving it.
//! Version-1 through version-5 streams still load (missing fields
//! default, pre-v5 streams have no checksum verified). Writers emit
//! version 6.
//!
//! [`save_network_to_path`] writes through a temp file in the target
//! directory and atomically renames it into place, so a directory
//! watcher can never observe (let alone install) a half-written
//! snapshot.
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

/// Deployment metadata carried alongside the network structure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotMeta {
    /// Autotuned lockstep batch width the model should run at
    /// (`0` = no preference recorded; see
    /// [`crate::autotune::autotune_batch`]).
    pub preferred_batch: u32,
    /// Calibrated sparse/dense density crossovers — one per hidden
    /// stage plus the output synapse, in stage order (empty = none
    /// recorded; consumers fall back to
    /// [`crate::batch::DEFAULT_DENSITY_CROSSOVER`]).
    pub density_thresholds: Vec<f32>,
    /// Calibrated packed/dense density crossovers for the bit-plane
    /// kernels, same layout as `density_thresholds` (empty = none
    /// recorded; consumers fall back to
    /// [`crate::batch::DEFAULT_PACKED_CROSSOVER`]).
    pub packed_thresholds: Vec<f32>,
    /// Calibrated quant/dense density crossovers for the int8 kernels,
    /// same layout as `density_thresholds` (empty = none recorded;
    /// consumers fall back to
    /// [`crate::batch::DEFAULT_QUANT_CROSSOVER`]).
    pub quant_thresholds: Vec<f32>,
    /// Per-stage accuracy-gate verdicts from
    /// [`crate::autotune::autotune_batch`]: `true` means the stage may
    /// quantize under `Auto` dispatch (empty = gate never ran, which
    /// consumers treat as all-ineligible).
    pub quant_eligible: Vec<bool>,
    /// Int8 weight tables, one slot per dispatch stage (`None` for
    /// stages with no quantizable weight matrix; empty = no tables
    /// recorded, consumers re-derive from the f32 weights).
    pub quant_tables: Vec<Option<crate::quant::QuantizedDense>>,
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

fn read_f32_vec<R: Read>(r: &mut R) -> Result<Vec<f32>, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > 1 << 28 {
        return Err(SnapshotError::Format(format!(
            "implausible buffer length {len}"
        )));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(read_f32(r)?);
    }
    Ok(out)
}

fn write_bool_slice<W: Write>(w: &mut W, v: &[bool]) -> io::Result<()> {
    write_u32(w, v.len() as u32)?;
    for &b in v {
        w.write_all(&[b as u8])?;
    }
    Ok(())
}

fn read_bool_vec<R: Read>(r: &mut R) -> Result<Vec<bool>, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > 4097 {
        return Err(SnapshotError::Format(format!(
            "implausible flag count {len}"
        )));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        out.push(match b[0] {
            0 => false,
            1 => true,
            tag => return Err(SnapshotError::Format(format!("unknown flag byte {tag}"))),
        });
    }
    Ok(out)
}

fn write_quant_tables<W: Write>(
    w: &mut W,
    tables: &[Option<crate::quant::QuantizedDense>],
) -> io::Result<()> {
    write_u32(w, tables.len() as u32)?;
    for slot in tables {
        match slot {
            None => w.write_all(&[0u8])?,
            Some(qd) => {
                w.write_all(&[1u8])?;
                write_u32(w, qd.input_len() as u32)?;
                write_u32(w, qd.output_len() as u32)?;
                // i8 codes are raw two's-complement bytes.
                let bytes: Vec<u8> = qd.codes().iter().map(|&c| c as u8).collect();
                w.write_all(&bytes)?;
                for &s in qd.scales() {
                    write_f32(w, s)?;
                }
            }
        }
    }
    Ok(())
}

fn read_quant_tables<R: Read>(
    r: &mut R,
) -> Result<Vec<Option<crate::quant::QuantizedDense>>, SnapshotError> {
    let len = read_u32(r)? as usize;
    if len > 4097 {
        return Err(SnapshotError::Format(format!(
            "implausible quant table count {len}"
        )));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        match tag[0] {
            0 => out.push(None),
            1 => {
                let in_len = read_u32(r)? as usize;
                let out_len = read_u32(r)? as usize;
                if in_len == 0 || out_len == 0 || in_len.saturating_mul(out_len) > 1 << 28 {
                    return Err(SnapshotError::Format(format!(
                        "implausible quant table shape {in_len}x{out_len}"
                    )));
                }
                let mut bytes = vec![0u8; in_len * out_len];
                r.read_exact(&mut bytes)?;
                let codes: Vec<i8> = bytes.into_iter().map(|b| b as i8).collect();
                let mut scales = Vec::with_capacity(out_len);
                for _ in 0..out_len {
                    scales.push(read_f32(r)?);
                }
                let qd = crate::quant::QuantizedDense::from_parts(in_len, out_len, codes, scales)
                    .map_err(SnapshotError::Invalid)?;
                out.push(Some(qd));
            }
            tag => return Err(SnapshotError::Format(format!("unknown quant tag {tag}"))),
        }
    }
    Ok(out)
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
            let data = read_f32_vec(r)?;
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
            let data = read_f32_vec(r)?;
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

/// Writes a network snapshot with default metadata (pass `&mut writer`
/// to keep ownership).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn save_network<W: Write>(net: &SpikingNetwork, writer: W) -> Result<(), SnapshotError> {
    save_network_with_meta(net, SnapshotMeta::default(), writer)
}

/// Writes a network snapshot carrying `meta` (format version 5: the
/// stream ends with an FNV-1a 64 checksum over everything before it).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn save_network_with_meta<W: Write>(
    net: &SpikingNetwork,
    meta: SnapshotMeta,
    mut writer: W,
) -> Result<(), SnapshotError> {
    // Serialize into memory first so the checksum covers the exact
    // bytes written and the caller's writer sees one contiguous stream.
    let mut buf = Vec::new();
    write_snapshot_body(net, meta, &mut buf)?;
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
    meta: SnapshotMeta,
    path: P,
) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        save_network_with_meta(net, meta, &mut file)?;
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
fn write_snapshot_body<W: Write>(
    net: &SpikingNetwork,
    meta: SnapshotMeta,
    mut writer: W,
) -> Result<(), SnapshotError> {
    writer.write_all(MAGIC)?;
    write_u32(&mut writer, VERSION)?;
    write_u32(&mut writer, meta.preferred_batch)?;
    write_f32_slice(&mut writer, &meta.density_thresholds)?;
    write_f32_slice(&mut writer, &meta.packed_thresholds)?;
    write_f32_slice(&mut writer, &meta.quant_thresholds)?;
    write_bool_slice(&mut writer, &meta.quant_eligible)?;
    write_quant_tables(&mut writer, &meta.quant_tables)?;
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

/// Reads a network snapshot produced by [`save_network`] or
/// [`save_network_with_meta`], discarding the metadata.
///
/// # Errors
///
/// Returns [`SnapshotError::Format`] for corrupt or foreign streams,
/// and [`SnapshotError::Invalid`] if the decoded stages are mutually
/// inconsistent.
pub fn load_network<R: Read>(reader: R) -> Result<SpikingNetwork, SnapshotError> {
    load_network_with_meta(reader).map(|(net, _)| net)
}

/// Reads a network snapshot together with its [`SnapshotMeta`].
/// Version-1 streams (which predate the metadata block) decode with
/// default metadata; version-2 streams (which predate the density
/// crossovers) decode with empty `density_thresholds`; version-3
/// streams (which predate the bit-plane kernels) decode with empty
/// `packed_thresholds`; version-4 streams (which predate the content
/// checksum) decode without integrity verification; version-5 streams
/// (which predate the quantized path) decode with empty quant
/// thresholds, eligibility, and tables.
///
/// # Errors
///
/// Returns [`SnapshotError::Format`] for corrupt or foreign streams,
/// [`SnapshotError::Checksum`] when a v5+ stream's content does not
/// hash to its recorded trailer, and [`SnapshotError::Invalid`] if the
/// decoded stages are mutually inconsistent.
pub fn load_network_with_meta<R: Read>(
    reader: R,
) -> Result<(SpikingNetwork, SnapshotMeta), SnapshotError> {
    let mut reader = HashingReader::new(reader);
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::Format("bad magic".into()));
    }
    let version = read_u32(&mut reader)?;
    let meta = match version {
        1 => SnapshotMeta::default(),
        2 => SnapshotMeta {
            preferred_batch: read_u32(&mut reader)?,
            ..SnapshotMeta::default()
        },
        3..=6 => {
            let preferred_batch = read_u32(&mut reader)?;
            let density_thresholds = read_f32_vec(&mut reader)?;
            if density_thresholds.len() > 4097 {
                return Err(SnapshotError::Format(format!(
                    "implausible threshold count {}",
                    density_thresholds.len()
                )));
            }
            let packed_thresholds = if version >= 4 {
                let v = read_f32_vec(&mut reader)?;
                if v.len() > 4097 {
                    return Err(SnapshotError::Format(format!(
                        "implausible packed threshold count {}",
                        v.len()
                    )));
                }
                v
            } else {
                Vec::new()
            };
            let (quant_thresholds, quant_eligible, quant_tables) = if version >= 6 {
                let th = read_f32_vec(&mut reader)?;
                if th.len() > 4097 {
                    return Err(SnapshotError::Format(format!(
                        "implausible quant threshold count {}",
                        th.len()
                    )));
                }
                let el = read_bool_vec(&mut reader)?;
                let tables = read_quant_tables(&mut reader)?;
                (th, el, tables)
            } else {
                (Vec::new(), Vec::new(), Vec::new())
            };
            SnapshotMeta {
                preferred_batch,
                density_thresholds,
                packed_thresholds,
                quant_thresholds,
                quant_eligible,
                quant_tables,
            }
        }
        other => {
            return Err(SnapshotError::Format(format!(
                "unsupported snapshot version {other}"
            )))
        }
    };
    let input_len = read_u32(&mut reader)? as usize;
    let n_layers = read_u32(&mut reader)? as usize;
    if n_layers > 4096 {
        return Err(SnapshotError::Format(format!(
            "implausible layer count {n_layers}"
        )));
    }
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let policy = read_policy(&mut reader)?;
        let reset = match read_u32(&mut reader)? {
            0 => ResetMode::Subtraction,
            1 => ResetMode::Zero,
            tag => return Err(SnapshotError::Format(format!("unknown reset tag {tag}"))),
        };
        let bias = match read_u32(&mut reader)? {
            0 => None,
            1 => Some(read_f32_vec(&mut reader)?),
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
        1 => Some(read_f32_vec(&mut reader)?),
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
    Ok((net, meta))
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
        let mut buf = Vec::new();
        save_network_with_meta(
            &net,
            SnapshotMeta {
                preferred_batch: 16,
                density_thresholds: vec![0.28125, 0.09375, 0.0],
                packed_thresholds: vec![0.0625, 0.03125],
                ..SnapshotMeta::default()
            },
            &mut buf,
        )
        .expect("save");
        let (_, meta) = load_network_with_meta(buf.as_slice()).expect("load");
        assert_eq!(meta.preferred_batch, 16);
        assert_eq!(meta.density_thresholds, vec![0.28125, 0.09375, 0.0]);
        assert_eq!(meta.packed_thresholds, vec![0.0625, 0.03125]);
        assert!(meta.quant_thresholds.is_empty());
        assert!(meta.quant_eligible.is_empty());
        assert!(meta.quant_tables.is_empty());
        // A plain save carries no preference.
        let mut plain = Vec::new();
        save_network(&net, &mut plain).expect("save");
        let (_, meta) = load_network_with_meta(plain.as_slice()).expect("load");
        assert_eq!(meta, SnapshotMeta::default());
        // The v6 header is magic + version + preferred_batch + two
        // threshold blocks (count + values each) + three empty quant
        // blocks (count each); the network body follows, and the stream
        // ends with the 8-byte checksum trailer (stripped below —
        // pre-v5 streams have no trailer).
        let quant_block = 4 * 3;
        let body = 16 + 4 * 3 + 4 + 4 * 2 + quant_block;
        let buf = &buf[..buf.len() - 8];
        // A version-1 stream (no meta block at all) still loads, with
        // default metadata.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&buf[body..]);
        let (restored, meta) = load_network_with_meta(v1.as_slice()).expect("load v1");
        assert_eq!(meta, SnapshotMeta::default());
        assert_eq!(restored.input_len(), net.input_len());
        assert_eq!(restored.num_neurons(), net.num_neurons());
        // A version-2 stream (preferred_batch, no thresholds) loads with
        // the preference and empty thresholds.
        let mut v2 = Vec::new();
        v2.extend_from_slice(MAGIC);
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&8u32.to_le_bytes());
        v2.extend_from_slice(&buf[body..]);
        let (restored, meta) = load_network_with_meta(v2.as_slice()).expect("load v2");
        assert_eq!(meta.preferred_batch, 8);
        assert!(meta.density_thresholds.is_empty());
        assert_eq!(restored.num_neurons(), net.num_neurons());
        // A version-3 stream (density crossovers, no packed block)
        // loads with empty packed thresholds.
        let mut v3 = Vec::new();
        v3.extend_from_slice(MAGIC);
        v3.extend_from_slice(&3u32.to_le_bytes());
        v3.extend_from_slice(&8u32.to_le_bytes());
        v3.extend_from_slice(&2u32.to_le_bytes());
        v3.extend_from_slice(&0.25f32.to_le_bytes());
        v3.extend_from_slice(&0.5f32.to_le_bytes());
        v3.extend_from_slice(&buf[body..]);
        let (restored, meta) = load_network_with_meta(v3.as_slice()).expect("load v3");
        assert_eq!(meta.preferred_batch, 8);
        assert_eq!(meta.density_thresholds, vec![0.25, 0.5]);
        assert!(meta.packed_thresholds.is_empty());
        assert_eq!(restored.num_neurons(), net.num_neurons());
        // A version-4 stream (pre-quant meta block, no checksum
        // trailer) is the v6 bytes minus trailer and quant blocks with
        // the version rewritten — it loads without integrity
        // verification.
        let mut v4 = buf[..body - quant_block].to_vec();
        v4.extend_from_slice(&buf[body..]);
        v4[4..8].copy_from_slice(&4u32.to_le_bytes());
        let (restored, meta) = load_network_with_meta(v4.as_slice()).expect("load v4");
        assert_eq!(meta.preferred_batch, 16);
        assert_eq!(meta.packed_thresholds, vec![0.0625, 0.03125]);
        assert!(meta.quant_tables.is_empty());
        assert_eq!(restored.num_neurons(), net.num_neurons());
        // A version-5 stream is the same bytes plus a recomputed
        // checksum trailer — it loads with integrity verification and
        // empty quant fields.
        let mut v5 = v4.clone();
        v5[4..8].copy_from_slice(&5u32.to_le_bytes());
        let digest = fnv1a(&v5);
        v5.extend_from_slice(&digest.to_le_bytes());
        let (restored, meta) = load_network_with_meta(v5.as_slice()).expect("load v5");
        assert_eq!(meta.preferred_batch, 16);
        assert!(meta.quant_thresholds.is_empty());
        assert_eq!(restored.num_neurons(), net.num_neurons());
    }

    #[test]
    fn quant_artifacts_round_trip_through_v6() {
        let (net, _, _) = sample_network(HiddenCoding::Burst);
        // Derive real tables for every dispatch stage the way the
        // batched engine does (None for conv/pool stages).
        let mut tables: Vec<Option<crate::quant::QuantizedDense>> = net
            .layers()
            .iter()
            .map(|l| match l.synapse() {
                Synapse::Dense { weight } => crate::quant::QuantizedDense::from_weights(weight),
                _ => None,
            })
            .collect();
        tables.push(match net.output_synapse() {
            Synapse::Dense { weight } => crate::quant::QuantizedDense::from_weights(weight),
            _ => None,
        });
        assert!(
            tables.iter().any(Option::is_some),
            "vgg_tiny has dense stages"
        );
        let n = tables.len();
        let meta = SnapshotMeta {
            preferred_batch: 16,
            density_thresholds: vec![0.25; n],
            packed_thresholds: vec![0.125; n],
            quant_thresholds: vec![0.0625; n],
            quant_eligible: tables.iter().map(Option::is_some).collect(),
            quant_tables: tables,
        };
        let mut buf = Vec::new();
        save_network_with_meta(&net, meta.clone(), &mut buf).expect("save");
        let (restored, got) = load_network_with_meta(buf.as_slice()).expect("load");
        assert_eq!(got, meta, "quant meta must survive the round trip");
        assert_eq!(restored.num_neurons(), net.num_neurons());
        // A corrupted scale inside a quant table must be caught by the
        // checksum or the table validator, never silently accepted.
        let mut bad = buf.clone();
        let at = buf.len() / 2;
        bad[at] ^= 0x40;
        assert!(load_network(bad.as_slice()).is_err());
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
        let meta = SnapshotMeta {
            preferred_batch: 4,
            ..SnapshotMeta::default()
        };
        save_network_to_path(&net, meta, &path).expect("atomic save");
        let file = std::fs::File::open(&path).unwrap();
        let (restored, meta) = load_network_with_meta(file).expect("load");
        assert_eq!(meta.preferred_batch, 4);
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
        write_u32(&mut buf, 0).unwrap(); // preferred batch
        for _ in 0..3 {
            // density, packed and quant crossovers
            write_f32_slice(&mut buf, &[]).unwrap();
        }
        write_bool_slice(&mut buf, &[]).unwrap();
        write_quant_tables(&mut buf, &[]).unwrap();
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
