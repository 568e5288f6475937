//! Checkpoint storage backends.
//!
//! CR-M keeps the checkpoint in process memory; CR-D serializes the
//! solution vector to a real file (raw little-endian `f64`s) so the code
//! path a production deployment would exercise — serialize, write, read
//! back, deserialize, verify — is genuinely executed. The *cost* of either
//! path is charged by the driver through the cluster's storage models.

use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::hash::Fnv1a;

/// Injection decisions for the checkpoint disk path, implemented by the
/// chaos layer (the campaign engine installs an adapter over its
/// `ChaosInjector` when a chaos plan is armed).
///
/// This trait lives in core — which the chaos crate depends on — so the
/// hardened [`DiskStore`] can absorb injected faults without a
/// dependency cycle. Decisions must be pure functions of the installed
/// plan; the store's bounded retries then keep run reports byte-identical
/// whether or not faults fire.
pub trait CheckpointChaos: Send + Sync {
    /// True when the checkpoint write keyed by `key` should be torn
    /// (partial bytes land, then the attempt fails).
    fn torn_write(&self, key: &str) -> bool;
    /// True when the checkpoint read keyed by `key` should fail
    /// transiently.
    fn read_error(&self, key: &str) -> bool;
}

static CHECKPOINT_CHAOS: OnceLock<Arc<dyn CheckpointChaos>> = OnceLock::new();

/// Installs the process-wide checkpoint chaos hook. The first install
/// wins (the hook is keyed to one chaos plan per process, like the
/// engine's injector); returns `false` if a hook was already installed.
pub fn install_chaos(hook: Arc<dyn CheckpointChaos>) -> bool {
    CHECKPOINT_CHAOS.set(hook).is_ok()
}

fn chaos_hook() -> Option<&'static Arc<dyn CheckpointChaos>> {
    CHECKPOINT_CHAOS.get()
}

/// Bounded retry budget for absorbing injected checkpoint I/O faults.
/// At the soak plan's rates (≤ 350‰) the chance of exhausting it is
/// below 1e-7 per operation, and exhaustion surfaces as an error the
/// campaign engine's unit-retry layer handles.
const CHAOS_MAX_ATTEMPTS: usize = 16;

/// Checkpoint compression model.
///
/// Checkpoint traffic is highly compressible scientific data; compressors
/// in the SZ/ZFP family reach 5–20× on solver state at GB/s-class
/// throughput. The model trades CPU time (`bytes / throughput` on every
/// rank) for storage traffic (`bytes / ratio`), which pays off whenever
/// the storage tier is the bottleneck — i.e. for CR-D, not CR-M.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionModel {
    /// Compression ratio (output = input / ratio). Must be ≥ 1.
    pub ratio: f64,
    /// Per-core (de)compression throughput, bytes per second.
    pub throughput_bytes_per_s: f64,
}

impl CompressionModel {
    /// An SZ-like lossy compressor: 10× at 1 GB/s per core.
    pub fn lossy_default() -> Self {
        CompressionModel {
            ratio: 10.0,
            throughput_bytes_per_s: 1.0e9,
        }
    }

    /// Compressed size of `bytes` of checkpoint data.
    pub fn compressed_bytes(&self, bytes: u64) -> u64 {
        assert!(self.ratio >= 1.0, "compression ratio must be >= 1");
        ((bytes as f64 / self.ratio).ceil() as u64).max(1)
    }

    /// Seconds one core spends (de)compressing `bytes`.
    pub fn cpu_seconds(&self, bytes: u64) -> f64 {
        assert!(self.throughput_bytes_per_s > 0.0);
        bytes as f64 / self.throughput_bytes_per_s
    }
}

/// Lossy checkpoint codec for CR-LC (Tao et al., arXiv:1804.11268):
/// deterministic mantissa-bit truncation.
///
/// Each `f64` keeps its sign, exponent, and the top `keep_mantissa_bits`
/// mantissa bits; the rest are zeroed. The stored payload therefore
/// shrinks to `(12 + keep) / 64` of the raw size, and every stored value
/// carries a relative error bounded by `2^-keep` — which is exactly the
/// perturbation a post-rollback restart must iterate away, so the
/// compression knob trades stored bytes against reconvergence
/// iterations (see `rsls_models::LcModel`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossyCompressionModel {
    /// Mantissa bits kept per double (1–52).
    pub keep_mantissa_bits: u8,
    /// Per-core quantize/encode throughput, bytes per second.
    pub throughput_bytes_per_s: f64,
}

impl LossyCompressionModel {
    /// Codec for a mantissa-bit budget at 2 GB/s per core (bit masking
    /// is much cheaper than SZ/ZFP prediction stages).
    pub fn from_keep_bits(keep_mantissa_bits: u8) -> Self {
        LossyCompressionModel {
            keep_mantissa_bits: keep_mantissa_bits.clamp(1, 52),
            throughput_bytes_per_s: 2.0e9,
        }
    }

    /// Quantizes one value: truncates the mantissa to the kept bits.
    pub fn quantize(&self, v: f64) -> f64 {
        let keep = u32::from(self.keep_mantissa_bits.clamp(1, 52));
        let mask = !((1u64 << (52 - keep)) - 1);
        f64::from_bits(v.to_bits() & mask)
    }

    /// Quantizes a whole vector (the value actually written to disk —
    /// and therefore the value a rollback restores).
    pub fn quantize_vec(&self, x: &[f64]) -> Vec<f64> {
        x.iter().map(|&v| self.quantize(v)).collect()
    }

    /// Stored size of `bytes` of raw checkpoint data: sign + exponent
    /// (12 bits) plus the kept mantissa bits, bit-packed.
    pub fn compressed_bytes(&self, bytes: u64) -> u64 {
        let kept_bits = 12 + u64::from(self.keep_mantissa_bits.clamp(1, 52));
        ((bytes as f64 * kept_bits as f64 / 64.0).ceil() as u64).max(1)
    }

    /// Seconds one core spends quantizing/encoding `bytes`.
    pub fn cpu_seconds(&self, bytes: u64) -> f64 {
        assert!(self.throughput_bytes_per_s > 0.0);
        bytes as f64 / self.throughput_bytes_per_s
    }

    /// Bound on the relative error of one stored value: `2^-keep`.
    pub fn max_relative_error(&self) -> f64 {
        (-f64::from(self.keep_mantissa_bits.clamp(1, 52))).exp2()
    }
}

/// A checkpoint of the solution vector at a given iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Iteration after which the checkpoint was taken.
    pub iteration: usize,
    /// The checkpointed solution vector.
    pub x: Vec<f64>,
}

/// An exact-Krylov-state checkpoint (ABFT-CR): the full `(x, r, p, rᵀr)`
/// state a CG restore needs to replay the fault-free run bit-for-bit —
/// exactly what [`rsls_solvers::Cg::capture_state`] snapshots.
pub type KrylovCheckpoint = rsls_solvers::KrylovState;

/// Storage backend for checkpoints.
pub trait CheckpointStore {
    /// Persists a checkpoint, replacing any previous one.
    fn save(&mut self, iteration: usize, x: &[f64]) -> std::io::Result<()>;
    /// Loads the most recent checkpoint, if any.
    fn load(&self) -> std::io::Result<Option<Checkpoint>>;
    /// Bytes one checkpoint occupies.
    fn checkpoint_bytes(&self, n: usize) -> u64 {
        (n * std::mem::size_of::<f64>()) as u64 + 16
    }
}

/// In-memory checkpoint store (CR-M).
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    latest: Option<Checkpoint>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&mut self, iteration: usize, x: &[f64]) -> std::io::Result<()> {
        self.latest = Some(Checkpoint {
            iteration,
            x: x.to_vec(),
        });
        Ok(())
    }

    fn load(&self) -> std::io::Result<Option<Checkpoint>> {
        Ok(self.latest.clone())
    }
}

// On-disk record kinds (first header word).
const KIND_SOLUTION: u64 = 1;
const KIND_KRYLOV: u64 = 2;

/// File-backed checkpoint store (CR-D, CR-LC, ABFT-CR).
///
/// Writes `<dir>/rsls-checkpoint-<tag>.bin` with a small header (record
/// kind, iteration, length), raw little-endian `f64`s, and a trailing
/// FNV-1a checksum. The write and read paths are registered chaos
/// injection sites (`ckpt-write-torn`, `ckpt-read-error`); both absorb
/// injected faults with bounded deterministic retries and validate the
/// checksum + framing on the way back in, so run reports stay
/// byte-identical under an armed chaos plan.
#[derive(Debug)]
pub struct DiskStore {
    path: PathBuf,
    has_checkpoint: bool,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Reads `f64`s from `bytes` (length must be a multiple of 8).
fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            f64::from_le_bytes(w)
        })
        .collect()
}

impl DiskStore {
    /// Creates a store under the system temp dir with a distinguishing
    /// `tag`.
    ///
    /// The backing path is unique per store (process id + a process-wide
    /// sequence number), never per tag: campaign units running in
    /// parallel legitimately share a tag (one matrix, many schemes), and
    /// [`Drop`] deletes the file — a tag-keyed path would let one
    /// finishing unit delete a sibling's live checkpoint.
    pub fn in_temp_dir(tag: &str) -> Self {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "rsls-checkpoint-{tag}-{}-{seq}.bin",
            std::process::id()
        ));
        DiskStore {
            path,
            has_checkpoint: false,
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Encodes one record: header, payload `f64`s, trailing checksum.
    fn encode(kind: u64, iteration: usize, len: usize, payload: &[f64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + payload.len() * 8);
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&(iteration as u64).to_le_bytes());
        buf.extend_from_slice(&(len as u64).to_le_bytes());
        for v in payload {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let sum = fnv64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Validates framing + checksum, returning `(kind, iteration, len,
    /// payload)`.
    fn decode(buf: &[u8]) -> std::io::Result<(u64, usize, usize, &[u8])> {
        if buf.len() < 32 {
            return Err(invalid("checkpoint file truncated"));
        }
        let body = &buf[..buf.len() - 8];
        let mut word = [0u8; 8];
        word.copy_from_slice(&buf[buf.len() - 8..]);
        if fnv64(body) != u64::from_le_bytes(word) {
            return Err(invalid("checkpoint checksum mismatch"));
        }
        word.copy_from_slice(&buf[0..8]);
        let kind = u64::from_le_bytes(word);
        word.copy_from_slice(&buf[8..16]);
        let iteration = u64::from_le_bytes(word) as usize;
        word.copy_from_slice(&buf[16..24]);
        let len = u64::from_le_bytes(word) as usize;
        let payload = &body[24..];
        let expected = match kind {
            KIND_SOLUTION => len * 8,
            KIND_KRYLOV => 3 * len * 8 + 8,
            _ => return Err(invalid("unknown checkpoint record kind")),
        };
        if payload.len() != expected {
            return Err(invalid("checkpoint length mismatch"));
        }
        Ok((kind, iteration, len, payload))
    }

    /// The write path — a registered `ckpt-write-torn` chaos site. An
    /// injected fault lands a partial prefix (a genuinely torn file) and
    /// fails the attempt; the bounded retry loop rewrites from scratch.
    fn write_bytes(&mut self, buf: &[u8], key: &str) -> std::io::Result<()> {
        for _ in 0..CHAOS_MAX_ATTEMPTS {
            if let Some(hook) = chaos_hook() {
                if hook.torn_write(key) {
                    let mut f = fs::File::create(&self.path)?;
                    f.write_all(&buf[..buf.len() / 2])?;
                    continue;
                }
            }
            let mut f = fs::File::create(&self.path)?;
            f.write_all(buf)?;
            f.sync_data().ok(); // best-effort durability; not all tmpfs support it
            self.has_checkpoint = true;
            return Ok(());
        }
        Err(std::io::Error::other(
            "checkpoint write still torn after bounded retries",
        ))
    }

    /// The read path — a registered `ckpt-read-error` chaos site. An
    /// injected fault skips the attempt (a transient EIO); framing and
    /// checksum of what does come back are validated by the caller.
    fn read_bytes(&self, key: &str) -> std::io::Result<Vec<u8>> {
        for _ in 0..CHAOS_MAX_ATTEMPTS {
            if let Some(hook) = chaos_hook() {
                if hook.read_error(key) {
                    continue;
                }
            }
            let mut buf = Vec::new();
            fs::File::open(&self.path)?.read_to_end(&mut buf)?;
            return Ok(buf);
        }
        Err(std::io::Error::other(
            "checkpoint read still failing after bounded retries",
        ))
    }

    /// Bytes one Krylov checkpoint occupies (three vectors, the scalar,
    /// and the header) — the 3× storage premium ABFT-CR pays over CR-D.
    pub fn krylov_checkpoint_bytes(n: usize) -> u64 {
        3 * (n * std::mem::size_of::<f64>()) as u64 + 8 + 16
    }

    /// Persists a full Krylov-state checkpoint (ABFT-CR), replacing any
    /// previous record.
    pub fn save_full(&mut self, state: &KrylovCheckpoint) -> std::io::Result<()> {
        let n = state.x.len();
        assert_eq!(state.r.len(), n, "krylov checkpoint dimension mismatch");
        assert_eq!(state.p.len(), n, "krylov checkpoint dimension mismatch");
        let mut payload = Vec::with_capacity(3 * n + 1);
        payload.extend_from_slice(&state.x);
        payload.extend_from_slice(&state.r);
        payload.extend_from_slice(&state.p);
        payload.push(state.rr);
        let buf = DiskStore::encode(KIND_KRYLOV, state.iteration, n, &payload);
        let key = format!("{}:{}", self.path.display(), state.iteration);
        self.write_bytes(&buf, &key)
    }

    /// Loads the most recent full Krylov-state checkpoint, if any.
    pub fn load_full(&self) -> std::io::Result<Option<KrylovCheckpoint>> {
        if !self.has_checkpoint {
            return Ok(None);
        }
        let key = format!("{}:load-full", self.path.display());
        let buf = self.read_bytes(&key)?;
        let (kind, iteration, len, payload) = DiskStore::decode(&buf)?;
        if kind != KIND_KRYLOV {
            return Err(invalid("checkpoint record is not a Krylov state"));
        }
        let values = decode_f64s(payload);
        Ok(Some(KrylovCheckpoint {
            iteration,
            x: values[..len].to_vec(),
            r: values[len..2 * len].to_vec(),
            p: values[2 * len..3 * len].to_vec(),
            rr: values[3 * len],
        }))
    }
}

impl CheckpointStore for DiskStore {
    fn save(&mut self, iteration: usize, x: &[f64]) -> std::io::Result<()> {
        let buf = DiskStore::encode(KIND_SOLUTION, iteration, x.len(), x);
        let key = format!("{}:{iteration}", self.path.display());
        self.write_bytes(&buf, &key)
    }

    fn load(&self) -> std::io::Result<Option<Checkpoint>> {
        if !self.has_checkpoint {
            return Ok(None);
        }
        let key = format!("{}:load", self.path.display());
        let buf = self.read_bytes(&key)?;
        let (kind, iteration, _len, payload) = DiskStore::decode(&buf)?;
        if kind != KIND_SOLUTION {
            return Err(invalid("checkpoint record is not a solution vector"));
        }
        Ok(Some(Checkpoint {
            iteration,
            x: decode_f64s(payload),
        }))
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // rsls-lint: allow(unguarded-io) -- best-effort temp-file cleanup; no useful fault site in Drop
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_round_trips() {
        let mut s = MemoryStore::new();
        assert!(s.load().unwrap().is_none());
        s.save(42, &[1.0, 2.0, 3.0]).unwrap();
        let cp = s.load().unwrap().unwrap();
        assert_eq!(cp.iteration, 42);
        assert_eq!(cp.x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn memory_store_keeps_only_latest() {
        let mut s = MemoryStore::new();
        s.save(1, &[1.0]).unwrap();
        s.save(2, &[2.0]).unwrap();
        assert_eq!(s.load().unwrap().unwrap().iteration, 2);
    }

    #[test]
    fn disk_store_round_trips_bits_exactly() {
        let mut s = DiskStore::in_temp_dir("unit-roundtrip");
        let x = vec![std::f64::consts::PI, -0.0, 1e-300, f64::MAX];
        s.save(7, &x).unwrap();
        let cp = s.load().unwrap().unwrap();
        assert_eq!(cp.iteration, 7);
        assert_eq!(cp.x.len(), 4);
        for (a, b) in cp.x.iter().zip(&x) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn disk_store_empty_before_first_save() {
        let s = DiskStore::in_temp_dir("unit-empty");
        assert!(s.load().unwrap().is_none());
    }

    #[test]
    fn disk_store_cleans_up_on_drop() {
        let path;
        {
            let mut s = DiskStore::in_temp_dir("unit-drop");
            s.save(1, &[1.0]).unwrap();
            path = s.path().to_path_buf();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn checkpoint_bytes_includes_header() {
        let s = MemoryStore::new();
        assert_eq!(s.checkpoint_bytes(100), 816);
    }

    #[test]
    fn krylov_checkpoint_round_trips_bits_exactly() {
        let mut s = DiskStore::in_temp_dir("unit-krylov");
        assert!(s.load_full().unwrap().is_none());
        let state = KrylovCheckpoint {
            iteration: 13,
            x: vec![std::f64::consts::PI, -0.0, 1e-300],
            r: vec![1.5, f64::MAX, -2.25],
            p: vec![0.0, 1e-17, 42.0],
            rr: 7.0625e-9,
        };
        s.save_full(&state).unwrap();
        let back = s.load_full().unwrap().unwrap();
        assert_eq!(back.iteration, 13);
        assert_eq!(back.rr.to_bits(), state.rr.to_bits());
        for (a, b) in back
            .x
            .iter()
            .chain(&back.r)
            .chain(&back.p)
            .zip(state.x.iter().chain(&state.r).chain(&state.p))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // A plain load must refuse the Krylov record rather than
        // misinterpret it.
        assert!(s.load().is_err());
    }

    #[test]
    fn krylov_checkpoint_bytes_is_triple_plus_scalar() {
        assert_eq!(DiskStore::krylov_checkpoint_bytes(100), 2424);
    }

    #[test]
    fn checksum_detects_real_corruption() {
        let mut s = DiskStore::in_temp_dir("unit-checksum");
        s.save(3, &[1.0, 2.0]).unwrap();
        let mut bytes = fs::read(s.path()).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(s.path(), &bytes).unwrap();
        let err = s.load().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn lossy_model_bounds_error_and_shrinks_bytes() {
        let m = LossyCompressionModel::from_keep_bits(20);
        // Truncation keeps sign/exponent and the top mantissa bits; the
        // relative error stays under 2^-20.
        for &v in &[std::f64::consts::PI, -1.0e10, 3.0e-7, 1.0] {
            let q = m.quantize(v);
            assert!((q - v).abs() <= v.abs() * m.max_relative_error());
            // Idempotent: re-quantizing changes nothing.
            assert_eq!(m.quantize(q).to_bits(), q.to_bits());
        }
        assert_eq!(m.quantize(0.0).to_bits(), 0.0f64.to_bits());
        // 12 + 20 of 64 bits survive the packing.
        assert_eq!(m.compressed_bytes(6400), 3200);
        // Fewer kept bits → smaller files, larger error bound.
        let coarse = LossyCompressionModel::from_keep_bits(8);
        assert!(coarse.compressed_bytes(6400) < m.compressed_bytes(6400));
        assert!(coarse.max_relative_error() > m.max_relative_error());
        assert!(m.cpu_seconds(2_000_000_000) > 0.9);
    }

    #[test]
    fn lossy_quantized_vector_round_trips_through_disk() {
        let m = LossyCompressionModel::from_keep_bits(16);
        let x = vec![std::f64::consts::E, -7.5e3, 1.25e-9];
        let qx = m.quantize_vec(&x);
        let mut s = DiskStore::in_temp_dir("unit-lossy");
        s.save(5, &qx).unwrap();
        let back = s.load().unwrap().unwrap();
        for (a, b) in back.x.iter().zip(&qx) {
            assert_eq!(a.to_bits(), b.to_bits(), "truncated doubles are exact");
        }
    }

    #[test]
    fn injected_checkpoint_faults_are_absorbed_by_retries() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // Fires a bounded number of faults, and only for keys carrying
        // this test's tag — the hook is process-global, so it must stay
        // invisible to every other test in this binary.
        struct TaggedChaos {
            torn: AtomicU64,
            readerr: AtomicU64,
        }
        impl CheckpointChaos for TaggedChaos {
            fn torn_write(&self, key: &str) -> bool {
                key.contains("unit-chaos") && self.torn.fetch_add(1, Ordering::Relaxed) < 3
            }
            fn read_error(&self, key: &str) -> bool {
                key.contains("unit-chaos") && self.readerr.fetch_add(1, Ordering::Relaxed) < 3
            }
        }
        install_chaos(Arc::new(TaggedChaos {
            torn: AtomicU64::new(0),
            readerr: AtomicU64::new(0),
        }));

        let mut s = DiskStore::in_temp_dir("unit-chaos");
        let x = vec![1.0, -2.0, 3.5];
        s.save(9, &x).unwrap();
        let cp = s.load().unwrap().unwrap();
        assert_eq!(cp.iteration, 9);
        for (a, b) in cp.x.iter().zip(&x) {
            assert_eq!(a.to_bits(), b.to_bits(), "faults must not alter data");
        }
    }

    #[test]
    fn compression_model_shrinks_and_costs_cpu() {
        let c = CompressionModel::lossy_default();
        assert_eq!(c.compressed_bytes(1_000_000), 100_000);
        assert!((c.cpu_seconds(1_000_000) - 1e-3).abs() < 1e-12);
        // Ratio 1 is a no-op in size.
        let ident = CompressionModel {
            ratio: 1.0,
            throughput_bytes_per_s: 1e9,
        };
        assert_eq!(ident.compressed_bytes(4096), 4096);
    }
}
