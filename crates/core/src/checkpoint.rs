//! Versioned, byte-stable engine checkpoints: serialize a [`Session`]'s
//! complete round-boundary state, restore it in another process, and
//! continue the run with byte-identical results.
//!
//! [`Session`]: crate::Session
//!
//! ## Format
//!
//! A hand-rolled little-endian binary format (consistent with the
//! workspace's zero-dependency policy), fully described by
//! [`EngineCheckpoint::to_bytes`]:
//!
//! ```text
//! magic "6GSN" · version u16
//! config fingerprint: mode u8 · rng_seed u64 · budget u64
//! rng state: 4 × u64 (xoshiro256++ words)
//! counters: rounds · growths · subsumed · worker_panics (u64 each)
//! durations: cpu_time_ns · wall_time_ns (u64 each)
//! seeds:   count u64, then 16 bytes (u128) per address
//! slots:   count u64, then per slot: range (32 × u16 set masks) ·
//!          seed_count u64 · cache tag u8 (0 stale / 1 exhausted /
//!          2 ready) · if ready: range · seed_count u64 · range_size u128
//! stale:   count u64, then slot index u64 each
//! generated: count u64, then 16 bytes per address (budget order)
//! checksum: FNV-1a 64 over everything above
//! ```
//!
//! The encoding is **byte-stable**: serializing, restoring, and
//! re-serializing a checkpoint yields identical bytes (pinned by
//! proptests), so checkpoints can be content-compared and deduplicated.
//! Decoding validates the magic, version, checksum, and every structural
//! invariant (non-empty ranges, in-bounds stale indices, cached sizes)
//! before any state reaches the engine, so a truncated or corrupted file
//! is rejected with a typed [`CheckpointError`] instead of resuming a
//! poisoned run.
//!
//! ## Versioning & compatibility rule
//!
//! The version is bumped whenever the byte layout *or the semantics of
//! any field* change. Decoders accept exactly the versions they know how
//! to interpret ([`FORMAT_VERSION`] for an engine checkpoint,
//! [`SHARDED_FORMAT_VERSION`] for a fleet envelope) and reject
//! everything else: a checkpoint is a promise of byte-identical
//! resumption, and best-effort migration of half-understood state would
//! silently break that promise. Engine version 2 dropped version 1's
//! growth-path byte after the mode; envelope version 2 changed what a
//! shard's `returned` means (see [`ShardCheckpoint::returned`]). So a
//! version-1 file of either kind is refused with
//! [`CheckpointError::UnsupportedVersion`]. The config fingerprint (mode,
//! RNG seed) is enforced at [`Session::resume`] time for the same reason;
//! the budget is deliberately *not* part of the fingerprint so a resumed
//! run can be topped up.
//!
//! [`Session::resume`]: crate::Session::resume

use crate::{ClusterMode, Config};
use sixgen_addr::{NybbleAddr, Range, NYBBLE_COUNT};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic bytes opening every checkpoint file ("6Gen SessioN").
pub const MAGIC: [u8; 4] = *b"6GSN";

/// The format version this build writes and accepts.
pub const FORMAT_VERSION: u16 = 2;

/// A cluster slot's cached best growth, as checkpointed.
///
/// Caches are serialized rather than recomputed on resume so that a
/// resumed run records exactly the same number of growth evaluations as
/// an uninterrupted one — the deterministic metrics namespace (candidate
/// histograms, cache-recompute counters) stays byte-identical across an
/// interrupt/resume cycle, not just the targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedCheckpoint {
    /// The slot's growth must be recomputed next round.
    Stale,
    /// The cluster contains every seed and can never grow.
    Exhausted,
    /// A valid cached best growth.
    Ready {
        /// The expanded range the cluster would adopt.
        range: Range,
        /// Seeds inside the expanded range.
        seed_count: u64,
        /// Cached `range.size()`.
        range_size: u128,
    },
}

/// One cluster slot (in engine slot order, which the selection scan's
/// tie-break stream depends on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotCheckpoint {
    /// The cluster's current range.
    pub range: Range,
    /// Seeds inside the range.
    pub seed_count: u64,
    /// The slot's cached best growth.
    pub cached: CachedCheckpoint,
}

/// A complete engine-session snapshot at a round boundary.
///
/// Produced by [`Session::checkpoint`], consumed by [`Session::resume`].
/// All counters and durations are cumulative across previously resumed
/// segments (see [`RunStats`](crate::RunStats) for the aggregation rule).
///
/// [`Session::checkpoint`]: crate::Session::checkpoint
/// [`Session::resume`]: crate::Session::resume
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCheckpoint {
    /// Cluster mode of the checkpointed run (fingerprint field).
    pub mode: ClusterMode,
    /// The run's RNG seed (fingerprint field).
    pub rng_seed: u64,
    /// The budget the run was configured with. Not a fingerprint field:
    /// resume may raise it (budget top-up).
    pub budget: u64,
    /// The run RNG's full state at the boundary.
    pub rng_state: [u64; 4],
    /// Main-loop rounds started so far.
    pub rounds: u64,
    /// Growths committed so far.
    pub growths: u64,
    /// Clusters subsumed so far.
    pub subsumed: u64,
    /// Worker panics recovered so far.
    pub worker_panics: u64,
    /// Aggregate growth-evaluation busy time so far.
    pub cpu_time: Duration,
    /// Wall-clock time consumed so far (across segments).
    pub wall_time: Duration,
    /// The deduplicated, sorted seed list. The nybble tree is rebuilt
    /// from it on resume (the tree is immutable and fully determined by
    /// the seeds, so its structure is never serialized).
    pub seeds: Vec<NybbleAddr>,
    /// Cluster slots in engine order.
    pub slots: Vec<SlotCheckpoint>,
    /// Indices of slots whose cache is stale (engine order).
    pub stale: Vec<u64>,
    /// Every address generated so far, in generation order.
    pub generated: Vec<NybbleAddr>,
}

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// The magic bytes are not the decoder's (`"6GSN"` for an engine
    /// checkpoint, `"6GSH"` for a fleet envelope).
    BadMagic,
    /// The version is one this build does not know how to interpret.
    UnsupportedVersion {
        /// The version the bytes carry.
        found: u16,
        /// The version the failing decoder reads: [`FORMAT_VERSION`]
        /// for an engine checkpoint, [`SHARDED_FORMAT_VERSION`] for a
        /// fleet envelope.
        supported: u16,
    },
    /// The trailing FNV-1a checksum does not match the payload.
    BadChecksum,
    /// Bytes remain after the checksum — the file is longer than the
    /// structure it claims to hold.
    TrailingBytes,
    /// A stale-cache index points past the end of the slot list.
    StaleIndexOutOfBounds {
        /// The offending index.
        index: u64,
        /// Number of slots in the checkpoint.
        slots: u64,
    },
    /// A slot index appears more than once in the stale-cache list.
    DuplicateStaleIndex {
        /// The repeated index.
        index: u64,
    },
    /// A structural invariant failed (named by the message).
    Invalid(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a sixgen checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this build reads {supported})"
                )
            }
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::StaleIndexOutOfBounds { index, slots } => {
                write!(
                    f,
                    "invalid checkpoint: stale index {index} out of bounds for {slots} slots"
                )
            }
            CheckpointError::DuplicateStaleIndex { index } => {
                write!(f, "invalid checkpoint: duplicate stale index {index}")
            }
            CheckpointError::Invalid(what) => write!(f, "invalid checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a 64-bit hash, the checkpoint integrity checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_range(out: &mut Vec<u8>, range: &Range) {
    for word in range.mask_words() {
        put_u16(out, word);
    }
}

fn put_addrs(out: &mut Vec<u8>, addrs: &[NybbleAddr]) {
    put_u64(out, addrs.len() as u64);
    for addr in addrs {
        put_u128(out, addr.bits());
    }
}

/// Writes the frame every checkpoint format shares: `magic · version
/// u16`, the body `write` appends, then the FNV-1a 64 checksum of
/// everything before it.
fn seal_frame(
    magic: [u8; 4],
    version: u16,
    capacity: usize,
    write: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(&magic);
    put_u16(&mut out, version);
    write(&mut out);
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// Reads a frame written by [`seal_frame`]: checks the length floor,
/// magic, checksum and version, hands the body to `read`, and rejects
/// any bytes `read` leaves over.
fn open_frame<T>(
    bytes: &[u8],
    magic: [u8; 4],
    version: u16,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    if bytes.len() < magic.len() + 2 + 8 {
        return Err(CheckpointError::Truncated);
    }
    if bytes[..magic.len()] != magic {
        return Err(CheckpointError::BadMagic);
    }
    let (payload, stored) = bytes.split_at(bytes.len() - 8);
    if fnv1a(payload) != u64::from_le_bytes(stored.try_into().unwrap()) {
        return Err(CheckpointError::BadChecksum);
    }
    let mut r = Reader {
        bytes: payload,
        pos: magic.len(),
    };
    let found = r.u16()?;
    if found != version {
        return Err(CheckpointError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    let value = read(&mut r)?;
    if r.pos != payload.len() {
        return Err(CheckpointError::TrailingBytes);
    }
    Ok(value)
}

/// Bounded little-endian reader over the checkpoint payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, CheckpointError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a count and checks the remaining payload can actually hold
    /// that many `elem_size`-byte elements before any allocation, so a
    /// corrupted length cannot trigger a huge `Vec` reservation.
    fn len(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let count = self.u64()?;
        let count = usize::try_from(count).map_err(|_| CheckpointError::Truncated)?;
        let need = count
            .checked_mul(elem_size)
            .ok_or(CheckpointError::Truncated)?;
        if self.bytes.len() - self.pos < need {
            return Err(CheckpointError::Truncated);
        }
        Ok(count)
    }

    fn range(&mut self) -> Result<Range, CheckpointError> {
        let mut words = [0u16; NYBBLE_COUNT];
        for word in &mut words {
            *word = self.u16()?;
        }
        Range::from_mask_words(words)
            .ok_or(CheckpointError::Invalid("range with an empty nybble set"))
    }

    fn addrs(&mut self) -> Result<Vec<NybbleAddr>, CheckpointError> {
        let count = self.len(16)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(NybbleAddr::from_bits(self.u128()?));
        }
        Ok(out)
    }
}

impl EngineCheckpoint {
    /// Serializes the checkpoint to its canonical byte form. Pure: the
    /// same checkpoint value always yields the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let capacity =
            128 + 16 * (self.seeds.len() + self.generated.len()) + 160 * self.slots.len();
        seal_frame(MAGIC, FORMAT_VERSION, capacity, |out| {
            out.push(match self.mode {
                ClusterMode::Loose => 0,
                ClusterMode::Tight => 1,
            });
            put_u64(out, self.rng_seed);
            put_u64(out, self.budget);
            for word in self.rng_state {
                put_u64(out, word);
            }
            put_u64(out, self.rounds);
            put_u64(out, self.growths);
            put_u64(out, self.subsumed);
            put_u64(out, self.worker_panics);
            put_u64(out, duration_ns(self.cpu_time));
            put_u64(out, duration_ns(self.wall_time));
            put_addrs(out, &self.seeds);
            put_u64(out, self.slots.len() as u64);
            for slot in &self.slots {
                put_range(out, &slot.range);
                put_u64(out, slot.seed_count);
                match &slot.cached {
                    CachedCheckpoint::Stale => out.push(0),
                    CachedCheckpoint::Exhausted => out.push(1),
                    CachedCheckpoint::Ready {
                        range,
                        seed_count,
                        range_size,
                    } => {
                        out.push(2);
                        put_range(out, range);
                        put_u64(out, *seed_count);
                        put_u128(out, *range_size);
                    }
                }
            }
            put_u64(out, self.stale.len() as u64);
            for &index in &self.stale {
                put_u64(out, index);
            }
            put_addrs(out, &self.generated);
        })
    }

    /// Decodes a checkpoint, validating magic, version, checksum, and
    /// every structural invariant. A checkpoint that decodes successfully
    /// re-serializes to exactly the input bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<EngineCheckpoint, CheckpointError> {
        let checkpoint = open_frame(bytes, MAGIC, FORMAT_VERSION, |r| {
            let mode = match r.u8()? {
                0 => ClusterMode::Loose,
                1 => ClusterMode::Tight,
                _ => return Err(CheckpointError::Invalid("unknown cluster mode")),
            };
            let rng_seed = r.u64()?;
            let budget = r.u64()?;
            let mut rng_state = [0u64; 4];
            for word in &mut rng_state {
                *word = r.u64()?;
            }
            let rounds = r.u64()?;
            let growths = r.u64()?;
            let subsumed = r.u64()?;
            let worker_panics = r.u64()?;
            let cpu_time = Duration::from_nanos(r.u64()?);
            let wall_time = Duration::from_nanos(r.u64()?);
            let seeds = r.addrs()?;
            let slot_count = r.len(64 + 8 + 1)?;
            let mut slots = Vec::with_capacity(slot_count);
            for _ in 0..slot_count {
                let range = r.range()?;
                let seed_count = r.u64()?;
                let cached = match r.u8()? {
                    0 => CachedCheckpoint::Stale,
                    1 => CachedCheckpoint::Exhausted,
                    2 => {
                        let range = r.range()?;
                        let seed_count = r.u64()?;
                        let range_size = r.u128()?;
                        if range_size != range.size() {
                            return Err(CheckpointError::Invalid(
                                "cached growth size disagrees with its range",
                            ));
                        }
                        CachedCheckpoint::Ready {
                            range,
                            seed_count,
                            range_size,
                        }
                    }
                    _ => return Err(CheckpointError::Invalid("unknown cache tag")),
                };
                slots.push(SlotCheckpoint {
                    range,
                    seed_count,
                    cached,
                });
            }
            let stale_count = r.len(8)?;
            let mut stale = Vec::with_capacity(stale_count);
            for _ in 0..stale_count {
                stale.push(r.u64()?);
            }
            let generated = r.addrs()?;
            Ok(EngineCheckpoint {
                mode,
                rng_seed,
                budget,
                rng_state,
                rounds,
                growths,
                subsumed,
                worker_panics,
                cpu_time,
                wall_time,
                seeds,
                slots,
                stale,
                generated,
            })
        })?;
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Structural invariants beyond per-field decoding: the stale list
    /// must name exactly the slots whose cache tag is `Stale`, in bounds
    /// and without duplicates, and the generated set must be duplicate-
    /// free and within budget. [`Session::resume`](crate::Session::resume)
    /// relies on these holding.
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let mut named_stale = vec![false; self.slots.len()];
        for &raw_index in &self.stale {
            let index = usize::try_from(raw_index)
                .ok()
                .filter(|&i| i < self.slots.len())
                .ok_or(CheckpointError::StaleIndexOutOfBounds {
                    index: raw_index,
                    slots: self.slots.len() as u64,
                })?;
            if named_stale[index] {
                return Err(CheckpointError::DuplicateStaleIndex { index: raw_index });
            }
            if self.slots[index].cached != CachedCheckpoint::Stale {
                return Err(CheckpointError::Invalid(
                    "stale list names a non-stale slot",
                ));
            }
            named_stale[index] = true;
        }
        let stale_slots = self
            .slots
            .iter()
            .filter(|s| s.cached == CachedCheckpoint::Stale)
            .count();
        if stale_slots != self.stale.len() {
            return Err(CheckpointError::Invalid(
                "a stale slot is missing from the stale list",
            ));
        }
        if self.generated.len() as u64 > self.budget {
            return Err(CheckpointError::Invalid("generated set exceeds budget"));
        }
        let mut sorted = self.generated.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != self.generated.len() {
            return Err(CheckpointError::Invalid("duplicate generated address"));
        }
        Ok(())
    }

    /// Reads and decodes a checkpoint file. Decode failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<EngineCheckpoint> {
        let bytes = std::fs::read(path)?;
        EngineCheckpoint::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// `config` with the determinism fingerprint (`mode`, `rng_seed`)
    /// taken from this checkpoint, as
    /// [`Session::resume`](crate::Session::resume) requires. The budget is
    /// the caller's to choose.
    pub fn pin_fingerprint(&self, config: Config) -> Config {
        Config {
            mode: self.mode,
            rng_seed: self.rng_seed,
            ..config
        }
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Magic bytes opening a sharded checkpoint envelope ("6Gen SHards").
pub const SHARDED_MAGIC: [u8; 4] = *b"6GSH";

/// The sharded-envelope format version this build writes and accepts.
pub const SHARDED_FORMAT_VERSION: u16 = 2;

/// One shard's slice of a [`ShardedCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCheckpoint {
    /// The routed prefix keying this shard.
    pub prefix: sixgen_addr::Prefix,
    /// Budget already collected back into the pool from this shard's
    /// lease (nonzero only once the shard terminated and the driver
    /// folded its unspent lease into the pool). On resume the driver
    /// subtracts this from any re-derived return, so interrupt/resume
    /// never double-counts a shard's give-back. Since format version 2 a
    /// shard stopped by a deadline or a cancel returns nothing: it keeps
    /// its lease for the run that resumes it. A version-1 envelope may
    /// record such a shard's lease as returned, so a resumed fleet would
    /// lease it out twice; it is refused.
    pub returned: u64,
    /// The shard's engine-session snapshot. Its `budget` field is the
    /// shard's current lease; its `rng_seed` must equal
    /// [`shard_rng_seed`](crate::shard_rng_seed) of the global seed and
    /// `prefix` (validated on decode).
    pub engine: EngineCheckpoint,
}

/// A complete sharded-driver snapshot: one [`EngineCheckpoint`] per
/// shard plus the budget-pool state, built by
/// [`Fleet::checkpoint`](crate::Fleet::checkpoint) when asked for (its
/// [`run_with`](crate::Fleet::run_with) hook calls it at an epoch
/// barrier) and resumable mid-fleet by
/// [`Fleet::resume`](crate::Fleet::resume).
///
/// The byte format wraps each shard's engine checkpoint as a
/// length-prefixed blob (with its own magic and checksum) inside an
/// outer envelope:
///
/// ```text
/// magic "6GSH" · version u16
/// global rng_seed u64 · global budget u64
/// pool_unassigned u64 · epochs u64
/// shards: count u64, then per shard:
///   prefix bits u128 · prefix len u8 · returned u64
///   engine blob: len u64 · EngineCheckpoint bytes
/// checksum: FNV-1a 64 over everything above
/// ```
///
/// Decoding validates, beyond each inner checkpoint's own checks, the
/// fleet invariants: shards strictly sorted by prefix, one cluster mode
/// across shards, per-shard RNG seeds derived from the global seed,
/// per-shard returns within each lease, and **budget conservation** —
/// outstanding leases plus the unassigned pool equal the global budget
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCheckpoint {
    /// The fleet's global RNG seed (per-shard seeds derive from it).
    pub rng_seed: u64,
    /// The global unique-address budget.
    pub budget: u64,
    /// Budget currently in the pool, leased to no shard.
    pub pool_unassigned: u64,
    /// Scheduling epochs completed (cosmetic continuity across resumes).
    pub epochs: u64,
    /// Per-shard snapshots, sorted by prefix.
    pub shards: Vec<ShardCheckpoint>,
}

impl ShardedCheckpoint {
    /// Serializes the envelope to its canonical byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal_frame(SHARDED_MAGIC, SHARDED_FORMAT_VERSION, 0, |out| {
            put_u64(out, self.rng_seed);
            put_u64(out, self.budget);
            put_u64(out, self.pool_unassigned);
            put_u64(out, self.epochs);
            put_u64(out, self.shards.len() as u64);
            for shard in &self.shards {
                put_u128(out, shard.prefix.network().bits());
                out.push(shard.prefix.len());
                put_u64(out, shard.returned);
                let blob = shard.engine.to_bytes();
                put_u64(out, blob.len() as u64);
                out.extend_from_slice(&blob);
            }
        })
    }

    /// Decodes an envelope, validating the outer checksum, each inner
    /// engine checkpoint, and the fleet invariants (see type docs).
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardedCheckpoint, CheckpointError> {
        let checkpoint = open_frame(bytes, SHARDED_MAGIC, SHARDED_FORMAT_VERSION, |r| {
            let rng_seed = r.u64()?;
            let budget = r.u64()?;
            let pool_unassigned = r.u64()?;
            let epochs = r.u64()?;
            // Smallest possible shard entry: prefix (17) + returned (8) +
            // blob length (8).
            let shard_count = r.len(16 + 1 + 8 + 8)?;
            let mut shards = Vec::with_capacity(shard_count);
            for _ in 0..shard_count {
                let network = NybbleAddr::from_bits(r.u128()?);
                let len = r.u8()?;
                if len > 128 {
                    return Err(CheckpointError::Invalid("prefix length out of range"));
                }
                let prefix = sixgen_addr::Prefix::new(network, len);
                if prefix.network() != network {
                    return Err(CheckpointError::Invalid("prefix has host bits set"));
                }
                let returned = r.u64()?;
                let blob_len = r.len(1)?;
                let blob = r.take(blob_len)?;
                let engine = EngineCheckpoint::from_bytes(blob)?;
                shards.push(ShardCheckpoint {
                    prefix,
                    returned,
                    engine,
                });
            }
            Ok(ShardedCheckpoint {
                rng_seed,
                budget,
                pool_unassigned,
                epochs,
                shards,
            })
        })?;
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Fleet-level structural invariants (each inner checkpoint is
    /// validated separately).
    pub(crate) fn validate(&self) -> Result<(), CheckpointError> {
        let mut outstanding: u128 = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 && self.shards[i - 1].prefix >= shard.prefix {
                return Err(CheckpointError::Invalid(
                    "shards not strictly sorted by prefix",
                ));
            }
            if shard.engine.mode != self.shards[0].engine.mode {
                return Err(CheckpointError::Invalid(
                    "shards disagree on the config fingerprint",
                ));
            }
            if shard.engine.rng_seed != crate::shard_rng_seed(self.rng_seed, shard.prefix) {
                return Err(CheckpointError::Invalid(
                    "shard rng_seed does not derive from the global seed",
                ));
            }
            if shard.returned > shard.engine.budget {
                return Err(CheckpointError::Invalid(
                    "shard returned more budget than its lease",
                ));
            }
            outstanding += (shard.engine.budget - shard.returned) as u128;
        }
        if outstanding + self.pool_unassigned as u128 != self.budget as u128 {
            return Err(CheckpointError::Invalid(
                "leases plus pool do not equal the global budget",
            ));
        }
        Ok(())
    }

    /// Reads and decodes an envelope file. Decode failures surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> std::io::Result<ShardedCheckpoint> {
        let bytes = std::fs::read(path)?;
        ShardedCheckpoint::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// `config` with the fleet's determinism fingerprint: the global
    /// `rng_seed`, and `mode` from the shards (which decoding checks
    /// agree; an empty fleet keeps `config`'s). The budget is the
    /// caller's to choose.
    pub fn pin_fingerprint(&self, config: Config) -> Config {
        let mode = self.shards.first().map_or(config.mode, |s| s.engine.mode);
        Config {
            rng_seed: self.rng_seed,
            mode,
            ..config
        }
    }
}

/// Writes checkpoints to a fixed path with atomic replace and bounded
/// retry/backoff, and owns the checkpoint cadence
/// ([`at_boundary`](Self::at_boundary)).
///
/// Every write goes through [`sixgen_obs::write_atomic`] (temp file +
/// rename), so the destination always holds a complete checkpoint — a
/// crash mid-write leaves the *previous* checkpoint intact, and a resume
/// after such a crash simply replays slightly more work. Transient I/O
/// failures are retried with exponential backoff; a persistent failure is
/// reported to the caller, whose run state is unaffected (checkpointing
/// is an observer, never a participant, of the engine loop).
#[derive(Debug)]
pub struct CheckpointWriter {
    path: PathBuf,
    retries: u32,
    backoff: Duration,
    /// [`at_boundary`](Self::at_boundary) writes at every `every`-th
    /// boundary.
    every: u64,
    /// Set once an [`at_boundary`](Self::at_boundary) write failed
    /// persistently: no later boundary writes.
    stopped: bool,
    writes: u64,
    /// Test hook: the next `n` write attempts fail with a synthetic I/O
    /// error before touching the filesystem. Drives the chaos harness's
    /// checkpoint-write fault scenario. Not part of the stable API.
    #[doc(hidden)]
    pub inject_failures: u32,
}

impl CheckpointWriter {
    /// Backoff cap: retries never sleep longer than this per attempt.
    const BACKOFF_CAP: Duration = Duration::from_secs(2);

    /// A writer with the default policy: 4 retries starting at 25 ms
    /// backoff, doubling per attempt.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointWriter {
        CheckpointWriter::with_policy(path, 4, Duration::from_millis(25))
    }

    /// A writer with an explicit retry count and initial backoff.
    pub fn with_policy(
        path: impl Into<PathBuf>,
        retries: u32,
        backoff: Duration,
    ) -> CheckpointWriter {
        CheckpointWriter {
            path: path.into(),
            retries,
            backoff,
            every: 1,
            stopped: false,
            writes: 0,
            inject_failures: 0,
        }
    }

    /// Sets the cadence of [`at_boundary`](Self::at_boundary); 0 counts
    /// as 1, the default.
    pub fn every(mut self, every: u64) -> CheckpointWriter {
        self.every = every.max(1);
        self
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of checkpoints successfully persisted.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The checkpoint cadence at round or epoch boundary number
    /// `boundary`: at every `every`-th boundary, persists the bytes
    /// `encode` returns (`encode` runs only then). A write that fails
    /// persistently is returned once, and the writer then writes at no
    /// later boundary. The run itself goes on unaffected: a resume
    /// replays from the last checkpoint that landed.
    pub fn at_boundary(
        &mut self,
        boundary: u64,
        encode: impl FnOnce() -> Vec<u8>,
    ) -> std::io::Result<()> {
        if self.stopped || !boundary.is_multiple_of(self.every) {
            return Ok(());
        }
        let written = self.write(&encode());
        self.stopped = written.is_err();
        written
    }

    /// Persists an encoded checkpoint ([`EngineCheckpoint::to_bytes`] or
    /// [`ShardedCheckpoint::to_bytes`]), retrying transient failures.
    /// Returns the last error once the retry budget is exhausted.
    pub fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut delay = self.backoff;
        let mut last_error = None;
        for attempt in 0..=self.retries {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = (delay * 2).min(CheckpointWriter::BACKOFF_CAP);
            }
            match self.attempt(bytes) {
                Ok(()) => {
                    self.writes += 1;
                    return Ok(());
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.expect("at least one attempt ran"))
    }

    fn attempt(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.inject_failures > 0 {
            self.inject_failures -= 1;
            return Err(std::io::Error::other("injected checkpoint write fault"));
        }
        sixgen_obs::write_atomic(&self.path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(s: &str) -> NybbleAddr {
        s.parse().unwrap()
    }

    fn sample() -> EngineCheckpoint {
        EngineCheckpoint {
            mode: ClusterMode::Tight,
            rng_seed: 0x6CE4,
            budget: 500,
            rng_state: [1, 2, 3, 4],
            rounds: 7,
            growths: 7,
            subsumed: 2,
            worker_panics: 1,
            cpu_time: Duration::from_nanos(123_456_789),
            wall_time: Duration::from_nanos(987_654_321),
            seeds: vec![addr("2001:db8::1"), addr("2001:db8::2")],
            slots: vec![
                SlotCheckpoint {
                    range: "2001:db8::?".parse().unwrap(),
                    seed_count: 2,
                    cached: CachedCheckpoint::Stale,
                },
                SlotCheckpoint {
                    range: "2001:db8::1".parse().unwrap(),
                    seed_count: 1,
                    cached: CachedCheckpoint::Ready {
                        range: "2001:db8::[0-3]".parse().unwrap(),
                        seed_count: 2,
                        range_size: 4,
                    },
                },
                SlotCheckpoint {
                    range: "2001:db8::2".parse().unwrap(),
                    seed_count: 1,
                    cached: CachedCheckpoint::Exhausted,
                },
            ],
            stale: vec![0],
            generated: vec![addr("2001:db8::1"), addr("2001:db8::2"), addr("2001:db8::3")],
        }
    }

    #[test]
    fn round_trip_is_byte_stable() {
        let checkpoint = sample();
        let bytes = checkpoint.to_bytes();
        let decoded = EngineCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, checkpoint);
        assert_eq!(decoded.to_bytes(), bytes, "re-serialization must be byte-identical");
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                EngineCheckpoint::from_bytes(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                EngineCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        // Longer file: checksum no longer lines up.
        assert!(EngineCheckpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let bytes = sample().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            EngineCheckpoint::from_bytes(&wrong_magic),
            Err(CheckpointError::BadMagic)
        );
        let resign = |mut bytes: Vec<u8>| {
            let at = bytes.len() - 8;
            let checksum = fnv1a(&bytes[..at]);
            bytes[at..].copy_from_slice(&checksum.to_le_bytes());
            bytes
        };
        // A future version must be refused even with a valid checksum.
        let mut future = bytes.clone();
        future[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            EngineCheckpoint::from_bytes(&resign(future)),
            Err(CheckpointError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            })
        );
        // So must a version-1 file: the same state with the growth-path
        // byte version 1 carried after the mode.
        let mut v1 = bytes.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        v1.insert(7, 0);
        assert_eq!(
            EngineCheckpoint::from_bytes(&resign(v1)),
            Err(CheckpointError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION,
            })
        );
        // A fleet envelope from a future version names the envelope
        // version this build reads, not the engine's.
        let mut envelope = sample_sharded().to_bytes();
        // A version-1 envelope has this build's layout, but may record an
        // interrupted shard's lease as returned: it is refused too.
        let mut v1 = envelope.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            ShardedCheckpoint::from_bytes(&resign(v1)),
            Err(CheckpointError::UnsupportedVersion {
                found: 1,
                supported: 2,
            })
        );
        envelope[4..6].copy_from_slice(&(SHARDED_FORMAT_VERSION + 1).to_le_bytes());
        let err = ShardedCheckpoint::from_bytes(&resign(envelope)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "unsupported checkpoint version {} (this build reads {SHARDED_FORMAT_VERSION})",
                SHARDED_FORMAT_VERSION + 1
            )
        );
    }

    #[test]
    fn structural_invariants_are_enforced() {
        // Stale list naming a Ready slot.
        let mut bad = sample();
        bad.stale = vec![1];
        let err = EngineCheckpoint::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(matches!(err, CheckpointError::Invalid(_)), "{err:?}");
        // Stale slot missing from the list.
        let mut bad = sample();
        bad.stale = vec![];
        assert!(EngineCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Out-of-bounds stale index: typed, carrying the offending index.
        let mut bad = sample();
        bad.stale = vec![99];
        let err = EngineCheckpoint::from_bytes(&bad.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::StaleIndexOutOfBounds {
                index: 99,
                slots: bad.slots.len() as u64
            },
            "{err:?}"
        );
        // An index that does not fit usize is out of bounds, not a cast
        // wraparound.
        let mut bad = sample();
        bad.stale = vec![u64::MAX];
        let err = EngineCheckpoint::from_bytes(&bad.to_bytes()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::StaleIndexOutOfBounds { index, .. } if index == u64::MAX),
            "{err:?}"
        );
        // Duplicate stale index: typed, carrying the repeated index.
        let mut bad = sample();
        let stale_slot = bad.stale[0];
        bad.stale.push(stale_slot);
        let err = EngineCheckpoint::from_bytes(&bad.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::DuplicateStaleIndex { index: stale_slot },
            "{err:?}"
        );
        // Generated set over budget.
        let mut bad = sample();
        bad.budget = 2;
        assert!(EngineCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Duplicate generated address.
        let mut bad = sample();
        bad.generated.push(bad.generated[0]);
        assert!(EngineCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Cached growth size disagreeing with its range.
        let mut bad = sample();
        if let CachedCheckpoint::Ready { range_size, .. } = &mut bad.slots[1].cached {
            *range_size += 1;
        }
        assert!(EngineCheckpoint::from_bytes(&bad.to_bytes()).is_err());
    }

    #[test]
    fn writer_retries_transient_faults_and_reports_persistent_ones() {
        let dir = std::env::temp_dir().join(format!("sixgen-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let checkpoint = sample();

        // Two injected faults, four retries: the write must succeed.
        let mut writer = CheckpointWriter::with_policy(&path, 4, Duration::from_millis(1));
        writer.inject_failures = 2;
        writer.write(&checkpoint.to_bytes()).unwrap();
        assert_eq!(writer.writes(), 1);
        assert_eq!(EngineCheckpoint::load(&path).unwrap(), checkpoint);

        // More faults than attempts: the error surfaces, and the
        // previously written checkpoint survives untouched.
        let mut altered = checkpoint.clone();
        altered.rounds += 1;
        writer.inject_failures = 10;
        assert!(writer.write(&altered.to_bytes()).is_err());
        assert_eq!(EngineCheckpoint::load(&path).unwrap(), checkpoint);

        // A stray torn temp file never shadows the real checkpoint.
        std::fs::write(dir.join("state.ckpt.tmp"), b"garbage").unwrap();
        assert_eq!(EngineCheckpoint::load(&path).unwrap(), checkpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A minimal valid fleet envelope: two shards in prefix order, the
    /// per-shard seeds/RNG rewritten to satisfy the fleet fingerprint,
    /// leases and pool reconciling to the global budget.
    fn sample_sharded() -> ShardedCheckpoint {
        let global_seed = 0xFEED;
        let shard = |prefix: &str, global: u64| {
            let prefix: sixgen_addr::Prefix = prefix.parse().unwrap();
            let mut engine = sample();
            engine.rng_seed = crate::shard_rng_seed(global, prefix);
            ShardCheckpoint {
                prefix,
                returned: 40,
                engine,
            }
        };
        ShardedCheckpoint {
            rng_seed: global_seed,
            budget: 1_000,
            // Two leases of 500 minus 40 returned each: 80 in the pool.
            pool_unassigned: 80,
            epochs: 3,
            shards: vec![
                shard("2001:db8::/48", global_seed),
                shard("2001:db9::/48", global_seed),
            ],
        }
    }

    #[test]
    fn sharded_round_trip_is_byte_stable() {
        let envelope = sample_sharded();
        let bytes = envelope.to_bytes();
        let decoded = ShardedCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, envelope);
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "re-serialization must be byte-identical"
        );
    }

    #[test]
    fn sharded_corruption_and_truncation_are_rejected() {
        let bytes = sample_sharded().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(
                ShardedCheckpoint::from_bytes(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        for len in 0..bytes.len() {
            assert!(
                ShardedCheckpoint::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
        // An engine checkpoint is not a fleet envelope and vice versa.
        assert_eq!(
            ShardedCheckpoint::from_bytes(&sample().to_bytes()),
            Err(CheckpointError::BadMagic)
        );
        assert_eq!(
            EngineCheckpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn sharded_fleet_invariants_are_enforced() {
        // Shards out of prefix order.
        let mut bad = sample_sharded();
        bad.shards.swap(0, 1);
        assert!(ShardedCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Duplicate prefix.
        let mut bad = sample_sharded();
        bad.shards[1].prefix = bad.shards[0].prefix;
        let seed = bad.shards[0].engine.rng_seed;
        bad.shards[1].engine.rng_seed = seed;
        assert!(ShardedCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Shard RNG stream not derived from the global seed.
        let mut bad = sample_sharded();
        bad.shards[1].engine.rng_seed ^= 1;
        assert!(ShardedCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Inconsistent mode fingerprint across shards.
        let mut bad = sample_sharded();
        bad.shards[1].engine.mode = ClusterMode::Loose;
        assert!(ShardedCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Returned exceeding the lease.
        let mut bad = sample_sharded();
        bad.shards[0].returned = bad.shards[0].engine.budget + 1;
        assert!(ShardedCheckpoint::from_bytes(&bad.to_bytes()).is_err());
        // Conservation: leases minus returns plus pool must equal the
        // global budget.
        let mut bad = sample_sharded();
        bad.pool_unassigned += 1;
        assert!(ShardedCheckpoint::from_bytes(&bad.to_bytes()).is_err());
    }

    #[test]
    fn cadence_writes_every_nth_boundary_until_a_persistent_failure() {
        let dir = std::env::temp_dir().join(format!("sixgen-cadence-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");

        let mut writer = CheckpointWriter::with_policy(&path, 2, Duration::from_millis(1)).every(3);
        let mut written = Vec::new();
        for boundary in 1..=10u64 {
            writer
                .at_boundary(boundary, || {
                    written.push(boundary);
                    boundary.to_le_bytes().to_vec()
                })
                .unwrap();
        }
        assert_eq!(written, [3, 6, 9]);
        assert_eq!(writer.writes(), 3);
        assert_eq!(std::fs::read(&path).unwrap(), 9u64.to_le_bytes());

        // More injected faults than the three attempts: the failure is
        // reported once, and no later boundary encodes or attempts a write.
        let mut writer = CheckpointWriter::with_policy(&path, 2, Duration::from_millis(1));
        writer.inject_failures = 5;
        let mut encoded = Vec::new();
        let failures: Vec<u64> = (1..=4u64)
            .filter(|&boundary| {
                writer
                    .at_boundary(boundary, || {
                        encoded.push(boundary);
                        vec![0]
                    })
                    .is_err()
            })
            .collect();
        assert_eq!(failures, [1]);
        assert_eq!(encoded, [1]);
        assert_eq!(writer.inject_failures, 2, "three attempts, then none");
        assert_eq!(writer.writes(), 0);
        assert_eq!(std::fs::read(&path).unwrap(), 9u64.to_le_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_writer_round_trips_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("sixgen-shck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");
        let envelope = sample_sharded();
        let mut writer = CheckpointWriter::with_policy(&path, 4, Duration::from_millis(1));
        writer.write(&envelope.to_bytes()).unwrap();
        assert_eq!(ShardedCheckpoint::load(&path).unwrap(), envelope);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pin_fingerprint_takes_the_checkpoint_fields_and_keeps_the_rest() {
        let caller = Config {
            budget: 77,
            threads: 3,
            ..Config::default()
        };
        let pinned = sample().pin_fingerprint(caller.clone());
        assert_eq!(pinned.mode, ClusterMode::Tight);
        assert_eq!(pinned.rng_seed, 0x6CE4);
        assert_eq!((pinned.budget, pinned.threads), (77, 3));

        let mut fleet = sample_sharded();
        let pinned = fleet.pin_fingerprint(caller.clone());
        assert_eq!(pinned.mode, ClusterMode::Tight);
        assert_eq!(pinned.rng_seed, 0xFEED, "the global seed, not a shard's");
        assert_eq!((pinned.budget, pinned.threads), (77, 3));

        fleet.shards.clear();
        let pinned = fleet.pin_fingerprint(caller.clone());
        assert_eq!(pinned.mode, caller.mode, "an empty fleet keeps the caller's mode");
        assert_eq!(pinned.rng_seed, 0xFEED);
    }
}
