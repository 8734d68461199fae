//! The recording machinery of the trace sink and the event bus: the
//! thread-sharded overwrite-oldest ring that holds the trace sink's
//! spans; the process-wide thread id that keys it and that spans and
//! event lines both carry; and the live stream writer both use, which
//! tears itself down on the first write error. No method here takes one
//! lock while holding another; callers format their bytes before
//! [`LiveStream::write`], so the stream lock covers only the write
//! itself.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of ring shards. Threads map to shards by [`thread_id`], so up
/// to this many threads record without sharing a lock.
pub(crate) const SHARDS: usize = 16;

/// Process-wide thread-id assignment: each OS thread gets a stable small
/// id the first time it records a span or streams an event, so spans and
/// events from the same thread carry the same id.
pub(crate) fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|cell| {
        let mut id = cell.get();
        if id == 0 {
            id = NEXT.fetch_add(1, Ordering::Relaxed);
            cell.set(id);
        }
        id
    })
}

/// One shard: a fixed-capacity buffer that overwrites its oldest record.
#[derive(Debug)]
struct Shard<T> {
    records: Vec<T>,
    /// Index of the oldest record once the buffer has wrapped.
    head: usize,
    /// Whether this shard has ever overwritten a record.
    wrapped: bool,
}

/// `SHARDS` overwrite-oldest rings of `capacity` records each. Memory is
/// capped at `SHARDS × capacity` records; every overwrite counts as one
/// dropped record.
#[derive(Debug)]
pub(crate) struct ShardedRing<T> {
    capacity: usize,
    shards: [Mutex<Shard<T>>; SHARDS],
    dropped: AtomicU64,
}

impl<T: Clone> ShardedRing<T> {
    /// Rings retaining up to `capacity` records per shard; a zero capacity
    /// is rounded up to 1.
    pub(crate) fn new(capacity: usize) -> Self {
        ShardedRing {
            capacity: capacity.max(1),
            shards: [(); SHARDS].map(|()| {
                Mutex::new(Shard {
                    records: Vec::new(),
                    head: 0,
                    wrapped: false,
                })
            }),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends `record` to the shard of `thread`, overwriting (and
    /// counting) that shard's oldest record when it is full.
    pub(crate) fn push(&self, thread: u64, record: T) {
        let mut shard = self.shards[(thread as usize) % SHARDS]
            .lock()
            .expect("ring shard poisoned");
        if shard.records.len() < self.capacity {
            shard.records.push(record);
            return;
        }
        let head = shard.head;
        shard.records[head] = record;
        shard.head = (head + 1) % self.capacity;
        shard.wrapped = true;
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records lost to overwrites since creation.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of shards that have overwritten at least one record.
    pub(crate) fn wrapped_shards(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.lock().expect("ring shard poisoned").wrapped)
            .count() as u64
    }

    /// Number of records currently retained.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("ring shard poisoned").records.len())
            .sum()
    }

    /// Every retained record, shard by shard, each shard oldest first.
    /// Callers sort by their own key.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("ring shard poisoned");
            out.extend_from_slice(&shard.records[shard.head..]);
            out.extend_from_slice(&shard.records[..shard.head]);
        }
        out
    }
}

/// An optional live writer that records are appended to as they
/// complete. The first write error drops the writer and counts one error:
/// observation must never take down the observed run.
#[derive(Default)]
pub(crate) struct LiveStream {
    /// Mirrors `writer.is_some()`, so callers without a stream pay one
    /// relaxed load per record.
    active: AtomicBool,
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    written: AtomicU64,
    errors: AtomicU64,
}

impl std::fmt::Debug for LiveStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveStream").finish_non_exhaustive()
    }
}

impl LiveStream {
    /// Makes `writer` the live destination, replacing any previous one
    /// without finishing it.
    pub(crate) fn attach(&self, writer: Box<dyn Write + Send>) {
        *self.writer.lock().expect("stream writer poisoned") = Some(writer);
        self.active.store(true, Ordering::Relaxed);
    }

    /// Whether a writer is attached: one relaxed load.
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Appends one record's bytes. Counts a success in
    /// [`written`](Self::written); on failure counts an error and drops
    /// the writer. A no-op when no writer is attached.
    pub(crate) fn write(&self, bytes: &[u8]) {
        let mut slot = self.writer.lock().expect("stream writer poisoned");
        let Some(writer) = slot.as_mut() else {
            return;
        };
        match writer.write_all(bytes) {
            Ok(()) => {
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.active.store(false, Ordering::Relaxed);
                *slot = None;
            }
        }
    }

    /// Detaches the writer, appends `trailer()` (empty for none), and
    /// flushes. The trailer is built after detaching, so counters it reads
    /// are final. A no-op returning `Ok` when no writer is attached,
    /// including after a write error already dropped it.
    pub(crate) fn finish(&self, trailer: impl FnOnce() -> String) -> std::io::Result<()> {
        self.active.store(false, Ordering::Relaxed);
        let writer = self.writer.lock().expect("stream writer poisoned").take();
        let Some(mut writer) = writer else {
            return Ok(());
        };
        writer.write_all(trailer().as_bytes())?;
        writer.flush()
    }

    /// Records successfully written.
    pub(crate) fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Write failures; at most one per attached writer.
    pub(crate) fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}
