//! The output side shared by the trace sink and the event bus: the
//! process-wide thread id that spans and event lines both carry, and the
//! live stream writer both use, which tears itself down on the first
//! write error. Callers format their bytes before [`LiveStream::write`],
//! so the stream lock covers only the write itself.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

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
