//! The scoped metrics sink.
//!
//! Tracing is off until a driver calls [`install_local`] on its thread.
//! The installed [`Sink`] owns everything the run observes: the epoch
//! length, a [`Registry`] of counters, the snapshot buffer, and an
//! optional `on_record` callback that streams each snapshot as it is
//! recorded. [`crate::fork`] and [`crate::adopt`] carry the sink to pool
//! workers along with the scope path, so a replay records into its
//! caller's sink on whichever thread it runs. A thread with no sink
//! drops its snapshots and counts.
//!
//! Sinks on different threads never share state: a replay server
//! installs one per session thread, so one tenant's epochs and counters
//! never reach another's stream, and each session's replay ids start
//! from `r0000` exactly as an offline run's do.
//!
//! [`SinkGuard::finish`] returns the snapshots **sorted by (experiment
//! id, epoch)**. Replay ids are pure functions of program structure (see
//! [`crate::scope`]) and epochs are unique within a replay, so the sort
//! key is total and the rendered JSONL is byte-identical whatever order
//! the pool interleaved the replays in.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use crate::registry::{Counter, Registry};
use crate::snapshot::Snapshot;

/// Snapshot observer invoked synchronously on every record, from
/// whichever thread recorded it. It must not record into the sink
/// itself (the buffer is locked while it runs).
pub type OnRecord = Box<dyn FnMut(&Snapshot) + Send>;

/// One run's observability state, shared by every thread that adopted
/// it.
pub struct Sink {
    /// Epoch length in accesses; 0 collects counters only.
    every: u64,
    registry: Registry,
    /// `obs.snapshots_recorded`, registered at the first record so the
    /// registry lists metrics in the order the run first touched them.
    recorded: OnceLock<Counter>,
    buffer: Mutex<Buffer>,
}

struct Buffer {
    snapshots: Vec<Snapshot>,
    on_record: Option<OnRecord>,
}

impl Sink {
    /// The run's counters and gauges.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A copy of everything recorded so far, sorted by (experiment id,
    /// epoch), without clearing the buffer. This is the checkpoint path:
    /// call it while replays are quiescent (between chunks).
    pub fn snapshots(&self) -> Vec<Snapshot> {
        let mut snapshots = self.lock().snapshots.clone();
        sort(&mut snapshots);
        snapshots
    }

    /// Seeds the buffer with snapshots a checkpoint saved from
    /// [`snapshots`](Self::snapshots). They are **not** replayed through
    /// `on_record`: a resumed run streams only the epochs it newly
    /// produces, while [`SinkGuard::finish`] returns the merged stream.
    pub fn extend(&self, snapshots: Vec<Snapshot>) {
        self.lock().snapshots.extend(snapshots);
    }

    fn record(&self, snapshot: Snapshot) {
        self.recorded
            .get_or_init(|| self.registry.counter("obs.snapshots_recorded"))
            .inc();
        let mut buffer = self.lock();
        if let Some(observer) = buffer.on_record.as_mut() {
            observer(&snapshot);
        }
        buffer.snapshots.push(snapshot);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Buffer> {
        self.buffer.lock().expect("sink lock")
    }
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sink")
            .field("every", &self.every)
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Sink>>> = const { RefCell::new(None) };
}

/// Keeps a sink installed on the thread that made it; dropping the guard
/// uninstalls the sink and discards what it buffered. Call
/// [`finish`](Self::finish) instead to take the snapshots.
///
/// The guard is deliberately `!Send`: the sink must be torn down by the
/// thread that installed it.
#[must_use = "the sink is uninstalled when this guard drops"]
pub struct SinkGuard {
    sink: Arc<Sink>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SinkGuard {
    /// The sink's counters and gauges.
    pub fn registry(&self) -> &Registry {
        &self.sink.registry
    }

    /// Uninstalls the sink and returns everything it recorded, sorted by
    /// (experiment id, epoch).
    #[must_use]
    pub fn finish(self) -> Vec<Snapshot> {
        let mut snapshots = std::mem::take(&mut self.sink.lock().snapshots);
        sort(&mut snapshots);
        snapshots
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| current.borrow_mut().take());
    }
}

/// Installs a sink on the **current thread** with an epoch of `every`
/// accesses; `every == 0` installs a counters-only sink, under which
/// replays emit no snapshots. Pool fan-outs started from this thread
/// carry the sink to their workers.
///
/// `on_record` (if given) observes each snapshot at record time, before
/// it is buffered.
///
/// # Panics
///
/// Panics if a sink is already installed on this thread (a driver bug).
pub fn install_local(every: u64, on_record: Option<OnRecord>) -> SinkGuard {
    let sink = Arc::new(Sink {
        every,
        registry: Registry::new(),
        recorded: OnceLock::new(),
        buffer: Mutex::new(Buffer {
            snapshots: Vec::new(),
            on_record,
        }),
    });
    CURRENT.with(|current| {
        let mut current = current.borrow_mut();
        assert!(
            current.is_none(),
            "a sink is already installed on this thread"
        );
        *current = Some(Arc::clone(&sink));
    });
    SinkGuard {
        sink,
        _not_send: std::marker::PhantomData,
    }
}

/// The sink this thread records into, if any.
pub fn installed() -> Option<Arc<Sink>> {
    CURRENT.with(|current| current.borrow().clone())
}

/// Makes `sink` this thread's sink and returns the one it replaces (the
/// hand-off [`crate::adopt`] uses).
pub(crate) fn swap(sink: Option<Arc<Sink>>) -> Option<Arc<Sink>> {
    CURRENT.with(|current| current.replace(sink))
}

/// `true` when this thread has a sink, counters-only or not.
pub fn is_enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

/// The installed sink's epoch length, or `None` when this thread has no
/// sink or a counters-only one. This one thread-local read is the
/// entire cost tracing adds to an unobserved replay.
pub fn epoch_len() -> Option<u64> {
    CURRENT.with(|current| {
        current
            .borrow()
            .as_ref()
            .map(|sink| sink.every)
            .filter(|&every| every > 0)
    })
}

/// Adds `n` to the counter `name` of this thread's sink; a no-op with
/// none.
pub fn count(name: &str, n: u64) {
    CURRENT.with(|current| {
        if let Some(sink) = current.borrow().as_ref() {
            sink.registry.counter(name).add(n);
        }
    });
}

/// Records one snapshot into this thread's sink; a no-op with none.
pub(crate) fn record(snapshot: Snapshot) {
    CURRENT.with(|current| {
        if let Some(sink) = current.borrow().as_ref() {
            sink.record(snapshot);
        }
    });
}

fn sort(snapshots: &mut [Snapshot]) {
    snapshots.sort_by(|a, b| a.experiment.cmp(&b.experiment).then(a.epoch.cmp(&b.epoch)));
}

/// Renders snapshots as JSON Lines: one compact JSON object per line,
/// with a trailing newline.
///
/// # Errors
///
/// Returns the underlying serialization error (e.g. a non-finite float,
/// which `serde_json` rejects).
pub fn to_jsonl(snapshots: &[Snapshot]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for snapshot in snapshots {
        out.push_str(&serde_json::to_string(snapshot)?);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_record_drain_lifecycle() {
        assert!(!is_enabled());
        assert_eq!(epoch_len(), None);
        record(Snapshot::empty("dropped", 0, 1));

        let streamed = Arc::new(Mutex::new(Vec::new()));
        let observer = Arc::clone(&streamed);
        let guard = install_local(
            100,
            Some(Box::new(move |s: &Snapshot| {
                observer
                    .lock()
                    .unwrap()
                    .push((s.experiment.clone(), s.epoch));
            })),
        );
        assert!(is_enabled());
        assert_eq!(epoch_len(), Some(100));

        // Out-of-order arrival (as from pool workers) sorts on finish.
        record(Snapshot::empty("b/r0001", 0, 10));
        record(Snapshot::empty("a/r0000", 1, 20));
        record(Snapshot::empty("a/r0000", 0, 10));
        assert_eq!(guard.registry().counter("obs.snapshots_recorded").get(), 3);
        let drained = guard.finish();
        assert!(!is_enabled(), "finish uninstalls the sink");
        let order: Vec<(String, u64)> = drained
            .iter()
            .map(|s| (s.experiment.clone(), s.epoch))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a/r0000".to_string(), 0),
                ("a/r0000".to_string(), 1),
                ("b/r0001".to_string(), 0)
            ]
        );
        assert_eq!(
            streamed.lock().unwrap()[0],
            ("b/r0001".to_string(), 0),
            "the observer sees emission order"
        );

        let jsonl = to_jsonl(&drained).expect("snapshots serialize");
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn checkpoint_copy_and_extend_continue_one_stream() {
        let guard = install_local(50, None);
        record(Snapshot::empty("a/r0000", 0, 10));
        record(Snapshot::empty("a/r0000", 1, 20));
        let saved = installed().expect("installed").snapshots();
        assert_eq!(saved.len(), 2, "the copy does not clear the buffer");
        assert_eq!(guard.finish().len(), 2);

        // A "resumed process": a fresh sink seeded with the saved epochs.
        let guard = install_local(50, None);
        installed().expect("installed").extend(saved);
        record(Snapshot::empty("a/r0000", 2, 30));
        let epochs: Vec<u64> = guard.finish().iter().map(|s| s.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2], "extended epochs merge in order");
    }

    #[test]
    fn counters_only_sink_has_no_epochs() {
        let guard = install_local(0, None);
        assert!(is_enabled());
        assert_eq!(epoch_len(), None);
        installed()
            .expect("installed")
            .registry()
            .counter("x")
            .add(2);
        assert_eq!(guard.registry().counter("x").get(), 2);
    }

    #[test]
    fn dropping_the_guard_discards_and_uninstalls() {
        {
            let _guard = install_local(10, None);
            record(Snapshot::empty("a", 0, 1));
        }
        assert!(!is_enabled());
        assert!(installed().is_none(), "dropped sink is gone");
    }

    #[test]
    fn sinks_are_per_thread_until_adopted() {
        let guard = install_local(10, None);
        let forked = crate::fork();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(!is_enabled(), "other threads see no sink");
                record(Snapshot::empty("dropped", 0, 1));
                let _adopted = crate::adopt(&forked);
                record(Snapshot::empty("kept", 0, 1));
            });
        });
        let names: Vec<String> = guard.finish().into_iter().map(|s| s.experiment).collect();
        assert_eq!(names, vec!["kept"]);
    }
}
