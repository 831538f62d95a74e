//! A one-way, in-order record stream between two halves of one computation.
//!
//! [`pipeline`] runs a [`Producer`] that [`emit`](Emit::emit)s records and
//! a consumer that sees every record, in emission order, exactly once. The
//! consumer's state never flows back to the producer, so where the consumer
//! runs cannot change what either half computes. The transport is chosen
//! here and nowhere else:
//!
//! * **Helper thread** — outside an [`Engine`](crate::Engine) run, on a host
//!   with at least two CPUs. The producer runs on a spawned scoped thread;
//!   the consumer runs on the caller. Records travel in batches of 1 024
//!   through a channel bounded at two batches, and consumed batches go
//!   back to the producer for reuse. The caller allocates every batch
//!   buffer the stream can have in flight before the helper starts, so the
//!   buffers come from the caller's heap, not from a helper-thread arena
//!   that would stay resident after the stream ends.
//! * **Same thread** — inside any engine run (serial included), or on a
//!   one-CPU host. Each record is handed to the consumer as it is emitted,
//!   on the calling thread. An engine already has as many threads as it
//!   was asked for; this transport spawns none and buffers nothing.
//!
//! A panic on either side reaches the caller with its own payload, and the
//! helper is always joined first. If the consumer panics, its receiver is
//! dropped, so a producer blocked on a full channel is released and unwinds
//! silently; then the consumer's panic resumes.

use std::cell::Cell;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;

/// Records per batch on the helper-thread transport.
const BATCH: usize = 1024;

/// Full batches that may wait for the consumer.
const DEPTH: usize = 2;

/// Batch buffers in one stream: the channel's full ones, the one the
/// consumer drains and the one the producer fills.
const BUFFERS: usize = DEPTH + 2;

thread_local! {
    /// Is this thread running an engine's tasks?
    static IN_ENGINE: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as an engine worker until dropped, restoring
/// the previous mark (a serial engine runs on its caller's thread).
pub(crate) struct EngineMark(bool);

impl EngineMark {
    pub(crate) fn enter() -> Self {
        Self(IN_ENGINE.replace(true))
    }
}

impl Drop for EngineMark {
    fn drop(&mut self) {
        IN_ENGINE.set(self.0);
    }
}

/// Does this host have a core to spare for the helper thread?
fn spare_core() -> bool {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from)) >= 2
}

/// Where a [`Producer`] sends its records. Each transport has its own
/// implementation, and the producer is compiled for each, so the
/// same-thread one is a direct call into the consumer.
pub trait Emit<T> {
    /// Appends `record` to the stream.
    fn emit(&mut self, record: T);
}

/// The first half of a [`pipeline`].
pub trait Producer<T>: Send {
    /// What the producer returns once it has emitted its last record.
    type Output: Send;

    /// Runs the producer, sending its records to `out`.
    fn produce<E: Emit<T>>(self, out: &mut E) -> Self::Output;
}

/// The same-thread transport: every record goes straight to the consumer.
struct Inline<F>(F);

impl<T, F: FnMut(T)> Emit<T> for Inline<F> {
    #[inline(always)]
    fn emit(&mut self, record: T) {
        (self.0)(record);
    }
}

/// The helper-thread transport's sending end.
struct Batches<T> {
    batch: Vec<T>,
    full: SyncSender<Vec<T>>,
    empty: Receiver<Vec<T>>,
}

impl<T> Emit<T> for Batches<T> {
    #[inline]
    fn emit(&mut self, record: T) {
        self.batch.push(record);
        if self.batch.len() == BATCH {
            self.send();
        }
    }
}

impl<T> Batches<T> {
    /// Sends the batch and continues in a recycled buffer. Once the send
    /// returns, at most [`DEPTH`] buffers wait in the channel and at most
    /// one is with the consumer, so one of the [`BUFFERS`] is back already
    /// and the fresh allocation never runs (`tests/stream_buffers.rs`
    /// counts).
    #[inline(never)]
    fn send(&mut self) {
        if self.full.send(mem::take(&mut self.batch)).is_err() {
            resume_unwind(Box::new(ConsumerGone));
        }
        self.batch = self
            .empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(BATCH));
    }
}

/// The payload a producer unwinds with when the consumer has gone: the
/// consumer's own panic is the one reported.
struct ConsumerGone;

/// Runs `producer`, handing each record it emits to `consume` in order,
/// and returns the producer's output. See the [module docs](self) for
/// where each half runs.
///
/// # Panics
///
/// Resumes the consumer's panic if it panicked, else the producer's.
///
/// # Example
///
/// ```
/// use wsc_parallel::{pipeline, Emit, Producer};
///
/// struct Count(u64);
///
/// impl Producer<u64> for Count {
///     type Output = u64;
///     fn produce<E: Emit<u64>>(self, out: &mut E) -> u64 {
///         (1..=self.0).for_each(|x| out.emit(x));
///         self.0
///     }
/// }
///
/// let mut sum = 0;
/// let count = pipeline(Count(5000), |x| sum += x);
/// assert_eq!((count, sum), (5000, 5000 * 5001 / 2));
/// ```
pub fn pipeline<T, P>(producer: P, mut consume: impl FnMut(T)) -> P::Output
where
    T: Send,
    P: Producer<T>,
{
    if IN_ENGINE.get() || !spare_core() {
        // By value, so the consumer inlines into the producer's loop.
        return producer.produce(&mut Inline(consume));
    }
    let (full_tx, full_rx) = sync_channel::<Vec<T>>(DEPTH);
    // Room for every buffer, so a returned one is never dropped.
    let (empty_tx, empty_rx) = sync_channel::<Vec<T>>(BUFFERS);
    for _ in 1..BUFFERS {
        let _ = empty_tx.try_send(Vec::with_capacity(BATCH));
    }
    let first = Vec::with_capacity(BATCH);
    std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            let mut out = Batches {
                batch: first,
                full: full_tx,
                empty: empty_rx,
            };
            let produced = producer.produce(&mut out);
            if !out.batch.is_empty() {
                out.send();
            }
            produced
        });
        let consumed = catch_unwind(AssertUnwindSafe(|| {
            for mut batch in &full_rx {
                batch.drain(..).for_each(&mut consume);
                // A full return channel means the producer has spares.
                let _ = empty_tx.try_send(batch);
            }
        }));
        drop(full_rx);
        let produced = helper.join();
        match (consumed, produced) {
            (Err(panic), _) | (Ok(()), Err(panic)) => resume_unwind(panic),
            (Ok(()), Ok(produced)) => produced,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Task};

    /// Emits `0..n` and returns `n`.
    struct Count(u64);

    impl Producer<u64> for Count {
        type Output = u64;
        fn produce<E: Emit<u64>>(self, out: &mut E) -> u64 {
            (0..self.0).for_each(|x| out.emit(x));
            self.0
        }
    }

    /// Every transport delivers every record once, in order, and returns
    /// the producer's value.
    #[test]
    fn records_arrive_in_order_on_both_transports() {
        for n in [
            0u64,
            1,
            BATCH as u64 - 1,
            BATCH as u64,
            10 * BATCH as u64 + 7,
        ] {
            // The producer's value comes back: the count it emitted.
            let stream = |n: u64| {
                let mut seen = Vec::new();
                let emitted = pipeline(Count(n), |x| seen.push(x));
                (emitted, seen)
            };
            let task = [Task {
                seed: 0,
                label: "stream".to_string(),
                payload: n,
            }];
            let in_engine = Engine::serial()
                .run(&task, |t, _| stream(t.payload))
                .expect("no panic");
            let want = (n, (0..n).collect::<Vec<u64>>());
            assert_eq!(stream(n), want, "n = {n}");
            assert_eq!(in_engine, vec![want], "n = {n}");
        }
    }

    #[test]
    fn the_engine_mark_is_scoped_to_the_run() {
        assert!(!IN_ENGINE.get());
        let marks = Engine::serial()
            .run(
                &[Task {
                    seed: 0,
                    label: String::new(),
                    payload: (),
                }],
                |_, _| IN_ENGINE.get(),
            )
            .expect("no panic");
        assert_eq!(marks, vec![true]);
        assert!(!IN_ENGINE.get(), "a serial run restores its caller's mark");
    }
}
