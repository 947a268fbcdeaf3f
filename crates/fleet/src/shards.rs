//! The shard-thread substrate under the fleet scheduler.
//!
//! A [`pds_core::Pds`] is `!Send`, so fleet state never moves between
//! threads: `N` long-lived threads each *build and own* one shard state
//! `S` (the init closure runs inside the thread), and work is shipped
//! to a shard as a boxed job. [`FleetScheduler`](crate::FleetScheduler)
//! hosts its slot map here; spawn, hang-up-and-join and the trace scope
//! around one token's turn are the thread-level half of it.

use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

use pds_obs::{AttrValue, FinishedSpan, TraceContext};

use crate::sched::FleetError;

type Job<S> = Box<dyn FnOnce(&mut S) + Send>;

/// `N` threads, each owning one `S`; dropped ⇒ hung up and joined.
pub(crate) struct ShardThreads<S> {
    txs: Vec<Sender<Job<S>>>,
    handles: Vec<JoinHandle<()>>,
}

impl<S: 'static> ShardThreads<S> {
    /// Spawn `workers` threads named `fleet-shard-{w}`; each builds its
    /// state with `init()` and then runs jobs until hung up.
    ///
    /// A refused spawn (rlimits on a big fleet) surfaces as
    /// [`FleetError::SpawnFailed`] instead of aborting the process; the
    /// threads already started are hung up and joined (by `Drop`) before
    /// returning.
    pub fn spawn<I>(workers: usize, init: I) -> Result<Self, FleetError>
    where
        I: FnOnce() -> S + Send + Clone + 'static,
    {
        let mut shards = ShardThreads {
            txs: Vec::with_capacity(workers),
            handles: Vec::with_capacity(workers),
        };
        for w in 0..workers {
            let init = init.clone();
            let (tx, rx) = channel::<Job<S>>();
            let handle = std::thread::Builder::new()
                .name(format!("fleet-shard-{w}"))
                .spawn(move || {
                    let mut state = init();
                    for job in rx {
                        job(&mut state);
                    }
                })
                .map_err(|source| FleetError::SpawnFailed { worker: w, source })?;
            shards.txs.push(tx);
            shards.handles.push(handle);
        }
        Ok(shards)
    }

    /// Number of shard threads.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// Queue `job` on `shard`; false if that thread is gone (it panicked).
    pub fn send(&self, shard: usize, job: impl FnOnce(&mut S) + Send + 'static) -> bool {
        self.txs[shard].send(Box::new(job)).is_ok()
    }
}

impl<S> Drop for ShardThreads<S> {
    fn drop(&mut self) {
        self.txs.clear(); // hang up: threads drain their queue and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One token's turn of a phase: `(token, result, span tree)` — the tree
/// only when the phase is traced.
pub(crate) type Turn<R> = (usize, R, Option<FinishedSpan>);

/// Run token (or cell) `i`'s turn of a phase. When the phase is traced
/// (`ctx` is `Some`) the turn runs inside a `token.i` scope, so every
/// instrumented layer `f` calls into (flash IO counters, RAM high-water)
/// records beneath it, and the tree comes back beside the result for the
/// shard to return on its result channel. Untraced, this is `f()`.
pub(crate) fn token_turn<R>(ctx: Option<TraceContext>, i: usize, f: impl FnOnce() -> R) -> Turn<R> {
    if ctx.is_none() {
        return (i, f(), None);
    }
    let (out, mut tree) = pds_obs::trace::trace(&format!("token.{i}"), f);
    tree.attrs
        .push(("token".to_string(), AttrValue::U64(i as u64)));
    (i, out, Some(tree))
}
