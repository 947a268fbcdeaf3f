//! The fleet worker pool: parallel phases over `!Send` tokens.
//!
//! A [`pds_core::Pds`] is deliberately `!Send` — it models one secure
//! microcontroller with `Rc`-shared flash and RAM. The pool therefore
//! never moves a token between threads: each long-lived worker thread
//! *builds and owns* a contiguous shard of tokens (the factory closure
//! runs inside the worker), and phases are shipped to the shards as
//! boxed jobs. [`TokenPool::map`] is a **phase barrier**: it runs one
//! closure over every token in parallel and returns the results merged
//! in token-index order, so the output is identical no matter how many
//! workers the fleet was sharded across.
//!
//! Determinism contract: the phase closure must derive any randomness
//! it needs from the token index (per-token RNG streams), never from
//! shared mutable state — then `map(f)` at 1, 2, and 8 workers is
//! bit-for-bit identical.

use std::sync::mpsc::channel;

use crate::sched::FleetError;
use crate::shards::{in_trace, ShardThreads};

/// A pool of worker threads, each owning one shard of tokens.
pub struct TokenPool<T> {
    shards: ShardThreads<Vec<(usize, T)>>,
    n_tokens: usize,
}

impl<T: 'static> TokenPool<T> {
    /// Build `n_tokens` tokens sharded over `workers` threads. The
    /// factory runs inside the owning worker (tokens may be `!Send`);
    /// shards are contiguous index ranges, but since every per-token
    /// computation is a pure function of the token index, the shard
    /// layout is unobservable in any result.
    ///
    /// A refused thread spawn surfaces as [`FleetError::SpawnFailed`].
    pub fn build<F>(n_tokens: usize, workers: usize, factory: F) -> Result<Self, FleetError>
    where
        F: Fn(usize) -> T + Send + Clone + 'static,
    {
        let workers = workers.max(1).min(n_tokens.max(1));
        let chunk = n_tokens.div_ceil(workers);
        let shards = ShardThreads::spawn(workers, "fleet-worker", move |w| {
            let hi = ((w + 1) * chunk).min(n_tokens);
            (w * chunk..hi).map(|i| (i, factory(i))).collect()
        })?;
        Ok(TokenPool { shards, n_tokens })
    }

    /// Number of tokens hosted.
    pub fn len(&self) -> usize {
        self.n_tokens
    }

    /// True when the pool hosts no tokens.
    pub fn is_empty(&self) -> bool {
        self.n_tokens == 0
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Phase barrier: run `f` on every token in parallel, then return
    /// the results ordered by token index.
    pub fn map<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Clone + 'static,
    {
        self.map_in_trace(None, f)
    }

    /// [`TokenPool::map`] inside a distributed-trace phase: each worker
    /// runs its shard under `ctx` as the thread's trace context, so the
    /// phase's spans are in the shared trace sink *before* the barrier
    /// releases. With `ctx: None` this is exactly `map`.
    pub fn map_in_trace<R, F>(&self, ctx: Option<pds_obs::TraceContext>, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Clone + 'static,
    {
        let (out_tx, out_rx) = channel::<Vec<(usize, R)>>();
        for w in 0..self.shards.len() {
            let f = f.clone();
            let out_tx = out_tx.clone();
            let alive = self.shards.send(w, move |shard| {
                let results = in_trace(ctx, || {
                    shard.iter_mut().map(|(i, t)| (*i, f(*i, t))).collect()
                });
                // The driver only hangs up after every send; ignore its
                // early death (a panic elsewhere already unwinds us).
                let _ = out_tx.send(results);
            });
            assert!(alive, "a fleet worker died");
        }
        drop(out_tx);
        let mut merged: Vec<(usize, R)> = Vec::with_capacity(self.n_tokens);
        for batch in &out_rx {
            merged.extend(batch);
        }
        assert_eq!(merged.len(), self.n_tokens, "a fleet worker panicked");
        merged.sort_by_key(|(i, _)| *i);
        merged.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    // A deliberately !Send token stand-in.
    struct NotSendToken {
        idx: usize,
        state: Rc<std::cell::RefCell<u64>>,
    }

    fn factory(i: usize) -> NotSendToken {
        NotSendToken {
            idx: i,
            state: Rc::new(std::cell::RefCell::new(i as u64 * 10)),
        }
    }

    #[test]
    fn map_returns_token_index_order() {
        let pool = TokenPool::build(17, 4, factory).unwrap();
        let out = pool.map(|i, t| {
            assert_eq!(i, t.idx);
            *t.state.borrow_mut() += 1;
            *t.state.borrow()
        });
        assert_eq!(out.len(), 17);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 10 + 1);
        }
    }

    #[test]
    fn state_persists_across_phases() {
        let pool = TokenPool::build(8, 3, factory).unwrap();
        pool.map(|_, t| *t.state.borrow_mut() += 5);
        let out = pool.map(|_, t| *t.state.borrow());
        assert_eq!(out[2], 25);
    }

    #[test]
    fn result_is_identical_across_worker_counts() {
        let run = |workers| {
            let pool = TokenPool::build(23, workers, factory).unwrap();
            pool.map(|i, _| i as u64 * 3 + 1)
        };
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn map_in_trace_contributes_every_token_span() {
        let ctx = pds_obs::TraceContext {
            trace_id: 0x9000_0001,
            parent_span: 3,
        };
        let pool = TokenPool::build(6, 3, factory).unwrap();
        let out = pool.map_in_trace(Some(ctx), |i, _| {
            let g = pds_obs::trace::span("token.work");
            g.set("token", i);
            i
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        // The barrier already released ⇒ everything is in the sink.
        let mut got = pds_obs::trace::drain_trace(0x9000_0001);
        assert_eq!(got.len(), 6);
        got.sort_by_key(|(_, s)| s.attr_u64("token"));
        assert!(got.iter().all(|(p, _)| *p == 3));
        assert_eq!(got[5].1.attr_u64("token"), Some(5));
    }

    #[test]
    fn more_workers_than_tokens_is_fine() {
        let pool = TokenPool::build(2, 16, factory).unwrap();
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.map(|i, _| i).len(), 2);
    }
}
