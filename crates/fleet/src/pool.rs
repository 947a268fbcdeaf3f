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
//!
//! A traced phase ([`TokenPool::map_traced`]) runs each token's turn in
//! a `token.N` trace scope on its worker and returns the span trees the
//! same way it returns the results: on the result channel, merged in
//! token order.

use std::sync::mpsc::channel;

use pds_obs::FinishedSpan;

use crate::sched::FleetError;
use crate::shards::{token_turn, ShardThreads, Turn};

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
        self.map_traced(None, f).0
    }

    /// [`TokenPool::map`] inside a traced phase (`ctx` is `Some`): each
    /// token's turn runs in a `token.N` trace scope on its worker, and
    /// the trees come back beside the results — both merged in token
    /// order, so neither shows how the pool was sharded. With `ctx:
    /// None` this is exactly `map` and no tree is returned.
    pub fn map_traced<R, F>(
        &self,
        ctx: Option<pds_obs::TraceContext>,
        f: F,
    ) -> (Vec<R>, Vec<FinishedSpan>)
    where
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Clone + 'static,
    {
        let traced = ctx.is_some();
        let (out_tx, out_rx) = channel::<Vec<Turn<R>>>();
        for w in 0..self.shards.len() {
            let f = f.clone();
            let out_tx = out_tx.clone();
            let alive = self.shards.send(w, move |shard| {
                let turns = shard
                    .iter_mut()
                    .map(|(i, t)| token_turn(traced, *i, || f(*i, t)))
                    .collect();
                // The driver only hangs up after every send; ignore its
                // early death (a panic elsewhere already unwinds us).
                let _ = out_tx.send(turns);
            });
            assert!(alive, "a fleet worker died");
        }
        drop(out_tx);
        let mut merged = Vec::with_capacity(self.n_tokens);
        for batch in &out_rx {
            merged.extend(batch);
        }
        assert_eq!(merged.len(), self.n_tokens, "a fleet worker panicked");
        merged.sort_by_key(|(i, ..)| *i);
        let mut results = Vec::with_capacity(self.n_tokens);
        let mut trees = Vec::new();
        for (_, r, tree) in merged {
            results.push(r);
            trees.extend(tree);
        }
        (results, trees)
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

    // Named for `map_traced`'s first form, which contributed the spans
    // to a shared sink; the name is the one the test floor knows.
    #[test]
    fn map_in_trace_contributes_every_token_span() {
        let ctx = pds_obs::TraceContext {
            trace_id: 0x9000_0001,
            parent_span: 3,
        };
        let pool = TokenPool::build(6, 3, factory).unwrap();
        let (out, trees) = pool.map_traced(Some(ctx), |i, _| {
            let g = pds_obs::trace::span("token.work");
            g.set("reads", i + 1);
            i
        });
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        // One tree per token, in token order, holding what its turn opened.
        assert_eq!(trees.len(), 6);
        for (i, tree) in trees.iter().enumerate() {
            assert_eq!(tree.name, format!("token.{i}"));
            assert_eq!(tree.attr_u64("token"), Some(i as u64));
            assert_eq!(tree.children.len(), 1);
            assert_eq!(tree.children[0].name, "token.work");
            assert_eq!(tree.total("reads"), i as u64 + 1);
        }
        // Untraced, the same spans are inert and nothing comes back.
        let (out, trees) = pool.map_traced(None, |i, _| {
            let _g = pds_obs::trace::span("token.work");
            i
        });
        assert_eq!(out.len(), 6);
        assert!(trees.is_empty());
    }

    #[test]
    fn more_workers_than_tokens_is_fine() {
        let pool = TokenPool::build(2, 16, factory).unwrap();
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.map(|i, _| i).len(), 2);
    }
}
