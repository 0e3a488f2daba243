//! A counting [`Estimator`] wrapper for the selection layer.
//!
//! It forwards every trait method to the wrapped estimator — the default
//! hooks included, so the selector sees exactly the inner estimator's
//! behaviour and results stay byte-identical — and counts, per top-level
//! call, the call itself, its wall time and the worlds it sampled.

use relmax_sampling::{Budget, Estimate, Estimator, HopsEstimate};
use relmax_ugraph::index::RelIndex;
use relmax_ugraph::{ExtraEdge, NodeId, ProbGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals gathered by a [`Counting`] estimator.
#[derive(Default)]
pub struct Counts {
    /// Estimator calls.
    pub calls: AtomicU64,
    /// Nanoseconds spent inside them.
    pub nanos: AtomicU64,
    /// Worlds sampled (sum of `samples_used`; vector answers count their
    /// shared pass once).
    pub worlds: AtomicU64,
}

impl Counts {
    /// `(calls, seconds, worlds)`.
    pub fn snapshot(&self) -> (u64, f64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 / 1e9,
            self.worlds.load(Ordering::Relaxed),
        )
    }
}

/// Forwarding wrapper that counts calls, time and worlds.
#[derive(Clone)]
pub struct Counting<E> {
    inner: E,
    counts: Arc<Counts>,
}

impl<E> Counting<E> {
    /// Wrap `inner`, adding into `counts`.
    pub fn new(inner: E, counts: Arc<Counts>) -> Self {
        Counting { inner, counts }
    }

    fn timed<R>(&self, worlds: impl FnOnce(&R) -> u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let c = &self.counts;
        c.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.worlds.fetch_add(worlds(&out), Ordering::Relaxed);
        out
    }
}

fn max_worlds<'a>(it: impl IntoIterator<Item = &'a Estimate>) -> u64 {
    it.into_iter()
        .map(|e| e.samples_used as u64)
        .max()
        .unwrap_or(0)
}

impl<E: Estimator + Clone> Estimator for Counting<E> {
    fn default_budget(&self) -> Budget {
        self.inner.default_budget()
    }

    fn st_estimate<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId, budget: Budget) -> Estimate {
        self.timed(
            |e: &Estimate| e.samples_used as u64,
            || self.inner.st_estimate(g, s, t, budget),
        )
    }

    fn from_estimates<G: ProbGraph>(&self, g: &G, s: NodeId, budget: Budget) -> Vec<Estimate> {
        self.timed(
            |v: &Vec<Estimate>| max_worlds(v),
            || self.inner.from_estimates(g, s, budget),
        )
    }

    fn to_estimates<G: ProbGraph>(&self, g: &G, t: NodeId, budget: Budget) -> Vec<Estimate> {
        self.timed(
            |v: &Vec<Estimate>| max_worlds(v),
            || self.inner.to_estimates(g, t, budget),
        )
    }

    fn pairwise_estimates<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        budget: Budget,
    ) -> Vec<Vec<Estimate>> {
        self.timed(
            |m: &Vec<Vec<Estimate>>| max_worlds(m.iter().flatten()),
            || self.inner.pairwise_estimates(g, sources, targets, budget),
        )
    }

    fn scan_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        candidates: &[ExtraEdge],
        budget: Budget,
    ) -> Vec<Estimate> {
        self.timed(
            |v: &Vec<Estimate>| v.iter().map(|e| e.samples_used as u64).sum(),
            || self.inner.scan_estimates(g, s, t, candidates, budget),
        )
    }

    fn supports_constrained(&self) -> bool {
        self.inner.supports_constrained()
    }

    fn st_within_estimate<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        max_hops: u32,
        budget: Budget,
    ) -> Option<Estimate> {
        self.timed(
            |e: &Option<Estimate>| e.map_or(0, |e| e.samples_used as u64),
            || self.inner.st_within_estimate(g, s, t, max_hops, budget),
        )
    }

    fn set_estimate<G: ProbGraph>(
        &self,
        g: &G,
        sources: &[NodeId],
        targets: &[NodeId],
        max_hops: Option<u32>,
        budget: Budget,
    ) -> Option<Estimate> {
        self.timed(
            |e: &Option<Estimate>| e.map_or(0, |e| e.samples_used as u64),
            || {
                self.inner
                    .set_estimate(g, sources, targets, max_hops, budget)
            },
        )
    }

    fn expected_hops_estimate<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        t: NodeId,
        budget: Budget,
    ) -> Option<HopsEstimate> {
        self.timed(
            |h: &Option<HopsEstimate>| h.as_ref().map_or(0, |h| h.reliability.samples_used as u64),
            || self.inner.expected_hops_estimate(g, s, t, budget),
        )
    }

    fn topk_estimates<G: ProbGraph>(
        &self,
        g: &G,
        s: NodeId,
        k: usize,
        budget: Budget,
    ) -> Vec<(NodeId, Estimate)> {
        self.timed(
            |v: &Vec<(NodeId, Estimate)>| max_worlds(v.iter().map(|(_, e)| e)),
            || self.inner.topk_estimates(g, s, k, budget),
        )
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn st_shortcircuit<G: ProbGraph>(&self, g: &G, s: NodeId, t: NodeId) -> Option<Estimate> {
        self.inner.st_shortcircuit(g, s, t)
    }

    fn coalescable_st(&self) -> bool {
        self.inner.coalescable_st()
    }

    fn with_rel_index(self, index: Arc<RelIndex>) -> Self {
        Counting {
            inner: self.inner.with_rel_index(index),
            counts: self.counts,
        }
    }

    fn without_rel_index(&self) -> Self {
        Counting {
            inner: self.inner.without_rel_index(),
            counts: Arc::clone(&self.counts),
        }
    }
}
