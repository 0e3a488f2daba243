//! Determinism lockdown for the parallel runtime: every estimator kernel
//! and every selector must produce **bit-identical** output for threads ∈
//! {1, 2, 4, 8}, for repeated runs under one seed, and — for the
//! shared-world candidate-scan kernel — against the reference
//! one-overlay-at-a-time scan it replaced.
//!
//! These tests are the contract that makes thread counts a pure
//! performance knob: CI runs them under different `RELMAX_THREADS` /
//! `RUST_TEST_THREADS` settings and the answers may never move.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relmax::prelude::*;
use relmax::sampling::ParallelRuntime;

/// Random digraph (or undirected graph) with 5..9 nodes plus candidates.
fn random_instance(
    rng: &mut StdRng,
    directed: bool,
) -> (UncertainGraph, Vec<CandidateEdge>, NodeId, NodeId) {
    let n = rng.gen_range(5usize..9);
    let mut g = UncertainGraph::new(n, directed);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if u != v && rng.gen_bool(0.3) {
                let _ = g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0.1..0.9));
            }
        }
    }
    let mut cands = Vec::new();
    let mut guard = 0;
    while cands.len() < 6 && guard < 300 {
        guard += 1;
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v
            && !g.has_edge(NodeId(u), NodeId(v))
            && !cands
                .iter()
                .any(|c: &CandidateEdge| (c.src, c.dst) == (NodeId(u), NodeId(v)))
        {
            cands.push(CandidateEdge {
                src: NodeId(u),
                dst: NodeId(v),
                prob: rng.gen_range(0.2..0.9),
            });
        }
    }
    (g, cands, NodeId(0), NodeId(n as u32 - 1))
}

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

#[test]
fn mc_kernels_bit_identical_across_thread_matrix() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for trial in 0..12 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let seed = rng.gen::<u64>();
        let reference = McEstimator::new(600, seed);
        let st = reference.st_reliability(&g, s, t);
        let from = reference.reliability_from(&g, s);
        let to = reference.reliability_to(&g, t);
        let pairwise = reference.pairwise_reliability(&g, &[s, t], &[t, s]);
        let scan = reference.scan_candidates(&g, s, t, &cands);
        for threads in THREAD_MATRIX {
            let mc = McEstimator::with_threads(600, seed, threads);
            assert_eq!(
                st,
                mc.st_reliability(&g, s, t),
                "st trial {trial} t{threads}"
            );
            assert_eq!(
                from,
                mc.reliability_from(&g, s),
                "from trial {trial} t{threads}"
            );
            assert_eq!(to, mc.reliability_to(&g, t), "to trial {trial} t{threads}");
            assert_eq!(
                pairwise,
                mc.pairwise_reliability(&g, &[s, t], &[t, s]),
                "pairwise trial {trial} t{threads}"
            );
            assert_eq!(
                scan,
                mc.scan_candidates(&g, s, t, &cands),
                "scan trial {trial} t{threads}"
            );
        }
    }
}

#[test]
fn rss_kernels_bit_identical_across_thread_matrix() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for trial in 0..12 {
        let (g, _cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let seed = rng.gen::<u64>();
        let reference = RssEstimator::new(400, seed);
        let st = reference.st_reliability(&g, s, t);
        let from = reference.reliability_from(&g, s);
        let to = reference.reliability_to(&g, t);
        for threads in THREAD_MATRIX {
            let rss = RssEstimator::with_threads(400, seed, threads);
            assert_eq!(
                st,
                rss.st_reliability(&g, s, t),
                "st trial {trial} t{threads}"
            );
            assert_eq!(
                from,
                rss.reliability_from(&g, s),
                "from trial {trial} t{threads}"
            );
            assert_eq!(to, rss.reliability_to(&g, t), "to trial {trial} t{threads}");
        }
    }
}

#[test]
fn repeated_runs_are_identical_even_in_parallel() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    let (g, cands, s, t) = random_instance(&mut rng, true);
    let mc = McEstimator::with_threads(2_000, 0xAB, 4);
    assert_eq!(mc.st_reliability(&g, s, t), mc.st_reliability(&g, s, t));
    assert_eq!(mc.reliability_from(&g, s), mc.reliability_from(&g, s));
    assert_eq!(
        mc.scan_candidates(&g, s, t, &cands),
        mc.scan_candidates(&g, s, t, &cands)
    );
    let rss = RssEstimator::with_threads(1_000, 0xAB, 4);
    assert_eq!(rss.st_reliability(&g, s, t), rss.st_reliability(&g, s, t));
    assert_eq!(rss.reliability_to(&g, t), rss.reliability_to(&g, t));
}

/// The shared-world scan kernel must agree bit-for-bit with the reference
/// scan (one single-candidate overlay per estimator call) for MC, and the
/// default parallel scan must agree with its serial equivalent for every
/// estimator.
#[test]
fn scan_candidates_matches_reference_overlay_scan() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    for trial in 0..12 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        if cands.is_empty() {
            continue;
        }
        let seed = rng.gen::<u64>();
        let naive = |est: &dyn Fn(&GraphView<UncertainGraph>) -> f64| -> Vec<f64> {
            cands
                .iter()
                .map(|&c| est(&GraphView::new(&g, vec![c])))
                .collect()
        };
        let mc = McEstimator::new(500, seed);
        assert_eq!(
            mc.scan_candidates(&g, s, t, &cands),
            naive(&|view| mc.st_reliability(view, s, t)),
            "MC trial {trial}"
        );
        let rss = RssEstimator::new(200, seed);
        assert_eq!(
            rss.scan_candidates(&g, s, t, &cands),
            naive(&|view| rss.st_reliability(view, s, t)),
            "RSS trial {trial}"
        );
        let exact = ExactEstimator::new();
        assert_eq!(
            exact.scan_candidates(&g, s, t, &cands),
            naive(&|view| exact.st_reliability(view, s, t)),
            "exact trial {trial}"
        );
    }
}

/// Selector output may not depend on the process-global thread setting:
/// top-k edge sets, reliabilities, everything must match bit for bit.
#[test]
fn selectors_identical_across_global_thread_counts() {
    let mut rng = StdRng::seed_from_u64(0xD5);
    let (g, cands, s, t) = random_instance(&mut rng, true);
    let q = StQuery::new(s, t, 2, 0.6).with_hop_limit(None).with_l(12);
    let est = McEstimator::with_threads(800, 0xC0FFEE, 2);
    let selectors = [
        AnySelector::top_k(),
        AnySelector::hill_climbing(),
        AnySelector::mrp(),
        AnySelector::individual_path(),
        AnySelector::batch_edge(),
        AnySelector::centrality_degree(),
        AnySelector::eigen(),
        AnySelector::Esssp(Default::default()),
        AnySelector::Ima(Default::default()),
    ];
    for sel in selectors {
        let mut outcomes = Vec::new();
        for global_threads in [1, 4] {
            ParallelRuntime::set_global_threads(global_threads);
            outcomes.push(
                sel.select_with_candidates(&g, &q, &cands, &est)
                    .expect("selector runs"),
            );
        }
        ParallelRuntime::set_global_threads(0);
        let (a, b) = (&outcomes[0], &outcomes[1]);
        assert_eq!(a.added, b.added, "{} edge set moved", sel.name());
        assert_eq!(
            a.new_reliability.to_bits(),
            b.new_reliability.to_bits(),
            "{} reliability moved",
            sel.name()
        );
        assert_eq!(
            a.base_reliability.to_bits(),
            b.base_reliability.to_bits(),
            "{} base moved",
            sel.name()
        );
    }
}

/// The lane-packed kernel must be **bit-identical** to the scalar
/// reference kernel (`RELMAX_KERNEL=scalar` /
/// `McEstimator::with_kernel`) for every budgeted kernel, across random
/// graph shapes (directed and undirected), sample counts that are not
/// multiples of 64 (masked tail blocks), and thread counts 1/2/4 —
/// the packed analogue of a proptest equivalence loop, seeded for
/// reproducibility.
#[test]
fn packed_kernel_bit_identical_to_scalar_across_shapes_and_threads() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    let mut rng = StdRng::seed_from_u64(0xD7);
    // 1 world (degenerate), sub-block, exact blocks, and masked tails.
    let sample_counts = [1usize, 63, 64, 100, 577, 1234];
    for trial in 0..10 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let seed = rng.gen::<u64>();
        let z = sample_counts[trial % sample_counts.len()];
        let budget = Budget::fixed(z);
        let scalar = McEstimator::new(z, seed).with_kernel(Kernel::Scalar);
        let st = scalar.st_estimate(&csr, s, t, budget);
        let from = scalar.from_estimates(&csr, s, budget);
        let to = scalar.to_estimates(&csr, t, budget);
        let pairwise = scalar.pairwise_estimates(&csr, &[s, t], &[t, s], budget);
        let scan = scalar.scan_estimates(&csr, s, t, &cands, budget);
        for threads in [1, 2, 4] {
            let packed = McEstimator::with_threads(z, seed, threads).with_kernel(Kernel::Packed);
            assert_eq!(
                st,
                packed.st_estimate(&csr, s, t, budget),
                "st trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                from,
                packed.from_estimates(&csr, s, budget),
                "from trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                to,
                packed.to_estimates(&csr, t, budget),
                "to trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                pairwise,
                packed.pairwise_estimates(&csr, &[s, t], &[t, s], budget),
                "pairwise trial {trial} z={z} t{threads}"
            );
            assert_eq!(
                scan,
                packed.scan_estimates(&csr, s, t, &cands, budget),
                "scan trial {trial} z={z} t{threads}"
            );
            // Adjacency walk and CSR snapshot agree on the packed path too.
            assert_eq!(
                st,
                packed.st_estimate(&g, s, t, budget),
                "adj trial {trial}"
            );
        }
    }
}

/// Directed graph over `n` nodes for the frontier-boundary suite: a
/// likely chain `v -> v + 1` that carries lanes across frontier words,
/// plus one random chord per node (forward or backward).
fn boundary_graph(rng: &mut StdRng, n: usize) -> UncertainGraph {
    let mut g = UncertainGraph::new(n, true);
    for v in 0..n as u32 {
        if v + 1 < n as u32 {
            let _ = g.add_edge(NodeId(v), NodeId(v + 1), rng.gen_range(0.7..0.99));
        }
        let u = rng.gen_range(0..n as u32);
        if u != v {
            let _ = g.add_edge(NodeId(v), NodeId(u), rng.gen_range(0.05..0.5));
        }
    }
    g
}

/// Packed ≡ scalar where the packed fixpoint's frontier bookkeeping has
/// edges: node counts at, below and above one frontier word (64 nodes)
/// and one frontier-summary word (4096 nodes), and long sparse rings whose
/// frontier stays a few nodes wide for hundreds of rounds, at and above
/// the size where the rounds start keeping the summary (65 536 nodes).
/// Every kernel entry point runs at a Z that is not a multiple of 64, on
/// one thread, over graphs of growing and then shrinking size, so the
/// pooled lane scratch of that thread is reused across every size.
#[test]
fn packed_kernel_bit_identical_to_scalar_at_frontier_word_boundaries() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    let mut rng = StdRng::seed_from_u64(0xDB);
    // (graph, sources, targets): the first pair is the s-t pair.
    let mut cases: Vec<(UncertainGraph, [u32; 2], [u32; 2])> = [1u32, 63, 64, 65, 4095, 4096, 4097]
        .into_iter()
        .map(|n| {
            let g = boundary_graph(&mut rng, n as usize);
            // The target sits in the graph's last frontier word.
            (g, [0, n / 2], [n - 1, n / 3])
        })
        .collect();
    for ring in [65_536u32, 65_537, 100_000] {
        let mut g = UncertainGraph::new(ring as usize, true);
        for v in 0..ring {
            g.add_edge(NodeId(v), NodeId((v + 1) % ring), 0.995)
                .unwrap();
            if v % 1000 == 0 {
                g.add_edge(NodeId(v), NodeId((v + ring / 2) % ring), 0.5)
                    .unwrap();
            }
        }
        // Runs that cross into the last frontier word, and across the
        // boundary between the second and third summary words.
        cases.push((g, [ring - 300, 8142], [ring - 1, 8242]));
    }
    let order: Vec<usize> = (0..cases.len()).chain((0..cases.len()).rev()).collect();
    let z = 150;
    let budget = Budget::fixed(z);
    for (step, &ci) in order.iter().enumerate() {
        let (g, src, tgt) = &cases[ci];
        let csr = CsrGraph::freeze(g);
        let n = csr.num_nodes() as u32;
        let seed = rng.gen::<u64>();
        let (sources, targets) = (src.map(NodeId), tgt.map(NodeId));
        let (s, t) = (sources[0], targets[0]);
        let cands: Vec<CandidateEdge> = [(n / 2, n - 1), (0, n / 3), (n - 1, 0)]
            .into_iter()
            .filter(|&(a, b)| a != b && !g.has_edge(NodeId(a), NodeId(b)))
            .map(|(a, b)| CandidateEdge {
                src: NodeId(a),
                dst: NodeId(b),
                prob: 0.5,
            })
            .collect();
        let scalar = McEstimator::with_threads(z, seed, 1).with_kernel(Kernel::Scalar);
        let packed = McEstimator::with_threads(z, seed, 1).with_kernel(Kernel::Packed);
        let at = format!("step {step}, n = {n}");
        assert_eq!(
            scalar.st_estimate(&csr, s, t, budget),
            packed.st_estimate(&csr, s, t, budget),
            "st at {at}"
        );
        for hops in [Some(3), None] {
            assert_eq!(
                scalar.set_estimate(&csr, &sources, &targets, hops, budget),
                packed.set_estimate(&csr, &sources, &targets, hops, budget),
                "set {hops:?} at {at}"
            );
        }
        assert_eq!(
            scalar.expected_hops_estimate(&csr, s, t, budget),
            packed.expected_hops_estimate(&csr, s, t, budget),
            "hops at {at}"
        );
        assert_eq!(
            scalar.from_estimates(&csr, s, budget),
            packed.from_estimates(&csr, s, budget),
            "from at {at}"
        );
        assert_eq!(
            scalar.to_estimates(&csr, t, budget),
            packed.to_estimates(&csr, t, budget),
            "to at {at}"
        );
        assert_eq!(
            scalar.scan_estimates(&csr, s, t, &cands, budget),
            packed.scan_estimates(&csr, s, t, &cands, budget),
            "scan at {at}"
        );
        assert_eq!(
            scalar.pairwise_estimates(&csr, &sources, &targets, budget),
            packed.pairwise_estimates(&csr, &sources, &targets, budget),
            "pairwise at {at}"
        );
    }
}

/// Adaptive stopping must pick the same checkpoint with the same bits on
/// both kernels: accuracy budgets are a pure function of the (identical)
/// accumulated counts.
#[test]
fn packed_kernel_matches_scalar_under_accuracy_budgets() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    let mut rng = StdRng::seed_from_u64(0xD8);
    for trial in 0..6 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let seed = rng.gen::<u64>();
        // A cap that is not a multiple of 64 exercises the masked tail
        // block at the final checkpoint.
        let budget = Budget::accuracy_capped(0.04, 0.05, 3000);
        let scalar = McEstimator::new(1, seed).with_kernel(Kernel::Scalar);
        let st = scalar.st_estimate(&g, s, t, budget);
        let scan = scalar.scan_estimates(&g, s, t, &cands, budget);
        for threads in [1, 2, 4] {
            let packed = McEstimator::with_threads(1, seed, threads).with_kernel(Kernel::Packed);
            assert_eq!(
                st,
                packed.st_estimate(&g, s, t, budget),
                "adaptive st trial {trial} t{threads}"
            );
            assert_eq!(
                scan,
                packed.scan_estimates(&g, s, t, &cands, budget),
                "adaptive scan trial {trial} t{threads}"
            );
        }
    }
}

/// Random instance with the structure the reliability index exists for:
/// two node banks with no edges between them (so cross-bank queries are
/// impossible) and ~30% certain (`p == 1.0`) edges (so condensation
/// actually merges supernodes). Candidates span both banks, exercising
/// the scan path's endpoint remapping across components.
fn random_partitioned_instance(
    rng: &mut StdRng,
    directed: bool,
) -> (UncertainGraph, Vec<CandidateEdge>, NodeId, NodeId) {
    let n1 = rng.gen_range(4usize..7);
    let n2 = rng.gen_range(3usize..6);
    let n = n1 + n2;
    let mut g = UncertainGraph::new(n, directed);
    for (lo, hi) in [(0u32, n1 as u32), (n1 as u32, n as u32)] {
        for u in lo..hi {
            for v in lo..hi {
                if u != v && rng.gen_bool(0.35) {
                    let p = if rng.gen_bool(0.3) {
                        1.0
                    } else {
                        rng.gen_range(0.1..0.9)
                    };
                    let _ = g.add_edge(NodeId(u), NodeId(v), p);
                }
            }
        }
    }
    let mut cands = Vec::new();
    let mut guard = 0;
    while cands.len() < 5 && guard < 300 {
        guard += 1;
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v
            && !g.has_edge(NodeId(u), NodeId(v))
            && !cands
                .iter()
                .any(|c: &CandidateEdge| (c.src, c.dst) == (NodeId(u), NodeId(v)))
        {
            cands.push(CandidateEdge {
                src: NodeId(u),
                dst: NodeId(v),
                prob: rng.gen_range(0.2..0.9),
            });
        }
    }
    // Odd trials query across the component boundary (the short-circuit
    // path), even trials stay inside the first bank (the sampled path).
    let t = if rng.gen_bool(0.5) {
        NodeId(n as u32 - 1)
    } else {
        NodeId(n1 as u32 - 1)
    };
    (g, cands, NodeId(0), t)
}

/// Index routing is a pure performance layer: with the freeze-time
/// reliability index attached, every kernel must reproduce the plain
/// estimator's reliability **values** bit for bit — and for queries the
/// index cannot answer outright (`StPlan::Sample`, plus every from / to /
/// pairwise / scan call), the *entire* `Estimate` must match, across
/// scalar/packed kernels, threads 1/2/4, and fixed/accuracy budgets.
/// This is the `RELMAX_INDEX=off` escape hatch's contract, pinned at the
/// estimator level (the env knob itself is OnceLock-cached, so the test
/// attaches the index explicitly).
#[test]
fn index_routing_bit_identical_across_matrix() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    use relmax::ugraph::{RelIndex, StPlan};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xD9);
    let mut sampled_plans = 0;
    let mut short_circuits = 0;
    for trial in 0..10 {
        let (g, cands, s, t) = random_partitioned_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let idx = Arc::new(RelIndex::build(&csr));
        let seed = rng.gen::<u64>();
        let budgets = [
            Budget::fixed(600),
            Budget::accuracy_capped(0.05, 0.05, 2048),
        ];
        for budget in budgets {
            let plain = McEstimator::new(1, seed).with_kernel(Kernel::Scalar);
            let st = plain.st_estimate(&csr, s, t, budget);
            let from = plain.from_estimates(&csr, s, budget);
            let to = plain.to_estimates(&csr, t, budget);
            let pairwise = plain.pairwise_estimates(&csr, &[s, t], &[t, s], budget);
            let scan = plain.scan_estimates(&csr, s, t, &cands, budget);
            for threads in [1, 2, 4] {
                for kernel in [Kernel::Scalar, Kernel::Packed] {
                    let routed = McEstimator::with_threads(1, seed, threads)
                        .with_kernel(kernel)
                        .with_rel_index(Arc::clone(&idx));
                    let routed_st = routed.st_estimate(&csr, s, t, budget);
                    match idx.st_plan(s, t) {
                        StPlan::Sample { .. } => {
                            sampled_plans += 1;
                            assert_eq!(st, routed_st, "st trial {trial} t{threads} {kernel:?}");
                        }
                        // Certain / Impossible short-circuits answer
                        // without sampling: the value is still exact
                        // (sampling would hit all or no worlds), but the
                        // effort fields legitimately differ.
                        _ => {
                            short_circuits += 1;
                            assert_eq!(
                                st.value.to_bits(),
                                routed_st.value.to_bits(),
                                "st value trial {trial} t{threads} {kernel:?}"
                            );
                        }
                    }
                    assert_eq!(
                        from,
                        routed.from_estimates(&csr, s, budget),
                        "from trial {trial} t{threads} {kernel:?}"
                    );
                    assert_eq!(
                        to,
                        routed.to_estimates(&csr, t, budget),
                        "to trial {trial} t{threads} {kernel:?}"
                    );
                    assert_eq!(
                        pairwise,
                        routed.pairwise_estimates(&csr, &[s, t], &[t, s], budget),
                        "pairwise trial {trial} t{threads} {kernel:?}"
                    );
                    assert_eq!(
                        scan,
                        routed.scan_estimates(&csr, s, t, &cands, budget),
                        "scan trial {trial} t{threads} {kernel:?}"
                    );
                }
            }
        }
    }
    // The draw must exercise both routes, or the matrix proves nothing.
    assert!(sampled_plans > 0, "no trial took the pruned-sampling route");
    assert!(short_circuits > 0, "no trial took the short-circuit route");
}

/// Two components of `size` nodes and no certain arcs, so the index's
/// condensation is the identity. Directed: a ring with chords (strongly
/// connected in the possible graph) beside a chain with forward chords
/// (not). Undirected: two rings with chords.
fn identity_instance(rng: &mut StdRng, directed: bool, size: u32) -> UncertainGraph {
    let mut g = UncertainGraph::new(2 * size as usize, directed);
    for part in 0..2 {
        let base = part * size;
        let ring = part == 0 || !directed;
        for i in 0..size {
            if i + 1 < size || ring {
                let p = rng.gen_range(0.6..0.95);
                let _ = g.add_edge(NodeId(base + i), NodeId(base + (i + 1) % size), p);
            }
            let u = rng.gen_range(0..size);
            let (a, b) = if ring { (i, u) } else { (i.min(u), i.max(u)) };
            if a != b {
                let p = rng.gen_range(0.05..0.5);
                let _ = g.add_edge(NodeId(base + a), NodeId(base + b), p);
            }
        }
    }
    g
}

/// An identity index (no certain arcs) samples the original graph and
/// decides strongly connected components without a traversal: every
/// `Sample` plan must give the plain estimator's whole `Estimate`, effort
/// fields included, and from / to / pairwise / scan must match outright —
/// across kernels, threads, budgets, directedness, and graphs below and
/// above the size at which directed plans stop using a precomputed
/// closure.
#[test]
fn identity_index_estimates_bit_identical_to_unindexed() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    use relmax::ugraph::{RelIndex, StPlan};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xDC);
    let mut sampled = 0;
    for (trial, (directed, size)) in [(true, 60u32), (true, 600), (false, 60), (false, 600)]
        .into_iter()
        .enumerate()
    {
        let g = identity_instance(&mut rng, directed, size);
        let csr = CsrGraph::freeze(&g);
        let idx = Arc::new(RelIndex::build(&csr));
        assert!(idx.is_identity() && idx.condensed().is_none());
        let seed = rng.gen::<u64>();
        // Pairs inside the strong part, inside the other part (both
        // directions), and across the two.
        let pairs = [
            (3, size / 2),
            (size + 2, size + size - 3),
            (size + size - 3, size + 2),
            (5, size + 5),
        ]
        .map(|(a, b)| (NodeId(a), NodeId(b)));
        let cands = [CandidateEdge {
            src: NodeId(size - 1),
            dst: NodeId(size),
            prob: 0.5,
        }];
        let (s, t) = pairs[0];
        for budget in [Budget::fixed(150), Budget::accuracy_capped(0.1, 0.05, 500)] {
            let plain = McEstimator::new(1, seed).with_kernel(Kernel::Scalar);
            for threads in [1, 2] {
                for kernel in [Kernel::Scalar, Kernel::Packed] {
                    let routed = McEstimator::with_threads(1, seed, threads)
                        .with_kernel(kernel)
                        .with_rel_index(Arc::clone(&idx));
                    let at = format!("trial {trial} t{threads} {kernel:?} {budget:?}");
                    for (a, b) in pairs {
                        let want = plain.st_estimate(&csr, a, b, budget);
                        let got = routed.st_estimate(&csr, a, b, budget);
                        if let StPlan::Sample { .. } = idx.st_plan(a, b) {
                            sampled += 1;
                            assert_eq!(want, got, "st ({a:?}, {b:?}) {at}");
                        } else {
                            assert_eq!(want.value.to_bits(), got.value.to_bits(), "{at}");
                        }
                    }
                    assert_eq!(
                        plain.from_estimates(&csr, s, budget),
                        routed.from_estimates(&csr, s, budget),
                        "from {at}"
                    );
                    assert_eq!(
                        plain.to_estimates(&csr, t, budget),
                        routed.to_estimates(&csr, t, budget),
                        "to {at}"
                    );
                    let (ss, ts) = ([s, pairs[1].0], [t, pairs[1].1]);
                    assert_eq!(
                        plain.pairwise_estimates(&csr, &ss, &ts, budget),
                        routed.pairwise_estimates(&csr, &ss, &ts, budget),
                        "pairwise {at}"
                    );
                    assert_eq!(
                        plain.scan_estimates(&csr, s, t, &cands, budget),
                        routed.scan_estimates(&csr, s, t, &cands, budget),
                        "scan {at}"
                    );
                }
            }
        }
    }
    assert!(sampled > 0, "no pair took the sampling route");
}

/// The constrained query vocabulary — hop-bounded s-t, set reliability
/// (bounded and not), expected hops, and top-k rankings — must be
/// **bit-identical** across threads 1/2/4, scalar vs lane-packed kernels,
/// and with the reliability index attached or not, including sample
/// counts that are not multiples of 64 (masked tail lanes). The only
/// sanctioned divergence is the index's all-pairs-impossible
/// short-circuit, which answers without sampling: there the value bits
/// must still match (both sides are exactly zero), but the effort fields
/// legitimately differ.
#[test]
fn constrained_shapes_bit_identical_across_kernels_threads_and_index() {
    use relmax::sampling::{Budget, Estimator, Kernel};
    use relmax::ugraph::{RelIndex, StPlan};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xDA);
    let sample_counts = [63usize, 100, 577, 1234];
    for trial in 0..8 {
        let (g, _cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let idx = Arc::new(RelIndex::build(&csr));
        let seed = rng.gen::<u64>();
        let z = sample_counts[trial % sample_counts.len()];
        let budget = Budget::fixed(z);
        let n = csr.num_nodes() as u32;
        let (sources, targets) = (vec![s, NodeId(1)], vec![t, NodeId(n - 2)]);
        let impossible = |ss: &[NodeId], ts: &[NodeId]| {
            ss.iter().all(|&a| {
                ts.iter()
                    .all(|&b| matches!(idx.st_plan(a, b), StPlan::Impossible))
            })
        };
        let st_impossible = impossible(&[s], &[t]);
        let set_impossible = impossible(&sources, &targets);

        let scalar = McEstimator::new(z, seed).with_kernel(Kernel::Scalar);
        let st_within = scalar.st_within_estimate(&csr, s, t, 3, budget).unwrap();
        let set_bounded = scalar
            .set_estimate(&csr, &sources, &targets, Some(2), budget)
            .unwrap();
        let set_free = scalar
            .set_estimate(&csr, &sources, &targets, None, budget)
            .unwrap();
        let hops = scalar.expected_hops_estimate(&csr, s, t, budget).unwrap();
        let topk = scalar.topk_estimates(&csr, s, 3, budget);

        for threads in [1usize, 2, 4] {
            for kernel in [Kernel::Scalar, Kernel::Packed] {
                for indexed in [false, true] {
                    let mut est = McEstimator::with_threads(z, seed, threads).with_kernel(kernel);
                    if indexed {
                        est = est.with_rel_index(Arc::clone(&idx));
                    }
                    let label = format!("trial {trial} z={z} t{threads} {kernel:?} idx={indexed}");
                    let got_st = est.st_within_estimate(&csr, s, t, 3, budget).unwrap();
                    let got_hops = est.expected_hops_estimate(&csr, s, t, budget).unwrap();
                    if indexed && st_impossible {
                        assert_eq!(
                            st_within.value.to_bits(),
                            got_st.value.to_bits(),
                            "st_within value {label}"
                        );
                        assert_eq!(
                            hops.reliability.value.to_bits(),
                            got_hops.reliability.value.to_bits(),
                            "hops value {label}"
                        );
                    } else {
                        assert_eq!(st_within, got_st, "st_within {label}");
                        assert_eq!(hops, got_hops, "hops {label}");
                        // The snapshot layout is transparent on the
                        // constrained path too.
                        assert_eq!(
                            st_within,
                            est.st_within_estimate(&g, s, t, 3, budget).unwrap(),
                            "adjacency st_within {label}"
                        );
                    }
                    let got_bounded = est
                        .set_estimate(&csr, &sources, &targets, Some(2), budget)
                        .unwrap();
                    let got_free = est
                        .set_estimate(&csr, &sources, &targets, None, budget)
                        .unwrap();
                    if indexed && set_impossible {
                        assert_eq!(
                            set_bounded.value.to_bits(),
                            got_bounded.value.to_bits(),
                            "set bounded value {label}"
                        );
                        assert_eq!(
                            set_free.value.to_bits(),
                            got_free.value.to_bits(),
                            "set free value {label}"
                        );
                    } else {
                        assert_eq!(set_bounded, got_bounded, "set bounded {label}");
                        assert_eq!(set_free, got_free, "set free {label}");
                    }
                    // Rankings ride the from-vector kernel, which the
                    // index never short-circuits: full equality always.
                    assert_eq!(topk, est.topk_estimates(&csr, s, 3, budget), "topk {label}");
                }
            }
        }
    }
}

/// Freezing must stay transparent under the parallel runtime: CSR
/// snapshots and adjacency walks agree at every thread count.
#[test]
fn parallel_estimates_layout_independent() {
    let mut rng = StdRng::seed_from_u64(0xD6);
    for trial in 0..8 {
        let (g, cands, s, t) = random_instance(&mut rng, trial % 2 == 0);
        let csr = CsrGraph::freeze(&g);
        let seed = rng.gen::<u64>();
        for threads in [2, 8] {
            let mc = McEstimator::with_threads(500, seed, threads);
            assert_eq!(mc.st_reliability(&g, s, t), mc.st_reliability(&csr, s, t));
            assert_eq!(
                mc.scan_candidates(&g, s, t, &cands),
                mc.scan_candidates(&csr, s, t, &cands)
            );
            let rss = RssEstimator::with_threads(300, seed, threads);
            assert_eq!(rss.st_reliability(&g, s, t), rss.st_reliability(&csr, s, t));
        }
    }
}
