//! Seeded input generation for the four workloads.
//!
//! Graphs come from the public `relmax_gen` generators or the
//! `relmax gen` verb, and become snapshots through `relmax ingest` /
//! `relmax index`, so the program under test only ever sees files. The
//! graphs are fixed datasets; every other draw is a function of the
//! workload seed.

use crate::client::HOLD;
use crate::traced::COMPACT_AFTER;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relmax_gen::queries::{st_queries, st_queries_at_distance};
use relmax_gen::synth::watts_strogatz;
use relmax_gen::{DatasetProxy, ProbModel};
use relmax_ugraph::{edgelist, snapshot, CsrGraph, NodeId, UncertainGraph};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Query-wide geometry: islands × nodes per island, ring degree, the
/// share of certain edges and the rewiring probability.
const WIDE_ISLANDS: usize = 8;
const WIDE_ISLAND_NODES: usize = 12_500;
const WIDE_K: usize = 10;
const WIDE_CERTAIN: f64 = 0.3;
const WIDE_BETA: f64 = 0.1;

/// Serve-mixed request mix.
const HOT_SOURCES: usize = 16;
const UPDATE_RECORDS: usize = 2;
/// Passes over the hot sources' `topk` in a `hold` read (about a second
/// of sampling on two threads, against a fold of some 20 ms).
const HOLD_PASSES: usize = 4;
const ST4_POOL: usize = 48;
const TOPK_POOL: usize = 24;
const ACC_POOL: usize = 32;

/// The seed every workload graph is generated with. A graph is the
/// workload's dataset, fixed like the paper's real datasets; `--seed`
/// draws what runs on it (query pairs, selection pairs, the request mix).
/// Seeding the graphs too widened the spread of a pass's cost between
/// seeds on the same code.
const DATASET_SEED: u64 = 1;

fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

fn relmax(bin: &str, args: &[&str]) -> Result<(), String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {bin}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "relmax {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn open(path: &Path) -> Result<CsrGraph, String> {
    snapshot::open_full(path)
        .map(|(csr, _)| csr)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn save_edges(g: &UncertainGraph, path: &Path) -> Result<(), String> {
    edgelist::write_file(g, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Generate the inputs of `workload` for `seed` into `dir`. `scale`
/// shrinks every graph (1.0 is the benchmark's size; the self-test uses
/// a small fraction).
pub fn run(workload: &str, seed: u64, scale: f64, dir: &Path, bin: &str) -> Result<(), String> {
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must lie in (0, 1], got {scale}"));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let p = |name: &str| dir.join(name);
    let s = |path: &Path| path.to_string_lossy().into_owned();
    match workload {
        "query-local" => {
            ensure_graph(&p("graph.rgs"), || {
                let tsv = p("graph.tsv");
                let (seed_arg, nodes) =
                    (DATASET_SEED.to_string(), scaled(200_000, scale).to_string());
                relmax(
                    bin,
                    &[
                        "gen",
                        "--nodes",
                        &nodes,
                        "--degree",
                        "4",
                        "--seed",
                        &seed_arg,
                        "-o",
                        &s(&tsv),
                    ],
                )?;
                relmax(bin, &["ingest", &s(&tsv), "-o", &s(&p("graph.rgs"))])?;
                std::fs::remove_file(&tsv).map_err(|e| e.to_string())
            })?;
            let csr = open(&p("graph.rgs"))?;
            // Ten pairs at each hop distance 2..=5, so every seed runs the
            // same mix of distances.
            let pairs = at_distances(&csr, &[2, 3, 4, 5], 10, sub_seed(seed, 1))?;
            let mut q = String::new();
            for (a, b) in &pairs {
                writeln!(q, "st {} {}", a.0, b.0).unwrap();
            }
            for (a, b) in pairs.iter().step_by(5) {
                writeln!(q, "hops {} {}", a.0, b.0).unwrap();
            }
            write(&p("queries.txt"), &q)?;
            write(&p("probe.txt"), &format!("st {0} {0}\n", pairs[0].0 .0))
        }
        "query-wide" => {
            let island = scaled(WIDE_ISLAND_NODES, scale);
            ensure_graph(&p("graph.rgs"), || {
                let tsv = p("graph.tsv");
                save_edges(&wide_islands(DATASET_SEED, island), &tsv)?;
                relmax(bin, &["index", &s(&tsv), "-o", &s(&p("graph.rgs"))])?;
                std::fs::remove_file(&tsv).map_err(|e| e.to_string())
            })?;
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
            let mut q = String::new();
            for i in 0..WIDE_ISLANDS {
                let pick = |rng: &mut StdRng, i: usize| i * island + rng.gen_range(0..island);
                let a = pick(&mut rng, i);
                let b = pick(&mut rng, i);
                let other = (i + 1 + rng.gen_range(0..WIDE_ISLANDS - 1)) % WIDE_ISLANDS;
                let c = pick(&mut rng, other);
                let src: Vec<String> = (0..2).map(|_| pick(&mut rng, i).to_string()).collect();
                let dst: Vec<String> = (0..3).map(|_| pick(&mut rng, i).to_string()).collect();
                writeln!(q, "from {a}").unwrap();
                writeln!(q, "topk {a} 20").unwrap();
                writeln!(q, "set {} {}", src.join(","), dst.join(",")).unwrap();
                writeln!(q, "st {a} {c}").unwrap();
                writeln!(q, "st {a} {b}").unwrap();
                writeln!(q, "hops {a} {b}").unwrap();
            }
            write(&p("queries.txt"), &q)?;
            write(&p("probe.txt"), "st 0 0\n")
        }
        "select-be" => {
            ensure_graph(&p("graph.rgs"), || {
                let tsv = p("graph.tsv");
                save_edges(&DatasetProxy::LastFm.generate(scale, DATASET_SEED), &tsv)?;
                relmax(bin, &["ingest", &s(&tsv), "-o", &s(&p("graph.rgs"))])?;
                std::fs::remove_file(&tsv).map_err(|e| e.to_string())
            })?;
            let csr = open(&p("graph.rgs"))?;
            let pairs = st_queries(&csr, 8, 3, 5, sub_seed(seed, 3));
            if pairs.len() < 8 {
                return Err(format!("only {} pairs 3..5 hops apart", pairs.len()));
            }
            let mut q = String::new();
            for (a, b) in &pairs {
                writeln!(q, "{} {}", a.0, b.0).unwrap();
            }
            write(&p("pairs.txt"), &q)
        }
        "serve-mixed" => {
            let g = DatasetProxy::AsTopology.generate(0.25 * scale, DATASET_SEED);
            ensure_graph(&p("graph.rgs"), || {
                let tsv = p("graph.tsv");
                save_edges(&g, &tsv)?;
                relmax(bin, &["ingest", &s(&tsv), "-o", &s(&p("graph.rgs"))])?;
                std::fs::remove_file(&tsv).map_err(|e| e.to_string())
            })?;
            let phase_a = if scale < 1.0 { 50 } else { PHASE_A_REQUESTS };
            serve_requests(&g, seed, phase_a, dir)
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Write the workload's graph to `path` through `make`, unless it is
/// already there: the graph is the same for every seed, and the caller
/// may link in a copy generated for an earlier one.
fn ensure_graph(path: &Path, make: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    if path.exists() {
        Ok(())
    } else {
        make()
    }
}

/// `per` pairs at each hop distance in `distances`, in that order.
fn at_distances(
    csr: &CsrGraph,
    distances: &[u32],
    per: usize,
    seed: u64,
) -> Result<Vec<(NodeId, NodeId)>, String> {
    let mut out = Vec::new();
    for &d in distances {
        let pairs = st_queries_at_distance(csr, per, d, sub_seed(seed, d as u64));
        if pairs.len() < per {
            return Err(format!("only {} pairs {d} hops apart", pairs.len()));
        }
        out.extend(pairs);
    }
    Ok(out)
}

/// Eight Watts–Strogatz islands with 30% certain edges, relabelled into
/// disjoint node ranges of one undirected graph.
fn wide_islands(seed: u64, island_nodes: usize) -> UncertainGraph {
    let n = WIDE_ISLANDS * island_nodes;
    let mut g = UncertainGraph::with_capacity(n, false, n * WIDE_K / 2);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    for i in 0..WIDE_ISLANDS {
        let mut island = watts_strogatz(
            island_nodes,
            WIDE_K,
            WIDE_BETA,
            sub_seed(seed, 10 + i as u64),
        );
        ProbModel::Uniform { lo: 0.05, hi: 0.6 }.apply(&mut island, sub_seed(seed, 20 + i as u64));
        let base = (i * island_nodes) as u32;
        for e in island.edges() {
            let prob = if rng.gen_bool(WIDE_CERTAIN) {
                1.0
            } else {
                e.prob
            };
            g.add_edge(NodeId(base + e.src.0), NodeId(base + e.dst.0), prob)
                .expect("islands are simple graphs on disjoint ranges");
        }
    }
    g
}

/// The serve-mixed request files: phase A (reads), phase B (reads plus
/// 10% `POST /update`), and the probe body checked against the CLI.
///
/// Read bodies come from finite pools, so the same body recurs within a
/// generation and the client can check that its bytes repeat.
fn serve_requests(
    g: &UncertainGraph,
    seed: u64,
    phase_a_requests: usize,
    dir: &Path,
) -> Result<(), String> {
    let n = g.num_nodes() as u32;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    // The hot sources are the median nodes of 16 equal out-degree bins, the
    // same for every seed: a source's `from` pass costs what its reach
    // costs, and on this heavy-tailed graph a seeded draw, even one per
    // bin, swung phase A's cost by a quarter between seeds.
    let mut by_degree: Vec<u32> = (0..n).filter(|&v| g.out_degree(NodeId(v)) > 0).collect();
    by_degree.sort_by_key(|&v| (g.out_degree(NodeId(v)), v));
    let bin = by_degree.len() / HOT_SOURCES;
    let hot: Vec<u32> = (0..HOT_SOURCES)
        .map(|i| by_degree[i * bin + bin / 2])
        .collect();
    let st4: Vec<String> = (0..ST4_POOL)
        .map(|i| {
            let s = hot[i % HOT_SOURCES];
            (0..4)
                .map(|_| format!("st {s} {}\n", rng.gen_range(0..n)))
                .collect()
        })
        .collect();
    let topk: Vec<String> = (0..TOPK_POOL)
        .map(|i| format!("topk {} 10\n", hot[i % HOT_SOURCES]))
        .collect();
    let acc: Vec<String> = (0..ACC_POOL)
        .map(|_| {
            format!(
                "% accuracy 0.05 0.05\nst {} {}\n",
                hot[rng.gen_range(0..HOT_SOURCES)],
                rng.gen_range(0..n)
            )
        })
        .collect();
    let hold: String = (0..HOLD_PASSES)
        .flat_map(|_| hot.iter().map(|s| format!("topk {s} 10\n")))
        .collect();
    let edges = g.edges();
    // Exactly 60% st4, 25% topk and 15% acc in every phase, in seeded
    // order, each kind cycling through its pool: the mix's cost then does
    // not swing with the seed.
    let reads = |count: usize, rng: &mut StdRng| -> Vec<(&'static str, String)> {
        let (n_st4, n_topk) = (count * 60 / 100, count * 25 / 100);
        let mut kinds: Vec<usize> = (0..count)
            .map(|i| usize::from(i >= n_st4) + usize::from(i >= n_st4 + n_topk))
            .collect();
        kinds.shuffle(rng);
        let mut used = [0usize; 3];
        kinds
            .into_iter()
            .map(|k| {
                let (name, pool) = [("st4", &st4), ("topk", &topk), ("acc", &acc)][k];
                used[k] += 1;
                (name, pool[used[k] % pool.len()].clone())
            })
            .collect()
    };
    let mut phase_a = String::new();
    for (kind, body) in reads(phase_a_requests, &mut rng) {
        push_request(&mut phase_a, kind, "/query", &body);
    }
    let mut phase_b = String::new();
    let mut b_reads = reads(PHASE_B_REQUESTS - PHASE_B_REQUESTS / 10, &mut rng).into_iter();
    // Every tenth request is an update, so the compactions (and the
    // requests that follow them) sit at the same positions for every seed.
    // The update that starts a compaction gets a `hold` read before it.
    for i in 0..PHASE_B_REQUESTS {
        if i % 10 == 9 {
            if (i / 10 + 1) % (COMPACT_AFTER / UPDATE_RECORDS) == 0 {
                push_request(&mut phase_b, HOLD, "/query", &hold);
            }
            let mut body = String::new();
            for _ in 0..UPDATE_RECORDS {
                let e = edges[rng.gen_range(0..edges.len())];
                let p = (rng.gen_range(5..95) as f64) / 100.0;
                writeln!(body, "setp {} {} {p}", e.src.0, e.dst.0).unwrap();
            }
            push_request(&mut phase_b, "update", "/update", &body);
        } else {
            let (kind, body) = b_reads.next().expect("one read per non-update slot");
            push_request(&mut phase_b, kind, "/query", &body);
        }
    }
    write(&dir.join("phase_a.req"), &phase_a)?;
    write(&dir.join("phase_b.req"), &phase_b)?;
    let (a, b) = (hot[0], rng.gen_range(0..n));
    write(
        &dir.join("probe.txt"),
        &format!("st {a} {b}\nst {a} {}\ntopk {a} 10\nhops {a} {b}\n", hot[1]),
    )
}

/// Phase sizes, in requests. Phase B carries 70 updates of two records
/// each, so `--compact-after 64` folds after the 32nd and the 64th, and
/// two `hold` reads come on top.
const PHASE_A_REQUESTS: usize = 300;
const PHASE_B_REQUESTS: usize = 700;

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(100)
}

fn push_request(out: &mut String, kind: &str, path: &str, body: &str) {
    writeln!(out, "> {kind} {path}").unwrap();
    out.push_str(body);
}
