//! The traced in-process runs.
//!
//! Each run calls the public functions `relmax query`, `relmax select`
//! and `relmax serve` call, in the order they call them, with a span
//! around every layer call. The results are rendered through the same
//! shared renderer and compared with the bytes the untraced CLI run or
//! server produced, so a traced run that drifts from the program shows
//! up as a failed check rather than as a quietly different number.

use crate::counting::{Counting, Counts};
use crate::spans::Recorder;
use relmax_core::{
    AnySelector, EdgeSelector, QueryAnswer, QueryEngine, SearchSpaceElimination, StQuery,
};
use relmax_gen::updates::parse_update_request_str;
use relmax_gen::workload::{self, QuerySpec, WireSpec};
use relmax_sampling::convergence::DEFAULT_MAX_SAMPLES;
use relmax_sampling::{BatchEstimate, BatchQuery, Budget, Kernel, McEstimator, ParallelRuntime};
use relmax_server::state::{AnyEngine, EngineKind, Snapshot};
use relmax_server::{json, render};
use relmax_ugraph::{snapshot, CsrGraph, NodeId, ProbGraph, RelIndex, StPlan};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The CLI's default seed, which the benchmark never overrides.
const SEED: u64 = 42;

/// Metrics (name → value) plus named pass/fail checks.
#[derive(Default)]
pub struct Report {
    /// Per-layer numbers.
    pub metrics: BTreeMap<String, f64>,
    /// Correctness checks that ran, with their verdicts.
    pub checks: BTreeMap<String, bool>,
}

impl Report {
    fn set(&mut self, name: &str, v: f64) {
        self.metrics.insert(name.to_string(), v);
    }

    fn check(&mut self, name: &str, ok: bool) {
        self.checks.insert(name.to_string(), ok);
    }

    /// One JSON object: `{"metrics":{…},"checks":{…}}`.
    pub fn to_json(&self) -> String {
        let m = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }));
        let c = self.checks.iter().map(|(k, v)| format!("\"{k}\":{v}"));
        format!(
            "{{\"metrics\":{{{}}},\"checks\":{{{}}}}}",
            m.collect::<Vec<_>>().join(","),
            c.collect::<Vec<_>>().join(",")
        )
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Span names of the per-shape sampling calls.
const SHAPES: [&str; 5] = [
    "sample.st",
    "sample.hops",
    "sample.from",
    "sample.topk",
    "sample.set",
];

fn shape(q: &QuerySpec) -> &'static str {
    match q {
        QuerySpec::St(..) => "sample.st",
        QuerySpec::Hops(..) => "sample.hops",
        QuerySpec::From(..) | QuerySpec::To(..) => "sample.from",
        QuerySpec::TopK(..) => "sample.topk",
        QuerySpec::Set(..) => "sample.set",
    }
}

fn batch_query(q: &QuerySpec) -> BatchQuery {
    match q {
        QuerySpec::St(s, t) => BatchQuery::St(*s, *t),
        QuerySpec::From(s) => BatchQuery::From(*s),
        QuerySpec::To(t) => BatchQuery::To(*t),
        QuerySpec::Set(a, b) => BatchQuery::Set(a.clone(), b.clone(), None),
        QuerySpec::TopK(s, k) => BatchQuery::TopK(*s, *k),
        QuerySpec::Hops(s, t) => BatchQuery::Hops(*s, *t),
    }
}

/// Answer `specs` one query at a time (each a one-query batch, which is
/// what the CLI's serial batch runtime does per item), one span per query.
fn sample_all(
    rec: &Recorder,
    engine: &QueryEngine<McEstimator>,
    specs: &[QuerySpec],
    budget: Budget,
) -> Result<Vec<BatchEstimate>, String> {
    rec.span("sample", 0, || {
        specs
            .iter()
            .enumerate()
            .map(|(i, q)| {
                rec.span(shape(q), i as u64 + 1, || {
                    match engine.query().batch(&[batch_query(q)]).budget(budget).run() {
                        Ok(QueryAnswer::Batch(mut v)) => Ok(v.remove(0)),
                        Ok(_) => Err("batch query yielded a non-batch answer".to_string()),
                        Err(e) => Err(e.to_string()),
                    }
                })
            })
            .collect()
    })
}

/// `relmax query --format json` output for these results.
fn query_json(
    csr: &CsrGraph,
    budget: &Budget,
    specs: &[QuerySpec],
    results: &[BatchEstimate],
) -> String {
    let rendered = specs
        .iter()
        .zip(results)
        .map(|(q, r)| render::result_entry(q, None, r));
    format!(
        "{{\"graph\":{{\"nodes\":{},\"coins\":{},\"directed\":{}}},\"estimator\":{{\"name\":\"MC\",\"seed\":{SEED},\"budget\":{}}},\"results\":{}}}\n",
        csr.num_nodes(),
        csr.num_coins(),
        csr.is_directed(),
        json::budget(budget),
        json::array(rendered)
    )
}

/// Blank the fields that may differ between index modes on queries the
/// index answers without sampling: the sampling effort (`samples_used`,
/// `stopped_early`, as docs/cli.md says) and the confidence interval,
/// which is exact (`[v, v]`) when short-circuited and a sampled interval
/// otherwise. Every value field is left in place.
fn without_effort(s: &str) -> String {
    let keys = [
        "\"samples_used\":",
        "\"stopped_early\":",
        "\"ci_low\":",
        "\"ci_high\":",
    ];
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some((at, key)) = keys
        .iter()
        .filter_map(|k| rest.find(k).map(|at| (at, k)))
        .min()
    {
        let start = at + key.len();
        let end = start + rest[start..].find([',', '}']).unwrap_or(rest.len() - start);
        out.push_str(&rest[..start]);
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// What one pass of the `relmax query` pipeline produced.
struct QueryPass {
    specs: Vec<QuerySpec>,
    csr: Arc<CsrGraph>,
    index: Arc<RelIndex>,
    results: Vec<BatchEstimate>,
    out: String,
}

/// The CLI's query pipeline: parse the workload, open the snapshot,
/// validate or build the index, sample, render.
fn query_pass(rec: &Recorder, dir: &Path, budget: Budget) -> Result<QueryPass, String> {
    let graph = dir.join("graph.rgs");
    let wl = rec
        .span("plan", 0, || {
            workload::parse_workload_file(dir.join("queries.txt"))
        })
        .map_err(|e| e.to_string())?;
    let (csr, section) = rec
        .span("load", 0, || snapshot::open_full(&graph))
        .map_err(|e| e.to_string())?;
    let index = match &section {
        Some(sec) => rec.span("index.validate", 0, || RelIndex::from_section(&csr, sec))?,
        None => rec.span("index.build", 0, || RelIndex::build(&csr)),
    };
    let (csr, index) = (Arc::new(csr), Arc::new(index));
    let est = McEstimator::with_budget(budget, SEED);
    let engine = QueryEngine::from_shared(Arc::clone(&csr), Some(Arc::clone(&index)), est)
        .with_runtime(ParallelRuntime::new(1));
    let results = sample_all(rec, &engine, &wl.specs, budget)?;
    let out = rec.span("render", 0, || {
        query_json(&csr, &budget, &wl.specs, &results)
    });
    Ok(QueryPass {
        specs: wl.specs,
        csr,
        index,
        results,
        out,
    })
}

/// The traced `relmax query` run over `dir/graph.rgs` and
/// `dir/queries.txt`, compared with the CLI's bytes in `cli_json`.
pub fn query(dir: &Path, samples: usize, cli_json: &Path, spans: &str) -> Result<Report, String> {
    let mut rep = Report::default();
    let budget = Budget::FixedSamples(samples);
    // An untraced pass, then the traced one: their ratio is the overhead.
    let t = Instant::now();
    query_pass(&Recorder::new(false), dir, budget)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let rec = Recorder::new(true);
    let t = Instant::now();
    let QueryPass {
        specs,
        csr,
        index,
        results,
        out,
    } = query_pass(&rec, dir, budget)?;
    rep.set(
        "trace.overhead_ratio",
        t.elapsed().as_secs_f64() / untraced_s,
    );
    let graph = dir.join("graph.rgs");

    let cli = read(cli_json)?;
    rep.check("traced_bytes_equal_cli", out == cli);

    // The same batch under the scalar kernel and without the index.
    let scalar = QueryEngine::from_shared(
        Arc::clone(&csr),
        Some(Arc::clone(&index)),
        McEstimator::with_budget(budget, SEED).with_kernel(Kernel::Scalar),
    );
    let t = Instant::now();
    let scalar_results = sample_all(&Recorder::new(false), &scalar, &specs, budget)?;
    rep.set("sample.scalar_s", t.elapsed().as_secs_f64());
    rep.check(
        "scalar_bytes_equal_packed",
        query_json(&csr, &budget, &specs, &scalar_results) == out,
    );
    let plain = QueryEngine::from_shared(
        Arc::clone(&csr),
        None,
        McEstimator::with_budget(budget, SEED),
    );
    let t = Instant::now();
    let plain_results = sample_all(&Recorder::new(false), &plain, &specs, budget)?;
    rep.set("sample.no_index_s", t.elapsed().as_secs_f64());
    rep.check(
        "no_index_values_equal_index",
        without_effort(&query_json(&csr, &budget, &specs, &plain_results)) == without_effort(&out),
    );

    let self_times = rec.self_times();
    let t = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    rep.set("plan.parse_s", t("plan"));
    rep.set("plan.queries", specs.len() as f64);
    rep.set("load.open_s", t("load"));
    rep.set("load.snapshot_mb", file_mb(&graph));
    rep.set("load.resident_mb", csr.resident_bytes() as f64 / 1e6);
    rep.set("index.build_s", t("index.build"));
    rep.set("index.validate_s", t("index.validate"));
    rep.set("index.supernodes", index.num_supernodes() as f64);
    rep.set("index.components", index.num_components() as f64);
    let verdicts: Vec<StPlan> = specs
        .iter()
        .filter_map(|q| match q {
            QuerySpec::St(s, t) => Some(index.st_plan(*s, *t)),
            _ => None,
        })
        .collect();
    let shorts = verdicts
        .iter()
        .filter(|p| matches!(p, StPlan::Certain | StPlan::Impossible))
        .count();
    rep.set("index.short_circuits", shorts as f64);
    rep.set(
        "index.short_circuit_ratio",
        shorts as f64 / verdicts.len().max(1) as f64,
    );
    rep.set("sample.s", rec.total("sample"));
    for key in SHAPES {
        rep.set(&format!("{key}_s"), t(key));
    }
    rep.set(
        "sample.worlds",
        results.iter().map(|r| r.sampling_effort().0 as f64).sum(),
    );
    rep.set("render.s", t("render"));
    rep.set("render.mb", out.len() as f64 / 1e6);
    rec.write_jsonl(spans)
        .map_err(|e| format!("{spans}: {e}"))?;
    Ok(rep)
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6)
}

/// `relmax select --format json` output (the CLI's `print_json`).
fn select_json(query: &StQuery, outcome: &relmax_core::Outcome, budget: &Budget) -> String {
    let added = outcome
        .added
        .iter()
        .zip(&outcome.added_estimates)
        .map(|(e, est)| {
            format!(
                "{{\"src\":{},\"dst\":{},\"prob\":{},\"solo_estimate\":{}}}",
                e.src.0,
                e.dst.0,
                json::num(e.prob),
                json::estimate(est),
            )
        });
    format!(
        "{{\"method\":\"BE\",\"s\":{},\"t\":{},\"k\":{},\"zeta\":{},\"budget\":{},\"base_reliability\":{},\"new_reliability\":{},\"gain\":{},\"base_estimate\":{},\"new_estimate\":{},\"added\":{}}}\n",
        query.s.0,
        query.t.0,
        query.k,
        json::num(query.zeta),
        json::budget(budget),
        json::num(outcome.base_reliability),
        json::num(outcome.new_reliability),
        json::num(outcome.gain()),
        json::estimate(&outcome.base_estimate),
        json::estimate(&outcome.new_estimate),
        json::array(added)
    )
}

/// Selection parameters of the select-be workload (`relmax select
/// --method BE -k 10 --r 100 --l 30 --samples 1000`, default ζ and hops).
const SELECT_K: usize = 10;
const SELECT_R: usize = 100;
const SELECT_L: usize = 30;
const SELECT_ZETA: f64 = 0.5;
const SELECT_HOPS: u32 = 3;

fn read_pairs(dir: &Path) -> Result<Vec<(u32, u32)>, String> {
    Ok(read(&dir.join("pairs.txt"))?
        .lines()
        .filter_map(|l| {
            let (a, b) = l.split_once(' ')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect())
}

fn select_query(s: u32, t: u32) -> StQuery {
    StQuery::new(NodeId(s), NodeId(t), SELECT_K, SELECT_ZETA)
        .with_hop_limit(Some(SELECT_HOPS))
        .with_r(SELECT_R)
        .with_l(SELECT_L)
}

/// The traced `relmax select --method BE` run over every pair in
/// `dir/pairs.txt`, compared with the CLI outputs `cli_dir/select-<i>.json`.
///
/// The untraced pass makes the CLI's own call (`select_budgeted` on the
/// plain estimator); the traced pass makes the two calls it consists of
/// (elimination, then selection over the candidates) with the counting
/// estimator.
pub fn select(dir: &Path, samples: usize, cli_dir: &Path, spans: &str) -> Result<Report, String> {
    let mut rep = Report::default();
    let graph = dir.join("graph.rgs");
    let budget = Budget::FixedSamples(samples);
    let pairs = read_pairs(dir)?;
    ParallelRuntime::set_global_threads(1);
    let plain = || McEstimator::with_budget_runtime(budget, SEED, ParallelRuntime::new(1));

    let started = Instant::now();
    for &(s, t) in &pairs {
        let (csr, _) = snapshot::open_full(&graph).map_err(|e| e.to_string())?;
        let g = csr.thaw().map_err(|e| e.to_string())?;
        AnySelector::batch_edge()
            .select_budgeted(&g, &select_query(s, t), &plain(), budget)
            .map_err(|e| e.to_string())?;
    }
    let untraced_s = started.elapsed().as_secs_f64();

    let rec = Recorder::new(true);
    let counts = Arc::new(Counts::default());
    let (mut gain, mut candidates, mut same) = (0.0, 0usize, true);
    let mut choose_est_s = 0.0;
    let started = Instant::now();
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let req = i as u64 + 1;
        let (csr, _) = rec
            .span("load", req, || snapshot::open_full(&graph))
            .map_err(|e| e.to_string())?;
        let g = rec
            .span("load.thaw", req, || csr.thaw())
            .map_err(|e| e.to_string())?;
        let query = select_query(s, t);
        let est = Counting::new(plain(), Arc::clone(&counts));
        let cands = rec.span("select.elimination", req, || {
            SearchSpaceElimination::new(query.r).candidate_edges_budgeted(&g, &query, &est, budget)
        });
        candidates += cands.len();
        let before = counts.snapshot().1;
        let outcome = rec
            .span("select.choose", req, || {
                AnySelector::batch_edge()
                    .select_with_candidates_budgeted(&g, &query, &cands, &est, budget)
            })
            .map_err(|e| e.to_string())?;
        choose_est_s += counts.snapshot().1 - before;
        gain += outcome.gain();
        let out = rec.span("render", req, || select_json(&query, &outcome, &budget));
        same &= read(&cli_dir.join(format!("select-{i}.json")))? == out;
    }
    rep.set(
        "trace.overhead_ratio",
        started.elapsed().as_secs_f64() / untraced_s,
    );
    rep.check("traced_bytes_equal_cli", same);
    let st = rec.self_times();
    let t = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let (calls, est_s, worlds) = counts.snapshot();
    rep.set("load.open_s", t("load"));
    rep.set("load.thaw_s", t("load.thaw"));
    rep.set("load.snapshot_mb", file_mb(&graph));
    rep.set("select.elimination_s", t("select.elimination"));
    rep.set("select.candidates", candidates as f64);
    rep.set("select.choose_s", t("select.choose"));
    rep.set("select.estimator_calls", calls as f64);
    rep.set("select.estimator_s", est_s);
    rep.set("select.worlds", worlds as f64);
    rep.set(
        "select.paths_s",
        (t("select.choose") - choose_est_s).max(0.0),
    );
    rep.set("select.gain", gain / pairs.len().max(1) as f64);
    rep.set("render.s", t("render"));
    rec.write_jsonl(spans)
        .map_err(|e| format!("{spans}: {e}"))?;
    Ok(rep)
}

/// Replay phase-A requests in process, through the functions a `relmax
/// serve` request calls: parse, engine build, the short-circuit check,
/// then sampling — same-source `st` queries under a fixed budget share
/// one `from_vector` pass, as the server's coalescing answers them —
/// and render. Returns each request's rendered `results` and its compute
/// time in ms.
fn replay(
    rec: &Recorder,
    snap: &Snapshot,
    requests: &[crate::client::Request],
    samples: usize,
) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        let id = i as u64;
        let t0 = Instant::now();
        let wire = rec
            .span("plan", id, || workload::parse_request_str(&req.body))
            .map_err(|e| e.to_string())?;
        let budget = match wire.accuracy {
            Some(a) => Budget::accuracy_capped(
                a.eps,
                a.delta,
                a.max_samples.unwrap_or(DEFAULT_MAX_SAMPLES),
            ),
            None => Budget::FixedSamples(samples),
        };
        let engine = AnyEngine::build(snap, EngineKind::Mc, budget, wire.seed.unwrap_or(SEED));
        let coalesce = matches!(budget, Budget::FixedSamples(_)) && engine.coalescable_st();
        let mut answers: Vec<Option<QueryAnswer>> = wire.specs.iter().map(|_| None).collect();
        let mut groups: BTreeMap<NodeId, Vec<(usize, NodeId)>> = BTreeMap::new();
        for (j, spec) in wire.specs.iter().enumerate() {
            if let WireSpec::Query(QuerySpec::St(s, t)) = spec {
                match engine.st_shortcircuit(*s, *t).map_err(|e| e.to_string())? {
                    Some(e) => answers[j] = Some(QueryAnswer::Scalar(e)),
                    None if coalesce => groups.entry(*s).or_default().push((j, *t)),
                    None => {}
                }
            }
        }
        for (s, members) in groups.into_iter().filter(|(_, m)| m.len() > 1) {
            let v = rec
                .span("sample.st", id, || engine.from_vector(s, budget))
                .map_err(|e| e.to_string())?;
            for (j, t) in members {
                answers[j] = Some(QueryAnswer::Scalar(v[t.index()]));
            }
        }
        let mut entries = Vec::with_capacity(wire.specs.len());
        for (spec, answer) in wire.specs.iter().zip(answers) {
            let WireSpec::Query(q) = spec else {
                return Err("the workload sends no pairwise queries".to_string());
            };
            let answer = match answer {
                Some(a) => a,
                None => rec
                    .span(shape(q), id, || engine.run_spec(spec, budget, None))
                    .map_err(|e| e.to_string())?,
            };
            let r = match answer {
                QueryAnswer::Scalar(e) => BatchEstimate::Scalar(e),
                QueryAnswer::Vector(v) => BatchEstimate::Vector(v),
                QueryAnswer::Ranking(r) => BatchEstimate::Ranking(r),
                QueryAnswer::Hops(h) => BatchEstimate::Hops(h),
                other => return Err(format!("unexpected answer {other:?}")),
            };
            entries.push(rec.span("render", id, || render::result_entry(q, None, &r)));
        }
        out.push((json::array(entries), t0.elapsed().as_secs_f64() * 1e3));
    }
    Ok(out)
}

/// Requests replayed in process for `serve.compute_p50_ms`.
const REPLAY_REQUESTS: usize = 100;
/// `--compact-after` of the serve-mixed workload.
pub const COMPACT_AFTER: usize = 64;

/// The traced in-process view of serve-mixed: load and index, a replay
/// of phase-A requests (compared with the server's generation-1 bytes in
/// `dump`), and the phase-B updates applied and compacted through
/// `QueryEngine::{apply_delta, compact}`.
pub fn serve(dir: &Path, samples: usize, dump: &Path, spans: &str) -> Result<Report, String> {
    let mut rep = Report::default();
    let rec = Recorder::new(true);
    let graph = dir.join("graph.rgs");
    let (csr, _) = rec
        .span("load", 0, || snapshot::open_full(&graph))
        .map_err(|e| e.to_string())?;
    let index = rec.span("index.build", 0, || RelIndex::build(&csr));
    let snap = Snapshot {
        csr: Arc::new(csr),
        index: Some(Arc::new(index)),
        generation: 1,
        format_version: snapshot::FORMAT_VERSION,
        path: graph.to_string_lossy().into_owned(),
        index_stored: false,
        delta: None,
    };
    let phase_a = crate::client::parse_requests(&read(&dir.join("phase_a.req"))?)?;
    let sample = &phase_a[..phase_a.len().min(REPLAY_REQUESTS)];

    // A short warm-up, an untraced pass, then the traced one: the ratio of
    // the last two is the overhead.
    replay(
        &Recorder::new(false),
        &snap,
        &sample[..sample.len().min(10)],
        samples,
    )?;
    let t = Instant::now();
    replay(&Recorder::new(false), &snap, sample, samples)?;
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let traced = replay(&rec, &snap, sample, samples)?;
    rep.set(
        "trace.overhead_ratio",
        t.elapsed().as_secs_f64() / untraced_s,
    );

    let served: BTreeMap<usize, String> = read(dump)?
        .lines()
        .filter_map(|l| {
            let (i, r) = l.split_once('\t')?;
            Some((i.parse().ok()?, r.to_string()))
        })
        .collect();
    let mut compared = 0;
    let mut same = true;
    for (i, (results, _)) in traced.iter().enumerate() {
        if let Some(s) = served.get(&i) {
            compared += 1;
            same &= s == results;
        }
    }
    rep.check("replay_bytes_equal_server", same && compared > 0);
    let mut compute: Vec<f64> = traced.iter().map(|(_, ms)| *ms).collect();
    rep.set("serve.compute_p50_ms", median(&mut compute));

    // The write path: phase-B updates through apply_delta, folded every
    // COMPACT_AFTER pending records, as `--compact-after` does.
    let phase_b = crate::client::parse_requests(&read(&dir.join("phase_b.req"))?)?;
    let mut engine = QueryEngine::from_shared(
        Arc::clone(&snap.csr),
        snap.index.clone(),
        McEstimator::with_budget(Budget::FixedSamples(samples), SEED),
    );
    let (mut apply_ms, mut compact_s, mut pending) = (Vec::new(), Vec::new(), 0usize);
    for (i, req) in phase_b.iter().filter(|r| r.path == "/update").enumerate() {
        let parsed = parse_update_request_str(&req.body).map_err(|e| e.to_string())?;
        let t = Instant::now();
        engine = rec
            .span("delta.apply", i as u64, || {
                engine.apply_delta(&parsed.updates)
            })
            .map_err(|e| e.to_string())?;
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pending += parsed.updates.len();
        if pending >= COMPACT_AFTER {
            let t = Instant::now();
            engine = rec.span("delta.compact", i as u64, || engine.compact());
            compact_s.push(t.elapsed().as_secs_f64());
            pending = 0;
        }
    }
    rep.set("delta.apply_ms", median(&mut apply_ms));
    rep.set("delta.compact_s", median(&mut compact_s));

    let st = rec.self_times();
    let t = |name: &str| st.get(name).copied().unwrap_or(0.0);
    rep.set("load.open_s", t("load"));
    rep.set("load.snapshot_mb", file_mb(&graph));
    rep.set("load.resident_mb", snap.csr.resident_bytes() as f64 / 1e6);
    rep.set("index.build_s", t("index.build"));
    let idx = snap.index.as_ref().expect("index built above");
    rep.set("index.supernodes", idx.num_supernodes() as f64);
    rep.set("index.components", idx.num_components() as f64);
    rep.set("plan.parse_s", t("plan"));
    rep.set("plan.queries", sample.len() as f64);
    rep.set("sample.s", SHAPES.iter().map(|k| t(k)).sum());
    for key in SHAPES {
        rep.set(&format!("{key}_s"), t(key));
    }
    rep.set("render.s", t("render"));
    rep.set(
        "render.mb",
        traced.iter().map(|(r, _)| r.len()).sum::<usize>() as f64 / 1e6,
    );
    rec.write_jsonl(spans)
        .map_err(|e| format!("{spans}: {e}"))?;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::without_effort;

    #[test]
    fn masking_drops_effort_and_interval_but_keeps_values() {
        let exact = r#"{"kind":"st","reliability":0,"stderr":0,"ci_low":0,"ci_high":0,"samples_used":0,"stopped_early":true}"#;
        let sampled = r#"{"kind":"st","reliability":0,"stderr":0,"ci_low":0,"ci_high":0.014,"samples_used":1000,"stopped_early":false}"#;
        let other = r#"{"kind":"st","reliability":0.5,"stderr":0,"ci_low":0,"ci_high":0.014,"samples_used":1000,"stopped_early":false}"#;
        assert_eq!(without_effort(exact), without_effort(sampled));
        assert_ne!(without_effort(sampled), without_effort(other));
    }
}
