//! `perfbench` — the compiled half of the relmax end-to-end benchmark.
//!
//! `perfbench/run.py` drives the real `relmax` binary and calls this
//! helper for the parts that need the library itself:
//!
//! ```text
//! perfbench prepare --workload W --seed S [--scale F] --dir DIR --relmax BIN
//! perfbench client  --addr HOST:PORT --requests FILE --conns N --out TSV [--dump FILE]
//! perfbench trace   --workload W --dir DIR --samples Z --against PATH --spans OUT
//! perfbench host
//! ```
//!
//! `prepare` writes a workload's seeded inputs, `client` is the
//! closed-loop HTTP client of serve-mixed, `trace` is the traced
//! in-process run that yields the per-layer numbers, and `host` reports
//! whether the AVX-512 hash path and snapshot mapping are active.

mod client;
mod counting;
mod prepare;
mod spans;
mod traced;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        out.insert(key.to_string(), value.clone());
    }
    Ok(out)
}

fn get<'a>(f: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    f.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> Result<T, String> {
    get(f, key)?
        .parse()
        .map_err(|_| format!("--{key} is not a number"))
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, rest) = args
        .split_first()
        .ok_or("need a command: prepare, client, trace or host")?;
    let f = flags(rest)?;
    match cmd.as_str() {
        "prepare" => prepare::run(
            get(&f, "workload")?,
            num(&f, "seed")?,
            f.get("scale").map_or(Ok(1.0), |_| num(&f, "scale"))?,
            Path::new(get(&f, "dir")?),
            get(&f, "relmax")?,
        ),
        "client" => {
            let text = std::fs::read_to_string(get(&f, "requests")?).map_err(|e| e.to_string())?;
            let requests = client::parse_requests(&text)?;
            let summary = client::run(
                get(&f, "addr")?,
                &requests,
                num(&f, "conns")?,
                get(&f, "out")?,
                f.get("dump").map(String::as_str),
            )?;
            println!("{summary}");
            Ok(())
        }
        "trace" => {
            let dir = Path::new(get(&f, "dir")?);
            let samples = num(&f, "samples")?;
            let against = Path::new(get(&f, "against")?);
            let spans = get(&f, "spans")?;
            let report = match get(&f, "workload")? {
                "query-local" | "query-wide" => traced::query(dir, samples, against, spans)?,
                "select-be" => traced::select(dir, samples, against, spans)?,
                "serve-mixed" => traced::serve(dir, samples, against, spans)?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            println!("{}", report.to_json());
            Ok(())
        }
        "host" => {
            println!(
                "{{\"avx512\":{},\"mmap\":{}}}",
                relmax_sampling::packed::simd_available(),
                relmax_ugraph::snapshot::mmap_enabled()
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
