//! `perfbench`: the samplecf benchmark.
//!
//! ```text
//! perfbench --workload oneshot|serve-repeat|serve-churn --seed N --seconds S
//!           --trace 0|1 --daemon PATH [--out DIR] [--commit C]
//! perfbench gen --out FILE --seed N
//! ```
//!
//! With `--trace 0` a run measures the workload untraced and prints every
//! end-to-end metric; with `--trace 1` it replays the workload's calls layer
//! by layer with spans and prints the per-layer metrics.  Either way the
//! last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and a correctness
//! violation makes the exit code non-zero.  `perfbench/run.py` builds
//! everything and calls this binary; see `perfbench/README.md`.

mod client;
mod ladder;
mod mix;
mod oneshot;
mod run;
mod serve;
mod source;
mod stats;
mod trace;

use samplecf_server::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a run is told on its command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub out: PathBuf,
    pub commit: String,
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the result line, because
    /// they cannot carry a regression bound (see perfbench/README.md).
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any makes the run fail.
    pub problems: Vec<String>,
    /// Why the measurement is not valid (e.g. the load generator ran late).
    pub invalid: Option<String>,
    /// Workload-specific context recorded with the result.
    pub context: Vec<(&'static str, Json)>,
    /// Spans of a traced run, written next to the result.
    pub spans: Option<Json>,
}

impl Report {
    /// Busy, failed, malformed and unanswered requests over those attempted.
    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::new(),
        out: PathBuf::from("perfbench/out"),
        commit: "unknown".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("invalid {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--daemon" => args.daemon = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            "--commit" => args.commit = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn gen(argv: &[String]) -> Result<(), String> {
    let mut out = None;
    let mut seed = 0u64;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or("gen flags take values")?;
        match flag.as_str() {
            "--out" => out = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown gen flag {other}")),
        }
    }
    let out = out.ok_or("gen needs --out")?;
    // `samplecf gen --rows 1000000 --distinct 10000` with its defaults.
    let generated = samplecf_datagen::presets::variable_length_table(
        mix::TABLE_NAME,
        mix::TABLE_ROWS,
        24,
        mix::TABLE_DISTINCT,
        4,
        20,
        seed,
    )
    .page_size(8192)
    .generate()
    .map_err(|e| e.to_string())?;
    let disk = samplecf_storage::DiskTable::materialize(&out, &generated.table)
        .map_err(|e| e.to_string())?;
    use samplecf_storage::TableSource;
    println!(
        "{} {} {}",
        disk.num_rows(),
        disk.num_pages(),
        disk.file_len()
    );
    Ok(())
}

fn context_json(args: &Args, report: &Report) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut json = Json::obj()
        .field("workload", Json::str(&args.workload))
        .field("seed", Json::uint(args.seed))
        .field("seconds", Json::Num(args.seconds))
        .field("trace", Json::Bool(args.trace))
        .field("commit", Json::str(&args.commit))
        .field("nproc", Json::uint(nproc as u64))
        .field("cpu", Json::str(cpu))
        .field("error_rate", Json::Num(report.error_rate()));
    for (key, value) in &report.context {
        json = json.field(*key, value.clone());
    }
    json
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("gen") {
        return match gen(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench gen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let result = match (args.workload.as_str(), args.trace) {
        ("oneshot", false) => run::oneshot(&args),
        ("oneshot", true) => run::oneshot_traced(&args),
        ("serve-repeat", false) => run::serve_repeat(&args),
        ("serve-churn", false) => run::serve_churn(&args),
        ("serve-repeat" | "serve-churn", true) => run::serve_traced(&args),
        (other, _) => Err(format!(
            "unknown workload {other:?} (oneshot, serve-repeat, serve-churn)"
        )),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    let context = context_json(&args, &report);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut metrics = Json::obj();
    for &(name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.4} {unit}");
        metrics = metrics.field(
            name,
            Json::obj()
                .field("value", Json::Num(value))
                .field("unit", Json::str(unit)),
        );
    }
    for &(name, value, unit) in [("error_rate", report.error_rate(), "ratio")]
        .iter()
        .chain(&report.ungated)
    {
        println!("{name:<28} {value:>14.4} {unit} (not gated)");
    }
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    let record = Json::obj()
        .field("context", context.clone())
        .field("metrics", metrics.clone())
        .field(
            "problems",
            Json::Arr(report.problems.iter().map(Json::str).collect()),
        );
    let written = std::fs::write(args.out.join(format!("result-{tag}.json")), record.pretty())
        .and_then(|()| match &report.spans {
            Some(spans) => {
                std::fs::write(args.out.join(format!("spans-{tag}.json")), spans.to_line())
            }
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write results: {e}");
    }
    println!("context {}", context.to_line());
    if let Some(why) = &report.invalid {
        eprintln!("perfbench: run invalid, no result reported: {why}");
        return ExitCode::from(3);
    }
    let correct = report.problems.is_empty();
    println!(
        "{}",
        Json::obj()
            .field("correct", Json::Bool(correct))
            .field("attempted", Json::uint(report.attempted.max(1)))
            .field("failed", Json::uint(report.failed))
            .field("metrics", metrics)
            .to_line()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
