//! `samplecf` — the command-line front end of the SampleCF reproduction.
//!
//! Five subcommands cover the gen → estimate → exact → advise loop over
//! disk-resident tables:
//!
//! * `gen` writes a seeded synthetic table to a `.scf` file,
//! * `estimate` runs the SampleCF estimator over it, reporting the CF
//!   estimate *and* the number of pages physically read,
//! * `exact` computes the ground-truth CF (a full scan),
//! * `advise` runs the shared-sample physical design advisor over a set of
//!   candidate indexes (text or JSON report),
//! * `info` prints the file header without touching data pages,
//! * `client` sends one protocol request to a running `samplecfd` daemon
//!   and pretty-prints the JSON reply,
//! * `top` polls a daemon's `stats` endpoint and renders a live terminal
//!   view: request rates, per-op latency quantiles, cache hit ratio and
//!   queue depth.
//!
//! Argument parsing is hand-rolled (the workspace builds offline, without
//! clap); every flag is `--name value`.

use samplecf::prelude::*;
use samplecf_sampling::CountingSource;
use samplecf_server::{table_info_json, Json};
use samplecf_storage::{DiskTable, IntoShared, TableSource};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;
use std::time::Instant;

const HELP: &str = "samplecf — estimate index compression fractions by sampling (ICDE 2010)

USAGE:
  samplecf gen --out FILE [options]       write a synthetic table to a file
  samplecf estimate --table FILE [options]  run SampleCF over a table file
  samplecf exact --table FILE [options]   compute the exact CF (full scan)
  samplecf advise --table FILE [options]  recommend which indexes to compress
  samplecf info --table FILE [--json]     print the file header and schema
  samplecf client ADDR REQUEST            send one request to a samplecfd
  samplecf top ADDR [options]             live view of a running samplecfd

GEN OPTIONS:
  --out FILE          output path (required)
  --rows N            number of rows                     [default: 100000]
  --distinct D        distinct values in column `a`      [default: 1000]
  --width W           declared CHAR width in bytes       [default: 24]
  --len-min L         minimum value length               [default: 4]
  --len-max L         maximum value length               [default: 20]
  --page-size B       page size in bytes                 [default: 8192]
  --name NAME         table name stored in the file      [default: t]
  --seed S            RNG seed                           [default: 42]

ESTIMATE OPTIONS:
  --table FILE        table file written by `gen` (required)
  --sampler NAME      block | uniform | uniform-wor | bernoulli |
                      systematic | reservoir | stratified [default: uniform]
  --fraction F        sampling fraction in (0, 1]        [default: 0.01]
  --size R            reservoir size (reservoir sampler) [default: 1000]
  --strata K          page strata (stratified sampler)   [default: 8]
  --alloc A           prop | neyman — per-stratum budget split
                      (stratified sampler)               [default: prop]
  --strata-mode M     equi-width | equi-depth — how page ranges are cut
                      (stratified sampler)               [default: equi-width]
  --scheme NAME       none | null-suppression | dictionary-paged |
                      dictionary-global | rle | prefix   [default: null-suppression]
  --column COLS       comma-separated index key columns  [default: first column]
  --trials T          independent estimator runs         [default: 1]
  --threads W         worker threads (0 = all); fans out trials, strata
                      and the bulk-load sort; the report is byte-identical
                      at any thread count                [default: 0]
  --seed S            base RNG seed                      [default: 0]
  --json              emit the report as JSON (includes the seed used)

PROGRESSIVE ESTIMATION (adds to ESTIMATE; every sampler; bernoulli and
systematic take a single checkpoint at the cap):
  --target-error E    stop when the CI half-width is <= E x the estimate;
                      enables the progressive (stream-then-stop) mode
  --confidence C      confidence level 1 - delta of the CI  [default: 0.95]
  --max-fraction F    sampling-fraction cap (page budget)   [default: --fraction]
  --initial-fraction F  first checkpoint fraction           [default: 0.01]
  --growth G          geometric checkpoint growth factor    [default: 2.0]

The sample grows in geometric batches; after each batch the CF is
re-measured from the accumulated sorted run and its variance jackknifed
over the batches.  The run stops when the Chebyshev CI at the requested
confidence is tighter than --target-error, or at --max-fraction.  A run
that reaches the cap is byte-identical to a one-shot estimate at that
fraction and seed.  Bernoulli and systematic draws are full scans that
arrive as one batch (a scan-order prefix is not a uniform sub-sample), so
they take a single checkpoint at the cap.  With --sampler stratified the CF is the weighted
per-stratum combination, the CI comes from the closed-form stratified
variance algebra instead of the jackknife, and --alloc neyman re-splits
the remaining budget toward high-variance strata after every checkpoint.

EXACT OPTIONS:
  --table FILE        table file (required)
  --scheme NAME       compression scheme                 [default: null-suppression]
  --column COLS       comma-separated index key columns  [default: first column]

ADVISE OPTIONS:
  --table FILE        table file (required)
  --candidates FILE   candidate spec file (see below); without it, one
                      candidate is built from --column/--scheme
  --column COLS       key columns of the inline candidate [default: first column]
  --scheme NAME       scheme of the inline candidate     [default: null-suppression]
  --sampler NAME      block | uniform | uniform-wor | bernoulli |
                      systematic | reservoir | stratified [default: block]
  --fraction F        sampling fraction in (0, 1]        [default: 0.01]
  --size R            reservoir size (reservoir sampler) [default: 1000]
  --strata K          page strata (stratified sampler)   [default: 8]
  --alloc A           prop | neyman (stratified sampler) [default: prop]
  --strata-mode M     equi-width | equi-depth (stratified
                      sampler)                           [default: equi-width]
  --seed S            RNG seed for the shared sample     [default: 0]
  --min-saving F      compress only if saving >= F of the
                      uncompressed size                  [default: 0.1]
  --budget BYTES      storage budget (greedy compression until it fits)
  --threads W         worker threads (0 = all); results do not depend on it
  --json              emit the plan as JSON instead of text

CANDIDATE SPEC FILE (for `advise --candidates`): one candidate per line,
`#` starts a comment.  Fields are whitespace-separated:

  <index-name> <col[,col...]> <scheme> [clustered]

e.g.   idx_a      a        dictionary-global
       pk_all     a        rle             clustered

All candidates share one materialized sample per (sampler, fraction, seed)
configuration, so k candidates cost the same source I/O as one.

INFO OPTIONS:
  --table FILE        table file (required)
  --json              emit the header as JSON — the same table-metadata
                      shape the samplecfd `info` endpoint returns

CLIENT USAGE:
  samplecf client ADDR REQUEST [--raw]

  ADDR is a samplecfd address (e.g. 127.0.0.1:7878); REQUEST is one JSON
  protocol object (see docs/API.md), or `-` to read it from stdin.  The
  reply is pretty-printed (--raw prints the single reply line verbatim).
  Exits non-zero when the server answers {\"ok\": false}.

  e.g.  samplecf client 127.0.0.1:7878 '{\"op\":\"stats\"}'

TOP OPTIONS:
  samplecf top ADDR [--interval-ms MS] [--iterations N] [--plain]

  Polls {\"op\":\"stats\"} every --interval-ms [default: 1000] and renders
  request throughput, per-op p50/p95/p99 latency, the cache hit ratio and
  queue depth.  --iterations N stops after N frames (0 = forever); --plain
  appends frames without clearing the screen (for logs and CI).

The estimate report includes `pages read`: with `--sampler block` this is
round(fraction x pages) physical page reads, while row samplers pay roughly
one page read per sampled row — the I/O gap the paper's Section II-C is
about.";

/// A `--flag value` argument list.
struct Args {
    argv: Vec<String>,
}

impl Args {
    fn new(argv: Vec<String>) -> Self {
        Args { argv }
    }

    /// Remove and return the value of `--name`, if present.
    fn opt(&mut self, name: &str) -> Result<Option<String>, String> {
        let flag = format!("--{name}");
        if let Some(i) = self.argv.iter().position(|a| *a == flag) {
            if i + 1 >= self.argv.len() {
                return Err(format!("flag {flag} expects a value"));
            }
            let value = self.argv.remove(i + 1);
            self.argv.remove(i);
            return Ok(Some(value));
        }
        Ok(None)
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.opt(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid value {raw:?} for --{name}: {e}")),
        }
    }

    /// Remove a bare `--name` flag (no value), returning whether it was set.
    fn flag(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        if let Some(i) = self.argv.iter().position(|a| *a == flag) {
            self.argv.remove(i);
            true
        } else {
            false
        }
    }

    fn require(&mut self, name: &str) -> Result<String, String> {
        self.opt(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// Error out if any argument was not consumed.
    fn finish(self) -> Result<(), String> {
        if let Some(extra) = self.argv.first() {
            return Err(format!("unrecognised argument {extra:?} (see --help)"));
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let command = argv.remove(0);
    let args = Args::new(argv);
    let result = match command.as_str() {
        "gen" => cmd_gen(args),
        "estimate" => cmd_estimate(args),
        "exact" => cmd_exact(args),
        "advise" => cmd_advise(args),
        "info" => cmd_info(args),
        "client" => cmd_client(args),
        "top" => cmd_top(args),
        other => Err(format!("unknown subcommand {other:?} (see --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("samplecf {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_gen(mut args: Args) -> Result<(), String> {
    let out = args.require("out")?;
    let rows: usize = args.parse("rows", 100_000)?;
    let distinct: usize = args.parse("distinct", 1_000)?;
    let width: u16 = args.parse("width", 24)?;
    let len_min: usize = args.parse("len-min", 4)?;
    let len_max: usize = args.parse("len-max", 20)?;
    let page_size: usize = args.parse("page-size", 8192)?;
    let name: String = args.parse("name", "t".to_string())?;
    let seed: u64 = args.parse("seed", 42)?;
    args.finish()?;
    if len_max > usize::from(width) {
        return Err(format!(
            "--len-max {len_max} exceeds the declared --width {width}"
        ));
    }
    if len_min > len_max {
        return Err(format!("--len-min {len_min} exceeds --len-max {len_max}"));
    }

    let started = Instant::now();
    let spec = if len_min == len_max {
        presets::single_char_table(&name, rows, width, distinct, len_min, seed)
    } else {
        presets::variable_length_table(&name, rows, width, distinct, len_min, len_max, seed)
    }
    .page_size(page_size);
    let generated = spec.generate().map_err(|e| e.to_string())?;
    let disk = DiskTable::materialize(&out, &generated.table).map_err(|e| e.to_string())?;
    let stats = generated.stats_for("a").map_err(|e| e.to_string())?;

    println!("wrote          {out}");
    println!("table          {name}");
    println!("rows           {}", disk.num_rows());
    println!("distinct (d)   {}", stats.distinct_values);
    println!("pages          {}", disk.num_pages());
    println!("page size      {} B", disk.page_size());
    println!("file size      {} B", disk.file_len());
    println!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn parse_sampler(
    name: &str,
    fraction: f64,
    size: usize,
    strata: usize,
    alloc: &str,
    strata_mode: &str,
) -> Result<SamplerKind, String> {
    Ok(match name {
        "uniform" | "uniform-wr" => SamplerKind::UniformWithReplacement(fraction),
        "uniform-wor" => SamplerKind::UniformWithoutReplacement(fraction),
        "bernoulli" => SamplerKind::Bernoulli(fraction),
        "systematic" => SamplerKind::Systematic(fraction),
        "reservoir" => SamplerKind::Reservoir(size),
        "block" => SamplerKind::Block(fraction),
        "stratified" => SamplerKind::Stratified {
            fraction,
            strata,
            alloc: samplecf_sampling::Allocation::by_name(alloc)?,
            mode: samplecf_sampling::StrataMode::by_name(strata_mode)?,
        },
        other => {
            return Err(format!(
                "unknown sampler {other:?} (block, uniform, uniform-wor, bernoulli, systematic, reservoir, stratified)"
            ))
        }
    })
}

fn open_table(path: &str) -> Result<DiskTable, String> {
    DiskTable::open(path).map_err(|e| format!("cannot open {path}: {e}"))
}

fn index_spec(args: &mut Args, table: &DiskTable) -> Result<IndexSpec, String> {
    let columns = match args.opt("column")? {
        Some(raw) => raw.split(',').map(str::to_string).collect(),
        None => vec![table.schema().columns()[0].name.clone()],
    };
    IndexSpec::nonclustered("idx", columns).map_err(|e| e.to_string())
}

/// Render an `Option<f64>` as JSON (null when absent or non-finite — JSON
/// has no token for an infinite CI bound, e.g. at `--confidence 1.0`).
fn json_opt(v: Option<f64>) -> String {
    v.filter(|x| x.is_finite())
        .map_or("null".to_string(), |x| format!("{x:.6}"))
}

/// The identifying fields shared by every estimate JSON report.
struct ReportContext<'a> {
    table: &'a str,
    path: &'a str,
    scheme: &'a str,
    sampler: &'a str,
    seed: u64,
}

impl ReportContext<'_> {
    /// The opening JSON fields common to both report shapes.
    fn json_header(&self) -> String {
        format!(
            "{{\n  \"table\": \"{}\",\n  \"file\": \"{}\",\n  \"sampler\": \"{}\",\n  \
             \"scheme\": \"{}\",\n  \"seed\": {},\n",
            json_escape(self.table),
            json_escape(self.path),
            json_escape(self.sampler),
            json_escape(self.scheme),
            self.seed,
        )
    }
}

fn progressive_to_json(ctx: &ReportContext<'_>, report: &ProgressiveReport) -> String {
    let mut s = ctx.json_header();
    s.push_str(&format!("  \"target_error\": {},\n", report.target_error));
    s.push_str(&format!("  \"confidence\": {},\n", report.confidence));
    s.push_str(&format!("  \"cf\": {:.6},\n", report.measurement.cf));
    let (lo, hi) = report
        .ci()
        .map_or((None, None), |(a, b)| (Some(a), Some(b)));
    s.push_str(&format!("  \"ci_low\": {},\n", json_opt(lo)));
    s.push_str(&format!("  \"ci_high\": {},\n", json_opt(hi)));
    s.push_str(&format!("  \"rows\": {},\n", report.measurement.data.rows));
    s.push_str(&format!("  \"source_rows\": {},\n", report.source_rows));
    s.push_str(&format!("  \"stopped_early\": {},\n", report.stopped_early));
    s.push_str(&format!("  \"target_met\": {},\n", report.target_met));
    s.push_str(&format!("  \"pages_read\": {},\n", report.pages_read));
    s.push_str(&format!("  \"source_pages\": {},\n", report.source_pages));
    s.push_str("  \"checkpoints\": [\n");
    for (i, c) in report.checkpoints.iter().enumerate() {
        let variance_source = c
            .variance_source
            .map_or("null".to_string(), |v| format!("\"{v}\""));
        let strata_rows = c.strata_rows.as_ref().map_or("null".to_string(), |rows| {
            let inner: Vec<String> = rows.iter().map(ToString::to_string).collect();
            format!("[{}]", inner.join(", "))
        });
        s.push_str(&format!(
            "    {{\"batch\": {}, \"rows\": {}, \"fraction\": {:.6}, \"cf\": {:.6}, \
             \"std_error\": {}, \"half_width\": {}, \"ci_low\": {}, \"ci_high\": {}, \
             \"pages_read\": {}, \"variance_source\": {}, \"strata_rows\": {}}}{}\n",
            c.batch,
            c.rows,
            c.fraction,
            c.cf,
            json_opt(c.std_error),
            json_opt(c.half_width),
            json_opt(c.ci_low),
            json_opt(c.ci_high),
            c.pages_read,
            variance_source,
            strata_rows,
            if i + 1 < report.checkpoints.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}");
    s
}

fn estimate_to_json(
    ctx: &ReportContext<'_>,
    est: &CfMeasurement,
    pages_read: u64,
    num_pages: usize,
) -> String {
    let mut s = ctx.json_header();
    s.push_str(&format!("  \"cf\": {:.6},\n", est.cf));
    s.push_str(&format!(
        "  \"cf_with_pointers\": {:.6},\n",
        est.cf_with_pointers
    ));
    s.push_str(&format!("  \"cf_pages\": {:.6},\n", est.cf_pages));
    s.push_str(&format!("  \"rows\": {},\n", est.data.rows));
    s.push_str(&format!(
        "  \"distinct_first_key\": {},\n",
        est.data.distinct_first_key
    ));
    s.push_str(&format!("  \"pages_read\": {pages_read},\n"));
    s.push_str(&format!("  \"source_pages\": {num_pages}\n"));
    s.push('}');
    s
}

fn cmd_estimate(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let sampler_name: String = args.parse("sampler", "uniform".to_string())?;
    let fraction: f64 = args.parse("fraction", 0.01)?;
    let size: usize = args.parse("size", 1_000)?;
    let strata: usize = args.parse("strata", 8)?;
    let alloc: String = args.parse("alloc", "prop".to_string())?;
    let strata_mode: String = args.parse("strata-mode", "equi-width".to_string())?;
    let scheme_name: String = args.parse("scheme", "null-suppression".to_string())?;
    let trials: usize = args.parse("trials", 1)?;
    let threads: usize = args.parse("threads", 0)?;
    let seed: u64 = args.parse("seed", 0)?;
    let target_error: Option<f64> = args
        .opt("target-error")?
        .map(|v| v.parse())
        .transpose()
        .map_err(|e| format!("invalid value for --target-error: {e}"))?;
    let confidence: f64 = args.parse("confidence", 0.95)?;
    let max_fraction: f64 = args.parse("max-fraction", fraction)?;
    let initial_fraction: f64 = args.parse("initial-fraction", 0.01)?;
    let growth: f64 = args.parse("growth", 2.0)?;
    let json = args.flag("json");
    let table = open_table(&path)?;
    let spec = index_spec(&mut args, &table)?;
    args.finish()?;

    let scheme = scheme_by_name(&scheme_name).map_err(|e| e.to_string())?;
    let counting = CountingSource::new(&table);
    let num_pages = table.num_pages();
    let table_name = TableSource::name(&table).to_string();

    // The shared table/sampler/scheme/seed header of every text report.
    let print_header = |sampler_label: &str| {
        println!("table          {table_name} ({path})");
        println!("rows           {} on {num_pages} pages", table.num_rows());
        println!("sampler        {sampler_label}");
        println!("scheme         {}", scheme.name());
        println!("index key      {}", spec.key_columns().join(", "));
        println!("seed           {seed}");
    };

    if let Some(target) = target_error {
        // Progressive mode: stream batches, measure at checkpoints, stop at
        // the error target or the fraction cap.
        if trials > 1 {
            return Err(
                "--trials conflicts with --target-error: a progressive run is a single \
                 adaptive estimate (drop one of the two flags)"
                    .to_string(),
            );
        }
        let sampler = parse_sampler(
            &sampler_name,
            max_fraction,
            size,
            strata,
            &alloc,
            &strata_mode,
        )?;
        let schedule = BatchSchedule::new(initial_fraction, growth).map_err(|e| e.to_string())?;
        let config = ProgressiveConfig {
            target_error: target,
            confidence,
            schedule,
        };
        let report = ProgressiveCf::new(sampler, config)
            .seed(seed)
            .threads(threads)
            .run(&counting, &spec, scheme.as_ref())
            .map_err(|e| e.to_string())?;
        if json {
            let ctx = ReportContext {
                table: &table_name,
                path: &path,
                scheme: scheme.name(),
                sampler: &sampler.label(),
                seed,
            };
            println!("{}", progressive_to_json(&ctx, &report));
            return Ok(());
        }
        print_header(&format!("{} (progressive)", sampler.label()));
        println!(
            "target         half-width <= {:.1}% of CF at {:.0}% confidence",
            100.0 * target,
            100.0 * confidence
        );
        println!();
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>11} {:>11} {:>7}",
            "batch", "rows", "f", "CF", "ci_low", "ci_high", "pages"
        );
        for c in &report.checkpoints {
            println!(
                "{:>5} {:>9} {:>9.4} {:>9.4} {:>11} {:>11} {:>7}",
                c.batch,
                c.rows,
                c.fraction,
                c.cf,
                c.ci_low.map_or("—".to_string(), |v| format!("{v:.4}")),
                c.ci_high.map_or("—".to_string(), |v| format!("{v:.4}")),
                c.pages_read,
            );
        }
        println!();
        println!("estimated CF   {:.4}", report.measurement.cf);
        if let Some((lo, hi)) = report.ci() {
            println!(
                "  95%-style CI [{lo:.4}, {hi:.4}] (Chebyshev at {:.0}%)",
                100.0 * confidence
            );
        }
        println!(
            "stopped        {} ({})",
            if report.stopped_early {
                "early"
            } else {
                "at the fraction cap"
            },
            if report.target_met {
                "target met"
            } else {
                "target not met"
            }
        );
        println!(
            "pages read     {} of {num_pages} ({:.1}%; fixed f = {max_fraction} would read up to {})",
            report.pages_read,
            100.0 * report.pages_read as f64 / num_pages.max(1) as f64,
            (num_pages as f64 * max_fraction).round() as u64
        );
        println!(
            "elapsed        {:.3} s",
            report.measurement.elapsed.as_secs_f64()
        );
        return Ok(());
    }

    let sampler = parse_sampler(&sampler_name, fraction, size, strata, &alloc, &strata_mode)?;
    let started = Instant::now();
    if trials <= 1 {
        let est = SampleCf::new(sampler)
            .seed(seed)
            .threads(threads)
            .estimate(&counting, &spec, scheme.as_ref())
            .map_err(|e| e.to_string())?;
        if json {
            println!(
                "{}",
                estimate_to_json(
                    &ReportContext {
                        table: &table_name,
                        path: &path,
                        scheme: scheme.name(),
                        sampler: &sampler.label(),
                        seed,
                    },
                    &est,
                    counting.pages_read(),
                    num_pages,
                )
            );
            return Ok(());
        }
        print_header(&sampler.label());
        println!(
            "sampled rows   {} (d' = {})",
            est.data.rows, est.data.distinct_first_key
        );
        println!("estimated CF   {:.4}", est.cf);
        println!("  with ptrs    {:.4}", est.cf_with_pointers);
        println!("  page-level   {:.4}", est.cf_pages);
    } else {
        if json {
            return Err(
                "--json supports single runs (drop --trials or use --target-error)".to_string(),
            );
        }
        print_header(&sampler.label());
        let estimates = TrialRunner::new(TrialConfig::new(trials).base_seed(seed).threads(threads))
            .run_estimates(&counting, &spec, scheme.as_ref(), sampler)
            .map_err(|e| e.to_string())?;
        let stats = SummaryStats::from_values(&estimates)
            .ok_or_else(|| "no estimates produced".to_string())?;
        println!("trials         {trials}");
        println!("estimated CF   {:.4} (mean)", stats.mean);
        println!("  std dev      {:.4}", stats.std_dev);
        println!("  min / max    {:.4} / {:.4}", stats.min, stats.max);
    }
    let pages_read = counting.pages_read();
    let per_trial = pages_read as f64 / trials.max(1) as f64;
    println!(
        "pages read     {pages_read} of {num_pages} ({:.1}% per trial)",
        100.0 * per_trial / num_pages.max(1) as f64
    );
    println!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
    Ok(())
}

fn cmd_exact(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let scheme_name: String = args.parse("scheme", "null-suppression".to_string())?;
    let table = open_table(&path)?;
    let spec = index_spec(&mut args, &table)?;
    args.finish()?;

    let scheme = scheme_by_name(&scheme_name).map_err(|e| e.to_string())?;
    let counting = CountingSource::new(&table);
    let started = Instant::now();
    let exact = ExactCf::new()
        .compute(&counting, &spec, scheme.as_ref())
        .map_err(|e| e.to_string())?;

    println!("table          {} ({path})", TableSource::name(&table));
    println!(
        "rows           {} (d = {})",
        exact.data.rows, exact.data.distinct_first_key
    );
    println!("scheme         {}", scheme.name());
    println!("index key      {}", spec.key_columns().join(", "));
    println!("exact CF       {:.4}", exact.cf);
    println!("  with ptrs    {:.4}", exact.cf_with_pointers);
    println!("  page-level   {:.4}", exact.cf_pages);
    println!(
        "pages read     {} of {}",
        counting.pages_read(),
        table.num_pages()
    );
    println!("elapsed        {:.3} s", started.elapsed().as_secs_f64());
    Ok(())
}

/// One parsed candidate line: index name, key columns, scheme, kind.
struct CandidateSpec {
    spec: IndexSpec,
    scheme: Box<dyn CompressionScheme>,
}

/// Parse a candidate spec file: `<name> <col[,col...]> <scheme> [clustered]`
/// per line, `#` comments and blank lines ignored.
fn parse_candidates_file(path: &str) -> Result<Vec<CandidateSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if !(3..=4).contains(&fields.len()) {
            return Err(format!(
                "{path}:{}: expected `<name> <cols> <scheme> [clustered]`, got {line:?}",
                lineno + 1
            ));
        }
        let columns: Vec<String> = fields[1].split(',').map(str::to_string).collect();
        let clustered = match fields.get(3) {
            None => false,
            Some(&"clustered") => true,
            Some(other) => {
                return Err(format!(
                    "{path}:{}: unknown modifier {other:?} (only `clustered`)",
                    lineno + 1
                ))
            }
        };
        let spec = if clustered {
            IndexSpec::clustered(fields[0], columns)
        } else {
            IndexSpec::nonclustered(fields[0], columns)
        }
        .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let scheme =
            scheme_by_name(fields[2]).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        out.push(CandidateSpec { spec, scheme });
    }
    if out.is_empty() {
        return Err(format!("{path}: no candidates found"));
    }
    Ok(out)
}

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn plan_to_json(table: &str, path: &str, plan: &AdvisorPlan) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"table\": \"{}\",\n", json_escape(table)));
    s.push_str(&format!("  \"file\": \"{}\",\n", json_escape(path)));
    s.push_str(&format!(
        "  \"budget_bytes\": {},\n",
        plan.budget_bytes
            .map_or("null".to_string(), |b| b.to_string())
    ));
    s.push_str(&format!("  \"fits_budget\": {},\n", plan.fits_budget()));
    s.push_str(&format!(
        "  \"total_uncompressed_bytes\": {},\n",
        plan.total_uncompressed_bytes()
    ));
    s.push_str(&format!(
        "  \"total_chosen_bytes\": {},\n",
        plan.total_chosen_bytes()
    ));
    s.push_str(&format!("  \"samples_drawn\": {},\n", plan.samples_drawn()));
    s.push_str(&format!("  \"pages_read\": {},\n", plan.pages_read()));
    s.push_str(&format!(
        "  \"naive_pages_read\": {},\n",
        plan.naive_pages_read()
    ));
    s.push_str(&format!(
        "  \"elapsed_seconds\": {:.6},\n",
        plan.elapsed.as_secs_f64()
    ));
    s.push_str("  \"groups\": [\n");
    for (i, g) in plan.groups.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"table\": \"{}\", \"sampler\": \"{}\", \"seed\": {}, \"candidates\": {}, \
             \"sample_rows\": {}, \"pages_read\": {}}}{}\n",
            json_escape(&g.table),
            json_escape(&g.sampler),
            g.seed,
            g.candidates,
            g.sample_rows,
            g.pages_read,
            if i + 1 < plan.groups.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"recommendations\": [\n");
    for (i, r) in plan.recommendations.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"index\": \"{}\", \"scheme\": \"{}\", \"uncompressed_bytes\": {}, \
             \"estimated_compressed_bytes\": {}, \"estimated_cf\": {:.6}, \
             \"sample_rows\": {}, \"group\": {}, \"compress\": {}}}{}\n",
            json_escape(&r.index),
            json_escape(&r.scheme),
            r.uncompressed_bytes,
            r.estimated_compressed_bytes,
            r.estimated_cf,
            r.sample_rows,
            r.group,
            r.compress,
            if i + 1 < plan.recommendations.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}");
    s
}

fn cmd_advise(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let candidates_path = args.opt("candidates")?;
    let sampler_name: String = args.parse("sampler", "block".to_string())?;
    let fraction: f64 = args.parse("fraction", 0.01)?;
    let size: usize = args.parse("size", 1_000)?;
    let strata: usize = args.parse("strata", 8)?;
    let alloc: String = args.parse("alloc", "prop".to_string())?;
    let strata_mode: String = args.parse("strata-mode", "equi-width".to_string())?;
    let seed: u64 = args.parse("seed", 0)?;
    let min_saving: f64 = args.parse("min-saving", 0.1)?;
    let budget: Option<usize> = args
        .opt("budget")?
        .map(|b| {
            b.parse::<usize>()
                .map_err(|e| format!("invalid value {b:?} for --budget: {e}"))
        })
        .transpose()?;
    let threads: usize = args.parse("threads", 0)?;
    let json = args.flag("json");
    let table = open_table(&path)?;

    let candidate_specs: Vec<CandidateSpec> = match candidates_path {
        Some(file) => {
            args.finish()?;
            parse_candidates_file(&file)?
        }
        None => {
            let scheme_name: String = args.parse("scheme", "null-suppression".to_string())?;
            let spec = index_spec(&mut args, &table)?;
            args.finish()?;
            vec![CandidateSpec {
                spec,
                scheme: scheme_by_name(&scheme_name).map_err(|e| e.to_string())?,
            }]
        }
    };

    let sampler = parse_sampler(&sampler_name, fraction, size, strata, &alloc, &strata_mode)?;
    let advisor = CompressionAdvisor::new(AdvisorConfig {
        sampler,
        seed,
        min_saving_fraction: min_saving,
        budget_bytes: budget,
        threads,
    })
    .map_err(|e| e.to_string())?;

    let table_name = TableSource::name(&table).to_string();
    let num_rows = table.num_rows();
    let num_pages = table.num_pages();
    let shared = table.into_shared();
    let candidates: Vec<Candidate<'_>> = candidate_specs
        .iter()
        .map(|c| Candidate::new(&shared, &c.spec, c.scheme.as_ref()))
        .collect();
    let plan = advisor.plan(&candidates).map_err(|e| e.to_string())?;
    if json {
        println!("{}", plan_to_json(&table_name, &path, &plan));
        return Ok(());
    }

    println!("table          {table_name} ({path})");
    println!("rows           {num_rows} on {num_pages} pages");
    println!("sampler        {}", sampler.label());
    println!("candidates     {}", plan.recommendations.len());
    println!();
    println!(
        "{:<20} {:<18} {:>14} {:>16} {:>8} {:>10}",
        "index", "scheme", "uncompressed", "est. compressed", "CF", "compress?"
    );
    for r in &plan.recommendations {
        println!(
            "{:<20} {:<18} {:>14} {:>16} {:>8.4} {:>10}",
            r.index,
            r.scheme,
            r.uncompressed_bytes,
            r.estimated_compressed_bytes,
            r.estimated_cf,
            if r.compress { "yes" } else { "no" }
        );
    }
    println!();
    println!(
        "total          {} B uncompressed -> {} B chosen{}",
        plan.total_uncompressed_bytes(),
        plan.total_chosen_bytes(),
        plan.budget_bytes.map_or(String::new(), |b| format!(
            " (budget {b} B, fits: {})",
            if plan.fits_budget() { "yes" } else { "no" }
        ))
    );
    println!(
        "samples drawn  {} ({} rows total)",
        plan.samples_drawn(),
        plan.groups.iter().map(|g| g.sample_rows).sum::<usize>()
    );
    println!(
        "pages read     {} of {num_pages} (naive re-sample-per-candidate: {})",
        plan.pages_read(),
        plan.naive_pages_read()
    );
    println!("elapsed        {:.3} s", plan.elapsed.as_secs_f64());
    Ok(())
}

fn cmd_client(mut args: Args) -> Result<(), String> {
    let raw = args.flag("raw");
    // Positional arguments: the daemon address, then the request.
    if args.argv.len() != 2 {
        return Err(format!(
            "expected `client ADDR REQUEST`, got {} argument(s) (see --help)",
            args.argv.len()
        ));
    }
    let request = args.argv.pop().expect("length checked");
    let addr = args.argv.pop().expect("length checked");

    let request = if request == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("cannot read request from stdin: {e}"))?;
        buffer
    } else {
        request
    };
    // Validate locally so a typo fails fast with a position, not a server
    // round trip — and so the line sent is guaranteed newline-free.
    let request = Json::parse(request.trim())
        .map_err(|e| format!("request is not valid JSON: {e}"))?
        .to_line();

    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read reply: {e}"))?;
    if reply.trim().is_empty() {
        return Err("connection closed without a reply".to_string());
    }
    let parsed = Json::parse(reply.trim()).map_err(|e| format!("server sent invalid JSON: {e}"))?;
    if raw {
        println!("{}", reply.trim());
    } else {
        println!("{}", parsed.pretty());
    }
    match parsed.get("ok").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err("server reported an error (see reply above)".to_string()),
    }
}

/// One round trip: send `{"op":"stats"}`, return the `stats` object.
fn fetch_stats(addr: &str) -> Result<Json, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .write_all(b"{\"op\":\"stats\"}\n")
        .map_err(|e| format!("cannot send stats request: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read stats reply: {e}"))?;
    let parsed = Json::parse(reply.trim()).map_err(|e| format!("server sent invalid JSON: {e}"))?;
    if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("server reported an error: {}", reply.trim()));
    }
    parsed
        .get("stats")
        .cloned()
        .ok_or_else(|| "stats reply has no \"stats\" object".to_string())
}

fn top_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        match node.get(key) {
            Some(next) => node = next,
            None => return 0,
        }
    }
    node.as_u64().unwrap_or(0)
}

fn cmd_top(mut args: Args) -> Result<(), String> {
    let plain = args.flag("plain");
    let interval_ms: u64 = args.parse("interval-ms", 1_000)?;
    let iterations: u64 = args.parse("iterations", 0)?;
    if args.argv.len() != 1 {
        return Err(format!(
            "expected `top ADDR`, got {} argument(s) (see --help)",
            args.argv.len()
        ));
    }
    let addr = args.argv.pop().expect("length checked");

    // (uptime, total requests) of the previous frame, for the rate.
    let mut previous: Option<(f64, u64)> = None;
    let mut frame = 0u64;
    loop {
        let stats = fetch_stats(&addr)?;
        let uptime = stats
            .get("uptime_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let total = top_u64(&stats, &["requests", "total"]);
        let rps = match previous {
            Some((prev_uptime, prev_total)) if uptime > prev_uptime => {
                (total.saturating_sub(prev_total)) as f64 / (uptime - prev_uptime)
            }
            _ => 0.0,
        };
        previous = Some((uptime, total));

        if !plain {
            // Clear the screen and home the cursor, terminal-agnostic.
            print!("\x1b[2J\x1b[H");
        }
        println!("samplecf top — {addr}   uptime {uptime:.1}s");
        let tables = stats
            .get("tables")
            .and_then(Json::as_array)
            .map_or(0, <[Json]>::len);
        println!(
            "requests  {total} total   {rps:7.1} req/s   errors {}   tables {tables}",
            top_u64(&stats, &["errors"]),
        );

        let hits = top_u64(&stats, &["cache", "hits"]);
        let misses = top_u64(&stats, &["cache", "misses"]);
        let lookups = hits + misses;
        let hit_ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64 * 100.0
        };
        println!(
            "cache     {hit_ratio:5.1}% hit ({hits}/{lookups})   {} B in {} entries   {} evictions",
            top_u64(&stats, &["cache", "bytes"]),
            top_u64(&stats, &["cache", "entries"]),
            top_u64(&stats, &["cache", "evictions"]),
        );
        println!(
            "queue     depth {} (max {} / cap {})   conns {} open / {} accepted / {} busy-rejected",
            top_u64(&stats, &["server", "queue_depth"]),
            top_u64(&stats, &["server", "queue_depth_max"]),
            top_u64(&stats, &["server", "queue_capacity"]),
            top_u64(&stats, &["server", "open_connections"]),
            top_u64(&stats, &["server", "connections_accepted"]),
            top_u64(&stats, &["server", "busy_rejections"]),
        );

        println!("latency             count      p50      p95      p99");
        if let Some(Json::Obj(kinds)) = stats.get("latency") {
            for (op, quantiles) in kinds {
                let ms = |key: &str| top_u64(quantiles, &[key]) as f64 / 1e6;
                println!(
                    "  {op:<18}{count:>6}{p50:>8.2}ms{p95:>8.2}ms{p99:>8.2}ms",
                    count = top_u64(quantiles, &["count"]),
                    p50 = ms("p50_ns"),
                    p95 = ms("p95_ns"),
                    p99 = ms("p99_ns"),
                );
            }
        }
        if plain {
            println!();
        }

        frame += 1;
        if iterations > 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

fn cmd_info(mut args: Args) -> Result<(), String> {
    let path = args.require("table")?;
    let json = args.flag("json");
    args.finish()?;
    let table = open_table(&path)?;
    if json {
        // The exact table-metadata shape samplecfd's `info` endpoint
        // returns, so local files and cataloged tables read the same.
        println!("{}", table_info_json(&table, &path).pretty());
        return Ok(());
    }
    println!("file           {path}");
    println!(
        "format         SCF1 v{}",
        samplecf_storage::disk::FORMAT_VERSION
    );
    println!("table          {}", TableSource::name(&table));
    println!("rows           {}", table.num_rows());
    println!("pages          {}", table.num_pages());
    println!("page size      {} B", table.page_size());
    println!("rows per page  {}", table.rows_per_page());
    println!("file size      {} B", table.file_len());
    println!("schema:");
    for col in table.schema().columns() {
        println!("  {col}");
    }
    Ok(())
}
