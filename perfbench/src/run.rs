//! The three workloads, untraced and traced.

use crate::client::{self, Conn, Daemon, Done};
use crate::ladder::{Ladder, RungResult};
use crate::mix::{Family, Group, Request, NS};
use crate::oneshot;
use crate::serve::{self, RepeatMix, Replay};
use crate::stats::{median, min_samples_for_tail, percentile, tail_at};
use crate::trace::{self, Span, Tracer};
use crate::{Args, Metric, Report};
use samplecf_core::theory::{chebyshev_z, ns_stddev_bound_for_sample};
use samplecf_server::Json;
use samplecf_storage::DiskTable;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fixed tail percentile of each workload (each run checks that at least
/// ten samples lie beyond it).
const ONESHOT_TAIL: f64 = 0.75;
const REPEAT_TAIL: f64 = 0.8;
const CHURN_TAIL: f64 = 0.85;

/// `serve-repeat`'s ladder.  Rung 0 is the fixed offered rate at which
/// `p50_ms` and `tail_ms` are taken; it runs longer than the other rungs.
const REPEAT_LADDER: Ladder = Ladder {
    base_rps: 2.0,
    factor: 2.0,
    rungs: 10,
    requests_per_rung: 20,
    slo_ms: 1000.0,
};

/// Share of `--seconds` the daemon workloads spend on daemon traffic.  The
/// rest runs the one-shot cycle in slices, one after each daemon stops;
/// those calls give the daemon workloads' per-family latencies.
const DAEMON_SHARE: f64 = 0.7;

/// The open-loop generator's p99 lateness above which a run is invalid.
const LATE_P99_BOUND_MS: f64 = 25.0;

/// Requests replayed in-process by a traced daemon run.
const REPEAT_REPLAY_REQUESTS: usize = 12;
const CHURN_REPLAY_UNITS: usize = serve::CHURN_CYCLE;

/// Theorem 1 check: a null-suppression estimate on `r` rows lies within
/// `z·σ` of the exact CF, `σ ≤ 1/(2√r)`, `z` the Chebyshev multiplier at
/// 99% confidence.
fn theorem1_holds(estimate: f64, exact: f64, rows: usize) -> bool {
    (estimate - exact).abs() <= chebyshev_z(0.99) * ns_stddev_bound_for_sample(rows)
}

fn block_pages(fraction: f64, pages: usize) -> u64 {
    (fraction * pages as f64).round() as u64
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The generated table file of a run.
struct TableFile {
    path: PathBuf,
    rows: u64,
    pages: u64,
    bytes: u64,
}

impl TableFile {
    fn context(&self) -> Json {
        Json::obj()
            .field("rows", Json::uint(self.rows))
            .field("pages", Json::uint(self.pages))
            .field("bytes", Json::uint(self.bytes))
            .field("distinct", Json::uint(crate::mix::TABLE_DISTINCT as u64))
            .field(
                "page_cache",
                Json::str("warm: written and read back in full during set-up"),
            )
    }

    fn path_str(&self) -> String {
        self.path.to_string_lossy().into_owned()
    }
}

/// Generate the seed's table in a child process (so table generation never
/// counts toward the measured process's memory), then read it back once so
/// the OS page cache is warm.
fn make_table(args: &Args) -> Result<TableFile, String> {
    let path = args
        .out
        .join(format!("table-{}-{}.scf", args.workload, args.seed));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["gen", "--out", &path.to_string_lossy(), "--seed"])
        .arg(args.seed.to_string())
        .output()
        .map_err(|e| format!("table generation: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "table generation failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<u64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let [rows, pages, bytes] = fields[..] else {
        return Err(format!("unexpected gen output {text:?}"));
    };
    let mut file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
    let mut buf = vec![0u8; 1 << 20];
    while file.read(&mut buf).map_err(|e| e.to_string())? > 0 {}
    let path = std::fs::canonicalize(&path).map_err(|e| e.to_string())?;
    Ok(TableFile {
        path,
        rows,
        pages,
        bytes,
    })
}

/// A daemon workload's `rss_peak_mb`: the mean of its daemons' peaks.  A
/// daemon's peak depends on whether two misses happen to hold their draws
/// at once, so it moves from one process to the next (0.47 to 0.89 GB
/// across the daemons of six runs); the mean of three moves less than their
/// median.
fn mean_peak(peaks: &[f64]) -> f64 {
    peaks.iter().sum::<f64>() / peaks.len().max(1) as f64
}

fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

fn end_to_end(
    setups: &[f64],
    latencies: &[f64],
    tail_p: f64,
    ops_per_s: f64,
    rss_mb: f64,
    family_ms: [f64; 4],
) -> Result<Vec<Metric>, String> {
    let tail = tail_at(latencies, tail_p).ok_or_else(|| {
        format!(
            "{} samples are too few for a p{} tail",
            latencies.len(),
            tail_p * 100.0
        )
    })?;
    Ok(vec![
        ("setup_s", median_or_zero(setups), "s"),
        ("p50_ms", median_or_zero(latencies), "ms"),
        ("tail_ms", tail, "ms"),
        ("ops_per_s", ops_per_s, "1/s"),
        ("rss_peak_mb", rss_mb, "MiB"),
        ("uniform_ms", family_ms[0], "ms"),
        ("block_ms", family_ms[1], "ms"),
        ("stratified_ms", family_ms[2], "ms"),
        ("exact_ms", family_ms[3], "ms"),
    ])
}

fn tail_context(tail_p: f64, samples: usize) -> Json {
    Json::obj()
        .field("percentile", Json::Num(tail_p * 100.0))
        .field("samples", Json::uint(samples as u64))
}

// ---------------------------------------------------------------- oneshot

pub fn oneshot(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut table = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let t = make_table(args)?;
        DiskTable::open(&t.path).map_err(|e| e.to_string())?;
        setups.push(start.elapsed().as_secs_f64());
        table = Some(t);
    }
    let table = table.expect("at least one set-up ran");
    let rss = serve::RssPeak::start(std::process::id());

    let mut report = Report::default();
    let mut cycles = 0;
    let start = Instant::now();
    let outcomes = one_shot_cycles(
        &table.path,
        args.seed,
        &mut cycles,
        args.seconds,
        min_samples_for_tail(ONESHOT_TAIL),
        &mut report,
    );
    let wall = start.elapsed().as_secs_f64();
    let rss = rss.finish();
    let exact = check_one_shot(&outcomes, &table, &mut report.problems);

    let latencies: Vec<f64> = outcomes.iter().map(|o| o.ms).collect();
    let ops_per_s = outcomes.len() as f64 / wall;
    report.metrics = end_to_end(
        &setups,
        &latencies,
        ONESHOT_TAIL,
        ops_per_s,
        rss,
        family_ms(&outcomes),
    )?;
    report.context = vec![
        ("table", table.context()),
        ("tail", tail_context(ONESHOT_TAIL, latencies.len())),
        ("cycles", Json::uint(cycles as u64)),
        ("loop", Json::str("closed, one caller")),
        ("exact_ns_cf", exact.map_or(Json::Null, Json::Num)),
    ];
    let _ = std::fs::remove_file(&table.path);
    Ok(report)
}

/// One-shot calls, whole cycles from `*next_cycle` on, until `seconds` have
/// passed and at least `min_calls` were made.  Failed calls count in
/// `report`.
fn one_shot_cycles(
    path: &Path,
    seed: u64,
    next_cycle: &mut usize,
    seconds: f64,
    min_calls: usize,
    report: &mut Report,
) -> Vec<oneshot::Outcome> {
    let mut outcomes = Vec::new();
    let mut calls = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || calls < min_calls {
        for op in oneshot::cycle(seed, *next_cycle) {
            calls += 1;
            report.attempted += 1;
            match oneshot::run(path, op) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(format!("{op:?} failed: {e}"));
                }
            }
        }
        *next_cycle += 1;
    }
    outcomes
}

/// Checks over one-shot calls: block reads round(f·N) pages, and
/// null-suppression estimates sit within the Theorem 1 bound of the exact
/// CF.  Returns that exact null-suppression CF.
fn check_one_shot(
    outcomes: &[oneshot::Outcome],
    table: &TableFile,
    problems: &mut Vec<String>,
) -> Option<f64> {
    let exact = outcomes
        .iter()
        .find(|o| o.op.family.is_none() && o.op.scheme == NS)
        .map(|o| o.cf);
    if exact.is_none() {
        problems.push("no exact null-suppression CF was computed".to_string());
    }
    for o in outcomes {
        let Some(family) = o.op.family else { continue };
        let want = block_pages(o.op.fraction, table.pages as usize);
        if family == Family::Block && o.pages_read != want {
            problems.push(format!(
                "block estimate read {} pages, expected {want}",
                o.pages_read
            ));
        }
        if let (NS, Some(exact)) = (o.op.scheme, exact) {
            if !theorem1_holds(o.cf, exact, o.sample_rows) {
                problems.push(format!(
                    "{} NS estimate {} is outside the Theorem 1 bound of exact {exact}",
                    family.name(),
                    o.cf
                ));
            }
        }
    }
    exact
}

/// Median call latency of each family — uniform, block, stratified — and
/// of `exact`.
fn family_ms(outcomes: &[oneshot::Outcome]) -> [f64; 4] {
    [
        Some(Family::Uniform),
        Some(Family::Block),
        Some(Family::Stratified),
        None,
    ]
    .map(|family| {
        let v: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.op.family == family)
            .map(|o| o.ms)
            .collect();
        median_or_zero(&v)
    })
}

pub fn oneshot_traced(args: &Args) -> Result<Report, String> {
    let table = make_table(args)?;
    let ops = oneshot::cycle(args.seed, 0);
    let mut report = Report::default();
    let mut reference = Vec::new();
    for &op in &ops {
        report.attempted += 1;
        let outcome = oneshot::run(&table.path, op)?;
        if op.family == Some(Family::Block)
            && outcome.pages_read != block_pages(oneshot::FRACTION, table.pages as usize)
        {
            report
                .problems
                .push(format!("block estimate read {} pages", outcome.pages_read));
        }
        reference.push(outcome.cf);
    }

    let mut walls = [0.0; 2];
    let mut traced = None;
    for (pass, enabled) in [false, true].into_iter().enumerate() {
        let tracer = Arc::new(Tracer::new(enabled));
        let mut counts = oneshot::ReplayCounts::default();
        let start = Instant::now();
        for (i, &op) in ops.iter().enumerate() {
            report.attempted += 1;
            let cf = oneshot::replay(&table.path, op, &tracer, i as u64, &mut counts)?;
            if cf.to_bits() != reference[i].to_bits() {
                report.problems.push(format!(
                    "replayed CF {cf} differs from the untraced estimate {} for {op:?}",
                    reference[i]
                ));
            }
        }
        walls[pass] = start.elapsed().as_secs_f64();
        traced = Some((tracer, counts));
    }
    let (tracer, counts) = traced.expect("the traced pass ran");
    let spans = tracer.spans();
    let n = ops.len() as f64;
    report.metrics = Layers {
        requests: n,
        pages_read: counts.pages_read as f64 / n,
        sample_rows: counts.sample_rows as f64 / counts.estimates.max(1) as f64,
        kept_row_share: ratio(counts.sample_rows, counts.rows_on_sampled_pages),
        trace_overhead: walls[1] / walls[0] - 1.0,
        ..Layers::default()
    }
    .metrics(&spans);
    report.context = vec![
        ("table", table.context()),
        ("replayed_requests", Json::uint(ops.len() as u64)),
        (
            "replay_wall_s",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        (
            "layers_not_exercised",
            Json::str("cache.*, server.*, advisor.*: oneshot bypasses the daemon"),
        ),
    ];
    report.spans = Some(trace::spans_json(&spans));
    let _ = std::fs::remove_file(&table.path);
    Ok(report)
}

// ----------------------------------------------------------------- daemon

/// One set-up: generate the table, start `samplecfd` (workers = nproc,
/// everything else at its shipped default), register the table and, for
/// `serve-repeat`, warm every group.  Returns the daemon, the table and the
/// set-up time in seconds.
fn serve_setup(args: &Args, warm: Option<&[Group]>) -> Result<(Daemon, TableFile, f64), String> {
    let start = Instant::now();
    let table = make_table(args)?;
    let daemon = Daemon::spawn(&args.daemon, nproc(), &args.out.join("daemon.log"))?;
    let mut conn = Conn::open(&daemon.addr)?;
    conn.ok(&format!(
        r#"{{"op":"register","path":{}}}"#,
        Json::str(table.path_str()).to_line()
    ))?;
    if let Some(groups) = warm {
        let units: Vec<Vec<String>> = groups
            .iter()
            .map(|&group| vec![Request::Estimate { group, scheme: NS }.line()])
            .collect();
        let (done, _) = client::closed_loop(&daemon.addr, nproc(), &units, f64::INFINITY, 0)?;
        if let Some((_, _, d)) = done.iter().find(|(_, _, d)| d.reply.failed()) {
            return Err(format!("warming a group failed: {:?}", d.reply));
        }
    }
    Ok((daemon, table, start.elapsed().as_secs_f64()))
}

/// A daemon after set-up, with its measured window opened: counters read
/// and its resident set sampled from here on.
struct Measured {
    daemon: Daemon,
    table: TableFile,
    conn: Conn,
    before: Window,
    rss: serve::RssPeak,
}

impl Measured {
    fn open(daemon: Daemon, table: TableFile) -> Result<Measured, String> {
        let mut conn = Conn::open(&daemon.addr)?;
        let before = Window::take(&mut conn)?;
        let rss = serve::RssPeak::start(daemon.pid());
        Ok(Measured {
            daemon,
            table,
            conn,
            before,
            rss,
        })
    }

    /// Close the window: the daemon's counters over it and its peak RSS
    /// (MiB); the daemon is shut down, the table kept for the checks.
    fn close(mut self, sent: &[Sent]) -> Result<(DaemonCounters, f64, TableFile), String> {
        let after = Window::take(&mut self.conn)?;
        let rss = self.rss.finish();
        let counters = DaemonCounters::between(&self.before, &after, &stats_replies(sent));
        drop(self.conn);
        self.daemon.shutdown()?;
        Ok((counters, rss, self.table))
    }
}

/// Counters read from the daemon before and after the measured window.
struct Window {
    stats: Json,
    exposition: String,
}

impl Window {
    fn take(conn: &mut Conn) -> Result<Window, String> {
        Ok(Window {
            stats: serve::stats(conn)?,
            exposition: serve::exposition(conn)?,
        })
    }
}

/// Cache and server counters over a measured window.
struct DaemonCounters {
    hit_ratio: f64,
    bytes_per_entry: f64,
    evictions: f64,
    deepened: f64,
    coalesced_waits: f64,
    pages_read: f64,
    stage_p99_ms: [f64; 6],
    queue_depth_max: f64,
    busy_rejections: f64,
}

const STAGES: [&str; 6] = [
    "parse",
    "queue_wait",
    "execute",
    "serialize",
    "drain",
    "write",
];

impl DaemonCounters {
    /// `stats_replies` are the `stats` replies sent during the window: each
    /// restarts the queue-depth watermark, so the window's maximum is the
    /// largest of them and the closing snapshot.
    fn between(before: &Window, after: &Window, stats_replies: &[&Json]) -> DaemonCounters {
        let d = |path: &[&str]| {
            serve::get_u64(&after.stats, path).saturating_sub(serve::get_u64(&before.stats, path))
                as f64
        };
        let hits = d(&["cache", "hits"]);
        let misses = d(&["cache", "misses"]);
        let deepened = d(&["cache", "deepened"]);
        let entries = serve::get_u64(&after.stats, &["cache", "entries"]);
        let bytes = serve::get_u64(&after.stats, &["cache", "bytes"]);
        let queue_depth_max = stats_replies
            .iter()
            .map(|s| serve::get_u64(s, &["stats", "server", "queue_depth_max"]))
            .chain([serve::get_u64(&after.stats, &["server", "queue_depth_max"])])
            .max()
            .unwrap_or(0);
        DaemonCounters {
            hit_ratio: hits / (hits + misses + deepened).max(1.0),
            bytes_per_entry: if entries == 0 {
                0.0
            } else {
                bytes as f64 / entries as f64
            },
            evictions: d(&["cache", "evictions"]),
            deepened,
            coalesced_waits: d(&["cache", "coalesced_waits"]),
            pages_read: d(&["cache", "pages_read"]),
            stage_p99_ms: STAGES
                .map(|s| serve::stage_p99_ms(&before.exposition, &after.exposition, s)),
            queue_depth_max: queue_depth_max as f64,
            busy_rejections: d(&["server", "busy_rejections"]),
        }
    }

    fn context(&self) -> Json {
        let mut stages = Json::obj();
        for (name, ms) in STAGES.iter().zip(self.stage_p99_ms) {
            stages = stages.field(*name, Json::Num(ms));
        }
        Json::obj()
            .field("cache_hit_ratio", Json::Num(self.hit_ratio))
            .field("cache_bytes_per_entry", Json::Num(self.bytes_per_entry))
            .field("cache_evictions", Json::Num(self.evictions))
            .field("cache_deepened", Json::Num(self.deepened))
            .field("cache_coalesced_waits", Json::Num(self.coalesced_waits))
            .field("cache_pages_read", Json::Num(self.pages_read))
            .field("stage_p99_ms", stages)
            .field("queue_depth_max", Json::Num(self.queue_depth_max))
            .field("busy_rejections", Json::Num(self.busy_rejections))
    }
}

/// One request sent to the daemon and how it ended.
struct Sent {
    request: Request,
    done: Done,
    /// Rung of the ladder (`serve-repeat`) or unit kind and step
    /// (`serve-churn`), for grouping.
    tag: (usize, usize),
}

/// Correctness checks over daemon replies: no wrong replies, block misses
/// read round(f·N) pages, null-suppression estimates within Theorem 1 of
/// the exact CF, and served CF = one-shot CF on `sampled` requests.
fn check_replies(
    sent: &[Sent],
    sampled: &[usize],
    table: &TableFile,
    exact: Option<f64>,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    for s in sent {
        if s.done.reply.wrong() {
            problems.push(format!("{} -> {:?}", s.request.line(), s.done.reply));
        }
        let (Some(json), Some(group)) = (s.done.reply.json(), s.request.group()) else {
            continue;
        };
        let accounting = json.get("accounting");
        let cache = accounting
            .and_then(|a| a.get("cache"))
            .and_then(Json::as_str);
        let pages = accounting.map_or(0, |a| serve::get_u64(a, &["pages_read"]));
        let want = block_pages(group.fraction, table.pages as usize);
        if group.family == Family::Block && cache == Some("miss") && pages != want {
            problems.push(format!("block miss read {pages} pages, expected {want}"));
        }
        if let (Request::Estimate { scheme: NS, .. }, Some(exact)) = (&s.request, exact) {
            let cf = json
                .get("result")
                .and_then(|r| r.get("cf"))
                .and_then(Json::as_f64);
            let rows = accounting.map_or(0, |a| serve::get_u64(a, &["sample_rows"]));
            match cf {
                Some(cf) if theorem1_holds(cf, exact, rows as usize) => {}
                _ => problems.push(format!(
                    "served NS estimate {cf:?} on {rows} rows is outside the Theorem 1 bound of exact {exact}"
                )),
            }
        }
    }
    for &i in sampled {
        let s = &sent[i];
        let (Request::Estimate { group, scheme }, Some(json)) = (&s.request, s.done.reply.json())
        else {
            continue;
        };
        let served = json
            .get("result")
            .and_then(|r| r.get("cf"))
            .and_then(Json::as_f64);
        let fresh = oneshot::run(
            &table.path,
            oneshot::Op {
                family: Some(group.family),
                fraction: group.fraction,
                scheme,
                seed: group.seed,
            },
        )?
        .cf;
        if served.map(f64::to_bits) != Some(fresh.to_bits()) {
            problems.push(format!(
                "served CF {served:?} differs from one-shot CF {fresh} for {}",
                s.request.line()
            ));
        }
    }
    Ok(())
}

/// Index of the first `ok` estimate of each distinct `(family, fraction)`.
fn first_of_each(sent: &[Sent]) -> Vec<usize> {
    let mut seen: Vec<(Family, u64)> = Vec::new();
    let mut out = Vec::new();
    for (i, s) in sent.iter().enumerate() {
        if let (Request::Estimate { group, .. }, Some(_)) = (&s.request, s.done.reply.json()) {
            let key = (group.family, group.fraction.to_bits());
            if !seen.contains(&key) {
                seen.push(key);
                out.push(i);
            }
        }
    }
    out
}

/// Latencies of the answered questions (estimates and advises).  `stats`
/// and `info` are monitoring calls: they count in `attempted` and `failed`
/// but are not timed, so the latency quantiles describe the questions a
/// what-if tool waits on.
fn answered_latencies<'a>(sent: impl Iterator<Item = &'a Sent>) -> Vec<f64> {
    sent.filter(|s| s.request.group().is_some() && !s.done.reply.failed())
        .filter_map(|s| s.done.latency_ms)
        .collect()
}

/// Run `requests` open loop at `rate_rps`, evenly spaced.
fn open_rung(
    addr: &str,
    requests: Vec<Request>,
    rate_rps: f64,
    rung: usize,
) -> Result<Vec<Sent>, String> {
    let plan: Vec<(Duration, String)> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (Duration::from_secs_f64(i as f64 / rate_rps), r.line()))
        .collect();
    let done = client::open_loop(addr, nproc(), &plan)?;
    Ok(requests
        .into_iter()
        .zip(done)
        .map(|(request, done)| Sent {
            request,
            done,
            tag: (rung, 0),
        })
        .collect())
}

fn lateness(sent: &[Sent]) -> (f64, f64) {
    let late: Vec<f64> = sent.iter().map(|s| s.done.late_ms).collect();
    (
        percentile(&late, 0.99).unwrap_or(0.0),
        late.iter().copied().fold(0.0, f64::max),
    )
}

fn invalid_if_late(p99: f64) -> Option<String> {
    (p99 > LATE_P99_BOUND_MS).then(|| {
        format!("the open-loop generator ran late: p99 {p99:.1} ms > {LATE_P99_BOUND_MS} ms")
    })
}

fn stats_replies(sent: &[Sent]) -> Vec<&Json> {
    sent.iter()
        .filter(|s| s.request == Request::Stats)
        .filter_map(|s| s.done.reply.json())
        .collect()
}

fn count_failed(report: &mut Report, sent: &[Sent]) {
    report.attempted += sent.len() as u64;
    report.failed += sent.iter().filter(|s| s.done.reply.failed()).count() as u64;
}

/// Requests at the fixed rate: `seconds` worth, and at least enough
/// questions for the tail (nine requests in ten are questions).
fn repeat_fixed_requests(seconds: f64) -> usize {
    let by_time = (REPEAT_LADDER.base_rps * seconds).round() as usize;
    by_time.max(min_samples_for_tail(REPEAT_TAIL).div_ceil(9) * 10)
}

/// `serve-repeat`: three set-ups, each followed by a third of the
/// fixed-rate requests on its daemon (so per-process effects such as which
/// groups share a cache shard are sampled three times) and, once that daemon
/// has stopped, a slice of the one-shot cycle; the ladder climbs on the last
/// daemon.
pub fn serve_repeat(args: &Args) -> Result<Report, String> {
    let groups = serve::repeat_groups(args.seed);
    let mut mix = RepeatMix::new(args.seed);
    let per_daemon = repeat_fixed_requests(args.seconds * DAEMON_SHARE).div_ceil(SETUP_REPS);
    let slice_s = args.seconds * (1.0 - DAEMON_SHARE) / SETUP_REPS as f64;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut daemons = Vec::new();
    let mut sent: Vec<Sent> = Vec::new();
    let mut one_shot = Vec::new();
    let mut cycles = 0;
    let mut ladder = None;
    let mut table = None;
    for rep in 0..SETUP_REPS {
        let (daemon, t, setup_s) = serve_setup(args, Some(&groups))?;
        setups.push(setup_s);
        let window = Measured::open(daemon, t)?;
        let start = sent.len();
        let requests = (0..per_daemon).map(|_| mix.next_request()).collect();
        sent.extend(open_rung(
            &window.daemon.addr,
            requests,
            REPEAT_LADDER.base_rps,
            0,
        )?);
        if rep + 1 == SETUP_REPS {
            ladder = Some(climb_ladder(&window.daemon.addr, &mut mix, &mut sent)?);
        }
        let (counters, peak, t) = window.close(&sent[start..])?;
        daemons.push(counters.context());
        rss.push(peak);
        one_shot.extend(one_shot_cycles(
            &t.path,
            args.seed,
            &mut cycles,
            slice_s,
            1,
            &mut report,
        ));
        // Every set-up writes the same file; the last one is kept.
        table = Some(t);
    }
    let table = table.expect("at least one set-up ran");
    let (max_rps, rungs) = ladder.expect("the last set-up climbed the ladder");

    count_failed(&mut report, &sent);
    let (late_p99, late_max) = lateness(&sent);
    report.invalid = invalid_if_late(late_p99);
    let exact = check_one_shot(&one_shot, &table, &mut report.problems);
    check_replies(
        &sent,
        &first_of_each(&sent),
        &table,
        exact,
        &mut report.problems,
    )?;

    let fixed_sent: Vec<Sent> = sent.into_iter().filter(|s| s.tag.0 == 0).collect();
    let latencies = answered_latencies(fixed_sent.iter());
    // Each daemon's share of the fixed rate lasts from its first due
    // instant to its last reply.
    let fixed_wall_s = fixed_sent
        .chunks(per_daemon)
        .map(|chunk| {
            chunk
                .iter()
                .filter_map(|s| {
                    let due = s.done.index as f64 / REPEAT_LADDER.base_rps;
                    s.done.latency_ms.map(|l| due + l / 1e3)
                })
                .fold(0.0, f64::max)
        })
        .sum::<f64>();
    report.metrics = end_to_end(
        &setups,
        &latencies,
        REPEAT_TAIL,
        latencies.len() as f64 / fixed_wall_s.max(1e-9),
        mean_peak(&rss),
        family_ms(&one_shot),
    )?;
    report.ungated.push(("max_rps", max_rps, "1/s"));
    let ladder_json = Json::Arr(
        rungs
            .iter()
            .map(|r| {
                Json::obj()
                    .field("rate_rps", Json::Num(r.rate_rps))
                    .field(
                        "requests",
                        Json::uint((r.latencies_ms.len() + r.failed) as u64),
                    )
                    .field("failed", Json::uint(r.failed as u64))
                    .field(
                        "tail_ms",
                        tail_at(&r.latencies_ms, REPEAT_LADDER.rung_percentile())
                            .map_or(Json::Null, Json::Num),
                    )
                    .field("last_ms", r.last_ms.map_or(Json::Null, Json::Num))
                    .field("pass", Json::Bool(REPEAT_LADDER.passes(r)))
            })
            .collect(),
    );
    report.context = vec![
        ("table", table.context()),
        ("tail", tail_context(REPEAT_TAIL, latencies.len())),
        (
            "loop",
            Json::str(format!(
                "open, evenly spaced, {} connections; p50/tail at {} rps, {per_daemon} requests on each of {SETUP_REPS} daemons",
                nproc(),
                REPEAT_LADDER.base_rps
            )),
        ),
        (
            "ladder",
            Json::obj()
                .field("max_rps", Json::Num(max_rps))
                .field("factor", Json::Num(REPEAT_LADDER.factor))
                .field("slo_ms", Json::Num(REPEAT_LADDER.slo_ms))
                .field("rung_percentile", Json::Num(REPEAT_LADDER.rung_percentile() * 100.0))
                .field("rungs", ladder_json),
        ),
        ("late_ms", Json::obj().field("p99", Json::Num(late_p99)).field("max", Json::Num(late_max))),
        ("rss_peaks_mb", Json::Arr(rss.iter().map(|&r| Json::Num(r)).collect())),
        ("daemons", Json::Arr(daemons)),
        ("one_shot_cycles", Json::uint(cycles as u64)),
        ("exact_ns_cf", exact.map_or(Json::Null, Json::Num)),
    ];
    let _ = std::fs::remove_file(&table.path);
    Ok(report)
}

/// Climb `serve-repeat`'s ladder on one daemon.  Rung 0 is the fixed rate,
/// pooled over every daemon's share already in `sent`; each higher rung
/// sends the mix's next requests and appends them to `sent`.
fn climb_ladder(
    addr: &str,
    mix: &mut RepeatMix,
    sent: &mut Vec<Sent>,
) -> Result<(f64, Vec<RungResult>), String> {
    let fixed = rung_result(REPEAT_LADDER.base_rps, sent);
    let mut failure = None;
    let climbed = REPEAT_LADDER.climb(|rung, rate| {
        if rung == 0 {
            return fixed.clone();
        }
        let n = REPEAT_LADDER.requests_per_rung;
        let requests: Vec<Request> = (0..n).map(|_| mix.next_request()).collect();
        match open_rung(addr, requests, rate, rung) {
            Ok(batch) => {
                let result = rung_result(rate, &batch);
                sent.extend(batch);
                result
            }
            Err(e) => {
                failure = Some(e);
                RungResult {
                    rate_rps: rate,
                    latencies_ms: Vec::new(),
                    failed: n,
                    last_ms: None,
                }
            }
        }
    });
    failure.map_or(Ok(climbed), Err)
}

/// A rung's verdict inputs from the requests it sent.
fn rung_result(rate_rps: f64, batch: &[Sent]) -> RungResult {
    RungResult {
        rate_rps,
        latencies_ms: answered_latencies(batch.iter()),
        failed: batch.iter().filter(|s| s.done.reply.failed()).count(),
        last_ms: batch.last().and_then(|s| s.done.latency_ms),
    }
}

fn churn_lines(seed: u64) -> (Vec<Vec<Request>>, Vec<Vec<String>>) {
    let units = serve::churn_units(seed, 20_000);
    let lines = units
        .iter()
        .map(|u| u.iter().map(Request::line).collect())
        .collect();
    (units, lines)
}

/// Run churn units from `first` on, closed loop; returns the requests sent
/// (tagged with their unit and step) and the wall time.
fn run_churn(
    addr: &str,
    units: &[Vec<Request>],
    lines: &[Vec<String>],
    first: usize,
    seconds: f64,
    min_requests: usize,
) -> Result<(Vec<Sent>, f64), String> {
    let (done, wall) = client::closed_loop(addr, nproc(), &lines[first..], seconds, min_requests)?;
    let sent = done
        .into_iter()
        .map(|(u, step, done)| Sent {
            request: units[first + u][step].clone(),
            done,
            tag: (first + u, step),
        })
        .collect();
    Ok((sent, wall))
}

/// `serve-churn`: three set-ups, each followed by its share of closed-loop
/// churn on its daemon (continuing the same unit sequence) and, once that
/// daemon has stopped, a slice of the one-shot cycle.
pub fn serve_churn(args: &Args) -> Result<Report, String> {
    let (units, lines) = churn_lines(args.seed);
    let min_requests = min_samples_for_tail(CHURN_TAIL).div_ceil(SETUP_REPS);
    let daemon_s = args.seconds * DAEMON_SHARE / SETUP_REPS as f64;
    let slice_s = args.seconds * (1.0 - DAEMON_SHARE) / SETUP_REPS as f64;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut daemons = Vec::new();
    let mut sent: Vec<Sent> = Vec::new();
    let mut one_shot = Vec::new();
    let mut cycles = 0;
    let mut wall = 0.0;
    let mut table = None;
    for _ in 0..SETUP_REPS {
        let (daemon, t, setup_s) = serve_setup(args, None)?;
        setups.push(setup_s);
        let window = Measured::open(daemon, t)?;
        let first = sent.iter().map(|s| s.tag.0 + 1).max().unwrap_or(0);
        let (batch, w) = run_churn(
            &window.daemon.addr,
            &units,
            &lines,
            first,
            daemon_s,
            min_requests,
        )?;
        wall += w;
        let (counters, peak, t) = window.close(&batch)?;
        sent.extend(batch);
        daemons.push(counters.context());
        rss.push(peak);
        one_shot.extend(one_shot_cycles(
            &t.path,
            args.seed,
            &mut cycles,
            slice_s,
            1,
            &mut report,
        ));
        // Every set-up writes the same file; the last one is kept.
        table = Some(t);
    }
    let table = table.expect("at least one set-up ran");

    count_failed(&mut report, &sent);
    let exact = check_one_shot(&one_shot, &table, &mut report.problems);
    check_replies(
        &sent,
        &first_of_each(&sent),
        &table,
        exact,
        &mut report.problems,
    )?;

    let latencies = answered_latencies(sent.iter());
    let ops_per_s = latencies.len() as f64 / wall;
    report.metrics = end_to_end(
        &setups,
        &latencies,
        CHURN_TAIL,
        ops_per_s,
        mean_peak(&rss),
        family_ms(&one_shot),
    )?;
    report.context = vec![
        ("table", table.context()),
        ("tail", tail_context(CHURN_TAIL, latencies.len())),
        (
            "loop",
            Json::str(format!(
                "closed, {} clients, a third of the time on each of {SETUP_REPS} daemons",
                nproc()
            )),
        ),
        (
            "rss_peaks_mb",
            Json::Arr(rss.iter().map(|&r| Json::Num(r)).collect()),
        ),
        ("daemons", Json::Arr(daemons)),
        ("one_shot_cycles", Json::uint(cycles as u64)),
        ("exact_ns_cf", exact.map_or(Json::Null, Json::Num)),
    ];
    let _ = std::fs::remove_file(&table.path);
    Ok(report)
}

/// A traced daemon run: the socket workload once (for the daemon's cache
/// and server counters), then its first requests replayed in-process
/// through `op_estimate`'s calls, untraced and traced, each on a fresh
/// catalog and cache.
pub fn serve_traced(args: &Args) -> Result<Report, String> {
    let repeat = args.workload == "serve-repeat";
    let groups = serve::repeat_groups(args.seed);
    let (daemon, table, _) = serve_setup(args, repeat.then_some(&groups[..]))?;
    let window = Measured::open(daemon, table)?;
    let mut report = Report::default();
    let (sent, replayed): (Vec<Sent>, Vec<usize>) = if repeat {
        let mut mix = RepeatMix::new(args.seed);
        let requests = (0..repeat_fixed_requests(args.seconds))
            .map(|_| mix.next_request())
            .collect();
        let sent = open_rung(&window.daemon.addr, requests, REPEAT_LADDER.base_rps, 0)?;
        report.invalid = invalid_if_late(lateness(&sent).0);
        let replayed = (0..REPEAT_REPLAY_REQUESTS.min(sent.len())).collect();
        (sent, replayed)
    } else {
        let (units, lines) = churn_lines(args.seed);
        let min_requests = min_samples_for_tail(CHURN_TAIL);
        let (sent, _) = run_churn(
            &window.daemon.addr,
            &units,
            &lines,
            0,
            args.seconds,
            min_requests,
        )?;
        let replayed = (0..sent.len())
            .filter(|&i| sent[i].tag.0 < CHURN_REPLAY_UNITS)
            .collect();
        (sent, replayed)
    };
    let (counters, _, table) = window.close(&sent)?;
    count_failed(&mut report, &sent);
    let exact = oneshot::run(&table.path, oneshot::Op::exact(NS))?.cf;
    check_replies(
        &sent,
        &first_of_each(&sent),
        &table,
        Some(exact),
        &mut report.problems,
    )?;

    let mut walls = [0.0; 2];
    let mut traced = None;
    for (pass, enabled) in [false, true].into_iter().enumerate() {
        let tracer = Arc::new(Tracer::new(false));
        let replay = Replay::new(&table.path_str(), Arc::clone(&tracer))?;
        if repeat {
            let mut warm = serve::ReplayCounts::default();
            for &group in &groups {
                replay.request(
                    &Request::Estimate { group, scheme: NS },
                    u64::MAX,
                    &mut warm,
                )?;
            }
        }
        tracer.set_enabled(enabled);
        let mut counts = serve::ReplayCounts::default();
        let start = Instant::now();
        for &i in &replayed {
            let s = &sent[i];
            let cfs = replay.request(&s.request, i as u64, &mut counts)?;
            compare_replay(s, &cfs, &mut report.problems);
        }
        walls[pass] = start.elapsed().as_secs_f64();
        traced = Some((tracer, counts));
    }
    let (tracer, counts) = traced.expect("the traced pass ran");
    let spans = tracer.spans();
    let n = replayed.len().max(1) as f64;
    report.metrics = Layers {
        requests: n,
        pages_read: counts.pages_read as f64 / n,
        sample_rows: counts.sample_rows as f64 / counts.sampled_requests.max(1) as f64,
        kept_row_share: ratio(counts.sample_rows_drawn, counts.rows_on_pages),
        trace_overhead: walls[1] / walls[0] - 1.0,
        daemon: Some(counters),
    }
    .metrics(&spans);
    report.context = vec![
        ("table", table.context()),
        ("replayed_requests", Json::uint(replayed.len() as u64)),
        (
            "replay_wall_s",
            Json::Arr(walls.iter().map(|&w| Json::Num(w)).collect()),
        ),
        (
            "sampling_in_cache",
            Json::str("draws run inside cache.acquire, so sampling.draw_ms is 0 here"),
        ),
    ];
    report.spans = Some(trace::spans_json(&spans));
    let _ = std::fs::remove_file(&table.path);
    Ok(report)
}

/// The replayed CFs must equal the served ones bit for bit.
fn compare_replay(s: &Sent, replayed: &[(String, f64)], problems: &mut Vec<String>) {
    let Some(json) = s.done.reply.json() else {
        return;
    };
    let result = json.get("result");
    let served: Vec<(String, Option<f64>)> = match &s.request {
        Request::Estimate { .. } => vec![(
            String::new(),
            result.and_then(|r| r.get("cf")).and_then(Json::as_f64),
        )],
        Request::Advise { .. } => result
            .and_then(|r| r.get("recommendations"))
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|rec| {
                (
                    rec.get("index")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    rec.get("estimated_cf").and_then(Json::as_f64),
                )
            })
            .collect(),
        _ => return,
    };
    for (name, cf) in replayed {
        let want = served
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, cf)| *cf);
        if want.map(f64::to_bits) != Some(cf.to_bits()) {
            problems.push(format!(
                "replayed CF {cf} differs from served {want:?} for {} {name}",
                s.request.line()
            ));
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Inputs of the per-layer metrics of a traced run.
#[derive(Default)]
struct Layers {
    requests: f64,
    pages_read: f64,
    sample_rows: f64,
    kept_row_share: f64,
    trace_overhead: f64,
    daemon: Option<DaemonCounters>,
}

impl Layers {
    /// Every per-layer metric, self times per replayed request.
    fn metrics(&self, spans: &[Span]) -> Vec<Metric> {
        let by_name = trace::self_time_by_name(spans);
        let ms = |names: &[&str]| {
            names
                .iter()
                .map(|n| by_name.get(n).copied().unwrap_or(0))
                .sum::<u64>() as f64
                / 1e6
                / self.requests.max(1.0)
        };
        let d = self.daemon.as_ref();
        let c = |f: fn(&DaemonCounters) -> f64| d.map_or(0.0, f);
        let stage = |i: usize| d.map_or(0.0, |d| d.stage_p99_ms[i]);
        vec![
            ("storage.pages_read", self.pages_read, "count"),
            (
                "storage.read_ms",
                ms(&["storage.read", "storage.scan"]),
                "ms",
            ),
            (
                "sampling.draw_ms",
                ms(&["sampling.draw", "sampling.records"]),
                "ms",
            ),
            ("sampling.sample_rows", self.sample_rows, "count"),
            ("sampling.kept_row_share", self.kept_row_share, "ratio"),
            ("core.strata_ms", ms(&["core.strata"]), "ms"),
            ("index.build_ms", ms(&["index.build"]), "ms"),
            ("compression.measure_ms", ms(&["compression.measure"]), "ms"),
            ("core.datastats_ms", ms(&["core.datastats"]), "ms"),
            ("advisor.candidate_ms", ms(&["advisor.candidate"]), "ms"),
            ("cache.hit_ratio", c(|d| d.hit_ratio), "ratio"),
            ("cache.bytes_per_entry", c(|d| d.bytes_per_entry), "bytes"),
            ("cache.evictions", c(|d| d.evictions), "count"),
            ("cache.deepened", c(|d| d.deepened), "count"),
            ("cache.coalesced_waits", c(|d| d.coalesced_waits), "count"),
            ("cache.pages_read", c(|d| d.pages_read), "count"),
            ("cache.acquire_ms", ms(&["cache.acquire"]), "ms"),
            ("server.parse_p99_ms", stage(0), "ms"),
            ("server.queue_wait_p99_ms", stage(1), "ms"),
            ("server.execute_p99_ms", stage(2), "ms"),
            ("server.serialize_p99_ms", stage(3), "ms"),
            ("server.drain_p99_ms", stage(4), "ms"),
            ("server.write_p99_ms", stage(5), "ms"),
            ("server.queue_depth_max", c(|d| d.queue_depth_max), "count"),
            ("server.busy_rejections", c(|d| d.busy_rejections), "count"),
            ("obs.trace_overhead", self.trace_overhead, "ratio"),
        ]
    }
}
