//! The daemon workloads' request mixes, the counters read from `samplecfd`,
//! and the in-process replay of `op_estimate` / `op_advise`.

use crate::client::Conn;
use crate::mix::{derive, Family, Group, Request, FAMILIES, SCHEMES, STRATA, TABLE_NAME};
use crate::source::TimedSource;
use crate::trace::Tracer;
use samplecf_compression::scheme_by_name;
use samplecf_core::{evaluate_shared, weighted_combine, DataStatsAccumulator};
use samplecf_index::{measure_index, IndexBuilder, IndexSpec};
use samplecf_sampling::Strata;
use samplecf_server::{ConcurrentSampleCache, Json, TableCatalog, DEFAULT_CACHE_BUDGET_BYTES};
use samplecf_storage::{SharedSource, TableSource};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The fixed working set of `serve-repeat`: three families × four seeds.
pub fn repeat_groups(seed: u64) -> Vec<Group> {
    let mut groups = Vec::new();
    for s in 0..4 {
        let group_seed = derive(seed, 500 + s);
        for family in FAMILIES {
            let fraction = if family == Family::Block { 0.02 } else { 0.01 };
            groups.push(Group {
                family,
                fraction,
                seed: group_seed,
            });
        }
    }
    groups
}

/// `serve-repeat` traffic, a fixed rotation: estimates walk the twelve
/// groups round-robin, each round with the next scheme, so every 36
/// estimates ask each group under each scheme once; every tenth request is
/// a three-candidate `advise` on the next group, and every tenth a `stats`
/// or `info`.  The seed only chooses the table and the groups' sample seeds.
pub struct RepeatMix {
    groups: Vec<Group>,
    sent: usize,
    estimates: usize,
    advises: usize,
}

impl RepeatMix {
    pub fn new(seed: u64) -> Self {
        RepeatMix {
            groups: repeat_groups(seed),
            sent: 0,
            estimates: 0,
            advises: 0,
        }
    }

    pub fn next_request(&mut self) -> Request {
        let slot = self.sent % 10;
        self.sent += 1;
        let n = self.groups.len();
        match slot {
            4 => {
                let group = self.groups[self.advises % n];
                self.advises += 1;
                Request::Advise {
                    group,
                    candidates: 3,
                }
            }
            9 if (self.sent / 10) % 2 == 1 => Request::Stats,
            9 => Request::Info,
            _ => {
                let i = self.estimates;
                self.estimates += 1;
                Request::Estimate {
                    group: self.groups[i % n],
                    scheme: SCHEMES[(i / n) % SCHEMES.len()],
                }
            }
        }
    }
}

/// `serve-churn` units, each aimed at groups no earlier unit used.  A cycle
/// of thirteen units: four fresh uniform and four fresh stratified draws,
/// three fresh block draws spread between them (so a block draw always
/// shares the machine with a full-table draw on the other client), a
/// uniform deepening chain (f = 0.01 → 0.02 → 0.04 on one seed, in order on
/// one client), and a four-candidate `advise` on a fresh block sample.
pub fn churn_units(seed: u64, count: usize) -> Vec<Vec<Request>> {
    (0..count)
        .map(|k| {
            let s = derive(seed, 10_000 + k as u64);
            let scheme = SCHEMES[(k / CHURN_CYCLE) % SCHEMES.len()];
            let estimate = |family: Family, fraction: f64| Request::Estimate {
                group: Group {
                    family,
                    fraction,
                    seed: s,
                },
                scheme,
            };
            match k % CHURN_CYCLE {
                0 | 3 | 6 | 9 => vec![estimate(Family::Uniform, 0.01)],
                1 | 4 | 7 | 10 => vec![estimate(Family::Stratified, 0.01)],
                2 | 5 | 8 => vec![estimate(Family::Block, 0.02)],
                11 => [0.01, 0.02, 0.04]
                    .iter()
                    .map(|&f| estimate(Family::Uniform, f))
                    .collect(),
                _ => vec![Request::Advise {
                    group: Group {
                        family: Family::Block,
                        fraction: 0.01,
                        seed: s,
                    },
                    candidates: 4,
                }],
            }
        })
        .collect()
}

/// Units in one `serve-churn` cycle.
pub const CHURN_CYCLE: usize = 13;

/// The daemon's `stats` object.
pub fn stats(conn: &mut Conn) -> Result<Json, String> {
    let reply = conn.ok(r#"{"op":"stats"}"#)?;
    reply
        .get("stats")
        .cloned()
        .ok_or_else(|| "stats reply without stats".to_string())
}

/// The daemon's Prometheus-style exposition.
pub fn exposition(conn: &mut Conn) -> Result<String, String> {
    let reply = conn.ok(r#"{"op":"metrics"}"#)?;
    reply
        .get("exposition")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "metrics reply without exposition".to_string())
}

pub fn get_u64(json: &Json, path: &[&str]) -> u64 {
    let mut node = Some(json);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_u64).unwrap_or(0)
}

/// Cumulative bucket counts of one stage histogram: upper bound → count.
fn stage_buckets(exposition: &str, stage: &str) -> BTreeMap<u64, u64> {
    let prefix = format!("samplecf_stage_duration_ns_bucket{{stage=\"{stage}\",le=\"");
    exposition
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                u64::MAX
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// The p99 (upper bucket bound, ms) of one stage over the requests served
/// between two expositions.
pub fn stage_p99_ms(before: &str, after: &str, stage: &str) -> f64 {
    let old = stage_buckets(before, stage);
    let new = stage_buckets(after, stage);
    // Cumulative counts are monotone in the bound; a bound missing from the
    // earlier exposition held the count of the next lower bound there.
    let cumulative_before = |le: u64| old.range(..=le).next_back().map_or(0, |(_, c)| *c);
    let delta: Vec<(u64, u64)> = new
        .iter()
        .map(|(&le, &c)| (le, c.saturating_sub(cumulative_before(le))))
        .collect();
    let total = delta.last().map_or(0, |(_, c)| *c);
    if total == 0 {
        return 0.0;
    }
    let target = (total as f64 * 0.99).ceil() as u64;
    let le = delta
        .iter()
        .find(|(_, c)| *c >= target)
        .map_or(u64::MAX, |(le, _)| *le);
    if le == u64::MAX {
        // Beyond the last finite bound: report the largest finite bound.
        delta
            .iter()
            .rev()
            .find(|(le, _)| *le != u64::MAX)
            .map_or(0.0, |(le, _)| *le as f64 / 1e6)
    } else {
        le as f64 / 1e6
    }
}

/// Resident set of a process in MiB (`VmRSS` of `/proc/<pid>/status`).
fn vm_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The peak resident set of a process over a window, sampled every 10 ms
/// by a background thread (set-up before the window never counts).
pub struct RssPeak {
    stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<f64>>,
}

impl RssPeak {
    pub fn start(pid: u32) -> RssPeak {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            loop {
                peak = peak.max(vm_rss_mb(pid).unwrap_or(0.0));
                if flag.load(Ordering::SeqCst) {
                    return peak;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        });
        RssPeak {
            stop,
            sampler: Some(sampler),
        }
    }

    /// End the window; the peak in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        self.sampler.take().map_or(0.0, |s| s.join().unwrap_or(0.0))
    }
}

impl Drop for RssPeak {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
    }
}

/// Counts gathered while replaying daemon requests.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub pages_read: u64,
    pub rows_on_pages: u64,
    pub sample_rows_drawn: u64,
    pub sample_rows: u64,
    pub sampled_requests: u64,
}

/// A private catalog and sample cache (shipped budget and shards), serving
/// draws through a page-timing source: `op_estimate` and `op_advise` replayed
/// call by call.
pub struct Replay {
    catalog: TableCatalog,
    cache: ConcurrentSampleCache,
    timed: Arc<TimedSource>,
    shared: SharedSource,
    tracer: Arc<Tracer>,
}

impl Replay {
    pub fn new(path: &str, tracer: Arc<Tracer>) -> Result<Replay, String> {
        let catalog = TableCatalog::new();
        let entry = catalog.register(path, None).map_err(|e| e.to_string())?;
        let timed = Arc::new(TimedSource::new(entry.shared.clone(), Arc::clone(&tracer)));
        let shared: SharedSource = timed.clone();
        Ok(Replay {
            catalog,
            cache: ConcurrentSampleCache::new(DEFAULT_CACHE_BUDGET_BYTES),
            timed,
            shared,
            tracer,
        })
    }

    /// Replay one request; returns the CF of an estimate, or each
    /// candidate's `(index, estimated_cf)` of an advise.
    pub fn request(
        &self,
        request: &Request,
        id: u64,
        counts: &mut ReplayCounts,
    ) -> Result<Vec<(String, f64)>, String> {
        let t = &self.tracer;
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let Some(group) = request.group() else {
            return Ok(Vec::new());
        };
        let entry = t
            .span("server.catalog", id, || self.catalog.get(TABLE_NAME))
            .map_err(|e| err(&e))?;
        let kind = group.family.kind(group.fraction);
        self.timed.set_request(id);
        let (pages0, rows0) = self.timed.counts();
        let acquired = t
            .span("cache.acquire", id, || {
                self.cache.acquire(&self.shared, kind, group.seed)
            })
            .map_err(|e| err(&e))?;
        let (pages1, rows1) = self.timed.counts();
        counts.pages_read += pages1 - pages0;
        counts.sample_rows += acquired.rows.len() as u64;
        counts.sampled_requests += 1;
        if pages1 > pages0 {
            counts.rows_on_pages += rows1 - rows0;
            counts.sample_rows_drawn += acquired.rows.len() as u64;
        }
        let schema = entry.shared.schema();
        let first = schema.columns()[0].name.clone();

        if let Request::Advise { candidates, .. } = request {
            let mut out = Vec::new();
            for i in 0..*candidates {
                let name = format!("ix{i}");
                let spec =
                    IndexSpec::nonclustered(name.clone(), [first.clone()]).map_err(|e| err(&e))?;
                let scheme = scheme_by_name(SCHEMES[i % SCHEMES.len()]).map_err(|e| err(&e))?;
                let rec = t
                    .span("advisor.candidate", id, || {
                        evaluate_shared(
                            entry.shared.as_ref(),
                            &spec,
                            scheme.as_ref(),
                            &acquired.rows,
                            kind.label(),
                            0,
                        )
                    })
                    .map_err(|e| err(&e))?;
                out.push((name, rec.estimated_cf));
            }
            return Ok(out);
        }

        let Request::Estimate { scheme, .. } = request else {
            unreachable!("only estimates and advises carry a group")
        };
        let scheme = scheme_by_name(scheme).map_err(|e| err(&e))?;
        let spec = IndexSpec::nonclustered("idx", [first]).map_err(|e| err(&e))?;
        let first_key = spec.key_indexes(schema).map_err(|e| err(&e))?[0];
        // The daemon's default inner parallelism is one thread per request.
        let builder = IndexBuilder::new().threads(1);
        let index = t
            .span("index.build", id, || {
                builder.build_from_rows(schema, &acquired.rows, &spec)
            })
            .map_err(|e| err(&e))?;
        let report = t
            .span("compression.measure", id, || {
                measure_index(&index, scheme.as_ref())
            })
            .map_err(|e| err(&e))?;
        t.span("core.datastats", id, || {
            let mut acc = DataStatsAccumulator::new();
            for (_, row) in acquired.rows.iter() {
                acc.observe(row.value(first_key));
            }
            acc.snapshot()
        });
        if group.family != Family::Stratified {
            return Ok(vec![(String::new(), report.cf())]);
        }
        // measure_rows_stratified: one sub-index per stratum, combined by
        // population weight.
        let partition = t
            .span("core.strata", id, || {
                Strata::equi_depth(entry.shared.as_ref(), STRATA)
            })
            .map_err(|e| err(&e))?;
        let weights = partition.weights();
        let mut cfs = vec![None; weights.len()];
        for (s, cf) in cfs.iter_mut().enumerate() {
            let rows: Vec<_> = acquired
                .rows
                .iter()
                .filter(|(rid, _)| partition.stratum_of_page(rid.page) == s)
                .cloned()
                .collect();
            if rows.is_empty() {
                continue;
            }
            let index = t
                .span("index.build", id, || {
                    builder.build_from_rows(schema, &rows, &spec)
                })
                .map_err(|e| err(&e))?;
            let report = t
                .span("compression.measure", id, || {
                    measure_index(&index, scheme.as_ref())
                })
                .map_err(|e| err(&e))?;
            *cf = Some(report.cf());
        }
        let cf = weighted_combine(&weights, &cfs).ok_or("no stratum was sampled")?;
        Ok(vec![(String::new(), cf)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_p99_uses_only_the_window_between_expositions() {
        let before = "samplecf_stage_duration_ns_bucket{stage=\"execute\",le=\"1000000\"} 50\n\
                      samplecf_stage_duration_ns_bucket{stage=\"execute\",le=\"+Inf\"} 50\n";
        let after = "samplecf_stage_duration_ns_bucket{stage=\"execute\",le=\"1000000\"} 50\n\
                     samplecf_stage_duration_ns_bucket{stage=\"execute\",le=\"2000000\"} 60\n\
                     samplecf_stage_duration_ns_bucket{stage=\"execute\",le=\"300000000\"} 150\n\
                     samplecf_stage_duration_ns_bucket{stage=\"execute\",le=\"+Inf\"} 150\n";
        // 100 requests in the window: 10 at ≤ 2 ms, 90 at ≤ 300 ms.
        assert_eq!(stage_p99_ms(before, after, "execute"), 300.0);
        assert_eq!(stage_p99_ms(after, after, "execute"), 0.0);
        assert_eq!(stage_p99_ms("", after, "parse"), 0.0);
    }

    #[test]
    fn mixes_are_seeded_and_churn_never_repeats_a_group() {
        let a: Vec<_> = {
            let mut m = RepeatMix::new(3);
            (0..50).map(|_| m.next_request()).collect()
        };
        let mut m = RepeatMix::new(3);
        assert!(a.iter().all(|r| *r == m.next_request()));
        let groups = repeat_groups(3);
        assert_eq!(groups.len(), 12);
        // 36 estimates cover every group under every scheme once.
        let mut pairs: Vec<_> = {
            let mut m = RepeatMix::new(3);
            (0..45)
                .map(|_| m.next_request())
                .filter_map(|r| match r {
                    Request::Estimate { group, scheme } => Some((group.seed, group.family, scheme)),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(pairs.len(), 36);
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 36);
        assert_eq!(
            a.iter()
                .filter(|r| matches!(r, Request::Advise { .. }))
                .count(),
            5
        );
        assert_eq!(
            a.iter()
                .filter(|r| matches!(r, Request::Stats | Request::Info))
                .count(),
            5
        );
        assert!(a
            .iter()
            .filter_map(Request::group)
            .all(|g| groups.contains(&g)));

        let units = churn_units(3, 200);
        let mut seen = Vec::new();
        for unit in &units {
            for r in unit {
                let g = r.group().expect("churn requests carry groups");
                assert!(!seen.contains(&g), "group {g:?} repeated");
                seen.push(g);
            }
        }
    }
}
