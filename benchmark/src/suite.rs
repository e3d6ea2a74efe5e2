//! `run`: every workload in a child process of its own, one after another,
//! collected into one result file.  `compare`: two result files judged
//! against the bounds.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec::{self, Better};
use crate::{home, host, stats, Options};

/// The values one metric took over the runs of one workload.
struct Series {
    name: String,
    unit: String,
    values: Vec<f64>,
}

impl Series {
    /// Median and interquartile spread (as a share of the median) of the
    /// values.
    fn summary(&self) -> (f64, Option<f64>) {
        let sorted = stats::sorted(self.values.clone());
        (stats::median(&sorted), stats::spread(&sorted))
    }
}

struct WorkloadResult {
    workload: &'static str,
    attempted: f64,
    failed: f64,
    metrics: Vec<Series>,
}

/// Runs one workload once in a child process; returns its parsed result
/// line after echoing everything it printed.
fn run_child(options: &Options, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find myself: {err}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .args(["--threads", &options.threads.to_string()]);
    if options.smoke {
        command.arg("--smoke");
    }
    if let Some(dir) = &options.dir {
        command.arg("--dir").arg(dir);
    }
    // the child's stderr is inherited; `output` waits until it has ended
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot start {workload}: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    Json::parse(last).map_err(|err| format!("{workload}: unreadable result line: {err}"))
}

fn number(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line has no number {key:?}"))
}

/// `linkbench run`: returns whether every check of every workload passed.
pub fn run(options: &Options) -> Result<bool, String> {
    for name in &options.only {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("--only {name}: no such workload"));
        }
    }
    let selected = spec::WORKLOADS
        .iter()
        .filter(|w| options.only.is_empty() || options.only.iter().any(|name| name == w.name));
    let mut results: Vec<WorkloadResult> = Vec::new();
    for workload in selected {
        let mut result = WorkloadResult {
            workload: workload.name,
            attempted: 0.0,
            failed: 0.0,
            metrics: Vec::new(),
        };
        for run in 0..options.runs {
            let line = run_child(options, workload.name, options.seed + run as u64)?;
            result.attempted += number(&line, "attempted")?;
            result.failed += number(&line, "failed")?;
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or("result line has no metrics")?;
            for (name, metric) in metrics {
                let value = number(metric, "value")?;
                match result
                    .metrics
                    .iter_mut()
                    .find(|series| &series.name == name)
                {
                    Some(series) => series.values.push(value),
                    None => result.metrics.push(Series {
                        name: name.clone(),
                        unit: metric
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        values: vec![value],
                    }),
                }
            }
        }
        results.push(result);
    }

    println!();
    println!(
        "# summary: median over {} run(s) per workload, seeds {}..={}; spread = (q3 - q1) / median",
        options.runs,
        options.seed,
        options.seed + options.runs as u64 - 1
    );
    for result in &results {
        for series in &result.metrics {
            let (median, spread) = series.summary();
            let spread = spread.map_or(String::new(), |spread| format!("  spread {spread:.4}"));
            println!(
                "{} {} {median} {}{spread}",
                series.name, result.workload, series.unit
            );
        }
        println!(
            "fail_ratio {} {} failed/attempted ({} of {})",
            result.workload,
            result.failed / result.attempted.max(1.0),
            result.failed,
            result.attempted
        );
    }

    let out = home().join("out");
    std::fs::create_dir_all(&out)
        .map_err(|err| format!("cannot create {}: {err}", out.display()))?;
    let path = out.join(if options.trace {
        "result.trace.json"
    } else {
        "result.json"
    });
    std::fs::write(&path, result_file(options, &results).render_pretty())
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(results.iter().all(|result| result.failed == 0.0))
}

fn result_file(options: &Options, results: &[WorkloadResult]) -> Json {
    Json::object([
        (
            "host",
            Json::object([
                ("cores", Json::Number(host::cores() as f64)),
                ("threads", Json::Number(options.threads as f64)),
                (
                    "store_filesystem",
                    Json::String(host::filesystem_of(
                        options.dir.as_deref().unwrap_or(&home()),
                    )),
                ),
            ]),
        ),
        ("seed", Json::Number(options.seed as f64)),
        ("runs", Json::Number(options.runs as f64)),
        ("seconds", Json::Number(options.seconds)),
        ("trace", Json::Bool(options.trace)),
        ("smoke", Json::Bool(options.smoke)),
        (
            "workloads",
            Json::object(results.iter().map(|result| {
                (
                    result.workload,
                    Json::object([
                        ("attempted", Json::Number(result.attempted)),
                        ("failed", Json::Number(result.failed)),
                        (
                            "metrics",
                            Json::object(result.metrics.iter().map(|series| {
                                let (median, spread) = series.summary();
                                (
                                    series.name.clone(),
                                    Json::object([
                                        ("unit", Json::String(series.unit.clone())),
                                        ("median", Json::Number(median)),
                                        ("spread", spread.map_or(Json::Null, Json::Number)),
                                        (
                                            "values",
                                            Json::Array(
                                                series
                                                    .values
                                                    .iter()
                                                    .map(|v| Json::Number(*v))
                                                    .collect(),
                                            ),
                                        ),
                                    ]),
                                )
                            })),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it is
/// better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// One `(metric, workload)` row of a comparison.
struct Row {
    metric: String,
    workload: String,
    a: f64,
    b: f64,
    /// `None` for per-layer metrics, which have no bound.
    verdict: Option<(f64, f64, bool)>,
}

fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = |file: &Json| {
        file.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or("not a result file: no \"workloads\" object")
    };
    let median = |metrics: &Json, name: &str| {
        metrics
            .get(name)
            .and_then(|metric| metric.get("median"))
            .and_then(Json::as_f64)
    };
    let (a_workloads, b_workloads) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (workload, a_result) in &a_workloads {
        let Some((_, b_result)) = b_workloads.iter().find(|(name, _)| name == workload) else {
            continue;
        };
        let (Some(a_metrics), Some(b_metrics)) = (a_result.get("metrics"), b_result.get("metrics"))
        else {
            continue;
        };
        for (metric, _) in a_metrics.as_object().unwrap_or(&[]) {
            let (Some(a_median), Some(b_median)) =
                (median(a_metrics, metric), median(b_metrics, metric))
            else {
                continue;
            };
            let verdict = spec::END_TO_END
                .iter()
                .find(|spec| spec.name == metric)
                .map(|spec| {
                    let worse = worsening(spec.better, a_median, b_median);
                    (worse, spec.bound, worse <= spec.bound)
                });
            rows.push(Row {
                metric: metric.clone(),
                workload: workload.clone(),
                a: a_median,
                b: b_median,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// `linkbench compare A.json B.json`: B may not be worse than A by more
/// than a metric's bound on any `(metric, workload)` pairing.  Returns
/// whether every bounded pairing passed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|err| format!("{}: {err}", path.display())))
    };
    let rows = rows(&read(a_path)?, &read(b_path)?)?;
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) pairing".to_string());
    }
    println!(
        "{:<44} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "B worse", "bound"
    );
    let mut all_pass = true;
    for row in &rows {
        let (worse, bound, verdict) = match row.verdict {
            Some((worse, bound, pass)) => {
                all_pass &= pass;
                (
                    format!("{:+.2}%", worse * 100.0),
                    format!("{:.0}%", bound * 100.0),
                    if pass { "PASS" } else { "FAIL" },
                )
            }
            None => (String::new(), String::new(), "-"),
        };
        println!(
            "{:<44} {:<14} {:>14.6} {:>14.6} {:>9} {:>7}  {verdict}",
            row.metric, row.workload, row.a, row.b, worse, bound
        );
    }
    println!(
        "{}",
        if all_pass {
            "every bounded pairing within its bound"
        } else {
            "at least one pairing is worse than its bound allows"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(op_p50_ms: f64, ops_per_s: f64) -> Json {
        let metric = |median: f64| Json::object([("median", Json::Number(median))]);
        Json::object([(
            "workloads",
            Json::object([(
                "match_dense",
                Json::object([(
                    "metrics",
                    Json::object([
                        ("op_p50_ms", metric(op_p50_ms)),
                        ("ops_per_s", metric(ops_per_s)),
                        ("rule.eval_ns_per_pair", metric(80.0)),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn a_pairing_fails_only_beyond_its_bound() {
        let bound = spec::END_TO_END[1].bound;
        let rows = rows(&file(100.0, 10.0), &file(100.0 * (1.0 + bound / 2.0), 12.0)).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|row| row.verdict.is_none_or(|v| v.2)));
        // the per-layer metric is listed but not judged
        assert!(rows[2].verdict.is_none());
        let rows = rows_fail(bound);
        assert_eq!(
            rows.iter()
                .filter(|row| row.verdict.is_some_and(|v| !v.2))
                .count(),
            1
        );
    }

    fn rows_fail(bound: f64) -> Vec<Row> {
        rows(&file(100.0, 10.0), &file(100.0 * (1.0 + bound * 2.0), 10.0)).unwrap()
    }

    #[test]
    fn files_without_results_are_refused() {
        assert!(rows(&Json::Null, &file(1.0, 1.0)).is_err());
    }
}
