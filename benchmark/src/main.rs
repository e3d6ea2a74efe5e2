//! `linkbench`: one benchmark for learn / match / serve.
//!
//! * `linkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!   runs one workload in this process and prints one JSON result line last
//!   (the form `BENCHMARK.json`'s command is run in);
//! * `linkbench run [...]` runs every workload, each in a child process,
//!   prints every metric as `name workload value unit`, writes
//!   `out/result.json` and exits non-zero on a failed check;
//! * `linkbench compare A.json B.json` judges two result files against the
//!   bounds;
//! * `linkbench benchmark-json` prints `BENCHMARK.json`, and `linkbench
//!   tables` the README's tables, from the tables in `spec.rs`.
//!
//! See `README.md` beside this package.

mod adapter;
mod host;
mod json;
mod layers;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use workloads::{Ctx, Outcome};

/// Flags shared by the single-workload form and `run`.
pub struct Options {
    pub seed: u64,
    /// Length of the measured phase: `--seconds`, else 25 (1 under
    /// `--smoke`).
    pub seconds: f64,
    /// `--threads`, else 1: on the shared two-core host a second busy
    /// thread waits for a core as often as it gets one (identical 20 s runs
    /// of `learn_gen` read within 8 % of one another at 1 thread and 21 %
    /// apart at 2).
    pub threads: usize,
    pub trace: bool,
    pub smoke: bool,
    /// Parent of the store directories; default `<home>/out/stores`.
    pub dir: Option<PathBuf>,
    pub workload: Option<String>,
    /// `run` only: restrict to these workloads.
    pub only: Vec<String>,
    /// `run` only: how many times each workload runs (seeds `seed`,
    /// `seed + 1`, …).
    pub runs: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 42,
            seconds: 25.0,
            threads: 1,
            trace: false,
            smoke: false,
            dir: None,
            workload: None,
            only: Vec::new(),
            runs: 1,
        }
    }
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options::default();
        let mut seconds_given = false;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
                text.parse()
                    .map_err(|_| format!("{flag}: cannot read {text:?}"))
            }
            match flag.as_str() {
                "--workload" => options.workload = Some(value()?),
                "--seed" => options.seed = number(flag, value()?)?,
                "--seconds" => {
                    options.seconds = number(flag, value()?)?;
                    seconds_given = true;
                }
                "--threads" => options.threads = number(flag, value()?)?,
                "--runs" => options.runs = number(flag, value()?)?,
                "--dir" => options.dir = Some(PathBuf::from(value()?)),
                "--only" => options.only.push(value()?),
                "--smoke" => options.smoke = true,
                // `--trace` alone (as in `run --trace`) or `--trace 0|1`
                "--trace" => match args.clone().next().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        options.trace = false;
                    }
                    Some("1") => {
                        args.next();
                        options.trace = true;
                    }
                    _ => options.trace = true,
                },
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if options.smoke && !seconds_given {
            options.seconds = 1.0;
        }
        if options.threads == 0 {
            return Err("--threads must be at least 1 (0 would mean all cores)".to_string());
        }
        if !(options.seconds > 0.0 && options.seconds <= 600.0) {
            return Err("--seconds must lie in (0, 600]".to_string());
        }
        if options.runs == 0 {
            return Err("--runs must be at least 1".to_string());
        }
        Ok(options)
    }
}

/// The benchmark's own directory: where `out/` lives.  `run.sh` exports it;
/// a bare `cargo run` falls back to the manifest directory it was built in.
pub fn home() -> PathBuf {
    std::env::var_os("LINKBENCH_HOME")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn run_workload(name: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    use workloads::{learn, matching, run_end_to_end, run_traced, serve, Workload};
    fn go<W: Workload>(name: &str, ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
        if trace {
            run_traced::<W>(ctx, name, &home().join("out"))
        } else {
            run_end_to_end::<W>(ctx)
        }
    }
    match name {
        "learn_gen" => go::<learn::LearnGen>(name, ctx, trace),
        "learn_steady" => go::<learn::LearnSteady>(name, ctx, trace),
        "match_dense" => go::<matching::MatchDense>(name, ctx, trace),
        "match_sparse" => go::<matching::MatchSparse>(name, ctx, trace),
        "match_stream" => go::<matching::MatchStream>(name, ctx, trace),
        "serve_read" => go::<serve::ServeRead>(name, ctx, trace),
        "serve_churn" => go::<serve::ServeChurn>(name, ctx, trace),
        "serve_recover" => go::<serve::ServeRecover>(name, ctx, trace),
        other => Err(format!(
            "unknown workload {other:?}; the workloads are {}",
            spec::WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// Runs one workload in this process; prints host facts, notes, every
/// metric as `name workload value unit`, and the JSON result line last.
/// A failed check is reported in that line (`correct`, `failed`), not in
/// the exit code: the exit code says whether there is a result to read.
fn single(options: &Options, workload: &str) -> Result<bool, String> {
    let dir = options
        .dir
        .clone()
        .unwrap_or_else(|| home().join("out").join("stores"));
    std::fs::create_dir_all(&dir)
        .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    let ctx = Ctx {
        seed: options.seed,
        seconds: options.seconds,
        threads: options.threads,
        size: if options.smoke { 0.1 } else { 1.0 },
        dir,
    };
    println!(
        "# host: {} cores, {} threads used, store directory {} on {}",
        host::cores(),
        ctx.threads,
        ctx.dir.display(),
        host::filesystem_of(&ctx.dir)
    );
    println!(
        "# {workload}: seed {}, {} s measured, trace {}{}",
        ctx.seed,
        ctx.seconds,
        u8::from(options.trace),
        if options.smoke {
            ", smoke (1/10 size, not for claims)"
        } else {
            ""
        }
    );
    let outcome = run_workload(workload, &ctx, options.trace)?;
    for note in &outcome.notes {
        println!("# {note}");
    }
    for message in &outcome.checks.messages {
        println!("# FAILED CHECK: {message}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name} {workload} {value} {unit}");
    }
    let correct = outcome.checks.failed == 0;
    let line = Json::object([
        ("correct", Json::Bool(correct)),
        (
            "attempted",
            Json::Number(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Json::Number(outcome.checks.failed as f64)),
        (
            "metrics",
            Json::object(outcome.metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Json::object([
                        ("value", Json::Number(*value)),
                        ("unit", Json::String(unit.to_string())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(true)
}

/// `BENCHMARK.json` as the tables in `spec.rs` state it.
fn benchmark_json() -> Json {
    let strings =
        |items: &[&str]| Json::Array(items.iter().map(|s| Json::String(s.to_string())).collect());
    Json::object([
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Number(Options::default().seconds)),
        (
            "workloads",
            Json::Array(
                spec::gated()
                    .map(|workload| {
                        Json::object([
                            ("name", Json::String(workload.name.to_string())),
                            ("why", Json::String(workload.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                spec::END_TO_END
                    .iter()
                    .map(|metric| {
                        Json::object([
                            ("name", Json::String(metric.name.to_string())),
                            ("unit", Json::String(metric.unit.to_string())),
                            ("better", Json::String(metric.better.as_str().to_string())),
                            ("bound", Json::Number(metric.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                spec::PER_LAYER
                    .iter()
                    .map(|metric| {
                        Json::object([
                            ("name", Json::String(metric.name.to_string())),
                            ("unit", Json::String(metric.unit.to_string())),
                            ("better", Json::String(metric.better.as_str().to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The README's workload and metric tables, as markdown.
fn tables() -> String {
    let mut out = String::from("| workload | gated | what it runs and why |\n|---|---|---|\n");
    for workload in &spec::WORKLOADS {
        out += &format!(
            "| `{}` | {} | {} |\n",
            workload.name,
            if workload.gated { "yes" } else { "no" },
            workload.why
        );
    }
    out += "\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n";
    for metric in &spec::END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound * 100.0
        );
    }
    out += "\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n";
    for metric in spec::PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.moves
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Options::parse(&args[1..]).and_then(|options| suite::run(&options)),
        Some("benchmark-json") => {
            print!("{}", benchmark_json().render_pretty());
            Ok(true)
        }
        Some("tables") => {
            print!("{}", tables());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: linkbench compare A.json B.json".to_string()),
        },
        _ => Options::parse(&args).and_then(|options| match options.workload.clone() {
            Some(workload) => single(&options, &workload),
            None => Err(
                "usage: linkbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                 | run [flags] | compare A.json B.json"
                    .to_string(),
            ),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("linkbench: {message}");
            ExitCode::from(2)
        }
    }
}
