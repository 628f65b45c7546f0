//! `perf`: the repository's benchmark. See the README beside `Cargo.toml`.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--record FILE]
//! perf --check | --smoke
//! perf --compare A.json B.json
//! ```

mod compare;
mod layers;
mod load;
mod report;
mod run;
mod stats;
mod sys;
mod trace;
mod wire;
mod workloads;

use report::{as_f64, as_str, Json, MetricDef, RunResult, END_TO_END, PER_LAYER};
use run::{RunOptions, Scale};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{HttpClosed, SessionCold, SessionF32, SessionInt8, Workload};

#[global_allocator]
static ALLOCATOR: sys::CountingAllocator = sys::CountingAllocator;

const WORKLOADS: [&str; 4] = [
    SessionF32::NAME,
    SessionInt8::NAME,
    SessionCold::NAME,
    HttpClosed::NAME,
];

fn run_named(workload: &str, options: &RunOptions) -> Result<RunResult, String> {
    match workload {
        SessionF32::NAME => run::run::<SessionF32>(options),
        SessionInt8::NAME => run::run::<SessionInt8>(options),
        SessionCold::NAME => run::run::<SessionCold>(options),
        HttpClosed::NAME => run::run::<HttpClosed>(options),
        other => Err(format!(
            "unknown workload {other}; the workloads are {}",
            WORKLOADS.join(", ")
        )),
    }
}

fn span_file(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.json"))
}

const USAGE: &str = "usage:
  perf --workload NAME --seed N --seconds S --trace 0|1 [--out SPANS.json] [--record RUNS.json]
  perf --check [--manifest BENCHMARK.json]   every workload at two blocks, traced and not
  perf --smoke [--manifest BENCHMARK.json]   the same in under 20 s: 128 px models at 64 px, one traced run
  perf --compare A.json B.json               two files written by --record";

struct Args {
    flags: Vec<(String, Vec<String>)>,
}

impl Args {
    /// Every `--flag` with the values that follow it.
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags: Vec<(String, Vec<String>)> = Vec::new();
        for arg in args {
            match (arg.strip_prefix("--"), flags.last_mut()) {
                (Some(flag), _) => flags.push((flag.to_string(), Vec::new())),
                (None, Some((_, values))) => values.push(arg),
                (None, None) => return Err(format!("unexpected argument {arg}")),
            }
        }
        Ok(Args { flags })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn values(&self, flag: &str, count: usize) -> Result<Option<&[String]>, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, values)) if values.len() == count => Ok(Some(values)),
            Some(_) => Err(format!("--{flag} takes {count} value(s)")),
        }
    }

    fn one<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.values(flag, 1)? {
            None => Ok(None),
            Some(values) => values[0]
                .parse()
                .map(Some)
                .map_err(|_| format!("--{flag}: cannot read {}", values[0])),
        }
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.one(flag)?
            .ok_or_else(|| format!("--{flag} is required"))
    }
}

fn main() -> ExitCode {
    // The engine reads these; the benchmark's numbers must not depend on the
    // caller's shell. No other thread exists yet.
    for variable in ["MNN_TUNE_CACHE", "MNN_SIMD", "MNN_TRACE", "MNN_LOG"] {
        std::env::remove_var(variable);
    }
    sys::use_one_heap_arena();
    match dispatch() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let within = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    if let Some(files) = args.values("compare", 2)? {
        return compare::compare(&files[0], &files[1]).map(within);
    }
    let manifest = args
        .one::<PathBuf>("manifest")?
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    if args.has("check") {
        return check(Scale::brief(1.0, usize::MAX), &WORKLOADS, &manifest).map(within);
    }
    if args.has("smoke") {
        // Every traced run probes every layer, which takes 5 s however short
        // the blocks; one of them shows every per-layer metric.
        return check(Scale::brief(0.6, 64), &[SessionCold::NAME], &manifest).map(within);
    }
    if !args.has("workload") {
        return Err(USAGE.to_string());
    }

    let workload: String = args.required("workload")?;
    let seconds: u64 = args.required("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_string());
    }
    let traced = match args.required::<u8>("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".to_string()),
    };
    let options = RunOptions {
        seed: args.required("seed")?,
        scale: Scale::for_seconds(seconds),
        traced,
        out: args.one("out")?.unwrap_or_else(|| span_file(&workload)),
    };
    let result = run_named(&workload, &options)?;
    if let Some(path) = args.one::<PathBuf>("record")? {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", result.record()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", result.table());
    println!("{}", result.json());
    Ok(ExitCode::SUCCESS)
}

/// Run every workload briefly untraced, and those of `traced_workloads` traced
/// too. A
/// run already fails unless it measured every declared metric exactly once;
/// here the outputs must also be correct and `BENCHMARK.json`, when present,
/// must declare what the code declares.
fn check(scale: Scale, traced_workloads: &[&str], manifest: &Path) -> Result<bool, String> {
    let mut ok = true;
    match std::fs::read_to_string(manifest) {
        Ok(text) => {
            for problem in manifest_problems(&text)? {
                eprintln!("{}: {problem}", manifest.display());
                ok = false;
            }
        }
        Err(e) => eprintln!("{}: {e}; not compared", manifest.display()),
    }
    for workload in WORKLOADS {
        for traced in [false, true] {
            if traced && !traced_workloads.contains(&workload) {
                continue;
            }
            let options = RunOptions {
                seed: 1,
                scale,
                traced,
                out: span_file(workload),
            };
            let start = std::time::Instant::now();
            let result = run_named(workload, &options)?;
            println!(
                "{workload} --trace {} ({:.1} s)",
                u8::from(traced),
                start.elapsed().as_secs_f64()
            );
            print!("{}", result.table());
            if !result.correct() {
                eprintln!(
                    "{workload}: {} of {} ops failed",
                    result.failed, result.attempted
                );
                ok = false;
            }
        }
    }
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    Ok(ok)
}

/// Where `BENCHMARK.json` and the tables in `report.rs` disagree.
fn manifest_problems(text: &str) -> Result<Vec<String>, String> {
    let Json(manifest) = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let mut problems = Vec::new();
    let list = |key: &str| match manifest.get(key) {
        Some(serde::Value::Seq(items)) => items.clone(),
        _ => Vec::new(),
    };
    let names: Vec<String> = list("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(as_str).map(str::to_string))
        .collect();
    if names != WORKLOADS {
        problems.push(format!(
            "workloads are {names:?}, the code has {WORKLOADS:?}"
        ));
    }
    let mut compare = |key: &str, declared: &[MetricDef]| {
        let listed = list(key);
        if listed.len() != declared.len() {
            problems.push(format!(
                "{key} lists {} metrics, the code declares {}",
                listed.len(),
                declared.len()
            ));
        }
        for def in declared {
            let Some(entry) = listed
                .iter()
                .find(|m| m.get("name").and_then(as_str) == Some(def.name))
            else {
                problems.push(format!("{key} lacks {}", def.name));
                continue;
            };
            if entry.get("unit").and_then(as_str) != Some(def.unit) {
                problems.push(format!("{}: unit is not {}", def.name, def.unit));
            }
            if entry.get("better").and_then(as_str) != Some(def.better.as_str()) {
                problems.push(format!(
                    "{}: better is not {}",
                    def.name,
                    def.better.as_str()
                ));
            }
            if entry.get("bound").and_then(as_f64) != def.bound {
                problems.push(format!("{}: bound is not {:?}", def.name, def.bound));
            }
        }
    };
    compare("end_to_end", &END_TO_END);
    compare("per_layer", &PER_LAYER);
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_collect_their_values() {
        let args = Args::parse(
            [
                "--workload",
                "w",
                "--seed",
                "7",
                "--compare",
                "a",
                "b",
                "--check",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.required::<String>("workload").unwrap(), "w");
        assert_eq!(args.required::<u64>("seed").unwrap(), 7);
        assert_eq!(args.values("compare", 2).unwrap().unwrap().len(), 2);
        assert!(args.has("check") && !args.has("smoke"));
        assert!(args.required::<u64>("seconds").is_err());
        assert!(args.values("compare", 1).is_err());
        assert!(Args::parse(["stray".to_string()].into_iter()).is_err());
    }

    #[test]
    fn the_manifest_must_declare_what_the_code_declares() {
        let metric = |d: &MetricDef| {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b:?}"));
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        };
        let manifest = |end_to_end: &[MetricDef]| {
            format!(
                "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
                WORKLOADS
                    .map(|w| format!("{{\"name\": \"{w}\", \"why\": \"\"}}"))
                    .join(", "),
                end_to_end.iter().map(metric).collect::<Vec<_>>().join(", "),
                PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(", "),
            )
        };
        assert_eq!(
            manifest_problems(&manifest(&END_TO_END)).unwrap(),
            Vec::<String>::new()
        );
        let mut wrong = END_TO_END;
        wrong[1].unit = "s";
        wrong[2].bound = Some(0.01);
        let problems = manifest_problems(&manifest(&wrong[..4])).unwrap();
        assert_eq!(problems.len(), 4, "{problems:?}");
    }
}
