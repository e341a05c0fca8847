//! Command-line entry: `--workload NAME --seed N --seconds S --trace 0|1`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::{Outcome, RunArgs};

const WORKLOADS: [&str; 4] = ["paper-cold", "hot-mix", "fleet-churn", "train-churn"];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join(",")
    );
    ExitCode::from(2)
}

/// The checked-out commit, read from `.git` without running git (the
/// benchmark reads nothing outside its checkout); `unknown` elsewhere.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let id = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(name).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        }),
    });
    id.filter(|s| s.len() >= 12 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .map_or_else(|| "unknown".into(), |s| s[..12].to_string())
}

fn json_str(s: &str) -> String {
    espresso_json::Json::Str(s.to_string()).render()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage();
    }

    let root = PathBuf::from(".bench_out");
    let work = root.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let args = RunArgs {
        seed,
        seconds,
        spans_out: root.join(format!("spans-{workload}.jsonl")),
        work: work.clone(),
        cache: root.clone(),
    };
    let mut out = Outcome::default();
    let run = match (workload.as_str(), trace) {
        ("paper-cold", false) => perfbench::paper_cold::run,
        ("paper-cold", true) => perfbench::paper_cold::run_traced,
        ("hot-mix", false) => perfbench::hot_mix::run,
        ("hot-mix", true) => perfbench::hot_mix::run_traced,
        ("fleet-churn", false) => perfbench::fleet_churn::run,
        ("fleet-churn", true) => perfbench::fleet_churn::run_traced,
        ("train-churn", false) => perfbench::train_churn::run,
        _ => perfbench::train_churn::run_traced,
    };
    run(&args, &mut out);
    let _ = std::fs::remove_dir_all(&work);

    let wanted: Vec<(String, &str)> = if trace {
        perfbench::per_layer()
    } else {
        perfbench::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in &wanted {
        let value = match out.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, v, _)) => *v,
            // A layer this workload never calls.
            None if trace => 0.0,
            None => {
                missing.push(name.clone());
                continue;
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let mut attempted: u64 = out.phases.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = out.phases.iter().map(|p| p.failed).sum::<u64>() + missing.len() as u64;
    if attempted == 0 {
        // Nothing ran at all: that is one failed operation, not a pass.
        attempted = 1;
        failed += 1;
    }
    let attempted = attempted.max(failed);
    let correct = failed == 0;

    let mut context = vec![
        ("workload".to_string(), json_str(&workload)),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), json_num(seconds)),
        ("trace".into(), trace.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "planner_threads".into(),
            espresso::EvalPool::from_env().workers().to_string(),
        ),
        ("commit".into(), json_str(&git_commit())),
        ("runs".into(), "1".into()),
    ];
    for (k, v) in &out.context {
        context.push((k.clone(), json_str(v)));
    }
    let phases: Vec<String> = out
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":{},\"attempted\":{},\"succeeded\":{},\"failed\":{},\"first_error\":{}}}",
                json_str(&p.name),
                p.attempted,
                p.attempted - p.failed,
                p.failed,
                p.first_error.as_deref().map_or("null".into(), json_str)
            )
        })
        .collect();
    context.push(("phases".into(), format!("[{}]", phases.join(","))));
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not produced: {}", missing.join(", "));
    }
    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"context\":{{{}}}}}", ctx.join(","));
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
