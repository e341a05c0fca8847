//! `espresso-audit` — run the verification layer from the command line.
//!
//! ```text
//! espresso-audit all                        # every step (the CI gate)
//! espresso-audit oracle  [--jobs 200] [--bound 0.10] [--faulted-bound 0.75]
//! espresso-audit invariants
//! espresso-audit goldens [--dir tests/goldens] [--update]
//! espresso-audit serve
//! espresso-audit adapt   [--jobs 60] [--bound 0.10]
//! espresso-audit decide  [--jobs 200]
//! ```
//!
//! Each step prints its wall-clock time; any failure exits 1 after
//! printing a minimized reproduction (oracle) or a located byte diff
//! (goldens).

use std::path::PathBuf;
use std::process::ExitCode;

use espresso_audit::{adapt, corpus, decide, goldens, serve_check, sweep, StepTimer};

struct Args {
    command: String,
    jobs: Option<usize>,
    bound: Option<f64>,
    faulted_bound: Option<f64>,
    dir: Option<PathBuf>,
    update: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        jobs: None,
        bound: None,
        faulted_bound: None,
        dir: None,
        update: false,
    };
    let mut it = std::env::args().skip(1);
    match it.next() {
        Some(c) if ["oracle", "invariants", "goldens", "serve", "adapt", "decide", "all"]
            .contains(&c.as_str()) =>
        {
            args.command = c;
        }
        Some(c) => return Err(format!("unknown command {c:?}")),
        None => return Err("missing command".into()),
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match flag.as_str() {
            "--jobs" => args.jobs = Some(value("--jobs")?.parse().map_err(|e| format!("--jobs: {e}"))?),
            "--bound" => args.bound = Some(value("--bound")?.parse().map_err(|e| format!("--bound: {e}"))?),
            "--faulted-bound" => {
                args.faulted_bound =
                    Some(value("--faulted-bound")?.parse().map_err(|e| format!("--faulted-bound: {e}"))?);
            }
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            "--update" => args.update = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn oracle_step(args: &Args) -> bool {
    let timer = StepTimer::start("oracle sweep");
    let mut config = sweep::SweepConfig::default();
    if let Some(jobs) = args.jobs {
        config.jobs = jobs;
    }
    if let Some(bound) = args.bound {
        config.bound = bound;
    }
    if let Some(bound) = args.faulted_bound {
        config.faulted_bound = bound;
    }
    let report = sweep::run(&config);
    if let Some((gap, case)) = report.worst() {
        println!(
            "   {} cases, {} oracle evaluations, worst gap {:.2}% ({case})",
            report.results.len(),
            report.evaluated(),
            gap * 100.0
        );
    }
    for repro in &report.failures {
        println!("   minimized reproduction:\n{}", repro.render());
    }
    timer.finish(report.ok())
}

fn invariants_step() -> bool {
    let timer = StepTimer::start("timeline invariants");
    let report = corpus::run(&corpus::CorpusConfig::default());
    println!(
        "   {} timelines audited, {} spans, {} dirty",
        report.audited,
        report.spans,
        report.dirty.len()
    );
    for dirty in &report.dirty {
        println!("   {}:", dirty.trace);
        for v in &dirty.violations {
            println!("     {v}");
        }
    }
    timer.finish(report.ok())
}

fn goldens_step(args: &Args) -> bool {
    let dir = args.dir.clone().unwrap_or_else(goldens::default_dir);
    if args.update {
        let timer = StepTimer::start("golden regeneration");
        let mut ok = true;
        for case in goldens::cases() {
            match goldens::update(&case, &dir) {
                Ok(path) => println!("   wrote {}", path.display()),
                Err(e) => {
                    println!("   {}: {e}", case.label());
                    ok = false;
                }
            }
        }
        return timer.finish(ok);
    }
    let timer = StepTimer::start("golden traces");
    let mut ok = true;
    for case in goldens::cases() {
        if let Err(diff) = goldens::check(&case, &dir) {
            println!("   {} diverged: {}", diff.case.label(), diff.message);
            ok = false;
        }
        // Also re-run the selection itself (fast planner): the snapshot
        // must pin the planner's decisions, not just the simulator's
        // timing.
        if let Err(diff) = goldens::check_selection(&case, &dir) {
            println!("   {} selection diverged: {}", diff.case.label(), diff.message);
            ok = false;
        }
    }
    if ok {
        println!(
            "   {} snapshots match byte-for-byte (simulation and re-selection)",
            goldens::cases().len()
        );
    }
    timer.finish(ok)
}

fn adapt_step(args: &Args) -> bool {
    let timer = StepTimer::start("ratio-aware oracle");
    let mut config = adapt::AdaptConfig::default();
    if let Some(jobs) = args.jobs {
        config.jobs = jobs;
    }
    if let Some(bound) = args.bound {
        config.bound = bound;
    }
    let report = adapt::run(&config);
    if let Some((gap, case)) = report.worst() {
        println!(
            "   {} cases, {} oracle evaluations, worst gap {:.2}% ({case})",
            report.results.len(),
            report.evaluated(),
            gap * 100.0
        );
    }
    for failure in &report.failures {
        println!(
            "   FAILED {}: allocator {:.4}s vs oracle {:.4}s ({:+.2}% > {:.0}% bound)",
            failure.case,
            failure.allocator_time,
            failure.oracle_time,
            failure.gap() * 100.0,
            report.bound * 100.0,
        );
    }
    timer.finish(report.ok())
}

fn decide_step(args: &Args) -> bool {
    let timer = StepTimer::start("planner fast-path differential");
    let mut config = decide::DecideConfig::default();
    if let Some(jobs) = args.jobs {
        config.jobs = jobs;
    }
    let report = decide::run(&config);
    let (nominal, degraded, faulted, ratio) = report.coverage();
    let widths: Vec<String> = decide::fast_pools()
        .iter()
        .map(|pool| pool.workers().to_string())
        .collect();
    println!(
        "   {} cases ({nominal} nominal, {degraded} degraded, {faulted} faulted; {ratio} ratio-bearing), fast path at width {}, {} fast-path simulations, {} divergences",
        report.results.len(),
        widths.join(" and "),
        report.fast_simulations(),
        report.failures.len(),
    );
    for repro in &report.failures {
        println!("   divergence reproduction:\n{}", repro.render());
    }
    println!(
        "   warm-start sweep: {} base requests, {} memo hits / {} misses, {} warm-vs-cold divergences",
        report.warm.cases,
        report.warm.hits,
        report.warm.misses,
        report.warm.mismatches.len(),
    );
    for mismatch in &report.warm.mismatches {
        println!("   warm divergence: {mismatch}");
    }
    timer.finish(report.ok())
}

fn serve_step() -> bool {
    let timer = StepTimer::start("serve equivalence");
    match serve_check::run() {
        Ok(report) => {
            println!(
                "   nominal body {} bytes; degraded body differs: {}",
                report.body_len, report.degraded_differs
            );
            timer.finish(report.degraded_differs)
        }
        Err(e) => {
            println!("   {e}");
            timer.finish(false)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("espresso-audit: {e}");
            eprintln!("usage: espresso-audit <oracle|invariants|goldens|serve|adapt|decide|all> [--jobs N] [--bound X] [--faulted-bound X] [--dir PATH] [--update]");
            return ExitCode::from(2);
        }
    };
    let total = std::time::Instant::now();
    let ok = match args.command.as_str() {
        "oracle" => oracle_step(&args),
        "invariants" => invariants_step(),
        "goldens" => goldens_step(&args),
        "serve" => serve_step(),
        "adapt" => adapt_step(&args),
        "decide" => decide_step(&args),
        _ => {
            let mut ok = oracle_step(&args);
            ok &= invariants_step();
            ok &= goldens_step(&args);
            ok &= serve_step();
            ok &= adapt_step(&args);
            ok &= decide_step(&args);
            ok
        }
    };
    println!(
        "audit {} in {:.2}s",
        if ok { "OK" } else { "FAILED" },
        total.elapsed().as_secs_f64()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
