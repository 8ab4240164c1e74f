//! `anatomy-bench`: one run of one benchmark workload.
//!
//! ```text
//! anatomy-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the named workload runs for `S` seconds with no
//! instrumentation and prints the end-to-end metrics; with `--trace 1`
//! the per-layer ladder runs (see `ladder.rs`) and prints the
//! per-layer metrics. Either way every metric is one
//! `workload<TAB>metric<TAB>value<TAB>unit` line and the last line of
//! stdout is the JSON object the benchmark contract asks for.
//! `benchmark/run.py` builds this binary and is the command to run;
//! `--list` and `--setup-probe` exist for it and for [`workloads`].

mod ladder;
mod metrics;
mod stats;
mod workloads;

use std::process::ExitCode;

/// What a run hands back to `main` for printing.
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Whether every correctness gate of the run passed.
    pub correct: bool,
    /// `(metric, value)` in table order.
    pub metrics: Vec<(String, f64)>,
}

/// The command line of one run.
pub struct RunArgs {
    pub workload: &'static metrics::Workload,
    pub seed: u64,
    pub seconds: f64,
}

fn value_of(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_run(args: &[String]) -> Result<(RunArgs, bool), String> {
    let name = value_of(args, "--workload").ok_or("--workload NAME is required")?;
    let workload = metrics::workload(&name).ok_or_else(|| {
        let known: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seed = match value_of(args, "--seed") {
        Some(v) => {
            v.parse::<u64>().map_err(|_| format!("--seed wants a whole number, got '{v}'"))?
        }
        None => 1,
    };
    let seconds = match value_of(args, "--seconds") {
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && *s <= 60.0)
            .ok_or_else(|| format!("--seconds wants a number in (0, 60], got '{v}'"))?,
        None => 10.0,
    };
    let trace = match value_of(args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace wants 0 or 1, got '{v}'")),
    };
    Ok((RunArgs { workload, seed, seconds }, trace))
}

/// Print the tables `BENCHMARK.json` must agree with.
fn list() {
    for w in &metrics::WORKLOADS {
        println!("workload\t{}", w.name);
    }
    for (name, unit) in metrics::END_TO_END {
        println!("end_to_end\t{name}\t{unit}");
    }
    for (name, unit) in metrics::per_layer() {
        println!("per_layer\t{name}\t{unit}");
    }
}

/// Print the report: one TSV line per metric, then the contract's JSON
/// object as the last line. The emitted names must be exactly the
/// declared table, in order — anything else is a bug in this program.
fn print_report(workload: &str, table: &[(String, &str)], report: &Report) {
    let emitted: Vec<&str> = report.metrics.iter().map(|m| m.0.as_str()).collect();
    let declared: Vec<&str> = table.iter().map(|m| m.0.as_str()).collect();
    assert_eq!(emitted, declared, "emitted metrics must match the declared table");
    let mut json = Vec::new();
    for ((name, value), (_, unit)) in report.metrics.iter().zip(table) {
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        println!("{workload}\t{name}\t{value}\t{unit}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        list();
        return ExitCode::SUCCESS;
    }
    if let Some(name) = value_of(&args, "--setup-probe") {
        return match metrics::workload(&name) {
            Some(w) => {
                println!("{}", workloads::setup_probe(w));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("anatomy-bench: unknown workload '{name}'");
                ExitCode::from(2)
            }
        };
    }
    let (run, trace) = match parse_run(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("anatomy-bench: {msg}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# host\tnproc={}\tjit={}\tvnni={}\tthreads={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        anatomy::jit::jit_available(),
        anatomy::machine::host::is_x86_feature_detected_vnni(),
        metrics::T,
    );
    eprintln!(
        "# run\tworkload={}\tseed={}\tseconds={}\ttrace={}",
        run.workload.name,
        run.seed,
        run.seconds,
        u8::from(trace),
    );
    if trace {
        let table = metrics::per_layer();
        print_report(run.workload.name, &table, &ladder::run(&run));
    } else {
        let table: Vec<(String, &str)> =
            metrics::END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        print_report(run.workload.name, &table, &workloads::run(&run));
    }
    ExitCode::SUCCESS
}
