//! `pipeline`: what one envelope costs on its way sender → receiver, end to
//! end and layer by layer. See `examples/pipeline/README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path examples/pipeline/Cargo.toml -- --json out.json
//! ```
//!
//! With `--workload <name>` the process runs that one workload itself and
//! prints its result as the last line of standard output (the interface
//! `BENCHMARK.json` names). Without it, the process re-executes itself once
//! per workload and run mode, so allocator state and `peak_rss_mib` are per
//! workload, and prints the combined table.

mod fixture;
mod probe;
mod relay;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use spec::{WorkloadKind, DEFAULT_SEED, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "usage: pipeline [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--smoke] [--json <path>] [--check-repeat] [--list] [--verify-manifest <path>]";

/// Command-line options; every run mode reads the same set.
pub struct Options {
    pub workload: Option<WorkloadKind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub json: Option<String>,
    pub check_repeat: bool,
    pub list: bool,
    pub verify_manifest: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        json: None,
        check_repeat: false,
        list: false,
        verify_manifest: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(WorkloadKind::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => o.smoke = true,
            "--json" => o.json = Some(value()?.clone()),
            "--check-repeat" => o.check_repeat = true,
            "--list" => o.list = true,
            "--verify-manifest" => o.verify_manifest = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "pipeline: {e}\n{USAGE}\nseeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}"
            );
            return ExitCode::from(2);
        }
    };
    let result = if options.list {
        print!("{}", spec::manifest());
        Ok(true)
    } else if let Some(path) = &options.verify_manifest {
        run::verify_manifest(path)
    } else if let Some(kind) = options.workload {
        run::child(kind, &options)
    } else if options.check_repeat {
        run::check_repeat(&options)
    } else {
        run::parent(&options).map(|set| set.correct)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pipeline: {e}");
            ExitCode::FAILURE
        }
    }
}
