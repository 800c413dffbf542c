//! End-to-end and per-layer benchmark of the burst-snn serving stack and
//! batched evaluator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mlp_tcp --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured untraced; with `--trace 1`
//! the run is repeated with profiling and request tracing on and the
//! metrics are the per-layer set, including the tracing overhead. The
//! seed only picks and orders inputs. Exits nonzero when any output
//! differs from the scalar oracle. See `NOTES.md` for why each workload
//! and metric exists.

mod eval;
mod layers;
mod load;
mod models;
mod serve;
mod stats;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The run's counts and every metric it measured, by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    values: HashMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The result line: every metric of `table` in order. A per-layer
    /// metric the workload has no layer for reads 0; an end-to-end one
    /// missing is a bug, reported as 0 with a warning.
    fn to_json<'a>(
        &self,
        table: impl Iterator<Item = (&'a str, &'a str)>,
        required: bool,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in table.enumerate() {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    eprintln!("warning: metric {name} is not finite; reported as 0");
                    0.0
                }
                None => {
                    if required {
                        eprintln!("warning: metric {name} was not measured; reported as 0");
                    }
                    0.0
                }
            };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad("1 to 600 seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

const USAGE: &str =
    "usage: perfbench --workload <serve_mlp_tcp|serve_vgg_inproc|eval_vggsmall_rate> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = match args.workload.as_str() {
        "serve_mlp_tcp" => serve::run(&serve::MLP_TCP, args.seed, args.seconds, args.trace),
        "serve_vgg_inproc" => serve::run(&serve::VGG_INPROC, args.seed, args.seconds, args.trace),
        "eval_vggsmall_rate" => eval::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = if args.trace {
        let table = layers::per_layer();
        report.to_json(table.iter().map(|(n, u)| (n.as_str(), *u)), false)
    } else {
        report.to_json(layers::END_TO_END.iter().copied(), true)
    };
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} outputs differ from the oracle", report.mismatches);
        ExitCode::FAILURE
    }
}
