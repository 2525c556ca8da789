//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name, with its unit and
//! sample count, then the provenance, then one JSON result line.

use perfbench::e2e;
use perfbench::layers;
use perfbench::provenance::Provenance;
use perfbench::report::Report;
use perfbench::workloads::{Shape, Workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) || args.seconds.is_nan() || args.seconds <= 0.0
    {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let provenance = Provenance::collect();
    let serve = args.workload == "serve-mpc";
    let schedule_s = if serve {
        e2e::serve_schedule_s(args.seconds)
    } else {
        0.0
    };
    let w = Workload::generate(&args.workload, args.seed, schedule_s)
        .expect("workload name checked by parse_args");

    let mut report = Report::default();
    let shape = Shape::measure(&w);
    report.note(format!(
        "workload {} seed {} ({}): {}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        w.why
    ));
    report.note(format!(
        "shape: {} requests, {} distinct problems, {} edges ({}..{} per problem), dims mix {:?}, \
         critical {:.4}, fleet lane {:.4}, cache repeats {:.4}, schedule {:.1} s",
        shape.requests,
        shape.problems,
        shape.edges,
        shape.edges_min_max.0,
        shape.edges_min_max.1,
        shape.dims_mix,
        shape.critical_share,
        shape.fleet_lane_share,
        shape.repeat_share,
        w.schedule_s
    ));

    if args.trace {
        layers::run_traced(&w, args.seed, &mut report);
    } else if serve {
        e2e::run_serve(&w, args.seconds, &mut report);
    } else {
        e2e::run_offline(&w, args.seconds, &mut report);
    }
    report.print(&provenance);
}
