//! Ablation — sharded execution (partition-local stores + real halo
//! exchange) vs persistent barrier workers, and executed vs modeled
//! exchange volume.
//!
//! The paper's future-work item 3 asks for multi-GPU / multi-computer
//! execution; `sharded:N` (the bounded-staleness executor at `k = 0`)
//! runs it for real: one worker per partition part, shard-local sweeps,
//! and a stage/reduce/broadcast halo exchange every iteration. This binary measures that path on the
//! two extreme graph families — an MPC-like chain (O(1) halo per seam)
//! and a packing-like all-pairs graph (every variable in the halo) — at
//! 1/2/4 shards, against `BarrierBackend` at the same thread count, and
//! checks the exchange bytes the backend actually moved against the
//! `gpusim::MultiDevice` prediction computed from the same
//! `HaloExchangePlan` on the same partition.
//!
//! Flags: `--smoke` (tiny sizes, CI), `--paper-scale` (larger sweeps),
//! `--trace <file>` (structured per-run telemetry JSON — residual
//! trajectory + per-pass timings — of a representative 4-shard chain
//! run).
//!
//! Emits `BENCH_sharded.json` (rows + partition-quality meta) and prints
//! PASS/FAIL for the two acceptance checks: sharded throughput ≥ barrier
//! throughput on the chain at 4 shards, and measured halo bytes within
//! 10% of the model prediction everywhere.

use paradmm_bench::{
    all_pairs_problem, chain_problem, parse_out_value, print_table, sharded_ablation,
    write_bench_json_with_meta_to, ShardedAblation,
};

struct Args {
    smoke: bool,
    paper_scale: bool,
    out: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        paper_scale: false,
        out: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--paper-scale" => args.paper_scale = true,
            "--out" => args.out = Some(parse_out_value(&mut it)),
            "--trace" => args.trace = Some(parse_out_value(&mut it)),
            "--help" | "-h" => {
                println!(
                    "flags: --smoke (tiny sizes for CI), --paper-scale (larger sweeps), \
                     --out <path> (BENCH json destination), --trace <file> (structured \
                     run-telemetry JSON destination)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // (chain length K, all-pairs N).
    let (chain_k, pairs_n) = if args.smoke {
        (60usize, 14usize)
    } else if args.paper_scale {
        (60_000, 700)
    } else {
        (12_000, 250)
    };
    let min_seconds = if args.smoke { 0.002 } else { 0.2 };
    const SHARDS: [usize; 3] = [1, 2, 4];

    let problems = [
        ("mpc_chain", chain_k, chain_problem(chain_k)),
        ("packing_allpairs", pairs_n, all_pairs_problem(pairs_n)),
    ];

    let mut json_rows = Vec::new();
    let mut meta = Vec::new();
    let mut table = Vec::new();
    let mut checks: Vec<(String, bool)> = Vec::new();
    for (label, size, problem) in &problems {
        let r: ShardedAblation = sharded_ablation(problem, label, *size, &SHARDS, min_seconds);
        for pt in &r.points {
            table.push(vec![
                (*label).to_string(),
                size.to_string(),
                pt.parts.to_string(),
                format!("{:.3e}", pt.sharded_s),
                format!("{:.3e}", pt.barrier_s),
                pt.stats.halo_vars.to_string(),
                pt.stats.cut_edges.to_string(),
                format!("{:.3}", pt.stats.edge_balance),
                format!("{:.0}", pt.measured_bytes),
                format!("{:.0}", pt.predicted_bytes),
            ]);
            if pt.parts > 1 {
                checks.push((
                    format!(
                        "{label}[{} shards]: measured halo bytes {:.0} within 10% of MultiDevice prediction {:.0}",
                        pt.parts, pt.measured_bytes, pt.predicted_bytes
                    ),
                    (pt.measured_bytes - pt.predicted_bytes).abs() <= 0.1 * pt.predicted_bytes,
                ));
            }
            if *label == "mpc_chain" && pt.parts == 4 {
                checks.push((
                    format!(
                        "{label}: sharded {:.3e} s/iter ≤ barrier {:.3e} s/iter at 4 shards",
                        pt.sharded_s, pt.barrier_s
                    ),
                    pt.sharded_s <= pt.barrier_s,
                ));
            }
        }
        json_rows.extend(r.rows);
        meta.extend(r.meta);
    }

    print_table(
        "Sharded ablation: partition-local execution vs barrier, exchange volume vs model",
        &[
            "problem",
            "size",
            "shards",
            "sharded_s_iter",
            "barrier_s_iter",
            "halo_vars",
            "cut_edges",
            "edge_balance",
            "measured_B",
            "predicted_B",
        ],
        &table,
    );

    println!();
    let mut all_pass = true;
    for (msg, pass) in &checks {
        println!("# {}: {msg}", if *pass { "PASS" } else { "FAIL" });
        all_pass &= *pass;
    }

    match write_bench_json_with_meta_to(args.out.as_deref(), "sharded", &json_rows, &meta) {
        Ok(path) => println!("# machine-readable series written to {}", path.display()),
        Err(e) => eprintln!("# failed to write BENCH json: {e}"),
    }

    if let Some(trace_path) = &args.trace {
        use paradmm_core::{run_trace_json, BackendSpec, Trace, UpdateTimings};
        use paradmm_graph::VarStore;
        let (label, _, problem) = &problems[0];
        let mut backend = BackendSpec::Sharded { parts: Some(4) }.to_backend();
        let mut store = VarStore::zeros(problem.graph());
        let mut timings = UpdateTimings::new();
        let mut trace = Trace::new();
        let total = if args.smoke { 60 } else { 400 };
        let mut done = 0usize;
        while done < total {
            let block = 20.min(total - done);
            backend.run_block(problem, &mut store, block, &mut timings);
            done += block;
            trace.record(done, problem, &store);
        }
        let doc = run_trace_json(&format!("{label}/sharded[4]"), &trace, &timings);
        match std::fs::write(trace_path, doc) {
            Ok(()) => println!(
                "# structured run telemetry written to {}",
                trace_path.display()
            ),
            Err(e) => eprintln!("# failed to write trace: {e}"),
        }
    }
    if !all_pass && !args.smoke {
        // Smoke sizes are too tiny for stable throughput comparisons;
        // only full-size runs enforce the acceptance checks (byte
        // equality holds at every size, timing ratios only at full size).
        std::process::exit(1);
    }
}
