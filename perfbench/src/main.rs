//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <stabilize|churn|keyspace|kv-tcp> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--node-bin <path>]
//!           [--out-dir <dir>]
//! ```
//!
//! One workload per invocation, inputs generated from `--seed`, measured
//! for about `--seconds`. Every correctness gate runs before the result
//! is printed. The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Context (seed, host cores, commit, percentiles and sample counts) goes
//! to `<out-dir>/result-<workload>-<seed>-t<trace>.json`, and a traced
//! run's spans to `<out-dir>/spans-<workload>-<seed>.json`.
//!
//! The exit code is 0 only if every gate passed and no operation failed.

mod calib;
mod kvtcp;
mod probes;
mod report;
mod rounds;
mod stabilize;
mod stats;
mod sys;
mod trace;
mod traffic;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    node_bin: PathBuf,
    out_dir: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <stabilize|churn|keyspace|kv-tcp> --seed <n> \
         --seconds <s> --trace <0|1> [--smoke] [--node-bin <path>] [--out-dir <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let exe_dir = std::env::current_exe().ok().and_then(|p| p.parent().map(PathBuf::from));
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        node_bin: exe_dir.unwrap_or_default().join("node"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = v,
            "--seed" => args.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = v == "1",
            "--node-bin" => args.node_bin = PathBuf::from(v),
            "--out-dir" => args.out_dir = PathBuf::from(v),
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Writes a traced run's spans into the output directory.
pub fn write_spans(args: &Args, tracer: &trace::Tracer) {
    let path = args.out_dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir).and_then(|()| tracer.write(&path)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn main() {
    let args = parse_args();
    let mut out = Outcome::default();
    let t = Instant::now();
    match args.workload.as_str() {
        "stabilize" => stabilize::run(&args, &mut out),
        "churn" => traffic::run(traffic::Kind::Churn, &args, &mut out),
        "keyspace" => traffic::run(traffic::Kind::Keyspace, &args, &mut out),
        "kv-tcp" => kvtcp::run(&args, &mut out),
        _ => usage(),
    }
    let elapsed = t.elapsed().as_secs_f64();

    if out.attempted == 0 || out.setup_s.is_empty() || out.op_us.is_empty() {
        out.gate(format!("{}: nothing was measured", args.workload));
    }
    let metrics = if !out.errors.is_empty() && (out.setup_s.is_empty() || out.op_us.is_empty()) {
        Vec::new()
    } else if args.trace {
        out.per_layer()
    } else {
        out.end_to_end()
    };
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        out.gate(format!("metric {name} is not a finite number"));
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let line = report::result_json(correct, out.attempted.max(1), out.failed, &metrics);

    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("seconds", args.seconds);
    out.note("trace", args.trace);
    out.note("smoke", args.smoke);
    out.note("host_cores", sys::host_cores());
    out.note("commit", std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()));
    out.note("wall_s", elapsed);
    if !out.errors.is_empty() {
        out.note("errors", out.errors.join("; "));
    }
    for (k, v) in &out.info {
        println!("# {k}: {v}");
    }
    let path = args.out_dir.join(format!(
        "result-{}-{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, report::context_json(&line, &out.info)))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 });
}
