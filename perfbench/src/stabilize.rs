//! `stabilize`: paper §5 at its largest size. Random weakly connected
//! initial states of 105 peers, run one trial after another to the
//! fixpoint; every trial must converge and audit clean against the
//! oracle topology.

use crate::calib::Speed;
use crate::probes;
use crate::report::Outcome;
use crate::rounds::{timed_engine, RoundLedger};
use crate::sys;
use crate::trace::Tracer;
use crate::Args;
use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::IdSpace;
use rechord_net::NetMsg;
use rechord_topology::TopologyKind;
use rechord_workload::{TrafficConfig, TrafficGen};
use std::time::{Duration, Instant};

/// Peers per trial (the paper's largest size).
const PEERS: usize = 105;
const SMOKE_PEERS: usize = 15;
/// Rounds a trial may take before it counts as not converged. Trials of
/// 105 peers take about 60.
const MAX_ROUNDS: u64 = 5_000;
/// Untraced runs keep starting trials until this many rounds are timed,
/// so the p99 round time has ten samples beyond it.
const MIN_ROUNDS: usize = 1_000;
/// Requests routed over each stable overlay by the routing probe.
const ROUTE_SAMPLE: u64 = 200;

struct Trial {
    seed: u64,
    peers: usize,
}

impl Trial {
    fn network(&self) -> ReChordNetwork {
        let topo = TopologyKind::Random.generate(self.peers, self.seed);
        ReChordNetwork::from_topology(&topo, 1)
    }
}

/// What the untraced rounds of a trial measured.
struct Plain {
    /// Rounds to the fixpoint.
    rounds: u64,
    /// Raw wall seconds of all rounds.
    raw_s: f64,
    /// Rounds the hypervisor stole no CPU time in, and their reference
    /// seconds; only these count toward the end-to-end numbers.
    clean: u64,
    clean_s: f64,
}

/// Untraced trial: every round timed on the program's own network type,
/// with one calibration pass before each. Pushes each clean round's time
/// in reference µs; returns `None` if the trial did not converge within
/// `MAX_ROUNDS`.
fn run_plain(
    net: &mut ReChordNetwork,
    speed: &mut Speed,
    round_us: &mut Vec<f64>,
) -> Option<Plain> {
    let mut p = Plain { rounds: 0, raw_s: 0.0, clean: 0, clean_s: 0.0 };
    for r in 1..=MAX_ROUNDS {
        speed.sample(1);
        let steal = sys::steal_ticks();
        let t = Instant::now();
        let out = net.round();
        let raw = t.elapsed().as_secs_f64();
        p.raw_s += raw;
        if sys::steal_ticks() == steal {
            let scaled = speed.scale(raw);
            p.clean += 1;
            p.clean_s += scaled;
            round_us.push(scaled * 1e6);
        }
        if !out.changed {
            p.rounds = r;
            return Some(p);
        }
    }
    None
}

fn audit_gate(net: &ReChordNetwork, trial: &Trial, out: &mut Outcome) {
    if !net.audit().is_clean() {
        out.gate(format!(
            "stabilize: trial seed {:#x} fixpoint fails the oracle audit",
            trial.seed
        ));
    }
}

/// Runs the workload; `args.trace` selects the traced variant.
pub fn run(args: &Args, out: &mut Outcome) {
    let peers = if args.smoke { SMOKE_PEERS } else { PEERS };
    let min_rounds = if args.smoke || args.trace { 0 } else { MIN_ROUNDS };
    let budget = Duration::from_secs_f64(args.seconds);
    // When stolen CPU time leaves too few clean rounds at the end of the
    // budget, trials go on for at most this much longer; after that the
    // run reports the clean rounds it has. Convergence is judged by round
    // count alone, never by wall time.
    let overtime = budget + Duration::from_secs(40);
    let mut tracer = Tracer::new(args.trace);
    let mut ledger = RoundLedger::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut final_states: Vec<NetMsg> = Vec::new();
    let mut hops = Vec::new();
    let mut speed = Speed::default();
    speed.sample(5);
    let start = Instant::now();
    let mut k = 0u64;
    let mut total_rounds = 0u64;
    while k == 0
        || start.elapsed() < budget
        || (out.op_us.len() < min_rounds && start.elapsed() < overtime)
    {
        let trial = Trial { seed: mix(&[args.seed, k]), peers };
        k += 1;
        out.attempted += 1;
        tracer.set_run(k);
        let t = Instant::now();
        let mut net = trial.network();
        out.setup_s.push(speed.scale(t.elapsed().as_secs_f64()));
        let Some(plain) = run_plain(&mut net, &mut speed, &mut out.op_us) else {
            out.gate(format!("stabilize: trial seed {:#x} did not converge", trial.seed));
            continue;
        };
        let rounds = plain.rounds;
        total_rounds += rounds;
        out.ops += plain.clean as f64;
        out.ops_time_s += plain.clean_s;
        audit_gate(&net, &trial, out);
        if !args.trace {
            continue;
        }
        // Traced twin of the same trial: same initial state on the timed
        // engine. It must take the same rounds to the same fixpoint.
        plain_s += plain.raw_s;
        let span = tracer.begin("trial", None);
        let setup = tracer.begin("core.bootstrap", span);
        let t = Instant::now();
        let mut engine = timed_engine(&trial.network());
        out.layers.add("core.bootstrap_s", t.elapsed().as_secs_f64());
        tracer.end(setup);
        let before = ledger.round_s();
        let (converged, traced_rounds) =
            ledger.run_to_fixpoint(&mut engine, MAX_ROUNDS, &mut tracer, span);
        traced_s += ledger.round_s() - before;
        tracer.end(span);
        let same = converged && traced_rounds == rounds && engine.iter().eq(net.engine().iter());
        if !same {
            out.gate(format!("stabilize: traced twin of trial seed {:#x} diverged", trial.seed));
        }
        // Probes on this trial's stable overlay: routing, and the state
        // frames the TCP round plane broadcasts every round.
        let gen_cfg = TrafficConfig {
            mean_interarrival: 1.0,
            key_universe: 1 << 20,
            zipf_exponent: 0.0,
            put_fraction: 0.0,
            hot_key: None,
        };
        let mut gen = TrafficGen::new(gen_cfg, trial.seed);
        let sample: Vec<_> = (0..ROUTE_SAMPLE).map(|i| gen.next_request(i)).collect();
        hops.push(probes::routing(
            &net,
            IdSpace::new(trial.seed),
            &sample,
            trial.seed,
            &mut out.layers,
        ));
        final_states.extend(
            net.engine()
                .iter()
                .map(|(_, st)| NetMsg::StateSync { round: rounds, state: Box::new(st.clone()) }),
        );
    }
    out.peak_rss_mb = crate::sys::peak_rss_mb(None).unwrap_or(f64::NAN);
    out.note("peers", peers);
    out.note("speed_factor", speed.mean_factor());
    out.note("rounds", total_rounds);
    out.note("clean_rounds", out.op_us.len());
    out.note("trials", k);
    if args.trace {
        if ledger.compare_mismatches > 0 {
            out.gate("stabilize: probe compare disagrees with the engine's fixpoint flag".into());
        }
        ledger.report(&mut out.layers);
        let l = &mut out.layers;
        l.set("core.round_ms", plain_s * 1e3 / total_rounds as f64);
        l.set("core.rounds", total_rounds as f64);
        l.set("routing.mean_hops", hops.iter().sum::<f64>() / hops.len().max(1) as f64);
        l.set("trace.overhead", traced_s / plain_s);
        l.set("trace.spans", tracer.len() as f64);
        probes::codec(&final_states, 20_000, out);
        crate::write_spans(args, &tracer);
    }
}
