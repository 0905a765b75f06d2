//! `churn` and `keyspace`: the workload simulator's two scale scenarios,
//! each run to completion with `TrafficSim::run`, audit included.
//!
//! * `churn` — a stabilized 64-peer overlay, 1M uniform keys, storm
//!   churn, paced repair at 400 keys/tick, replication 2, a round every
//!   10 ticks: control rounds in `core` beside placement repair writes.
//! * `keyspace` — a 10k-peer finger-ring overlay, 2M uniform keys, no
//!   churn, one round: placement reads (preload, the end-of-run
//!   `lost_keys` audit, the digest) beside routing at 10k peers.
//!
//! Traced runs repeat every simulation on the same seed with the set-up
//! split into timed calls (bootstrap on the timed engine, table build,
//! `TrafficSim::new`, `preload`) and then probe the layers on the same
//! peers and keys. The twin must reproduce the placement digest, event
//! count and outcome trace exactly.

use crate::probes;
use crate::report::Outcome;
use crate::rounds::{into_network, timed_engine, RoundLedger};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;
use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::IdSpace;
use rechord_placement::PlacementMap;
use rechord_topology::{ChurnEvent, ChurnPlan, TimedChurnPlan, TopologyKind};
use rechord_workload::{
    LatencyModel, Request, SimReport, TrafficConfig, TrafficGen, TrafficSim, WorkloadConfig,
};
use std::time::Instant;

/// Which scenario.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Storm churn over a stabilized 64-peer overlay.
    Churn,
    /// Foreground traffic over a 10k-peer finger ring.
    Keyspace,
}

const MAX_ROUNDS: u64 = 200_000;
/// Wall seconds of one untraced unit (set-up plus `run()`) on the
/// reference 2-core host; a run does `--seconds` worth of units.
const CHURN_UNIT_S: f64 = 3.2;
const KEYSPACE_UNIT_S: f64 = 4.3;
/// Requests the routing and codec probes replay.
const PROBE_SAMPLE: u64 = 2_000;
/// Wall seconds after which a run starts no further unit, so that a host
/// many times slower than the reference still ends well inside the run
/// deadline; the per-unit metrics need no fixed unit count.
const WALL_CAP_S: f64 = 100.0;

struct Scenario {
    kind: Kind,
    seed: u64,
    peers: usize,
    cfg: WorkloadConfig,
    plan: TimedChurnPlan,
}

impl Scenario {
    fn new(kind: Kind, seed: u64, smoke: bool) -> Self {
        let (peers, keys, horizon) = match (kind, smoke) {
            (Kind::Churn, false) => (64, 1_000_000, 5_000),
            (Kind::Churn, true) => (64, 20_000, 2_400),
            (Kind::Keyspace, false) => (10_000, 2_000_000, 5_000),
            (Kind::Keyspace, true) => (400, 40_000, 800),
        };
        let mut cfg = WorkloadConfig {
            seed,
            traffic: TrafficConfig {
                mean_interarrival: 1.0,
                key_universe: keys,
                zipf_exponent: 0.0,
                put_fraction: 0.1,
                hot_key: None,
            },
            traffic_start: 0,
            traffic_end: horizon,
            latency: LatencyModel::Uniform { lo: 5, hi: 15 },
            replication: 2,
            max_retries: 2,
            retry_backoff: 40,
            hop_budget: 128,
            max_rounds: MAX_ROUNDS,
            detection_lag: 250,
            service_time: 2,
            workers: 1,
            ..WorkloadConfig::default()
        };
        let plan = match kind {
            Kind::Churn => {
                cfg.round_every = 10;
                cfg.repair_bandwidth = 400;
                // Retries that outlast crash detection: a request caught
                // by the storm's crash is retried until the detector
                // routes around the dead peer, instead of being dropped
                // after two 40-tick retries inside the 250-tick lag.
                cfg.max_retries = (cfg.detection_lag / cfg.retry_backoff) as u32 + 2;
                TimedChurnPlan::from_plan(&storm(seed), horizon / 4, horizon / 8)
            }
            Kind::Keyspace => {
                cfg.round_every = 100_000_000;
                cfg.max_rounds = 1;
                TimedChurnPlan::default()
            }
        };
        Scenario { kind, seed, peers, cfg, plan }
    }

    fn topology_kind(&self) -> TopologyKind {
        match self.kind {
            Kind::Churn => TopologyKind::Random,
            Kind::Keyspace => TopologyKind::FingerRing,
        }
    }

    /// The start overlay as the program builds it: bootstrapped to the
    /// fixpoint (churn) or built stable-by-construction (keyspace).
    fn network(&self, out: &mut Outcome) -> ReChordNetwork {
        match self.kind {
            Kind::Churn => {
                let (net, report) =
                    ReChordNetwork::bootstrap_stable(self.peers, self.seed, 1, MAX_ROUNDS);
                if !report.converged {
                    out.gate(format!("churn: bootstrap seed {:#x} did not converge", self.seed));
                }
                net
            }
            Kind::Keyspace => ReChordNetwork::from_topology(
                &self.topology_kind().generate(self.peers, self.seed),
                1,
            ),
        }
    }

    /// The first requests of the simulator's own stream.
    fn sample(&self) -> Vec<Request> {
        let mut gen = TrafficGen::new(self.cfg.traffic, self.cfg.seed);
        (0..PROBE_SAMPLE).map(|t| gen.next_request(t)).collect()
    }

    fn name(&self) -> &'static str {
        match self.kind {
            Kind::Churn => "churn",
            Kind::Keyspace => "keyspace",
        }
    }
}

/// The churn storm: two joins, a graceful leave and a crash in a seeded
/// order. `TimedChurnPlan::storm` draws each event's kind at random, which
/// made the work per unit vary by seed far more than the host's noise
/// (and two crashes could lose keys); a fixed mix keeps storms comparable.
fn storm(seed: u64) -> ChurnPlan {
    let mut keyed: Vec<(u64, ChurnEvent)> = [
        ChurnEvent::Join { address: mix(&[seed, 1]) },
        ChurnEvent::Join { address: mix(&[seed, 2]) },
        ChurnEvent::GracefulLeave,
        ChurnEvent::Crash,
    ]
    .into_iter()
    .enumerate()
    .map(|(i, e)| (mix(&[seed, 0x5707, i as u64]), e))
    .collect();
    keyed.sort_by_key(|&(k, _)| k);
    ChurnPlan { events: keyed.into_iter().map(|(_, e)| e).collect() }
}

/// Untraced unit: set up, run, count. Returns the report and the wall
/// seconds of `run()`.
fn run_plain(sc: &Scenario, out: &mut Outcome) -> (SimReport, f64) {
    let t = Instant::now();
    let net = sc.network(out);
    let mut sim = TrafficSim::new(sc.cfg, net, &sc.plan);
    sim.preload();
    out.setup_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let report = sim.run();
    let run_s = t.elapsed().as_secs_f64();
    let s = &report.summary;
    out.attempted += s.total as u64;
    out.failed += (s.total - s.success) as u64;
    out.ops += s.total as f64;
    out.ops_time_s += run_s;
    out.op_us.push(run_s * 1e6 / s.total.max(1) as f64);
    if s.total == 0 {
        out.gate(format!("{}: seed {:#x} resolved no requests", sc.name(), sc.seed));
    }
    if report.lost_keys > 0 {
        out.gate(format!("{}: seed {:#x} lost {} keys", sc.name(), sc.seed, report.lost_keys));
    }
    if sc.kind == Kind::Churn && !report.stable_at_end {
        out.gate(format!("churn: seed {:#x} ended unstable", sc.seed));
    }
    (report, run_s)
}

/// Sums of the traced twins.
#[derive(Default)]
struct Traced {
    ledger: RoundLedger,
    plain_run_s: f64,
    traced_run_s: f64,
    round_ms: Vec<f64>,
    hops_weighted: f64,
}

/// Traced twin of one unit plus the layer probes on its peers and keys.
fn run_traced(
    sc: &Scenario,
    twin: &SimReport,
    tracer: &mut Tracer,
    acc: &mut Traced,
    out: &mut Outcome,
) {
    let unit = tracer.begin("unit", None);
    let setup = tracer.begin("setup", unit);

    let span = tracer.begin("core.bootstrap", setup);
    let t = Instant::now();
    let topo = sc.topology_kind().generate(sc.peers, sc.seed);
    let net = match sc.kind {
        Kind::Churn => {
            let mut engine = timed_engine(&ReChordNetwork::from_topology(&topo, 1));
            let (converged, _) = acc.ledger.run_to_fixpoint(&mut engine, MAX_ROUNDS, tracer, span);
            if !converged {
                out.gate(format!("churn: traced bootstrap seed {:#x} did not converge", sc.seed));
            }
            into_network(&engine)
        }
        Kind::Keyspace => ReChordNetwork::from_topology(&topo, 1),
    };
    out.layers.add("core.bootstrap_s", t.elapsed().as_secs_f64());
    tracer.end(span);

    // Rounds on a copy of the start overlay: the program's own round
    // call, then the same rounds on the timed engine for the split.
    let probe_rounds = match sc.kind {
        Kind::Churn => 20,
        Kind::Keyspace => 1,
    };
    let span = tracer.begin("core.round_probe", setup);
    let mut copy = into_network(&timed_engine(&net));
    for _ in 0..probe_rounds {
        let t = Instant::now();
        copy.round_dirty();
        acc.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut engine = timed_engine(&net);
    for _ in 0..probe_rounds {
        acc.ledger.round(&mut engine, tracer, span);
    }
    drop((copy, engine));
    tracer.end(span);

    let sample = sc.sample();
    let span = tracer.begin("routing.probe", setup);
    probes::routing(&net, IdSpace::new(sc.seed), &sample, sc.seed, &mut out.layers);
    tracer.end(span);
    let peers = net.real_ids();

    let span = tracer.begin("workload.new", setup);
    let mut sim = TrafficSim::new(sc.cfg, net, &sc.plan);
    tracer.end(span);
    let span = tracer.begin("placement.preload", setup);
    let t = Instant::now();
    sim.preload();
    out.layers.add("placement.preload_s", t.elapsed().as_secs_f64());
    tracer.end(span);
    tracer.end(setup);

    let span = tracer.begin("workload.run", unit);
    let t = Instant::now();
    let report = sim.run();
    let run_s = t.elapsed().as_secs_f64();
    tracer.end(span);
    acc.traced_run_s += run_s;

    if report.placement_digest != twin.placement_digest
        || report.events != twin.events
        || report.sink.outcomes() != twin.sink.outcomes()
    {
        out.gate(format!("{}: traced twin of seed {:#x} diverged", sc.name(), sc.seed));
    }

    // The end-of-run audit and digest, priced on a map holding this
    // unit's keys on its start peers: the same `contains` call per acked
    // key that `run()` makes.
    let span = tracer.begin("placement.probe", unit);
    let space = IdSpace::new(sc.cfg.seed);
    let universe = sc.cfg.traffic.key_universe;
    let mut map: PlacementMap<()> = PlacementMap::from_peers(&peers, sc.cfg.replication);
    map.bulk_load((1..=universe).map(|key| (space.key_position(key), key, 0, ())));
    let t = Instant::now();
    let missing = (1..=universe).filter(|&k| !map.contains(space.key_position(k), k)).count();
    out.layers.add("placement.audit_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    std::hint::black_box(map.digest());
    out.layers.add("placement.digest_s", t.elapsed().as_secs_f64());
    tracer.end(span);
    if missing > 0 {
        out.gate(format!("{}: audit probe misses {missing} preloaded keys", sc.name()));
    }

    let s = &report.summary;
    let l = &mut out.layers;
    l.add("workload.run_s", run_s);
    l.add("workload.requests", s.total as f64);
    l.add("workload.events", report.events as f64);
    let retries: u64 = report.sink.outcomes().iter().map(|o| u64::from(o.retries)).sum();
    l.add("workload.retries", retries as f64);
    l.add("core.rounds", report.rounds as f64);
    l.add("placement.repair_keys_moved", s.repair_keys_moved as f64);
    l.add("placement.lost_keys", report.lost_keys as f64);
    acc.hops_weighted += s.mean_hops * s.total as f64;
    let put = |r: &Request| format!("v{}-{}", r.id, r.key);
    let frames = probes::rpc_frames(&sample, put);
    probes::codec(&frames, 20_000, out);
    tracer.end(unit);
}

/// Runs the workload; `args.trace` selects the traced variant.
pub fn run(kind: Kind, args: &Args, out: &mut Outcome) {
    // A fixed unit count per run, so every run does the same amount of
    // work: as many units as take `--seconds` on the reference host. A
    // traced unit (untraced twin, traced run, probes) takes about three
    // untraced ones.
    let nominal_s = match kind {
        Kind::Churn => CHURN_UNIT_S,
        Kind::Keyspace => KEYSPACE_UNIT_S,
    } * if args.trace { 3.0 } else { 1.0 };
    let units = if args.smoke { 2 } else { ((args.seconds / nominal_s).round() as u64).max(1) };
    let mut tracer = Tracer::new(args.trace);
    let mut acc = Traced::default();
    let start = Instant::now();
    let mut done = 0;
    for k in 1..=units {
        if k > 1 && start.elapsed().as_secs_f64() > WALL_CAP_S {
            break;
        }
        done = k;
        let sc = Scenario::new(kind, mix(&[args.seed, k]), args.smoke);
        tracer.set_run(k);
        let (report, run_s) = run_plain(&sc, out);
        if args.trace {
            acc.plain_run_s += run_s;
            run_traced(&sc, &report, &mut tracer, &mut acc, out);
        }
        if k == 1 {
            out.note("peers", sc.peers);
            out.note("keys", sc.cfg.traffic.key_universe);
            out.note("horizon_ticks", sc.cfg.traffic_end);
        }
    }
    out.peak_rss_mb = crate::sys::peak_rss_mb(None).unwrap_or(f64::NAN);
    out.note("units", done);
    out.note("units_planned", units);
    if args.trace {
        if acc.ledger.compare_mismatches > 0 {
            out.gate("probe compare disagrees with the engine's fixpoint flag".into());
        }
        acc.ledger.report(&mut out.layers);
        let l = &mut out.layers;
        l.set("core.round_ms", median(&acc.round_ms));
        l.set("routing.mean_hops", acc.hops_weighted / l.get("workload.requests").max(1.0));
        l.set("placement.audit_share", l.get("placement.audit_s") / l.get("workload.run_s"));
        l.set("trace.overhead", acc.traced_run_s / acc.plain_run_s);
        l.set("trace.spans", tracer.len() as f64);
        crate::write_spans(args, &tracer);
    }
}
