//! `kv-tcp`: two `node` processes on loopback serving the cluster bench's
//! Zipf-0.9 get/put mix (256 keys, 10% puts) to one closed-loop client
//! with window 16 under the per-key fence. Every RPC is checked against
//! the direct-call `KvStore` oracle, and every node must report zero wire
//! errors.
//!
//! Nothing here can hang: node children are killed and reaped on every
//! exit path (panics included, via [`Reaper`]), each reply wait has the
//! client's reply deadline, readiness has a deadline, and so does every
//! child exit. A dead or wedged node ends the cluster with a named error
//! and its unanswered RPCs count as failed.

use crate::calib::Speed;
use crate::probes;
use crate::report::Outcome;
use crate::rounds::{into_network, timed_engine, RoundLedger};
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::Args;
use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::{IdSpace, Ident};
use rechord_net::{ClusterClient, NetError, NetMsg, PeerAddr, RpcResult, TcpTransport, Transport};
use rechord_routing::{KvStore, RoutingTable};
use rechord_topology::{InitialTopology, TopologyKind};
use rechord_workload::{Op, Request, TrafficConfig, TrafficGen};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NODES: usize = 2;
const WINDOW: usize = 16;
const REPLICATION: usize = 2;
const MAX_ROUNDS: u64 = 200_000;
/// Clusters set up per run (each measured for an equal share of it).
const CLUSTERS: u64 = 6;
const REPLY_DEADLINE: Duration = Duration::from_secs(10);
const SERVING_DEADLINE: Duration = Duration::from_secs(60);
const EXIT_DEADLINE: Duration = Duration::from_secs(10);
/// RPCs of the window-1 phase of a traced run.
const SERIAL_RPCS: u64 = 2_000;
/// Program rounds timed on each cluster's stable overlay (traced runs).
const PROBE_ROUNDS: usize = 20;
/// One RPC in this many gets a span in traced runs.
const SPAN_EVERY: u64 = 256;
/// Calibration passes taken before and after each cluster's set-up.
const CALIB_PASSES: usize = 8;
/// A calibration pass runs once per slice of a measured phase.
const SLICE: Duration = Duration::from_millis(100);
/// Below this many RPCs in clean slices a run reports every slice.
const MIN_CLEAN_RPCS: usize = 10_000;
/// The time budget is checked once per this many submits.
const CHECK_EVERY: u64 = 64;

/// Kills and reaps every child on drop, so no path out of a cluster —
/// early return or panic — leaves a node process behind.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Reaper {
    fn pids(&self) -> Vec<u32> {
        self.0.iter().map(Child::id).collect()
    }

    /// Names every node that has already exited.
    fn dead(&mut self) -> String {
        let dead: Vec<String> = self
            .0
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| match c.try_wait() {
                Ok(Some(status)) => Some(format!("node {i} exited ({status})")),
                _ => None,
            })
            .collect();
        if dead.is_empty() {
            "all nodes alive (wedged?)".into()
        } else {
            dead.join(", ")
        }
    }

    /// Waits for every child to exit on its own, up to the deadline.
    fn wait_all(&mut self, deadline: Duration) -> Result<(), String> {
        let until = Instant::now() + deadline;
        for (i, child) in self.0.iter_mut().enumerate() {
            loop {
                match child.try_wait() {
                    Ok(Some(s)) if s.success() => break,
                    Ok(Some(s)) => return Err(format!("node {i} exited with {s}")),
                    Ok(None) if Instant::now() < until => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    Ok(None) => return Err(format!("node {i} did not exit within {deadline:?}")),
                    Err(e) => return Err(format!("node {i}: wait failed: {e}")),
                }
            }
        }
        Ok(())
    }
}

/// Reserves distinct loopback ports by binding and releasing listeners.
fn free_ports(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    listeners.iter().map(TcpListener::local_addr).collect()
}

fn spawn_nodes(
    bin: &std::path::Path,
    topo: &InitialTopology,
    addrs: &[SocketAddr],
    seed: u64,
) -> Result<Reaper, String> {
    let roster = topo
        .ids
        .iter()
        .zip(addrs)
        .map(|(id, a)| format!("{}@{a}", id.raw()))
        .collect::<Vec<_>>()
        .join(",");
    let mut nodes = Reaper(Vec::new());
    for (&id, addr) in topo.ids.iter().zip(addrs) {
        let contacts =
            topo.contacts_of(id).iter().map(|c| c.raw().to_string()).collect::<Vec<_>>().join(",");
        let child = Command::new(bin)
            .args(["--ident", &id.raw().to_string(), "--listen", &addr.to_string()])
            .args(["--roster", &roster, "--contacts", &contacts])
            .args(["--seed", &seed.to_string(), "--replication", &REPLICATION.to_string()])
            .args(["--max-rounds", &MAX_ROUNDS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        nodes.0.push(child);
    }
    Ok(nodes)
}

fn put_value(req: &Request) -> String {
    format!("v{}-{}", req.id, req.key)
}

fn request_stream(seed: u64) -> TrafficGen {
    let cfg = TrafficConfig {
        mean_interarrival: 1.0,
        key_universe: 256,
        zipf_exponent: 0.9,
        put_fraction: 0.1,
        hot_key: None,
    };
    TrafficGen::new(cfg, seed)
}

/// What the traced phases add up.
#[derive(Default)]
struct Busy {
    busy_s: f64,
    inflight_sum: f64,
    inflight_samples: f64,
}

/// What one cluster's phases record, in the order the RPCs were sent.
#[derive(Default)]
struct Record {
    reqs: Vec<Request>,
    results: Vec<RpcResult>,
    /// Latencies (reference µs) of RPCs completed in clean slices.
    lat_us: Vec<f64>,
    /// Reference seconds of the clean slices.
    clean_s: f64,
    /// The same for slices the hypervisor stole time in.
    stolen_lat_us: Vec<f64>,
    stolen_s: f64,
    /// Slices closed, and how many of them were clean.
    slices: u64,
    clean: u64,
}

/// The open slice of a measured phase.
struct Slice {
    start: Instant,
    steal: u64,
}

impl Slice {
    fn open() -> Self {
        Slice { start: Instant::now(), steal: sys::steal_ticks() }
    }

    /// Closes the slice and opens the next. A slice is clean if the
    /// hypervisor stole no CPU time during it; only clean slices count
    /// toward the end-to-end numbers, whose time and latencies are scaled
    /// by the current speed estimate. One calibration pass runs per slice.
    fn close(
        &mut self,
        client: &mut ClusterClient<TcpTransport>,
        speed: &mut Speed,
        rec: &mut Record,
    ) {
        let wall = self.start.elapsed().as_secs_f64();
        let lat = client.take_latencies_us();
        rec.slices += 1;
        let f = speed.factor();
        let scaled = speed.scale_with(wall, f);
        let lat = lat.into_iter().map(|x| x * f);
        if sys::steal_ticks() == self.steal {
            rec.clean += 1;
            rec.clean_s += scaled;
            rec.lat_us.extend(lat);
        } else {
            rec.stolen_s += scaled;
            rec.stolen_lat_us.extend(lat);
        }
        speed.sample(1);
        *self = Slice::open();
    }
}

/// One cluster's client side: the pipelined client, the request stream,
/// and the speed estimate its slices are scaled by.
struct Loader<'a> {
    client: ClusterClient<TcpTransport>,
    gen: TrafficGen,
    speed: &'a mut Speed,
    rec: Record,
}

impl Loader<'_> {
    /// One closed-loop phase: submit until `budget` (or `max_rpcs`) is
    /// spent, then drain. Every [`SLICE`] the client closes a slice (see
    /// [`Slice::close`]). Traced phases add their client-side busy time to
    /// `busy` and a span for one submit in [`SPAN_EVERY`]. Returns the
    /// phase's wall seconds and the RPCs it completed.
    fn phase(
        &mut self,
        budget: Duration,
        max_rpcs: u64,
        mut busy: Option<&mut Busy>,
        tracer: &mut Tracer,
    ) -> Result<(f64, f64), NetError> {
        let done0 = self.rec.results.len();
        let t0 = Instant::now();
        let mut slice = Slice::open();
        let mut n = 0u64;
        loop {
            if n.is_multiple_of(CHECK_EVERY) {
                if slice.start.elapsed() >= SLICE {
                    slice.close(&mut self.client, self.speed, &mut self.rec);
                }
                if t0.elapsed() >= budget {
                    break;
                }
            }
            if n >= max_rpcs {
                break;
            }
            let req = self.gen.next_request(self.rec.reqs.len() as u64);
            self.rec.reqs.push(req);
            n += 1;
            let sampled = busy.is_some() && n.is_multiple_of(SPAN_EVERY);
            let span = if sampled { tracer.begin("rpc.submit", None) } else { None };
            let t = Instant::now();
            let done = match req.op {
                Op::Put => self.client.submit_put(req.key, put_value(&req)),
                Op::Get => self.client.submit_get(req.key),
            }?;
            if let Some(b) = busy.as_deref_mut() {
                b.busy_s += t.elapsed().as_secs_f64();
                b.inflight_sum += self.client.in_flight() as f64;
                b.inflight_samples += 1.0;
            }
            tracer.end(span);
            self.rec.results.extend(done);
        }
        let t = Instant::now();
        self.rec.results.extend(self.client.drain()?);
        if let Some(b) = busy {
            b.busy_s += t.elapsed().as_secs_f64();
        }
        slice.close(&mut self.client, self.speed, &mut self.rec);
        Ok((t0.elapsed().as_secs_f64(), (self.rec.results.len() - done0) as f64))
    }
}

/// Replays `reqs` through the direct-call oracle and counts results that
/// are missing, not ok, or different.
fn oracle_failures(
    topo: &InitialTopology,
    seed: u64,
    reqs: &[Request],
    results: &[RpcResult],
) -> Result<u64, String> {
    let mut net = ReChordNetwork::from_topology(topo, 1);
    if !net.run_until_stable(MAX_ROUNDS).converged {
        return Err("oracle overlay did not stabilize".into());
    }
    let mut kv = KvStore::with_replication(
        RoutingTable::from_network(&net),
        IdSpace::new(seed),
        REPLICATION,
    );
    let mut roster = topo.ids.clone();
    roster.sort_unstable();
    let mut failed = 0u64;
    for (i, req) in reqs.iter().enumerate() {
        let rpc = i as u64 + 1;
        let via = roster[(mix(&[seed, rpc]) % roster.len() as u64) as usize];
        let want = match req.op {
            Op::Put => kv.put(via, req.key, put_value(req)).map(|o| (o, None)),
            Op::Get => kv.get(via, req.key).map(|(v, o)| (o, v.map(str::to_string))),
        }
        .map(|(o, value)| RpcResult {
            rpc,
            ok: o.routed,
            hops: o.hops as u32,
            responsible: o.responsible,
            value,
        });
        let good = match (results.get(i), want) {
            (Some(got), Some(want)) => got.ok && *got == want,
            _ => false,
        };
        failed += u64::from(!good);
    }
    Ok(failed)
}

/// Per-cluster counters read from the nodes before shutdown.
struct NodeStats {
    rounds: u64,
    served: u64,
}

fn node_stats(
    client: &mut ClusterClient<TcpTransport>,
    roster: &[Ident],
) -> Result<NodeStats, String> {
    let mut st = NodeStats { rounds: 0, served: 0 };
    for &peer in roster {
        match client.stats_of(peer) {
            Ok(NetMsg::Stats { rounds, converged, served, wire_errors, .. }) => {
                if !converged {
                    return Err(format!("node {peer} reports no convergence"));
                }
                if wire_errors != 0 {
                    return Err(format!("node {peer} dropped {wire_errors} undecodable frames"));
                }
                st.rounds = st.rounds.max(rounds);
                st.served += served;
            }
            Ok(other) => return Err(format!("node {peer}: unexpected stats reply {other:?}")),
            Err(e) => return Err(format!("node {peer}: stats: {e}")),
        }
    }
    Ok(st)
}

/// Everything a run adds up across its clusters.
#[derive(Default)]
struct Totals {
    speed: Speed,
    node_rss: Vec<f64>,
    /// (clean, all) slices, and the latencies and seconds of the others.
    slices: (u64, u64),
    stolen: (Vec<f64>, f64),
    // Traced runs only.
    busy: Busy,
    /// (RPCs, wall seconds) of the untraced and traced halves.
    plain: (f64, f64),
    traced: (f64, f64),
    client_cpu: f64,
    node_cpu: f64,
    node_share_max: f64,
    serial_us: Vec<f64>,
    frames: Vec<NetMsg>,
    hops: (u64, u64),
    ledger: RoundLedger,
    round_ms: Vec<f64>,
}

/// Spawns a cluster and connects a client to it; returns the nodes and the
/// client once every node serves. Adds the set-up time.
fn set_up(
    bin: &std::path::Path,
    topo: &InitialTopology,
    seed: u64,
    tot: &mut Totals,
    tracer: &mut Tracer,
    parent: Option<crate::trace::SpanId>,
    out: &mut Outcome,
) -> Result<(Reaper, ClusterClient<TcpTransport>), String> {
    let addrs = free_ports(NODES).map_err(|e| format!("reserving loopback ports: {e}"))?;
    tot.speed.sample(CALIB_PASSES);
    let f0 = tot.speed.factor();
    let t_setup = Instant::now();
    let span = tracer.begin("net.spawn", parent);
    let mut nodes = spawn_nodes(bin, topo, &addrs, seed)?;
    tracer.end(span);

    let span = tracer.begin("net.connect", parent);
    let t = Instant::now();
    let transport = TcpTransport::bind(Ident::from_raw(u64::MAX - 1), ([127, 0, 0, 1], 0).into())
        .and_then(|mut tr| {
            for (&peer, &addr) in topo.ids.iter().zip(&addrs) {
                tr.connect(peer, &PeerAddr::Socket(addr))?;
            }
            Ok(tr)
        })
        .map_err(|e| format!("connecting: {e}; {}", nodes.dead()))?;
    out.layers.add("net.connect_s", t.elapsed().as_secs_f64());
    tracer.end(span);

    let mut client =
        ClusterClient::new(transport, topo.ids.clone(), seed, REPLY_DEADLINE).with_window(WINDOW);
    let span = tracer.begin("net.converge", parent);
    let t = Instant::now();
    match client.wait_serving(SERVING_DEADLINE) {
        Ok(true) => {}
        Ok(false) => {
            let dead = nodes.dead();
            return Err(format!("not serving within {SERVING_DEADLINE:?}; {dead}"));
        }
        Err(e) => return Err(format!("readiness poll: {e}; {}", nodes.dead())),
    }
    out.layers.add("net.converge_s", t.elapsed().as_secs_f64());
    tracer.end(span);
    let setup_s = t_setup.elapsed().as_secs_f64();
    tot.speed.sample(CALIB_PASSES);
    let f1 = tot.speed.factor();
    out.setup_s.push(tot.speed.scale_with(setup_s, (f0 + f1) / 2.0));
    Ok((nodes, client))
}

/// One cluster: set up, measure, check, shut down, probe. An `Err` is a
/// failure that ends the run (already counted in `out`).
fn cluster(
    c: u64,
    args: &Args,
    tot: &mut Totals,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let seed = mix(&[args.seed, c]);
    tracer.set_run(c + 1);
    let span = tracer.begin("cluster", None);
    let topo = TopologyKind::Random.generate(NODES, seed);
    let (mut nodes, client) = set_up(&args.node_bin, &topo, seed, tot, tracer, span, out)
        .map_err(|e| format!("cluster {c}: {e}"))?;

    // Measured phases. A traced run splits the cluster's share into an
    // untraced and a traced half (the ratio is the tracing overhead),
    // then adds a short window-1 phase.
    let clusters = if args.smoke { 1 } else { CLUSTERS };
    let share = Duration::from_secs_f64(args.seconds / clusters as f64);
    let pids = nodes.pids();
    let node_cpu0: Vec<f64> = pids.iter().map(|&p| sys::cpu_s(Some(p)).unwrap_or(0.0)).collect();
    let cpu0 = sys::cpu_s(None).unwrap_or(0.0);
    let t_meas = Instant::now();
    let mut d =
        Loader { client, gen: request_stream(seed), speed: &mut tot.speed, rec: Record::default() };
    let mut measured = || -> Result<(), NetError> {
        if !args.trace {
            d.phase(share, u64::MAX, None, tracer)?;
            return Ok(());
        }
        let s = tracer.begin("phase.plain", span);
        let (wall, n) = d.phase(share / 2, u64::MAX, None, tracer)?;
        tot.plain = (tot.plain.0 + n, tot.plain.1 + wall);
        tracer.end(s);
        let s = tracer.begin("phase.traced", span);
        let (wall, n) = d.phase(share / 2, u64::MAX, Some(&mut tot.busy), tracer)?;
        tot.traced = (tot.traced.0 + n, tot.traced.1 + wall);
        tracer.end(s);
        Ok(())
    };
    let outcome = measured();
    let meas_s = t_meas.elapsed().as_secs_f64();
    let rec = &mut d.rec;
    if !rec.lat_us.is_empty() {
        let dist = crate::stats::Dist::of(&rec.lat_us);
        let rate = rec.lat_us.len() as f64 / rec.clean_s;
        let clean = format!("clean slices {}/{}", rec.clean, rec.slices);
        out.note(
            &format!("cluster{c}"),
            format!("rpc/s={rate:.0} {} {clean}", dist.describe("us")),
        );
    }
    tot.slices = (tot.slices.0 + rec.clean, tot.slices.1 + rec.slices);
    tot.stolen.0.append(&mut rec.stolen_lat_us);
    tot.stolen.1 += rec.stolen_s;
    out.ops += rec.lat_us.len() as f64;
    out.ops_time_s += rec.clean_s;
    out.op_us.append(&mut rec.lat_us);

    let Loader { client, gen, speed, rec } = d;
    let mut d = Loader { client: client.with_window(1), gen, speed, rec };
    let outcome = outcome.and_then(|()| {
        if !args.trace {
            return Ok(());
        }
        let s = tracer.begin("phase.serial", span);
        let serial = if args.smoke { SERIAL_RPCS / 10 } else { SERIAL_RPCS };
        d.phase(Duration::MAX, serial, None, tracer)?;
        tot.serial_us.append(&mut d.rec.lat_us);
        tracer.end(s);
        Ok(())
    });
    if args.trace {
        tot.client_cpu += sys::cpu_s(None).unwrap_or(0.0) - cpu0;
        for (p, c0) in pids.iter().zip(&node_cpu0) {
            let used = sys::cpu_s(Some(*p)).unwrap_or(0.0) - c0;
            tot.node_cpu += used;
            tot.node_share_max = tot.node_share_max.max(used / meas_s);
        }
    }
    let Loader { mut client, rec, .. } = d;
    out.attempted += rec.reqs.len() as u64;
    if let Err(e) = outcome {
        out.failed += (rec.reqs.len() - rec.results.len()) as u64;
        return Err(format!("cluster {c}: {e}; {}", nodes.dead()));
    }
    match node_stats(&mut client, &topo.ids) {
        Ok(st) => {
            out.layers.add("net.served", st.served as f64);
            out.layers.set("core.rounds", st.rounds as f64);
        }
        Err(e) => out.gate(format!("kv-tcp: cluster {c}: {e}")),
    }
    if client.transport_mut().wire_errors() != 0 {
        out.gate(format!("kv-tcp: cluster {c}: the client dropped undecodable frames"));
    }
    tot.node_rss.push(pids.iter().filter_map(|&p| sys::peak_rss_mb(Some(p))).fold(0.0, f64::max));
    let shutdown = client.shutdown_all().map_err(|e| e.to_string());
    if let Err(e) = shutdown.and_then(|()| nodes.wait_all(EXIT_DEADLINE)) {
        out.gate(format!("kv-tcp: cluster {c}: shutdown: {e}"));
    }
    drop(nodes);
    tracer.end(span);

    match oracle_failures(&topo, seed, &rec.reqs, &rec.results) {
        Ok(0) => {}
        Ok(n) => {
            out.failed += n;
            out.gate(format!("kv-tcp: cluster {c}: {n} RPCs disagree with the KvStore oracle"));
        }
        Err(e) => out.gate(format!("kv-tcp: cluster {c}: {e}")),
    }
    tot.hops.0 += rec.results.iter().map(|r| u64::from(r.hops)).sum::<u64>();
    tot.hops.1 += rec.results.len() as u64;
    if args.trace {
        probe(c, &topo, seed, &rec.reqs, tot, tracer, out);
    }
    Ok(())
}

/// Probes on a cluster's overlay, keys and frames: the nodes' convergence
/// replayed in process on the timed engine, the program's round call on
/// the stable overlay, routing, and the RPC frames for the codec probe.
fn probe(
    c: u64,
    topo: &InitialTopology,
    seed: u64,
    reqs: &[Request],
    tot: &mut Totals,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let span = tracer.begin("core.bootstrap", None);
    let t = Instant::now();
    let mut engine = timed_engine(&ReChordNetwork::from_topology(topo, 1));
    let (converged, _) = tot.ledger.run_to_fixpoint(&mut engine, MAX_ROUNDS, tracer, span);
    out.layers.add("core.bootstrap_s", t.elapsed().as_secs_f64());
    tracer.end(span);
    if !converged {
        out.gate(format!("kv-tcp: cluster {c}: in-process replica did not converge"));
    }
    let mut net = into_network(&engine);
    let sample = &reqs[..reqs.len().min(2_000)];
    probes::routing(&net, IdSpace::new(seed), sample, seed, &mut out.layers);
    tot.frames.extend(probes::rpc_frames(sample, put_value));
    for _ in 0..PROBE_ROUNDS {
        let t = Instant::now();
        net.round_dirty();
        tot.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Runs the workload; `args.trace` selects the traced variant.
pub fn run(args: &Args, out: &mut Outcome) {
    if !args.node_bin.exists() {
        out.gate(format!("kv-tcp: node binary missing at {}", args.node_bin.display()));
        return;
    }
    let clusters = if args.smoke { 1 } else { CLUSTERS };
    let mut tracer = Tracer::new(args.trace);
    let mut tot = Totals::default();
    for c in 0..clusters {
        if let Err(e) = cluster(c, args, &mut tot, &mut tracer, out) {
            out.gate(format!("kv-tcp: {e}"));
            return;
        }
    }
    out.peak_rss_mb = if tot.node_rss.is_empty() { f64::NAN } else { median(&tot.node_rss) };
    out.note("nodes", NODES);
    out.note("window", WINDOW);
    out.note("clusters", clusters);
    out.note("loopback", "127.0.0.1");
    out.note("speed_factor", tot.speed.mean_factor());
    out.note("clean_slices", format!("{}/{}", tot.slices.0, tot.slices.1));
    if out.op_us.len() < MIN_CLEAN_RPCS {
        // The host stole time nearly throughout: fall back to every slice.
        out.note("steal_filter", "off: too few clean slices");
        out.ops += tot.stolen.0.len() as f64;
        out.ops_time_s += tot.stolen.1;
        out.op_us.append(&mut tot.stolen.0);
    }
    if args.trace {
        tot.ledger.report(&mut out.layers);
        if tot.ledger.compare_mismatches > 0 {
            out.gate("probe compare disagrees with the engine's fixpoint flag".into());
        }
        let (busy, hops) = (&tot.busy, tot.hops);
        let l = &mut out.layers;
        l.set("core.round_ms", median(&tot.round_ms));
        l.set("net.client_busy_s", busy.busy_s);
        l.set("net.inflight_mean", busy.inflight_sum / busy.inflight_samples.max(1.0));
        l.set("net.client_cpu_s", tot.client_cpu);
        l.set("net.node_cpu_s", tot.node_cpu);
        l.set("net.node_cpu_max_share", tot.node_share_max);
        l.set("routing.mean_hops", hops.0 as f64 / hops.1.max(1) as f64);
        l.set("net.serial_rtt_p50_us", median(&tot.serial_us));
        l.set("trace.overhead", (tot.plain.0 / tot.plain.1) / (tot.traced.0 / tot.traced.1));
        l.set("trace.spans", tracer.len() as f64);
        probes::codec(&tot.frames, 20_000, out);
        crate::write_spans(args, &tracer);
    }
}
