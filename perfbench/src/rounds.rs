//! Timing protocol rounds from outside the engine: a forwarding
//! [`SyncProtocol`] that times every `step` and `deliver` of
//! [`ReChordProtocol`], and a ledger that splits each round into rule
//! step, delivery, and engine time (snapshot clone, message sort,
//! fixpoint compare).

use crate::report::Layers;
use crate::trace::{SpanId, Tracer};
use rechord_core::network::ReChordNetwork;
use rechord_core::{Msg, PeerState, ReChordProtocol};
use rechord_graph::EdgeKind;
use rechord_id::Ident;
use rechord_sim::{Engine, Outbox, RoundOutcome, RoundView, SyncProtocol};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// [`ReChordProtocol`] with a stopwatch around every call.
pub struct Timed {
    inner: ReChordProtocol,
    step_ns: AtomicU64,
    deliver_ns: AtomicU64,
    /// Delivered messages by [`EdgeKind`]: unmarked, ring, connection.
    kinds: [AtomicU64; 3],
}

impl Timed {
    fn new() -> Self {
        Timed {
            inner: ReChordProtocol::full(),
            step_ns: AtomicU64::new(0),
            deliver_ns: AtomicU64::new(0),
            kinds: Default::default(),
        }
    }

    fn totals(&self) -> (u64, u64) {
        (self.step_ns.load(Relaxed), self.deliver_ns.load(Relaxed))
    }
}

impl SyncProtocol for Timed {
    type State = PeerState;
    type Msg = Msg;

    fn step(
        &self,
        me: Ident,
        state: &mut PeerState,
        view: &RoundView<'_, PeerState>,
        out: &mut Outbox<Msg>,
    ) {
        let t = Instant::now();
        self.inner.step(me, state, view, out);
        self.step_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    }

    fn deliver(&self, me: Ident, state: &mut PeerState, msg: &Msg) {
        let t = Instant::now();
        self.inner.deliver(me, state, msg);
        self.deliver_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        let k = match msg.kind {
            EdgeKind::Unmarked => 0,
            EdgeKind::Ring => 1,
            EdgeKind::Connection => 2,
        };
        self.kinds[k].fetch_add(1, Relaxed);
    }
}

/// A single-threaded engine over the timed protocol holding a copy of
/// `net`'s peer states (the program default is one engine thread).
pub fn timed_engine(net: &ReChordNetwork) -> Engine<Timed> {
    let mut engine = Engine::new(Timed::new(), 1);
    for (id, st) in net.engine().iter() {
        engine.insert_node(id, st.clone());
    }
    engine
}

/// The states of a timed engine as a network of the program's own type.
pub fn into_network(engine: &Engine<Timed>) -> ReChordNetwork {
    ReChordNetwork::from_raw_states(engine.iter().map(|(id, st)| (id, st.clone())), 1)
}

/// Accumulated round split of every timed round of a run.
#[derive(Default)]
pub struct RoundLedger {
    round_s: f64,
    step_s: f64,
    deliver_s: f64,
    clone_s: f64,
    compare_s: f64,
    rounds: u64,
    dropped: u64,
    messages: u64,
    kinds: [u64; 3],
    /// Probe compare disagreed with the engine's `changed` flag.
    pub compare_mismatches: u64,
}

impl RoundLedger {
    /// Runs one round of `engine`, timing the round as a whole and
    /// attributing step and deliver time from the protocol's stopwatches.
    /// The state column is cloned before and compared after, outside the
    /// round's own timing, to price the engine's snapshot and fixpoint
    /// compare separately.
    pub fn round(
        &mut self,
        engine: &mut Engine<Timed>,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> RoundOutcome {
        let t = Instant::now();
        let snapshot: Vec<PeerState> = engine.iter().map(|(_, st)| st.clone()).collect();
        self.clone_s += t.elapsed().as_secs_f64();

        let kinds0: Vec<u64> = engine.protocol().kinds.iter().map(|k| k.load(Relaxed)).collect();
        let (s0, d0) = engine.protocol().totals();
        let span = tracer.begin("round", parent);
        let t = Instant::now();
        let out = engine.round();
        let round_s = t.elapsed().as_secs_f64();
        tracer.end(span);
        let (s1, d1) = engine.protocol().totals();
        let (step_s, deliver_s) = ((s1 - s0) as f64 * 1e-9, (d1 - d0) as f64 * 1e-9);
        tracer.attr(span, "step_s", step_s);
        tracer.attr(span, "deliver_s", deliver_s);

        let t = Instant::now();
        let same = engine.iter().map(|(_, st)| st).eq(snapshot.iter());
        self.compare_s += t.elapsed().as_secs_f64();
        if same == out.changed {
            self.compare_mismatches += 1;
        }

        self.round_s += round_s;
        self.step_s += step_s;
        self.deliver_s += deliver_s;
        self.rounds += 1;
        self.dropped += out.dropped as u64;
        self.messages += (out.delivered + out.dropped) as u64;
        for (acc, (k, k0)) in self.kinds.iter_mut().zip(engine.protocol().kinds.iter().zip(kinds0))
        {
            *acc += k.load(Relaxed) - k0;
        }
        out
    }

    /// Runs rounds to the fixpoint or `max_rounds`; returns whether the
    /// fixpoint was reached and the rounds run.
    pub fn run_to_fixpoint(
        &mut self,
        engine: &mut Engine<Timed>,
        max_rounds: u64,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> (bool, u64) {
        for r in 1..=max_rounds {
            if !self.round(engine, tracer, parent).changed {
                return (true, r);
            }
        }
        (false, max_rounds)
    }

    /// Total timed round wall time so far.
    pub fn round_s(&self) -> f64 {
        self.round_s
    }

    /// Writes the split into the per-layer values.
    pub fn report(&self, layers: &mut Layers) {
        layers.set("sim.round_s", self.round_s);
        layers.set("core.step_s", self.step_s);
        layers.set("core.deliver_s", self.deliver_s);
        layers.set("sim.engine_s", self.round_s - self.step_s - self.deliver_s);
        layers.set("sim.clone_s", self.clone_s);
        layers.set("sim.compare_s", self.compare_s);
        layers.set("sim.rounds", self.rounds as f64);
        layers.set("sim.dropped", self.dropped as f64);
        layers.set("core.messages", self.messages as f64);
        layers.set("core.msgs.unmarked", self.kinds[0] as f64);
        layers.set("core.msgs.ring", self.kinds[1] as f64);
        layers.set("core.msgs.connection", self.kinds[2] as f64);
    }
}
