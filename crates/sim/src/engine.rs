//! The deterministic synchronous round engine.

use crate::report::{FixpointReport, RoundStats, Trace};
use crate::{Outbox, SyncProtocol};
use rechord_id::Ident;

/// Read-only access to the previous round's global state (the snapshot
/// against which all nodes compute; see crate docs).
pub struct RoundView<'a, S> {
    ids: &'a [Ident],
    states: &'a [S],
}

impl<'a, S> RoundView<'a, S> {
    /// Builds a view over externally supplied `(ids, states)` columns.
    /// `ids` must be sorted ascending and aligned with `states`. Intended
    /// for unit-testing protocol rules in isolation and for custom drivers;
    /// the engine constructs its own views internally.
    pub fn new(ids: &'a [Ident], states: &'a [S]) -> Self {
        debug_assert_eq!(ids.len(), states.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        RoundView { ids, states }
    }

    /// The previous-round state of the peer `id`, if it exists.
    #[inline]
    pub fn get(&self, id: Ident) -> Option<&'a S> {
        self.ids.binary_search(&id).ok().map(|i| &self.states[i])
    }

    /// All peers in ascending identifier order.
    pub fn iter(&self) -> impl Iterator<Item = (Ident, &'a S)> + '_ {
        self.ids.iter().copied().zip(self.states.iter())
    }

    /// Number of peers in the snapshot.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// What happened in one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Did the global state change relative to the round start? A `false`
    /// here is exactly the paper's stability criterion ("no more state
    /// changes are taking place").
    pub changed: bool,
    /// Messages delivered at the round boundary.
    pub delivered: usize,
    /// Messages addressed to peers that no longer exist (dropped — models a
    /// crashed receiver).
    pub dropped: usize,
}

/// A population of peers evolving under a [`SyncProtocol`].
///
/// Peers are kept sorted by identifier; all iteration and message delivery
/// orders are deterministic, and rounds are pure functions of the global
/// state, so runs are reproducible bit-for-bit for any `threads` setting.
pub struct Engine<P: SyncProtocol> {
    protocol: P,
    ids: Vec<Ident>,
    states: Vec<P::State>,
    round: u64,
    threads: usize,
}

impl<P: SyncProtocol> Engine<P> {
    /// Creates an empty engine. `threads = 1` evaluates rounds serially;
    /// larger values shard the per-node step across scoped threads.
    pub fn new(protocol: P, threads: usize) -> Self {
        Engine { protocol, ids: Vec::new(), states: Vec::new(), round: 0, threads: threads.max(1) }
    }

    /// Engine with one thread per available CPU core.
    pub fn new_parallel(protocol: P) -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::new(protocol, n)
    }

    /// Changes the thread count (results are unaffected; only wall time).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol instance — for drivers that
    /// reconfigure protocol-level knobs (rule masks, adversary policies)
    /// between rounds. Changes apply from the next round.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Adds a peer. Returns `false` (and leaves the engine unchanged) if the
    /// identifier is already present.
    pub fn insert_node(&mut self, id: Ident, state: P::State) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id);
                self.states.insert(pos, state);
                true
            }
        }
    }

    /// Removes a peer (a crash or leave), returning its final state.
    pub fn remove_node(&mut self, id: Ident) -> Option<P::State> {
        match self.ids.binary_search(&id) {
            Ok(pos) => {
                self.ids.remove(pos);
                Some(self.states.remove(pos))
            }
            Err(_) => None,
        }
    }

    /// Is the peer present?
    pub fn contains(&self, id: Ident) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Read a peer's current state.
    pub fn state(&self, id: Ident) -> Option<&P::State> {
        self.ids.binary_search(&id).ok().map(|i| &self.states[i])
    }

    /// Mutate a peer's current state (used by churn drivers to seed edges).
    pub fn state_mut(&mut self, id: Ident) -> Option<&mut P::State> {
        match self.ids.binary_search(&id) {
            Ok(i) => Some(&mut self.states[i]),
            Err(_) => None,
        }
    }

    /// All peers with their states, ascending by identifier.
    pub fn iter(&self) -> impl Iterator<Item = (Ident, &P::State)> + '_ {
        self.ids.iter().copied().zip(self.states.iter())
    }

    /// Peer identifiers, ascending.
    pub fn ids(&self) -> &[Ident] {
        &self.ids
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff no peers exist.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Rounds executed so far.
    pub fn round_number(&self) -> u64 {
        self.round
    }

    /// Executes one synchronous round: snapshot, parallel per-node step,
    /// deterministic message merge, delivery.
    pub fn round(&mut self) -> RoundOutcome {
        self.round_with_schedule(|_| true)
    }

    /// Executes one round in which only the peers selected by `active`
    /// fire their actions (all peers still receive messages).
    ///
    /// This models *partial synchrony / asynchrony*: the paper's rules are
    /// formulated for the fully synchronous model but notes that "a parallel
    /// application will not violate the correctness" — and self-stabilizing
    /// rules must tolerate peers that are slow to act. A fixpoint detected
    /// under a partial schedule is only meaningful if the schedule is fair;
    /// use full rounds (or [`Engine::run_until_fixpoint`]) to confirm
    /// stability.
    pub fn round_with_schedule(&mut self, active: impl Fn(Ident) -> bool) -> RoundOutcome {
        let (prev, delivered, dropped) = self.round_core(&active);
        // Short-circuits at the first differing peer — the hot path for
        // fixpoint loops that never look at *which* peers changed.
        RoundOutcome { changed: prev != self.states, delivered, dropped }
    }

    /// Like [`Engine::round_with_schedule`], additionally reporting exactly
    /// which peers' states changed this round (ascending by identifier).
    ///
    /// This is the co-simulation hook: a workload driver interleaving its
    /// own events with protocol rounds uses the dirty set to refresh derived
    /// views (e.g. a routing table) incrementally — at a true fixpoint the
    /// set is empty and the refresh is free.
    pub fn round_dirty_with_schedule(
        &mut self,
        active: impl Fn(Ident) -> bool,
    ) -> (RoundOutcome, Vec<Ident>) {
        let (prev, delivered, dropped) = self.round_core(&active);
        // The id column is fixed within a round, so prev and states align.
        let dirty: Vec<Ident> = self
            .ids
            .iter()
            .zip(prev.iter().zip(self.states.iter()))
            .filter(|(_, (a, b))| a != b)
            .map(|(&id, _)| id)
            .collect();
        (RoundOutcome { changed: !dirty.is_empty(), delivered, dropped }, dirty)
    }

    /// The shared round body: step, merge, deliver. Returns the pre-round
    /// states (for change detection) plus delivery counts.
    fn round_core(&mut self, active: &impl Fn(Ident) -> bool) -> (Vec<P::State>, usize, usize) {
        let prev = self.states.clone();
        let mut msgs = self.step_all(&prev, active);

        // Canonical delivery order: by (target, message), which makes
        // delivery independent of which thread produced a message. The id
        // column is sorted, so bucketing messages by target index and then
        // sorting each bucket by message yields exactly the order a global
        // sort of `(target, message)` gives, and delivery needs no lookup
        // per message. Ties carry equal messages, so unstable sorting
        // cannot perturb outcomes. Messages to absent peers land in the
        // last bucket and are dropped unsorted.
        let bounds = bucket_by_target(&self.ids, &mut msgs);
        for (i, w) in bounds.windows(2).enumerate().take(self.ids.len()) {
            let bucket = &mut msgs[w[0]..w[1]];
            bucket.sort_unstable_by(|a, b| a.1.cmp(&b.1));
            for (to, msg) in bucket.iter() {
                self.protocol.deliver(*to, &mut self.states[i], msg);
            }
        }
        let delivered = bounds[self.ids.len()];
        let dropped = msgs.len() - delivered;

        self.round += 1;
        (prev, delivered, dropped)
    }

    /// Runs up to `max_rounds` rounds, stopping at the first fixpoint
    /// (a round after which the global state is unchanged).
    pub fn run_until_fixpoint(&mut self, max_rounds: u64) -> FixpointReport {
        let mut total_messages = 0usize;
        for r in 0..max_rounds {
            let out = self.round();
            total_messages += out.delivered + out.dropped;
            if !out.changed {
                return FixpointReport { rounds: r + 1, converged: true, total_messages };
            }
        }
        FixpointReport { rounds: max_rounds, converged: false, total_messages }
    }

    /// Like [`Engine::run_until_fixpoint`], but invokes `probe` on the engine
    /// after every round and records per-round statistics. `probe` returning
    /// `true` marks the round in the trace (e.g. "almost-stable reached").
    pub fn run_traced(
        &mut self,
        max_rounds: u64,
        mut probe: impl FnMut(&Self) -> bool,
    ) -> (FixpointReport, Trace) {
        let mut trace = Trace::default();
        let mut total_messages = 0usize;
        for r in 0..max_rounds {
            let out = self.round();
            total_messages += out.delivered + out.dropped;
            let marked = probe(self);
            trace.rounds.push(RoundStats {
                round: self.round,
                delivered: out.delivered,
                dropped: out.dropped,
                changed: out.changed,
                marked,
            });
            if !out.changed {
                return (FixpointReport { rounds: r + 1, converged: true, total_messages }, trace);
            }
        }
        (FixpointReport { rounds: max_rounds, converged: false, total_messages }, trace)
    }

    /// Runs exactly `k` rounds (no fixpoint check), returning the outcome of
    /// the last one.
    pub fn run_rounds(&mut self, k: u64) -> Option<RoundOutcome> {
        let mut last = None;
        for _ in 0..k {
            last = Some(self.round());
        }
        last
    }

    /// Evaluates the scheduled nodes' steps against `prev`, serially or
    /// sharded.
    fn step_all(
        &mut self,
        prev: &[P::State],
        active: &(impl Fn(Ident) -> bool + ?Sized),
    ) -> Vec<(Ident, P::Msg)> {
        let view = RoundView { ids: &self.ids, states: prev };
        let n = self.ids.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.threads.min(n);
        if threads <= 1 {
            let mut out = Outbox::new();
            for (id, st) in self.ids.iter().zip(self.states.iter_mut()) {
                if active(*id) {
                    self.protocol.step(*id, st, &view, &mut out);
                }
            }
            return out.into_inner();
        }

        let chunk = n.div_ceil(threads);
        let protocol = &self.protocol;
        let ids = &self.ids;
        let active_flags: Vec<bool> = ids.iter().map(|&id| active(id)).collect();
        let contexts: Vec<_> = ids
            .chunks(chunk)
            .zip(self.states.chunks_mut(chunk))
            .zip(active_flags.chunks(chunk))
            .collect();
        let buffers = crate::pool::run_workers(contexts, |_, ((id_chunk, st_chunk), fl_chunk)| {
            let view = RoundView { ids, states: prev };
            let mut out = Outbox::new();
            for ((id, st), &fire) in id_chunk.iter().zip(st_chunk.iter_mut()).zip(fl_chunk) {
                if fire {
                    protocol.step(*id, st, &view, &mut out);
                }
            }
            out.into_inner()
        });
        buffers.into_iter().flatten().collect()
    }
}

/// Permutes `msgs` in place into buckets by the index of their target in
/// the sorted `ids` column, in ascending index order, with messages to
/// targets absent from `ids` last. Returns the `ids.len() + 2` bucket
/// boundaries: bucket `b` is `msgs[bounds[b]..bounds[b + 1]]`, and bucket
/// `ids.len()` holds the absent targets. Order within a bucket is
/// unspecified.
///
/// The permutation follows cycles (one American-flag pass), so it needs
/// neither a second message buffer nor a per-message side array: a
/// message's bucket is recomputed by binary search each time it is looked
/// at, at most twice per message in total (once to count, once to place).
fn bucket_by_target<M>(ids: &[Ident], msgs: &mut [(Ident, M)]) -> Vec<usize> {
    let n = ids.len();
    let bucket = |to: &Ident| ids.binary_search(to).unwrap_or(n);
    let mut bounds = vec![0usize; n + 2];
    for (to, _) in msgs.iter() {
        bounds[bucket(to) + 1] += 1;
    }
    for b in 1..bounds.len() {
        bounds[b] += bounds[b - 1];
    }
    // Next unfilled slot per bucket. Buckets fill in ascending order; once
    // every known bucket is full, the absent-target bucket is full too.
    let mut fill = bounds[..=n].to_vec();
    for b in 0..n {
        while fill[b] < bounds[b + 1] {
            let t = bucket(&msgs[fill[b]].0);
            if t != b {
                // Buckets below `b` are already full, so `t > b`: the swap
                // settles this message and brings in one still unplaced.
                msgs.swap(fill[b], fill[t]);
            }
            fill[t] += 1;
        }
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy gossip protocol: every node's state is a set of known values;
    /// each round it gossips its minimum to its successor (next larger id,
    /// wrapping). Converges when everyone knows the global minimum.
    struct MinGossip;

    impl SyncProtocol for MinGossip {
        type State = Vec<u64>;
        type Msg = u64;

        fn step(
            &self,
            me: Ident,
            state: &mut Vec<u64>,
            view: &RoundView<'_, Vec<u64>>,
            out: &mut Outbox<u64>,
        ) {
            state.sort_unstable();
            state.dedup();
            // successor = smallest id > me, else global smallest
            let succ = view
                .iter()
                .map(|(id, _)| id)
                .find(|&id| id > me)
                .or_else(|| view.iter().map(|(id, _)| id).next());
            if let (Some(succ), Some(&min)) = (succ, state.first()) {
                if succ != me {
                    out.send(succ, min);
                }
            }
        }

        fn deliver(&self, _me: Ident, state: &mut Vec<u64>, msg: &u64) {
            if !state.contains(msg) {
                state.push(*msg);
                state.sort_unstable();
            }
        }
    }

    fn engine_with(n: u64, threads: usize) -> Engine<MinGossip> {
        let mut e = Engine::new(MinGossip, threads);
        for i in 0..n {
            e.insert_node(Ident::from_raw(i * 1000 + 17), vec![i + 100]);
        }
        e
    }

    #[test]
    fn gossip_reaches_fixpoint() {
        let mut e = engine_with(16, 1);
        let report = e.run_until_fixpoint(1000);
        assert!(report.converged, "gossip must stabilize");
        // Everyone ends up knowing the global minimum, 100.
        for (_, st) in e.iter() {
            assert!(st.contains(&100));
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut serial = engine_with(37, 1);
        let mut parallel = engine_with(37, 8);
        for _ in 0..25 {
            serial.round();
            parallel.round();
            let a: Vec<_> = serial.iter().map(|(i, s)| (i, s.clone())).collect();
            let b: Vec<_> = parallel.iter().map(|(i, s)| (i, s.clone())).collect();
            assert_eq!(a, b, "thread count must not affect results");
        }
    }

    #[test]
    fn insert_and_remove_nodes() {
        let mut e = engine_with(3, 1);
        let id = Ident::from_raw(999_999);
        assert!(e.insert_node(id, vec![1]));
        assert!(!e.insert_node(id, vec![2]), "duplicate rejected");
        assert_eq!(e.len(), 4);
        assert_eq!(e.remove_node(id), Some(vec![1]));
        assert_eq!(e.remove_node(id), None);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn ids_stay_sorted() {
        let mut e = Engine::new(MinGossip, 1);
        for raw in [50u64, 10, 90, 30] {
            e.insert_node(Ident::from_raw(raw), vec![raw]);
        }
        let ids: Vec<u64> = e.ids().iter().map(|i| i.raw()).collect();
        assert_eq!(ids, vec![10, 30, 50, 90]);
    }

    #[test]
    fn messages_to_missing_peers_are_dropped() {
        let mut e = engine_with(2, 1);
        // Remove the successor of the first node mid-run; its gossip drops.
        let victim = *e.ids().last().unwrap();
        e.remove_node(victim);
        let out = e.round();
        assert_eq!(out.dropped, 0); // removal happened before the round: no stale target
                                    // Now orchestrate a genuine drop: a one-node engine gossips to itself only.
        let mut single = engine_with(1, 1);
        let out = single.round();
        assert_eq!(out.delivered + out.dropped, 0, "no self-send");
    }

    #[test]
    fn traced_run_records_rounds() {
        let mut e = engine_with(8, 2);
        let (report, trace) = e.run_traced(1000, |_| true);
        assert!(report.converged);
        assert_eq!(trace.rounds.len() as u64, report.rounds);
        assert!(trace.rounds.iter().all(|r| r.marked));
        assert!(!trace.rounds.last().unwrap().changed);
    }

    #[test]
    fn empty_engine_is_a_fixpoint() {
        let mut e: Engine<MinGossip> = Engine::new(MinGossip, 4);
        let report = e.run_until_fixpoint(10);
        assert!(report.converged);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn dirty_set_matches_state_diffs() {
        let mut tracked = engine_with(17, 2);
        let mut control = engine_with(17, 1);
        loop {
            let before: Vec<_> = control.iter().map(|(i, s)| (i, s.clone())).collect();
            let (out, dirty) = tracked.round_dirty_with_schedule(|_| true);
            control.round();
            let after: Vec<_> = control.iter().map(|(i, s)| (i, s.clone())).collect();
            let expected: Vec<Ident> = before
                .iter()
                .zip(after.iter())
                .filter(|(a, b)| a.1 != b.1)
                .map(|(a, _)| a.0)
                .collect();
            assert_eq!(dirty, expected);
            assert_eq!(out.changed, !dirty.is_empty());
            assert!(dirty.windows(2).all(|w| w[0] < w[1]), "dirty ids ascend");
            if !out.changed {
                break;
            }
        }
        // At the fixpoint the dirty set stays empty.
        let (out, dirty) = tracked.round_dirty_with_schedule(|_| true);
        assert!(!out.changed && dirty.is_empty());
    }

    #[test]
    fn partial_schedule_fires_only_selected_nodes() {
        let mut e = engine_with(6, 1);
        let ids = e.ids().to_vec();
        let only = ids[2];
        let out = e.round_with_schedule(|id| id == only);
        // exactly one node gossiped: at most one message
        assert!(out.delivered <= 1, "only the scheduled node may send");
        // an empty schedule is a no-op round
        let before: Vec<_> = e.iter().map(|(i, s)| (i, s.clone())).collect();
        let out = e.round_with_schedule(|_| false);
        assert_eq!(out.delivered + out.dropped, 0);
        assert!(!out.changed);
        let after: Vec<_> = e.iter().map(|(i, s)| (i, s.clone())).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn partial_schedule_parallel_matches_serial() {
        let mut a = engine_with(23, 1);
        let mut b = engine_with(23, 8);
        let pick = |id: Ident| !id.raw().is_multiple_of(3);
        for _ in 0..15 {
            a.round_with_schedule(pick);
            b.round_with_schedule(pick);
            let sa: Vec<_> = a.iter().map(|(i, s)| (i, s.clone())).collect();
            let sb: Vec<_> = b.iter().map(|(i, s)| (i, s.clone())).collect();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn fair_alternating_schedule_still_converges() {
        let mut e = engine_with(12, 2);
        // odd/even alternation is fair: everyone fires every other round
        let ids = e.ids().to_vec();
        let mut stable_streak = 0;
        for round in 0..10_000u64 {
            let parity = round % 2;
            let out = e.round_with_schedule(|id| {
                (ids.binary_search(&id).expect("live") as u64) % 2 == parity
            });
            if out.changed {
                stable_streak = 0;
            } else {
                stable_streak += 1;
                if stable_streak >= 3 {
                    break;
                }
            }
        }
        for (_, st) in e.iter() {
            assert!(st.contains(&100), "everyone learns the global minimum");
        }
    }

    /// Sends a fixed script of `(from, to, msg)` messages every round and
    /// logs each delivery as `(to, msg)`, in the order the engine makes it.
    struct Recorder {
        script: Vec<(Ident, Ident, u8)>,
        log: std::sync::Mutex<Vec<(Ident, u8)>>,
    }

    impl SyncProtocol for Recorder {
        type State = ();
        type Msg = u8;

        fn step(&self, me: Ident, _: &mut (), _: &RoundView<'_, ()>, out: &mut Outbox<u8>) {
            for &(from, to, msg) in &self.script {
                if from == me {
                    out.send(to, msg);
                }
            }
        }

        fn deliver(&self, me: Ident, _: &mut (), msg: &u8) {
            self.log.lock().expect("log lock").push((me, *msg));
        }
    }

    /// A small deterministic generator, so the script needs no rng crate.
    fn splitmix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One round of a [`Recorder`] script, beside its reference.
    struct Recorded {
        /// Deliveries in the order the engine made them.
        log: Vec<(Ident, u8)>,
        out: RoundOutcome,
        /// A global `sort_unstable` of every `(to, msg)` sent, minus the
        /// messages to absent peers.
        reference: Vec<(Ident, u8)>,
        /// Messages sent to absent peers.
        dropped: usize,
    }

    /// Runs one round of `script` over `peers` at `threads`.
    fn record_round(peers: &[Ident], script: Vec<(Ident, Ident, u8)>, threads: usize) -> Recorded {
        let mut reference: Vec<(Ident, u8)> = script
            .iter()
            .filter(|(from, ..)| peers.contains(from))
            .map(|&(_, to, msg)| (to, msg))
            .collect();
        reference.sort_unstable();
        let sent = reference.len();
        reference.retain(|(to, _)| peers.contains(to));
        let dropped = sent - reference.len();
        let mut e = Engine::new(Recorder { script, log: Default::default() }, threads);
        for &p in peers {
            e.insert_node(p, ());
        }
        let out = e.round();
        let log = std::mem::take(&mut *e.protocol().log.lock().expect("log lock"));
        Recorded { log, out, reference, dropped }
    }

    #[test]
    fn delivery_order_matches_a_global_sort() {
        // Ids spread over the whole ring, as hashed identifiers are.
        let mut x = 7u64;
        let mut peers: Vec<Ident> = (0..24).map(|_| Ident::from_raw(splitmix(&mut x))).collect();
        peers.sort_unstable();
        // Targets: present peers and absent ones, some right next to a
        // present id; only every other present peer is ever targeted, so
        // empty buckets sit between full ones. Messages come from a small
        // alphabet, so many (to, msg) pairs repeat.
        let absent: Vec<Ident> =
            [1, peers[3].raw() + 1, peers[10].raw() - 1, u64::MAX].map(Ident::from_raw).to_vec();
        assert!(absent.iter().all(|a| !peers.contains(a)));
        for threads in [1, 4] {
            for len in [0usize, 1, 7, 300] {
                let script: Vec<(Ident, Ident, u8)> = (0..len)
                    .map(|_| {
                        let r = splitmix(&mut x);
                        let from = peers[(r % 24) as usize];
                        let to = if (r >> 8).is_multiple_of(5) {
                            absent[((r >> 16) % 4) as usize]
                        } else {
                            peers[((r >> 16) % 12 * 2) as usize]
                        };
                        (from, to, ((r >> 32) % 6) as u8)
                    })
                    .collect();
                let Recorded { log, out, reference, dropped } =
                    record_round(&peers, script, threads);
                assert_eq!(log, reference, "threads {threads}, {len} messages");
                assert_eq!(out.delivered, reference.len());
                assert_eq!(out.dropped, dropped);
                if len == 300 {
                    assert!(dropped > 0, "the script reaches absent peers");
                    assert!(log.windows(2).any(|w| w[0] == w[1]), "the script repeats messages");
                }
            }
        }
    }

    #[test]
    fn every_message_to_an_absent_peer_is_dropped() {
        let peers = [Ident::from_raw(10), Ident::from_raw(20)];
        let script = vec![
            (peers[0], Ident::from_raw(5), 1),
            (peers[1], Ident::from_raw(15), 2),
            (peers[1], Ident::from_raw(25), 3),
            (peers[0], Ident::from_raw(25), 3),
        ];
        for threads in [1, 4] {
            let r = record_round(&peers, script.clone(), threads);
            assert!(r.log.is_empty());
            assert_eq!((r.out.delivered, r.out.dropped), (0, 4));
        }
    }

    #[test]
    fn buckets_follow_the_id_column() {
        let ids: Vec<Ident> = [10u64, 20, 30].map(Ident::from_raw).to_vec();
        let mut msgs: Vec<(Ident, u8)> = [(30, 0), (5, 1), (10, 2), (30, 3), (99, 4), (10, 5)]
            .map(|(to, m)| (Ident::from_raw(to), m))
            .to_vec();
        let bounds = bucket_by_target(&ids, &mut msgs);
        assert_eq!(bounds, vec![0, 2, 2, 4, 6], "20's bucket is empty");
        let bucket = |b: usize| {
            let mut v: Vec<u8> = msgs[bounds[b]..bounds[b + 1]].iter().map(|m| m.1).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(bucket(0), vec![2, 5]);
        assert_eq!(bucket(2), vec![0, 3]);
        assert_eq!(bucket(3), vec![1, 4], "absent targets come last");
        // No peers at all: everything is in the absent bucket.
        assert_eq!(bucket_by_target(&[], &mut msgs), vec![0, 6]);
    }
}
