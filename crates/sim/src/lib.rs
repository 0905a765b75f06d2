//! The synchronous message-passing execution model of the Re-Chord paper
//! (§2.1), as a reusable engine.
//!
//! The model: time proceeds in rounds; in round `i` every node inspects only
//! its own state (plus, per Gall et al., the variables of its neighbors from
//! the **previous** round), performs immediate assignments on its own state,
//! and issues *delayed assignments* (`A <- B`) that take effect "right before
//! the next round". All messages generated in round `i` are delivered
//! simultaneously at its end, which makes the global state at each round
//! boundary well defined and the whole computation a deterministic function
//! `s_{i+1} = F(s_i)`.
//!
//! That structure is embarrassingly parallel inside a round: the engine
//! snapshots all node states, evaluates every node's step against the
//! snapshot on a scoped thread pool (each node mutates only its own state),
//! then merges the emitted messages **deterministically** (bucketed by
//! target in identifier order, sorted by message within each target) and
//! applies them. Results are bit-identical for any thread count — asserted
//! by property tests.
//!
//! A *legal / stable* state (the paper's self-stabilization target) is a
//! fixpoint of `F`; [`Engine::run_until_fixpoint`] detects it by comparing
//! consecutive global states.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod outbox;
pub mod pool;
mod report;

pub use engine::{Engine, RoundOutcome, RoundView};
pub use outbox::Outbox;
pub use report::{FixpointReport, RoundStats, Trace};

use rechord_id::Ident;

/// A protocol executable on the synchronous engine.
///
/// `step` is the body of one round for one node: it may mutate the node's own
/// state freely (the paper's immediate `:=` assignments, which for Re-Chord
/// only ever touch the executing peer's own virtual siblings) and may read
/// any other node's **previous-round** state through the [`RoundView`]. All
/// cross-node effects must go through the [`Outbox`] (the delayed `<-`
/// assignments).
///
/// `deliver` applies one received message at the round boundary.
pub trait SyncProtocol: Sync {
    /// Per-node state. `Clone` is used for the round snapshot; `PartialEq`
    /// detects the fixpoint.
    type State: Clone + PartialEq + Send + Sync;
    /// A delayed assignment. `Ord` fixes the deterministic delivery order.
    type Msg: Clone + Ord + Send;

    /// One round of local computation for the node at `me`.
    fn step(
        &self,
        me: Ident,
        state: &mut Self::State,
        view: &RoundView<'_, Self::State>,
        out: &mut Outbox<Self::Msg>,
    );

    /// Applies one message to the target node's state (end of round).
    fn deliver(&self, me: Ident, state: &mut Self::State, msg: &Self::Msg);
}
