//! Layer probes: public calls the program makes, run by the benchmark on
//! a workload's own peers, keys and messages, and timed call by call.

use crate::report::{Layers, Outcome};
use crate::stats::median;
use rechord_core::adversary::mix;
use rechord_core::network::ReChordNetwork;
use rechord_id::IdSpace;
use rechord_net::wire::HEADER_LEN;
use rechord_net::NetMsg;
use rechord_routing::{route, RoutingTable};
use rechord_workload::Request;
use std::time::Instant;

/// Builds the routing table of `net` and greedily routes every request in
/// `sample` from a seeded entry peer. Adds `routing.table_build_s`, sets
/// `routing.route_us` (median per route); returns the mean hop count.
pub fn routing(
    net: &ReChordNetwork,
    space: IdSpace,
    sample: &[Request],
    entry_seed: u64,
    layers: &mut Layers,
) -> f64 {
    let t = Instant::now();
    let table = RoutingTable::from_network(net);
    layers.add("routing.table_build_s", t.elapsed().as_secs_f64());
    let peers = table.peers();
    let mut us = Vec::with_capacity(sample.len());
    let mut hops = 0usize;
    for req in sample {
        let from = peers[(mix(&[entry_seed, req.id]) % peers.len() as u64) as usize];
        let key = space.key_position(req.key);
        let t = Instant::now();
        let r = route(&table, from, key);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        hops += r.hops();
    }
    layers.set("routing.route_us", median(&us));
    hops as f64 / sample.len().max(1) as f64
}

/// Frames every message with `NetMsg::frame_into` and decodes it back
/// with `NetMsg::decode`, repeating the batch until at least `min_calls`
/// calls are timed. Sets `net.encode_ns` and `net.decode_ns` (mean per
/// message); a message that does not decode to itself fails the gate.
pub fn codec(msgs: &[NetMsg], min_calls: usize, out: &mut Outcome) {
    if msgs.is_empty() {
        return;
    }
    let frames: Vec<Vec<u8>> = msgs.iter().map(NetMsg::to_frame).collect();
    for (m, f) in msgs.iter().zip(&frames) {
        if NetMsg::decode(&f[HEADER_LEN..]).as_ref() != Ok(m) {
            out.gate(format!("codec: a {} frame does not decode to itself", f.len()));
            return;
        }
    }
    let reps = min_calls.div_ceil(msgs.len()).max(1);
    let mut buf = Vec::with_capacity(frames.iter().map(Vec::len).max().unwrap_or(0));
    let t = Instant::now();
    for _ in 0..reps {
        for m in msgs {
            buf.clear();
            m.frame_into(&mut buf);
        }
    }
    let encode = t.elapsed().as_secs_f64();
    let mut sink = 0usize;
    let t = Instant::now();
    for _ in 0..reps {
        for f in &frames {
            sink += NetMsg::decode(&f[HEADER_LEN..]).is_ok() as usize;
        }
    }
    let decode = t.elapsed().as_secs_f64();
    let calls = (reps * msgs.len()) as f64;
    assert_eq!(sink as f64, calls, "frames decoded once decode cleanly again");
    out.layers.set("net.encode_ns", encode * 1e9 / calls);
    out.layers.set("net.decode_ns", decode * 1e9 / calls);
}

/// The request and reply frames a get/put stream puts on the wire. Reply
/// fields other than the value have fixed width, so their contents do not
/// change what the codec probe costs.
pub fn rpc_frames(sample: &[Request], value: impl Fn(&Request) -> String) -> Vec<NetMsg> {
    use rechord_workload::Op;
    let mut msgs = Vec::with_capacity(2 * sample.len());
    for req in sample {
        let (rpc, key) = (req.id, req.key);
        msgs.push(match req.op {
            Op::Get => NetMsg::GetReq { rpc, key },
            Op::Put => NetMsg::PutReq { rpc, key, value: value(req), version: req.id },
        });
        msgs.push(NetMsg::Reply {
            rpc,
            ok: true,
            hops: 1,
            responsible: rechord_id::Ident::from_raw(mix(&[key])),
            value: (req.op == Op::Get).then(|| value(req)),
        });
    }
    msgs
}
