//! Wire encoding of a [`WorkingPartition`] as a flat u64 sequence: what a
//! BSP worker ships to a merge parent (in place or in a frame), seeds and
//! checkpoints ([`crate::distributed`]).

use super::*;
use crate::fragment::FragmentId;
use crate::state::{EdgeRef, LocalEdge, RemoteRef};
use euler_bsp::wire::{word_u32, WireError, WordReader, WordWriter};
use euler_graph::{EdgeId, VertexId};

/// Words in the record [`encode`] writes for `wp`.
pub fn record_words(wp: &WorkingPartition) -> usize {
    let (local, remote) = (wp.local_edges.len() as u64, wp.num_remote_edges() as u64);
    record_words_of(wp.leaves.len() as u64, local, wp.remote_by_level.len() as u64, remote) as usize
}

/// Words in the record of a state with these many leaves, local edges,
/// ref buckets and remote refs.
pub fn record_words_of(leaves: u64, local: u64, buckets: u64, remote: u64) -> u64 {
    6 + leaves + 4 * local + buckets + 3 * remote
}

/// `[id, level, isolated, n_local, n_leaves, n_buckets]`, the leaves,
/// `n_local × [tag, id, u, v]`, then per bucket `[n] + n × [edge, local,
/// remote]`.
pub fn encode(wp: &WorkingPartition, out: &mut WordWriter) {
    out.reserve(record_words(wp));
    out.words(&[
        wp.id.0 as u64,
        wp.level as u64,
        wp.isolated_vertices,
        wp.local_edges.len() as u64,
        wp.leaves.len() as u64,
        wp.remote_by_level.len() as u64,
    ]);
    for l in &wp.leaves {
        out.u(l.0 as u64);
    }
    for e in &wp.local_edges {
        let (tag, id) = match e.edge {
            EdgeRef::Real(id) => (0, id.0),
            EdgeRef::Virtual(id) => (1, id.0),
        };
        out.words(&[tag, id, e.u.0, e.v.0]);
    }
    for bucket in &wp.remote_by_level {
        out.u(bucket.len() as u64);
        for r in bucket {
            out.words(&[r.edge.0, r.local.0, r.remote.0]);
        }
    }
}

/// Decodes one [`encode`] record of a run whose tree has `buckets`
/// levels, which must fill `r` exactly. The record comes off the wire or
/// out of a checkpoint file: truncated or garbage words, another bucket
/// count and a ref in a bucket below the state's level (a merge that
/// already ran would have converted it) are typed errors, never a panic
/// or an over-allocation.
pub fn decode(r: &mut WordReader<'_>, buckets: usize) -> Result<WorkingPartition, WireError> {
    let [id, level, isolated_vertices] = r.array()?;
    let (n_local, n_leaves, n_buckets) = (r.count()?, r.count()?, r.count()?);
    let level = word_u32(level, "level")?;
    if n_buckets != buckets {
        return Err(WireError::Invalid(format!("state keeps {n_buckets} ref buckets, the tree has {buckets} levels")));
    }
    let mut leaves = Vec::with_capacity(r.cap(n_leaves, 1));
    for _ in 0..n_leaves {
        leaves.push(PartitionId(word_u32(r.u()?, "leaf")?));
    }
    let mut local_edges = Vec::with_capacity(r.cap(n_local, 4));
    for _ in 0..n_local {
        let [tag, idv, u, v] = r.array()?;
        let edge = match tag {
            0 => EdgeRef::Real(EdgeId(idv)),
            1 => EdgeRef::Virtual(FragmentId(idv)),
            t => return Err(WireError::Invalid(format!("unknown local edge tag {t}"))),
        };
        local_edges.push(LocalEdge { edge, u: VertexId(u), v: VertexId(v) });
    }
    let mut remote_by_level = Vec::with_capacity(r.cap(n_buckets, 1));
    for bucket_level in 0..n_buckets {
        let n = r.count()?;
        if n > 0 && (bucket_level as u64) < u64::from(level) {
            return Err(WireError::Invalid(format!(
                "state of level {level} holds {n} refs the level-{bucket_level} merge converts"
            )));
        }
        let mut bucket = Vec::with_capacity(r.cap(n, 3));
        for _ in 0..n {
            let [edge, local, remote] = r.array()?;
            bucket.push(RemoteRef { edge: EdgeId(edge), local: VertexId(local), remote: VertexId(remote) });
        }
        remote_by_level.push(bucket);
    }
    r.finish()?;
    Ok(WorkingPartition {
        id: PartitionId(word_u32(id, "partition")?),
        leaves,
        level,
        local_edges,
        remote_by_level,
        isolated_vertices,
    })
}
