//! The workers of the merge-tree walk — stepped in place or behind a wire
//! transport — with superstep checkpointing and kill-and-resume recovery for
//! the latter.
//!
//! [`crate::pipeline::BspBackend`] deals the partitions to a set of
//! **workers** — whole merge subtrees together where the balance allows it
//! (`crate::placement`) — and [`crate::pipeline::InProcessBackend`] is one
//! worker holding them all; either drives one barrier per merge level. A worker
//! holds its partitions' states between levels (a `SlotSet`) and runs each
//! through the shared level step (`crate::level`). A state retiring into a
//! parent the same worker holds is handed over by value; what goes to a
//! parent on another worker it *encodes*, and what arrives it decodes, so the
//! shuffle is measured in bytes. One fold turns a barrier's results into the
//! superstep's statistics, the next level's inboxes and the walk's outcome.
//!
//! Where the workers live is all that varies. Without a transport they are
//! slot sets of this process, stepped **in place** — every worker's slots
//! from one call on the rayon pool, whose parked threads every level reuses,
//! when the run allows it and the level carries enough work to pay for
//! waking them (`fans_out`) — fragments pushed straight into the walk's
//! store. With one, a **coordinator** owns
//! the walk and the workers are OS threads over the in-memory transport, or
//! genuine OS *processes* spawned via `std::process::Command` running the
//! `euler-worker` binary over the TCP transport, exchanging typed
//! messages through the framed, checksummed codec of
//! [`euler_bsp::transport`] — the rest of this page.
//!
//! ## Protocol
//!
//! ```text
//! worker                         coordinator
//!   | -- Hello{worker} ------------> |      (handshake, after connect)
//!   | <-- Init{head, tree, seeds     |      (again after a detected death)
//!   |     | file | checkpoint s} --- |
//!   | -- Ready{ckpt longs,           |
//!   |     build ns, refusal} ------> |
//!   |                                |      per merge level L:
//!   | <-- Start{L, child states} --- |
//!   |  …compute, heartbeats…         |
//!   | -- Done{L, reports, ships,     |
//!   |         segments, ckpt} -----> |      (barrier: validate, adopt)
//!   |                                |
//!   | <-- Shutdown ----------------- |
//!   | -- Bye ----------------------> |
//! ```
//!
//! An Init ends in the worker's seed, tagged: `0` its level-0 partition
//! states, encoded — what a run whose level 0 is resident ships — `1` a
//! *reference* to the `.ecsr` the coordinator mapped: path, header identity
//! (checksum, n, m), partition count, a mask of the partitions the worker
//! owns, and the assignment's labels packed two per word — or `2` a
//! superstep `s`: the worker's own checkpoint entering it. Given a reference
//! the worker opens the file frame-checked only ([`CsrFile::open_trusted`]),
//! refuses it unless the three identity words are the ones it was sent — the
//! coordinator's open validated a file with that checksum — and builds its
//! own partitions with the level-0 loader (`crate::level0`): its own scan,
//! so no count in the payload sizes an allocation, then a fill of the
//! partitions the mask names. The loader looks every endpoint up checked, so
//! a file that changed under the same header ends the worker with a typed
//! error. Ready reports what that took in three words: the Longs of the
//! checkpoint it restored (0 after a level-0 seed, which writes none); the
//! nanoseconds from Init to states; and a refusal — `0` none, `1` no
//! checkpoint to restore, `2` one found and ignored.
//!
//! ## Determinism & recovery invariant
//!
//! A fragment's id is `(superstep, slot, sequence)` wherever it is found
//! (see [`FragmentId`]), so its identity is independent of worker count,
//! scheduling, and recovery history. A worker sends a level's fragments as
//! the records its own store held them as; at each committed barrier the
//! coordinator validates the received ranges once and its fragment store
//! adopts them where they lie, under the ids they were found with, where
//! they read exactly as an in-process level's do. A distributed run's circuit is
//! bit-identical to the sequential in-process run, killed or not.
//!
//! After each superstep a worker persists what a rollback reinstates — its
//! slots and the states kept for the next level's merges, two lists in the
//! wire codec — to a versioned checkpoint file: `ckpt-w{W}-s{K}` holds the
//! state *entering* superstep `K ≥ 1` (entering 0, the retained Init tails
//! are that state). Every way a worker gets its state is an Init. A worker
//! is dead when its connection closes, when the Start of a superstep cannot
//! be sent to it, or when it stays silent past the heartbeat timeout. When
//! the coordinator detects a death during superstep `s ≥ 1` it respawns each
//! dead worker once, under a new epoch, and re-Inits every worker from
//! checkpoint `s`; it then re-delivers the superstep `s` inputs it retained
//! and resumes. At `s = 0`, with checkpointing off, or on any refusal, it
//! re-Inits every worker in place from the Init tails it retained — states
//! or reference — and replays supersteps `0..s` deterministically. Each
//! connection has one receiver thread for its whole life, so the Readys come
//! in behind whatever a survivor sent for the abandoned barrier, and are
//! told from it by their kind: frames on one connection arrive in order.

mod fleet;
mod protocol;
mod run;
mod worker;

pub(crate) use fleet::{FleetConfig, WorkerSpawn};
pub(crate) use run::DistRun;
pub use run::FAN_OUT_MIN_WORDS;
pub use worker::{default_worker_bin, worker_main};

use crate::config::EulerConfig;
use crate::error::EulerError;
use crate::fragment::{FragmentId, FragmentStore, Segment, SegmentHead};
use crate::level::{group_inbound, step_slot, SlotStep};
use crate::level0;
use crate::merge_strategy::MergeStrategy;
use crate::merge_tree::{MergePair, MergeTree};
use crate::phase1::ArenaPool;
use crate::pipeline::{wire, LevelOutcome, LevelPartitionReport, Seed, SeedKind};
use crate::placement::Placement;
use crate::state::{VertexTypeCounts, WorkingPartition};
use euler_bsp::checkpoint::{checkpoint_file, read_checkpoint, write_checkpoint, CheckpointError};
use euler_bsp::fault::{FaultPlan, FaultPolicy, RecoveryStats};
use euler_bsp::transport::{connect_endpoint, connect_with_retry, Connection, FrameError, Listener, Transport};
use euler_bsp::wire::{word_u32, WireError, WordReader, WordWriter};
use euler_bsp::{BspConfig, EngineStats, PlatformCostModel, SuperstepStats};
use euler_graph::{CsrFile, PartitionAssignment, PartitionId};
use euler_metrics::TimeBreakdown;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(test)]
mod tests {
    use super::fleet::init_tails;
    use super::protocol::{
        adopt_fragments, decode_done, decode_init, decode_start, decode_tree, encode_file_ref, encode_init_head,
        encode_labels, encode_state, encode_states, encode_tree, kind, read_segments, seed_tag, Blob, DoneMsg,
        DoneWriter, FileRef, InitHead, LevelShare, SeedTail, SlotReport, SEGMENT_FRAMING_WORDS,
    };
    use super::run::{fans_out, state_words, Workers};
    use super::worker::{build_from_file, run_worker, Inbound, SlotSet, WorkerState};
    use super::*;
    use crate::fragment::tests::{packed_header, raw_segment};
    use crate::fragment::{Fragment, FragmentKind, TourEdge};
    use crate::level0::Level0;
    use crate::state::{EdgeRef, LocalEdge, RemoteRef};
    use euler_bsp::MemTransport;
    use euler_graph::{EdgeId, VertexId};
    use proptest::prelude::*;

    fn tiny_tree() -> MergeTree {
        let pair = MergePair { parent: PartitionId(0), child: PartitionId(1), weight: 3 };
        MergeTree::from_parts(vec![vec![pair]], PartitionId(0), (0..8).map(PartitionId).collect())
    }

    fn test_init(dir: Option<PathBuf>) -> InitHead {
        InitHead {
            worker_id: 0,
            strategy: MergeStrategy::Deferred,
            heartbeat_interval: Duration::from_millis(50),
            checkpoint_dir: dir,
            tree: Arc::new(tiny_tree()),
        }
    }

    /// A level-0 partition state of [`tiny_tree`] (one ref bucket) whose
    /// every other field derives from `seed`.
    fn state(id: u32, seed: &[u64]) -> WorkingPartition {
        let v = |i: usize| VertexId(seed.get(i).copied().unwrap_or(7));
        WorkingPartition {
            id: PartitionId(id),
            leaves: seed.iter().take(3).map(|&l| PartitionId(l as u32)).collect(),
            level: 0,
            local_edges: (0..seed.len())
                .map(|i| LocalEdge {
                    edge: if i % 2 == 0 {
                        EdgeRef::Real(EdgeId(seed[i]))
                    } else {
                        EdgeRef::Virtual(FragmentId(seed[i]))
                    },
                    u: v(i),
                    v: v(i + 1),
                })
                .collect(),
            remote_by_level: vec![(0..seed.len() / 2)
                .map(|i| RemoteRef { edge: EdgeId(seed[i]), local: v(i), remote: v(i + 2) })
                .collect()],
            isolated_vertices: seed.iter().sum(),
        }
    }

    /// The first fragment `slot` finds at superstep 3: a tour through the
    /// vertices of `seed` (not empty) — closed if there is an odd number of
    /// them — whose edges are named after the vertex they leave, the
    /// multiples of 3 as virtual edges.
    fn fragment(slot: u32, seed: &[u64]) -> Fragment {
        let kind = if seed.len().is_multiple_of(2) { FragmentKind::Path } else { FragmentKind::Cycle };
        let last = match kind {
            FragmentKind::Path => seed[seed.len() - 1] + 1,
            FragmentKind::Cycle => seed[0],
        };
        let tos = seed.iter().skip(1).chain([&last]);
        Fragment {
            id: FragmentId::new(3, PartitionId(slot), 0),
            kind,
            level: 3,
            partition: PartitionId(slot),
            edges: seed
                .iter()
                .zip(tos)
                .map(|(&x, &y)| {
                    let (from, to) = (VertexId(x), VertexId(y));
                    if x % 3 == 0 {
                        TourEdge::Virtual { fragment: FragmentId(x), from, to }
                    } else {
                        TourEdge::Real { edge: EdgeId(x), from, to }
                    }
                })
                .collect(),
        }
    }

    /// One-record segments of level 3, partition 0 that no well-behaved worker
    /// writes — an empty fragment, a record of other coordinates, a count
    /// past the payload, a cycle left open — and what the validator says to
    /// each.
    fn hostile_segments() -> Vec<(Vec<Segment>, &'static str)> {
        let lone = |words: &[u64]| vec![raw_segment(3, PartitionId(0), 1, words)];
        let path = |level, n| packed_header(FragmentKind::Path, level, PartitionId(0), n);
        let cycle = packed_header(FragmentKind::Cycle, 3, PartitionId(0), 2);
        vec![
            (lone(&[path(3, 0), 1]), "is empty"),
            (lone(&[path(2, 1), 1, 1, 2]), "is not the next"),
            (lone(&[path(3, 3), 1, 1, 2, 2, 3]), "truncated"),
            (lone(&[cycle, 1, 1, 2, 2, 3]), "does not close"),
        ]
    }

    /// The segments a worker's store holds after pushing `fragments`.
    fn segments_of(fragments: &[Fragment]) -> Vec<Segment> {
        let store = FragmentStore::new();
        for f in fragments {
            store.push(f.clone());
        }
        store.segments()
    }

    fn report(partition: u32, x: u64) -> SlotReport {
        let report = LevelPartitionReport {
            level: 3,
            partition: PartitionId(partition),
            counts: crate::state::VertexTypeCounts {
                even_internal: x,
                even_boundary: x + 1,
                odd_boundary: x + 2,
                remote_edges: x + 3,
                local_edges: x + 4,
            },
            complexity: x + 5,
            phase1_time: Duration::from_nanos(x + 6),
            merge_time: Duration::from_nanos(x + 7),
            memory_longs: x + 8,
            remote_needed_now: x + 9,
            transfer_in_longs: x + 10,
            paths_found: x + 11,
            cycles_found: x + 12,
            internal_cycles_merged: x + 13,
            splice_pivot_lookups: x + 14,
            splice_linked_splices: x + 15,
            splice_materialization_longs: x + 16,
        };
        SlotReport {
            report,
            post_memory: 1000 + partition as u64,
            unpack: Duration::from_nanos(x + 17),
            ship: Duration::from_nanos(x + 18),
        }
    }

    fn init_payload(head: &InitHead, seeds: &[WorkingPartition]) -> Vec<u8> {
        let mut out = encode_init_head(head);
        out.u(seed_tag::STATES);
        encode_states(&mut out, seeds.iter());
        out.into_bytes()
    }

    /// An Init whose tail is the checkpoint entering `superstep`.
    fn checkpoint_init(head: &InitHead, superstep: u32) -> Vec<u8> {
        let mut out = encode_init_head(head);
        out.words(&[seed_tag::CHECKPOINT, u64::from(superstep)]);
        out.into_bytes()
    }

    /// The states an Init shipped.
    fn shipped(seed: SeedTail) -> Vec<WorkingPartition> {
        match seed {
            SeedTail::States(states) => states,
            SeedTail::File(file) => panic!("expected shipped states, got a reference to {:?}", file.path),
            SeedTail::Checkpoint(s) => panic!("expected shipped states, got checkpoint {s}"),
        }
    }

    /// A 16-ring over the tiny tree's 8 partitions (two vertices each, so
    /// every partition holds one local edge and two cut edges), packed to a
    /// scratch `.ecsr`: the file, and the level-0 states the loader fills
    /// from it in-process under `strategy`.
    fn ring_file(
        dir: &std::path::Path,
        strategy: MergeStrategy,
    ) -> (CsrFile, PartitionAssignment, Vec<WorkingPartition>) {
        let edges: Vec<(u64, u64)> = (0..16).map(|v| (v, (v + 1) % 16)).collect();
        let g = euler_graph::builder::graph_from_edges(&edges);
        let a = PartitionAssignment::from_labels((0..16).map(|v| v / 2).collect(), 8).unwrap();
        let path = dir.join("ring.ecsr");
        euler_graph::write_csr_file(&g, &path).unwrap();
        let csr = CsrFile::open(&path).unwrap();
        let states = crate::level0::tests::states(csr.edge_arrays(), &a, strategy.deduplicates());
        (csr, a, states)
    }

    /// The head of an Init for a run over `csr` under `a`: the run's own
    /// merge tree, which the worker buckets its refs for.
    fn file_head(csr: &CsrFile, a: &PartitionAssignment) -> WordWriter {
        let tree = MergeTree::build(&level0::scan(csr.edge_arrays(), a).unwrap().meta());
        encode_init_head(&InitHead { tree: Arc::new(tree), ..test_init(None) })
    }

    /// An Init whose tail refers worker 0 to `csr`, owning the partitions of
    /// `owned`'s set bits.
    fn file_init(csr: &CsrFile, a: &PartitionAssignment, owned: u64) -> Vec<u8> {
        let head = file_head(csr, a);
        let tail = encode_file_ref(csr, a.num_partitions(), &[owned]);
        [head.as_bytes(), tail.as_bytes(), encode_labels(a).as_bytes()].concat()
    }

    fn start_payload(superstep: u32, states: &[WorkingPartition]) -> Vec<u8> {
        let mut out = WordWriter::from_words(&[superstep as u64]);
        encode_states(&mut out, states.iter());
        out.into_bytes()
    }

    /// The Done as the coordinator receives it: sent as parts over the
    /// in-memory transport.
    fn done_payload(done: &DoneWriter) -> Vec<u8> {
        let listener = MemTransport.listen().unwrap();
        let dial = MemTransport.connect(&listener.endpoint()).unwrap();
        done.send(dial.as_ref()).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let (k, payload) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(k, kind::DONE);
        payload
    }

    fn sample_done(seeds: &[Vec<u64>]) -> DoneWriter {
        let mut done =
            DoneWriter { superstep: 3, share: LevelShare::new(), fragments: Vec::new(), checkpoint_longs: 88 };
        done.share.transfer_longs = 77;
        (done.share.local_messages, done.share.local_bytes) = (5, 66);
        let mut found = Vec::new();
        for (i, seed) in seeds.iter().enumerate() {
            done.share.reports.push(report(i as u32, seed.len() as u64));
            done.share.ship(i as u32 + 10, &state(i as u32, seed));
            if !seed.is_empty() {
                found.push(fragment(i as u32, seed));
            }
        }
        done.fragments = segments_of(&found);
        done
    }

    /// A Start decoded all the way: framing, then every state record.
    fn start_states(payload: &[u8]) -> Result<(u32, Vec<WorkingPartition>), WireError> {
        let (superstep, records) = decode_start(payload)?;
        let buckets = tiny_tree().height() as usize;
        let states = records.into_iter().map(|mut r| wire::decode(&mut r, buckets)).collect::<Result<_, _>>()?;
        Ok((superstep, states))
    }

    fn fragments_of(done: &DoneMsg) -> &[(SegmentHead, Blob)] {
        done.fragments.as_ref().expect("a Done off the wire carries its segments")
    }

    /// What the walk's store holds after adopting `list`.
    fn adopted(list: &[(SegmentHead, Blob)]) -> Result<Vec<Fragment>, EulerError> {
        let store = FragmentStore::new();
        adopt_fragments(list, &store)?;
        Ok(store.snapshot())
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("euler-dist-hygiene-{}-{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn init_message_roundtrips() {
        let dir = Some(PathBuf::from("/tmp/ckpts"));
        let mut m = test_init(dir.clone());
        let seeds = vec![state(0, &[1, 2, 3]), state(1, &[]), state(2, &[u64::MAX])];
        let (got, got_seeds) = decode_init(&init_payload(&m, &seeds)).unwrap();
        assert_eq!(got.worker_id, m.worker_id);
        assert_eq!(got.checkpoint_dir, dir);
        assert_eq!(shipped(got_seeds), seeds);
        assert_eq!(got.tree.leaves, m.tree.leaves);
        assert_eq!(got.tree.levels, m.tree.levels);
        // The head is four words ahead of the directory: worker, strategy,
        // heartbeat and the directory flag. One cut short anywhere is
        // refused.
        let head = encode_init_head(&test_init(None)).into_bytes();
        let strategy = MergeStrategy::Deferred.wire_code();
        let words: Vec<u64> = head.chunks(8).take(4).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect();
        assert_eq!(words, [0, strategy, 50_000_000, 0]);
        for cut in 0..head.len() / 8 {
            assert!(
                matches!(decode_init(&head[..8 * cut]), Err(WireError::Truncated { .. })),
                "a head cut at word {cut} was not refused as truncated"
            );
        }
        // A seed for a partition the tree does not have, and a tree whose
        // partitions no fragment id could name, are refused.
        let stray = decode_init(&init_payload(&m, &[state(8, &[1])])).map(drop);
        assert!(matches!(stray, Err(WireError::Invalid(m)) if m.contains("unknown partition")));
        let mut wide = tiny_tree();
        wide.leaves.push(PartitionId(FragmentId::MAX_PARTITIONS));
        m.tree = Arc::new(wide);
        assert!(matches!(decode_init(&init_payload(&m, &[])).map(drop), Err(WireError::Invalid(_))));
    }

    #[test]
    fn a_file_reference_roundtrips_and_builds_the_owned_partitions_of_the_oracle() {
        let dir = scratch("fileref");
        for strategy in MergeStrategy::all() {
            let (csr, a, oracle) = ring_file(&dir, strategy);
            // Partitions 1, 4 and 7 are this worker's.
            let owned = 0b1001_0010;
            let (head, seed) = decode_init(&file_init(&csr, &a, owned)).unwrap();
            let SeedTail::File(file) = seed else { panic!("expected a file reference") };
            assert_eq!(file.path, csr.path());
            assert_eq!(file.identity, [csr.checksum(), 16, 16]);
            assert_eq!(file.owned, [owned]);
            assert_eq!(file.assignment.labels(), a.labels());
            let built = build_from_file(&file, &head.tree, strategy).unwrap();
            let expected: Vec<_> = oracle.iter().filter(|wp| owned >> wp.id.0 & 1 == 1).cloned().collect();
            assert_eq!(built, expected, "{strategy}");
            // Nothing owned, nothing built; everything owned, the oracle.
            let none = FileRef { owned: vec![0], ..file };
            assert!(build_from_file(&none, &head.tree, strategy).unwrap().is_empty());
            let all = FileRef { owned: vec![u64::MAX], ..none };
            assert_eq!(build_from_file(&all, &head.tree, strategy).unwrap(), oracle);
        }
        // An odd label count pads the last word's high half.
        let odd = PartitionAssignment::from_labels(vec![7, 0, 3], 8).unwrap();
        assert_eq!(encode_labels(&odd), WordWriter::from_words(&[7, 3]));
        std::fs::remove_dir_all(dir).ok();
    }

    /// The branch a resident graph takes: a level 0 without a file is
    /// filled by the coordinator and shipped as states; with its mapped file
    /// it goes out as a reference. Either way each worker ends up with the
    /// same share of the oracle's states.
    #[test]
    fn a_level0_without_a_file_ships_states_and_with_one_a_reference() {
        let dir = scratch("init-tails");
        let strategy = MergeStrategy::Deduplicated;
        let (csr, a, oracle) = ring_file(&dir, strategy);
        let head = file_head(&csr, &a);
        let scan = level0::scan(csr.edge_arrays(), &a).unwrap();
        let mut shares = Vec::new();
        let tree = MergeTree::build(&scan.meta());
        for (file, tag) in [(None, seed_tag::STATES), (Some(&csr), seed_tag::FILE)] {
            let (edges, scan, levels) = (csr.edge_arrays(), scan.clone(), tree.leaf_levels(8));
            let level0 = Level0 { edges, file, assignment: &a, scan, dedup: true, levels };
            let placement = Placement::new(&tree, (0..8).map(|p| (PartitionId(p), 1)).collect(), 2);
            let (tails, labels) = init_tails(Seed(SeedKind::Level0(level0)), &placement).unwrap();
            assert_eq!(tails.len(), 2);
            let share = |tail: &WordWriter| {
                assert_eq!(tail.as_bytes()[..8], tag.to_le_bytes(), "seed tag");
                let init = [head.as_bytes(), tail.as_bytes(), labels.as_bytes()].concat();
                match decode_init(&init).unwrap() {
                    (_, SeedTail::States(states)) => states,
                    (head, SeedTail::File(file)) => build_from_file(&file, &head.tree, strategy).unwrap(),
                    (_, SeedTail::Checkpoint(s)) => panic!("unexpected checkpoint seed {s}"),
                }
            };
            shares.push(tails.iter().map(share).collect::<Vec<_>>());
        }
        assert_eq!(shares[0], shares[1]);
        let mut all = shares[0].concat();
        all.sort_by_key(|wp| wp.id);
        assert_eq!(all, oracle);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn hostile_trees_decode_to_the_scan_answers_in_a_table_sized_by_the_payload() {
        use crate::merge_tree::tests::{assert_table_matches_scan, table_len};
        let pair =
            |parent: u32, child: u32| MergePair { parent: PartitionId(parent), child: PartitionId(child), weight: 1 };
        // The decoder sees whatever words arrive; build them from a tree
        // whose public parts were edited after indexing.
        let decode = |levels: Vec<Vec<MergePair>>, leaves: Vec<u32>| {
            let mut tree = tiny_tree();
            tree.levels = levels;
            tree.leaves = leaves.into_iter().map(PartitionId).collect();
            let mut out = WordWriter::new();
            encode_tree(&mut out, &tree);
            let bytes = out.into_bytes();
            decode_tree(&mut WordReader::new(&bytes).unwrap())
        };
        // The largest nameable leaf id under 120 levels, most of them empty:
        // the table is sized by the 3 ids and 121 columns the payload holds,
        // never by the id.
        let top = FragmentId::MAX_PARTITIONS - 1;
        let mut levels = vec![Vec::new(); 120];
        levels[0] = vec![pair(5, 0)];
        levels[119] = vec![pair(top, 5)];
        let tall = decode(levels, vec![top, 5, 0]).unwrap();
        assert_eq!(table_len(&tall), 3 * 121);
        assert_eq!(tall.merge_level_of(PartitionId(0), PartitionId(top)), Some(119));
        assert_table_matches_scan(&tall, &[PartitionId(1), PartitionId(top + 1)]);

        // Duplicate leaves collapse to one table row each.
        let mut repeated = vec![2, 1, 1, 0];
        repeated.resize(500, 2);
        let dup = decode(vec![vec![pair(1, 0)], vec![pair(2, 1)]], repeated).unwrap();
        assert_eq!(table_len(&dup), 3 * 3);
        assert_table_matches_scan(&dup, &[PartitionId(3)]);

        // Pairs whose child or parent is no leaf, and a level that moves a
        // partition twice: the scan still has an answer, and it is the
        // table's (one more row per stray id).
        let stray = decode(vec![vec![pair(1, 7), pair(9, 1)], vec![pair(0, 9)]], vec![0, 1]).unwrap();
        assert_eq!(table_len(&stray), 4 * 3);
        assert_table_matches_scan(&stray, &[PartitionId(7), PartitionId(9), PartitionId(8)]);
        let chained = decode(vec![vec![pair(1, 0), pair(2, 1)]], vec![0, 1, 2]).unwrap();
        assert_eq!(chained.representative_after(PartitionId(0), 0), PartitionId(2));
        assert_table_matches_scan(&chained, &[]);

        // More levels than a fragment id can name: refused before indexing.
        let tall = decode(vec![Vec::new(); 256], vec![0]);
        assert!(matches!(&tall, Err(WireError::Invalid(m)) if m.contains("fragment id layout")));
    }

    #[test]
    fn u32_fields_past_32_bits_are_refused_not_truncated() {
        let wide = |k: u64| ((1u64 << 32) + k).to_le_bytes();
        let refused = |result: Result<(), WireError>, field: &str| {
            assert!(matches!(&result, Err(WireError::Invalid(m)) if m.contains(field)), "{field}: {result:?}");
        };
        let done = done_payload(&sample_done(&[vec![1, 2, 3, 4]]));
        let patched = |word: usize, k: u64| {
            let mut bytes = done.clone();
            bytes[8 * word..8 * word + 8].copy_from_slice(&wide(k));
            decode_done(Arc::new(bytes)).map(drop)
        };
        // The superstep, the first report's partition, the first outgoing
        // entry's destination.
        let parsed = decode_done(Arc::new(done.clone())).unwrap();
        let to = parsed.outgoing[0].1.range.start / 8 - 1;
        assert_eq!(
            (parsed.superstep, parsed.reports[0].report.partition, parsed.outgoing[0].0),
            (3, PartitionId(0), 10)
        );
        refused(patched(0, 3), "superstep");
        refused(patched(2, 0), "partition");
        refused(patched(to, 10), "destination");
        // A merge tree's leaf: `[levels, pairs, parent, child, weight, root,
        // leaves, leaf…]`.
        let mut out = WordWriter::new();
        encode_tree(&mut out, &tiny_tree());
        let mut tree = out.into_bytes();
        assert_eq!(euler_bsp::wire::words_at::<1>(&tree, 10), [3]);
        tree[80..88].copy_from_slice(&wide(3));
        refused(decode_tree(&mut WordReader::new(&tree).unwrap()).map(drop), "leaf");
    }

    #[test]
    fn done_message_roundtrips_and_its_ranges_relay_as_a_start() {
        let seeds = vec![vec![1, 2, 3, 4], vec![], vec![9]];
        let done = decode_done(Arc::new(done_payload(&sample_done(&seeds)))).unwrap();
        assert_eq!((done.superstep, done.transfer_longs, done.checkpoint_longs), (3, 77, 88));
        assert_eq!((done.local_messages, done.local_bytes), (5, 66));
        for (i, r) in done.reports.iter().enumerate() {
            assert_eq!(*r, report(i as u32, seeds[i].len() as u64));
        }
        // The shipped entries, sent on as parts behind a Start head, are
        // the Start a worker decodes — no re-encode in between.
        assert_eq!(done.outgoing.iter().map(|(to, _)| *to).collect::<Vec<_>>(), vec![10, 11, 12]);
        let head = WordWriter::from_words(&[4, done.outgoing.len() as u64]);
        let relayed: Vec<u8> = std::iter::once(head.as_bytes())
            .chain(done.outgoing.iter().map(|(_, entry)| entry.bytes()))
            .collect::<Vec<_>>()
            .concat();
        let states: Vec<WorkingPartition> = seeds.iter().enumerate().map(|(i, s)| state(i as u32, s)).collect();
        assert_eq!(relayed, start_payload(4, &states));
        assert_eq!(start_states(&relayed).unwrap(), (4, states));
        // The fragment list is adopted at commit, ids as found. (Virtual
        // references here point nowhere: typed error.)
        let lone = sample_done(&[vec![1, 2, 4]]);
        let lone = decode_done(Arc::new(done_payload(&lone))).unwrap();
        assert_eq!(adopted(fragments_of(&lone)).unwrap(), vec![fragment(0, &[1, 2, 4])]);
        assert!(matches!(
            adopted(fragments_of(&done)),
            Err(EulerError::Distributed(m)) if m.contains("unknown fragment")
        ));
        // A fragment that is not the next of its (level, partition) — here
        // the same list a second time — is refused too.
        let store = FragmentStore::new();
        adopt_fragments(fragments_of(&lone), &store).unwrap();
        assert!(matches!(
            adopt_fragments(fragments_of(&lone), &store),
            Err(EulerError::Distributed(m)) if m.contains("not the next")
        ));
    }

    #[test]
    fn the_runs_of_one_partition_cross_the_wire_as_one_segment() {
        // Enough two-edge paths for several runs in slot 0, one in slot 1.
        let many = 3 * crate::fragment::RUN_BYTES as u64 / 48;
        let path = |slot: u32, i: u64| Fragment {
            id: FragmentId::new(3, PartitionId(slot), i),
            edges: vec![
                TourEdge::Real { edge: EdgeId(2 * i + 1), from: VertexId(i), to: VertexId(i + 1) },
                TourEdge::Real { edge: EdgeId(2 * i + 2), from: VertexId(i + 1), to: VertexId(i + 2) },
            ],
            ..fragment(slot, &[1, 2])
        };
        let found: Vec<Fragment> = (0..many).map(|i| path(0, i)).chain([path(1, 0)]).collect();
        let done = DoneWriter { fragments: segments_of(&found), ..sample_done(&[]) };
        assert!(done.fragments.len() > 3, "{} runs", done.fragments.len());
        let parsed = decode_done(Arc::new(done_payload(&done))).unwrap();
        let heads: Vec<_> = fragments_of(&parsed).iter().map(|(head, _)| *head).collect();
        let head = |slot, records| SegmentHead { level: 3, partition: PartitionId(slot), first_seq: 0, records };
        assert_eq!(heads, vec![head(0, many), head(1, 1)]);
        assert_eq!(adopted(fragments_of(&parsed)).unwrap(), found);
    }

    /// Every strict word-prefix of a valid Init / Start / Done is a typed
    /// error on the side that decodes it, as is garbage in place of a state
    /// or fragment record inside an otherwise well-formed message.
    #[test]
    fn truncated_or_garbage_records_inside_valid_messages_are_typed_errors() {
        let seeds = vec![state(0, &[1, 2, 3]), state(1, &[5])];
        let init = init_payload(&test_init(None), &seeds);
        let start = start_payload(2, &seeds);
        let done = done_payload(&sample_done(&[vec![1, 2, 4], vec![5]]));
        for cut in (0..init.len()).step_by(8) {
            assert!(decode_init(&init[..cut]).is_err(), "init cut at {cut}");
        }
        let dir = scratch("cut");
        let (csr, a, _) = ring_file(&dir, MergeStrategy::Deferred);
        let by_file = file_init(&csr, &a, 0b11);
        assert!(decode_init(&by_file).is_ok());
        for cut in (0..by_file.len()).step_by(8) {
            assert!(decode_init(&by_file[..cut]).is_err(), "file init cut at {cut}");
        }
        std::fs::remove_dir_all(dir).ok();
        for cut in (0..start.len()).step_by(8) {
            assert!(start_states(&start[..cut]).is_err(), "start cut at {cut}");
        }
        for cut in (0..done.len()).step_by(8) {
            assert!(decode_done(Arc::new(done[..cut].to_vec())).is_err(), "done cut at {cut}");
        }
        // A state record whose declared edge counts overrun its length
        // prefix, and one with an unknown edge tag.
        let overrun = |payload: &[u8], word: usize| {
            let mut bad = payload.to_vec();
            bad[8 * word..8 * word + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            bad
        };
        // Start: [superstep, n, len, id, level, isolated, n_local, …].
        assert!(matches!(start_states(&overrun(&start, 6)), Err(WireError::Truncated { .. })));
        assert!(matches!(start_states(&overrun(&start, 2)), Err(WireError::Truncated { .. })));
        // First local edge's tag: 3 head words + 6 + 3 leaves.
        assert!(matches!(start_states(&overrun(&start, 12)), Err(WireError::Invalid(_))));
        // A record shorter than its length prefix says.
        let mut short = start.clone();
        short[16..24].copy_from_slice(&(wire::record_words(&seeds[0]) as u64 + 1).to_le_bytes());
        assert!(start_states(&short).is_err());
        // The coordinator relays states unread but reads the segment list's
        // framing, and validates its records at commit: a garbage record is
        // typed there.
        let parsed = decode_done(Arc::new(done.clone())).unwrap();
        let segments = fragments_of(&parsed);
        let list = segments[0].1.range.start / 8 - 1 - SEGMENT_FRAMING_WORDS * segments.len();
        // Segment list: [n, (level, partition, first_seq, n_records, len) ×
        // 2, packed header, start, id, …]. (An interior `to` is any vertex:
        // the chain cannot break.)
        for (word, expect_at_parse) in (0..14).map(|word| (word, [0, 5, 10].contains(&word))) {
            let bad = overrun(&done, list + word);
            match decode_done(Arc::new(bad)) {
                Err(_) => assert!(expect_at_parse, "word {word}"),
                Ok(parsed) => {
                    assert!(!expect_at_parse, "word {word}");
                    assert!(matches!(adopted(fragments_of(&parsed)), Err(EulerError::Distributed(_))));
                }
            }
        }
        // Records that decode word for word but are no fragment: an empty one,
        // adopted, would panic Phase 3 when something referenced it.
        for (fragments, what) in hostile_segments() {
            let hostile = DoneWriter { fragments, ..sample_done(&[]) };
            let parsed = decode_done(Arc::new(done_payload(&hostile))).unwrap();
            match adopted(fragments_of(&parsed)) {
                Err(EulerError::Distributed(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("expected a typed refusal ({what}), got {other:?}"),
            }
        }
    }

    /// A worker handed a checksummed-but-hostile Init or Start ends with a
    /// typed error instead of panicking — garbage words, and equally a
    /// well-formed state that the previous level never shipped.
    #[test]
    fn worker_rejects_hostile_payloads_with_a_typed_error() {
        let mut garbage_seed = encode_init_head(&test_init(None));
        garbage_seed.words(&[seed_tag::STATES, 1, 4, u64::MAX, u64::MAX, u64::MAX, u64::MAX]);
        let mut unknown_tag = encode_init_head(&test_init(None));
        unknown_tag.words(&[3, 0]);
        let mut far_checkpoint = encode_init_head(&test_init(None));
        far_checkpoint.words(&[seed_tag::CHECKPOINT, 1 << 40]);

        // Hostile references to a level-0 file. Tail words after the head:
        // [1, path len, path…, checksum, n, m, P, mask, labels…].
        let dir = scratch("hostile-ref");
        let (csr, a, _) = ring_file(&dir, MergeStrategy::Deferred);
        let good_ref = file_init(&csr, &a, 0b11);
        let head_words = file_head(&csr, &a).len();
        let identity = head_words + 2 + euler_bsp::wire::words_for(csr.path().to_string_lossy().len());
        let with_word = |at: usize, word: u64| {
            let mut bad = good_ref.clone();
            bad[8 * at..8 * at + 8].copy_from_slice(&word.to_le_bytes());
            bad
        };
        let mut missing = encode_init_head(&test_init(None));
        missing.u(seed_tag::FILE);
        missing.str(&dir.join("no-such.ecsr").to_string_lossy());
        missing.words(&[csr.checksum(), 16, 16, 8, 0b11]);
        missing.words(&[0; 8]);
        // More labels claimed than the payload holds, and a payload that ends
        // where the mask should start.
        let short_labels = with_word(identity + 1, 1 << 40);
        let no_mask = good_ref[..8 * (identity + 4)].to_vec();
        // Label 9 of an 8-partition assignment, in the low and the high half.
        let labels_at = identity + 5;
        let big_label = [with_word(labels_at, 9), with_word(labels_at, 9 << 32)];
        // The endpoints section names vertex 16 of 16: only the checked
        // lookups of the loader stand between a trusted open and a panic.
        let corrupt = dir.join("corrupt.ecsr");
        let mut bytes = std::fs::read(csr.path()).unwrap();
        let last = bytes.len() - 8;
        bytes[last..].copy_from_slice(&16u64.to_le_bytes());
        std::fs::write(&corrupt, &bytes).unwrap();
        let mut corrupt_ref = encode_init_head(&test_init(None));
        corrupt_ref.u(seed_tag::FILE);
        corrupt_ref.str(&corrupt.to_string_lossy());
        corrupt_ref.words(&[csr.checksum(), 16, 16, 8, 0b11]);
        let corrupt_ref = [corrupt_ref.as_bytes(), encode_labels(&a).as_bytes()].concat();
        // A triangle's file holds 32 words: 8 partitions' 64 cut cells are
        // more than the worker will allocate on its word.
        let g = euler_graph::builder::graph_from_edges(&[(0, 1), (1, 2), (2, 0)]);
        euler_graph::write_csr_file(&g, dir.join("triangle.ecsr")).unwrap();
        let triangle = CsrFile::open(dir.join("triangle.ecsr")).unwrap();
        let spread = PartitionAssignment::from_labels(vec![0, 3, 7], 8).unwrap();
        let wide_ref = file_init(&triangle, &spread, 0b11);
        let hostile_refs = vec![
            (wide_ref, "cut matrix larger than the file"),
            (unknown_tag.into_bytes(), "unknown seed tag 3"),
            (far_checkpoint.into_bytes(), "checkpoint seed names superstep 1099511627776"),
            (missing.into_bytes(), "no-such.ecsr"),
            (with_word(identity, csr.checksum() ^ 1), "not the one the coordinator mapped"),
            (with_word(identity + 1, 15), "not the one the coordinator mapped"),
            (with_word(identity + 2, 17), "not the one the coordinator mapped"),
            (with_word(identity + 3, 9), "names 9 partitions, the tree has 8"),
            (short_labels, "truncated"),
            (no_mask, "truncated"),
            (big_label[0].clone(), "partition P9 out of range"),
            (big_label[1].clone(), "partition P9 out of range"),
            (corrupt_ref, "vertex v16 out of range"),
        ];
        let mut garbage_inbox = WordWriter::from_words(&[0, 1, 7]);
        garbage_inbox.words(&[1, 0, 0, u64::MAX, 0, 0, 0]);
        // The tiny tree ships partition 1 into level 1, nothing else.
        let stray_inbox = start_payload(1, &[state(5, &[])]);
        let good_init = || init_payload(&test_init(None), &[state(0, &[])]);
        // A worker holding both ends of the tiny tree's one merge keeps
        // partition 1 at superstep 0; a Start that delivers it again would
        // merge it twice.
        let both_ends = init_payload(&test_init(None), &[state(0, &[]), state(1, &[])]);
        let kept_again = vec![
            (kind::INIT, both_ends),
            (kind::START, start_payload(0, &[])),
            (kind::START, start_payload(1, &[state(1, &[])])),
        ];
        let mut cases = vec![
            (vec![(kind::INIT, garbage_seed.into_bytes())], "payload"),
            (vec![(kind::INIT, good_init()), (kind::START, garbage_inbox.into_bytes())], "payload"),
            (vec![(kind::INIT, good_init()), (kind::START, stray_inbox)], "ships no such child"),
            (kept_again, "partition 1 arrived twice"),
        ];
        cases.extend(hostile_refs.into_iter().map(|(init, what)| (vec![(kind::INIT, init)], what)));
        for (frames, what) in cases {
            let listener = MemTransport.listen().unwrap();
            let dial = MemTransport.connect(&listener.endpoint()).unwrap();
            let worker = std::thread::spawn(move || run_worker(Arc::from(dial), 0));
            let conn = listener.accept(Duration::from_secs(5)).unwrap();
            assert_eq!(conn.recv_timeout(Some(Duration::from_secs(5))).unwrap().0, kind::HELLO);
            for (k, payload) in &frames {
                conn.send(*k, payload).unwrap();
            }
            let err = worker.join().expect("worker must not panic").unwrap_err();
            assert!(err.contains(what), "expected `{what}`, got: {err}");
        }
        // The same corrupt bytes do not get past the validated open.
        assert!(matches!(CsrFile::open(&corrupt), Err(euler_graph::GraphError::CsrFormat(_))));

        // The good reference brings the worker up: Ready carries no
        // checkpoint Longs and the time the level-0 build took.
        let listener = MemTransport.listen().unwrap();
        let dial = MemTransport.connect(&listener.endpoint()).unwrap();
        let worker = std::thread::spawn(move || run_worker(Arc::from(dial), 0));
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        assert_eq!(conn.recv_timeout(Some(Duration::from_secs(5))).unwrap().0, kind::HELLO);
        conn.send(kind::INIT, &good_ref).unwrap();
        let (k, ready) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        let [restored, seed_ns, refusal] = WordReader::new(&ready).unwrap().array().unwrap();
        assert_eq!((k, restored, refusal), (kind::READY, 0, 0));
        assert!(seed_ns > 0, "the worker reports its level-0 build");
        conn.send(kind::SHUTDOWN, &[]).unwrap();
        worker.join().unwrap().unwrap();

        // A level-0 seed writes no checkpoint. A checkpoint that is not
        // exactly two state lists — garbage, or one more word after them:
        // Inited from one, the worker answers that it found and ignored it,
        // and carries on. A checkpoint never written is missing; a sound one
        // restores.
        let ckpt = dir.join("ckpt");
        let checkpointing = test_init(Some(ckpt.clone()));
        let writer = WorkerState::build(test_init(Some(ckpt.clone())), vec![state(0, &[4])]);
        let listener = MemTransport.listen().unwrap();
        let dial = MemTransport.connect(&listener.endpoint()).unwrap();
        let worker = std::thread::spawn(move || run_worker(Arc::from(dial), 0));
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        assert_eq!(conn.recv_timeout(Some(Duration::from_secs(5))).unwrap().0, kind::HELLO);
        conn.send(kind::INIT, &init_payload(&checkpointing, &[state(0, &[])])).unwrap();
        let (k, ready) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        let [longs, _, refusal] = WordReader::new(&ready).unwrap().array().unwrap();
        assert_eq!((k, longs, refusal), (kind::READY, 0, 0));
        assert!(!checkpoint_file(&ckpt, 0, 0).exists(), "a level-0 seed wrote checkpoint 0");
        let ready_from = |superstep: u32| {
            conn.send(kind::INIT, &checkpoint_init(&checkpointing, superstep)).unwrap();
            let (k, ready) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(k, kind::READY);
            let [longs, _, refusal] = WordReader::new(&ready).unwrap().array().unwrap();
            (longs, refusal)
        };
        let mut trailing = WordWriter::new();
        encode_states(&mut trailing, writer.set.slots.values());
        encode_states(&mut trailing, writer.set.kept.iter());
        trailing.u(0);
        let garbage = WordWriter::from_words(&[7, 1, 0, 0, u64::MAX]);
        for (superstep, payload) in (5..).zip([garbage, trailing, WordWriter::new()]) {
            write_checkpoint(&checkpoint_file(&ckpt, 0, superstep), payload.as_bytes()).unwrap();
            assert_eq!(ready_from(superstep), (0, 2));
        }
        assert_eq!(ready_from(9), (0, 1));
        // Written counts the container's 4 header words, restored its payload.
        let sound = writer.write_ckpt(9);
        assert_eq!(ready_from(9), (sound - 4, 0));
        conn.send(kind::SHUTDOWN, &[]).unwrap();
        worker.join().unwrap().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    /// The gate is one comparison with one constant: a level one word short
    /// of it is stepped on the caller, a level of exactly that much work
    /// fans out.
    #[test]
    fn a_level_fans_out_from_the_gate_on() {
        assert!(!fans_out(FAN_OUT_MIN_WORDS - 1));
        assert!(fans_out(FAN_OUT_MIN_WORDS));
        assert!(!fans_out(0));
    }

    /// A slot stepped in place that panics fails the level with a typed
    /// error naming the first slot in worker and slot order, whichever
    /// thread raised it — on either side of the gate, for one worker, two,
    /// and one per partition: a level under it, or a run that may not fan
    /// out, steps every slot on the caller's own thread; one over it steps
    /// every worker's slots from one call on the pool, two workers' slots
    /// side by side. Past the last level a fragment id can name, every
    /// slot's first push panics.
    #[test]
    fn a_panic_in_any_worker_stepped_in_place_is_a_typed_error() {
        let large: Vec<u64> = (1..=FAN_OUT_MIN_WORDS / 4).collect();
        let small: [&[u64]; 3] = [&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]];
        for (seeds, over) in [(small, false), ([&large[..]; 3], true)] {
            let states = || (0..3).map(|p| state(p, seeds[p as usize])).collect::<Vec<_>>();
            assert_eq!(fans_out(state_words(&states())), over);
            let per_partition = BspConfig::one_worker_per_partition();
            let engines = [BspConfig::with_workers(1), BspConfig::with_workers(2), per_partition];
            for (engine, fan_out) in engines.into_iter().flat_map(|e| [(e, true), (e, false)]) {
                let config = EulerConfig { parallel_within_level: fan_out, ..EulerConfig::improved() };
                let mut run = DistRun::new(engine, None, Arc::new(tiny_tree()), states().into(), &config).unwrap();
                let owners = run.placement.owners();
                let first = (0..owners.len()).min_by_key(|&p| (owners[p], p)).unwrap();
                let named = format!("worker {} panicked stepping partition {first} in place", owners[first]);
                match run.step(FragmentId::MAX_LEVELS, &FragmentStore::new()) {
                    Err(EulerError::Distributed(m)) => assert_eq!(m, named, "{engine:?}, {fan_out}"),
                    other => panic!("expected a typed error, got {:?}", other.map(|o| o.reports.len())),
                }
            }
        }
    }

    /// Workers stepped in place share the run's one arena pool: after a
    /// level that steps every slot of one worker per partition (eight), it
    /// holds one arena under `.sequential()` and, fanned out, no more than
    /// the pool's threads — not one per worker.
    #[test]
    fn workers_in_place_share_one_arena_pool() {
        let large: Vec<u64> = (1..=FAN_OUT_MIN_WORDS / 4).collect();
        let states = || (0..8).map(|p| state(p, &large)).collect::<Vec<_>>();
        for (config, most) in [(EulerConfig::default().sequential(), 1), (EulerConfig::default(), 8)] {
            let engine = BspConfig::one_worker_per_partition();
            let mut run = DistRun::new(engine, None, Arc::new(tiny_tree()), states().into(), &config).unwrap();
            run.step(0, &FragmentStore::new()).unwrap();
            let Workers::InPlace { sets, pool, .. } = &run.workers else { panic!("no transport, no fleet") };
            assert_eq!(sets.len(), 8);
            let arenas = pool.idle();
            assert!((1..=most.min(rayon::current_num_threads())).contains(&arenas), "{arenas} arenas");
        }
    }

    /// Workers stepped in place answer the same inbound states with the
    /// same typed error (where the simulated engine `.expect`ed on decode),
    /// before any slot steps: a hostile entry for the last worker leaves
    /// the first one's slot unstepped, its fragments unpushed.
    #[test]
    fn in_place_workers_refuse_hostile_inbound_states_with_the_same_typed_error() {
        let entry = |words: WordWriter| {
            let buf = Arc::new(words.into_bytes());
            Blob::words(&buf, 0..buf.len() / 8)
        };
        let mut stray = WordWriter::new();
        encode_state(&mut stray, &state(5, &[]));
        let garbage = WordWriter::from_words(&[7, 1, 0, 0, u64::MAX, 0, 0, 0]);
        for (inbound, what) in [(stray, "ships no such child"), (garbage, "payload")] {
            let mut run = DistRun::new(
                BspConfig::with_workers(2),
                None,
                Arc::new(tiny_tree()),
                vec![state(0, &[1, 2, 3]), state(2, &[4, 5, 6])].into(),
                &EulerConfig::improved().sequential(),
            )
            .unwrap();
            run.inbox[1].push(entry(inbound));
            let store = FragmentStore::new();
            match run.step(1, &store) {
                Err(EulerError::Distributed(m)) => assert!(m.contains(what), "{m}"),
                other => panic!("expected a typed error, got {:?}", other.map(|o| o.reports.len())),
            }
            assert!(store.snapshot().is_empty(), "{what}: a slot stepped");
        }
    }

    impl SlotSet {
        /// One level of this set alone, through the pieces every worker
        /// steps a level with: take, step in slot order, fold.
        fn step_level(&mut self, level: u32, inbound: Inbound, pool: &ArenaPool, store: &FragmentStore) -> LevelShare {
            let work = self.take(inbound);
            let steps = work.into_iter().map(|slot| self.step(level, slot, pool, store)).collect();
            self.fold(steps)
        }
    }

    /// The records of a share's shipped states, as the next Start (or the
    /// next in-place level) hands them to `unpack`.
    fn shipped_records(done: &DoneMsg) -> Vec<WordReader<'_>> {
        done.outgoing
            .iter()
            .map(|(_, entry)| WordReader::new(entry.bytes())?.record())
            .collect::<Result<_, WireError>>()
            .unwrap()
    }

    #[test]
    fn kept_and_decoded_children_of_one_parent_merge_in_pair_order() {
        use crate::level::tests::{leaves, tree};
        // Partitions 0 and 1 both retire into 2 at level 0, 0 before 1.
        let star = Arc::new(tree(vec![vec![(2, 0), (2, 1)]]));
        let set = |ids: &[usize]| {
            let mine = ids.iter().map(|&i| leaves(&star).swap_remove(i)).collect();
            SlotSet::new(Arc::clone(&star), MergeStrategy::Duplicated, mine)
        };
        let pool = ArenaPool::new();
        // One worker holds everything, as the in-process backend's does: both
        // children are kept.
        let oracle_store = FragmentStore::new();
        let mut oracle = set(&[0, 1, 2]);
        let share = oracle.step_level(0, Inbound::new(), &pool, &oracle_store);
        assert_eq!((share.local_messages, share.shipped), (2, 0));
        let inbound = oracle.unpack(1, Vec::new()).unwrap();
        oracle.step_level(1, inbound, &pool, &oracle_store);

        // The parent's worker holds one child and is sent the other —
        // either one: the kept state is listed before the decoded one, the
        // merges run 0 then 1 all the same.
        for (with_parent, elsewhere) in [(0, 1), (1, 0)] {
            let store = FragmentStore::new();
            let (mut here, mut there) = (set(&[with_parent, 2]), set(&[elsewhere]));
            let kept = here.step_level(0, Inbound::new(), &pool, &store);
            let sent = there.step_level(0, Inbound::new(), &pool, &store);
            assert_eq!((kept.local_messages, kept.shipped), (1, 0));
            assert_eq!((sent.local_messages, sent.shipped), (0, 1));
            let child = &here.kept[0];
            assert_eq!(child.id.0 as usize, with_parent);
            assert_eq!(kept.local_bytes, 8 * wire::record_words(child) as u64);
            // By value means no codec time on either side of the hand-off.
            assert_eq!(kept.reports[0].ship, Duration::ZERO);
            assert!(there.slots.is_empty() && there.kept.is_empty());

            let sent = sent.into_done(0).unwrap();
            assert_eq!(sent.outgoing[0].0, 2);
            let inbound = here.unpack(1, shipped_records(&sent)).unwrap();
            assert!(here.kept.is_empty(), "unpack consumes the kept states");
            let order: Vec<u32> = inbound[&PartitionId(2)].iter().map(|(wp, _)| wp.id.0).collect();
            assert_eq!(order, [0, 1]);
            let unpack: Vec<bool> = inbound[&PartitionId(2)].iter().map(|(_, t)| *t == Duration::ZERO).collect();
            assert!(unpack[with_parent], "the kept child was not decoded");
            let root = here.step_level(1, inbound, &pool, &store);
            assert_eq!((root.local_messages, root.shipped), (0, 0));
            assert_eq!(here.slots, oracle.slots);
            assert_eq!(store.snapshot(), oracle_store.snapshot());

            // Delivered again, the kept child is refused.
            let (mut here, _) = (set(&[with_parent, 2]), ());
            here.step_level(0, Inbound::new(), &pool, &store);
            let mut again = LevelShare::new();
            again.ship(2, &leaves(&star)[with_parent]);
            let again = again.into_done(0).unwrap();
            assert!(matches!(
                here.unpack(1, shipped_records(&again)),
                Err(EulerError::Distributed(m)) if m.contains("arrived twice")
            ));
        }
    }

    #[test]
    fn a_carried_over_slot_merges_a_kept_child() {
        use crate::level::tests::{leaves, step, tree};
        // 0 retires into 1 at level 0, 1 into 2 at level 1: slot 2 is carried
        // over twice before its only child arrives — by value, the one
        // worker holding everything.
        let chain = Arc::new(tree(vec![vec![(1, 0)], vec![(2, 1)]]));
        let store = FragmentStore::new();
        let mut set = SlotSet::new(Arc::clone(&chain), MergeStrategy::Duplicated, leaves(&chain));
        let pool = ArenaPool::new();
        let mut local = Vec::new();
        for level in 0..3 {
            let inbound = set.unpack(level, Vec::new()).unwrap();
            let share = set.step_level(level, inbound, &pool, &store);
            assert_eq!(share.shipped, 0);
            local.push(share.local_messages);
        }
        assert_eq!(local, [1, 1, 0]);

        // The same walk, the states handed on by hand.
        let by_hand = FragmentStore::new();
        let step = |wp, children, level| step(wp, children, &chain, level, &by_hand).state;
        let [p0, p1, p2]: [WorkingPartition; 3] = leaves(&chain).try_into().unwrap();
        let (p0, p1, p2) = (step(p0, vec![], 0), step(p1, vec![], 0), step(p2, vec![], 0));
        let (p1, p2) = (step(p1, vec![p0], 1), step(p2, vec![], 1));
        let root = step(p2, vec![p1], 2);
        assert_eq!(set.slots.into_values().collect::<Vec<_>>(), [root]);
        assert_eq!(store.snapshot(), by_hand.snapshot());
    }

    #[test]
    fn a_checkpoint_round_trips_the_slots_and_the_kept_states() {
        use crate::level::tests::{leaves, tree};
        let dir = scratch("kept");
        let chain = Arc::new(tree(vec![vec![(1, 0)], vec![(2, 1)]]));
        let init = InitHead { tree: Arc::clone(&chain), ..test_init(Some(dir.clone())) };
        let mut s = WorkerState::build(init, leaves(&chain));
        // Superstep 0 keeps partition 0 for slot 1 and writes checkpoint 1.
        let done = s.superstep(0, Inbound::new());
        assert!(done.checkpoint_longs > 0);
        assert_eq!((done.share.local_messages, s.set.kept.len()), (1, 1));
        let (slots, kept) = (s.set.slots.clone(), s.set.kept.clone());
        // Superstep 1 consumes it; rolling back to checkpoint 1 reinstates
        // it, and the superstep replays to the same share.
        let replay = |s: &mut WorkerState| {
            let inbound = s.set.unpack(1, Vec::new()).unwrap();
            let done = s.superstep(1, inbound);
            (done.share.reports.iter().map(|r| r.report.counts).collect::<Vec<_>>(), s.set.slots.clone())
        };
        let first = replay(&mut s);
        assert!(s.restore(1).is_ok());
        assert_eq!((&s.set.slots, &s.set.kept), (&slots, &kept));
        assert_eq!(replay(&mut s), first);
        std::fs::remove_dir_all(dir).ok();
    }

    /// State records that bucket their refs wrongly: refs in a bucket below
    /// the state's level (the merge that converts them already ran), a bucket
    /// count other than the tree's height, and a bucket count that runs past
    /// the payload. Each is a typed refusal wherever a worker reads states —
    /// an Init seed, a Start inbox, a checkpoint.
    #[test]
    fn hostile_bucketed_state_records_are_typed_errors() {
        use crate::level::tests::{leaves, tree};
        let chain = Arc::new(tree(vec![vec![(1, 0)], vec![(2, 1)]]));
        // Partition 0 touches partition 2 only: its refs convert at level 1.
        let good = leaves(&chain).swap_remove(0);
        assert!(good.remote_by_level[0].is_empty() && !good.remote_by_level[1].is_empty());
        let list = |wp: &WorkingPartition| {
            let mut out = WordWriter::new();
            encode_states(&mut out, std::iter::once(wp));
            out.into_bytes()
        };
        let below = WorkingPartition { level: 2, ..good.clone() };
        let mut three = good.clone();
        three.remote_by_level.push(Vec::new());
        // [n, len] + 6 head words + leaves + local edges, then bucket 0's count.
        let mut overrun = list(&good);
        let count = 2 + 6 + good.leaves.len() + 4 * good.local_edges.len();
        overrun[8 * count..8 * count + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let cases = [
            (list(&below), "state of level 2 holds 2 refs the level-1 merge converts"),
            (list(&three), "state keeps 3 ref buckets, the tree has 2 levels"),
            (overrun, "payload truncated"),
        ];
        let dir = scratch("hostile-buckets");
        let head = InitHead { tree: Arc::clone(&chain), ..test_init(Some(dir.clone())) };
        let init = |states: &[u8]| {
            let mut out = encode_init_head(&head);
            out.u(seed_tag::STATES);
            [out.as_bytes(), states].concat()
        };
        let start = |states: &[u8]| [&0u64.to_le_bytes()[..], states].concat();
        let unpack = |payload: &[u8]| {
            let (_, records) = decode_start(payload)?;
            let mut set = SlotSet::new(Arc::clone(&chain), MergeStrategy::Duplicated, Vec::new());
            set.unpack(1, records).map(drop).map_err(|e| WireError::Invalid(e.to_string()))
        };
        let restore = |states: &[u8]| {
            let empty = WordWriter::from_words(&[0]);
            let payload = [states, empty.as_bytes()].concat();
            write_checkpoint(&checkpoint_file(&dir, 0, 1), &payload).unwrap();
            let init = InitHead { tree: Arc::clone(&chain), ..test_init(Some(dir.clone())) };
            WorkerState::build(init, Vec::new()).restore(1)
        };
        // The well-formed record passes all three.
        let (_, SeedTail::States(seeds)) = decode_init(&init(&list(&good))).unwrap() else { panic!("expected states") };
        assert_eq!(seeds, std::slice::from_ref(&good));
        assert!(
            matches!(unpack(&start(&list(&good))), Err(WireError::Invalid(m)) if m.contains("ships no such child"))
        );
        assert!(restore(&list(&good)).is_ok());
        for (states, what) in cases {
            let refused = |r: Result<(), WireError>| match r {
                Err(e) => assert!(e.to_string().contains(what), "expected `{what}`, got: {e}"),
                Ok(()) => panic!("`{what}` was accepted"),
            };
            refused(decode_init(&init(&states)).map(drop));
            refused(unpack(&start(&states)));
            assert!(restore(&states).unwrap_err().ignored, "{what}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_checkpoint_refusal_is_not_ignored() {
        // Checkpointing disabled → refusal without "ignored" (nothing was
        // found and discarded); same for an enabled dir with no file yet.
        let mut s = WorkerState::build(test_init(None), Vec::new());
        assert!(!s.restore(0).unwrap_err().ignored);
        let dir = scratch("missing");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        assert!(!s.restore(0).unwrap_err().ignored);
        // A directory beneath a regular file: nothing can be written there
        // (0 Longs) and nothing opened, so nothing was ignored either.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let mut s = WorkerState::build(test_init(Some(blocker.join("ckpt"))), vec![state(0, &[4])]);
        assert_eq!(s.write_ckpt(1), 0);
        assert!(!s.restore(1).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_checkpoint_is_detected_and_ignored_at_restore() {
        let dir = scratch("torn");
        let seeds = vec![state(0, &[4, 5, 6])];
        let kept = vec![state(1, &[7]), state(3, &[])];
        let mut s = WorkerState::build(test_init(Some(dir.clone())), seeds.clone());
        s.set.kept = kept.clone();
        assert!(s.write_ckpt(1) > 0);
        s.set.slots.clear();
        s.set.kept.clear();
        assert!(s.restore(1).is_ok(), "pristine checkpoint must restore");
        assert_eq!(s.set.slots.into_values().collect::<Vec<_>>(), seeds);
        assert_eq!(s.set.kept, kept, "the kept states are part of the state entering a superstep");
        // Tear the file mid-payload, as a crash during a (non-atomic) write
        // or a truncated copy would.
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        let path = checkpoint_file(&dir, 0, 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(s.restore(1).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn foreign_version_checkpoint_is_detected_and_ignored_at_restore() {
        let dir = scratch("version");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        assert!(s.write_ckpt(1) > 0);
        // Word 1 of the container is the format version; stamp a future one.
        let path = checkpoint_file(&dir, 0, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.restore(1).unwrap_err().ignored);
        // So are the versions before this one, whose payloads also held the
        // fragments a superstep found.
        for earlier in [2u64, 3, 4, 5] {
            bytes[8..16].copy_from_slice(&earlier.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(s.restore(1).unwrap_err().ignored);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_payload_is_detected_and_ignored_at_restore() {
        let dir = scratch("corrupt");
        let mut s = WorkerState::build(test_init(Some(dir.clone())), Vec::new());
        assert!(s.write_ckpt(2) > 0);
        let path = checkpoint_file(&dir, 0, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.restore(2).unwrap_err().ignored);
        std::fs::remove_dir_all(dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Start messages round-trip for any superstep and state set.
        #[test]
        fn start_message_roundtrips(
            superstep in 0u64..1000,
            seeds in prop::collection::vec(prop::collection::vec(0u64..1_000_000, 0..12), 0..6),
        ) {
            let states: Vec<WorkingPartition> =
                seeds.iter().enumerate().map(|(i, s)| state(i as u32, s)).collect();
            let (ss, got) = start_states(&start_payload(superstep as u32, &states)).unwrap();
            prop_assert_eq!(ss, superstep as u32);
            prop_assert_eq!(got, states);
        }

        /// Init and Done round-trip for any state / fragment set: the
        /// states through the worker's decoder, the fragments through the
        /// coordinator's commit.
        #[test]
        fn init_and_done_messages_roundtrip(
            seeds in prop::collection::vec(prop::collection::vec(1u64..1_000_000, 0..12), 0..6),
        ) {
            let states: Vec<WorkingPartition> =
                seeds.iter().enumerate().map(|(i, s)| state(i as u32, s)).collect();
            let (_, got) = decode_init(&init_payload(&test_init(None), &states)).unwrap();
            prop_assert_eq!(&shipped(got), &states);

            // Fragments whose virtual edges point at the previous fragment
            // (or, for the first, nowhere — made real).
            let mut done = sample_done(&[]);
            let mut expected = Vec::new();
            for (i, seed) in seeds.iter().enumerate() {
                done.share.ship(i as u32, &states[i]);
                if seed.is_empty() {
                    continue;
                }
                let mut f = fragment(i as u32, seed);
                for e in &mut f.edges {
                    if let TourEdge::Virtual { from, to, .. } = *e {
                        *e = match expected.last() {
                            None => TourEdge::Real { edge: EdgeId(0), from, to },
                            Some(Fragment { id, .. }) => TourEdge::Virtual { fragment: *id, from, to },
                        };
                    }
                }
                expected.push(f);
            }
            done.fragments = segments_of(&expected);
            let parsed = decode_done(Arc::new(done_payload(&done))).unwrap();
            prop_assert_eq!(parsed.outgoing.len(), states.len());
            for ((to, entry), wp) in parsed.outgoing.iter().zip(&states) {
                prop_assert_eq!(*to, wp.id.0);
                let mut r = WordReader::new(entry.bytes()).unwrap();
                prop_assert_eq!(&wire::decode(&mut r.record().unwrap(), 1).unwrap(), wp);
            }
            prop_assert_eq!(adopted(fragments_of(&parsed)).unwrap(), expected);
        }

        /// Decoding random garbage words returns a typed error or a
        /// harmless value — never a panic, never an unbounded allocation.
        #[test]
        fn protocol_decoders_never_panic_on_garbage(
            words in prop::collection::vec(0u64..u64::MAX, 0..40),
        ) {
            let payload = WordWriter::from_words(&words).into_bytes();
            let _ = decode_init(&payload);
            // Garbage behind a well-formed head and every seed tag; a
            // reference that happens to decode names no file to build from.
            for tag in [seed_tag::STATES, seed_tag::FILE, seed_tag::CHECKPOINT] {
                let mut init = encode_init_head(&test_init(None));
                init.u(tag);
                init.words(&words);
                if let Ok((head, SeedTail::File(file))) = decode_init(init.as_bytes()) {
                    prop_assert!(build_from_file(&file, &head.tree, head.strategy).is_err());
                }
            }
            let _ = start_states(&payload);
            if let Ok(done) = decode_done(Arc::new(payload.clone())) {
                let _ = adopted(fragments_of(&done));
            }
            for buckets in [0, 1, 3] {
                let _ = wire::decode(&mut WordReader::new(&payload).unwrap(), buckets);
            }
            let payload = Arc::new(payload);
            for (head, at) in read_segments(&mut WordReader::new(&payload).unwrap()).unwrap_or_default() {
                let _ = Segment::validated(&head, &payload, 8 * at.start..8 * at.end, |_| true);
            }
        }
    }
}
