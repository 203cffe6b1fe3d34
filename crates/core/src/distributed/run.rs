//! One run of the merge-tree walk: the fan-out gate, workers stepped in
//! place, the barrier fold and [`DistRun`].

use super::fleet::{deal, Fleet};
use super::protocol::{Blob, Dones, SEGMENT_FRAMING_WORDS};
use super::worker::{SlotSet, SlotWork};
use super::*;

/// The fewest decoded state-record words a level of workers stepped in place
/// must carry before its slots go to the rayon pool: below it, waking the
/// pool's parked threads costs more than stepping side by side saves
/// (docs/ARCHITECTURE.md, *The fan-out gate*). A constant, not an option.
pub const FAN_OUT_MIN_WORDS: u64 = 1 << 15;

/// Whether a level carrying `words` — the record words of every slot state
/// it steps and of every child merging into one — goes to the rayon pool,
/// where the run allows it. Asked once per level, by `step_in_place`.
pub(super) fn fans_out(words: u64) -> bool {
    words >= FAN_OUT_MIN_WORDS
}

/// The record words of `states`, the unit of [`fans_out`].
pub(super) fn state_words<'a>(states: impl IntoIterator<Item = &'a WorkingPartition>) -> u64 {
    states.into_iter().map(|wp| wire::record_words(wp) as u64).sum()
}

/// The barrier fold: every worker's share of `level` into the superstep's
/// statistics, the next level's inboxes and the walk's outcome — the same
/// fold wherever the shares were computed.
///
/// A shipped state is routed to the worker `placement` gives its destination
/// slot, as the byte range it was encoded into, and is the shuffle: remote.
/// What a worker handed a parent of its own by value it counted itself:
/// local. The four compute buckets are the paper's Fig. 6 split:
/// `create_partition_object` (decoding the inbound states),
/// `copy_sink_partition` (merging them in), `phase1_tour`, and
/// `copy_source_partition` (encoding the state for its parent) — the two
/// codec buckets zero where the hand-off was by value; `compute_time` is
/// merge plus tour, the record's own two times.
///
/// # Errors
/// [`EulerError::Distributed`] for a state shipped to a partition no worker
/// holds.
pub(super) fn fold_barrier(
    level: u32,
    mut dones: Dones,
    placement: &Placement,
    wall: Duration,
) -> Result<(SuperstepStats, Vec<Vec<Blob>>, LevelOutcome), EulerError> {
    dones.sort_by_key(|(w, _)| *w);
    let mut stats = SuperstepStats::new(level);
    stats.wall_time = wall;
    let mut next_inbox: Vec<Vec<Blob>> = vec![Vec::new(); placement.num_workers()];
    let mut outcome = LevelOutcome::default();
    for (w, done) in dones {
        for (to, entry) in done.outgoing {
            let dst = placement.owner(PartitionId(to)).ok_or_else(|| {
                EulerError::Distributed(format!("worker {w} shipped a state to partition {to}, which no worker holds"))
            })?;
            stats.remote_messages += 1;
            // The state record alone, without its length word.
            stats.remote_bytes += entry.range.len().saturating_sub(8) as u64;
            next_inbox[dst].push(entry);
        }
        stats.local_messages += done.local_messages;
        stats.local_bytes += done.local_bytes;
        for (_, records) in done.fragments.iter().flatten() {
            stats.fragment_bytes += (8 * SEGMENT_FRAMING_WORDS + records.range.len()) as u64;
        }
        outcome.transfer_longs += done.transfer_longs;
        for line in done.reports {
            let r = line.report;
            stats.compute_time += r.phase1_time + r.merge_time;
            let mut split = TimeBreakdown::new();
            split.add("create_partition_object", line.unpack);
            split.add("copy_sink_partition", r.merge_time);
            split.add("phase1_tour", r.phase1_time);
            split.add("copy_source_partition", line.ship);
            stats.per_partition_compute.push((r.partition.0, split));
            stats.memory.record(format!("P{}", r.partition.0), line.post_memory);
            outcome.reports.push(r);
        }
    }
    outcome.reports.sort_by_key(|r| r.partition);
    stats.active_partitions = outcome.reports.len();
    stats.per_partition_compute.sort_by_key(|(p, _)| *p);
    Ok((stats, next_inbox, outcome))
}

/// One level on workers stepped in place. Each decodes its inbox and takes
/// its slots out with their children — a hostile inbox is refused before
/// any slot steps. Every worker's slots then step on the run's one arena
/// `pool`, fragments into `store`: from one call on the rayon pool if
/// `fan_out` and [`fans_out`] allow, else on the caller in worker and slot
/// order. Each worker folds its steps, in slot order, into its share; the
/// first slot to panic, in that order, is a typed error.
fn step_in_place(
    sets: &mut [SlotSet],
    level: u32,
    inbox: &[Vec<Blob>],
    (pool, fan_out): (&ArenaPool, bool),
    store: &FragmentStore,
) -> Result<Dones, EulerError> {
    let bad = |e: WireError| EulerError::Distributed(format!("shipped partition state: {e}"));
    let mut taken = Vec::with_capacity(sets.len());
    for (set, entries) in sets.iter_mut().zip(inbox) {
        let records = entries
            .iter()
            .map(|entry| WordReader::new(entry.bytes())?.record())
            .collect::<Result<Vec<_>, _>>()
            .map_err(bad)?;
        let inbound = set.unpack(level, records)?;
        taken.push(set.take(inbound));
    }
    let slots = sets.iter().zip(taken).enumerate();
    let work: Vec<_> = slots.flat_map(|(w, (set, slots))| slots.into_iter().map(move |slot| (w, set, slot))).collect();
    let words = || work.iter().map(|(.., (wp, kids, _))| state_words([wp]) + state_words(kids)).sum();
    let run = |(w, set, slot): (usize, &SlotSet, SlotWork)| {
        let p = slot.0.id.0;
        panic::catch_unwind(AssertUnwindSafe(|| (w, set.step(level, slot, pool, store))))
            .map_err(|_| EulerError::Distributed(format!("worker {w} panicked stepping partition {p} in place")))
    };
    let steps: Vec<_> = if fan_out && fans_out(words()) {
        work.into_par_iter().map(run).collect()
    } else {
        work.into_iter().map(run).collect()
    };
    let mut steps = steps.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter().peekable();
    let mut dones = Vec::new();
    for (w, set) in sets.iter_mut().enumerate() {
        let mine: Vec<_> = std::iter::from_fn(|| steps.next_if(|s| s.0 == w).map(|s| s.1)).collect();
        if !mine.is_empty() {
            dones.push((w as u32, set.fold(mine).into_done(level).map_err(bad)?));
        }
    }
    Ok(dones)
}

/// Where a run's workers live.
pub(super) enum Workers {
    /// Slot sets of this process, stepped in place on arenas of one pool;
    /// `fan_out` lets a level's slots go to the rayon pool.
    InPlace { sets: Vec<SlotSet>, pool: ArenaPool, fan_out: bool },
    /// Threads or processes behind a transport.
    Framed(Box<Fleet>),
}

/// One run of the merge-tree walk, for either backend: the workers, the
/// inboxes between their levels, and the statistics the barriers fold into.
pub(crate) struct DistRun {
    pub(super) placement: Arc<Placement>,
    cost_model: PlatformCostModel,
    pub(super) workers: Workers,
    /// The next level's inbound state-list entries per worker — ranges of
    /// the buffers they were encoded into or arrived in — kept as they are
    /// through the level, so a fleet can re-deliver them after a rollback.
    pub(super) inbox: Vec<Vec<Blob>>,
    superstep_stats: Vec<SuperstepStats>,
    t_start: Instant,
    /// Wall time of the finished run.
    total_wall: Option<Duration>,
}

impl DistRun {
    /// Places the level-0 seed on `engine`'s workers — by the merge tree and
    /// the states' encoded sizes, see [`Placement`]; a level 0 still in its
    /// edge arrays is sized from its scan, which counts what the states will
    /// hold — in place, or, given a `fleet` configuration, spawned and
    /// initialised over its transport. Workers in place step a level's slots
    /// from one call on the rayon pool where `config` allows it
    /// ([`EulerConfig::parallel_within_level`], either backend) and the level
    /// passes [`fans_out`]; a fleet's workers step theirs in slot order.
    pub fn new(
        engine: BspConfig,
        fleet: Option<FleetConfig>,
        tree: Arc<MergeTree>,
        seed: Seed<'_>,
        config: &EulerConfig,
    ) -> Result<Self, EulerError> {
        let strategy = config.merge_strategy;
        let t_start = Instant::now();
        let weights: Vec<(PartitionId, u64)> = match &seed.0 {
            SeedKind::States(states) => states.iter().map(|wp| (wp.id, wire::record_words(wp) as u64)).collect(),
            SeedKind::Level0(level0) => (0..level0.assignment.num_partitions())
                .map(PartitionId)
                .map(|p| (p, level0.scan.record_words(p, level0.dedup, level0.levels.buckets())))
                .collect(),
        };
        let num_workers = engine.resolved_workers(weights.len());
        let placement = Arc::new(Placement::new(&tree, weights, num_workers));
        let workers = match fleet {
            Some(cfg) => Workers::Framed(Box::new(Fleet::new(cfg, Arc::clone(&placement), tree, strategy, seed)?)),
            None => {
                let set = |mine| SlotSet::new(Arc::clone(&tree), strategy, mine);
                let sets = deal(seed.into_states()?, &placement).into_iter().map(set).collect();
                Workers::InPlace { sets, pool: ArenaPool::new(), fan_out: config.parallel_within_level }
            }
        };
        Ok(DistRun {
            placement,
            cost_model: engine.cost_model,
            workers,
            inbox: vec![Vec::new(); num_workers],
            superstep_stats: Vec::new(),
            t_start,
            total_wall: None,
        })
    }

    /// Runs one merge level to its barrier (a fleet recovering as needed),
    /// with its fragments in `store`, and returns its outcome.
    pub fn step(&mut self, level: u32, store: &FragmentStore) -> Result<LevelOutcome, EulerError> {
        let t_level = Instant::now();
        let dones = match &mut self.workers {
            Workers::InPlace { sets, pool, fan_out } => {
                step_in_place(sets, level, &self.inbox, (pool, *fan_out), store)?
            }
            Workers::Framed(fleet) => fleet.run_superstep(level, &mut self.inbox, Some(store))?,
        };
        let (stats, inbox, outcome) = fold_barrier(level, dones, &self.placement, t_level.elapsed())?;
        self.superstep_stats.push(stats);
        self.inbox = inbox;
        Ok(outcome)
    }

    /// Ends the run: retires a fleet and stops the run's clock.
    pub fn finish(&mut self) {
        if self.total_wall.is_none() {
            if let Workers::Framed(fleet) = &mut self.workers {
                fleet.shut_down();
            }
            self.total_wall = Some(self.t_start.elapsed());
        }
    }

    /// Statistics of the run so far, under the configured cost model.
    pub fn stats(&self) -> EngineStats {
        let (init_bytes, seed_build_time, recovery) = match &self.workers {
            Workers::InPlace { .. } => (0, Duration::ZERO, RecoveryStats::default()),
            Workers::Framed(fleet) => (fleet.init_bytes, fleet.seed_build, fleet.recovery),
        };
        let mut stats = EngineStats {
            supersteps: self.superstep_stats.clone(),
            num_workers: self.placement.num_workers(),
            placement: self.placement.owners().to_vec(),
            init_bytes,
            seed_build_time,
            total_wall_time: self.total_wall.unwrap_or_else(|| self.t_start.elapsed()),
            modelled_platform_overhead: Duration::ZERO,
            recovery,
        };
        stats.modelled_platform_overhead = self.cost_model.overhead(&stats);
        stats
    }

    /// Human-readable recovery notes for `RunReport::warnings`.
    pub fn warnings(&self) -> Vec<String> {
        match &self.workers {
            Workers::InPlace { .. } => Vec::new(),
            Workers::Framed(fleet) => fleet.warnings.clone(),
        }
    }
}
