//! High-level session driver: the programmatic equivalents of the three
//! DMTCP commands (§3):
//!
//! ```text
//! dmtcp_checkpoint [options] <program>   → Session::start + Session::launch
//! dmtcp_command --checkpoint             → Session::checkpoint_and_wait
//! dmtcp_command --kill                   → Session::kill_computation
//! the coordinator's restart script       → RestartPlan::execute
//!                                          + session.wait_restart_done
//! ```
//!
//! A [`Session`] carries its root coordinator port (`opts.coord_port`), so
//! every method acts on that coordinator alone; a dmtcpd tenant's
//! `svc::Client` holds one for its shard.
//!
//! The coordinator's restart script is a typed generation record here
//! ([`crate::restart::record`]); [`RestartPlan`] plans from it.
//!
//! [`RestartPlan`]: crate::restart::plan::RestartPlan
//!
//! Tests, examples, and the benchmark harness all drive checkpoints through
//! this type, so they exercise the same protocol code paths.

use crate::coord::{coord_shared, coord_shared_for, stage, GenStat};
use crate::launch::{launch_under_dmtcp, spawn_coordinator, Options};
use oskit::proc::sig;
use oskit::program::Program;
use oskit::world::{NodeId, OsSim, Pid, World};
use simkit::Nanos;

/// A running DMTCP session (one coordinator + its computation).
#[derive(Debug, Clone)]
pub struct Session {
    /// Launch options in force.
    pub opts: Options,
    /// Coordinator process.
    pub coord_pid: Pid,
}

impl Session {
    /// Start a coordinator with `opts`.
    pub fn start(w: &mut World, sim: &mut OsSim, opts: Options) -> Session {
        let coord_pid = spawn_coordinator(w, sim, &opts);
        // Let it bind its port before anything tries to register.
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
        Session { opts, coord_pid }
    }

    /// `dmtcp_checkpoint <program>` on `node`.
    pub fn launch(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        node: NodeId,
        cmd: &str,
        prog: Box<dyn Program>,
    ) -> Pid {
        launch_under_dmtcp(w, sim, node, cmd, prog, &self.opts)
    }

    /// `dmtcp_command --checkpoint` (asynchronous).
    pub fn request_checkpoint(&self, w: &mut World, sim: &mut OsSim) {
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_STAGE,
            "session.ckpt_request",
            None,
            &[("port", self.opts.coord_port as u64)],
            "",
        );
        crate::coord::request_checkpoint(w, sim, self.opts.coord_port);
    }

    /// Request a checkpoint and run the simulation until it completes
    /// (stage-6 barrier released). Returns the generation's stats, or a
    /// typed [`CkptError`] when the generation aborted (a participant died
    /// mid-protocol) or did not settle within `max_events`.
    ///
    /// Tests that treat failure as fatal chain [`ExpectCkpt::expect_ckpt`],
    /// which panics at the caller's location with the error's message.
    pub fn checkpoint_and_wait(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
    ) -> Result<GenStat, CkptError> {
        self.checkpoint_via(
            w,
            sim,
            max_events,
            |w, sim| self.request_checkpoint(w, sim),
            |_| None,
        )
    }

    /// The settle loop behind [`Session::checkpoint_and_wait`], for front
    /// ends that deliver the request another way (dmtcpd's service frame):
    /// `request` posts it, and `refused` is polled before every event — a
    /// `Some` ends the wait with that error.
    pub fn checkpoint_via<E: From<CkptError>>(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
        request: impl FnOnce(&mut World, &mut OsSim),
        mut refused: impl FnMut(&mut World) -> Option<E>,
    ) -> Result<GenStat, E> {
        let port = self.opts.coord_port;
        let before = coord_shared_for(w, port).gen_stats.len();
        request(w, sim);
        let fired_start = sim.events_fired();
        loop {
            if let Some(e) = refused(w) {
                return Err(e);
            }
            if !sim.step(w) {
                // The event queue drained with the protocol unfinished:
                // nothing will ever make progress again.
                return Err(CkptError::BudgetExhausted {
                    events: sim.events_fired() - fired_start,
                }
                .into());
            }
            let cs = coord_shared_for(w, port);
            let settled = cs.gen_stats.len() > before
                && cs
                    .gen_stats
                    .last()
                    .is_some_and(|g| g.aborted || g.releases.contains_key(&stage::REFILLED));
            if settled {
                let gs = cs.gen_stats.last().expect("pushed").clone();
                if gs.aborted {
                    return Err(CkptError::Aborted {
                        gen: gs.gen,
                        stage: first_missing_stage(&gs),
                    }
                    .into());
                }
                return Ok(gs);
            }
            if sim.events_fired() - fired_start >= max_events {
                return Err(CkptError::BudgetExhausted { events: max_events }.into());
            }
        }
    }

    /// The most recent generation stats of the default-port coordinator.
    pub fn last_gen_stat(w: &mut World) -> Option<GenStat> {
        coord_shared(w).gen_stats.last().cloned()
    }

    /// Run the simulation until generation `gen`'s overlapped drain phase
    /// settles: either `CKPT_WRITTEN` is released (every image durable and
    /// acknowledged — returns the updated stats) or the coordinator
    /// abandons the drain (returns `None`; restart must use the previous
    /// generation). With forked checkpointing off this returns immediately
    /// after the checkpoint, since in-line writes ack before refill.
    ///
    /// Panics if the drain neither completes nor aborts within
    /// `max_events`.
    pub fn wait_ckpt_written(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        gen: u64,
        max_events: u64,
    ) -> Option<GenStat> {
        let start = sim.events_fired();
        loop {
            let settled = coord_shared_for(w, self.opts.coord_port)
                .gen_stats
                .iter()
                .rev()
                .find(|g| g.gen == gen)
                .and_then(|g| {
                    if g.releases.contains_key(&stage::CKPT_WRITTEN) {
                        Some(Some(g.clone()))
                    } else if g.aborted {
                        Some(None)
                    } else {
                        None
                    }
                });
            if let Some(outcome) = settled {
                return outcome;
            }
            assert!(
                sim.step(w),
                "event queue drained before the drain settled (gen {gen})"
            );
            assert!(
                sim.events_fired() - start < max_events,
                "checkpoint drain neither completed nor aborted within {max_events} events"
            );
        }
    }

    /// Kill this session's computation with SIGKILL (simulated failure):
    /// every traced process that answers to this session's root port.
    /// Other sessions in the same world (dmtcpd tenants) and the
    /// coordinator survive, as in real deployments.
    pub fn kill_computation(&self, w: &mut World, sim: &mut OsSim) {
        w.obs.journal.record(
            sim.now(),
            obs::journal::CLASS_STAGE,
            "session.kill",
            None,
            &[],
            "",
        );
        let port = self.opts.coord_port;
        let victims: Vec<Pid> = w
            .procs
            .iter()
            .filter(|(_, p)| {
                p.alive()
                    && p.ext
                        .as_ref()
                        .and_then(|e| e.downcast_ref::<crate::hijack::Hijack>())
                        .is_some_and(|h| h.root_port == port)
            })
            .map(|(pid, _)| *pid)
            .collect();
        for pid in victims {
            w.signal(sim, pid, sig::SIGKILL);
        }
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
    }

    /// Run the simulation until this session's newest restart completes
    /// (its restart-refill barrier for `gen` released). An earlier restart
    /// of the same generation does not count.
    pub fn wait_restart_done(&self, w: &mut World, sim: &mut OsSim, gen: u64, max_events: u64) {
        let start = sim.events_fired();
        loop {
            let cs = coord_shared_for(w, self.opts.coord_port);
            let done = cs.gen_stats[cs.restart_mark..]
                .iter()
                .any(|g| g.gen == gen && g.releases.contains_key(&stage::RESTART_REFILLED));
            if done {
                return;
            }
            assert!(
                sim.step(w),
                "event queue drained before restart completed (gen {gen})"
            );
            assert!(
                sim.events_fired() - start < max_events,
                "restart did not complete within {max_events} events"
            );
        }
    }
}

/// Why [`Session::checkpoint_and_wait`] did not return a completed
/// generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The protocol neither completed nor aborted within the caller's
    /// event budget (or the event queue drained) — a hung barrier or a
    /// budget set too tight.
    BudgetExhausted {
        /// Simulation events consumed while waiting.
        events: u64,
    },
    /// The coordinator abandoned the generation (a participant died
    /// mid-protocol); survivors rolled back and resumed computing.
    Aborted {
        /// The abandoned generation.
        gen: u64,
        /// First barrier stage that had not been released — where the
        /// protocol died.
        stage: u8,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::BudgetExhausted { events } => {
                write!(f, "checkpoint did not settle within {events} events")
            }
            CkptError::Aborted { gen, stage } => {
                write!(f, "checkpoint generation {gen} aborted at stage {stage}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

/// First of the in-order checkpoint barrier stages that `g` never
/// released — the stage at which an aborted generation died.
pub fn first_missing_stage(g: &GenStat) -> u8 {
    [
        stage::SUSPENDED,
        stage::ELECTED,
        stage::DRAINED,
        stage::CHECKPOINTED,
        stage::REFILLED,
        stage::CKPT_WRITTEN,
    ]
    .into_iter()
    .find(|s| !g.releases.contains_key(s))
    .unwrap_or(stage::CKPT_WRITTEN)
}

/// Test convenience for [`Session::checkpoint_and_wait`]: unwrap the
/// completed generation or panic at the *caller's* line with the typed
/// error's message.
pub trait ExpectCkpt {
    /// Unwrap, panicking (with caller location) on any [`CkptError`].
    fn expect_ckpt(self) -> GenStat;
}

impl ExpectCkpt for Result<GenStat, CkptError> {
    #[track_caller]
    fn expect_ckpt(self) -> GenStat {
        match self {
            Ok(g) => g,
            Err(e) => panic!("checkpoint failed: {e}"),
        }
    }
}

/// A successful [`crate::restart::plan::RestartPlan::execute`].
#[derive(Debug, Clone)]
pub struct RestartOutcome {
    /// The generation actually restarted (may be older than the newest).
    pub gen: u64,
    /// Restart process pids.
    pub pids: Vec<Pid>,
    /// Images rejected along the way, with the validation error.
    pub rejected: Vec<(String, String)>,
    /// Where each process was restored: node → virtual pids, sorted.
    /// Summing the vpids over every node reproduces the restored process
    /// set exactly — the accounting invariant heterogeneous-restart tests
    /// check.
    pub placement: Vec<(NodeId, Vec<u32>)>,
}

/// Why a restart plan could not restart (or migrate) anything.
#[derive(Debug, Clone, PartialEq)]
pub enum RestartError {
    /// No generation record exists (no generation ever completed).
    NoRecord,
    /// The generation record on shared storage does not decode.
    BadRecord {
        /// What is wrong with it.
        reason: String,
    },
    /// Every candidate generation had at least one invalid image.
    NoUsableGeneration {
        /// Each rejected image with its validation error.
        rejected: Vec<(String, String)>,
    },
    /// The plan pinned a generation outside the committed range.
    MissingGeneration {
        /// The requested generation.
        gen: u64,
    },
    /// An image of a pinned (or newest, non-resilient) generation could
    /// not be read or validated from any node — no replica survives.
    ReplicaUnreachable {
        /// The unreachable image path.
        path: String,
        /// The last resolution or validation error.
        reason: String,
    },
    /// The target topology cannot hold the colocation units: fewer
    /// placement slots than units, or every candidate node has a
    /// conflicting listener port.
    TopologyTooSmall {
        /// Colocation units that needed placing.
        needed: u32,
        /// Target nodes offered.
        got: u32,
    },
    /// A subset plan referenced processes whose shared objects, socket
    /// connections, ptys, or parent/child links cross the subset boundary.
    SubsetNotClosed {
        /// Which link crosses, and where.
        detail: String,
    },
    /// A live migration did not complete: the pre-migration checkpoint
    /// failed, a mover died mid-restore, or the restart stages never
    /// settled. Bystanders and committed generations are untouched; the
    /// caller may retry onto a different topology.
    AbortedDuringMigration {
        /// The generation being migrated (0 when the pre-migration
        /// checkpoint never committed a generation).
        gen: u64,
    },
}

impl std::fmt::Display for RestartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestartError::NoRecord => write!(f, "no generation record on shared storage"),
            RestartError::BadRecord { reason } => {
                write!(f, "unreadable generation record: {reason}")
            }
            RestartError::NoUsableGeneration { rejected } => write!(
                f,
                "no complete checkpoint generation on storage ({} images rejected)",
                rejected.len()
            ),
            RestartError::MissingGeneration { gen } => {
                write!(f, "generation {gen} was never committed")
            }
            RestartError::ReplicaUnreachable { path, reason } => {
                write!(f, "no replica can serve {path}: {reason}")
            }
            RestartError::TopologyTooSmall { needed, got } => write!(
                f,
                "target topology too small: {needed} colocation units, {got} placeable nodes"
            ),
            RestartError::SubsetNotClosed { detail } => {
                write!(f, "subset is not closed: {detail}")
            }
            RestartError::AbortedDuringMigration { gen } => {
                write!(f, "migration of generation {gen} aborted")
            }
        }
    }
}

impl std::error::Error for RestartError {}

/// Copy checkpoint artifacts from one world to another: the shared
/// filesystem always, and each node's local filesystem onto the same node
/// index when the topologies allow. This is "the storage survived the
/// crash"; everything else about the old world is discarded.
pub fn transplant_storage(src: &World, dst: &mut World) {
    dst.shared_fs = src.shared_fs.clone();
    for (i, node) in src.nodes.iter().enumerate() {
        if let Some(dnode) = dst.nodes.get_mut(i) {
            dnode.fs = node.fs.clone();
        }
    }
}

/// Convenience: run the simulation for a fixed virtual duration.
pub fn run_for(w: &mut World, sim: &mut OsSim, dur: Nanos) {
    let deadline = sim.now() + dur;
    sim.run_until(w, deadline);
}

/// Turn on the flight recorder for this world: record the given event
/// classes (see `obs::journal::CLASS_*`), stamp `meta` key/value pairs into
/// the journal header, and install the protocol message tagger so
/// `msg.send` events carry wire-message variant names. The enabled class
/// mask is itself stored under the `classes` meta key, so
/// [`crate::replay`] can re-arm an identical recording.
pub fn enable_flight_recorder(w: &mut World, classes: u8, meta: &[(&str, &str)]) {
    w.obs.journal.enable(classes);
    w.obs.journal.set_meta("classes", format!("{classes}"));
    for (k, v) in meta {
        w.obs.journal.set_meta(k, *v);
    }
    crate::launch::install_msg_tagger(w);
}

/// Export the recorded flight-recorder journal as versioned JSONL (the
/// format `obs::journal::decode_jsonl` and `dmtcp replay` consume).
pub fn export_journal(w: &mut World) -> String {
    w.obs.journal_jsonl()
}
