//! The checkpoint coordinator.
//!
//! One coordinator process serves a whole computation: it implements the
//! six global barriers of the checkpoint algorithm (§4.3), the discovery
//! service restart needs to find migrated peers (§4.4), interval
//! checkpointing (`--interval`), and the generation record restart plans
//! from (the paper's restart script). The paper notes the centralized
//! coordinator is not a bottleneck at 32 nodes and could be replaced by a
//! distributed implementation; `bench/ablation` measures exactly that
//! claim.

use crate::gsid::{global, Gsid};
use crate::proto::{frame, FrameBuf, Msg};
use crate::restart::record::GenRecord;
use oskit::program::{Program, Step};
use oskit::world::{NodeId, Pid, Tid, World};
use oskit::{Errno, Fd, Kernel};
use simkit::Nanos;
use std::collections::{BTreeMap, BTreeSet};

/// Default coordinator port (the real default is 7779).
pub const COORD_PORT: u16 = 7779;

/// Checkpoint barrier stages, numbered as in Figure 1.
pub mod stage {
    /// User threads suspended.
    pub const SUSPENDED: u8 = 2;
    /// Shared-fd leader election completed.
    pub const ELECTED: u8 = 3;
    /// Kernel buffers drained, handshakes done.
    pub const DRAINED: u8 = 4;
    /// Checkpoint image written.
    pub const CHECKPOINTED: u8 = 5;
    /// Kernel buffers refilled.
    pub const REFILLED: u8 = 6;
    /// Checkpoint images durable on storage. For in-line (non-forked)
    /// writes this coincides with `CHECKPOINTED`; for forked checkpointing
    /// it is the end of the overlapped drain phase — the background
    /// compress+write pipeline finished *after* user threads resumed at
    /// `REFILLED`. The generation record is only published once this
    /// releases.
    pub const CKPT_WRITTEN: u8 = 7;
    /// Restart: memory and threads restored (Figure 2 step 5).
    pub const RESTORED: u8 = 11;
    /// Restart: kernel buffers refilled (Figure 2 step 6).
    pub const RESTART_REFILLED: u8 = 12;

    /// Span name of a barrier-release instant (`obs` naming scheme).
    pub fn release_name(stg: u8) -> &'static str {
        match stg {
            SUSPENDED => "release.suspended",
            ELECTED => "release.elected",
            DRAINED => "release.drained",
            CHECKPOINTED => "release.checkpointed",
            REFILLED => "release.refilled",
            CKPT_WRITTEN => "release.ckpt_written",
            RESTORED => "release.restored",
            RESTART_REFILLED => "release.restart_refilled",
            _ => "release.unknown",
        }
    }
}

/// Barrier timing for one checkpoint generation (benchmark input).
#[derive(Debug, Clone)]
pub struct GenStat {
    /// Generation number.
    pub gen: u64,
    /// When the coordinator broadcast the request.
    pub requested_at: Nanos,
    /// Release time of each barrier stage.
    pub releases: BTreeMap<u8, Nanos>,
    /// Number of participating processes.
    pub participants: u32,
    /// The generation was abandoned (a participant died mid-protocol); its
    /// images, if any, must not be trusted and no generation record was
    /// published for it.
    pub aborted: bool,
}

impl GenStat {
    /// Wall-clock from request to the "checkpointed" barrier — the paper's
    /// reported checkpoint time (user threads are suspended from request to
    /// resume; the image is safe at stage 5).
    pub fn checkpoint_time(&self) -> Option<Nanos> {
        self.releases
            .get(&stage::CHECKPOINTED)
            .map(|t| *t - self.requested_at)
    }

    /// Wall-clock until user threads resumed (stage 6 released). With
    /// forked checkpointing on, this is the *perceived downtime*: the only
    /// window in which the application is stopped.
    pub fn total_pause(&self) -> Option<Nanos> {
        self.releases
            .get(&stage::REFILLED)
            .map(|t| *t - self.requested_at)
    }

    /// Wall-clock from request until every image was durable and
    /// acknowledged (`CKPT_WRITTEN` released) — the *total checkpoint
    /// time*. Equals `total_pause` for in-line writes; strictly larger in
    /// forked mode, where the overlapped drain runs behind the
    /// application. `None` while the drain is still in flight (or the
    /// generation aborted before finishing).
    pub fn written_time(&self) -> Option<Nanos> {
        self.releases
            .get(&stage::CKPT_WRITTEN)
            .map(|t| *t - self.requested_at)
    }
}

/// Coordinator-side shared state (kept in the world's DMTCP singleton so
/// benches can read it after the run). Per-process stage breakdowns
/// (Table 1 input) live in the world's metrics registry under
/// `core.stage.*` / `core.restart.*` histograms, labeled by generation.
#[derive(Debug, Default)]
pub struct CoordShared {
    /// Trigger flag posted by `dmtcp command --checkpoint` / the interval
    /// timer.
    pub ckpt_request_pending: bool,
    /// Coordinator process (for waking on mailbox posts).
    pub coord_pid: Option<Pid>,
    /// Barrier timing per generation.
    pub gen_stats: Vec<GenStat>,
    /// Length of `gen_stats` when the newest restart was spawned: that
    /// restart's own stat is pushed at or after this index, which tells it
    /// apart from an earlier restart of the same generation.
    pub restart_mark: usize,
    /// Paths of every image written in the last completed generation,
    /// with their hostnames (drives the generation record).
    pub last_images: Vec<(String, String)>,
    /// Live mirror of the coordinator's barrier bookkeeping. The
    /// coordinator program is boxed behind `dyn Program`, so `dmtcp
    /// replay` state dumps read this mirror instead: current generation,
    /// whether its stop-the-world phase / overlapped drain is open, the
    /// expected participant count, and the summed contributions of every
    /// barrier still pending.
    pub coord_gen: u64,
    /// Stop-the-world phase of `coord_gen` in flight.
    pub coord_in_progress: bool,
    /// Overlapped drain of `coord_gen` still open.
    pub coord_drain_open: bool,
    /// Participants the in-flight barriers expect.
    pub coord_expected: u32,
    /// Registered (non-stale) participant connections currently held. The
    /// migration driver watches this to know when the killed movers' EOFs
    /// have been reaped before it re-arms the restart barriers.
    pub coord_participants: u32,
    /// `(gen, stage)` → summed contributions for unreleased barriers.
    pub barrier_pending: BTreeMap<(u64, u8), u32>,
    /// Mirror of each relay fronting this root, keyed by node id.
    pub relays: BTreeMap<u32, crate::relay::RelayMirror>,
}

/// Every root coordinator's [`CoordShared`], keyed by its port.
#[derive(Default)]
struct CoordSlot(BTreeMap<u16, CoordShared>);

/// Access the shared state of the coordinator listening on `port`. Each
/// root coordinator owns an independent [`CoordShared`] keyed by its port,
/// which is what lets many coordinators (dmtcpd shards) coexist in one
/// world without sharing generation counters or image lists.
pub fn coord_shared_for(w: &mut World, port: u16) -> &mut CoordShared {
    w.slots
        .get_or_default::<CoordSlot>()
        .0
        .entry(port)
        .or_default()
}

/// Access the coordinator-shared state of the default-port coordinator.
pub fn coord_shared(w: &mut World) -> &mut CoordShared {
    coord_shared_for(w, COORD_PORT)
}

/// Relay-specific state of a root client (see `crate::relay`): the root
/// tracks relays and direct managers uniformly — a direct client always
/// contributes exactly one barrier participant, a relay contributes as many
/// as it currently fronts.
struct RelayInfo {
    /// Local participants the relay currently fronts (its latest
    /// `RelayMembership` report).
    members: u32,
    /// Last time anything arrived from this relay — liveness input. A relay
    /// pings while a generation is in flight, so prolonged silence inside
    /// one means the relay (and with it a whole node) is gone.
    last_heard: Nanos,
}

struct Client {
    fd: Fd,
    vpid: u32,
    fb: FrameBuf,
    /// Registered before the latest `RestartPlan`: almost certainly a
    /// zombie connection of the crashed computation whose EOF is still in
    /// flight. Its hang-up must not abort the restarted generation; any
    /// message it sends proves it alive and clears the flag.
    stale: bool,
    /// Unique per accepted connection; keys a relay's barrier contribution
    /// (a vpid cannot — relays have none).
    serial: u64,
    /// `Some` once the connection identified itself as a per-node relay.
    relay: Option<RelayInfo>,
}

impl Client {
    /// Barrier-accounting key: direct clients are keyed by vpid (stable
    /// across reconnects), relays by their connection serial offset past
    /// the vpid space.
    fn contrib_key(&self) -> u64 {
        if self.relay.is_some() {
            RELAY_KEY_BASE | self.serial
        } else {
            self.vpid as u64
        }
    }

    /// How many barrier participants this connection speaks for.
    fn quota(&self) -> u32 {
        self.relay.as_ref().map(|r| r.members).unwrap_or(1)
    }
}

/// Relay contribution keys live above the 32-bit vpid space.
const RELAY_KEY_BASE: u64 = 1 << 32;

/// The coordinator program. It is *not* checkpointed (same as real DMTCP,
/// where a new coordinator is started for restart), so its state need not
/// be serializable.
pub struct Coordinator {
    port: u16,
    interval: Option<Nanos>,
    lfd: Fd,
    clients: Vec<Client>,
    gen: u64,
    in_progress: bool,
    /// The overlapped drain phase of `gen` is still open: user threads
    /// resumed (`REFILLED` released) but not every `CKPT_WRITTEN` ack has
    /// arrived. A new checkpoint request is queued behind it.
    drain_open: bool,
    /// A checkpoint request arrived while one was in flight; start it as
    /// soon as the current generation fully settles.
    queued: bool,
    expected: u32,
    /// Per-connection barrier contributions for each pending barrier,
    /// keyed by `Client::contrib_key`. Direct clients contribute 1 (the map
    /// keeps retransmitted `BarrierReached` idempotent); relays contribute
    /// their cumulative `BarrierAckN` count, merged monotonically so
    /// retransmissions and reordering are idempotent too.
    barrier_counts: BTreeMap<(u64, u8), BTreeMap<u64, u32>>,
    /// Barriers already released; a late `BarrierReached` for one of these
    /// means our release may have been lost — re-send it to that client.
    released: BTreeSet<(u64, u8)>,
    /// Generations abandoned mid-protocol; stale messages for them are
    /// dropped silently.
    aborted_gens: BTreeSet<u64>,
    discovery: BTreeMap<Gsid, (String, u16)>,
    requested_at: Nanos,
    /// Retransmit deadline for the in-flight `CkptRequest` (the one
    /// coordinator message with no manager-side retry).
    retry_at: Option<Nanos>,
    retry_backoff: Nanos,
    /// Next accepted connection's serial.
    next_serial: u64,
    /// A `RestartPlan` re-armed the barriers: relay liveness timeouts and
    /// relay membership-loss reports must not abort the restart (relays
    /// only front the *pre*-restart computation; restored managers register
    /// directly with the root).
    restarting: bool,
    /// A `MigratePlan` is in flight: (generation, mover count). The
    /// restart-stage barriers of that generation release when the *moving*
    /// subset reaches them — live bystanders never enter the restart stages
    /// and must not be counted against them.
    migrating: Option<(u64, u32)>,
    /// Next relay-liveness check deadline (armed only while a generation
    /// with relays is in flight, so an idle coordinator stays quiescent).
    liveness_at: Option<Nanos>,
}

/// Initial `CkptRequest` retransmit timeout (doubles on each retry).
const CKPT_RETRY_INITIAL: Nanos = Nanos(50_000_000); // 50 ms

/// A relay silent for this long inside an in-flight generation is treated
/// as a lost participant (its whole node is presumed gone). Comfortably
/// above the relay's 25 ms ping cadence.
const RELAY_TIMEOUT: Nanos = Nanos(200_000_000); // 200 ms

/// Cadence of the relay-liveness sweep while a generation is in flight.
const LIVENESS_CHECK: Nanos = Nanos(60_000_000); // 60 ms

impl Coordinator {
    /// A coordinator listening on `port`, checkpointing every `interval`
    /// when set.
    pub fn new(port: u16, interval: Option<Nanos>) -> Self {
        Coordinator {
            port,
            interval,
            lfd: -1,
            clients: Vec::new(),
            gen: 0,
            in_progress: false,
            drain_open: false,
            queued: false,
            expected: 0,
            barrier_counts: BTreeMap::new(),
            released: BTreeSet::new(),
            aborted_gens: BTreeSet::new(),
            discovery: BTreeMap::new(),
            requested_at: Nanos::ZERO,
            retry_at: None,
            retry_backoff: CKPT_RETRY_INITIAL,
            next_serial: 0,
            restarting: false,
            migrating: None,
            liveness_at: None,
        }
    }

    fn send_to(&mut self, k: &mut Kernel<'_>, fd: Fd, msg: &Msg) {
        // Every wire message in or out of the root is counted per
        // generation — the scale bench's O(processes) vs O(nodes) metric.
        k.obs().metrics.inc("coord.root_msgs", self.gen);
        let bytes = frame(msg);
        match k.write(fd, &bytes) {
            Ok(n) => assert_eq!(n, bytes.len(), "coordinator socket full"),
            // The client died; EOF reaping will remove it shortly.
            Err(Errno::Pipe) | Err(Errno::BadFd) => {}
            Err(e) => panic!("coordinator send: {e:?}"),
        }
    }

    fn broadcast(&mut self, k: &mut Kernel<'_>, msg: &Msg) {
        let fds: Vec<Fd> = self.clients.iter().map(|c| c.fd).collect();
        for fd in fds {
            self.send_to(k, fd, msg);
        }
    }

    /// Note liveness input from client `from` (refreshes a relay's
    /// `last_heard`; no-op for direct clients).
    fn heard_from(&mut self, k: &mut Kernel<'_>, from: usize) {
        let now = k.now();
        if let Some(r) = self.clients[from].relay.as_mut() {
            r.last_heard = now;
        }
    }

    /// Arm a wake-up for this process `dt` from now.
    fn arm_timer(&self, k: &mut Kernel<'_>, dt: Nanos) {
        let pid = k.getpid_real();
        k.sim.after(dt, move |w: &mut World, sim| {
            w.wake(sim, (pid, Tid(0)));
        });
    }

    fn start_checkpoint(&mut self, k: &mut Kernel<'_>) {
        if self.clients.is_empty() {
            return;
        }
        if self.in_progress || self.drain_open {
            // A generation is still in its stop-the-world phase or its
            // overlapped drain; checkpoints are serialized — remember the
            // request and start it once `CKPT_WRITTEN` releases.
            self.queued = true;
            return;
        }
        let expected: u32 = self.clients.iter().map(Client::quota).sum();
        if expected == 0 {
            // Only empty relays are connected; nothing to checkpoint.
            return;
        }
        self.gen += 1;
        self.in_progress = true;
        self.drain_open = true;
        self.restarting = false;
        self.expected = expected;
        self.requested_at = k.now();
        // Relay liveness counts from the request; arm the sweep if any
        // relay participates.
        let now = k.now();
        let mut have_relays = false;
        for c in &mut self.clients {
            if let Some(r) = c.relay.as_mut() {
                r.last_heard = now;
                have_relays = true;
            }
        }
        if have_relays {
            self.liveness_at = Some(now + LIVENESS_CHECK);
            self.arm_timer(k, LIVENESS_CHECK);
        }
        let (gen, expected) = (self.gen, self.expected);
        k.trace_with("coord", || {
            format!("ckpt gen {gen} requested ({expected} procs)")
        });
        k.obs().metrics.inc("core.ckpt.requests", 0);
        let (at, track) = (k.now(), k.track());
        k.obs()
            .spans
            .instant(at, track, "ckpt.request", "coord", vec![("gen", gen)]);
        k.obs().journal.record(
            at,
            obs::journal::CLASS_STAGE,
            "stage.request",
            None,
            &[("gen", gen), ("participants", expected as u64)],
            "",
        );
        let port = self.port;
        coord_shared_for(k.w, port).gen_stats.push(GenStat {
            gen: self.gen,
            requested_at: self.requested_at,
            releases: BTreeMap::new(),
            participants: self.expected,
            aborted: false,
        });
        coord_shared_for(k.w, port).last_images.clear();
        // Generation numbers can be reused after a restart rolled the
        // counter back; drop any stale barrier state for this one.
        self.aborted_gens.remove(&gen);
        self.barrier_counts.retain(|(g, _), _| *g != gen);
        self.released.retain(|(g, _)| *g != gen);
        self.broadcast(k, &Msg::CkptRequest(self.gen));
        // The request is the one coordinator message with no manager-side
        // retransmission; arm a retry in case the network eats it.
        self.retry_backoff = CKPT_RETRY_INITIAL;
        self.retry_at = Some(k.now() + self.retry_backoff);
        self.arm_timer(k, self.retry_backoff);
        let candidates = traced_candidates(k);
        let coord_node = k.node();
        faultkit::checkpoint_requested(k.w, k.sim, gen, stage::SUSPENDED, &candidates, coord_node);
    }

    /// Abandon the in-flight generation: a participant died mid-protocol.
    /// Survivors are told to roll back and resume computing; the
    /// generation's images (if any) are never listed in a generation record.
    fn abort_generation(&mut self, k: &mut Kernel<'_>) {
        if !self.in_progress {
            return;
        }
        let gen = self.gen;
        self.in_progress = false;
        self.drain_open = false;
        self.retry_at = None;
        self.migrating = None;
        self.aborted_gens.insert(gen);
        self.barrier_counts.retain(|(g, _), _| *g != gen);
        self.released.retain(|(g, _)| *g != gen);
        if let Some(gs) = coord_shared_for(k.w, self.port)
            .gen_stats
            .iter_mut()
            .rev()
            .find(|g| g.gen == gen)
        {
            gs.aborted = true;
        }
        k.trace_with("coord", || format!("ckpt gen {gen} ABORTED"));
        k.obs().metrics.inc("core.ckpt.aborts", 0);
        let (at, track) = (k.now(), k.track());
        k.obs()
            .spans
            .instant(at, track, "ckpt.abort", "coord", vec![("gen", gen)]);
        k.obs().journal.record(
            at,
            obs::journal::CLASS_STAGE,
            "stage.abort",
            None,
            &[("gen", gen)],
            "generation",
        );
        self.broadcast(k, &Msg::CkptAbort(gen));
        if let Some(iv) = self.interval {
            let (pid, port) = (k.getpid_real(), self.port);
            k.sim.after(iv, move |w: &mut World, sim| {
                coord_shared_for(w, port).ckpt_request_pending = true;
                w.wake(sim, (pid, Tid(0)));
            });
        }
        if self.queued {
            self.queued = false;
            self.start_checkpoint(k);
        }
    }

    /// Abandon the overlapped drain phase: a participant died *after* user
    /// threads resumed but before its background image write finished, so
    /// this generation's images can never all become durable. Survivors
    /// whose drains are still in flight are told to stand down; the restart
    /// script of the previous generation remains in place, so a restart
    /// rolls back exactly one generation (the transparency invariant).
    fn abort_drain(&mut self, k: &mut Kernel<'_>) {
        if !self.drain_open || self.in_progress {
            return;
        }
        let gen = self.gen;
        self.drain_open = false;
        self.aborted_gens.insert(gen);
        self.barrier_counts.retain(|(g, _), _| *g != gen);
        if let Some(gs) = coord_shared_for(k.w, self.port)
            .gen_stats
            .iter_mut()
            .rev()
            .find(|g| g.gen == gen)
        {
            gs.aborted = true;
        }
        k.trace_with("coord", || format!("ckpt gen {gen} drain ABORTED"));
        k.obs().metrics.inc("core.ckpt.drain_aborts", 0);
        let (at, track) = (k.now(), k.track());
        k.obs()
            .spans
            .instant(at, track, "ckpt.drain_abort", "coord", vec![("gen", gen)]);
        k.obs().journal.record(
            at,
            obs::journal::CLASS_STAGE,
            "stage.abort",
            None,
            &[("gen", gen)],
            "drain",
        );
        self.broadcast(k, &Msg::CkptAbort(gen));
        if self.queued {
            self.queued = false;
            self.start_checkpoint(k);
        }
    }

    fn handle(&mut self, k: &mut Kernel<'_>, from: usize, msg: Msg) {
        // Inbound half of the per-generation root message count (the
        // outbound half is in `send_to`).
        k.obs().metrics.inc("coord.root_msgs", self.gen);
        // Only restart-protocol traffic proves a client belongs to the
        // restored computation (see `Client::stale`): a zombie's final
        // in-flight packets — e.g. a reordered checkpoint-barrier ack —
        // can be delivered in the same wake as its EOF, so arbitrary
        // traffic must not clear the flag.
        match &msg {
            Msg::Register(..) => self.clients[from].stale = false,
            Msg::BarrierReached(_, stg) if *stg >= stage::RESTORED => {
                self.clients[from].stale = false;
            }
            _ => {}
        }
        match msg {
            Msg::Register(vpid, _host) => {
                self.clients[from].vpid = vpid;
            }
            Msg::BarrierReached(gen, stg) => {
                if self.aborted_gens.contains(&gen) {
                    // Stale arrival from an abandoned attempt. For the
                    // drain barrier, answer with the abort rather than
                    // dropping silently: a forked manager finishing its
                    // background write after a drain abort would otherwise
                    // retransmit this ack forever. Other stages (notably
                    // the restart barriers, which legitimately reuse an
                    // aborted generation number before `RestartPlan`
                    // arrives) keep the silent-drop behavior.
                    if stg == stage::CKPT_WRITTEN {
                        let fd = self.clients[from].fd;
                        self.send_to(k, fd, &Msg::CkptAbort(gen));
                    }
                    return;
                }
                if self.released.contains(&(gen, stg)) {
                    // Our release may have been lost; re-send it to this
                    // client only.
                    let fd = self.clients[from].fd;
                    self.send_to(k, fd, &Msg::BarrierRelease(gen, stg));
                    return;
                }
                let key = self.clients[from].contrib_key();
                let reached = self.barrier_counts.entry((gen, stg)).or_default();
                if reached.insert(key, 1).is_some() {
                    return; // duplicate (retransmitted) arrival
                }
                self.check_release(k, gen, stg);
            }
            Msg::BarrierAckN(gen, stg, count) => {
                // A relay's aggregated barrier contribution. Mirrors the
                // `BarrierReached` paths (abort answer, release re-send),
                // but merges a cumulative count instead of a single vpid.
                self.heard_from(k, from);
                if self.aborted_gens.contains(&gen) {
                    if stg == stage::CKPT_WRITTEN {
                        let fd = self.clients[from].fd;
                        self.send_to(k, fd, &Msg::CkptAbort(gen));
                    }
                    return;
                }
                if self.released.contains(&(gen, stg)) {
                    let fd = self.clients[from].fd;
                    self.send_to(k, fd, &Msg::BarrierRelease(gen, stg));
                    return;
                }
                let key = self.clients[from].contrib_key();
                let reached = self.barrier_counts.entry((gen, stg)).or_default();
                let cur = reached.entry(key).or_insert(0);
                if count <= *cur {
                    return; // stale or retransmitted (counts are cumulative)
                }
                *cur = count;
                self.check_release(k, gen, stg);
            }
            Msg::RelayRegister(host) => {
                let now = k.now();
                self.clients[from].relay = Some(RelayInfo {
                    members: 0,
                    last_heard: now,
                });
                k.trace_with("coord", || format!("relay registered from {host}"));
            }
            Msg::RelayMembership(count, lost) => {
                self.heard_from(k, from);
                if let Some(r) = self.clients[from].relay.as_mut() {
                    r.members = count;
                }
                if lost > 0 && !self.restarting {
                    // A participant behind this relay died. Identical to a
                    // direct client's EOF: the in-flight barrier (or the
                    // overlapped drain) can never complete.
                    if self.in_progress {
                        self.abort_generation(k);
                    } else if self.drain_open {
                        self.abort_drain(k);
                    }
                }
            }
            Msg::RelayPing(gen) => {
                self.heard_from(k, from);
                let fd = self.clients[from].fd;
                self.send_to(k, fd, &Msg::RelayPong(gen));
            }
            Msg::Advertise(gsid, host, port) => {
                self.discovery.insert(gsid, (host, port));
            }
            Msg::Query(gsid) => {
                let reply = match self.discovery.get(&gsid) {
                    Some((h, p)) => Msg::QueryReply(gsid, h.clone(), *p),
                    None => Msg::QueryReply(gsid, String::new(), 0),
                };
                let fd = self.clients[from].fd;
                self.send_to(k, fd, &reply);
            }
            Msg::RestartPlan(n, gen) => {
                // A restart driver re-arms barrier accounting for the
                // restored computation at the generation it is restoring.
                // Restored managers register directly with the root, so the
                // restart runs flat even when the crashed computation was
                // hierarchical; surviving relays just sit out (and must not
                // be liveness-timed-out meanwhile — hence `restarting`).
                self.expected = n;
                self.in_progress = true;
                self.restarting = true;
                self.migrating = None;
                // Any pre-restart drain or queued request died with the
                // computation being replaced.
                self.drain_open = false;
                self.queued = false;
                self.gen = gen;
                self.requested_at = k.now();
                // Advertisements from any previous restart are stale, and a
                // restored generation number sheds any aborted-attempt
                // state it may have carried before the rollback.
                self.discovery.clear();
                self.aborted_gens.clear();
                self.released.retain(|(g, _)| *g != gen);
                // Everyone registered so far belongs to the computation
                // being replaced; their in-flight EOFs must not abort the
                // restart. Restored managers that raced ahead of the plan
                // clear the flag with their next message.
                for c in &mut self.clients {
                    if c.vpid != 0 {
                        c.stale = true;
                    }
                }
                coord_shared_for(k.w, self.port).gen_stats.push(GenStat {
                    gen,
                    requested_at: self.requested_at,
                    releases: BTreeMap::new(),
                    participants: n,
                    aborted: false,
                });
                // Managers may have raced their barrier messages ahead of
                // the plan; re-check every pending barrier.
                let pending: Vec<(u64, u8)> = self.barrier_counts.keys().copied().collect();
                for (g, s) in pending {
                    self.check_release(k, g, s);
                }
            }
            Msg::MigratePlan(n, gen) => {
                // A migration driver restores a *subset* of generation
                // `gen`'s managers onto new nodes while the rest of the
                // computation keeps running. Unlike `RestartPlan`, nobody is
                // marked stale and the full barrier accounting stays armed:
                // only the restart-stage barriers of `gen` are scoped down
                // to the `n` movers (see `check_release`).
                self.migrating = Some((gen, n));
                // Checkpoints serialize against the restore window — a
                // request arriving mid-migration would reach managers that
                // are not resumed yet. Queued requests start once
                // RESTART_REFILLED releases.
                self.in_progress = true;
                // The movers' source processes were deliberately killed;
                // relay membership-loss reports for them must not abort the
                // migration.
                self.restarting = true;
                self.gen = gen;
                self.requested_at = k.now();
                // A previous failed attempt at this migration may have
                // aborted the generation; a retry legitimately reuses it.
                self.aborted_gens.remove(&gen);
                self.released
                    .retain(|(g, s)| !(*g == gen && *s >= stage::RESTORED));
                coord_shared_for(k.w, self.port).gen_stats.push(GenStat {
                    gen,
                    requested_at: self.requested_at,
                    releases: BTreeMap::new(),
                    participants: n,
                    aborted: false,
                });
                // Movers may have raced their barrier messages ahead of the
                // plan; re-check every pending barrier.
                let pending: Vec<(u64, u8)> = self.barrier_counts.keys().copied().collect();
                for (g, s) in pending {
                    self.check_release(k, g, s);
                }
            }
            other => panic!("coordinator got unexpected message {other:?}"),
        }
    }

    /// Release a barrier once every expected participant reached it.
    fn check_release(&mut self, k: &mut Kernel<'_>, gen: u64, stg: u8) {
        let count = self
            .barrier_counts
            .get(&(gen, stg))
            .map(|m| m.values().sum::<u32>())
            .unwrap_or(0);
        // During a live migration only the movers run the restart stages:
        // they release against the migration's own quorum, not the full
        // computation's.
        let expected = match self.migrating {
            Some((mg, n)) if gen == mg && stg >= stage::RESTORED => n,
            _ => self.expected,
        };
        if expected == 0 || count < expected {
            return;
        }
        // CKPT_WRITTEN is ordered after REFILLED even though in-line
        // writers ack it earlier (their image is durable before the
        // refill): hold the release until the stop-the-world protocol has
        // fully completed, so stages release in Figure-1 order.
        if stg == stage::CKPT_WRITTEN && !self.released.contains(&(gen, stage::REFILLED)) {
            return;
        }
        self.barrier_counts.remove(&(gen, stg));
        self.released.insert((gen, stg));
        let now = k.now();
        if let Some(gs) = coord_shared_for(k.w, self.port)
            .gen_stats
            .iter_mut()
            .rev()
            .find(|g| g.gen == gen)
        {
            gs.releases.insert(stg, now);
        }
        k.trace_with("barrier", || format!("gen {gen} stage {stg} released"));
        k.obs().metrics.inc("core.barrier.releases", stg as u64);
        let track = k.track();
        k.obs().spans.instant(
            now,
            track,
            stage::release_name(stg),
            "coord",
            vec![("gen", gen), ("stage", stg as u64)],
        );
        k.obs().journal.record(
            now,
            obs::journal::CLASS_STAGE,
            "stage.release",
            None,
            &[("gen", gen), ("stage", stg as u64)],
            stage::release_name(stg),
        );
        self.broadcast(k, &Msg::BarrierRelease(gen, stg));
        if stg == stage::REFILLED || stg == stage::RESTART_REFILLED {
            self.in_progress = false;
            self.retry_at = None;
            if stg == stage::RESTART_REFILLED {
                self.migrating = None;
                // Restart completion: the restored images are the record's
                // content; checkpoints instead publish their record only
                // once CKPT_WRITTEN confirms every image is durable.
                self.publish_record(k);
                // A checkpoint requested mid-restore was queued; start it
                // now that every manager is resumed.
                if self.queued {
                    self.queued = false;
                    self.start_checkpoint(k);
                }
            }
            if let Some(iv) = self.interval {
                let (pid, port) = (k.getpid_real(), self.port);
                k.sim.after(iv, move |w: &mut World, sim| {
                    coord_shared_for(w, port).ckpt_request_pending = true;
                    w.wake(sim, (pid, Tid(0)));
                });
            }
        }
        let candidates = traced_candidates(k);
        let coord_node = k.node();
        faultkit::stage_released(k.w, k.sim, gen, stg, &candidates, coord_node);
        if stg == stage::REFILLED {
            // In-line writers acked CKPT_WRITTEN before CHECKPOINTED; if
            // everyone already reached it, the drain closes at this same
            // instant (two-phase protocol degenerates to the old one).
            self.check_release(k, gen, stage::CKPT_WRITTEN);
        }
        if stg == stage::CKPT_WRITTEN {
            self.drain_open = false;
            self.publish_record(k);
            if self.queued {
                self.queued = false;
                self.start_checkpoint(k);
            }
        }
    }

    /// Mirror the barrier bookkeeping into [`CoordShared`] so replay state
    /// dumps can render it without downcasting the program. Called once at
    /// the end of every step — cheap (the maps are tiny) and always
    /// consistent with what this step left behind.
    fn mirror_state(&self, k: &mut Kernel<'_>) {
        let pending: BTreeMap<(u64, u8), u32> = self
            .barrier_counts
            .iter()
            .map(|(key, m)| (*key, m.values().sum()))
            .collect();
        let participants = self
            .clients
            .iter()
            .filter(|c| !c.stale && c.vpid != 0)
            .count() as u32;
        let s = coord_shared_for(k.w, self.port);
        s.coord_gen = self.gen;
        s.coord_in_progress = self.in_progress;
        s.coord_drain_open = self.drain_open;
        s.coord_expected = self.expected;
        s.coord_participants = participants;
        s.barrier_pending = pending;
    }

    /// Publish the generation record (§3's restart script, typed — see
    /// [`crate::restart::record`]) listing every image of the last
    /// generation. Each coordinator writes its own per-port record, so
    /// dmtcpd shards never clobber one another's restart plans.
    fn publish_record(&mut self, k: &mut Kernel<'_>) {
        let images = &coord_shared_for(k.w, self.port).last_images;
        if let Some(rec) = GenRecord::from_images(images) {
            let node = k.node();
            rec.write(k.w, node, self.port);
        }
    }
}

impl Program for Coordinator {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.lfd < 0 {
            let (fd, port) = k.listen_on(self.port).expect("coordinator port free");
            self.lfd = fd;
            self.port = port;
            coord_shared_for(k.w, port).coord_pid = Some(k.getpid_real());
            if let Some(iv) = self.interval {
                // Arm the first interval tick.
                let pid = k.getpid_real();
                k.sim.after(iv, move |w: &mut World, sim| {
                    coord_shared_for(w, port).ckpt_request_pending = true;
                    w.wake(sim, (pid, Tid(0)));
                });
            }
        }
        let mut progressed = true;
        while progressed {
            progressed = false;
            // Accept new managers.
            loop {
                match k.accept(self.lfd) {
                    Ok(fd) => {
                        let serial = self.next_serial;
                        self.next_serial += 1;
                        self.clients.push(Client {
                            fd,
                            vpid: 0,
                            fb: FrameBuf::new(),
                            stale: false,
                            serial,
                            relay: None,
                        });
                        progressed = true;
                    }
                    Err(Errno::WouldBlock) => break,
                    Err(e) => panic!("coordinator accept: {e:?}"),
                }
            }
            // Drain every client socket; clients whose process exited
            // (EOF) leave the computation. A client speaking garbage
            // (corrupted frames) is treated the same as a dead one.
            let mut dead = Vec::new();
            for i in 0..self.clients.len() {
                loop {
                    match k.read(self.clients[i].fd, 64 * 1024) {
                        Ok(b) if b.is_empty() => {
                            dead.push(i);
                            break;
                        }
                        Ok(b) => {
                            self.clients[i].fb.feed(&b);
                            progressed = true;
                        }
                        Err(Errno::WouldBlock) => break,
                        Err(Errno::BadFd) => {
                            dead.push(i);
                            break;
                        }
                        Err(e) => panic!("coordinator read: {e:?}"),
                    }
                }
                loop {
                    match self.clients[i].fb.pop() {
                        Ok(Some(msg)) => {
                            self.handle(k, i, msg);
                            progressed = true;
                        }
                        Ok(None) => break,
                        Err(_) => {
                            if !dead.contains(&i) {
                                dead.push(i);
                            }
                            break;
                        }
                    }
                }
            }
            // Only *registered* clients are protocol participants; restart
            // processes and command-line tools connect without registering
            // and may hang up freely (e.g. after forking the children). A
            // relay counts as a participant whenever it fronts anyone.
            let lost_participant = dead.iter().any(|&i| {
                let c = &self.clients[i];
                !c.stale && (c.vpid != 0 || (c.relay.is_some() && c.quota() > 0))
            });
            for i in dead.into_iter().rev() {
                let c = self.clients.remove(i);
                let _ = k.close(c.fd);
                progressed = true;
            }
            if lost_participant {
                if self.in_progress {
                    // A participant vanished mid-protocol; the barrier can
                    // never be reached. Abort and let the survivors resume.
                    self.abort_generation(k);
                    progressed = true;
                } else if self.drain_open {
                    // It vanished during the overlapped drain: its image
                    // will never be acknowledged. Abandon the generation;
                    // restart rolls back to the previous one.
                    self.abort_drain(k);
                    progressed = true;
                }
            }
            // Mailbox: `dmtcp command --checkpoint`, interval timer, or the
            // dmtcpaware request API.
            if coord_shared_for(k.w, self.port).ckpt_request_pending {
                coord_shared_for(k.w, self.port).ckpt_request_pending = false;
                self.start_checkpoint(k);
                progressed = true;
            }
        }
        // Retransmit the checkpoint request if the first barrier has not
        // been released by the deadline (the broadcast may have been lost).
        if let Some(at) = self.retry_at {
            if k.now() >= at {
                if self.in_progress && !self.released.contains(&(self.gen, stage::SUSPENDED)) {
                    k.obs().metrics.inc("core.ckpt.request_retries", 0);
                    let gen = self.gen;
                    k.trace_with("coord", || format!("ckpt gen {gen} request retransmitted"));
                    self.broadcast(k, &Msg::CkptRequest(gen));
                    self.retry_backoff = self.retry_backoff + self.retry_backoff;
                    self.retry_at = Some(k.now() + self.retry_backoff);
                    self.arm_timer(k, self.retry_backoff);
                } else {
                    self.retry_at = None;
                }
            }
        }
        // Relay-liveness sweep: a relay silent past RELAY_TIMEOUT inside an
        // in-flight generation means its node is gone — drop it and abort,
        // exactly as a direct participant's EOF would. Never during a
        // restart (relays legitimately sit those out) and never re-armed
        // once idle, so the coordinator stays quiescent between requests.
        if let Some(at) = self.liveness_at {
            if k.now() >= at {
                self.liveness_at = None;
                if (self.in_progress || self.drain_open) && !self.restarting {
                    let now = k.now();
                    let timed_out: Vec<usize> = self
                        .clients
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| {
                            c.relay
                                .as_ref()
                                .map(|r| r.members > 0 && now - r.last_heard > RELAY_TIMEOUT)
                                .unwrap_or(false)
                        })
                        .map(|(i, _)| i)
                        .collect();
                    if timed_out.is_empty() {
                        self.liveness_at = Some(now + LIVENESS_CHECK);
                        self.arm_timer(k, LIVENESS_CHECK);
                    } else {
                        for i in timed_out.into_iter().rev() {
                            let c = self.clients.remove(i);
                            let _ = k.close(c.fd);
                            k.trace_with("coord", || {
                                "relay timed out mid-generation; dropping it".to_string()
                            });
                            k.obs().metrics.inc("coord.relay_timeouts", 0);
                        }
                        if self.in_progress {
                            self.abort_generation(k);
                        } else {
                            self.abort_drain(k);
                        }
                    }
                }
            }
        }
        self.mirror_state(k);
        Step::Block
    }

    fn tag(&self) -> &'static str {
        "dmtcp-coordinator"
    }

    fn save(&self) -> Vec<u8> {
        unreachable!("the coordinator is never checkpointed (as in real DMTCP)")
    }
}

/// Every live DMTCP-traced process, with its node — the fault injector's
/// candidate victims for process/node kills at barrier instants.
fn traced_candidates(k: &Kernel<'_>) -> Vec<(Pid, NodeId)> {
    k.w.procs
        .iter()
        .filter(|(_, p)| crate::hijack::is_traced_proc(p) && p.alive())
        .map(|(pid, p)| (*pid, p.node))
        .collect()
}

/// Record an image written by a manager so the generation record of the
/// root coordinator on `root_port` lists it.
pub fn record_image(w: &mut World, root_port: u16, path: String, host: String) {
    coord_shared_for(w, root_port)
        .last_images
        .push((path, host));
}

/// Post a checkpoint request to the coordinator on `port` (`dmtcp_command
/// --checkpoint`) and wake it.
pub fn request_checkpoint(w: &mut World, sim: &mut oskit::world::OsSim, port: u16) {
    let cs = coord_shared_for(w, port);
    cs.ckpt_request_pending = true;
    if let Some(pid) = cs.coord_pid {
        w.wake(sim, (pid, Tid(0)));
    }
}

/// Query the discovery/global tables — used by tests to assert protocol
/// invariants without reaching into the coordinator program.
pub fn discovery_len(w: &mut World) -> usize {
    // The discovery table lives in the program; expose via the gsid table
    // instead: count of advertised ids is not tracked globally, so report
    // the number of known connection gsids.
    global(w).conn_gsid.len()
}
