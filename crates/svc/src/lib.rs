//! `dmtcpd` — a long-lived multi-tenant checkpoint service.
//!
//! The paper's coordinator serves exactly one computation: one port, one
//! barrier state machine, one restart script. This crate multiplexes many
//! independent computations over a single service daemon:
//!
//! * a **session registry** with admission control — at most
//!   `max_sessions` concurrent sessions of at most `max_procs_per_session`
//!   participants each, refusals carried as typed
//!   [`dmtcp::proto::RejectReason`] codes on the wire;
//! * **sharded root coordinators** — N independent [`dmtcp::Coordinator`]
//!   instances on distinct ports, sessions hash-assigned (`sid % shards`),
//!   each shard reusing the hierarchical relay tier unchanged (shard root
//!   ports are spaced two apart so every shard's `root_port + 1` relay
//!   port is collision-free);
//! * **per-tenant storage namespaces** — every session's images live under
//!   [`ckptstore::tenant::tenant_prefix`], where the tenant's byte quota
//!   and GC retention policy govern them.
//!
//! The service conversation (open/accept/reject/close/checkpoint) is
//! carried as framed [`dmtcp::proto::Msg`] service messages through the
//! daemon's request mailbox — the simulated stand-in for the daemon's
//! listening socket; barrier traffic stays on each shard's own coordinator
//! socket, untouched. A [`Client`] holds a [`dmtcp::Session`] on its shard
//! (`client.session`), so a computation ports from the single-session world
//! to dmtcpd by driving that session; only checkpoint requests go through
//! the daemon, which may refuse them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dmtcp::coord::{Coordinator, GenStat};
use dmtcp::launch::{Options, Topology};
use dmtcp::proto::{frame, FrameBuf, Msg, RejectReason};
use dmtcp::session::CkptError;
use dmtcp::Session;
use oskit::program::{Program, Step};
use oskit::world::{NodeId, OsSim, Pid, Tid, World};
use oskit::Kernel;
use simkit::Nanos;
use std::collections::{BTreeMap, VecDeque};

/// Default service port (distinct from every coordinator port).
pub const SVC_PORT: u16 = 7700;

/// Default base of the shard root-port range; shard `k` listens on
/// `base + 2k` and its relay tier on `base + 2k + 1`.
pub const SHARD_PORT_BASE: u16 = 7800;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Node hosting the daemon and every shard coordinator.
    pub node: NodeId,
    /// Service port (the registry mailbox key, not a coordinator port).
    pub port: u16,
    /// Number of shard coordinators.
    pub shards: u16,
    /// First shard root port; shard `k` gets `shard_port_base + 2k`.
    pub shard_port_base: u16,
    /// Admission ceiling on concurrently open sessions.
    pub max_sessions: u32,
    /// Admission ceiling on participants per session.
    pub max_procs_per_session: u32,
    /// Quota installed for tenants not already registered with
    /// [`ckptstore::tenant::register_tenant`] (0 = unlimited).
    pub default_quota_bytes: u64,
    /// Retention installed for tenants not already registered.
    pub default_retention: u32,
    /// Topology every session launches under (per-shard relay tier when
    /// hierarchical).
    pub topology: Topology,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            node: NodeId(0),
            port: SVC_PORT,
            shards: 4,
            shard_port_base: SHARD_PORT_BASE,
            max_sessions: 128,
            max_procs_per_session: 64,
            default_quota_bytes: 0,
            default_retention: 4,
            topology: Topology::Flat,
        }
    }
}

/// One registry entry.
#[derive(Debug, Clone)]
pub struct SessionRec {
    /// Session id (dense, never reused within a daemon lifetime).
    pub sid: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Participant ceiling the session was admitted with.
    pub procs: u32,
    /// Shard index (`sid % shards`).
    pub shard: u16,
    /// The shard's root coordinator port.
    pub shard_port: u16,
    /// Image directory (inside the tenant's namespace).
    pub dir: String,
}

/// World-shared daemon state: the request mailbox (the daemon's "listening
/// socket"), the reply queues, and the session registry — one per daemon
/// port, so several daemons can coexist in one world.
#[derive(Debug, Default)]
pub struct SvcShared {
    /// Daemon process, for waking on mailbox posts.
    pub daemon_pid: Option<Pid>,
    /// Framed service requests awaiting the daemon.
    pub inbox: VecDeque<Vec<u8>>,
    /// Framed replies to open requests awaiting clients (requests are
    /// processed in order and `open` waits synchronously, so a FIFO pairs
    /// them up).
    pub replies: VecDeque<Vec<u8>>,
    /// The latest framed refusal of each session's checkpoint request, by
    /// sid. Checkpoint requests may be asynchronous, so their refusals are
    /// addressed rather than queued: one tenant's refusal never answers
    /// another caller.
    pub refusals: BTreeMap<u64, Vec<u8>>,
    /// Open sessions by sid.
    pub sessions: BTreeMap<u64, SessionRec>,
    /// Shard coordinator pids by shard index.
    pub shard_pids: Vec<Pid>,
    /// Sessions ever admitted (sid allocator).
    pub admitted: u64,
}

/// Every daemon's [`SvcShared`], keyed by its service port.
#[derive(Default)]
struct SvcSlot(BTreeMap<u16, SvcShared>);

/// Access (creating if absent) the daemon state for the daemon on `port`.
pub fn svc_shared(w: &mut World, port: u16) -> &mut SvcShared {
    w.slots
        .get_or_default::<SvcSlot>()
        .0
        .entry(port)
        .or_default()
}

/// Root coordinator port of shard `k` under `cfg`.
pub fn shard_root_port(cfg: &DaemonConfig, shard: u16) -> u16 {
    cfg.shard_port_base + 2 * shard
}

/// The daemon program: drains the request mailbox, runs admission control,
/// and forwards checkpoint requests to the owning shard.
struct DaemonProg {
    cfg: DaemonConfig,
    lfd: oskit::Fd,
}

impl DaemonProg {
    /// Refuse a request: an open on the reply FIFO, a checkpoint request
    /// of session `ckpt_sid` under that sid.
    fn reject(
        &self,
        k: &mut Kernel<'_>,
        ckpt_sid: Option<u64>,
        reason: RejectReason,
        detail: String,
    ) {
        k.obs()
            .metrics
            .inc("svc.sessions_rejected", reason as u8 as u64);
        let reply = frame(&Msg::SessionRejected(reason as u8, detail));
        let shared = svc_shared(k.w, self.cfg.port);
        match ckpt_sid {
            Some(sid) => {
                shared.refusals.insert(sid, reply);
            }
            None => shared.replies.push_back(reply),
        }
    }

    fn handle(&mut self, k: &mut Kernel<'_>, msg: Msg) {
        match msg {
            Msg::OpenSession(tenant, procs) => self.open_session(k, tenant, procs),
            Msg::CloseSession(sid) => self.close_session(k, sid),
            Msg::SessionCkpt(sid) => self.session_ckpt(k, sid),
            other => {
                // Service mailbox speaks only service frames; anything else
                // is a client bug worth surfacing, not crashing over.
                k.obs().metrics.inc("svc.unexpected_frames", 0);
                k.trace_with("dmtcpd", || {
                    format!("unexpected frame {}", dmtcp::proto::msg_name(&other))
                });
            }
        }
    }

    fn open_session(&mut self, k: &mut Kernel<'_>, tenant: String, procs: u32) {
        if tenant.is_empty() || procs == 0 {
            return self.reject(
                k,
                None,
                RejectReason::BadRequest,
                "tenant name and proc count must be non-empty".into(),
            );
        }
        if procs > self.cfg.max_procs_per_session {
            return self.reject(
                k,
                None,
                RejectReason::TooManyProcs,
                format!("{procs} procs > limit {}", self.cfg.max_procs_per_session),
            );
        }
        let open = svc_shared(k.w, self.cfg.port).sessions.len() as u32;
        if open >= self.cfg.max_sessions {
            return self.reject(
                k,
                None,
                RejectReason::SessionsFull,
                format!("{open} sessions open, limit {}", self.cfg.max_sessions),
            );
        }
        if ckptstore::tenant::over_quota(k.w, &tenant) {
            let used = ckptstore::tenant::usage(k.w, &tenant).unwrap_or(0);
            return self.reject(
                k,
                None,
                RejectReason::QuotaExceeded,
                format!("tenant {tenant} ledger at {used} bytes"),
            );
        }
        if ckptstore::tenant::policy(k.w, &tenant).is_none() {
            ckptstore::tenant::register_tenant(
                k.w,
                &tenant,
                ckptstore::tenant::TenantConfig {
                    quota_bytes: self.cfg.default_quota_bytes,
                    retention: self.cfg.default_retention,
                },
            );
        }
        let cfg = self.cfg.clone();
        let shared = svc_shared(k.w, cfg.port);
        let sid = shared.admitted + 1;
        shared.admitted = sid;
        let shard = (sid % cfg.shards as u64) as u16;
        let shard_port = shard_root_port(&cfg, shard);
        let dir = format!("{}/s{sid}", ckptstore::tenant::tenant_prefix(&tenant));
        shared.sessions.insert(
            sid,
            SessionRec {
                sid,
                tenant: tenant.clone(),
                procs,
                shard,
                shard_port,
                dir: dir.clone(),
            },
        );
        let open_now = shared.sessions.len() as u64;
        shared
            .replies
            .push_back(frame(&Msg::SessionAccepted(sid, shard_port, dir)));
        let now = k.now();
        let obs = k.obs();
        obs.metrics.inc("svc.sessions_admitted", sid);
        obs.metrics
            .set_gauge("svc.sessions_open", 0, open_now as f64);
        obs.journal.record(
            now,
            obs::journal::CLASS_STAGE,
            "svc.open",
            None,
            &[
                ("sid", sid),
                ("shard", shard as u64),
                ("procs", procs as u64),
            ],
            &tenant,
        );
    }

    fn close_session(&mut self, k: &mut Kernel<'_>, sid: u64) {
        let removed = svc_shared(k.w, self.cfg.port).sessions.remove(&sid);
        let open_now = svc_shared(k.w, self.cfg.port).sessions.len() as u64;
        let now = k.now();
        let obs = k.obs();
        if removed.is_some() {
            obs.metrics
                .set_gauge("svc.sessions_open", 0, open_now as f64);
            obs.journal.record(
                now,
                obs::journal::CLASS_STAGE,
                "svc.close",
                None,
                &[("sid", sid)],
                "",
            );
        } else {
            obs.metrics.inc("svc.unknown_session", sid);
        }
    }

    fn session_ckpt(&mut self, k: &mut Kernel<'_>, sid: u64) {
        let Some(rec) = svc_shared(k.w, self.cfg.port).sessions.get(&sid).cloned() else {
            k.obs().metrics.inc("svc.unknown_session", sid);
            let detail = format!("no session {sid}");
            return self.reject(k, Some(sid), RejectReason::BadRequest, detail);
        };
        if ckptstore::tenant::over_quota(k.w, &rec.tenant) {
            let used = ckptstore::tenant::usage(k.w, &rec.tenant).unwrap_or(0);
            let now = k.now();
            let obs = k.obs();
            obs.journal.record(
                now,
                obs::journal::CLASS_STAGE,
                "svc.quota_refusal",
                None,
                &[("sid", sid), ("used", used)],
                &rec.tenant,
            );
            return self.reject(
                k,
                Some(sid),
                RejectReason::QuotaExceeded,
                format!("tenant {} ledger at {used} bytes", rec.tenant),
            );
        }
        let now = k.now();
        let obs = k.obs();
        obs.metrics.inc("svc.ckpt_requests", sid);
        obs.journal.record(
            now,
            obs::journal::CLASS_STAGE,
            "svc.ckpt_request",
            None,
            &[("sid", sid), ("shard", rec.shard as u64)],
            &rec.tenant,
        );
        dmtcp::coord::request_checkpoint(k.w, k.sim, rec.shard_port);
    }
}

impl Program for DaemonProg {
    fn step(&mut self, k: &mut Kernel<'_>) -> Step {
        if self.lfd < 0 {
            // Bind the service port (reserving it against coordinators) and
            // register with the shared slot so mailbox posts can wake us.
            let (fd, _) = k.listen_on(self.cfg.port).expect("service port free");
            self.lfd = fd;
            let pid = k.getpid_real();
            svc_shared(k.w, self.cfg.port).daemon_pid = Some(pid);
        }
        // Drain stray connection attempts; the WouldBlock also registers
        // this thread's waker for the Step::Block below.
        while let Ok(fd) = k.accept(self.lfd) {
            k.close(fd).ok();
        }
        while let Some(bytes) = svc_shared(k.w, self.cfg.port).inbox.pop_front() {
            let mut fb = FrameBuf::new();
            fb.feed(&bytes);
            loop {
                match fb.pop() {
                    Ok(Some(msg)) => self.handle(k, msg),
                    Ok(None) => break,
                    Err(_) => {
                        k.obs().metrics.inc("svc.malformed_frames", 0);
                        break;
                    }
                }
            }
        }
        Step::Block
    }

    fn tag(&self) -> &'static str {
        "dmtcpd"
    }

    fn save(&self) -> Vec<u8> {
        // Control plane: never traced, never checkpointed.
        Vec::new()
    }
}

/// A running daemon: the handle host code keeps (mirrors
/// [`dmtcp::Session`]'s role for the single-computation path).
#[derive(Debug, Clone)]
pub struct Dmtcpd {
    /// Configuration in force.
    pub cfg: DaemonConfig,
    /// Daemon process.
    pub daemon_pid: Pid,
    /// Shard coordinator pids, by shard index.
    pub shard_pids: Vec<Pid>,
}

impl Dmtcpd {
    /// Start the daemon and its shard coordinators on `cfg.node`.
    pub fn start(w: &mut World, sim: &mut OsSim, cfg: DaemonConfig) -> Dmtcpd {
        assert!(cfg.shards > 0, "a daemon needs at least one shard");
        let mut shard_pids = Vec::new();
        for shard in 0..cfg.shards {
            let port = shard_root_port(&cfg, shard);
            let pid = w.spawn(
                sim,
                cfg.node,
                "dmtcp_coordinator",
                Box::new(Coordinator::new(port, None)),
                Pid(1),
                BTreeMap::new(),
            );
            shard_pids.push(pid);
        }
        let daemon_pid = w.spawn(
            sim,
            cfg.node,
            "dmtcpd",
            Box::new(DaemonProg {
                cfg: cfg.clone(),
                lfd: -1,
            }),
            Pid(1),
            BTreeMap::new(),
        );
        // Let the shards bind and the daemon register before clients call.
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
        svc_shared(w, cfg.port).shard_pids = shard_pids.clone();
        Dmtcpd {
            cfg,
            daemon_pid,
            shard_pids,
        }
    }

    /// Open a session for `tenant` expecting up to `procs` participants.
    pub fn open(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        tenant: &str,
        procs: u32,
    ) -> Result<Client, OpenError> {
        post(
            w,
            sim,
            self.cfg.port,
            &Msg::OpenSession(tenant.into(), procs),
        );
        match wait_reply(w, sim, self.cfg.port) {
            Msg::SessionAccepted(sid, shard_port, dir) => {
                let shard = svc_shared(w, self.cfg.port).sessions[&sid].shard;
                Ok(Client {
                    daemon: self.clone(),
                    sid,
                    tenant: tenant.to_string(),
                    session: Session {
                        opts: Options::builder()
                            .coord(self.cfg.node)
                            .coord_port(shard_port)
                            .ckpt_dir(dir)
                            .topology(self.cfg.topology)
                            .build(),
                        coord_pid: self.shard_pids[shard as usize],
                    },
                })
            }
            Msg::SessionRejected(code, detail) => Err(OpenError::decode(code, detail)),
            other => panic!("daemon answered OpenSession with {other:?}"),
        }
    }

    /// Registry snapshot (sids of currently open sessions).
    pub fn open_sessions(&self, w: &mut World) -> Vec<u64> {
        svc_shared(w, self.cfg.port)
            .sessions
            .keys()
            .copied()
            .collect()
    }
}

/// Admission refusal, decoded from [`Msg::SessionRejected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenError {
    /// Typed reason (None when the daemon is newer than this client and
    /// sent a code we do not know).
    pub reason: Option<RejectReason>,
    /// Human-readable detail.
    pub detail: String,
}

impl OpenError {
    fn decode(code: u8, detail: String) -> OpenError {
        OpenError {
            reason: RejectReason::from_code(code),
            detail,
        }
    }
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session rejected ({:?}): {}", self.reason, self.detail)
    }
}

impl std::error::Error for OpenError {}

/// Why a service-path checkpoint returned no completed generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SvcCkptError {
    /// The daemon refused the request (quota, unknown session).
    Refused(OpenError),
    /// The shard's protocol failed ([`CkptError`] semantics unchanged).
    Ckpt(CkptError),
}

impl std::fmt::Display for SvcCkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcCkptError::Refused(e) => write!(f, "refused: {e}"),
            SvcCkptError::Ckpt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SvcCkptError {}

impl From<CkptError> for SvcCkptError {
    fn from(e: CkptError) -> Self {
        SvcCkptError::Ckpt(e)
    }
}

/// Post one framed service request into the daemon's mailbox and wake it.
fn post(w: &mut World, sim: &mut OsSim, port: u16, msg: &Msg) {
    let shared = svc_shared(w, port);
    shared.inbox.push_back(frame(msg));
    if let Some(pid) = shared.daemon_pid {
        w.wake(sim, (pid, Tid(0)));
    }
}

/// Decode one framed daemon reply.
fn decode(bytes: &[u8]) -> Msg {
    let mut fb = FrameBuf::new();
    fb.feed(bytes);
    fb.pop()
        .expect("daemon writes well-formed frames")
        .expect("reply frame complete")
}

/// Run the simulation until the daemon's reply FIFO yields a frame.
fn wait_reply(w: &mut World, sim: &mut OsSim, port: u16) -> Msg {
    let mut budget = 100_000u32;
    loop {
        if let Some(bytes) = svc_shared(w, port).replies.pop_front() {
            return decode(&bytes);
        }
        assert!(sim.step(w), "event queue drained awaiting daemon reply");
        budget -= 1;
        assert!(budget > 0, "daemon never replied");
    }
}

/// A client handle for one admitted session — the dmtcpd counterpart of
/// [`dmtcp::Session`]. Launch, kill, and restart go through
/// [`Client::session`]; checkpoint requests go through the daemon.
#[derive(Debug, Clone)]
pub struct Client {
    /// The daemon that admitted this session.
    pub daemon: Dmtcpd,
    /// Session id.
    pub sid: u64,
    /// Owning tenant.
    pub tenant: String,
    /// The session on its shard: options pinned to the shard's root port
    /// and the tenant's image directory, and the shard coordinator's pid.
    pub session: Session,
}

impl Client {
    /// Asynchronous checkpoint request, carried as a [`Msg::SessionCkpt`]
    /// service frame (the `dmtcp_command --checkpoint` analogue).
    pub fn request_checkpoint(&self, w: &mut World, sim: &mut OsSim) {
        post(w, sim, self.daemon.cfg.port, &Msg::SessionCkpt(self.sid));
    }

    /// Request a checkpoint and run the simulation until the session's
    /// shard settles it — completed (stats returned), aborted, out of
    /// budget, or refused by the daemon (quota).
    pub fn checkpoint_and_wait(
        &self,
        w: &mut World,
        sim: &mut OsSim,
        max_events: u64,
    ) -> Result<GenStat, SvcCkptError> {
        let port = self.daemon.cfg.port;
        // A refusal left by an earlier asynchronous request is not this
        // request's answer.
        svc_shared(w, port).refusals.remove(&self.sid);
        self.session.checkpoint_via(
            w,
            sim,
            max_events,
            |w, sim| self.request_checkpoint(w, sim),
            |w| {
                let bytes = svc_shared(w, port).refusals.remove(&self.sid)?;
                match decode(&bytes) {
                    Msg::SessionRejected(code, detail) => {
                        Some(SvcCkptError::Refused(OpenError::decode(code, detail)))
                    }
                    other => panic!("unexpected service reply {other:?}"),
                }
            },
        )
    }

    /// Tear the session down (frees its registry slot; images persist per
    /// the tenant's retention policy).
    pub fn close(&self, w: &mut World, sim: &mut OsSim) {
        post(w, sim, self.daemon.cfg.port, &Msg::CloseSession(self.sid));
        // Let the daemon process the teardown.
        sim.run_until(w, sim.now() + Nanos::from_millis(1));
    }
}
